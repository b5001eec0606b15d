"""Golden pins: the interval runs must keep reproducing recorded arrays.

``tests/golden/pins.npz`` holds the outputs of small density-matrix, weak,
fast and trajectory runs as computed before the interval driver was shared
between them (see CHANGES.md for the commit).  Regenerate only on purpose:

    PYTHONPATH=src python tests/test_golden.py --write
"""

import math
import os
import sys

import numpy as np
import pytest

from qtherm.engine import ProcessConfig, run_process
from qtherm.generators import decompose, fast_interval_run, weak_interval_run
from qtherm.models import JcmParams, build_jcm, thermal_state
from qtherm.qcore import DensityMatrix, StateVector

PINS = os.path.join(os.path.dirname(__file__), "golden", "pins.npz")
LEDGER_FIELDS = ("dH_a", "dH_b", "w_meas", "dS_a", "dS_b", "q", "w_therm", "w", "r", "beta")
SERIES_FIELDS = ("t", "mean_ha", "mean_hb", "mean_hab", "q_cum", "w_cum", "wmeas_cum",
                 "s_a", "s_tot", "se_ha")
RTOL = {"dm": 1e-12, "weak": 1e-12, "fast": 1e-12, "traj": 1e-10}
# A trajectory ensemble's Born deviation is rounding noise (about 1e-15) that
# moves with summation order, so it is compared with an absolute 1e-15.
BORN_KEYS = ("traj_pure.born_max_deviation", "traj_mixed.born_max_deviation")


def fock(n, dim):
    v = np.zeros(dim, dtype=complex)
    v[n] = 1.0
    return StateVector(v)


def ledger_array(ledgers):
    return np.array([[getattr(led, f) for f in LEDGER_FIELDS] for led in ledgers]).reshape(
        -1, len(LEDGER_FIELDS))


def series_arrays(prefix, series):
    return {f"{prefix}.series.{f}": np.asarray(getattr(series, f)) for f in SERIES_FIELDS}


def record_arrays(prefix, rec):
    out = series_arrays(prefix, rec.series)
    out.update({
        f"{prefix}.times": rec.times,
        f"{prefix}.ledgers": ledger_array(rec.ledgers),
        f"{prefix}.snapshots": rec.rho_a_snapshots,
        f"{prefix}.pops_a": rec.pops_a,
        f"{prefix}.s_a_series": rec.s_a_series,
        f"{prefix}.born_max_deviation": np.array(rec.born_max_deviation),
        f"{prefix}.truncation_suspect": np.array(rec.truncation_suspect),
    })
    return out


def interval_run_arrays(prefix, run):
    return {
        f"{prefix}.times": run.times,
        f"{prefix}.ledgers": ledger_array(run.ledgers),
        f"{prefix}.snapshots": run.rho_a_snapshots,
        f"{prefix}.checkpoint_times": run.checkpoint_times,
        f"{prefix}.checkpoint_rho_a": run.checkpoint_rho_a,
        f"{prefix}.checkpoint_hab": run.checkpoint_hab,
        f"{prefix}.checkpoint_hb": run.checkpoint_hb,
        f"{prefix}.min_eig": np.array(run.min_eig),
    }


def ensemble_arrays(prefix, ens):
    out = series_arrays(prefix, ens.series)
    out.update({
        f"{prefix}.mean_rho_a": ens.mean_rho_a,
        f"{prefix}.born_max_deviation": np.array(ens.born_max_deviation),
        f"{prefix}.truncation_suspect": np.array(ens.truncation_suspect),
    })
    return out


def compute() -> dict:
    """Every pinned array, keyed '<run kind>_<case>.<quantity>'."""
    out = {}

    # density matrix: beta schedule, explicit intervals, horizon cut inside the 5th
    system = build_jcm(JcmParams(omega_a=1.0, omega_b=1.3, gamma=0.1, n_max=8, rwa=False))
    cfg = ProcessConfig(lam=0.4, beta=[0.5, 1.0, 2.0], horizon=8.0, seed=3,
                        initial_state_a=fock(1, system.dim_a),
                        checkpoint_times=np.linspace(0.0, 8.0, 17),
                        intervals=np.array([1.7, 0.4, 3.1, 2.2, 0.9, 1.3]))
    out.update(record_arrays("dm_schedule", run_process(cfg, system)))

    # density matrix: tight ladder, truncation-suspect
    system = build_jcm(JcmParams(omega_a=2 * math.pi, omega_b=2 * math.pi, gamma=0.4,
                              n_max=2, rwa=False))
    cfg = ProcessConfig(lam=0.05, beta=0.2, horizon=200.0, seed=1,
                        initial_state_a=fock(1, system.dim_a), n_checkpoints=25)
    out.update(record_arrays("dm_truncated", run_process(cfg, system)))

    # weak and fast interval protocols
    system = build_jcm(JcmParams(omega_a=1.0, omega_b=1.0, gamma=0.05, n_max=3, rwa=False))
    rho_b = thermal_state(system.h_b, 1.0)
    rho_a = fock(1, system.dim_a).projector()
    run = weak_interval_run(decompose(system, 0.2), rho_b, rho_a, horizon=60.0, seed=5,
                            checkpoint_times=np.linspace(0.0, 60.0, 13), beta=1.0)
    out.update(interval_run_arrays("weak_default", run))
    run = fast_interval_run(system, 5.0, rho_b, rho_a, horizon=6.0, seed=6,
                            checkpoint_times=np.linspace(0.0, 6.0, 13), beta=1.0)
    out.update(interval_run_arrays("fast_default", run))

    # trajectory ensembles: pure start; mixed start with a beta schedule
    system = build_jcm(JcmParams(omega_a=2 * math.pi, omega_b=2 * math.pi, gamma=0.05,
                              n_max=4, rwa=False))
    cfg = ProcessConfig(lam=0.05, beta=1.0, horizon=60.0, seed=11, mode="trajectory",
                        n_traj=40, initial_state_a=fock(1, system.dim_a), n_checkpoints=9)
    out.update(ensemble_arrays("traj_pure", run_process(cfg, system)))
    rng = np.random.default_rng(8)
    shape = (system.dim_a, system.dim_a)
    m = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    mixed = m @ m.conj().T
    cfg = ProcessConfig(lam=0.05, beta=[0.5, 2.0], horizon=60.0, seed=12, mode="trajectory",
                        n_traj=30, initial_state_a=DensityMatrix(mixed / np.trace(mixed).real),
                        n_checkpoints=9)
    out.update(ensemble_arrays("traj_mixed", run_process(cfg, system)))
    return out


@pytest.fixture(scope="module")
def current():
    return compute()


@pytest.fixture(scope="module")
def pinned():
    with np.load(PINS) as data:
        return {k: data[k] for k in data.files}


def test_same_quantities(current, pinned):
    assert sorted(current) == sorted(pinned)


@pytest.mark.parametrize("case", ["dm_schedule", "dm_truncated", "weak_default",
                                  "fast_default", "traj_pure", "traj_mixed"])
def test_matches_pins(case, current, pinned):
    rtol = RTOL[case.split("_")[0]]
    keys = [k for k in pinned if k.split(".")[0] == case]
    assert keys
    for key in keys:
        want, got = pinned[key], np.asarray(current[key])
        assert got.shape == want.shape, key
        if want.dtype == bool:
            np.testing.assert_array_equal(got, want, err_msg=key)
            continue
        if key in BORN_KEYS:
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-15, err_msg=key)
            continue
        # relative to the array's own scale, so near-zero entries compare sensibly
        scale = float(np.abs(want).max()) if want.size else 0.0
        np.testing.assert_allclose(got, want, rtol=rtol, atol=rtol * scale, err_msg=key)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: python tests/test_golden.py --write")
    os.makedirs(os.path.dirname(PINS), exist_ok=True)
    np.savez_compressed(PINS, **compute())
    print(f"wrote {PINS}")
