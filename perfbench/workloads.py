"""The benchmark workloads: inputs from a seed, the program calls, the oracles.

Each workload turns the benchmark seed into qtherm config values (``params``),
runs in a fresh child process the public calls that the matching ``qtherm``
CLI command makes (``body``), reads the counts and oracle inputs off the
returned records once the output is written (``report``), and is judged in the
parent process (``check``).  Only ``body``, ``report`` and ``reference`` import
qtherm, and they run in the child, so the parent never loads the package it
measures.  ``analytic`` and ``verify`` are on no workload path.
"""

from __future__ import annotations

import hashlib
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

OMEGA = 2 * math.pi          # CLI default omega_a = omega_b
SE_GATE = 4.0                # acceptance check 4: ensemble mean within 4 SE
FIRST_LAW_TOL = 1e-12        # |dH_A - (Q + W)| per interval
BORN_TOL = 1e-10             # |sum_m p_m - 1| per measurement
MIN_EIG_FLOOR = -1e-5        # weak interval protocol positivity floor
MIN_TEMP_RTOL = 0.02         # acceptance check 8: p1/p0 at the cold point
COLD_BETA = 8.0
SCAN_LAMBDAS = (0.6283185307179586, 1.2566370614359172, 6.283185307179586)  # CLI default


def _program_seed(tag: str, seed: int) -> int:
    # str seeds hash with SHA-512, so this does not depend on PYTHONHASHSEED
    return random.Random(f"{tag}:{seed}").randrange(2 ** 31)


# ---------------------------------------------------------------------------
# Child-side helpers (import qtherm)


def _model(p: dict, joint: bool):
    import numpy as np
    from qtherm import JcmParams, StateVector, build_jcm

    system = build_jcm(JcmParams(n_max=p["n_max"]))
    if joint:
        system.propagator  # joint eigendecomposition, paid before the run
    vec = np.zeros(system.dim_a, dtype=complex)
    vec[p["initial_n"]] = 1.0
    return system, StateVector(vec)


def _header(command: str, p: dict, extra: list[str]) -> list[str]:
    """The CLI's output header for the config these params resolve to."""
    from qtherm import cli

    cfg = cli.resolve_config(None, {k: v for k, v in p.items() if k in cli.DEFAULTS})
    return ([f"qtherm {command} output", f"config_sha256 = {cli.config_sha256(cfg)}"]
            + cli.config_text(cfg).splitlines() + extra)


def _emit_series(out_dir: str, p: dict, tag: str, columns: dict) -> str:
    """Write the time-series CSV and SVG that ``qtherm simulate`` writes."""
    from qtherm import _svg, cli

    path = os.path.join(out_dir, f"timeseries_{tag}.csv")
    cli.write_csv(path, _header("simulate", p, [f"run_mode = {tag}", f"series = {tag}"]),
                  columns)
    t = columns["t"]
    curves = [(f"{tag} <H_A>", t, columns["mean_HA"]), (f"{tag} Q_cum", t, columns["Q_cum"]),
              (f"{tag} W_cum", t, columns["W_cum"])]
    _svg.line_chart(os.path.join(out_dir, "simulate.svg"),
                    "Energy and accumulated heat/work", "t", "energy", curves)
    return path


def _series_columns(series) -> dict:
    import numpy as np

    return {
        "t": series.t, "mean_HA": series.mean_ha, "mean_HB": series.mean_hb,
        "mean_HAB": series.mean_hab, "Q_cum": series.q_cum, "W_cum": series.w_cum,
        "Wmeas_cum": series.wmeas_cum, "S_A": series.s_a, "S_tot": series.s_tot,
        "n_eff_traj": np.full(len(series.t), series.n_traj, dtype=int),
    }


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _first_law(ledgers) -> float:
    return max((abs(led.dH_a - (led.q + led.w)) for led in ledgers), default=0.0)


def _superop_counts(gen) -> dict:
    import numpy as np

    return {"superop_dim": int(gen.shape[0]), "superop_nnz": int(np.count_nonzero(gen)),
            "superop_bytes": int(gen.nbytes)}


# ---------------------------------------------------------------------------
# traj: Monte Carlo wave-function ensemble at the CLI's photon-decay defaults


def _traj_params(seed: int, quick: bool) -> dict:
    return {"n_max": 4 if quick else 14, "lambda": 1e-2, "beta": 1.0, "horizon": 300.0,
            "checkpoints": 41 if quick else 121, "n_traj": 40 if quick else 300,
            "initial_n": 1, "mode": "trajectory", "seed": _program_seed("traj", seed)}


def _traj_body(p: dict, out_dir: str, mark: Callable[[str], None]) -> dict:
    import numpy as np
    from qtherm import ProcessConfig, run_process

    system, psi0 = _model(p, joint=True)
    grid = np.linspace(0.0, p["horizon"], p["checkpoints"])
    cfg = ProcessConfig(lam=p["lambda"], beta=p["beta"], horizon=p["horizon"],
                        seed=p["seed"], mode="trajectory", n_traj=p["n_traj"],
                        initial_state_a=psi0, checkpoint_times=grid)
    mark("setup")
    ens = run_process(cfg, system)
    mark("run")
    path = _emit_series(out_dir, p, "exact", _series_columns(ens.series))
    mark("output")
    return {"record": ens, "csv": path}


def _traj_report(p: dict, live: dict) -> dict:
    ens = live["record"]
    return {
        "counts": {"trajectories": ens.n_traj, "checkpoints": len(ens.series.t),
                   "born_max_deviation": ens.born_max_deviation},
        "check": {"mean_ha": ens.series.mean_ha.tolist(), "se_ha": ens.series.se_ha.tolist()},
        "csv_sha256": _sha256(live["csv"]),
    }


def _traj_reference(p: dict) -> dict:
    """Exact ensemble mean <H_A> from the jump-averaged master equation."""
    import numpy as np
    from qtherm.engine import ensemble_average_series

    system, psi0 = _model(p, joint=False)
    grid = np.linspace(0.0, p["horizon"], p["checkpoints"])
    _, ha, _, _ = ensemble_average_series(system, p["beta"], p["lambda"],
                                          psi0.projector().mat, grid)
    return {"ha": ha.tolist()}


def _traj_check(p: dict, res: dict, ref: dict) -> list[str]:
    mean, se, want = res["check"]["mean_ha"], res["check"]["se_ha"], ref["ha"]
    if not len(mean) == len(se) == len(want) == p["checkpoints"]:
        return [f"expected {p['checkpoints']} checkpoints, got {len(mean)}"]
    e0 = OMEGA / 2  # ground energy of H_A
    bad = []
    for k, (m, s, w) in enumerate(zip(mean, se, want)):
        # The sample SE collapses when few trajectories carry the excitation, so
        # it is floored by the largest SE an ensemble on [e0, e0 + omega] with
        # the exact mean can have (Bhatia-Davis), as in a score test.
        se_null = math.sqrt(max(w - e0, 0.0) * max(e0 + OMEGA - w, 0.0) / p["n_traj"])
        if not abs(m - w) <= SE_GATE * max(s, se_null, 1e-12) + 1e-12:
            bad.append(k)
    if bad:
        k = bad[0]
        return [f"mean <H_A> off the exact average by more than {SE_GATE:g} SE at "
                f"{len(bad)} checkpoints (first t index {k}: {mean[k]!r} vs {want[k]!r}, "
                f"sample SE {se[k]:.3g})"]
    return []


# ---------------------------------------------------------------------------
# dm: exact density-matrix process, many short intervals


def _dm_params(seed: int, quick: bool) -> dict:
    lam = 1.0
    rng = random.Random(_program_seed("dm", seed))
    intervals = [rng.expovariate(lam) for _ in range(200 if quick else 3000)]
    horizon = 0.0
    for t in intervals:  # the engine's own summation order, so the last interval completes
        horizon = horizon + t
    return {"n_max": 4 if quick else 14, "lambda": lam, "beta": 1.0, "horizon": horizon,
            "checkpoints": 41 if quick else 241, "initial_n": 1, "mode": "density-matrix",
            "seed": _program_seed("dm-seed", seed), "intervals": intervals}


def _dm_body(p: dict, out_dir: str, mark: Callable[[str], None]) -> dict:
    import numpy as np
    from qtherm import ProcessConfig, run_process

    system, psi0 = _model(p, joint=True)
    grid = np.linspace(0.0, p["horizon"], p["checkpoints"])
    cfg = ProcessConfig(lam=p["lambda"], beta=p["beta"], horizon=p["horizon"],
                        seed=p["seed"], initial_state_a=psi0, checkpoint_times=grid,
                        intervals=np.array(p["intervals"]))
    mark("setup")
    rec = run_process(cfg, system)
    mark("run")
    path = _emit_series(out_dir, p, "exact", _series_columns(rec.series))
    mark("output")
    return {"record": rec, "csv": path}


def _dm_report(p: dict, live: dict) -> dict:
    from qtherm import second_law_suite

    rec = live["record"]
    # ledgers only: the cyclic-window search over snapshots is quadratic in intervals
    suite = second_law_suite(rec.ledgers)
    return {
        "counts": {"intervals": len(rec.ledgers), "checkpoints": len(rec.series.t),
                   "trajectories": 1, "born_max_deviation": rec.born_max_deviation},
        "check": {"first_law": _first_law(rec.ledgers), "second_law_ok": suite.ok,
                  "born_max_deviation": rec.born_max_deviation,
                  "intervals": len(rec.ledgers)},
        "csv_sha256": _sha256(live["csv"]),
    }


def _dm_check(p: dict, res: dict, ref) -> list[str]:
    c = res["check"]
    out = []
    if c["intervals"] != len(p["intervals"]):
        out.append(f"ran {c['intervals']} of {len(p['intervals'])} scheduled intervals")
    if not c["first_law"] <= FIRST_LAW_TOL:
        out.append(f"first law off by {c['first_law']:.3g} > {FIRST_LAW_TOL:g}")
    if c["second_law_ok"] is not True:
        out.append("second_law_suite reports a violation")
    if not c["born_max_deviation"] <= BORN_TOL:
        out.append(f"Born deviation {c['born_max_deviation']:.3g} > {BORN_TOL:g}")
    return out


# ---------------------------------------------------------------------------
# weak: `simulate --mode weak`, dense superoperator eig dominates


def _weak_params(seed: int, quick: bool) -> dict:
    return {"n_max": 4 if quick else 14, "lambda": 1e-2, "beta": 1.0, "horizon": 300.0,
            "checkpoints": 41 if quick else 241, "initial_n": 1,
            "seed": _program_seed("weak", seed)}


def _weak_body(p: dict, out_dir: str, mark: Callable[[str], None]) -> dict:
    import numpy as np
    from qtherm import decompose, thermal_state
    from qtherm.generators import assemble_joint_weak_generator, weak_interval_run

    system, psi0 = _model(p, joint=False)
    spec = decompose(system, p["lambda"])
    gen = assemble_joint_weak_generator(spec)
    rho_b = thermal_state(system.h_b, p["beta"])
    grid = np.linspace(0.0, p["horizon"], p["checkpoints"])
    mark("setup")
    run = weak_interval_run(spec, rho_b, psi0.projector(), horizon=p["horizon"],
                            seed=p["seed"], checkpoint_times=grid, beta=p["beta"],
                            generator=gen)
    mark("run")
    path = _emit_series(out_dir, p, "weak", _weak_columns(system, run))
    mark("output")
    return {"run": run, "generator": gen, "csv": path}


def _weak_columns(system, run) -> dict:
    import numpy as np
    from qtherm import von_neumann_entropy

    h_a = system.h_a.mat
    idx = np.searchsorted(run.times, run.checkpoint_times, side="right")

    def cum(values):
        return np.concatenate(([0.0], np.cumsum(values)))[idx]

    return {
        "t": run.checkpoint_times,
        "mean_HA": np.array([np.trace(h_a @ r).real for r in run.checkpoint_rho_a]),
        "mean_HB": run.checkpoint_hb, "mean_HAB": run.checkpoint_hab,
        "Q_cum": cum([led.q for led in run.ledgers]),
        "W_cum": cum([led.w for led in run.ledgers]),
        "Wmeas_cum": cum([led.w_meas for led in run.ledgers]),
        "S_A": np.array([von_neumann_entropy(r, floor=-1e-4) for r in run.checkpoint_rho_a]),
    }


def _weak_report(p: dict, live: dict) -> dict:
    run = live["run"]
    return {
        "counts": {"intervals": len(run.ledgers), "checkpoints": len(run.checkpoint_times),
                   "min_eig": run.min_eig, **_superop_counts(live["generator"])},
        "check": {"min_eig": run.min_eig, "first_law": _first_law(run.ledgers),
                  "checkpoints": len(run.checkpoint_times)},
        "csv_sha256": _sha256(live["csv"]),
    }


def _weak_check(p: dict, res: dict, ref) -> list[str]:
    c = res["check"]
    out = []
    if c["checkpoints"] != p["checkpoints"]:
        out.append(f"expected {p['checkpoints']} checkpoints, got {c['checkpoints']}")
    if not c["min_eig"] >= MIN_EIG_FLOOR:
        out.append(f"joint state min eigenvalue {c['min_eig']:.3g} < {MIN_EIG_FLOOR:g}")
    if not c["first_law"] <= FIRST_LAW_TOL:
        out.append(f"first law off by {c['first_law']:.3g} > {FIRST_LAW_TOL:g}")
    return out


# ---------------------------------------------------------------------------
# scan: steady-scan over a (lambda, beta) grid, reduced generator + SVD solve


def _scan_params(seed: int, quick: bool) -> dict:
    rng = random.Random(_program_seed("scan", seed))
    betas = sorted(rng.uniform(0.25, 6.0) for _ in range(7)) + [COLD_BETA]
    return {"scan_n_max": 4 if quick else 16,
            "beta_list": ",".join(repr(b) for b in betas),
            "lambda_list": ",".join(repr(lam) for lam in SCAN_LAMBDAS)}


def _scan_body(p: dict, out_dir: str, mark: Callable[[str], None]) -> dict:
    import numpy as np
    from qtherm import JcmParams, _svg, build_jcm, cli, decompose, min_temp_predict, \
        steady_state
    from qtherm.errors import DegenerateSteadyStateError
    from qtherm.generators import assemble_reduced_generator

    system = build_jcm(JcmParams(n_max=p["scan_n_max"]))
    system.basis_a, system.basis_b  # subsystem eigendecompositions
    betas = [float(b) for b in p["beta_list"].split(",")]
    lams = [float(lam) for lam in p["lambda_list"].split(",")]
    mark("setup")
    rows = []
    residual_max = 0.0
    gen = None
    for lam in lams:
        spec = decompose(system, lam)
        floor = -math.log(min_temp_predict(lam, OMEGA)) / OMEGA
        for beta in betas:
            gen = assemble_reduced_generator(spec, beta)
            try:
                res = steady_state(gen, system.h_a)
            except DegenerateSteadyStateError:
                rows.append((beta, lam, math.nan, math.nan, math.nan, math.nan, floor, 1))
                continue
            residual_max = max(residual_max, res.residual)
            rows.append((beta, lam, res.p0, res.p1, res.beta_eff, res.residual, floor, 0))
    mark("run")
    names = ("beta", "lambda", "p0", "p1", "beta_eff", "residual", "beta_eff_min",
             "degenerate")
    columns = {k: np.array(v) for k, v in zip(names, zip(*rows))}
    columns["degenerate"] = columns["degenerate"].astype(int)
    path = os.path.join(out_dir, "steady_scan.csv")
    cli.write_csv(path, _header("steady-scan", p, []), columns)
    curves = []
    for lam in lams:
        sel = columns["lambda"] == lam
        curves.append((f"lam={lam:.4g}", columns["beta"][sel], columns["beta_eff"][sel]))
    _svg.line_chart(os.path.join(out_dir, "steady_scan.svg"),
                    "Steady-state effective inverse temperature", "reservoir beta",
                    "beta_eff", curves)
    mark("output")
    return {"rows": rows, "generator": gen, "residual_max": residual_max, "csv": path}


def _scan_report(p: dict, live: dict) -> dict:
    rows = live["rows"]
    return {
        "counts": {"steady_states": len(rows), "steady_residual_max": live["residual_max"],
                   **_superop_counts(live["generator"])},
        "check": {"rows": [[r[0], r[1], r[2], r[3], r[7]] for r in rows]},
        "csv_sha256": _sha256(live["csv"]),
    }


def min_temp_ratio(lam: float, omega: float) -> float:
    """Closed-form cold-reservoir limit of p1/p0: u/(u+1), u = (lam/2 omega)^2."""
    u = (lam / (2.0 * omega)) ** 2
    return u / (u + 1.0)


def _scan_check(p: dict, res: dict, ref) -> list[str]:
    rows = res["check"]["rows"]
    n_beta = len(p["beta_list"].split(","))
    n_lam = len(p["lambda_list"].split(","))
    out = []
    if len(rows) != n_beta * n_lam:
        out.append(f"expected {n_beta * n_lam} steady states, got {len(rows)}")
    degenerate = sum(1 for r in rows if r[4])
    if degenerate:
        out.append(f"{degenerate} steady-state solves found a degenerate null space")
    cold = [r for r in rows if r[0] == COLD_BETA and not r[4]]
    if len(cold) != n_lam:
        out.append(f"expected {n_lam} cold-point rows, got {len(cold)}")
    for beta, lam, p0, p1, _ in cold:
        want = min_temp_ratio(lam, OMEGA)
        rel = abs(p1 / p0 - want) / want if p0 > 0 else math.inf
        if not rel <= MIN_TEMP_RTOL:
            out.append(f"lambda={lam:.4g}: p1/p0 off the minimum-temperature law by "
                       f"{rel:.3%} > {MIN_TEMP_RTOL:.0%}")
    return out


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    work: str                                   # the count behind work_per_s
    params: Callable[[int, bool], dict]
    body: Callable[[dict, str, Callable[[str], None]], dict]
    report: Callable[[dict, dict], dict]
    check: Callable[[dict, dict, dict | None], list[str]]
    reference: Callable[[dict], dict] | None = None
    reference_keys: tuple[str, ...] = ()        # the params the reference depends on


WORKLOADS = {
    "traj": Workload(
        "traj", "trajectory ensemble: per-trajectory numpy overhead, checkpoint "
        "observables and the thread pool; no generators, no ledger",
        "trajectories", _traj_params, _traj_body, _traj_report, _traj_check,
        reference=_traj_reference,
        reference_keys=("n_max", "lambda", "beta", "horizon", "checkpoints", "initial_n")),
    "dm": Workload(
        "dm", "density-matrix process over 3000 short intervals: the interval loop, "
        "ledger, entropies and per-interval thermal_state; no generators",
        "intervals", _dm_params, _dm_body, _dm_report, _dm_check),
    "weak": Workload(
        "weak", "simulate --mode weak: dense eig of a sparse superoperator dominates "
        "set-up, run and memory; bypasses the trajectory engine",
        "checkpoints", _weak_params, _weak_body, _weak_report, _weak_check),
    "scan": Workload(
        "scan", "steady-scan: reduced generator assembly and SVD steady-state solves; "
        "no interval loop",
        "steady_states", _scan_params, _scan_body, _scan_report, _scan_check),
}
