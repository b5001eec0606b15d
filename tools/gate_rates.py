"""Run each statistical gate over many seeds and report how often it fails.

    python3 tools/gate_rates.py [--seeds N]

Run from the repository root with ``src`` on ``PYTHONPATH``; it is not part
of Tier-1 (about 2.5 minutes at the default 100 seeds on a 2-CPU VM, nearly
all of it c04).  Each gate runs at its pinned size with its own expression,
and only the seed changes, seeds 0 .. N-1:

- c04, ``verify.check_mode_consistency``: the trajectory ensemble's mean
  <H_A> within 4 standard errors of the exact average at all 20 checkpoints
  (10^4 trajectories; pinned seed 1234);
- c05, ``verify.check_einstein_rate``: the simulated absorption rate within
  ``max(5%, 3 SE)`` of the first-order formula (10^4 trials; pinned seed 7);
- ``tests/test_engine.py::TestRunProcess::test_trajectory_matches_exact_average``:
  within 6 standard errors at 7 checkpoints (2000 trajectories; pinned seed
  77), its expression copied here as ``traj_6se``.

For each gate the script prints the fail count, its Clopper-Pearson 95%
interval, and the nominal false-fail rate: the union bound of the two-sided
normal tail at the gate's width over the checkpoints with a nonzero standard
error (the t = 0 checkpoint has none), which is exact for an unbiased
estimator with normal errors.  c05's gate is at least 3 SE wide, so its
nominal rate is the 3-SE tail.  The output is a Markdown table.
"""

from __future__ import annotations

import argparse
import math
import sys
import time

import numpy as np
from scipy.stats import beta as beta_dist

from qtherm import verify
from qtherm.engine import ProcessConfig, ensemble_average_series, run_process
from qtherm.models import JcmParams, build_jcm
from qtherm.qcore import StateVector


def traj_6se(seed: int) -> bool:
    """test_trajectory_matches_exact_average's gate at ``seed``."""
    p = JcmParams(omega_a=2 * math.pi, omega_b=2 * math.pi, gamma=0.05, n_max=6, rwa=False)
    sys_ = build_jcm(p)
    grid = np.linspace(0.0, 150.0, 7)
    psi0 = np.zeros(sys_.dim_a, dtype=complex)
    psi0[1] = 1.0
    cfg = ProcessConfig(lam=0.02, beta=1.0, horizon=150.0, seed=seed, mode="trajectory",
                        n_traj=2000, initial_state_a=StateVector(psi0),
                        checkpoint_times=grid)
    ens = run_process(cfg, sys_)
    _, ha, _, _ = ensemble_average_series(sys_, 1.0, 0.02, np.outer(psi0, psi0.conj()), grid)
    dev = np.abs(ens.series.mean_ha - ha)
    return bool((dev <= 6 * np.maximum(ens.series.se_ha, 1e-9)).all())


def normal_tail(z: float) -> float:
    """P(|Z| > z) for a standard normal Z."""
    return math.erfc(z / math.sqrt(2.0))


# name, pass/fail at a seed, nominal false-fail rate, its basis
GATES = [
    ("c04 (4 SE, 10^4 trajectories)", lambda s: verify.check_mode_consistency(seed=s).passed,
     19 * normal_tail(4.0), "19 checkpoints x P(abs Z > 4)"),
    ("c05 (max(5%, 3 SE), 10^4 trials)", lambda s: verify.check_einstein_rate(seed=s).passed,
     normal_tail(3.0), "P(abs Z > 3)"),
    ("test_trajectory_matches_exact_average (6 SE, 2000 trajectories)", traj_6se,
     6 * normal_tail(6.0), "6 checkpoints x P(abs Z > 6)"),
]


def clopper_pearson(k: int, n: int, level: float = 0.95) -> tuple[float, float]:
    """Exact binomial confidence interval for k failures in n runs."""
    a = (1.0 - level) / 2
    lo = 0.0 if k == 0 else float(beta_dist.ppf(a, k, n - k + 1))
    hi = 1.0 if k == n else float(beta_dist.ppf(1 - a, k + 1, n - k))
    return lo, hi


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=100, help="seeds per gate (default 100)")
    args = ap.parse_args(argv)
    if args.seeds < 1:
        ap.error("--seeds must be >= 1")
    print("| gate | seeds | fails | 95% interval | nominal rate, at most | basis | seconds |")
    print("| --- | --- | --- | --- | --- | --- | --- |")
    for name, passes, nominal, basis in GATES:
        t0 = time.perf_counter()
        failed = [s for s in range(args.seeds) if not passes(s)]
        lo, hi = clopper_pearson(len(failed), args.seeds)
        print(f"| {name} | {args.seeds} | {len(failed)} | [{lo:.2%}, {hi:.2%}] | "
              f"{nominal:.1e} | {basis} | {time.perf_counter() - t0:.0f} |", flush=True)
        if failed:
            print(f"failing seeds of {name}: {failed}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
