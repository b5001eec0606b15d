"""Acceptance checks: independently computed oracles against the implementation.

Each check pins its tolerances and reports the measured worst case, so the
suite doubles as a numerical regression record.  ``run_all`` drives and
times every check (a check called on its own reports 0.0 s); the CLI
``verify`` subcommand writes the text/JSON reports and maps failures to exit
code 2.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import asdict, dataclass

import numpy as np

from .analytic import AtomFieldState, amplitudes, einstein_rate, mean_b2_poisson
from .engine import (
    ProcessConfig,
    _JointFrame,
    absorption_rate_mc,
    ensemble_average_series,
    run_process,
)
from .errors import ConfigError
from .generators import (
    AveragedIntervalMap,
    assemble_reduced_generator,
    decompose,
    fast_map_reduced,
    lindblad_propagate,
    min_temp_predict,
    steady_state,
    weak_interval_run,
)
from .models import JcmParams, JointSystem, build_jcm, thermal_populations, thermal_state
from .qcore import DensityMatrix, Operator, StateVector, expect, trace_distance
from .thermo import (
    backaction_as_heat_windows,
    s_tot,
    second_law_suite,
)

TWO_PI = 2 * math.pi

DECAY_POINT = JcmParams(omega_a=TWO_PI, omega_b=TWO_PI, gamma=0.05, n_max=12, rwa=False)


@dataclass
class CheckResult:
    index: int
    name: str
    passed: bool
    tolerance: str
    measured: str
    seconds: float = 0.0
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"[{self.index:2d}/11] {status}  {self.name}: {self.measured} "
                f"(tolerance {self.tolerance}) [{self.seconds:.1f}s]")


def _fock(n: int, dim: int) -> StateVector:
    v = np.zeros(dim, dtype=complex)
    v[n] = 1.0
    return StateVector(v)


def check_block_oracle() -> CheckResult:
    """The exact engine's propagator against the closed-form two-level block solution.

    Both of its forms are checked: state-vector rows (trajectory mode) and
    density matrices (density-matrix mode).
    """
    worst = 0.0
    ts = np.linspace(0.0, 100.0, 41)
    for dc in (0.0, 0.5):
        p = JcmParams(omega_a=TWO_PI, omega_b=TWO_PI + dc, gamma=0.05, n_max=6, rwa=True)
        frame = _JointFrame(build_jcm(p))
        for n in range(1, 6):
            up = (n - 1) * 2 + 1      # |n-1, e>
            dn = n * 2 + 0            # |n, g>
            sel = [up, dn]
            amp = amplitudes(n, ts, p)
            for start, want_of in (
                (up, lambda a, b: np.array([[abs(a) ** 2, -a * b],
                                            [np.conj(a) * b, abs(b) ** 2]])),
                (dn, lambda a, b: np.array([[abs(b) ** 2, a * b],
                                            [-np.conj(a) * b, abs(a) ** 2]])),
            ):
                psi0 = np.zeros(len(frame.e), dtype=complex)
                psi0[start] = 1.0
                rho0 = np.outer(psi0, psi0)
                want = np.moveaxis(want_of(amp.a_n, amp.b_n), -1, 0)     # one 2x2 block per t
                rows = frame.evolve_rows(frame.to_frame(psi0[None]), ts)[:, sel]  # psi(t) rows
                from_rows = rows[:, :, None] * rows[:, None, :].conj()
                from_rho = frame.apply(rho0, ts)[:, sel][:, :, sel]             # rho(t) stack
                worst = max(worst, float(np.abs(from_rows - want).max()),
                            float(np.abs(from_rho - want).max()))
    return CheckResult(1, "closed-form block oracle", worst < 1e-9,
                       "max deviation < 1e-9", f"max deviation {worst:.2e}")


def check_poisson_average() -> CheckResult:
    """mean_b2_poisson against adaptive quadrature of the exponential average."""
    # imported here, as scipy costs ~0.5 s and ~45 MB in every CLI run but verify
    from scipy.integrate import quad

    worst = 0.0
    for lam in (1e-4, 1e-2, 1.0, 1e2):
        for n in (1, 5):
            for dc in (0.0, 0.5):
                p = JcmParams(omega_a=TWO_PI, omega_b=TWO_PI + dc, gamma=0.05, n_max=8)
                amp = amplitudes(n, 0.0, p)
                osc, _ = quad(lambda t: math.exp(-lam * t), 0, np.inf,
                              weight="cos", wvar=amp.omega_n_prime)
                want = (amp.omega_n / amp.omega_n_prime) ** 2 * 0.5 * (1.0 - lam * osc)
                got = mean_b2_poisson(n, lam, p)
                worst = max(worst, abs(got - want) / want)
    return CheckResult(2, "measurement-time average closed form", worst < 1e-6,
                       "relative error < 1e-6", f"max relative error {worst:.2e}")


def check_second_law_run() -> CheckResult:
    """Entropy production and first-law identities on the photon-decay run."""
    sys = build_jcm(DECAY_POINT)
    cfg = ProcessConfig(lam=1e-2, beta=1.0, horizon=300.0, seed=2024,
                        initial_state_a=_fock(1, sys.dim_a), n_checkpoints=61)
    rec = run_process(cfg, sys)
    report = second_law_suite(rec.ledgers, rec.rho_a_snapshots)
    s_tot_steps = np.diff(s_tot(rec.s_a_series, rec.ledgers))  # at measurement times
    first_law = max(abs(l.dH_a - (l.q + l.w)) for l in rec.ledgers)
    ok = bool(len(rec.ledgers) >= 1
              and report.min_entropy_production >= -1e-9
              and (s_tot_steps >= -1e-9).all()
              and first_law < 1e-12)
    measured = (f"min dS_A+dS_B {report.min_entropy_production:.2e}, "
                f"min S_tot step {s_tot_steps.min():.2e}, first law {first_law:.2e}, "
                f"{len(rec.ledgers)} intervals")
    return CheckResult(3, "second-law suite on the decay run", ok,
                       "dS >= -1e-9, S_tot non-decreasing (1e-9), first law 1e-12",
                       measured)


def check_mode_consistency(n_traj: int = 10_000, seed: int = 1234) -> CheckResult:
    """Trajectory ensemble against the exact ensemble-averaged evolution."""
    sys = build_jcm(DECAY_POINT)
    grid = np.linspace(0.0, 300.0, 20)
    cfg = ProcessConfig(lam=1e-2, beta=1.0, horizon=300.0, seed=seed,
                        mode="trajectory", n_traj=n_traj,
                        initial_state_a=_fock(1, sys.dim_a), checkpoint_times=grid)
    ens = run_process(cfg, sys)
    _, ha, _, _ = ensemble_average_series(
        sys, 1.0, 1e-2, _fock(1, sys.dim_a).projector().mat, grid)
    dev = np.abs(ens.series.mean_ha - ha)
    se = np.maximum(ens.series.se_ha, 1e-12)
    worst = float((dev / se)[1:].max())
    ok = bool((dev <= 4 * se + 1e-12).all())
    return CheckResult(4, "trajectory vs density-matrix consistency", ok,
                       "within 4 standard errors at 20 checkpoints",
                       f"worst deviation {worst:.2f} SE, n_traj={ens.n_traj}")


def check_einstein_rate(n_trials: int = 10_000, seed: int = 7) -> CheckResult:
    """Simulated absorption rate against the first-order rate formula, and
    against the exact rate it estimates.

    Detuned so the formula's validity condition 4 n gamma^2 << lam^2 + Dc^2
    holds at the stated coupling and measurement rate.  The exact interval-
    and outcome-averaged rate comes from the averaged interval map: under the
    RWA the qubit's gain is the cavity's loss, 3 - <n_A>.  A pass needs the
    rate within max(5%, 3 SE) of the formula and within 4 SE of the exact rate.
    """
    dc = 0.5
    p = JcmParams(omega_a=TWO_PI, omega_b=TWO_PI + dc, gamma=0.01, n_max=6, rwa=True)
    sys = build_jcm(p)
    beta, lam = 1.0, 1e-3
    rate, se = absorption_rate_mc(sys, _fock(3, sys.dim_a), beta, lam,
                                  n_trials=n_trials, seed=seed)
    sigma = thermal_populations(sys.basis_b.eigenvalues, beta)
    fock3 = tuple(np.eye(sys.dim_a)[3])
    want = einstein_rate(AtomFieldState(fock3, sigma_e=sigma[1], sigma_g=sigma[0]), lam, p)
    rel = abs(rate - want) / abs(want)
    after = AveragedIntervalMap(sys, beta, lam).apply(_fock(3, sys.dim_a).projector().mat)
    exact = lam * (3.0 - np.diag(after).real @ np.arange(sys.dim_a))
    ok = abs(rate - want) <= max(0.05 * abs(want), 3 * se) and abs(rate - exact) <= 4 * se
    return CheckResult(5, "first-order absorption rate recovery", ok,
                       "relative deviation < 5% (statistical); within 4 SE of the exact rate",
                       f"relative deviation {rel:.3%} (SE {se / want:.3%}, "
                       f"{n_trials} trials); {abs(rate - exact) / se:.2f} SE from the exact rate",
                       detail=f"rate {rate:.5e} +- {se:.2e}; exact average {exact:.5e}, "
                              f"first-order formula {want:.5e} ({exact / want - 1:+.2%})")


def check_weak_vs_exact_steady() -> CheckResult:
    """Interval-protocol weak coupling against the exact engine.

    Steady energies must agree within 5% at every measurement rate, and the
    weak trace must lack the cos^2 transient (opposite early curvature).
    """
    p = JcmParams(omega_a=TWO_PI, omega_b=TWO_PI, gamma=0.05, n_max=10, rwa=False)
    sys = build_jcm(p)
    beta = 1.0
    psi0 = _fock(1, sys.dim_a)
    early = np.linspace(0.0, 6.3, 25)
    worst_rel = 0.0
    curvature_ok = True
    details = []
    for lam in (1e-4, 5e-3, 1e-2, 5e-2):
        exact_ss = AveragedIntervalMap(sys, beta, lam).fixed_point()
        ha_exact = float(expect(sys.h_a.mat, exact_ss))
        spec = decompose(sys, lam)
        run = weak_interval_run(spec, thermal_state(sys.h_b, beta), psi0.projector(),
                                horizon=80.0 / lam, seed=11, beta=beta)
        ha_weak = float(np.mean(expect(sys.h_a.mat, run.rho_a_snapshots[-20:])))
        rel = abs(ha_weak - ha_exact) / abs(ha_exact)
        worst_rel = max(worst_rel, rel)
        # early-time curvature: exact is concave (cos^2), weak is convex
        _, ha_e, _, _ = ensemble_average_series(sys, beta, lam, psi0.projector().mat, early)
        rho_w = lindblad_propagate(spec, psi0.projector().mat,
                                   thermal_state(sys.h_b, beta), early)
        ha_w = expect(sys.h_a.mat, rho_w)
        c_exact = np.polyfit(early, ha_e, 2)[0]
        c_weak = np.polyfit(early, ha_w, 2)[0]
        curvature_ok = curvature_ok and (c_exact < 0.0 < c_weak)
        details.append(f"lam={lam:g}: rel {rel:.2%}, curvature exact {c_exact:+.1e} "
                       f"weak {c_weak:+.1e}")
    ok = bool(worst_rel < 0.05 and curvature_ok)
    return CheckResult(6, "weak/exact steady-state agreement", ok,
                       "steady <H_A> within 5%; early curvature signs differ",
                       f"worst steady deviation {worst_rel:.3%}; "
                       f"curvature signs {'ok' if curvature_ok else 'WRONG'}",
                       detail="; ".join(details))


def check_canonical_limit() -> CheckResult:
    """Steady state approaches the Gibbs distribution in the weak-rate limit.

    The excitation-conserving coupling at zero detuning is exactly canonical at
    any coupling (single frequency sector), so those distances sit at solver
    precision; the counter-rotating coupling exposes the actual approach.
    """
    beta = 1.0
    dists_rwa, dists_full = [], []
    for gamma in (0.05, 0.02, 0.01):
        lam = gamma ** 2 / 2.5e-3
        for rwa, sink in ((True, dists_rwa), (False, dists_full)):
            p = JcmParams(omega_a=TWO_PI, omega_b=TWO_PI, gamma=gamma, n_max=8, rwa=rwa)
            sys = build_jcm(p)
            gen = assemble_reduced_generator(decompose(sys, lam), beta)
            res = steady_state(gen, sys.h_a)
            sink.append(trace_distance(res.rho_ss, thermal_state(sys.h_a, beta)))
    mono_rwa = all(b <= a + 1e-9 for a, b in zip(dists_rwa, dists_rwa[1:]))
    mono_full = all(b < a for a, b in zip(dists_full, dists_full[1:]))
    ok = mono_rwa and dists_rwa[-1] < 0.01 and mono_full and dists_full[-1] < 0.01
    return CheckResult(7, "canonical limit at fixed gamma^2/lambda", ok,
                       "monotone decrease, < 0.01 at gamma=0.01",
                       f"rwa distances {['%.1e' % d for d in dists_rwa]}, "
                       f"full-coupling {['%.1e' % d for d in dists_full]}")


def check_minimum_temperature() -> CheckResult:
    """Cold-reservoir steady states against the minimum-temperature formula."""
    omega = TWO_PI
    p = JcmParams(omega_a=omega, omega_b=omega, gamma=0.05, n_max=6, rwa=False)
    sys = build_jcm(p)
    worst = 0.0
    slopes = []
    for u in (0.05, 0.1, 0.5):
        lam = u * 2 * omega
        spec = decompose(sys, lam)
        res = steady_state(assemble_reduced_generator(spec, 8.0), sys.h_a)
        want = min_temp_predict(lam, omega)
        worst = max(worst, abs(res.p1 / res.p0 - want) / want)
        b_eff = {}
        for beta in (7.5, 8.0, 8.5):
            r = steady_state(assemble_reduced_generator(spec, beta), sys.h_a)
            b_eff[beta] = r.beta_eff
        slopes.append(abs(b_eff[8.5] - b_eff[7.5]) / 1.0)
    ok = worst < 0.02 and max(slopes) < 0.01
    return CheckResult(8, "minimum achievable temperature", ok,
                       "p1/p0 within 2%; |d beta_eff/d beta| < 0.01 at beta=8",
                       f"worst ratio deviation {worst:.3%}, max plateau slope "
                       f"{max(slopes):.2e}")


def check_fast_limit() -> CheckResult:
    """Fast-measurement rate against the averaged exchange composition."""
    beta = 1.0
    p0 = JcmParams(omega_a=TWO_PI, omega_b=TWO_PI, gamma=0.05, n_max=6, rwa=True)
    lam = 100 * p0.gamma
    sys0 = build_jcm(p0)
    sigma = thermal_populations(sys0.basis_b.eigenvalues, beta)
    p_n = np.zeros(sys0.dim_a)
    p_n[2] = 1.0
    composed = lam * sum(
        p_n[n] * (sigma[0] * (mean_b2_poisson(n, lam, p0) if n >= 1 else 0.0)
                  - sigma[1] * mean_b2_poisson(n + 1, lam, p0))
        for n in range(sys0.dim_a - 1))
    n_op = np.diag(np.arange(sys0.dim_a)).astype(complex)

    def rate_for(dc: float) -> float:
        p = JcmParams(omega_a=TWO_PI, omega_b=TWO_PI + dc, gamma=0.05, n_max=6, rwa=True)
        sys = build_jcm(p)
        drho = fast_map_reduced(sys, np.diag(p_n).astype(complex), sigma, lam)
        return -float(expect(n_op, drho))

    r0, r05 = rate_for(0.0), rate_for(0.5)
    rel = abs(r0 - composed) / abs(composed)
    dc_dev = abs(r0 - r05)
    ok = rel < 0.01 and dc_dev < 1e-10
    return CheckResult(9, "fast-measurement limit consistency", ok,
                       "rate within 1% of composition; detuning-independent to 1e-10",
                       f"rate deviation {rel:.3%}, detuning dependence {dc_dev:.1e}")


def check_klein_positivity() -> CheckResult:
    """Reservoir free-energy gain is non-negative for thermal inputs, and
    booking the back-action as heat breaks the cyclic bound."""
    rng = np.random.default_rng(99)
    ledgers = []
    for _ in range(1000):
        da = int(rng.integers(2, 5))
        db = int(rng.integers(2, 4))

        def herm(d):
            m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            return (m + m.conj().T) / 2

        sys = JointSystem(dim_a=da, dim_b=db,
                          h_a=Operator(herm(da), hermitian=True),
                          h_b=Operator(herm(db), hermitian=True),
                          h_ab=Operator(herm(da * db), hermitian=True),
                          gamma=float(rng.uniform(0.05, 0.5)))
        beta = float(rng.uniform(0.2, 3.0))
        m = rng.normal(size=(da, da)) + 1j * rng.normal(size=(da, da))
        r = m @ m.conj().T
        rho_a = DensityMatrix(r / np.trace(r).real)
        t = float(rng.uniform(0.2, 8.0))
        ledgers += run_process(ProcessConfig(lam=1.0, beta=beta, horizon=t, initial_state_a=rho_a,
                                             n_checkpoints=0, intervals=[t]), sys).ledgers
    report = second_law_suite(ledgers)
    min_contrib, max_w_therm = report.min_cyclic_r_contribution, report.max_w_therm

    # diagnostic at the decay state point: a constant-interval schedule revisits
    # the steady state, and counting back-action as heat makes a cycle absorb heat
    sys3 = build_jcm(DECAY_POINT)
    cfg = ProcessConfig(lam=1e-2, beta=1.0, horizon=1e9, seed=5,
                        initial_state_a=_fock(1, sys3.dim_a), n_checkpoints=2,
                        intervals=np.full(400, 100.0))
    rec = run_process(cfg, sys3)
    windows = backaction_as_heat_windows(rec.ledgers, rec.rho_a_snapshots)
    diag_max = max((w.q_sum for w in windows), default=-math.inf)
    ok = (min_contrib >= -1e-9 and -max_w_therm >= -1e-10
          and len(windows) > 0 and diag_max > 0.0)
    return CheckResult(10, "Klein positivity and back-action bookkeeping", ok,
                       "contribution >= -1e-9; -W_therm >= -1e-10; diagnostic sum > 0",
                       f"min contribution {min_contrib:.2e}, max W_therm "
                       f"{max_w_therm:.2e}, diagnostic cyclic heat {diag_max:.2e} "
                       f"over {len(windows)} windows")


def check_csv_determinism(workdir: str | None = None) -> CheckResult:
    """Identical config and seed produce bit-identical CSV output."""
    import tempfile

    from . import cli

    cfg = cli.resolve_config(None, {"horizon": 150.0, "checkpoints": 61, "seed": 99})
    base = workdir or tempfile.mkdtemp(prefix="qtherm_det_")
    outs = []
    for sub in ("run1", "run2"):
        d = os.path.join(base, sub)
        cli.cmd_simulate(cfg, d, quiet=True, run_mode="exact")
        with open(os.path.join(d, "timeseries_exact.csv"), "rb") as fh:
            outs.append(fh.read())
    ok = outs[0] == outs[1] and len(outs[0]) > 0
    return CheckResult(11, "CSV byte determinism", ok, "bit-identical output",
                       f"{len(outs[0])} bytes, identical: {outs[0] == outs[1]}")


def run_all(n_traj: int | None = None, quiet: bool = False) -> list[CheckResult]:
    n_traj = 10_000 if n_traj is None else n_traj
    if n_traj < 1:
        raise ConfigError(f"trajectory count must be >= 1, got {n_traj}")
    checks = [
        check_block_oracle,
        check_poisson_average,
        check_second_law_run,
        lambda: check_mode_consistency(n_traj),
        lambda: check_einstein_rate(n_traj),
        check_weak_vs_exact_steady,
        check_canonical_limit,
        check_minimum_temperature,
        check_fast_limit,
        check_klein_positivity,
        check_csv_determinism,
    ]
    results = []
    for fn in checks:
        t0 = time.perf_counter()
        res = fn()
        res.seconds = time.perf_counter() - t0
        results.append(res)
        if not quiet:
            print(res.line())
    return results


def write_reports(results: list[CheckResult], out_dir: str) -> None:
    txt = os.path.join(out_dir, "verify_report.txt")
    with open(txt, "w", encoding="utf-8") as fh:
        for r in results:
            fh.write(r.line() + "\n")
            if r.detail:
                fh.write(f"        {r.detail}\n")
        n_fail = sum(not r.passed for r in results)
        fh.write(f"\n{len(results) - n_fail}/{len(results)} checks passed\n")
    payload = [{**asdict(r), "passed": bool(r.passed), "seconds": round(r.seconds, 3)}
               for r in results]
    with open(os.path.join(out_dir, "verify_report.json"), "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
