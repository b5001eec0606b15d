import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from qtherm.engine import ProcessConfig, run_process
from qtherm.models import JcmParams, JointSystem, build_jcm, thermal_populations, thermal_state
from qtherm.qcore import (DensityMatrix, Operator, StateVector, as_matrix, marginal, populations,
                          relative_entropy, shannon_entropy)
from qtherm.thermo import (
    IntervalLedger,
    approx_heat_small_change,
    backaction_as_heat_windows,
    book_intervals,
    find_cyclic_windows,
    s_tot,
    second_law_suite,
    traditional_qw,
)

DECAY = JcmParams(omega_a=2 * math.pi, omega_b=2 * math.pi, gamma=0.05, n_max=12, rwa=False)


def fock(n, dim):
    v = np.zeros(dim, dtype=complex)
    v[n] = 1.0
    return StateVector(v)


def random_system(rng, da, db):
    def herm(d):
        m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        return (m + m.conj().T) / 2

    return JointSystem(
        dim_a=da, dim_b=db,
        h_a=Operator(herm(da), hermitian=True),
        h_b=Operator(herm(db), hermitian=True),
        h_ab=Operator(herm(da * db), hermitian=True),
        gamma=float(rng.uniform(0.05, 0.5)),
    )


def random_density(rng, d):
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    r = m @ m.conj().T
    return DensityMatrix(r / np.trace(r).real)


def gibbs_b(sys, beta):
    return thermal_populations(sys.basis_b.eigenvalues, beta)


def one_interval(sys, rho_a, beta, t):
    """The ledger of one outcome-averaged interval of length t from rho_A (x) Gibbs B."""
    cfg = ProcessConfig(lam=1.0, beta=beta, horizon=t, initial_state_a=rho_a, n_checkpoints=0,
                        intervals=[t])
    return run_process(cfg, sys).ledgers[0]


def reservoir_end_populations(sys, rho_a, beta, t):
    """B's energy-basis populations after rho_A (x) Gibbs B evolves for t under expm(-i H t)."""
    u = expm(-1j * t * sys.total_h.mat)
    joint = u @ np.kron(as_matrix(rho_a), thermal_state(sys.h_b, beta).mat) @ u.conj().T
    return populations(marginal(joint, (sys.dim_a, sys.dim_b), "B"), sys.basis_b.eigenvectors)


def run_decay(horizon=300.0, seed=8, intervals=None, lam=1e-2):
    sys = build_jcm(DECAY)
    cfg = ProcessConfig(lam=lam, beta=1.0, horizon=horizon, seed=seed,
                        initial_state_a=fock(1, sys.dim_a), n_checkpoints=31,
                        intervals=intervals)
    return sys, run_process(cfg, sys)


class TestLedger:
    def test_uncoupled_interval_all_zero(self):
        sys = build_jcm(JcmParams(gamma=0.0, n_max=4, rwa=True))
        led = one_interval(sys, fock(1, sys.dim_a).projector(), 1.0, 50.0)
        for v in (led.q, led.w, led.w_therm, led.w_meas, led.dH_a, led.dH_b):
            assert abs(v) < 1e-12

    def test_thermal_reservoir_klein_identity(self):
        rng = np.random.default_rng(14)
        for _ in range(40):
            sys = random_system(rng, 3, 3)
            beta = float(rng.uniform(0.2, 3.0))
            p0 = gibbs_b(sys, beta)
            rho_a, t = random_density(rng, 3), float(rng.uniform(0.2, 8.0))
            p1 = reservoir_end_populations(sys, rho_a, beta, t)
            led = one_interval(sys, rho_a, beta, t)
            gain = -led.w_therm
            assert gain >= -1e-10
            # the relative entropy of the two B states, both diagonal in its energy basis
            want = relative_entropy(np.diag(p1), np.diag(p0)) / beta
            assert abs(gain - want) < 1e-10

    def test_first_law_identity(self):
        sys, rec = run_decay(horizon=250.0)
        for led in rec.ledgers:
            assert abs(led.dH_a - (led.q + led.w)) < 1e-12

    def test_backaction_equals_joint_energy_change(self):
        sys, rec = run_decay(horizon=250.0)
        for led in rec.ledgers:
            assert abs(led.w_meas - (led.dH_a + led.dH_b)) < 1e-10

    def test_beta_zero_marks_heat_undefined(self):
        sys = build_jcm(DECAY)
        led = one_interval(sys, fock(1, sys.dim_a).projector(), 0.0, 12.0)
        assert math.isnan(led.q) and not led.heat_defined

    def test_reservoir_entropy_decrease_during_emission(self):
        # strong emission leaves the reservoir in a consistent low-entropy state
        sys = build_jcm(DECAY)
        beta = 1.0
        t_half = math.pi / (2 * DECAY.gamma)  # first Rabi half-cycle: full transfer
        led = one_interval(sys, fock(1, sys.dim_a).projector(), beta, t_half)
        assert led.dS_b < 0 and led.q > 0


class TestBookIntervals:
    @pytest.mark.parametrize("beta", [0.7, math.inf, 0.0])
    def test_one_hot_rows_match_the_ledger(self, beta):
        # the trajectory step books its completed rows from one-hot start
        # populations; each row is the ledger of that interval booked alone,
        # as the density-matrix run books it
        rng = np.random.default_rng(31)
        sys = random_system(rng, 2, 3)
        levels = rng.integers(0, 3, size=8)
        p1 = rng.dirichlet(np.ones(3), size=8)
        p1[0] = np.eye(3)[1]                   # an outcome that is certain
        dh_a = rng.normal(size=8)
        rows = book_intervals(np.eye(3)[levels], p1, sys.basis_b.eigenvalues, beta, dh_a)
        assert rows.shape == (8, 6)
        for k in range(8):
            dh_b, ds_b, q, _, _, _ = book_intervals(np.eye(3)[levels[k]], p1[k],
                                                    sys.basis_b.eigenvalues, beta, dh_a[k])
            np.testing.assert_array_equal(rows[k, :2], [dh_b, ds_b])
            np.testing.assert_array_equal(rows[k, 2], q)
            assert rows[k, 1] == shannon_entropy(p1[k])
        if beta == math.inf:
            assert (rows[:, 2] == 0.0).all() and not np.signbit(rows[:, 2]).any()
        elif beta > 0:
            np.testing.assert_array_equal(rows[:, 4], rows[:, 3] + dh_a + rows[:, 0])
            np.testing.assert_allclose(rows[:, 4], dh_a - rows[:, 2], rtol=0, atol=1e-15)
        else:
            assert np.isnan(rows[:, 2:]).all()


def coupling_without_level_shift(rng, sys_b, da):
    """A random H_AB that cannot shift B's levels: its blocks <b|H_AB|b> on A,
    b an energy eigenstate of B, are zero, so <H_AB> vanishes on rho_A (x)
    rho_B for every rho_B diagonal in B's energy basis."""
    db = sys_b.shape[0]
    m = rng.normal(size=(da * db,) * 2) + 1j * rng.normal(size=(da * db,) * 2)
    h = ((m + m.conj().T) / 2).reshape(da, db, da, db)
    for b in range(db):
        h[:, b, :, b] = 0.0
    u = np.kron(np.eye(da), np.linalg.eigh(sys_b)[1])
    return u @ h.reshape(da * db, da * db) @ u.conj().T


class TestLedgerInvariants:
    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(da=st.integers(2, 4), db=st.integers(2, 3), seed=st.integers(0, 2 ** 32 - 1),
           beta=st.floats(0.1, 5.0),
           intervals=st.lists(st.floats(0.0, 8.0), min_size=1, max_size=4))
    def test_every_interval_keeps_the_invariants(self, da, db, seed, beta, intervals):
        rng = np.random.default_rng(seed)
        base = random_system(rng, da, db)
        sys = JointSystem(dim_a=da, dim_b=db, h_a=base.h_a, h_b=base.h_b,
                          h_ab=Operator(coupling_without_level_shift(rng, base.h_b.mat, da),
                                        hermitian=True),
                          gamma=base.gamma)
        cfg = ProcessConfig(lam=1.0, beta=beta, horizon=sum(intervals) + 1.0, seed=seed,
                            initial_state_a=random_density(rng, da), n_checkpoints=2,
                            intervals=np.array(intervals))
        rec = run_process(cfg, sys)
        assert len(rec.ledgers) == len(intervals)
        assert rec.born_max_deviation <= 1e-10
        for led in rec.ledgers:
            assert abs(led.dH_a - (led.q + led.w)) <= 1e-12                # first law
            assert led.dS_a + led.dS_b >= -1e-9                            # entropy production
            assert led.r - led.dH_a >= -1e-9                               # Klein positivity
            assert abs(led.w_meas - (led.dH_a + led.dH_b)) <= 1e-9         # back-action
        for rho in rec.rho_a_snapshots:
            assert abs(np.trace(rho) - 1.0) <= 1e-10
            assert np.abs(rho - rho.conj().T).max() <= 1e-12
            assert np.linalg.eigvalsh(rho).min() >= -1e-10
        assert second_law_suite(rec.ledgers, rec.rho_a_snapshots).ok


class TestOutcomeSum:
    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(da=st.integers(2, 4), db=st.integers(2, 3), seed=st.integers(0, 2 ** 32 - 1),
           beta=st.floats(0.1, 5.0),
           intervals=st.lists(st.floats(0.0, 8.0), min_size=2, max_size=3))
    def test_density_matrix_mode_is_the_sum_over_branches(self, da, db, seed, beta, intervals):
        # density-matrix mode applies the outcome-averaged map.  Every state of A it
        # reports after an interval must be the sum over all branches of the pure
        # process: each eigenvector of the start, then per interval each reservoir
        # input level and each outcome, enumerated with U = expm(-i H t)
        rng = np.random.default_rng(seed)
        base = random_system(rng, da, db)
        sys = JointSystem(dim_a=da, dim_b=db, h_a=base.h_a, h_b=base.h_b,
                          h_ab=Operator(coupling_without_level_shift(rng, base.h_b.mat, da),
                                        hermitian=True),
                          gamma=base.gamma)
        rho0 = random_density(rng, da)
        cfg = ProcessConfig(lam=1.0, beta=beta, horizon=sum(intervals) + 1.0, seed=seed,
                            initial_state_a=rho0, n_checkpoints=2, intervals=np.array(intervals))
        rec = run_process(cfg, sys)

        # a branch is an unnormalized state of A whose squared norm is its probability
        evals, evecs = np.linalg.eigh(rho0.mat)
        branches = evecs.T * np.sqrt(np.clip(evals, 0.0, None))[:, None]
        v_b = sys.basis_b.eigenvectors
        inputs = v_b.T * np.sqrt(gibbs_b(sys, beta))[:, None]      # row b: sqrt(p_b) |b>
        want = [branches.T @ branches.conj()]
        for t in intervals:
            joint = (branches[:, None, :, None] * inputs[None, :, None, :]).reshape(-1, da * db)
            joint = joint @ expm(-1j * t * sys.total_h.mat).T
            # amp[r, a, m] = (<a| (x) <m|) joint_r, one branch per (r, m)
            amp = joint.reshape(-1, da, db) @ v_b.conj()
            branches = amp.transpose(0, 2, 1).reshape(-1, da)
            want.append(branches.T @ branches.conj())
        assert len(rec.rho_a_snapshots) == len(intervals) + 1
        np.testing.assert_allclose(rec.rho_a_snapshots, want, rtol=0, atol=1e-12)


class TestApproxHeat:
    def test_zero_change(self):
        sys = build_jcm(DECAY)
        ds, dq = approx_heat_small_change(gibbs_b(sys, 1.0), gibbs_b(sys, 1.0), sys)
        assert ds == 0.0 and dq == 0.0

    def test_quadratic_error_in_population_change(self):
        # halving gamma quarters delta-p, so the linearization error drops ~16x
        beta, t = 1.0, 4.0
        errs = []
        for gamma in (0.04, 0.02):
            p = JcmParams(omega_a=2 * math.pi, omega_b=2 * math.pi, gamma=gamma,
                          n_max=6, rwa=True)
            sys = build_jcm(p)
            p0 = gibbs_b(sys, beta)
            rho_a = fock(1, sys.dim_a).projector()
            p1 = reservoir_end_populations(sys, rho_a, beta, t)
            led = one_interval(sys, rho_a, beta, t)
            _, dq_lin = approx_heat_small_change(p0, p1, sys)
            errs.append(abs(dq_lin - led.q))
        ratio = errs[0] / errs[1]
        assert 8.0 < ratio < 32.0

    def test_energy_conserving_regime(self):
        # with excitation-conserving coupling the linearized heat is -dH_B = dH_A
        p = JcmParams(omega_a=2 * math.pi, omega_b=2 * math.pi, gamma=0.01, n_max=6, rwa=True)
        sys = build_jcm(p)
        beta = 1.0
        p0 = gibbs_b(sys, beta)
        rho_a = fock(1, sys.dim_a).projector()
        p1 = reservoir_end_populations(sys, rho_a, beta, 30.0)
        led = one_interval(sys, rho_a, beta, 30.0)
        _, dq_lin = approx_heat_small_change(p0, p1, sys)
        assert abs(dq_lin - (-led.dH_b)) < 1e-12
        assert abs(led.dH_a + led.dH_b) < 1e-10


class TestTraditionalQW:
    def test_constant_state_zero(self):
        sys = build_jcm(DECAY)
        rho = fock(1, sys.dim_a).projector()
        q, w = traditional_qw([rho, rho, rho], sys.h_a)
        assert np.abs(q).max() == 0.0 and np.abs(w).max() == 0.0

    def test_decay_run_reduces_to_energy_change(self):
        sys, rec = run_decay(horizon=300.0)
        q_trad, w_trad = traditional_qw(list(rec.rho_a_snapshots), sys.h_a)
        dha = [np.trace(sys.h_a.mat @ (r - rec.rho_a_snapshots[0])).real
               for r in rec.rho_a_snapshots]
        np.testing.assert_allclose(q_trad, dha, atol=1e-12)
        assert np.abs(w_trad).max() == 0.0
        # and it disagrees with the reservoir-based ledger heat
        q_ledger = np.cumsum([l.q for l in rec.ledgers])
        assert np.abs(q_trad[1:] - q_ledger).max() > 1e-2


class TestSTot:
    def test_zero_at_start(self):
        sys, rec = run_decay(horizon=250.0)
        series = s_tot(rec.s_a_series, rec.ledgers)
        assert series[0] == 0.0

    def test_entropy_production_non_negative(self):
        sys, rec = run_decay(horizon=600.0, seed=100)
        series = s_tot(rec.s_a_series, rec.ledgers)
        assert (np.diff(series) >= -1e-9).all()
        for led in rec.ledgers:
            assert led.dS_a + led.dS_b >= -1e-9


class TestSecondLawSuite:
    def test_uncoupled_all_zero(self):
        sys = build_jcm(JcmParams(gamma=0.0, n_max=4, rwa=True))
        cfg = ProcessConfig(lam=0.02, beta=1.0, horizon=200.0, seed=2,
                            initial_state_a=fock(1, sys.dim_a), n_checkpoints=2)
        rec = run_process(cfg, sys)
        report = second_law_suite(rec.ledgers, rec.rho_a_snapshots)
        assert report.ok
        assert abs(report.min_entropy_production) < 1e-12
        # every pair of snapshots is a cyclic return for the uncoupled system
        assert report.windows and abs(report.windows[0].q_sum) < 1e-12

    def test_decay_run_passes(self):
        sys, rec = run_decay(horizon=500.0, seed=21)
        report = second_law_suite(rec.ledgers, rec.rho_a_snapshots)
        assert report.ok
        assert report.min_entropy_production >= -1e-9
        assert report.min_cyclic_r_contribution >= -1e-9

    def test_fixed_schedule_reaches_cycles_and_q_release(self):
        # a constant interval schedule converges to a period-1 steady cycle
        intervals = np.full(400, 100.0)
        sys, rec = run_decay(horizon=1e9, intervals=intervals)
        report = second_law_suite(rec.ledgers, rec.rho_a_snapshots)
        assert report.ok
        assert report.windows, "expected cyclic returns at the steady state"
        assert all(w.q_sum <= 1e-8 for w in report.windows)
        assert any(w.q_sum < -1e-12 for w in report.windows)

    def test_backaction_as_heat_violates_cyclic_bound(self):
        intervals = np.full(400, 100.0)
        sys, rec = run_decay(horizon=1e9, intervals=intervals)
        windows = backaction_as_heat_windows(rec.ledgers, rec.rho_a_snapshots)
        assert windows and max(w.q_sum for w in windows) > 1e-10

    def test_columns_match_a_per_ledger_loop(self):
        # random ledgers with every kind of violation, some at beta = 0 (heat
        # undefined), against the suite's definitions applied one ledger at a time
        rng = np.random.default_rng(17)
        ledgers = []
        for _ in range(60):
            x = rng.normal(scale=1e-8, size=9)
            beta = float(rng.choice([0.0, 0.5, math.inf]))
            ledgers.append(IntervalLedger(*x[:5], math.nan if beta == 0 else x[5], *x[6:],
                                          beta=beta))
        report = second_law_suite(ledgers)
        ent = [l.dS_a + l.dS_b for l in ledgers]
        heat = [k for k, l in enumerate(ledgers) if l.heat_defined]
        contrib = {k: ledgers[k].r - ledgers[k].dH_a for k in heat}
        resid = [abs(l.w_meas - (l.dH_a + l.dH_b)) for l in ledgers]
        assert report.min_entropy_production == min(ent)
        assert report.min_cyclic_r_contribution == min(contrib.values())
        assert report.max_w_therm == max(ledgers[k].w_therm for k in heat)
        assert report.max_backaction_residual == max(resid)
        assert report.entropy_violations == tuple(k for k, e in enumerate(ent) if e < -1e-9)
        assert report.klein_violations == tuple(k for k in heat if contrib[k] < -1e-9)
        assert report.backaction_violations == tuple(k for k, r in enumerate(resid) if r > 1e-9)
        assert 0 < len(report.klein_violations) < len(heat) < len(ledgers)

    def test_w_meas_sign_flip_detected(self):
        sys, rec = run_decay(horizon=500.0, seed=22)
        flipped = [type(l)(dH_a=l.dH_a, dH_b=l.dH_b, w_meas=-l.w_meas, dS_a=l.dS_a,
                           dS_b=l.dS_b, q=l.q, w_therm=l.w_therm, w=l.w, r=l.r,
                           beta=l.beta) for l in rec.ledgers]
        report = second_law_suite(flipped, rec.rho_a_snapshots)
        assert not report.ok and report.backaction_violations


def test_find_cyclic_windows_tolerance():
    a = np.diag([1.0, 0.0]).astype(complex)
    b = np.diag([0.4, 0.6]).astype(complex)
    wins = find_cyclic_windows([a, b, a, b], tol=1e-6)
    assert wins and wins[0][:2] == (0, 2)


def brute_force_windows(snapshots, tol):
    # the earliest non-overlapping returns, one trace distance per pair
    out, i = [], 0
    while i < len(snapshots) - 1:
        for j in range(i + 1, len(snapshots)):
            d = 0.5 * np.abs(np.linalg.eigvalsh(snapshots[i] - snapshots[j])).sum()
            if d < tol:
                out.append((i, j, d))
                i = j
                break
        else:
            i += 1
    return out


@pytest.mark.parametrize("kind", ["random", "periodic", "near_tol"])
def test_find_cyclic_windows_matches_brute_force(kind):
    # the Frobenius prefilter only skips pairs that cannot be returns: windows and
    # distances equal the pairwise search on random states, on a 7-periodic
    # sequence with noise, and on returns whose distances straddle tol
    rng = np.random.default_rng(31)
    states = [random_density(rng, 4).mat for _ in range(7)]
    if kind == "random":
        snaps, tol = [random_density(rng, 4).mat for _ in range(60)], 0.3
    else:
        scale = 1e-6 if kind == "periodic" else 1.1e-6
        snaps, tol = [], 1e-6
        for k in range(60):
            noise = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            noise = scale * (noise + noise.conj().T) / 8
            snaps.append(states[k % 7] + noise - np.trace(noise) * np.eye(4) / 4)
    got = find_cyclic_windows(snaps, tol=tol)
    assert got == brute_force_windows(snaps, tol)
    assert got
