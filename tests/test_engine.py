import math
from dataclasses import replace

import numpy as np
import pytest

from qtherm.analytic import amplitudes
from qtherm.engine import (
    MAX_CHECKPOINTS,
    MAX_INTERVALS,
    MAX_TRAJECTORIES,
    ProcessConfig,
    _JointFrame,
    _traj_rng,
    absorption_rate_mc,
    ensemble_average_series,
    run_process,
    sample_interval,
    step_interval,
)
from qtherm.errors import (ConfigError, DegenerateSteadyStateError, DimensionError,
                           PreconditionError, SizeLimitError)
from qtherm.generators import AveragedIntervalMap, decompose, weak_interval_run
from qtherm.models import JcmParams, JointSystem, build_jcm, thermal_populations, thermal_state
from qtherm.qcore import DensityMatrix, Operator, StateVector, marginal, shannon_entropy
from qtherm.thermo import s_tot

DECAY = JcmParams(omega_a=2 * math.pi, omega_b=2 * math.pi, gamma=0.05, n_max=12, rwa=False)
DECAY_RWA = JcmParams(omega_a=2 * math.pi, omega_b=2 * math.pi, gamma=0.05, n_max=12, rwa=True)


def fock(n, dim):
    v = np.zeros(dim, dtype=complex)
    v[n] = 1.0
    return StateVector(v)


def one_interval(sys, rho_a, beta, t):
    """The record of one outcome-averaged interval of length t from rho_A (x) Gibbs B."""
    cfg = ProcessConfig(lam=1.0, beta=beta, horizon=t, initial_state_a=rho_a, n_checkpoints=0,
                        intervals=[t])
    return run_process(cfg, sys)


class TestSampleInterval:
    def test_reproducible(self):
        a = [sample_interval(np.random.default_rng(5), 0.3) for _ in range(4)]
        b = [sample_interval(np.random.default_rng(5), 0.3) for _ in range(4)]
        assert a[0] == b[0]

    def test_mean_matches_rate(self):
        rng = np.random.default_rng(11)
        draws = rng.exponential(1 / 0.01, size=10 ** 6)
        assert abs(draws.mean() - 100.0) < 0.3

    def test_cdf_at_median(self):
        rng = np.random.default_rng(12)
        n = 10 ** 5
        draws = np.array([sample_interval(rng, 1.0) for _ in range(n)])
        frac = (draws <= math.log(2)).mean()
        assert abs(frac - 0.5) < 3 * 0.5 / math.sqrt(n)


class TestStepInterval:
    def test_uncoupled_leaves_populations(self):
        p = JcmParams(gamma=0.0, n_max=3, rwa=True)
        sys = build_jcm(p)
        rho_a = fock(1, sys.dim_a).projector()
        rho_b = thermal_state(sys.h_b, 1.0)
        rec = one_interval(sys, rho_a, 1.0, 17.3)
        led = rec.ledgers[0]
        np.testing.assert_allclose(rec.rho_a_snapshots[-1], rho_a.mat, atol=1e-12)
        # B's end populations, from its energy change across its two levels
        p0 = np.diag(rho_b.mat).real
        e_b = sys.basis_b.eigenvalues
        p1 = p0 + led.dH_b / (e_b[1] - e_b[0]) * np.array([-1.0, 1.0])
        np.testing.assert_allclose(p1, p0, atol=1e-12)
        # <H_AB>, read off the exact frame: w_meas = -gamma <H_AB> is zero at gamma = 0
        frame = _JointFrame(sys)
        joint = frame.apply(np.kron(rho_a.mat, rho_b.mat), [17.3])
        assert abs(frame.hab_expect(joint, [17.3])[0]) < 1e-12

    @pytest.mark.parametrize("n", [1, 3])
    def test_outcome_probability_matches_closed_form(self, n):
        sys = build_jcm(DECAY_RWA)
        t = 9.0
        rng = np.random.default_rng(0)
        out = step_interval(fock(n - 1, sys.dim_a), 1, sys, t, rng)  # reservoir level e
        b2 = amplitudes(n, t, DECAY_RWA).transfer_probability
        # outcome g has the transfer probability
        assert abs(out.reservoir_populations[0] - b2) < 1e-10
        assert out.born_deviation < 1e-10

    def test_trajectory_outcome_frequencies(self):
        sys = build_jcm(DECAY_RWA)
        t = 11.0
        b2 = amplitudes(1, t, DECAY_RWA).transfer_probability
        rng = np.random.default_rng(33)
        n = 4000
        hits = sum(
            step_interval(fock(0, sys.dim_a), 1, sys, t, rng).outcome.m == 0
            for _ in range(n))
        se = math.sqrt(b2 * (1 - b2) / n)
        assert abs(hits / n - b2) < 4 * se

    def test_density_matrix_mode_is_trajectory_average(self):
        p = JcmParams(omega_a=2 * math.pi, omega_b=2 * math.pi + 0.3, gamma=0.08,
                      n_max=4, rwa=False)
        sys = build_jcm(p)
        beta = 0.8
        t = 6.0
        rho_b = thermal_state(sys.h_b, beta)
        psi_a = StateVector(np.sqrt([0.3, 0.5, 0.2, 0.0, 0.0]).astype(complex))
        dm = one_interval(sys, psi_a.projector(), beta, t).rho_a_snapshots[-1]
        rng = np.random.default_rng(7)
        pops_in = np.diag(rho_b.mat).real
        n = 10 ** 4
        acc = np.zeros((sys.dim_a, sys.dim_a), complex)
        for _ in range(n):
            lvl = int(rng.random() > pops_in[0])
            out = step_interval(psi_a, lvl, sys, t, rng)
            acc += out.state_a.projector().mat
        acc /= n
        # agreement within Monte Carlo error on populations
        dev = np.abs(np.diag(acc - dm)).max()
        assert dev < 5.0 / math.sqrt(n)

    def test_density_matrix_rejected(self):
        # the outcome-averaged interval is run_process's; step_interval steps a pure state
        sys = build_jcm(DECAY)
        with pytest.raises(PreconditionError, match="run_process"):
            step_interval(fock(1, sys.dim_a).projector(), 1, sys, 1.0, np.random.default_rng(0))

    def test_trajectory_superposition_reservoir_rejected(self):
        sys = build_jcm(DECAY)
        plus = StateVector(np.array([1.0, 1.0]) / math.sqrt(2))
        with pytest.raises(PreconditionError):
            step_interval(fock(1, sys.dim_a), plus, sys, 1.0, np.random.default_rng(0))


class TestRunProcess:
    @pytest.mark.parametrize("field,value", [("lam", math.nan), ("lam", math.inf),
                                             ("horizon", math.inf), ("horizon", math.nan)])
    def test_non_finite_rate_or_horizon_rejected(self, field, value):
        # an infinite horizon never ends the interval loop; a NaN rate completes no interval
        kwargs = {"lam": 0.01, "horizon": 10.0, field: value}
        with pytest.raises(ConfigError):
            ProcessConfig(beta=1.0, initial_state_a=fock(1, 3), **kwargs)

    def test_schedule_above_interval_limit_rejected(self):
        # the walk runs about lam * horizon intervals per walker (~3e302 at
        # lam = 1e100, horizon = 300); an explicit schedule counts its length,
        # so check 10's horizon of 1e9 with 400 intervals stays valid
        with pytest.raises(SizeLimitError, match="3e\\+06 intervals per walker"):
            ProcessConfig(lam=1e4, beta=1.0, horizon=300.0)
        with pytest.raises(SizeLimitError, match="intervals per walker"):
            ProcessConfig(lam=1e-2, beta=1.0, horizon=1e9,
                          intervals=np.ones(MAX_INTERVALS + 1))
        ProcessConfig(lam=1e-2, beta=1.0, horizon=1e9, intervals=np.full(400, 100.0))

    def test_counts_above_their_limits_rejected(self):
        # 1e8 trajectories or checkpoints ran out of memory in every mode: the random
        # streams, the checkpoint grid and its states were allocated before any guard
        base = dict(lam=0.01, beta=1.0, horizon=30.0, mode="trajectory")
        with pytest.raises(SizeLimitError, match="n_traj = 100000000 "):
            ProcessConfig(n_traj=10 ** 8, **base)
        for mode in ("trajectory", "density-matrix"):
            with pytest.raises(SizeLimitError, match="100000000 checkpoint times"):
                ProcessConfig(**dict(base, mode=mode, n_checkpoints=10 ** 8))
        with pytest.raises(SizeLimitError, match=f"{MAX_CHECKPOINTS + 1} checkpoint times"):
            ProcessConfig(checkpoint_times=np.zeros(MAX_CHECKPOINTS + 1), **base)
        ProcessConfig(n_traj=MAX_TRAJECTORIES, n_checkpoints=MAX_CHECKPOINTS, **base)

    @pytest.mark.parametrize("times", [[0.0, 6.0, 2.0, 4.0], [0.0, 2.0, math.nan, 6.0]])
    def test_unsorted_or_non_finite_grid_rejected(self, times):
        # a decreasing grid would report stale <H_A> at the out-of-order
        # times, and a NaN would silently cut the series short
        with pytest.raises(ConfigError):
            ProcessConfig(lam=0.01, beta=1.0, horizon=10.0, initial_state_a=fock(1, 3),
                          checkpoint_times=np.array(times))

    @pytest.mark.parametrize("field,value", [("beta", -1.0), ("beta", [1.0, math.nan]),
                                             ("n_checkpoints", -3), ("beta", [])])
    def test_bad_beta_or_checkpoint_count_rejected(self, field, value):
        # an empty beta schedule passed check_beta and then failed in beta_for
        kwargs = {"lam": 0.01, "horizon": 10.0, "beta": 1.0, field: value}
        with pytest.raises(ConfigError):
            ProcessConfig(initial_state_a=fock(1, 3), **kwargs)

    @pytest.mark.parametrize("intervals", [[-5.0, 10.0, 10.0], [math.nan, 1.0]])
    def test_negative_or_nan_interval_rejected(self, intervals):
        # a negative interval would run the process backwards and book its ledger
        with pytest.raises(ConfigError, match="interval lengths"):
            ProcessConfig(lam=0.01, beta=1.0, horizon=30.0, initial_state_a=fock(1, 3),
                          intervals=np.array(intervals))

    @pytest.mark.parametrize("state", [fock(1, 4), fock(1, 4).projector()],
                             ids=["vector", "matrix"])
    @pytest.mark.parametrize("mode", ["density-matrix", "trajectory"])
    def test_initial_state_of_wrong_dimension_rejected(self, mode, state):
        # a 4-level state of a 3-level A failed inside numpy's matmul
        cfg = ProcessConfig(lam=0.01, beta=1.0, horizon=10.0, mode=mode, initial_state_a=state)
        with pytest.raises(DimensionError, match="has shape \\(4, 4\\), but A has dimension 3"):
            run_process(cfg, build_jcm(JcmParams(n_max=2)))

    def test_trajectory_mode_rejects_interval_schedule(self):
        # the trajectory ensemble draws each trajectory's own intervals, so a
        # schedule would be ignored without a word
        with pytest.raises(ConfigError, match="density-matrix mode only"):
            ProcessConfig(lam=0.01, beta=1.0, horizon=30.0, mode="trajectory", n_traj=4,
                          initial_state_a=fock(1, 3), intervals=np.array([5.0, 5.0]))

    @pytest.mark.parametrize("beta", [math.inf, 0.0], ids=["zero_T", "infinite_T"])
    @pytest.mark.parametrize("mode", ["density-matrix", "trajectory", "weak"])
    def test_entropy_production_finite_at_extreme_beta(self, mode, beta):
        # beta Q is booked as -dS_B: as a product it is inf * 0 at beta = inf,
        # and Q itself is undefined at beta = 0.  Every mode books Q through
        # thermo, so at beta = inf it is +0.0, never -dS_B / inf = -0.0
        sys = build_jcm(JcmParams(n_max=4))
        psi0 = fock(1, sys.dim_a)
        if mode == "weak":
            run = weak_interval_run(decompose(sys, 0.05), thermal_state(sys.h_b, beta),
                                    psi0.projector(), horizon=100.0, seed=3, beta=beta)
        else:
            run = run_process(ProcessConfig(lam=0.05, beta=beta, horizon=100.0, seed=3,
                                            mode=mode, n_traj=20, initial_state_a=psi0,
                                            n_checkpoints=11), sys)
        assert np.isfinite(run.series.s_tot).all() and run.series.s_tot[-1] != 0.0
        if beta == math.inf:
            assert (run.series.q_cum == 0.0).all() and not np.signbit(run.series.q_cum).any()
        if mode != "trajectory":
            assert np.isfinite(s_tot(run.s_a_series, run.ledgers)).all()

    @pytest.mark.parametrize("mode", ["density-matrix", "weak", "trajectory"])
    def test_s_tot_counts_from_t_zero(self, mode):
        # S_tot = S_A - S_A(0) - sum beta Q sums beta Q from t = 0, so its S_A(0) is
        # the entropy at t = 0 on every grid: a grid that starts at t = 20 gives the
        # S_tot that the full grid gives there.  The walk draws no number for a
        # checkpoint, so both grids run the same intervals.  The trajectory ensemble
        # starts mixed, so its S_A(0) is that of the sampled mean state
        sys = build_jcm(JcmParams(n_max=6))
        rho0 = np.zeros((sys.dim_a, sys.dim_a))
        rho0[1, 1], rho0[2, 2] = 0.7, 0.3
        start = fock(1, sys.dim_a) if mode != "trajectory" else DensityMatrix(rho0)

        def series(grid):
            if mode == "weak":
                return weak_interval_run(decompose(sys, 0.5), thermal_state(sys.h_b, 1.0),
                                         start.projector(), horizon=40.0, seed=3,
                                         checkpoint_times=grid, beta=1.0).series
            return run_process(ProcessConfig(lam=0.5, beta=1.0, horizon=40.0, seed=3, mode=mode,
                                             n_traj=20, initial_state_a=start,
                                             checkpoint_times=grid), sys).series

        full, late = series(np.linspace(0.0, 40.0, 9)), series(np.linspace(20.0, 40.0, 5))
        np.testing.assert_array_equal(late.t, full.t[4:])
        np.testing.assert_allclose(late.s_a, full.s_a[4:], rtol=0, atol=1e-13)
        np.testing.assert_allclose(late.s_tot, full.s_tot[4:], rtol=0, atol=1e-12)

    def test_ensemble_matches_trajectories_stepped_by_hand(self):
        # each trajectory's stream is drawn in the order: interval length, input
        # level, outcome; stepping three of them one at a time through
        # step_interval must give the batched ensemble's ledger
        sys = build_jcm(JcmParams(omega_a=2 * math.pi, omega_b=2 * math.pi, gamma=0.05,
                                  n_max=4, rwa=False))
        lam, beta, horizon, seed = 0.2, 1.0, 60.0, 11
        cfg = ProcessConfig(lam=lam, beta=beta, horizon=horizon, seed=seed, mode="trajectory",
                            n_traj=3, initial_state_a=fock(1, sys.dim_a), n_checkpoints=5)
        ens = run_process(cfg, sys)
        pops = np.diag(thermal_state(sys.h_b, beta).mat).real

        def energy_a(psi):
            return np.vdot(psi.vec, sys.h_a.mat @ psi.vec).real

        total = np.zeros(3)
        for i in range(3):
            rng = _traj_rng(seed, i)
            psi, t_cum = fock(1, sys.dim_a), 0.0
            while t_cum < horizon:
                t_k = sample_interval(rng, lam)
                level = int(np.searchsorted(np.cumsum(pops), rng.random() * pops.sum()))
                if t_cum + t_k > horizon:
                    break
                out = step_interval(psi, level, sys, t_k, rng)
                q = -shannon_entropy(out.reservoir_populations) / beta
                total += (q, energy_a(out.state_a) - energy_a(psi) - q,
                          -sys.gamma * out.h_ab_expect)
                psi, t_cum = out.state_a, t_cum + t_k
        got = [ens.series.q_cum[-1], ens.series.w_cum[-1], ens.series.wmeas_cum[-1]]
        np.testing.assert_allclose(got, total / 3, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("rotated, lam, horizon",
                             [(False, 0.2, 40.0), (True, 0.2, 40.0), ("AB", 0.2, 40.0),
                              (False, 2e-4, 2e5)])
    def test_checkpoints_match_trajectories_stepped_by_hand(self, rotated, lam, horizon):
        # Each trajectory is stepped one interval at a time through step_interval,
        # and every checkpoint is evaluated from an explicit exp(-i e tau).  The
        # grid is non-uniform and holds trajectory 0's first measurement time, and
        # the next float after it, which the walk books to that interval with tau
        # clipped to the interval length.  The rotated H_A (and H_AB with it) is
        # not diagonal in the storage basis, so neither is the top-level projector;
        # "AB" rotates B's basis too, so that neither is H_B.
        # The ensemble takes a pair's phase e (t - t_start) from e t and e t_start,
        # so it agrees with exp(-i e tau) to about eps |e| t in absolute time t.
        sys = build_jcm(JcmParams(n_max=4))
        if rotated:
            z = np.random.default_rng(5).normal(size=(2, sys.dim_a, sys.dim_a))
            u, _ = np.linalg.qr(z[0] + 1j * z[1])
            u_b, h_b = np.eye(sys.dim_b), sys.h_b
            if rotated == "AB":
                z = np.random.default_rng(6).normal(size=(2, sys.dim_b, sys.dim_b))
                u_b, _ = np.linalg.qr(z[0] + 1j * z[1])
                h_b = Operator(u_b @ h_b.mat @ u_b.conj().T)
            uj = np.kron(u, u_b)
            sys = JointSystem(sys.dim_a, sys.dim_b, Operator(u @ sys.h_a.mat @ u.conj().T),
                              h_b, Operator(uj @ sys.h_ab.mat @ uj.conj().T), sys.gamma)
        betas, seed, n = [1.0, 0.5, 2.0], 3, 4
        rho0 = thermal_state(sys.h_a, 0.3).mat
        rng = _traj_rng(seed, 0)
        rng.random()
        t1 = sample_interval(rng, lam)
        grid = np.sort(np.concatenate(([0.0, t1, np.nextafter(t1, np.inf)],
                                       np.geomspace(0.3, horizon, 9))))
        cfg = ProcessConfig(lam=lam, beta=betas, horizon=horizon, seed=seed, mode="trajectory",
                            n_traj=n, initial_state_a=DensityMatrix(rho0), checkpoint_times=grid)
        ens = run_process(cfg, sys)

        e, w = sys.propagator.eigenvalues, sys.propagator.eigenvectors
        v_b = sys.basis_b.eigenvectors
        v_top = sys.basis_a.eigenvectors[:, -1]
        evals, evecs = np.linalg.eigh(rho0)
        p0 = np.clip(evals, 0.0, None) / np.clip(evals, 0.0, None).sum()
        obs = np.zeros((n, len(grid), 4))              # <H_A>, <H_B>, gamma <H_AB>, top
        rho = np.zeros((n, len(grid), sys.dim_a, sys.dim_a), complex)
        for i in range(n):
            rng = _traj_rng(seed, i)
            psi = StateVector(evecs[:, np.searchsorted(np.cumsum(p0), rng.random() * p0.sum())])
            t_cum, k, j = 0.0, 0, 0
            while j < len(grid):
                t_k = sample_interval(rng, lam)
                beta = betas[min(k, len(betas) - 1)]
                pops = thermal_populations(sys.basis_b.eigenvalues, beta)
                level = int(np.searchsorted(np.cumsum(pops), rng.random() * pops.sum()))
                end = min(t_cum + t_k, horizon)
                joint0 = np.kron(psi.vec, v_b[:, level])
                while j < len(grid) and grid[j] <= end + 1e-12:
                    tau = min(grid[j] - t_cum, t_k)
                    amp = (w @ (np.exp(-1j * e * tau) * (w.conj().T @ joint0)))
                    m = amp.reshape(sys.dim_a, sys.dim_b)
                    rho[i, j] = m @ m.conj().T
                    obs[i, j] = (np.trace(sys.h_a.mat @ rho[i, j]).real,
                                 np.trace(sys.h_b.mat @ m.T @ m.conj()).real,
                                 sys.gamma * np.vdot(amp, sys.h_ab.mat @ amp).real,
                                 np.sum(np.abs(v_top.conj() @ m) ** 2))
                    j += 1
                psi = step_interval(psi, level, sys, t_k, rng).state_a
                t_cum, k = t_cum + t_k, k + 1

        atol = max(1e-12, np.finfo(float).eps * np.abs(e).max() * horizon)
        s = ens.series
        ha = obs[:, :, 0]
        se = np.sqrt(np.maximum((ha ** 2).mean(0) - ha.mean(0) ** 2, 0.0) / (n - 1))
        for got, want in ((s.mean_ha, ha.mean(0)), (s.se_ha, se), (s.mean_hb, obs[:, :, 1].mean(0)),
                          (s.mean_hab, obs[:, :, 2].mean(0)), (ens.mean_rho_a, rho.mean(0))):
            np.testing.assert_allclose(got, want, rtol=0, atol=atol)
        assert ens.meta["checkpoint_pairs"] == n * len(grid)
        # alone, trajectory 0 reads the same pre-measurement state at t1 and just after it
        alone = run_process(replace(cfg, n_traj=1), sys)
        j = int(np.searchsorted(grid, t1))
        assert alone.series.mean_ha[j] == alone.series.mean_ha[j + 1]
        np.testing.assert_array_equal(alone.mean_rho_a[j], alone.mean_rho_a[j + 1])
        np.testing.assert_allclose(ens.meta["top_fock_max"], obs[:, :, 3].max(), rtol=1e-12,
                                   atol=1e-15)

    def test_interval_and_outcome_counts_match_a_hand_count(self):
        # meta counts the measurements made, the intervals that complete by the
        # horizon, and the outcomes drawn for each level of B; each trajectory is
        # stepped one interval at a time through step_interval and counted by hand
        sys = build_jcm(JcmParams(n_max=4))
        lam, beta, horizon, seed, n = 0.3, 0.2, 30.0, 4, 4
        cfg = ProcessConfig(lam=lam, beta=beta, horizon=horizon, seed=seed, mode="trajectory",
                            n_traj=n, initial_state_a=fock(1, sys.dim_a), n_checkpoints=7)
        meta = run_process(cfg, sys).meta
        pops = thermal_populations(sys.basis_b.eigenvalues, beta)
        outcomes = np.zeros(sys.dim_b, dtype=int)
        for i in range(n):
            rng = _traj_rng(seed, i)
            psi, t_cum = fock(1, sys.dim_a), 0.0
            while t_cum < horizon:
                t_k = sample_interval(rng, lam)
                level = int(np.searchsorted(np.cumsum(pops), rng.random() * pops.sum()))
                if t_cum + t_k > horizon:
                    break
                out = step_interval(psi, level, sys, t_k, rng)
                outcomes[out.outcome.m] += 1
                psi, t_cum = out.state_a, t_cum + t_k
        assert sum(meta["outcomes"]) == meta["intervals"]
        assert meta["outcomes"] == outcomes.tolist()
        assert (outcomes > 0).sum() == 2 and outcomes.sum() > 4 * n

    def test_repeated_and_boundary_checkpoint_times(self):
        # checkpoints at t = 0, repeated inside the run and at the horizon: a time and
        # its repeat are read from the same rows, so they read the same bit for bit.
        # A time before t = 0 reads the state at t = 0, by a tau clipped to 0
        sys = build_jcm(JcmParams(n_max=4))
        n, horizon, rho0 = 5, 40.0, DensityMatrix(thermal_state(sys.h_a, 0.3).mat)
        grid = np.array([-1.0, 0.0, 0.0, 7.5, 7.5, 21.0, horizon, horizon])
        cfg = ProcessConfig(lam=0.2, beta=0.5, horizon=horizon, seed=8, mode="trajectory",
                            n_traj=n, initial_state_a=rho0, checkpoint_times=grid)
        ens = run_process(cfg, sys)
        s = ens.series
        np.testing.assert_array_equal(s.t, grid)
        assert ens.meta["checkpoint_pairs"] == n * len(grid)
        for j in (0, 1, 3, 6):
            for got in (s.mean_ha, s.se_ha, s.mean_hab, ens.mean_rho_a):
                np.testing.assert_array_equal(got[j + 1], got[j])

    def test_record_budget_changes_nothing(self, monkeypatch):
        # with the budget for held records cut below one record's bytes, every
        # interval's records are read into partial sums as the interval ends: only
        # the order of the sums over trajectories changes, and no outcome
        from qtherm import engine

        sys = build_jcm(JcmParams(n_max=4))
        cfg = ProcessConfig(lam=0.3, beta=0.5, horizon=40.0, seed=6, mode="trajectory", n_traj=8,
                            initial_state_a=DensityMatrix(thermal_state(sys.h_a, 0.3).mat),
                            n_checkpoints=41)
        whole = run_process(cfg, sys)
        monkeypatch.setattr(engine, "STACK_BYTES", 1)
        parts = run_process(cfg, sys)
        for f in ("mean_ha", "mean_hb", "mean_hab", "s_a", "s_tot", "se_ha"):
            want = getattr(whole.series, f)
            np.testing.assert_allclose(getattr(parts.series, f), want, rtol=0,
                                       atol=1e-13 * np.abs(want).max(), err_msg=f)
        np.testing.assert_allclose(parts.mean_rho_a, whole.mean_rho_a, rtol=0,
                                   atol=1e-13 * np.abs(whole.mean_rho_a).max())
        for f in ("t", "q_cum", "w_cum", "wmeas_cum"):
            np.testing.assert_array_equal(getattr(parts.series, f), getattr(whole.series, f))
        assert parts.meta == whole.meta
        assert parts.born_max_deviation == whole.born_max_deviation

    @pytest.mark.parametrize("beta", [math.inf, 0.2])
    def test_trajectory_spread_at_a_shared_start_is_rounding(self, beta):
        # every trajectory starts from one pure state of A.  At beta = inf each draws
        # B's ground level, so all share one <H_A> at t = 0 and its standard error
        # is exactly 0; at beta = 0.2 the levels differ and the t = 0 values only by
        # rounding (the spread was once read from E[x^2] - E[x]^2, about 1e-8)
        sys = build_jcm(DECAY)
        cfg = ProcessConfig(lam=0.01, beta=beta, horizon=50.0, seed=9, mode="trajectory",
                            n_traj=200, initial_state_a=fock(1, sys.dim_a), n_checkpoints=6)
        s = run_process(cfg, sys).series
        if math.isinf(beta):
            assert s.se_ha[0] == 0.0
        else:
            assert 0.0 <= s.se_ha[0] < 1e-14 * s.mean_ha[0]
        assert (s.se_ha[1:] > 1e-6).all()

    def test_trajectory_empty_grid_gives_empty_series(self):
        sys = build_jcm(JcmParams(n_max=3))
        cfg = ProcessConfig(lam=0.05, beta=1.0, horizon=20.0, seed=1, mode="trajectory",
                            n_traj=3, initial_state_a=fock(1, sys.dim_a), n_checkpoints=0)
        ens = run_process(cfg, sys)
        assert len(ens.series.t) == 0
        assert len(ens.series.s_a) == len(ens.series.s_tot) == len(ens.series.q_cum) == 0

    def test_zero_horizon_empty(self):
        sys = build_jcm(DECAY)
        cfg = ProcessConfig(lam=0.01, beta=1.0, horizon=0.0, seed=1,
                            initial_state_a=fock(1, sys.dim_a))
        rec = run_process(cfg, sys)
        assert len(rec.ledgers) == 0 and len(rec.times) == 0

    def test_one_time_per_propagator_call_changes_nothing(self, monkeypatch):
        # with the byte budget cut to one joint matrix per call, every checkpoint and
        # interval end is evolved alone: the exact run writes the same arrays bit for
        # bit, the weak run the same to rounding
        from qtherm import engine

        sys = build_jcm(JcmParams(omega_a=2 * math.pi, omega_b=2 * math.pi, gamma=0.1, n_max=4))
        cfg = ProcessConfig(lam=0.05, beta=1.0, horizon=200.0, seed=3,
                            initial_state_a=fock(1, sys.dim_a), n_checkpoints=61)
        rho_a = fock(1, sys.dim_a).projector().mat

        def runs():
            return (run_process(cfg, sys),
                    weak_interval_run(decompose(sys, 0.05), thermal_state(sys.h_b, 1.0), rho_a,
                                      horizon=200.0, seed=3, beta=1.0))

        stacked = runs()
        monkeypatch.setattr(engine, "STACK_BYTES", 1)
        alone = runs()
        assert len(stacked[0].ledgers) > 3
        fields = ("times", "checkpoint_rho_a", "checkpoint_hab", "checkpoint_hb",
                  "rho_a_snapshots")
        for f in fields:
            np.testing.assert_array_equal(getattr(alone[0], f), getattr(stacked[0], f), err_msg=f)
        np.testing.assert_array_equal(alone[0].series.s_a, stacked[0].series.s_a)
        for f in fields:
            want = getattr(stacked[1], f)
            np.testing.assert_allclose(getattr(alone[1], f), want, rtol=0,
                                       atol=1e-13 * np.abs(want).max(), err_msg=f)

    def test_seed_determinism(self):
        sys = build_jcm(DECAY)
        cfg = ProcessConfig(lam=0.01, beta=1.0, horizon=250.0, seed=42,
                            initial_state_a=fock(1, sys.dim_a), n_checkpoints=41)
        a = run_process(cfg, sys)
        b = run_process(cfg, sys)
        np.testing.assert_array_equal(a.times, b.times)
        np.testing.assert_array_equal(a.series.mean_ha, b.series.mean_ha)
        assert [l.q for l in a.ledgers] == [l.q for l in b.ledgers]

    def test_born_rule_and_positivity(self):
        sys = build_jcm(DECAY)
        cfg = ProcessConfig(lam=0.02, beta=1.0, horizon=400.0, seed=3,
                            initial_state_a=fock(1, sys.dim_a), n_checkpoints=21)
        rec = run_process(cfg, sys)
        assert rec.born_max_deviation < 1e-10
        for rho in rec.rho_a_snapshots:
            assert np.linalg.eigvalsh(rho).min() > -1e-9

    def test_geometric_steady_state_rwa(self):
        # long run relaxes the cavity to p_n ~ (sigma_e/sigma_g)^n
        p = JcmParams(omega_a=1.0, omega_b=1.0, gamma=0.05, n_max=8, rwa=True)
        sys = build_jcm(p)
        beta = 1.0
        cfg = ProcessConfig(lam=0.05, beta=beta, horizon=30000.0, seed=9,
                            initial_state_a=fock(1, sys.dim_a), n_checkpoints=2)
        rec = run_process(cfg, sys)
        pops = rec.pops_a[-1]
        ratio = math.exp(-beta * 1.0)
        want = ratio ** np.arange(sys.dim_a)
        want /= want.sum()
        assert np.abs(pops - want).max() < 5e-3

    def test_trajectory_matches_exact_average(self):
        p = JcmParams(omega_a=2 * math.pi, omega_b=2 * math.pi, gamma=0.05, n_max=6, rwa=False)
        sys = build_jcm(p)
        grid = np.linspace(0.0, 150.0, 7)
        cfg = ProcessConfig(lam=0.02, beta=1.0, horizon=150.0, seed=77, mode="trajectory",
                            n_traj=2000, initial_state_a=fock(1, sys.dim_a),
                            checkpoint_times=grid)
        ens = run_process(cfg, sys)
        _, ha, _, _ = ensemble_average_series(sys, 1.0, 0.02, fock(1, sys.dim_a).projector().mat, grid)
        dev = np.abs(ens.series.mean_ha - ha)
        assert (dev <= 6 * np.maximum(ens.series.se_ha, 1e-9)).all()

    def test_truncation_flag_on_tight_ladder(self):
        p = JcmParams(omega_a=2 * math.pi, omega_b=2 * math.pi, gamma=0.4, n_max=2, rwa=False)
        sys = build_jcm(p)
        cfg = ProcessConfig(lam=0.05, beta=0.2, horizon=200.0, seed=1,
                            initial_state_a=fock(1, sys.dim_a), n_checkpoints=25)
        rec = run_process(cfg, sys)
        assert rec.truncation_suspect
        # the largest top-level population of every state the run reports
        states = np.concatenate((rec.checkpoint_rho_a, rec.rho_a_snapshots[1:]))
        assert rec.meta["top_fock_max"] == states[:, -1, -1].real.max() > 1e-6

    def test_beta_schedule_list(self):
        sys = build_jcm(DECAY)
        cfg = ProcessConfig(lam=0.02, beta=[1.0, 2.0], horizon=300.0, seed=5,
                            initial_state_a=fock(1, sys.dim_a), n_checkpoints=2)
        rec = run_process(cfg, sys)
        betas = [l.beta for l in rec.ledgers]
        assert betas[0] == 1.0
        assert all(b == 2.0 for b in betas[1:])


class TestEnsembleAverageSeries:
    def test_matches_tight_rk45(self):
        # exact grid propagation against an independent tight-tolerance integration,
        # on a non-uniform grid whose steps repeat (0.5 three times) or lie a
        # rounding apart (the linspace part's 0.3s)
        from scipy.integrate import solve_ivp

        sys = build_jcm(JcmParams(gamma=0.2, n_max=3, rwa=False))
        beta, lam = 0.7, 0.3
        rho_a0 = fock(1, sys.dim_a).projector().mat
        grid = np.concatenate([np.linspace(0.3, 3.0, 10), [3.5, 4.0, 9.0, 9.5]])
        got = ensemble_average_series(sys, beta, lam, rho_a0, grid)
        h, d = sys.total_h.mat, sys.dim
        dims = (sys.dim_a, sys.dim_b, sys.dim_a, sys.dim_b)
        rho_b = thermal_state(sys.h_b, beta).mat

        def rhs(t, y):
            rho = y.reshape(d, d)
            rho_a = np.einsum("abcb->ac", rho.reshape(dims))
            return (-1j * (h @ rho - rho @ h) + lam * (np.kron(rho_a, rho_b) - rho)).ravel()

        sol = solve_ivp(rhs, (0.0, grid[-1]), np.kron(rho_a0, rho_b).ravel(), t_eval=grid,
                        rtol=1e-12, atol=1e-14, method="DOP853")
        rho = sol.y.T.reshape(-1, d, d)
        rho_a = np.einsum("tabcb->tac", rho.reshape((-1,) + dims))
        rho_bt = np.einsum("tabad->tbd", rho.reshape((-1,) + dims))
        want = (rho_a,
                np.einsum("ij,tji->t", sys.h_a.mat, rho_a).real,
                np.einsum("ij,tji->t", sys.h_b.mat, rho_bt).real,
                sys.gamma * np.einsum("ij,tji->t", sys.h_ab.mat, rho).real)
        for g, w in zip(got, want):
            np.testing.assert_allclose(g, w, rtol=0, atol=1e-10)

    def test_rejects_empty_grid(self):
        sys = build_jcm(JcmParams(n_max=3))
        with pytest.raises(ConfigError):
            ensemble_average_series(sys, 1.0, 0.2, fock(1, sys.dim_a).projector().mat, [])

    @pytest.mark.parametrize("lam", [math.nan, math.inf, 0.0, -1.0])
    def test_rejects_bad_rate(self, lam):
        # a NaN rate used to return NaN curves, and a negative one finite ones
        sys = build_jcm(JcmParams(n_max=2))
        with pytest.raises(ConfigError, match="measurement rate"):
            ensemble_average_series(sys, 1.0, lam, fock(1, sys.dim_a).projector().mat, [1.0, 2.0])

    def test_refuses_oversized_generator_before_allocating(self):
        # n_max = 40 (d = 82): the dense generator would need 0.7 GiB, above the
        # 0.5 GiB qcore.MAX_SUPEROP_BYTES; only its d x d GKSL parts may be built
        import tracemalloc

        sys = build_jcm(JcmParams(n_max=40))
        rho_a0 = fock(1, sys.dim_a).projector().mat
        tracemalloc.start()
        try:
            with pytest.raises(SizeLimitError, match="0.7 GiB"):
                ensemble_average_series(sys, 1.0, 0.2, rho_a0, [1.0])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 23, peak


class TestAveragedIntervalMap:
    def test_matches_time_quadrature(self):
        p = JcmParams(omega_a=1.3, omega_b=1.7, gamma=0.2, n_max=2, rwa=False)
        sys = build_jcm(p)
        lam = 0.35
        amap = AveragedIntervalMap(sys, beta=0.9, lam=lam)
        rng = np.random.default_rng(2)
        m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        rho_a = m @ m.conj().T
        rho_a /= np.trace(rho_a).real
        got = amap.apply(rho_a)
        # oracle: composite Gauss-Legendre average (50 panels x 16 nodes) of the
        # exact step over exp(lam) times on [0, 50 / lam]
        rho_b = thermal_state(sys.h_b, 0.9)
        x, w = np.polynomial.legendre.leggauss(16)
        edges = np.linspace(0.0, 50.0 / lam, 51)
        half = 0.5 * np.diff(edges)[:, None]
        ts = (0.5 * (edges[:-1] + edges[1:])[:, None] + half * x).ravel()
        wgt = (half * w).ravel()
        rho_t = marginal(_JointFrame(sys).apply(np.kron(rho_a, rho_b.mat), ts),
                         (sys.dim_a, sys.dim_b), "A")
        acc = np.einsum("t,tij->ij", wgt * lam * np.exp(-lam * ts), rho_t)
        np.testing.assert_allclose(got, acc, atol=5e-9)

    @pytest.mark.parametrize("lam", [math.nan, math.inf, 0.0, -1.0])
    def test_rejects_bad_rate(self, lam):
        # a NaN rate used to run every fixed-point iteration and return NaN
        with pytest.raises(ConfigError):
            AveragedIntervalMap(build_jcm(DECAY_RWA), beta=1.0, lam=lam)

    def test_fixed_point_is_stationary(self):
        sys = build_jcm(DECAY_RWA)
        amap = AveragedIntervalMap(sys, beta=1.0, lam=0.01)
        rho = amap.fixed_point()
        np.testing.assert_allclose(amap.apply(rho), rho, atol=1e-12)

    def test_uncoupled_fixed_point_is_degenerate(self):
        # at gamma = 0 every diagonal rho_A is a fixed point; iterating from I/d
        # returned I/d as if it were the only one
        sys = build_jcm(replace(DECAY, gamma=0.0, n_max=4))
        with pytest.raises(DegenerateSteadyStateError) as err:
            AveragedIntervalMap(sys, beta=1.0, lam=0.01).fixed_point()
        assert err.value.null_dim == sys.dim_a


class TestAbsorptionRateMc:
    def test_detuned_weak_point(self):
        # detuning dominates the linewidth so the first-order rate applies
        p = JcmParams(omega_a=2 * math.pi, omega_b=2 * math.pi + 0.5,
                      gamma=0.01, n_max=6, rwa=True)
        sys = build_jcm(p)
        beta, lam = 1.0, 1e-3
        rate, se = absorption_rate_mc(sys, fock(3, sys.dim_a), beta, lam,
                                      n_trials=200_000, seed=4)
        sigma = np.diag(thermal_state(sys.h_b, beta).mat).real
        want = 2 * lam * p.gamma ** 2 / (lam ** 2 + 0.5 ** 2) * (sigma[0] * 3 - sigma[1] * 4)
        assert abs(rate - want) < max(4 * se, 0.05 * abs(want))
