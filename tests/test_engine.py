import math

import numpy as np
import pytest

from qtherm.analytic import amplitudes
from qtherm.engine import (
    AveragedIntervalMap,
    ProcessConfig,
    _traj_rng,
    absorption_rate_mc,
    ensemble_average_series,
    run_process,
    sample_interval,
    step_interval,
)
from qtherm.errors import ConfigError, PreconditionError
from qtherm.models import JcmParams, build_jcm, thermal_state
from qtherm.qcore import DensityMatrix, StateVector, shannon_entropy

DECAY = JcmParams(omega_a=2 * math.pi, omega_b=2 * math.pi, gamma=0.05, n_max=12, rwa=False)
DECAY_RWA = JcmParams(omega_a=2 * math.pi, omega_b=2 * math.pi, gamma=0.05, n_max=12, rwa=True)


def fock(n, dim):
    v = np.zeros(dim, dtype=complex)
    v[n] = 1.0
    return StateVector(v)


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
        out = step_interval(rho_a, rho_b, sys, 17.3)
        np.testing.assert_allclose(out.state_a.mat, rho_a.mat, atol=1e-12)
        np.testing.assert_allclose(out.reservoir_populations, np.diag(rho_b.mat).real, atol=1e-12)
        assert abs(out.h_ab_expect) < 1e-12

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
        dm = step_interval(psi_a.projector(), rho_b, sys, t)
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
        dev = np.abs(np.diag(acc - dm.state_a.mat)).max()
        assert dev < 5.0 / math.sqrt(n)

    def test_non_diagonal_reservoir_rejected(self):
        sys = build_jcm(DECAY)
        coherent = DensityMatrix(np.array([[0.5, 0.4], [0.4, 0.5]], dtype=complex))
        with pytest.raises(PreconditionError):
            step_interval(fock(1, sys.dim_a).projector(), coherent, sys, 1.0)

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

    @pytest.mark.parametrize("times", [[0.0, 6.0, 2.0, 4.0], [0.0, 2.0, math.nan, 6.0]])
    def test_unsorted_or_non_finite_grid_rejected(self, times):
        # a decreasing grid would report stale <H_A> at the out-of-order
        # times, and a NaN would silently cut the series short
        with pytest.raises(ConfigError):
            ProcessConfig(lam=0.01, beta=1.0, horizon=10.0, initial_state_a=fock(1, 3),
                          checkpoint_times=np.array(times))

    @pytest.mark.parametrize("field,value", [("beta", -1.0), ("beta", [1.0, math.nan]),
                                             ("n_checkpoints", -3)])
    def test_bad_beta_or_checkpoint_count_rejected(self, field, value):
        kwargs = {"lam": 0.01, "horizon": 10.0, "beta": 1.0, field: value}
        with pytest.raises(ConfigError):
            ProcessConfig(initial_state_a=fock(1, 3), **kwargs)

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

    def test_beta_schedule_list(self):
        sys = build_jcm(DECAY)
        cfg = ProcessConfig(lam=0.02, beta=[1.0, 2.0], horizon=300.0, seed=5,
                            initial_state_a=fock(1, sys.dim_a), n_checkpoints=2)
        rec = run_process(cfg, sys)
        betas = [l.beta for l in rec.ledgers]
        assert betas[0] == 1.0
        assert all(b == 2.0 for b in betas[1:])


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
        # oracle: dense Simpson average of the exact step over exp(lam) times
        rho_b = thermal_state(sys.h_b, 0.9)
        ts = np.linspace(0.0, 50.0 / lam, 40001)
        h = ts[1] - ts[0]
        wgt = np.ones(len(ts))
        wgt[1:-1:2], wgt[2:-1:2] = 4.0, 2.0
        wgt *= h / 3.0
        acc = np.zeros_like(got)
        for t, wg in zip(ts, wgt):
            out = step_interval(DensityMatrix(rho_a), rho_b, sys, float(t))
            acc += wg * lam * math.exp(-lam * t) * out.state_a.mat
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
