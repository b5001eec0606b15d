import math

import numpy as np
import pytest
from scipy.linalg import expm

from qtherm.analytic import mean_b2_poisson
from qtherm.engine import AveragedIntervalMap
from qtherm.errors import ConfigError, DegenerateSteadyStateError, PreconditionError
from qtherm.generators import (
    _LinearPropagator,
    assemble_joint_fast_generator,
    assemble_joint_weak_generator,
    assemble_reduced_generator,
    decompose,
    dissipator_apply,
    fast_interval_run,
    fast_map,
    fast_map_reduced,
    four_state_rate,
    lindblad_propagate,
    min_temp_predict,
    population_rates,
    simultaneous_excitation_mean,
    steady_state,
    weak_interval_run,
    weak_map,
)
from qtherm.models import JcmParams, JointSystem, build_jcm, destroy, thermal_state
from qtherm.qcore import Operator, marginal, populations, superoperator, trace_distance

RESONANT = JcmParams(omega_a=2 * math.pi, omega_b=2 * math.pi, gamma=0.05, n_max=8, rwa=False)
RESONANT_RWA = JcmParams(omega_a=2 * math.pi, omega_b=2 * math.pi, gamma=0.05, n_max=8, rwa=True)


def random_system(rng, da, db, gamma=0.2):
    def herm(d):
        m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        return (m + m.conj().T) / 2

    return JointSystem(
        dim_a=da, dim_b=db,
        h_a=Operator(herm(da), hermitian=True),
        h_b=Operator(herm(db), hermitian=True),
        h_ab=Operator(herm(da * db), hermitian=True),
        gamma=gamma,
    )


def random_density(rng, d):
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    r = m @ m.conj().T
    return r / np.trace(r).real


def thermal_pops(sys, beta):
    v = sys.basis_b.eigenvectors
    return np.clip(np.diag(v.conj().T @ thermal_state(sys.h_b, beta).mat @ v).real, 0, None)


class TestDecompose:
    def test_sectors_reconstruct_coupling(self):
        rng = np.random.default_rng(3)
        sys = random_system(rng, 3, 2)
        spec = decompose(sys, lam=0.4)
        np.testing.assert_allclose(sum(spec.v_ops), sys.h_ab.mat, atol=1e-10)

    def test_sector_adjoint_symmetry(self):
        rng = np.random.default_rng(4)
        sys = random_system(rng, 3, 3)
        spec = decompose(sys, lam=0.4)
        by_freq = dict(zip(np.round(spec.frequencies, 9), spec.v_ops))
        for w, v in zip(spec.frequencies, spec.v_ops):
            np.testing.assert_allclose(by_freq[np.round(-w, 9)], v.conj().T, atol=1e-12)

    def test_coefficient_symmetries(self):
        rng = np.random.default_rng(5)
        spec = decompose(random_system(rng, 3, 2), lam=0.7)
        np.testing.assert_allclose(spec.s_coef, spec.s_coef.T.conj(), atol=1e-14)
        np.testing.assert_allclose(spec.a_coef, spec.a_coef.T.conj(), atol=1e-14)
        np.testing.assert_allclose(spec.d_coef, spec.d_coef.T.conj(), atol=1e-14)
        # s is positive semidefinite, so the averaged dissipator is of GKSL form
        assert np.linalg.eigvalsh(spec.s_coef).min() >= -1e-14 * np.abs(spec.s_coef).max()

    def test_rwa_single_sector_pair(self):
        p = JcmParams(omega_a=2 * math.pi, omega_b=2 * math.pi + 0.5, gamma=0.05,
                      n_max=5, rwa=True)
        sys = build_jcm(p)
        spec = decompose(sys, lam=0.01)
        assert spec.n_sectors == 2
        np.testing.assert_allclose(sorted(spec.frequencies), [-0.5, 0.5], atol=1e-9)
        # V at +Delta_c is the de-excite-cavity / excite-qubit product
        a_a = destroy(sys.dim_a)
        a_b = np.array([[0, 1], [0, 0]], dtype=complex)
        v_plus = spec.v_ops[int(np.argmax(spec.frequencies))]
        np.testing.assert_allclose(v_plus, np.kron(a_a, a_b.conj().T), atol=1e-12)

    def test_full_coupling_resonance_sectors(self):
        sys = build_jcm(RESONANT)
        spec = decompose(sys, lam=0.01)
        np.testing.assert_allclose(sorted(spec.frequencies),
                                   [-4 * math.pi, 0.0, 4 * math.pi], atol=1e-8)

    def test_zero_coupling_empty(self):
        sys = build_jcm(JcmParams(gamma=0.0, n_max=2))
        nul = JointSystem(dim_a=sys.dim_a, dim_b=sys.dim_b, h_a=sys.h_a, h_b=sys.h_b,
                          h_ab=Operator(np.zeros((sys.dim, sys.dim))), gamma=0.0)
        spec = decompose(nul, lam=0.1)
        assert spec.n_sectors == 0
        # an empty spec still yields a well-defined (vanishing) map
        rho0 = np.kron(np.diag([1.0, 0, 0]).astype(complex),
                       thermal_state(sys.h_b, 1.0).mat)
        assert np.abs(weak_map(spec, rho0)).max() == 0.0


class TestWeakMap:
    def brute_force_average(self, sys, rho0, lam, gamma):
        """Poisson average of exact interaction-frame evolution, dense Simpson."""
        h0 = sys.uncoupled_h
        h = h0 + gamma * sys.h_ab.mat
        e, v = np.linalg.eigh(h)
        e0, v0 = np.linalg.eigh(h0)
        ts = np.linspace(0.0, 45.0 / lam, 36001)
        step = ts[1] - ts[0]
        wgt = np.ones(len(ts))
        wgt[1:-1:2], wgt[2:-1:2] = 4.0, 2.0
        wgt *= step / 3.0
        phases = np.exp(-1j * np.outer(ts, e))
        phases0 = np.exp(1j * np.outer(ts, e0))
        acc = np.zeros_like(rho0)
        for i in range(len(ts)):
            ut = (v * phases[i]) @ v.conj().T
            u0t = (v0 * phases0[i]) @ v0.conj().T
            th = u0t @ ut @ rho0 @ ut.conj().T @ u0t.conj().T
            acc += wgt[i] * lam * math.exp(-lam * ts[i]) * th
        return acc

    def test_matches_brute_force_orders(self):
        rng = np.random.default_rng(7)
        base = random_system(rng, 3, 2, gamma=1.0)
        lam = 0.7
        rho_a = random_density(rng, 3)
        rho_b = thermal_state(base.h_b, 1.3).mat
        rho0 = np.kron(rho_a, rho_b)
        g1, g2 = 2e-3, 1e-3
        x1 = self.brute_force_average(base, rho0, lam, g1) - rho0
        x2 = self.brute_force_average(base, rho0, lam, g2) - rho0
        first = (4 * x2 - x1) / g1          # first-order superoperator applied to rho0
        second = 2 * (x1 - 2 * x2) / g1 ** 2
        spec = decompose(base, lam=lam)
        ht = spec.h_tilde()
        first_formula = -1j * (ht @ rho0 - rho0 @ ht)
        second_formula = dissipator_apply(spec, rho0)
        assert np.abs(first - first_formula).max() < 3e-2 * np.abs(first_formula).max()
        assert np.abs(second - second_formula).max() < 3e-2 * np.abs(second_formula).max()

    def test_gamma_squared_scaling(self):
        rng = np.random.default_rng(8)
        sysa = random_system(rng, 3, 2, gamma=0.1)
        sysb = JointSystem(dim_a=3, dim_b=2, h_a=sysa.h_a, h_b=sysa.h_b,
                           h_ab=sysa.h_ab, gamma=0.2)
        rho0 = np.kron(random_density(rng, 3), thermal_state(sysa.h_b, 1.0).mat)
        d_a = dissipator_apply(decompose(sysa, 0.5), rho0) * sysa.gamma ** 2
        d_b = dissipator_apply(decompose(sysb, 0.5), rho0) * sysb.gamma ** 2
        np.testing.assert_allclose(d_b, 4.0 * d_a, atol=1e-13)

    def test_trace_free_and_hermiticity(self):
        rng = np.random.default_rng(9)
        sys = random_system(rng, 3, 2)
        spec = decompose(sys, lam=0.3)
        rho0 = np.kron(random_density(rng, 3), thermal_state(sys.h_b, 0.8).mat)
        inc = weak_map(spec, rho0)
        assert abs(np.trace(inc)) < 1e-10
        np.testing.assert_allclose(rho0 + inc, (rho0 + inc).conj().T, atol=1e-10)

    def test_product_precondition(self):
        rng = np.random.default_rng(10)
        sys = random_system(rng, 2, 2)
        spec = decompose(sys, lam=0.3)
        with pytest.raises(PreconditionError):
            weak_map(spec, random_density(rng, 4))

    def test_jcm_rate_matches_first_order_formula(self):
        # implied absorption rate of the reduced generator equals the
        # closed-form first-order rate, including the detuning denominator
        for dc in (0.0, 0.5):
            p = JcmParams(omega_a=2 * math.pi, omega_b=2 * math.pi + dc,
                          gamma=0.05, n_max=6, rwa=True)
            sys = build_jcm(p)
            lam = 0.02
            spec = decompose(sys, lam=lam)
            beta = 1.0
            gen = assemble_reduced_generator(spec, beta)
            sigma = thermal_pops(sys, beta)
            n_op = np.diag(np.arange(sys.dim_a)).astype(complex)
            rho = np.zeros((sys.dim_a, sys.dim_a), complex)
            rho[1, 1] = 1.0  # one photon
            drho = (gen @ rho.reshape(-1)).reshape(sys.dim_a, sys.dim_a)
            got = -float(np.trace(n_op @ drho).real)  # atomic absorption rate
            want = 2 * lam * p.gamma ** 2 / (lam ** 2 + dc ** 2) * (
                sigma[0] * 1 - sigma[1] * 2)
            assert abs(got - want) < 1e-12


class TestReducedGenerator:
    def test_detailed_balance_rwa(self):
        sys = build_jcm(RESONANT_RWA)
        beta = 1.0
        for lam in (0.01, 0.3):
            gen = assemble_reduced_generator(decompose(sys, lam), beta)
            rates = population_rates(gen, sys.dim_a)
            e = sys.basis_a.eigenvalues
            for n in range(sys.dim_a - 1):
                lhs = math.exp(-beta * e[n]) * rates[n + 1, n]
                rhs = math.exp(-beta * e[n + 1]) * rates[n, n + 1]
                assert abs(lhs - rhs) <= 1e-8 * max(abs(lhs), abs(rhs), 1e-30)

    def test_detailed_balance_full_coupling_small_lam(self):
        sys = build_jcm(RESONANT)
        beta = 1.0
        gen = assemble_reduced_generator(decompose(sys, 1e-6), beta)
        rates = population_rates(gen, sys.dim_a)
        e = sys.basis_a.eigenvalues
        for n in range(sys.dim_a - 1):
            lhs = math.exp(-beta * e[n]) * rates[n + 1, n]
            rhs = math.exp(-beta * e[n + 1]) * rates[n, n + 1]
            assert abs(lhs - rhs) <= 1e-8 * max(abs(lhs), abs(rhs))

    def test_steady_state_gibbs_rwa(self):
        sys = build_jcm(RESONANT_RWA)
        beta = 1.0
        gen = assemble_reduced_generator(decompose(sys, 0.01), beta)
        res = steady_state(gen, sys.h_a)
        gibbs = thermal_state(sys.h_a, beta)
        assert trace_distance(res.rho_ss, gibbs) < 1e-6
        assert res.residual < 1e-9

    def test_steady_state_vs_long_time_integration(self):
        sys = build_jcm(RESONANT_RWA)
        beta, lam = 1.0, 0.01
        spec = decompose(sys, lam)
        gen = assemble_reduced_generator(spec, beta)
        res = steady_state(gen, sys.h_a)
        rho0 = np.zeros((sys.dim_a, sys.dim_a), complex)
        rho0[1, 1] = 1.0
        # long-time integration oracle
        t_end = 40.0 / (2 * sys.gamma ** 2 / lam)
        series = lindblad_propagate(spec, rho0, thermal_state(sys.h_b, beta),
                                    np.array([0.0, t_end]), "continuous")
        assert trace_distance(series[-1], res.rho_ss.mat) < 1e-6

    def test_elevated_temperature_full_coupling(self):
        sys = build_jcm(JcmParams(omega_a=2 * math.pi, omega_b=2 * math.pi,
                                  gamma=0.05, n_max=6, rwa=False))
        beta = 1.0
        gen = assemble_reduced_generator(decompose(sys, 1.0), beta)
        res = steady_state(gen, sys.h_a)
        assert res.p1 / res.p0 > math.exp(-beta * 2 * math.pi)


class TestLindbladPropagate:
    def test_zero_coupling_constant_populations(self):
        sys = build_jcm(JcmParams(gamma=0.0, n_max=4, rwa=True))
        nul = JointSystem(dim_a=sys.dim_a, dim_b=sys.dim_b, h_a=sys.h_a, h_b=sys.h_b,
                          h_ab=sys.h_ab, gamma=0.0)
        spec = decompose(nul, lam=0.05)
        rho0 = np.diag([0.2, 0.8, 0, 0, 0]).astype(complex)
        out = lindblad_propagate(spec, rho0, thermal_state(sys.h_b, 1.0),
                                 np.linspace(0, 50, 6), "continuous")
        for r in out:
            np.testing.assert_allclose(np.diag(r).real, [0.2, 0.8, 0, 0, 0], atol=1e-9)

    def test_trace_preserved(self):
        sys = build_jcm(RESONANT)
        spec = decompose(sys, 0.01)
        rho0 = np.zeros((sys.dim_a, sys.dim_a), complex)
        rho0[1, 1] = 1.0
        out = lindblad_propagate(spec, rho0, thermal_state(sys.h_b, 1.0),
                                 np.linspace(0, 400, 5), "continuous")
        for r in out:
            assert abs(np.trace(r).real - 1.0) < 1e-9

    def test_interval_protocol_free_limit_is_lab_frame(self):
        # gamma = 0 must reduce to free evolution, coherence phases included
        sys = build_jcm(JcmParams(gamma=0.0, n_max=3, rwa=True))
        nul = JointSystem(dim_a=sys.dim_a, dim_b=sys.dim_b, h_a=sys.h_a, h_b=sys.h_b,
                          h_ab=sys.h_ab, gamma=0.0)
        spec = decompose(nul, lam=0.05)
        psi = np.zeros(sys.dim_a, complex)
        psi[0] = psi[1] = 1 / math.sqrt(2)
        rho0 = np.outer(psi, psi.conj())
        grid = np.array([0.0, 3.7, 11.0])
        out = lindblad_propagate(spec, rho0, thermal_state(sys.h_b, 1.0), grid,
                                 "interval", seed=2)
        e_a = np.diag(sys.h_a.mat).real
        for t, got in zip(grid, out):
            ph = np.exp(-1j * e_a * t)
            want = (ph[:, None] * rho0 * ph.conj()[None, :])
            np.testing.assert_allclose(got, want, atol=1e-10)

    def test_interval_protocol_returns_near_positivity_floor(self):
        # the averaged generators are GKSL with a positive coefficient matrix,
        # so they lose positivity only by rounding; adding cavity damping at a
        # negative rate -eps gives a generator that is not CP: from |1> it drains
        # the empty ground level, so the joint state's lowest eigenvalue after
        # tau is about -eps tau in exact arithmetic.  The run must return with
        # that value between the joint floor -1e-5 and -1e-6, matching a
        # 30-digit reference, and the checkpoint marginals (entropy floor -1e-4)
        # must not stop it.
        import mpmath

        sys = build_jcm(JcmParams(omega_a=2 * math.pi, omega_b=2 * math.pi,
                                  gamma=0.1, n_max=1, rwa=False))
        spec = decompose(sys, 0.5)
        eps, tau = 3e-6, 1.0
        a = np.kron(destroy(sys.dim_a), np.eye(sys.dim_b))
        ada = a.conj().T @ a

        def anti_damping(rho):
            return -eps * (a @ rho @ a.conj().T - 0.5 * (ada @ rho + rho @ ada))

        gen = assemble_joint_weak_generator(spec) + superoperator(anti_damping, sys.dim)
        rho0 = np.zeros((sys.dim_a, sys.dim_a), complex)
        rho0[1, 1] = 1.0
        rho_b = thermal_state(sys.h_b, 1.0)
        run = weak_interval_run(spec, rho_b, rho0, horizon=tau, intervals=np.array([tau]),
                                checkpoint_times=np.linspace(0.0, tau, 5), generator=gen)
        assert len(run.ledgers) == 1 and len(run.checkpoint_times) == 5
        assert -1e-5 < run.min_eig < -1e-6

        d = sys.dim
        with mpmath.workdps(30):
            vec = mpmath.expm(mpmath.matrix(gen.tolist()) * tau) \
                * mpmath.matrix(np.kron(rho0, rho_b.mat).reshape(-1).tolist())
            joint = mpmath.matrix(d, d)
            for i in range(d):
                for j in range(d):
                    joint[i, j] = (vec[i * d + j] + mpmath.conj(vec[j * d + i])) / 2
            want = float(min(mpmath.eigh(joint, eigvals_only=True)))
        assert -1e-5 < want < -1e-6
        assert abs(run.min_eig - want) < 1e-12

    def test_interval_protocol_rejects_infinite_horizon(self):
        sys = build_jcm(JcmParams(n_max=2))
        rho_b, rho_a = thermal_state(sys.h_b, 1.0), thermal_state(sys.h_a, 1.0)
        with pytest.raises(ConfigError):
            weak_interval_run(decompose(sys, 0.2), rho_b, rho_a, horizon=math.inf,
                              intervals=np.array([1.0]))

    @pytest.mark.parametrize("times", [[0.0, 6.0, 2.0, 4.0], [0.0, 2.0, math.nan, 6.0]])
    def test_interval_protocol_rejects_bad_grid(self, times):
        # the walk assigns checkpoints in grid order: a decreasing grid would get
        # stale states, and a NaN would silently cut the series short
        sys = build_jcm(JcmParams(n_max=2))
        rho_b, rho_a = thermal_state(sys.h_b, 1.0), thermal_state(sys.h_a, 1.0)
        with pytest.raises(ConfigError):
            weak_interval_run(decompose(sys, 0.2), rho_b, rho_a, horizon=8.0,
                              checkpoint_times=np.array(times))

    @pytest.mark.parametrize("lam,horizon", [(0.2, math.inf), (math.nan, 10.0)])
    def test_fast_protocol_rejects_non_finite(self, lam, horizon):
        sys = build_jcm(JcmParams(n_max=2))
        rho_b, rho_a = thermal_state(sys.h_b, 1.0), thermal_state(sys.h_a, 1.0)
        with pytest.raises(ConfigError):
            fast_interval_run(sys, lam, rho_b, rho_a, horizon=horizon, intervals=np.array([1.0]))

    def test_interval_protocol_runs_at_small_lam(self):
        sys = build_jcm(JcmParams(omega_a=2 * math.pi, omega_b=2 * math.pi,
                                  gamma=0.05, n_max=8, rwa=False))
        lam = 1e-4
        spec = decompose(sys, lam)
        rho0 = np.zeros((sys.dim_a, sys.dim_a), complex)
        rho0[1, 1] = 1.0
        run = weak_interval_run(spec, thermal_state(sys.h_b, 1.0), rho0,
                                horizon=40 / lam, seed=3)
        assert len(run.ledgers) > 5
        assert run.min_eig > -1e-5
        gibbs = thermal_state(sys.h_a, 1.0).mat
        e_gibbs = np.trace(sys.h_a.mat @ gibbs).real
        e0 = np.trace(sys.h_a.mat @ rho0).real
        # fast initial loss: the long interval saturates the one-qubit
        # reservoir, dumping about one quantum, with no Rabi structure
        e_first = np.trace(sys.h_a.mat @ run.rho_a_snapshots[1]).real
        assert e_first < e0 - 0.4 * (e0 - e_gibbs)
        # and repeated replacement completes the decay to the steady state
        e_last = np.trace(sys.h_a.mat @ run.rho_a_snapshots[-1]).real
        assert abs(e_last - e_gibbs) < 0.02 * (e0 - e_gibbs)


class TestLinearPropagator:
    def test_defective_generator_falls_back_to_dense_expm(self):
        # a Jordan block has no eigenbasis: cond(vr) ~ 1e291 sends block {0, 1},
        # and only it, to expm; indices 2 and 3 are 1x1 blocks of their own
        g = np.zeros((4, 4))
        g[0, 1] = 1.0
        prop = _LinearPropagator(g, ())
        assert [b.tolist() for b in prop.blocks] == [[0, 1], [2], [3]]
        assert [idx.tolist() for idx, _ in prop.expm_blocks] == [[0, 1]]
        theta = np.array([[0.6, 0.2 - 0.1j], [0.2 + 0.1j, 0.4]])
        t = 0.7
        # g is nilpotent, so exp(t g) = 1 + t g exactly
        want = ((np.eye(4) + t * g) @ theta.reshape(-1)).reshape(2, 2)
        np.testing.assert_allclose(prop.apply(theta, t), 0.5 * (want + want.conj().T),
                                   atol=1e-15)

    @pytest.mark.parametrize("rwa", [False, True], ids=["full", "rwa"])
    @pytest.mark.parametrize("kind", ["weak", "fast"])
    def test_blockwise_apply_matches_dense_expm(self, kind, rwa):
        sys = build_jcm(JcmParams(omega_a=2 * math.pi, omega_b=2 * math.pi + 0.3,
                                  gamma=0.1, n_max=3, rwa=rwa))
        lam = 0.2 if kind == "weak" else 5.0
        gen = (assemble_joint_weak_generator(decompose(sys, lam)) if kind == "weak"
               else assemble_joint_fast_generator(sys, lam))
        prop = _LinearPropagator(gen, ())
        # the blocks partition the indices and G couples no two of them
        idx = np.concatenate(prop.blocks)
        np.testing.assert_array_equal(np.sort(idx), np.arange(gen.shape[0]))
        label = np.empty(gen.shape[0], dtype=int)
        for k, b in enumerate(prop.blocks):
            label[b] = k
        rows, cols = np.nonzero(gen)
        assert (label[rows] == label[cols]).all()
        assert len(prop.blocks) > 1 and not prop.expm_blocks
        rho = random_density(np.random.default_rng(7), sys.dim)
        for t in (0.1 / lam, 1.0 / lam, 10.0 / lam):
            want = (expm(t * gen) @ rho.reshape(-1)).reshape(sys.dim, sys.dim)
            np.testing.assert_allclose(prop.apply(rho, t), want,
                                       atol=1e-12 * np.abs(want).max())

    @pytest.mark.parametrize("rwa,n_blocks,largest", [(False, 4, 225), (True, 256, 4)],
                             ids=["full", "rwa"])
    def test_weak_run_reports_blocks(self, rwa, n_blocks, largest):
        # n_max 14 (the CLI default): full coupling splits by ket/bra parity,
        # the rotating-wave coupling by excitation number
        sys = build_jcm(JcmParams(n_max=14, rwa=rwa))
        rho_b = thermal_state(sys.h_b, 1.0)
        run = weak_interval_run(decompose(sys, 0.1), rho_b, thermal_state(sys.h_a, 1.0),
                                horizon=1.0, intervals=np.array([1.0]),
                                checkpoint_times=np.array([0.0, 1.0]))
        assert (run.meta["propagator_blocks"], run.meta["largest_block"]) == (n_blocks, largest)


class TestFastMap:
    def test_trace_free(self):
        rng = np.random.default_rng(12)
        sys = random_system(rng, 3, 2, gamma=0.01)
        rho0 = np.kron(random_density(rng, 3), thermal_state(sys.h_b, 1.0).mat)
        inc = fast_map(sys, rho0, lam=5.0)
        assert abs(np.trace(inc)) < 1e-12

    def test_warns_when_not_fast(self):
        rng = np.random.default_rng(13)
        sys = random_system(rng, 2, 2, gamma=0.5)
        rho0 = np.kron(random_density(rng, 2), thermal_state(sys.h_b, 1.0).mat)
        with pytest.warns(UserWarning):
            fast_map(sys, rho0, lam=1.0)

    @pytest.mark.parametrize("lam", [math.nan, math.inf, 0.0, -1.0])
    def test_rejects_bad_rate(self, lam):
        rng = np.random.default_rng(13)
        sys = random_system(rng, 2, 2, gamma=0.01)
        rho0 = np.kron(random_density(rng, 2), thermal_state(sys.h_b, 1.0).mat)
        with pytest.raises(ConfigError):
            fast_map(sys, rho0, lam)

    def test_against_brute_force_average(self):
        rng = np.random.default_rng(14)
        sys = random_system(rng, 3, 2, gamma=1.0)
        lam = 60.0
        rho_a = random_density(rng, 3)
        rho_b = thermal_state(sys.h_b, 0.7).mat
        rho0 = np.kron(rho_a, rho_b)
        g = 1e-3
        sys_g = JointSystem(dim_a=3, dim_b=2, h_a=sys.h_a, h_b=sys.h_b,
                            h_ab=sys.h_ab, gamma=g)
        brute = TestWeakMap().brute_force_average(sys, rho0, lam, g) - rho0
        inc = fast_map(sys_g, rho0, lam)
        # leading deficit is the third time-derivative over lam^3
        h0, hab = sys.uncoupled_h, sys.h_ab.mat
        ad2 = h0 @ (h0 @ hab - hab @ h0) - (h0 @ hab - hab @ h0) @ h0
        comm3 = ad2 @ rho0 - rho0 @ ad2
        bound = 1.5 * g * np.abs(comm3).max() / lam ** 3 + 1e-9
        assert np.abs(brute - inc).max() < bound

    def test_jcm_rate_and_detuning_independence(self):
        sigma = np.array([0.9, 0.1])  # held fixed across detunings
        rates = []
        for dc in (0.0, 0.5):
            p = JcmParams(omega_a=2 * math.pi, omega_b=2 * math.pi + dc,
                          gamma=0.05, n_max=6, rwa=True)
            sys = build_jcm(p)
            lam = 100 * p.gamma
            rho_a = np.zeros((sys.dim_a, sys.dim_a), complex)
            rho_a[2, 2] = 1.0
            drho = fast_map_reduced(sys, rho_a, sigma, lam)
            n_op = np.diag(np.arange(sys.dim_a)).astype(complex)
            rate = -float(np.trace(n_op @ drho).real)
            want = 2 * p.gamma ** 2 / lam * (sigma[0] * 2 - sigma[1] * 3)
            assert abs(rate - want) < 1e-12
            rates.append(rate)
        assert abs(rates[0] - rates[1]) < 1e-10

    def test_first_order_agreement_with_exact_average(self):
        p = JcmParams(omega_a=2 * math.pi, omega_b=2 * math.pi, gamma=0.05,
                      n_max=6, rwa=True)
        lam = 100 * p.gamma
        sys = build_jcm(p)
        beta = 1.0
        sigma = thermal_pops(sys, beta)
        # compose exchange probabilities with the measurement rate
        p_n = np.zeros(sys.dim_a)
        p_n[2] = 1.0
        composed = lam * sum(
            p_n[n] * (sigma[0] * (mean_b2_poisson(n, lam, p) if n >= 1 else 0.0)
                      - sigma[1] * mean_b2_poisson(n + 1, lam, p))
            for n in range(sys.dim_a - 1))
        rho_a = np.diag(p_n).astype(complex)
        drho = fast_map_reduced(sys, rho_a, sigma, lam)
        n_op = np.diag(np.arange(sys.dim_a)).astype(complex)
        rate = -float(np.trace(n_op @ drho).real)
        assert abs(rate - composed) / abs(composed) < 0.01


class TestSuperoperatorsMatchMaps:
    """Every superoperator and reduced form is derived from one map; tie each back to it."""

    @staticmethod
    def exchange_system(rng, da, db, gamma=0.2):
        # the coupling only moves B between energy levels (no B-diagonal blocks), so
        # the first-order terms of both maps trace out of B on a thermal reservoir
        sys = random_system(rng, da, db, gamma)
        h_b = np.diag(np.sort(rng.normal(size=db))).astype(complex)
        h_ab = sys.h_ab.mat.reshape(da, db, da, db).copy()
        for b in range(db):
            h_ab[:, b, :, b] = 0.0
        return JointSystem(dim_a=da, dim_b=db, h_a=sys.h_a,
                           h_b=Operator(h_b, hermitian=True),
                           h_ab=Operator(h_ab.reshape(da * db, da * db), hermitian=True),
                           gamma=gamma)

    @pytest.fixture(params=[(3, 2, 21), (4, 3, 22)], ids=["3x2", "4x3"])
    def case(self, request):
        da, db, seed = request.param
        rng = np.random.default_rng(seed)
        sys = self.exchange_system(rng, da, db)
        rho_a = random_density(rng, da)
        rho_b = thermal_state(sys.h_b, 0.8).mat
        return sys, rho_a, rho_b, np.kron(rho_a, rho_b)

    @staticmethod
    def apply(gen, rho):
        d = rho.shape[0]
        return (gen @ rho.reshape(-1)).reshape(d, d)

    def test_joint_weak_generator(self, case):
        sys, _, _, rho = case
        spec = decompose(sys, 0.4)
        np.testing.assert_allclose(self.apply(assemble_joint_weak_generator(spec), rho),
                                   0.4 * weak_map(spec, rho), atol=1e-13)

    def test_joint_fast_generator(self, case):
        sys, _, _, rho = case
        np.testing.assert_allclose(self.apply(assemble_joint_fast_generator(sys, 3.0), rho),
                                   3.0 * fast_map(sys, rho, 3.0), atol=1e-13)

    def test_reduced_generator(self, case):
        sys, rho_a, _, rho = case
        lam = 0.4
        spec = decompose(sys, lam)
        va = sys.basis_a.eigenvectors
        got = va @ self.apply(assemble_reduced_generator(spec, 0.8), va.conj().T @ rho_a @ va) \
            @ va.conj().T
        h_a = sys.h_a.mat
        dims = (sys.dim_a, sys.dim_b)
        want = -1j * (h_a @ rho_a - rho_a @ h_a) + lam * marginal(weak_map(spec, rho), dims, "A")
        np.testing.assert_allclose(got, want, atol=1e-13)

    def test_fast_map_reduced(self, case):
        sys, rho_a, rho_b, rho = case
        lam = 3.0
        pops = populations(rho_b, sys.basis_b.eigenvectors)
        want = lam * marginal(fast_map(sys, rho, lam), (sys.dim_a, sys.dim_b), "A")
        np.testing.assert_allclose(fast_map_reduced(sys, rho_a, pops, lam), want, atol=1e-15)


class TestSteadyStateSolver:
    def test_zero_generator_degenerate(self):
        with pytest.raises(DegenerateSteadyStateError):
            steady_state(np.zeros((9, 9)))

    def test_classical_two_level_rates(self):
        # generator with known stationary distribution p1/p0 = 1/3
        up, down = 1.0, 3.0
        gen = np.zeros((4, 4))
        gen[0, 0], gen[0, 3] = -up, down
        gen[3, 3], gen[3, 0] = -down, up
        gen[1, 1] = gen[2, 2] = -1.0  # coherence decay keeps the null space simple
        res = steady_state(gen, np.diag([0.0, 1.0]))
        assert abs(res.p1 / res.p0 - up / down) < 1e-12
        assert abs(res.beta_eff - math.log(3.0)) < 1e-12


class TestMinimumTemperature:
    def test_reference_values(self):
        assert abs(min_temp_predict(2 * math.pi, 2 * math.pi) - 0.2) < 1e-14
        # lam = 2 omega makes the ratio exactly 1/2
        assert abs(min_temp_predict(4 * math.pi, 2 * math.pi) - 0.5) < 1e-14

    def test_low_rate_limit_reaches_zero(self):
        assert min_temp_predict(1e-8, 2 * math.pi) < 1e-16

    def test_is_cold_limit_of_four_state_ratio(self):
        for u in (0.05, 0.1, 0.5):
            lam = u * 4 * math.pi
            _, ratio = four_state_rate(lam, 2 * math.pi, 0.05, 0.0, 1.0, 0.9, 0.1)
            assert abs(ratio - min_temp_predict(lam, 2 * math.pi)) < 1e-12

    def test_symmetric_atom_infinite_temperature(self):
        _, ratio = four_state_rate(1.0, 2 * math.pi, 0.05, 0.5, 0.5, 0.7, 0.3)
        assert abs(ratio - 1.0) < 1e-14

    def test_four_state_matches_two_level_generator(self):
        # cavity truncated to two levels: the four lowest joint states exactly
        omega = 2 * math.pi
        beta = 4.0
        sigma = math.exp(-beta * omega)
        sigma_g = 1.0 / (1.0 + sigma)
        sigma_e = 1.0 - sigma_g
        for u in (0.1, 0.5):
            lam = u * 2 * omega
            p = JcmParams(omega_a=omega, omega_b=omega, gamma=0.05, n_max=1, rwa=False)
            sys = build_jcm(p)
            gen = assemble_reduced_generator(decompose(sys, lam), beta)
            res = steady_state(gen, sys.h_a)
            _, want = four_state_rate(lam, omega, p.gamma, sigma_e, sigma_g, res.p0, res.p1)
            assert abs(res.p1 / res.p0 - want) / want < 0.02

    def test_steady_rate_balance(self):
        lam, omega = 1.0, 2 * math.pi
        _, ratio = four_state_rate(lam, omega, 0.05, 0.2, 0.8, 1.0, 1.0)
        dha, _ = four_state_rate(lam, omega, 0.05, 0.2, 0.8, 1.0, ratio)
        assert abs(dha) < 1e-14

    def test_simultaneous_excitation_sign(self):
        val = simultaneous_excitation_mean(1.0, 2 * math.pi, 0.05, 0.0, 1.0, 0.0)
        assert val > 0.0
