import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from qtherm.analytic import mean_b2_poisson
from qtherm.engine import jump_averaged_generator
from qtherm.errors import (ConfigError, DegenerateSteadyStateError, DimensionError, NumericError,
                           PreconditionError, SizeLimitError)
from qtherm.generators import (
    AveragedIntervalMap,
    _LinearPropagator,
    _dissipator_parts,
    _fast_parts,
    _weak_parts,
    assemble_joint_fast_generator,
    assemble_joint_weak_generator,
    assemble_reduced_generator,
    decompose,
    fast_interval_run,
    fast_map,
    fast_map_reduced,
    four_state_rate,
    lindblad_propagate,
    min_temp_predict,
    simultaneous_excitation_mean,
    steady_state,
    weak_interval_run,
    weak_map,
)
from qtherm.models import (JcmParams, JointSystem, build_jcm, destroy, thermal_populations,
                           thermal_state)
from qtherm.qcore import (COND_MAX, Operator, _hermitian_rows, from_real, gksl, gksl_matrix,
                          hermitian_part, marginal, populations, propagate_grid, to_real,
                          trace_distance, von_neumann_entropy)
from qtherm.thermo import s_tot

RESONANT = JcmParams(omega_a=2 * math.pi, omega_b=2 * math.pi, gamma=0.05, n_max=8, rwa=False)
RESONANT_RWA = JcmParams(omega_a=2 * math.pi, omega_b=2 * math.pi, gamma=0.05, n_max=8, rwa=True)


def random_hermitian(rng, d):
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return Operator((m + m.conj().T) / 2, hermitian=True)


def random_system(rng, da, db, gamma=0.2):
    return JointSystem(
        dim_a=da, dim_b=db,
        h_a=random_hermitian(rng, da),
        h_b=random_hermitian(rng, db),
        h_ab=random_hermitian(rng, da * db),
        gamma=gamma,
    )


def chain_system(levels_a, levels_b, h_ab, gamma=0.2):
    """A system with diagonal H_A and H_B at the given levels and coupling ``h_ab``."""
    return JointSystem(
        dim_a=len(levels_a), dim_b=len(levels_b),
        h_a=Operator(np.diag(np.asarray(levels_a, dtype=complex)), hermitian=True),
        h_b=Operator(np.diag(np.asarray(levels_b, dtype=complex)), hermitian=True),
        h_ab=h_ab, gamma=gamma,
    )


def random_density(rng, d):
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    r = m @ m.conj().T
    return r / np.trace(r).real


def thermal_pops(sys, beta):
    return thermal_populations(sys.basis_b.eigenvalues, beta)


def one_interval_run(mode, sys, rho_a, beta=1.0):
    """One interval of length 1 of the weak (lam 0.2) or fast (lam 5) protocol from rho_a,
    with B's input thermal at beta 1 and its heat booked at ``beta``."""
    rho_b = thermal_state(sys.h_b, 1.0)
    opts = dict(horizon=1.0, intervals=np.array([1.0]), beta=beta)
    if mode == "weak":
        return weak_interval_run(decompose(sys, 0.2), rho_b, rho_a, **opts)
    return fast_interval_run(sys, 5.0, rho_b, rho_a, **opts)


def population_rates(gen, da):
    """Transition rates n -> m read off a vectorized generator's population block."""
    idx = np.arange(da) * (da + 1)
    return gen[np.ix_(idx, idx)].real


# a reservoir state with coherence in the energy basis of the qubit
COHERENT_B = np.array([[0.5, 0.5], [0.5, 0.5]])


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
        # s is positive semidefinite, so the averaged dissipator is of GKSL form
        assert np.linalg.eigvalsh(spec.s_coef).min() >= -1e-14 * np.abs(spec.s_coef).max()

    def test_rwa_single_sector_pair(self):
        p = JcmParams(omega_a=2 * math.pi, omega_b=2 * math.pi + 0.5, gamma=0.05,
                      n_max=5, rwa=True)
        sys = build_jcm(p)
        spec = decompose(sys, lam=0.01)
        assert len(spec.frequencies) == 2
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

    def test_near_degenerate_chain_keeps_every_element(self):
        # |omega| near 1 steps by 6e-10 < tol = 1e-9 * max|omega|, over a span of 3.6e-9
        hab = random_hermitian(np.random.default_rng(0), 6)
        sys = chain_system([0.0, 1.0, 1.0 + 6e-10], [0.0, 1.2e-9], hab)
        spec = decompose(sys, lam=0.5)
        assert list(spec.frequencies) == [-spec.frequencies[-1], 0.0, spec.frequencies[-1]]
        np.testing.assert_allclose(sum(spec.v_ops), hab.mat, rtol=0, atol=1e-14)

    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(gaps_a=st.lists(st.booleans(), min_size=1, max_size=3),
           gaps_b=st.lists(st.booleans(), min_size=1, max_size=2),
           coarse=st.lists(st.floats(0.2, 2.0), min_size=5, max_size=5),
           fine=st.lists(st.floats(0.1, 0.9), min_size=5, max_size=5),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_sectors_partition_coupling(self, gaps_a, gaps_b, coarse, fine, seed):
        # A's first gap is coarse; every other gap is coarse (True) or a chain step
        # of 0.1-0.9 tol, tol = 1e-9 * max|omega| = 1e-9 * (span of A + span of B)
        kinds = [True] + gaps_a + gaps_b
        tol = 1e-9 * sum(c for c, k in zip(coarse, kinds) if k)
        steps = [c if k else f * tol for c, f, k in zip(coarse, fine, kinds)]
        na = len(gaps_a) + 1
        levels_a = np.cumsum([0.0] + steps[:na])
        levels_b = np.cumsum([0.0] + steps[na:])
        d = len(levels_a) * len(levels_b)
        hab = random_hermitian(np.random.default_rng(seed), d)
        spec = decompose(chain_system(levels_a, levels_b, hab), lam=0.3)
        f, v = spec.frequencies, spec.v_ops
        assert np.abs(sum(v) - hab.mat).max() <= 1e-12 * np.abs(hab.mat).max()
        assert (np.diff(f) > 0).all() and np.array_equal(f, -f[::-1])
        for vw, vm in zip(v, v[::-1]):
            assert np.array_equal(vm, vw.conj().T)

    def test_zero_coupling_empty(self):
        sys = build_jcm(JcmParams(gamma=0.0, n_max=2))
        nul = JointSystem(dim_a=sys.dim_a, dim_b=sys.dim_b, h_a=sys.h_a, h_b=sys.h_b,
                          h_ab=Operator(np.zeros((sys.dim, sys.dim))), gamma=0.0)
        spec = decompose(nul, lam=0.1)
        assert len(spec.frequencies) == 0
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
        second_formula = gksl(_dissipator_parts(spec), rho0)
        assert np.abs(first - first_formula).max() < 3e-2 * np.abs(first_formula).max()
        assert np.abs(second - second_formula).max() < 3e-2 * np.abs(second_formula).max()

    def test_gamma_squared_scaling(self):
        rng = np.random.default_rng(8)
        sysa = random_system(rng, 3, 2, gamma=0.1)
        sysb = JointSystem(dim_a=3, dim_b=2, h_a=sysa.h_a, h_b=sysa.h_b,
                           h_ab=sysa.h_ab, gamma=0.2)
        rho0 = np.kron(random_density(rng, 3), thermal_state(sysa.h_b, 1.0).mat)
        d_a = gksl(_dissipator_parts(decompose(sysa, 0.5)), rho0) * sysa.gamma ** 2
        d_b = gksl(_dissipator_parts(decompose(sysb, 0.5)), rho0) * sysb.gamma ** 2
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
                                    np.array([0.0, t_end]))
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
                                 np.linspace(0, 50, 6))
        for r in out:
            np.testing.assert_allclose(np.diag(r).real, [0.2, 0.8, 0, 0, 0], atol=1e-9)

    def test_trace_preserved(self):
        sys = build_jcm(RESONANT)
        spec = decompose(sys, 0.01)
        rho0 = np.zeros((sys.dim_a, sys.dim_a), complex)
        rho0[1, 1] = 1.0
        out = lindblad_propagate(spec, rho0, thermal_state(sys.h_b, 1.0),
                                 np.linspace(0, 400, 5))
        for r in out:
            assert abs(np.trace(r).real - 1.0) < 1e-9

    def test_continuous_matches_tight_rk45(self):
        # exact grid propagation against an independent tight-tolerance integration,
        # on a non-uniform grid whose steps repeat (0.5 three times) or lie a
        # rounding apart (the linspace part's 0.3s)
        from scipy.integrate import solve_ivp

        sys = build_jcm(JcmParams(gamma=0.2, n_max=3, rwa=False))
        beta, lam = 0.7, 0.3
        spec = decompose(sys, lam)
        rho0 = random_density(np.random.default_rng(5), sys.dim_a)
        grid = np.concatenate([np.linspace(0.3, 3.0, 10), [3.5, 4.0, 9.0, 9.5]])
        got = lindblad_propagate(spec, rho0, thermal_state(sys.h_b, beta), grid)
        gen = assemble_reduced_generator(spec, beta)
        va = sys.basis_a.eigenvectors
        sol = solve_ivp(lambda t, y: gen @ y, (grid[0], grid[-1]),
                        (va.conj().T @ rho0 @ va).reshape(-1), t_eval=grid,
                        rtol=1e-12, atol=1e-14, method="DOP853")
        want = va @ sol.y.T.reshape(-1, sys.dim_a, sys.dim_a) @ va.conj().T
        np.testing.assert_allclose(got, 0.5 * (want + want.conj().swapaxes(1, 2)),
                                   rtol=0, atol=1e-10)

    @pytest.mark.parametrize("case", ["inverted_qubit", "non_gibbs_qutrit"])
    def test_reservoir_populations_enter_as_given(self, case):
        # the generator is built on the reservoir's own populations: an inverted
        # qubit has no non-negative beta, and three populations need not be Gibbs
        from scipy.integrate import solve_ivp

        rng = np.random.default_rng(8)
        if case == "inverted_qubit":
            sys, pops = build_jcm(JcmParams(gamma=0.3, n_max=3, rwa=False)), [0.3, 0.7]
        else:
            sys, pops = random_system(rng, 3, 3), [0.5, 0.2, 0.3]
        v_b = sys.basis_b.eigenvectors
        rho_b = (v_b * pops) @ v_b.conj().T
        spec = decompose(sys, 0.4)
        rho0 = random_density(rng, sys.dim_a)
        grid = np.linspace(0.0, 5.0, 6)
        got = lindblad_propagate(spec, rho0, rho_b, grid)
        h_a, da = sys.h_a.mat, sys.dim_a
        parts = _dissipator_parts(spec)

        def rhs(t, y):
            # the master equation on a storage-basis rho_A, as the map itself
            r = y.reshape(da, da)
            diss = marginal(gksl(parts, np.kron(r, rho_b)), (da, sys.dim_b), "A")
            return (-1j * (h_a @ r - r @ h_a) + spec.gamma ** 2 * spec.lam * diss).reshape(-1)

        sol = solve_ivp(rhs, (grid[0], grid[-1]), rho0.reshape(-1),
                        t_eval=grid, rtol=1e-12, atol=1e-14, method="DOP853")
        want = sol.y.T.reshape(-1, da, da)
        np.testing.assert_allclose(got, 0.5 * (want + want.conj().swapaxes(1, 2)),
                                   rtol=0, atol=1e-10)

    def test_rejects_coherent_reservoir(self):
        sys = build_jcm(JcmParams(n_max=2))
        with pytest.raises(PreconditionError):
            lindblad_propagate(decompose(sys, 0.2), thermal_state(sys.h_a, 1.0).mat,
                               COHERENT_B, np.linspace(0.0, 1.0, 3))

    @pytest.mark.parametrize("pops", [[2.0, 0.0], [1.3, -0.3]], ids=["trace2", "negative"])
    def test_rejects_reservoir_that_is_not_a_state(self, pops):
        sys = build_jcm(JcmParams(n_max=3))
        with pytest.raises(PreconditionError, match="reservoir input"):
            lindblad_propagate(decompose(sys, 0.2), thermal_state(sys.h_a, 1.0).mat,
                               np.diag(pops), np.linspace(0.0, 1.0, 3))

    def test_rejects_empty_grid(self):
        sys = build_jcm(JcmParams(n_max=3))
        with pytest.raises(ConfigError):
            lindblad_propagate(decompose(sys, 0.2), thermal_state(sys.h_a, 1.0).mat,
                               thermal_state(sys.h_b, 1.0), [])

    def test_interval_protocol_free_limit_holds_rotating_frame_state(self):
        # gamma = 0 leaves only the free evolution, which the averaged runs'
        # rotating frame removes: every checkpoint state of A is rho_A(0),
        # coherences included
        sys = build_jcm(JcmParams(gamma=0.0, n_max=3, rwa=True))
        psi = np.zeros(sys.dim_a, complex)
        psi[0] = psi[1] = 1 / math.sqrt(2)
        rho0 = np.outer(psi, psi.conj())
        run = weak_interval_run(decompose(sys, lam=0.05), thermal_state(sys.h_b, 1.0), rho0,
                                horizon=11.0, seed=2, checkpoint_times=np.array([0.0, 3.7, 11.0]),
                                beta=1.0)
        assert len(run.checkpoint_rho_a) == 3
        for got in run.checkpoint_rho_a:
            np.testing.assert_allclose(got, rho0, atol=1e-10)

    def test_interval_protocol_rejects_coherent_reservoir(self):
        # the only interval ends after the horizon, so no ledger ever reads the reservoir
        sys = build_jcm(JcmParams(n_max=2))
        with pytest.raises(PreconditionError):
            weak_interval_run(decompose(sys, 0.2), COHERENT_B, thermal_state(sys.h_a, 1.0),
                              horizon=1.0, intervals=np.array([5.0]), beta=1.0)

    @pytest.mark.parametrize("pops", [[2.0, 0.0], [1.3, -0.3]], ids=["trace2", "negative"])
    def test_interval_protocol_rejects_reservoir_that_is_not_a_state(self, pops):
        sys = build_jcm(JcmParams(n_max=3))
        with pytest.raises(PreconditionError, match="reservoir input"):
            weak_interval_run(decompose(sys, 0.2), np.diag(pops), thermal_state(sys.h_a, 1.0),
                              horizon=1.0, intervals=np.array([5.0]), beta=1.0)

    @staticmethod
    def anti_damped(eps):
        # the averaged generators are GKSL with a positive coefficient matrix,
        # so they lose positivity only by rounding; adding cavity damping at a
        # negative rate -eps gives a generator that is not CP: from |1> it drains
        # the empty ground level, so the joint state's lowest eigenvalue after
        # tau is about -eps tau in exact arithmetic
        sys = build_jcm(JcmParams(omega_a=2 * math.pi, omega_b=2 * math.pi,
                                  gamma=0.1, n_max=1, rwa=False))
        spec = decompose(sys, 0.5)
        a = np.kron(destroy(sys.dim_a), np.eye(sys.dim_b))
        ada = a.conj().T @ a
        # -eps (a rho a^+ - {a^+ a, rho} / 2) as GKSL parts
        anti_damping = gksl_matrix((0.5 * eps * ada, 0.5 * eps * ada, [(-eps * a, a)]))
        rho0 = np.zeros((sys.dim_a, sys.dim_a), complex)
        rho0[1, 1] = 1.0
        return sys, spec, assemble_joint_weak_generator(spec) + anti_damping, rho0

    def test_interval_protocol_returns_near_positivity_floor(self):
        # the run must return with the lowest eigenvalue between the joint floor
        # -1e-5 and -1e-6, matching a 30-digit reference, and the checkpoint
        # marginals (entropy floor -1e-4) must not stop it
        import mpmath

        eps, tau = 3e-6, 1.0
        sys, spec, gen, rho0 = self.anti_damped(eps)
        rho_b = thermal_state(sys.h_b, 1.0)
        run = weak_interval_run(spec, rho_b, rho0, horizon=tau, intervals=np.array([tau]),
                                checkpoint_times=np.linspace(0.0, tau, 5), beta=1.0, generator=gen)
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

    def test_interval_protocol_raises_below_positivity_floor(self):
        # at eps = 1e-4 the lowest joint eigenvalue after tau = 1 is about -1e-4,
        # below the joint floor -1e-5: a one-line error, not a returned run
        sys, spec, gen, rho0 = self.anti_damped(1e-4)
        with pytest.raises(NumericError, match="positivity lost") as err:
            weak_interval_run(spec, thermal_state(sys.h_b, 1.0), rho0, horizon=1.0,
                              intervals=np.array([1.0]), beta=1.0, generator=gen)
        assert "\n" not in str(err.value)

    def test_interval_protocol_reports_and_bounds_trace_drift(self):
        # G - kappa loses the trace as exp(-kappa tau): the run reports the largest
        # |Tr rho_A - 1| of its checkpoints and interval ends, and above 1e-4 refuses
        # the run in one line
        sys = build_jcm(JcmParams(omega_a=2 * math.pi, omega_b=2 * math.pi + 0.3,
                                  gamma=0.1, n_max=3))
        spec = decompose(sys, 0.2)
        gen = assemble_joint_weak_generator(spec)

        def run(kappa):
            return weak_interval_run(spec, thermal_state(sys.h_b, 1.0), thermal_state(sys.h_a, 1.0),
                                     horizon=1.0, intervals=np.array([1.0]),
                                     checkpoint_times=np.linspace(0.0, 1.0, 3), beta=1.0,
                                     generator=gen - kappa * np.eye(len(gen)))

        assert abs(run(1e-6).meta["trace_drift_max"] + math.expm1(-1e-6)) < 1e-12
        with pytest.raises(NumericError, match="trace of the state of A") as err:
            run(1e-3)
        assert "\n" not in str(err.value)

    @pytest.mark.parametrize("gamma", [1e6, 1e8])
    def test_interval_protocol_refuses_a_generator_that_loses_the_trace(self, gamma):
        # |G| ~ gamma^2 / lam: the trace row of each reached block, zero in exact
        # arithmetic, is ~1 per unit time from rounding at gamma = 1e6, so the
        # generator says nothing about the trace over an interval.  Its blocks once
        # propagated it anyway, to populations in the thousands (gamma = 1e6) or a
        # numpy warning and "Eigenvalues did not converge" (1e8)
        sys = build_jcm(JcmParams(omega_a=2 * math.pi, omega_b=2 * math.pi, gamma=gamma,
                                  n_max=4, rwa=False))
        rho0 = np.zeros((sys.dim_a, sys.dim_a))
        rho0[1, 1] = 1.0
        with pytest.raises(NumericError, match="keeps the trace only to") as err:
            weak_interval_run(decompose(sys, 1e-2), thermal_state(sys.h_b, 1.0), rho0,
                              horizon=300.0, seed=2024, beta=1.0)
        assert "\n" not in str(err.value)

    def test_interval_protocol_keeps_the_trace_near_the_floor(self):
        # the near-floor configuration (n_max 6, gamma 0.1, lam 1e-5, horizon 1e6):
        # with each reached block's trace row left as rounding made it, the trace drifted
        # by ~5e-7 (complex) to ~1e-4 (real) and the Born sum with it; with an exact
        # trace row both are rounding
        sys = build_jcm(JcmParams(omega_a=2 * math.pi, omega_b=2 * math.pi, gamma=0.1,
                                  n_max=6, rwa=False))
        rho0 = np.zeros((sys.dim_a, sys.dim_a))
        rho0[1, 1] = 1.0
        run = weak_interval_run(decompose(sys, 1e-5), thermal_state(sys.h_b, 1.0), rho0,
                                horizon=1e6, seed=3, beta=1.0)
        assert len(run.ledgers) > 5
        assert run.meta["trace_drift_max"] < 1e-12 and run.born_max_deviation < 1e-12
        # the zeroed trace rows, ~1e-11 per unit time, would have moved the trace by
        # ~5e-6 over the longest interval (5e5)
        assert 0 < run.meta["trace_row_norm"] < 1e-10

    def test_interval_protocol_rejects_infinite_horizon(self):
        sys = build_jcm(JcmParams(n_max=2))
        rho_b, rho_a = thermal_state(sys.h_b, 1.0), thermal_state(sys.h_a, 1.0)
        with pytest.raises(ConfigError):
            weak_interval_run(decompose(sys, 0.2), rho_b, rho_a, horizon=math.inf,
                              intervals=np.array([1.0]), beta=1.0)

    @pytest.mark.parametrize("times", [[0.0, 6.0, 2.0, 4.0], [0.0, 2.0, math.nan, 6.0]])
    def test_interval_protocol_rejects_bad_grid(self, times):
        # the walk assigns checkpoints in grid order: a decreasing grid would get
        # stale states, and a NaN would silently cut the series short
        sys = build_jcm(JcmParams(n_max=2))
        rho_b, rho_a = thermal_state(sys.h_b, 1.0), thermal_state(sys.h_a, 1.0)
        with pytest.raises(ConfigError):
            weak_interval_run(decompose(sys, 0.2), rho_b, rho_a, horizon=8.0,
                              checkpoint_times=np.array(times), beta=1.0)

    @pytest.mark.parametrize("intervals", [[-5.0, 10.0, 10.0], [math.nan, 1.0]])
    def test_interval_protocol_rejects_negative_or_nan_interval(self, intervals):
        sys = build_jcm(JcmParams(n_max=2))
        rho_b, rho_a = thermal_state(sys.h_b, 1.0), thermal_state(sys.h_a, 1.0)
        with pytest.raises(ConfigError, match="interval lengths"):
            weak_interval_run(decompose(sys, 0.2), rho_b, rho_a, horizon=30.0,
                              intervals=np.array(intervals), beta=1.0)

    @pytest.mark.parametrize("lam,horizon", [(0.2, math.inf), (math.nan, 10.0)])
    def test_fast_protocol_rejects_non_finite(self, lam, horizon):
        sys = build_jcm(JcmParams(n_max=2))
        rho_b, rho_a = thermal_state(sys.h_b, 1.0), thermal_state(sys.h_a, 1.0)
        # refused before the regime warning (lam 0.2 < 10 gamma) and the dense generator
        with warnings.catch_warnings(), pytest.raises(ConfigError):
            warnings.simplefilter("error")
            fast_interval_run(sys, lam, rho_b, rho_a, horizon=horizon, intervals=np.array([1.0]),
                              beta=1.0)

    def test_fast_protocol_warns_outside_its_regime(self):
        # as fast_map does: the expansion in gamma/lambda needs lambda >= 10 gamma
        sys = build_jcm(JcmParams(n_max=2))
        rho_b, rho_a = thermal_state(sys.h_b, 1.0), thermal_state(sys.h_a, 1.0)
        with pytest.warns(UserWarning, match="lam < 10 gamma"):
            fast_interval_run(sys, 0.4, rho_b, rho_a, horizon=1.0, intervals=np.array([1.0]),
                              beta=1.0)

    @pytest.mark.parametrize("beta", [math.nan, -1.0, [1.0, 2.0], np.array([1.0, 2.0]), []])
    @pytest.mark.parametrize("mode", ["weak", "fast"])
    def test_interval_protocol_rejects_bad_beta(self, mode, beta):
        # as ProcessConfig does: the heat was booked as NaN, or at a negative temperature;
        # a sequence ended in a TypeError or ValueError inside the ledger
        sys = build_jcm(JcmParams(n_max=2))
        with pytest.raises(ConfigError, match="inverse temperature"):
            one_interval_run(mode, sys, thermal_state(sys.h_a, 1.0), beta=beta)

    @pytest.mark.parametrize("mode", ["weak", "fast"])
    def test_interval_protocol_rejects_initial_state_of_wrong_dimension(self, mode):
        # a 4-level state of a 3-level A failed inside numpy, on a boolean index
        with pytest.raises(DimensionError, match="has shape \\(4, 4\\), but A has dimension 3"):
            one_interval_run(mode, build_jcm(JcmParams(n_max=2)), np.eye(4) / 4)

    @pytest.mark.parametrize("bad,error", [
        (dict(intervals=np.array([-1.0, 1.0])), ConfigError),
        (dict(checkpoint_times=np.array([0.0, math.nan])), ConfigError),
        (dict(intervals=np.ones(2 * 10 ** 5)), SizeLimitError),
        (dict(rho_b0=COHERENT_B), PreconditionError),
        (dict(rho_a0=np.eye(4) / 4), DimensionError),
        (dict(beta=[1.0, 2.0]), ConfigError),
    ])
    @pytest.mark.parametrize("mode", ["weak", "fast"])
    def test_interval_protocol_refuses_before_building_a_generator(self, monkeypatch, mode,
                                                                     bad, error):
        # the request is checked as a whole before the dense d^2 x d^2 generator is
        # built; the schedule checks used to run only in the walk, after it
        calls = []
        monkeypatch.setattr("qtherm.generators.gksl_matrix",
                            lambda *a, **k: calls.append(1) or gksl_matrix(*a, **k))
        sys = build_jcm(JcmParams(n_max=2))
        good = dict(rho_b0=thermal_state(sys.h_b, 1.0), rho_a0=thermal_state(sys.h_a, 1.0),
                    horizon=2.0, intervals=np.array([1.0]), beta=1.0)

        def run(**opts):
            if mode == "weak":
                return weak_interval_run(decompose(sys, 0.2), **opts)
            return fast_interval_run(sys, 5.0, **opts)

        with pytest.raises(error):
            run(**good | bad)
        assert calls == []
        run(**good)
        assert calls == [1]                 # the generator a good request builds is counted

    @pytest.mark.parametrize("mode", ["weak", "fast"])
    def test_interval_protocol_records_states_after_each_interval(self, mode):
        # the averaged runs return the exact run's record: S_A of every state of A
        # after an interval at the propagator's floor, its clipped energy-basis
        # populations, and the seed
        sys = build_jcm(JcmParams(omega_a=1.0, omega_b=1.0, gamma=0.05, n_max=3, rwa=False))
        rho_b, rho_a = thermal_state(sys.h_b, 1.0), thermal_state(sys.h_a, 0.5).mat
        if mode == "weak":
            run = weak_interval_run(decompose(sys, 0.2), rho_b, rho_a, horizon=60.0, seed=5,
                                    beta=1.0)
        else:
            run = fast_interval_run(sys, 5.0, rho_b, rho_a, horizon=6.0, seed=6, beta=1.0)
        snaps = run.rho_a_snapshots
        assert len(snaps) == len(run.ledgers) + 1 > 3
        assert run.meta["seed"] == (5 if mode == "weak" else 6)
        np.testing.assert_array_equal(snaps[0], rho_a)
        floor = _LinearPropagator.positivity_floor
        np.testing.assert_array_equal(run.s_a_series,
                                      [von_neumann_entropy(r, floor) for r in snaps])
        np.testing.assert_array_equal(
            run.pops_a, [np.clip(populations(r, sys.basis_a.eigenvectors), 0.0, None)
                         for r in snaps])
        assert np.isfinite(s_tot(run.s_a_series, run.ledgers)).all()

    def test_interval_protocol_runs_at_small_lam(self):
        sys = build_jcm(JcmParams(omega_a=2 * math.pi, omega_b=2 * math.pi,
                                  gamma=0.05, n_max=8, rwa=False))
        lam = 1e-4
        spec = decompose(sys, lam)
        rho0 = np.zeros((sys.dim_a, sys.dim_a), complex)
        rho0[1, 1] = 1.0
        run = weak_interval_run(spec, thermal_state(sys.h_b, 1.0), rho0,
                                horizon=40 / lam, seed=3, beta=1.0)
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
        # a Jordan block has no eigenbasis: an ill-conditioned or singular vr sends block {0, 1},
        # and only it, to expm; indices 2 and 3 are 1x1 blocks of their own
        g = np.zeros((4, 4))
        g[0, 1] = 1.0
        prop = _LinearPropagator(g, ())
        assert [b.tolist() for b in prop.blocks] == [[0, 1], [2], [3]]
        theta = np.array([[0.6, 0.2 - 0.1j], [0.2 + 0.1j, 0.4]])
        t = 0.7
        # g is nilpotent, so exp(t g) = 1 + t g exactly
        want = ((np.eye(4) + t * g) @ theta.reshape(-1)).reshape(2, 2)
        np.testing.assert_allclose(prop.apply(theta, [t])[0], 0.5 * (want + want.conj().T),
                                   atol=1e-15)
        # walking a vector of times gives what single times give
        taus = [0.0, t, 2.0]
        np.testing.assert_array_equal(prop.apply(theta, taus),
                                      [prop.apply(theta, [tau])[0] for tau in taus])
        # theta has weight in all three blocks, so the first apply decomposed them all
        assert [idx.tolist() for idx, _ in prop.expm_blocks] == [[0, 1]]

    def test_defective_block_takes_one_expm_per_distinct_step(self, monkeypatch):
        # qcore.propagate_grid's walk: the steps of a linspace grid lie a rounding apart,
        # so the Jordan block e^{-t/20} (1 + t N) reuses one exponential over 241 times
        import scipy.linalg

        g = np.zeros((4, 4))
        g[0, 0] = g[1, 1] = -0.05
        g[0, 1] = 1.0
        prop = _LinearPropagator(g, ())
        theta = np.array([[0.6, 0.2 - 0.1j], [0.2 + 0.1j, 0.4]])
        taus = np.linspace(0.0, 30.0, 241)
        singles = [prop.apply(theta, [tau])[0] for tau in taus]
        assert [idx.tolist() for idx, _ in prop.expm_blocks] == [[0, 1]]
        calls, expm_ = [], scipy.linalg.expm
        monkeypatch.setattr(scipy.linalg, "expm", lambda a: calls.append(a) or expm_(a))
        np.testing.assert_allclose(prop.apply(theta, taus), singles, rtol=0, atol=1e-13)
        assert 1 <= len(calls) <= 3

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
        assert len(prop.blocks) > 1
        rho = random_density(np.random.default_rng(7), sys.dim)
        for t in (0.1 / lam, 1.0 / lam, 10.0 / lam):
            want = (expm(t * gen) @ rho.reshape(-1)).reshape(sys.dim, sys.dim)
            np.testing.assert_allclose(prop.apply(rho, [t])[0], want,
                                       atol=1e-12 * np.abs(want).max())
        # rho has full support, so every block was decomposed, none by expm
        assert prop.decomposed.all() and not prop.expm_blocks

    @pytest.mark.parametrize("kind", ["weak", "fast"])
    def test_vector_of_times_stacks_single_times(self, kind):
        # one call over a vector of times is the stack of one-time calls, to
        # rounding (one matrix product per block instead of one per time)
        sys = build_jcm(JcmParams(omega_a=2 * math.pi, omega_b=2 * math.pi + 0.3,
                                  gamma=0.1, n_max=3))
        lam = 0.2 if kind == "weak" else 5.0
        spec = decompose(sys, lam)
        gen = (assemble_joint_weak_generator(spec) if kind == "weak"
               else assemble_joint_fast_generator(sys, lam))
        prop = _LinearPropagator(gen, zip(spec.frequencies, spec.v_ops))
        rho = random_density(np.random.default_rng(13), sys.dim)
        taus = np.array([0.0, 0.1, 1.0, 1.0, 10.0]) / lam
        got = prop.apply(rho, taus)
        assert got.shape == (len(taus), sys.dim, sys.dim)
        want = np.array([prop.apply(rho, [t])[0] for t in taus])
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * np.abs(want).max())
        # <H_AB> in the rotating frame of H_0: Tr(e^{i H_0 tau} H_AB e^{-i H_0 tau} joint)
        ev, vec = np.linalg.eigh(sys.uncoupled_h)
        for h, t, joint in zip(prop.hab_expect(got, taus), taus, got):
            u = (vec * np.exp(1j * ev * t)) @ vec.conj().T
            assert abs(h - np.trace(u @ sys.h_ab.mat @ u.conj().T @ joint).real) < 1e-12

    @pytest.mark.parametrize("kind", ["weak", "fast"])
    def test_unreached_blocks_are_not_decomposed(self, kind):
        sys = build_jcm(JcmParams(omega_a=2 * math.pi, omega_b=2 * math.pi + 0.3,
                                  gamma=0.1, n_max=3))
        lam = 0.2 if kind == "weak" else 5.0
        gen = (assemble_joint_weak_generator(decompose(sys, lam)) if kind == "weak"
               else assemble_joint_fast_generator(sys, lam))
        prop = _LinearPropagator(gen, ())
        label = np.empty(gen.shape[0], dtype=int)
        for k, b in enumerate(prop.blocks):
            label[b] = k
        assert not prop.decomposed.any()
        rng = np.random.default_rng(11)
        # a diagonal joint state, as the interval walk builds from a Fock start:
        # it has weight only in the blocks that hold the diagonal
        diag = np.diag(rng.dirichlet(np.ones(sys.dim))).astype(complex)
        reached = np.unique(label[np.flatnonzero(diag.reshape(-1))])
        assert 0 < len(reached) < len(prop.blocks)
        unreached = ~np.isin(label, reached)

        def check(rho, t):
            got = prop.apply(rho, [t])[0]
            want = (expm(t * gen) @ rho.reshape(-1)).reshape(sys.dim, sys.dim)
            np.testing.assert_allclose(got, want, atol=1e-12 * np.abs(want).max())
            return got.reshape(-1)

        for t in (0.1 / lam, 10.0 / lam):
            assert (check(diag, t)[unreached] == 0).all()
        np.testing.assert_array_equal(np.flatnonzero(prop.decomposed), reached)
        # a full-support state decomposes the rest, and a diagonal state again
        # reaches only its own blocks
        check(random_density(rng, sys.dim), 1.0 / lam)
        assert prop.decomposed.all() and not prop.expm_blocks
        assert (check(diag, 1.0 / lam)[unreached] == 0).all()

    @pytest.mark.parametrize("rwa,n_blocks,largest,decomposed",
                             [(False, 4, 225, 2), (True, 256, 4, 5)], ids=["full", "rwa"])
    def test_weak_run_reports_blocks(self, rwa, n_blocks, largest, decomposed):
        # n_max 14 (the CLI default): full coupling splits by ket/bra parity,
        # the rotating-wave coupling by excitation number.  From the CLI's Fock
        # start every interval's state commutes with the joint parity (or the
        # excitation number), so only diagonal sector-pair blocks are reached
        # and decomposed, and under the RWA only those the walk spreads into
        sys = build_jcm(JcmParams(n_max=14, rwa=rwa))
        rho_a = np.zeros((sys.dim_a, sys.dim_a))
        rho_a[1, 1] = 1.0
        run = weak_interval_run(decompose(sys, 1e-2), thermal_state(sys.h_b, 1.0), rho_a,
                                horizon=300.0, seed=5, beta=1.0)
        assert (run.meta["propagator_blocks"], run.meta["largest_block"]) == (n_blocks, largest)
        assert (run.meta["decomposed_blocks"], run.meta["expm_blocks"]) == (decomposed, 0)
        # every reached block holds diagonal entries, so each is propagated in real form
        assert run.meta["real_blocks"] == decomposed

    @pytest.mark.parametrize("rwa", [False, True], ids=["full", "rwa"])
    @pytest.mark.parametrize("kind", ["weak", "fast"])
    def test_hermitian_blocks_propagate_in_real_form(self, kind, rwa):
        # a GKSL generator maps Hermitian matrices to Hermitian ones, so each block
        # that holds diagonal entries is closed under the swap (i, j) -> (j, i) and is
        # real in the Hermitian basis; propagating its real coordinates matches each
        # block's complex eigendecomposition and a dense expm
        rng = np.random.default_rng(29)
        for _ in range(3):
            sys = build_jcm(JcmParams(omega_a=rng.uniform(1.0, 8.0), omega_b=rng.uniform(1.0, 8.0),
                                      gamma=rng.uniform(0.02, 0.3), n_max=int(rng.integers(1, 5)),
                                      rwa=rwa))
            lam = rng.uniform(0.05, 1.0) if kind == "weak" else rng.uniform(5.0, 20.0)
            gen = (assemble_joint_weak_generator(decompose(sys, lam)) if kind == "weak"
                   else assemble_joint_fast_generator(sys, lam))
            d = sys.dim
            prop = _LinearPropagator(gen, ())
            n_real = 0
            for idx in prop.blocks:
                i, j = np.divmod(idx, d)
                if not (i == j).any():
                    continue
                order = np.concatenate([idx[i == j], idx[i < j], (j * d + i)[i < j]])
                np.testing.assert_array_equal(np.sort(order), idx)
                herm = ((i == j).sum(), (i < j).sum())
                g = gen[np.ix_(order, order)]
                h = _hermitian_rows(_hermitian_rows(g, *herm).T, *herm, sign=-1j).T
                assert np.abs(h.imag).max() <= 1e-12 * np.abs(h).max()
                n_real += 1
            rho = random_density(rng, d)
            taus = np.array([0.1, 1.0, 10.0]) / lam
            got = prop.apply(rho, taus)
            assert prop.real_blocks == n_real > 0 and not prop.expm_blocks
            x = rho.reshape(-1)
            for t, joint in zip(taus, got):
                want = (expm(t * gen) @ x).reshape(d, d)
                np.testing.assert_allclose(joint, want, rtol=0, atol=1e-12 * np.abs(want).max())
                cplx = np.zeros_like(x)
                for idx in prop.blocks:
                    evals, vr = np.linalg.eig(gen[np.ix_(idx, idx)])
                    cplx[idx] = vr @ (np.exp(evals * t) * np.linalg.solve(vr, x[idx]))
                np.testing.assert_allclose(joint, cplx.reshape(d, d), rtol=0,
                                           atol=1e-12 * np.abs(want).max())

    def test_generator_that_breaks_hermiticity_or_trace_takes_the_complex_path(self):
        # (1 + 0.1i) G has G's block pattern but does not map Hermitian matrices to
        # Hermitian ones; G - 0.05 does, but does not keep the trace: neither block
        # is real with an exact trace row, so each is decomposed as it is
        sys = build_jcm(JcmParams(omega_a=2 * math.pi, omega_b=2 * math.pi + 0.3,
                                  gamma=0.1, n_max=3))
        gen = assemble_joint_weak_generator(decompose(sys, 0.2))
        rho = random_density(np.random.default_rng(31), sys.dim)
        for bad in (gen * (1 + 0.1j), gen - 0.05 * np.eye(len(gen))):
            prop = _LinearPropagator(bad, ())
            for t in (0.5, 5.0):
                want = (expm(t * bad) @ rho.reshape(-1)).reshape(sys.dim, sys.dim)
                np.testing.assert_allclose(prop.apply(rho, [t])[0], (want + want.conj().T) / 2,
                                           rtol=0, atol=1e-12 * np.abs(want).max())
            assert prop.decomposed.all() and prop.real_blocks == 0 and not prop.expm_blocks

    @staticmethod
    def _column_stack_apply(prop, theta, taus):
        # the reference: each reached block scattered into a (d^2, taus) array, and
        # hermitian_part of its transpose as a second stack; theta's blocks are decomposed
        x = theta.reshape(-1)
        out = np.zeros((x.size, len(taus)), dtype=complex)
        label = np.empty(x.size, dtype=int)
        for k, b in enumerate(prop.blocks):
            label[b] = k
        for k in sorted(set(label[x != 0].tolist())):
            idx, herm, _, parts = prop._parts[k]
            y = x[idx] if herm is None else to_real(x[idx], *herm)
            if len(parts) == 3:
                evals, vr, vr_inv = parts
                y = vr @ ((vr_inv @ y)[:, None] * np.exp(evals[:, None] * taus))
            else:
                y = propagate_grid(parts[0], y, 0.0, taus).T
            out[idx] = y if herm is None else from_real(y.real, *herm)
        return hermitian_part(out.T.reshape(len(taus), prop.dim, prop.dim))

    @pytest.mark.parametrize("complex_block", [False, True], ids=["weak", "complex"])
    def test_apply_returns_one_hermitian_stack(self, complex_block):
        # each matrix is made Hermitian in place, to the bits of hermitian_part of the
        # column layout: (1 + 0.1i) G does not keep Hermiticity, so its blocks are complex
        sys = build_jcm(JcmParams(omega_a=2 * math.pi, omega_b=2 * math.pi + 0.3,
                                  gamma=0.1, n_max=3))
        spec = decompose(sys, 0.2)
        gen = assemble_joint_weak_generator(spec) * (1 + 0.1j if complex_block else 1)
        prop = _LinearPropagator(gen, zip(spec.frequencies, spec.v_ops))
        rng = np.random.default_rng(37)
        taus = np.array([0.0, 0.5, 2.0, 2.0, 20.0])
        for theta in (np.diag(rng.dirichlet(np.ones(sys.dim))).astype(complex),
                      random_density(rng, sys.dim)):
            got = prop.apply(theta, taus)
            assert got.shape == (len(taus), sys.dim, sys.dim) and got.flags.c_contiguous
            for m in got:
                assert (m == m.conj().T).all()
            np.testing.assert_array_equal(got, self._column_stack_apply(prop, theta, taus))
        # the random state reached every block; under G the two that hold diagonal
        # entries (one per ket/bra parity) take the real path
        assert prop.decomposed.all() and len(prop.blocks) == 4
        assert prop.real_blocks == (0 if complex_block else 2)

    def test_overflowing_exponentials_are_one_numeric_error(self):
        # G = 1000 grows every state by e^1000 at t = 1: no numpy warning, one line
        prop = _LinearPropagator(1e3 * np.eye(16), ())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="non-finite") as err:
                prop.apply(random_density(np.random.default_rng(5), 4), [0.5, 1.0])
        assert "\n" not in str(err.value)

    @pytest.mark.parametrize("mode", ["weak", "fast"])
    def test_default_run_needs_no_expm(self, mode):
        # at the CLI defaults every block has an invertible eigenbasis, so no run
        # falls back to (or loads scipy for) a dense expm
        from qtherm.cli import resolve_config

        cfg = resolve_config(None, {})
        lam = cfg["lambda"] if mode == "weak" else 5.0
        sys = build_jcm(JcmParams(omega_a=cfg["omega_a"], omega_b=cfg["omega_b"],
                                  gamma=cfg["gamma"], n_max=cfg["n_max"], rwa=cfg["rwa"]))
        args = (thermal_state(sys.h_b, 1.0), thermal_state(sys.h_a, 1.0))
        opts = dict(horizon=1.0, intervals=np.array([1.0]),
                    checkpoint_times=np.array([0.0, 1.0]), beta=1.0)
        run = (weak_interval_run(decompose(sys, lam), *args, **opts) if mode == "weak"
               else fast_interval_run(sys, lam, *args, **opts))
        assert run.meta["expm_blocks"] == 0
        # the eigenvectors of the blocks it reached invert well
        assert 1.0 <= run.meta["eig_cond_max"] < COND_MAX
        # the run reaches only some blocks; a full-support state decomposes every one
        gen = (assemble_joint_weak_generator(decompose(sys, lam)) if mode == "weak"
               else assemble_joint_fast_generator(sys, lam))
        prop = _LinearPropagator(gen, ())
        prop.apply(random_density(np.random.default_rng(3), sys.dim), [1.0])
        assert prop.decomposed.all() and not prop.expm_blocks


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

    @pytest.mark.parametrize("beta", [0.0, 0.8, math.inf])
    def test_reduced_generator(self, case, beta):
        # beta = inf leaves the excited reservoir levels empty, so their GKSL pairs weigh 0
        sys, rho_a, _, _ = case
        rho = np.kron(rho_a, thermal_state(sys.h_b, beta).mat)
        lam = 0.4
        spec = decompose(sys, lam)
        va = sys.basis_a.eigenvectors
        got = va @ self.apply(assemble_reduced_generator(spec, beta), va.conj().T @ rho_a @ va) \
            @ va.conj().T
        h_a = sys.h_a.mat
        dims = (sys.dim_a, sys.dim_b)
        want = -1j * (h_a @ rho_a - rho_a @ h_a) + lam * marginal(weak_map(spec, rho), dims, "A")
        np.testing.assert_allclose(got, want, atol=1e-13)

    @pytest.mark.parametrize("beta", [0.8, math.inf])
    @pytest.mark.parametrize("rwa", [False, True], ids=["full", "rwa"])
    def test_jump_averaged_generator(self, rwa, beta):
        sys = build_jcm(JcmParams(omega_a=2 * math.pi, omega_b=2 * math.pi + 0.3,
                                  gamma=0.1, n_max=3, rwa=rwa))
        lam, dims = 0.4, (sys.dim_a, sys.dim_b)
        rho_b = thermal_state(sys.h_b, beta).mat
        gen = jump_averaged_generator(sys, beta, lam)
        h = sys.total_h.mat
        rng = np.random.default_rng(23)
        for _ in range(3):
            rho = random_density(rng, sys.dim)
            want = -1j * (h @ rho - rho @ h) + lam * (np.kron(marginal(rho, dims, "A"), rho_b)
                                                      - rho)
            np.testing.assert_allclose(self.apply(gen, rho), want, rtol=0, atol=1e-13)

    def test_fast_map_reduced(self, case):
        sys, rho_a, rho_b, rho = case
        lam = 3.0
        pops = populations(rho_b, sys.basis_b.eigenvectors)
        want = lam * marginal(fast_map(sys, rho, lam), (sys.dim_a, sys.dim_b), "A")
        np.testing.assert_allclose(fast_map_reduced(sys, rho_a, pops, lam), want, atol=1e-15)


class TestGkslVectorisation:
    """Row-major, rho -> L rho + rho R + sum_j W_j rho V_j^+ has the matrix
    kron(L, 1) + kron(1, R^T) + sum_j kron(W_j, conj V_j); tie each joint
    superoperator to that form of its own parts."""

    @pytest.mark.parametrize("n_max", [2, 6])
    @pytest.mark.parametrize("rwa", [False, True], ids=["full", "rwa"])
    @pytest.mark.parametrize("kind", ["weak", "fast"])
    def test_joint_generator_is_kron_of_its_parts(self, kind, rwa, n_max):
        sys = build_jcm(JcmParams(omega_a=2 * math.pi, omega_b=2 * math.pi + 0.3,
                                  gamma=0.1, n_max=n_max, rwa=rwa))
        if kind == "weak":
            spec = decompose(sys, 0.2)
            gen, parts = assemble_joint_weak_generator(spec), _weak_parts(spec, 0.2)
        else:
            gen, parts = assemble_joint_fast_generator(sys, 5.0), _fast_parts(sys, 5.0, 5.0)
        left, right, pairs = parts
        one = np.eye(sys.dim)
        want = np.kron(left, one) + np.kron(one, right.T)
        for w, v in pairs:
            want += np.kron(w, v.conj())
        np.testing.assert_allclose(gen, want, rtol=0, atol=1e-15)


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

    def test_populations_are_read_in_the_energy_basis(self):
        # the reduced generator acts in A's energy basis, which for a random H_A is
        # not the storage basis: p0 and p1 must match the energy-basis populations
        # of a long-time integration (returned in the storage basis)
        sys = random_system(np.random.default_rng(3), 3, 2)
        spec = decompose(sys, 0.4)
        res = steady_state(assemble_reduced_generator(spec, 1.0), sys.h_a)
        late = lindblad_propagate(spec, np.eye(3) / 3, thermal_state(sys.h_b, 1.0),
                                  [0.0, 4000.0])[-1]
        want = populations(late, sys.basis_a.eigenvectors)
        np.testing.assert_allclose([res.p0, res.p1], want[:2], rtol=0, atol=1e-9)
        e = sys.basis_a.eigenvalues
        assert abs(res.beta_eff + math.log(want[1] / want[0]) / (e[1] - e[0])) < 1e-8


    def test_refuses_a_generator_that_breaks_hermiticity_or_the_trace(self):
        # -1 keeps Hermiticity but not the trace (it used to return |1><1| with
        # residual 1); (1 + 0.1i) G keeps the trace but not Hermiticity
        sys = build_jcm(JcmParams(n_max=2))
        gen = assemble_reduced_generator(decompose(sys, 0.5), 1.0)
        for bad, h_a in ((-np.eye(4), np.diag([0.0, 1.0])), (gen * (1 + 0.1j), sys.h_a)):
            with pytest.raises(PreconditionError, match="Hermiticity and the trace") as err:
                steady_state(bad, h_a)
            assert "\n" not in str(err.value)

    def test_traceless_null_state_is_a_numeric_error(self):
        # L(rho) = Tr(rho) Z - (rho - diag rho), Z = diag(1, -1), keeps Hermiticity and
        # annihilates the trace; it maps the identity onto Z and annihilates Z, so its
        # one null state is traceless and no null state has trace 1
        gen = np.array([[1.0, 0, 0, 1], [0, -1, 0, 0], [0, 0, -1, 0], [-1, 0, 0, -1]])
        with pytest.raises(NumericError, match="vanishing trace"):
            steady_state(gen)

    def test_negative_populations_are_clipped_at_unit_trace_or_refused(self):
        # a negative up rate puts the null state's p1 at up/down below zero: down to
        # -1e-9 that is rounding, clipped with the trace kept at 1; below, an error
        for up, clipped in ((-5e-10, True), (-5e-9, False)):
            gen = np.zeros((4, 4))
            gen[0, 0], gen[0, 3], gen[3, 3], gen[3, 0] = -up, 1.0, -1.0, up
            gen[1, 1] = gen[2, 2] = -1.0
            if clipped:
                rho = steady_state(gen).rho_ss.mat
                assert 0.0 <= rho[1, 1].real <= 1e-16 and abs(np.trace(rho) - 1.0) <= 1e-15
            else:
                with pytest.raises(NumericError, match="not positive"):
                    steady_state(gen)

    @pytest.mark.parametrize("seed", range(6))
    def test_real_solve_matches_an_svd_null_vector(self, seed):
        # over random systems, for the reduced generator and for the averaged interval
        # map's M - 1: the real traceless solve agrees with the SVD null vector of the
        # complex generator, has trace 1 and exact Hermiticity, and leaves no larger
        # residual.  At these sizes both residuals sit at the rounding of G itself, so
        # they are compared to within the error of evaluating |G x|, d^2 eps |G| |x|
        rng = np.random.default_rng(seed)
        sys = random_system(rng, int(rng.integers(2, 5)), int(rng.integers(2, 4)),
                            gamma=rng.uniform(0.05, 0.5))
        lam, beta, da = rng.uniform(0.1, 2.0), rng.uniform(0.2, 3.0), sys.dim_a
        gen = assemble_reduced_generator(decompose(sys, lam), beta)
        res = steady_state(gen, sys.h_a)
        assert 1.0 <= res.cond < 1e10
        amap = AveragedIntervalMap(sys, beta, lam)
        m = amap._average(np.eye(da * da).reshape(-1, da, da)).reshape(da * da, -1).T
        for g, rho in ((gen, res.rho_ss.mat), (m - np.eye(da * da), amap.fixed_point())):
            _, s, vh = np.linalg.svd(g)
            assert s[-2] > 1e-6 * s[0]              # the null state is unique
            want = hermitian_part(vh[-1].conj().reshape(da, da))
            want /= np.trace(want).real
            np.testing.assert_allclose(rho, want, rtol=0, atol=1e-9)
            assert abs(np.trace(rho) - 1.0) <= 1e-15
            np.testing.assert_array_equal(rho, rho.conj().T)
            slack = da ** 2 * np.finfo(float).eps * s[0] * np.linalg.norm(rho)
            assert (np.linalg.norm(g @ rho.reshape(-1))
                    <= np.linalg.norm(g @ want.reshape(-1)) + slack)


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
