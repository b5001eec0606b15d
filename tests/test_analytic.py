import math

import numpy as np
import pytest
from scipy.integrate import quad

from qtherm.analytic import (
    AtomFieldState,
    amplitudes,
    apply_absorption,
    einstein_rate,
    geometric_steady_state,
    mean_b2_first_order,
    mean_b2_poisson,
    pn_master_step,
    transfer_probabilities,
    x_of_t,
)
from qtherm.errors import NumericError
from qtherm.models import JcmParams

RESONANT = JcmParams(omega_a=2 * math.pi, omega_b=2 * math.pi, gamma=0.05, n_max=10, rwa=True)


def poisson_average_quadrature(n, lam, params):
    """Independent oracle: lam * integral exp(-lam t)|b_n(t)|^2 dt via QUADPACK.

    |b_n|^2 = (Omega_n/Omega'_n)^2 (1 - cos(Omega'_n t))/2; the oscillatory part
    uses the Fourier-weighted rule on the half line.
    """
    amp = amplitudes(n, 0.0, params)
    om, omp = amp.omega_n, amp.omega_n_prime
    if omp == 0.0:
        return 0.0
    osc, _ = quad(lambda t: math.exp(-lam * t), 0, np.inf, weight="cos", wvar=omp)
    return (om / omp) ** 2 * 0.5 * (1.0 - lam * osc)


class TestAmplitudes:
    def test_initial_condition(self):
        a = amplitudes(3, 0.0, RESONANT)
        assert a.a_n == 1.0 and a.b_n == 0.0

    def test_full_transfer_on_resonance(self):
        for n in (1, 2, 4):
            a0 = amplitudes(n, 0.0, RESONANT)
            t_pi = math.pi / a0.omega_n
            assert abs(amplitudes(n, t_pi, RESONANT).transfer_probability - 1.0) < 1e-12

    @pytest.mark.parametrize("dc", [0.0, 0.5])
    def test_unitarity(self, dc):
        p = JcmParams(omega_a=2 * math.pi, omega_b=2 * math.pi + dc, gamma=0.05, n_max=8)
        for n in (1, 2, 5):
            for t in np.linspace(0.0, 100.0, 23):
                a = amplitudes(n, float(t), p)
                assert abs(abs(a.a_n) ** 2 + abs(a.b_n) ** 2 - 1.0) < 1e-12

    @pytest.mark.parametrize("gamma, dc", [(0.05, 0.0), (0.05, 0.5), (0.0, 0.0), (0.0, 0.5)])
    def test_time_grid_matches_one_call_per_time(self, gamma, dc):
        # (0, 0) takes the omega'_n = 0 branch
        p = JcmParams(omega_a=2 * math.pi, omega_b=2 * math.pi + dc, gamma=gamma, n_max=8)
        ts = np.linspace(0.0, 100.0, 23)
        for n in (1, 2, 5):
            grid = amplitudes(n, ts, p)
            one = [amplitudes(n, float(t), p) for t in ts]
            for got, want in ((grid.a_n, [a.a_n for a in one]), (grid.b_n, [a.b_n for a in one])):
                assert got.shape == ts.shape
                assert got.tobytes() == np.array(want, dtype=complex).tobytes()   # bit for bit

    @pytest.mark.parametrize("t", [-1.0, math.inf, math.nan, np.array([0.0, 2.0, -1e-9])])
    def test_time_outside_the_half_line_raises(self, t):
        with pytest.raises(ValueError, match="time"):
            amplitudes(1, t, RESONANT)

    def test_numeric_block_oracle(self):
        # 4x4 evolution of the one-excitation pair, independent of the engine
        p = JcmParams(omega_a=2 * math.pi, omega_b=2 * math.pi, gamma=0.05, n_max=1, rwa=True)
        h = np.array([
            [p.omega_a * 1.0 + 0.0, p.gamma],
            [p.gamma, p.omega_a * 1.0],
        ])  # block {|0,e>, |1,g>} at resonance, mean energy omega_a
        evals, vecs = np.linalg.eigh(h)
        t = 10.0
        u = (vecs * np.exp(-1j * evals * t)) @ vecs.conj().T
        a = amplitudes(1, t, p)
        phase = np.exp(-1j * p.omega_a * t)
        np.testing.assert_allclose(
            u, phase * np.array([[a.a_n, a.b_n], [a.b_n, np.conj(a.a_n)]]), atol=1e-10)


class TestXofT:
    def test_vacuum_ground_gives_zero(self):
        state = AtomFieldState(p_n=(1.0,), sigma_e=0.0, sigma_g=1.0)
        assert x_of_t(state, 5.0, RESONANT) == 0.0

    def test_full_emission(self):
        state = AtomFieldState(p_n=(1.0,), sigma_e=1.0, sigma_g=0.0)
        t_pi = math.pi / amplitudes(1, 0.0, RESONANT).omega_n
        x = x_of_t(state, t_pi, RESONANT)
        assert abs(x + 1.0) < 1e-12
        after = apply_absorption(state, x)
        assert abs(after.sigma_e) < 1e-12 and abs(after.sigma_g - 1.0) < 1e-12

    def test_detailed_balance_state_is_stationary(self):
        state = geometric_steady_state(40, sigma_e=0.2, sigma_g=0.8)
        for t in (0.7, 13.0, 51.0):
            assert abs(x_of_t(state, t, RESONANT)) < 1e-10


class TestMeanB2:
    def test_reference_value(self):
        p = JcmParams(omega_a=2 * math.pi, omega_b=2 * math.pi, gamma=0.05, n_max=4)
        got = mean_b2_poisson(1, 0.01, p)
        assert abs(got - 0.49504950495049505) < 1e-12

    def test_zero_coupling(self):
        p = JcmParams(gamma=0.0, n_max=4)
        assert mean_b2_poisson(1, 0.3, p) == 0.0

    @pytest.mark.parametrize("lam", [1e-4, 1e-2, 1.0, 1e2])
    @pytest.mark.parametrize("n", [1, 5])
    @pytest.mark.parametrize("dc", [0.0, 0.5])
    def test_against_quadrature(self, lam, n, dc):
        p = JcmParams(omega_a=2 * math.pi, omega_b=2 * math.pi + dc, gamma=0.05, n_max=8)
        got = mean_b2_poisson(n, lam, p)
        want = poisson_average_quadrature(n, lam, p)
        assert abs(got - want) <= 1e-8 * max(abs(want), 1e-30)

    def test_fast_limit_first_order(self):
        p = JcmParams(gamma=0.05, n_max=4)
        lam = 100 * p.gamma
        exact = mean_b2_poisson(2, lam, p)
        first = mean_b2_first_order(2, lam, p)
        assert abs(exact - first) / first < 4 * 2 * p.gamma ** 2 * 4 / lam ** 2 + 1e-3


class TestEinsteinRate:
    def test_single_photon_ground_atom(self):
        p = JcmParams(omega_a=2 * math.pi, omega_b=2 * math.pi, gamma=0.05, n_max=4)
        state = AtomFieldState(p_n=(0.0, 1.0), sigma_e=0.0, sigma_g=1.0)
        lam = 0.3
        want = 2 * lam * p.gamma ** 2 / lam ** 2
        assert abs(einstein_rate(state, lam, p) - want) < 1e-14
        # cross-check composition with the averaged exchange probability
        composed = lam * mean_b2_first_order(1, lam, p)
        assert abs(einstein_rate(state, lam, p) - composed) < 1e-14

    def test_detailed_balance_zero(self):
        p = JcmParams(n_max=6)
        state = geometric_steady_state(200, sigma_e=0.3, sigma_g=0.7)
        assert abs(einstein_rate(state, 0.5, p)) < 1e-10

    def test_lorentzian_half_width(self):
        lam = 2.0
        state = AtomFieldState(p_n=(0.0, 1.0), sigma_e=0.0, sigma_g=1.0)
        p0 = JcmParams(omega_a=2 * math.pi, omega_b=2 * math.pi, gamma=0.001, n_max=2)
        pd = JcmParams(omega_a=2 * math.pi, omega_b=2 * math.pi + lam, gamma=0.001, n_max=2)
        assert abs(einstein_rate(state, lam, pd) / einstein_rate(state, lam, p0) - 0.5) < 1e-12


class TestPnMasterStep:
    def test_steady_state_unchanged(self):
        p = JcmParams(gamma=0.05, n_max=30)
        state = geometric_steady_state(30, sigma_e=0.25, sigma_g=0.75)
        b2 = [0.0] + [mean_b2_poisson(n, 0.05, p) for n in range(1, 31)]
        out = pn_master_step(state, b2)
        np.testing.assert_allclose(out.p_n, state.p_n, atol=1e-14)

    def test_full_emission_step(self):
        state = AtomFieldState(p_n=(0.0, 1.0), sigma_e=0.0, sigma_g=1.0)
        out = pn_master_step(state, [0.0, 1.0])
        np.testing.assert_allclose(out.p_n, (1.0, 0.0), atol=1e-14)

    def test_probability_conserved(self):
        rng = np.random.default_rng(21)
        p = rng.random(12)
        p /= p.sum()
        state = AtomFieldState(p_n=tuple(p), sigma_e=0.4, sigma_g=0.6)
        b2 = [0.0] + list(0.3 * rng.random(11))
        out = pn_master_step(state, b2)
        assert abs(sum(out.p_n) - 1.0) < 1e-14

    def test_negative_probability_raises(self):
        # coefficients beyond the unitarity bound drive populations negative
        state = AtomFieldState(p_n=(0.0, 1.0, 0.0), sigma_e=0.0, sigma_g=1.0)
        with pytest.raises(NumericError):
            pn_master_step(state, [0.0, 2.0, 0.5])

    def test_convergence_to_geometric(self):
        p = JcmParams(omega_a=2 * math.pi, omega_b=2 * math.pi, gamma=0.05, n_max=25)
        sigma_e, sigma_g = 0.2, 0.8
        b2 = [0.0] + [mean_b2_poisson(n, 0.02, p) for n in range(1, 26)]
        state = AtomFieldState(p_n=(0.0,) * 10 + (1.0,) + (0.0,) * 15,
                               sigma_e=sigma_e, sigma_g=sigma_g)
        target = geometric_steady_state(25, sigma_e, sigma_g)
        for _ in range(6000):
            state = pn_master_step(state, b2)
        tv = 0.5 * sum(abs(a - b) for a, b in zip(state.p_n, target.p_n))
        assert tv < 1e-8


def test_transfer_probabilities_start_at_zero():
    assert transfer_probabilities(3, 4.0, RESONANT)[0] == 0.0
