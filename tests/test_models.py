import math

import numpy as np
import pytest

from qtherm import analytic, engine, generators
from qtherm.errors import ConfigError, SizeLimitError
from qtherm.models import (JcmParams, build_jcm, destroy, thermal_populations, thermal_state,
                           validate_coupling)
from qtherm.qcore import Operator, StateVector, populations

# the closed forms and samplers that take a measurement rate, each at one valid state point
_P = JcmParams(n_max=2)
_STATE = analytic.AtomFieldState((0.0, 1.0, 0.0), sigma_e=0.2, sigma_g=0.8)
RATE_FORMS = {
    "mean_b2_poisson": lambda lam: analytic.mean_b2_poisson(1, lam, _P),
    "mean_b2_first_order": lambda lam: analytic.mean_b2_first_order(1, lam, _P),
    "einstein_rate": lambda lam: analytic.einstein_rate(_STATE, lam, _P),
    "min_temp_predict": lambda lam: generators.min_temp_predict(lam, 2 * math.pi),
    "four_state_rate": lambda lam: generators.four_state_rate(lam, 2 * math.pi, 0.05,
                                                              0.2, 0.8, 0.9, 0.1),
    "simultaneous_excitation_mean": lambda lam: generators.simultaneous_excitation_mean(
        lam, 2 * math.pi, 0.05, 0.2, 0.8, 1.0),
    "sample_interval": lambda lam: engine.sample_interval(np.random.default_rng(0), lam),
    "absorption_rate_mc": lambda lam: engine.absorption_rate_mc(
        build_jcm(_P), StateVector(np.eye(3)[1]), 1.0, lam, n_trials=10, seed=0),
    "fast_map_reduced": lambda lam: generators.fast_map_reduced(
        build_jcm(_P), np.diag([0.0, 1.0, 0.0]), np.array([0.8, 0.2]), lam),
    "assemble_joint_fast_generator": lambda lam: generators.assemble_joint_fast_generator(
        build_jcm(_P), lam),
}


def number_op(dim):
    a = destroy(dim)
    return a.conj().T @ a


class TestBuildJcm:
    def test_ha_spectrum_two_levels(self):
        sys = build_jcm(JcmParams(omega_a=2.0, omega_b=2.0, gamma=0.1, n_max=1, rwa=True))
        np.testing.assert_allclose(np.linalg.eigvalsh(sys.h_a.mat), [1.0, 3.0], atol=1e-14)

    def test_rwa_conserves_excitation_number(self):
        p = JcmParams(gamma=0.3, n_max=5, rwa=True)
        sys = build_jcm(p)
        n_exc = np.kron(number_op(sys.dim_a), np.eye(2)) + np.kron(
            np.eye(sys.dim_a), np.diag([0.0, 1.0]))
        h = sys.total_h.mat
        assert np.abs(h @ n_exc - n_exc @ h).max() < 1e-12

    def test_counter_rotating_element(self):
        sys = build_jcm(JcmParams(n_max=3, rwa=False))
        # <0,g| H_AB |1,e> couples the doubly-de-excited pair
        bra = np.zeros(sys.dim)
        bra[0 * 2 + 0] = 1.0
        ket = np.zeros(sys.dim)
        ket[1 * 2 + 1] = 1.0
        assert abs(bra @ sys.h_ab.mat @ ket - 1.0) < 1e-14

    def test_rwa_block_matches_two_level_form(self):
        p = JcmParams(omega_a=2 * math.pi, omega_b=2 * math.pi + 0.4, gamma=0.07, n_max=6, rwa=True)
        sys = build_jcm(p)
        h = sys.total_h.mat
        for n in range(1, p.n_max + 1):
            up = (n - 1) * 2 + 1   # |n-1, e>
            dn = n * 2 + 0         # |n, g>
            block = h[np.ix_([up, dn], [up, dn])]
            ebar = p.omega_a * n
            dc = p.detuning
            half_rabi = p.gamma * math.sqrt(n)
            want = np.array([[ebar + dc / 2, half_rabi], [half_rabi, ebar - dc / 2]])
            np.testing.assert_allclose(block, want, atol=1e-12)

    def test_truncation_kills_top_raising(self):
        p = JcmParams(n_max=4, rwa=True)
        sys = build_jcm(p)
        # the top Fock level cannot be raised: column |n_max, e> -> |n_max+1, g> absent
        top_e = p.n_max * 2 + 1
        col = sys.h_ab.mat[:, top_e]
        assert np.abs(col).max() == 0.0


    def test_size_limit(self):
        # the joint dimension 2 (n_max + 1) is checked on the parameters, before any array
        JcmParams(n_max=2047)        # 4096, the largest accepted
        with pytest.raises(SizeLimitError, match="4098"):
            JcmParams(n_max=2048)


class TestThermalState:
    def test_infinite_temperature(self):
        sys = build_jcm(JcmParams(n_max=2))
        rho = thermal_state(sys.h_b, 0.0)
        np.testing.assert_allclose(rho.mat, np.eye(2) / 2, atol=1e-14)

    def test_zero_temperature_ground_projector(self):
        sys = build_jcm(JcmParams(n_max=2))
        rho = thermal_state(sys.h_b, math.inf)
        np.testing.assert_allclose(rho.mat, np.diag([1.0, 0.0]), atol=1e-14)

    def test_zero_temperature_degenerate_raises(self):
        with pytest.raises(ValueError):
            thermal_state(Operator(np.zeros((2, 2)), hermitian=True), math.inf)

    def test_qubit_ratio(self):
        sys = build_jcm(JcmParams(omega_b=2 * math.pi))
        rho = thermal_state(sys.h_b, 1.0)
        # oracle: direct exponentiation of both level weights
        want = math.exp(-2 * math.pi)
        assert abs(rho.mat[1, 1].real / rho.mat[0, 0].real - want) < 1e-12 * want

    def test_commutes_with_hamiltonian(self):
        rng = np.random.default_rng(0)
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = Operator((m + m.conj().T) / 2, hermitian=True)
        rho = thermal_state(h, 0.7)
        assert np.abs(rho.mat @ h.mat - h.mat @ rho.mat).max() < 1e-12

    def test_is_matrix_form_of_populations(self):
        rng = np.random.default_rng(1)
        m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        h = Operator((m + m.conj().T) / 2, hermitian=True)
        e, v = np.linalg.eigh(h.mat)
        pops = thermal_populations(e, 0.7)
        # oracle: Boltzmann weights of the eigenvalues
        np.testing.assert_allclose(pops, np.exp(-0.7 * e) / np.exp(-0.7 * e).sum(), rtol=1e-13)
        np.testing.assert_allclose(populations(thermal_state(h, 0.7).mat, v), pops, atol=1e-14)


class TestValidateCoupling:
    @pytest.mark.parametrize("rwa", [True, False])
    def test_jcm_passes(self, rwa):
        report = validate_coupling(build_jcm(JcmParams(n_max=4, rwa=rwa)))
        assert report.ok, report.violations

    def test_constant_shift_fails_k0(self):
        sys = build_jcm(JcmParams(n_max=2, rwa=True))
        bad = Operator(sys.h_ab.mat + 0.5 * np.eye(sys.dim), hermitian=True)
        shifted = type(sys)(
            dim_a=sys.dim_a, dim_b=sys.dim_b, h_a=sys.h_a, h_b=sys.h_b,
            h_ab=bad, gamma=sys.gamma)
        report = validate_coupling(shifted)
        ks = {(c.subsystem, c.power) for c in report.violations}
        assert ("A", 0) in ks and ("B", 0) in ks

    def test_zero_coupling_trivially_passes(self):
        sys = build_jcm(JcmParams(n_max=2))
        nul = type(sys)(
            dim_a=sys.dim_a, dim_b=sys.dim_b, h_a=sys.h_a, h_b=sys.h_b,
            h_ab=Operator(np.zeros((sys.dim, sys.dim)), hermitian=True), gamma=0.0)
        assert validate_coupling(nul).ok

    def test_brute_force_trace_oracle(self):
        sys = build_jcm(JcmParams(n_max=3, rwa=False))
        hab = sys.h_ab.mat
        da, db = sys.dim_a, sys.dim_b
        # oracle: explicit matrix products and loops
        h_b2 = sys.h_b.mat @ sys.h_b.mat
        big = np.kron(np.eye(da), h_b2) @ hab
        want = np.zeros((da, da), dtype=complex)
        for a in range(da):
            for c in range(da):
                want[a, c] = sum(big[a * db + b, c * db + b] for b in range(db))
        assert np.abs(want).max() < 1e-12


class TestCheckRate:
    @pytest.mark.parametrize("lam", [math.nan, math.inf, 0.0, -1.0, 1e101])
    @pytest.mark.parametrize("form", sorted(RATE_FORMS))
    def test_closed_forms_reject_bad_rate(self, form, lam):
        with pytest.raises(ConfigError, match="measurement rate"):
            RATE_FORMS[form](lam)

    @pytest.mark.parametrize("omega", [math.nan, 0.0, -1.0, math.inf])
    def test_min_temp_predict_rejects_bad_omega(self, omega):
        with pytest.raises(ConfigError):
            generators.min_temp_predict(0.5, omega)

    @pytest.mark.parametrize("omega", [math.nan, math.inf, 0.0, -1.0, 1e101])
    @pytest.mark.parametrize("form", ["four_state_rate", "simultaneous_excitation_mean"])
    def test_four_state_forms_reject_bad_omega(self, form, omega):
        # each would return NaN or -inf, or divide by zero, at such an omega
        args = {"four_state_rate": (0.05, 0.2, 0.8, 0.9, 0.1),
                "simultaneous_excitation_mean": (0.05, 0.2, 0.8, 1.0)}[form]
        with pytest.raises(ConfigError, match="omega must be positive and finite"):
            getattr(generators, form)(0.5, omega, *args)
