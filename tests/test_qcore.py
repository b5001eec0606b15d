import numpy as np
import pytest

from qtherm.errors import DimensionError, PositivityError, SizeLimitError
from qtherm.qcore import (
    DensityMatrix,
    Operator,
    Propagator,
    StateVector,
    diag_entropy,
    evolve,
    marginal,
    partial_trace,
    relative_entropy,
    superoperator,
    tensor_product,
    trace_distance,
    von_neumann_entropy,
)

SIGMA_Z = np.diag([1.0, -1.0]).astype(complex)


def random_density(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    r = m @ m.conj().T
    return DensityMatrix(r / np.trace(r).real)


def brute_force_partial_trace(rho, da, db, keep):
    out_dim = da if keep == "A" else db
    out = np.zeros((out_dim, out_dim), dtype=complex)
    for i in range(da):
        for j in range(db):
            for k in range(da):
                for l in range(db):
                    if keep == "A" and j == l:
                        out[i, k] += rho[i * db + j, k * db + l]
                    if keep == "B" and i == k:
                        out[j, l] += rho[i * db + j, k * db + l]
    return out


class TestTypes:
    def test_operator_hermitian_flag(self):
        Operator(SIGMA_Z, hermitian=True)
        with pytest.raises(ValueError):
            Operator(np.array([[0, 1], [0, 0]], dtype=complex), hermitian=True)

    def test_state_vector_norm(self):
        with pytest.raises(ValueError):
            StateVector(np.array([1.0, 1.0]))

    def test_density_matrix_invariants(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.eye(2))  # trace 2
        with pytest.raises(PositivityError):
            DensityMatrix(np.diag([1.5, -0.5]).astype(complex))

    def test_immutability(self):
        op = Operator(SIGMA_Z)
        with pytest.raises(ValueError):
            op.mat[0, 0] = 2.0


class TestTensorProduct:
    def test_identity(self):
        ia, ib = Operator(np.eye(3)), Operator(np.eye(2))
        np.testing.assert_allclose(tensor_product(ia, ib).mat, np.eye(6))

    def test_trace_multiplicative(self):
        rng = np.random.default_rng(1)
        rho = tensor_product(random_density(rng, 3), random_density(rng, 2))
        assert abs(np.trace(rho.mat) - 1.0) < 1e-12

    def test_sigma_z_spectrum(self):
        big = tensor_product(Operator(SIGMA_Z, hermitian=True), Operator(np.eye(2)))
        # oracle: direct 4x4 eigensolve
        evals = np.linalg.eigvalsh(big.mat)
        np.testing.assert_allclose(evals, [-1.0, -1.0, 1.0, 1.0], atol=1e-14)

    def test_size_limit(self):
        big = Operator(np.eye(70))
        with pytest.raises(SizeLimitError):
            tensor_product(big, big)


class TestPartialTrace:
    def test_product_state_recovery(self):
        rng = np.random.default_rng(2)
        rho_a, rho_b = random_density(rng, 3), random_density(rng, 2)
        joint = tensor_product(rho_a, rho_b)
        np.testing.assert_allclose(partial_trace(joint, (3, 2), "A").mat, rho_a.mat, atol=1e-12)
        np.testing.assert_allclose(partial_trace(joint, (3, 2), "B").mat, rho_b.mat, atol=1e-12)

    def test_bell_state(self):
        bell = StateVector(np.array([1, 0, 0, 1]) / np.sqrt(2))
        reduced = partial_trace(bell.projector(), (2, 2), "A")
        np.testing.assert_allclose(reduced.mat, np.eye(2) / 2, atol=1e-14)

    @pytest.mark.parametrize("keep", ["A", "B"])
    def test_against_brute_force(self, keep):
        rng = np.random.default_rng(3)
        rho = random_density(rng, 6)
        got = partial_trace(rho, (3, 2), keep).mat
        want = brute_force_partial_trace(rho.mat, 3, 2, keep)
        np.testing.assert_allclose(got, want, atol=1e-13)
        assert abs(np.trace(got) - 1.0) < 1e-12

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(4)
        with pytest.raises(DimensionError):
            partial_trace(random_density(rng, 6), (4, 2), "A")

    @pytest.mark.parametrize("keep", ["A", "B"])
    def test_marginal_of_a_stack(self, keep):
        rng = np.random.default_rng(5)
        stack = np.array([random_density(rng, 6).mat for _ in range(4)]).reshape(2, 2, 6, 6)
        got = marginal(stack, (3, 2), keep)
        for idx in np.ndindex(2, 2):
            np.testing.assert_allclose(got[idx], brute_force_partial_trace(stack[idx], 3, 2, keep),
                                       atol=1e-13)


def test_superoperator_is_row_major():
    # row-major vec: vec(A rho B) = kron(A, B^T) vec(rho)
    rng = np.random.default_rng(6)
    a, b = (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) for _ in range(2))
    np.testing.assert_allclose(superoperator(lambda rho: a @ rho @ b, 3), np.kron(a, b.T),
                               atol=1e-14)


class TestEvolve:
    def setup_method(self):
        rng = np.random.default_rng(5)
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        self.h = Operator((m + m.conj().T) / 2, hermitian=True)
        self.prop = Propagator.from_operator(self.h)

    def test_zero_time_is_identity(self):
        psi = StateVector(np.array([1, 0, 0, 0], dtype=complex))
        np.testing.assert_allclose(evolve(psi, self.prop, 0.0).vec, psi.vec, atol=1e-14)

    def test_eigenstate_stationary(self):
        v = self.prop.eigenvectors[:, 0]
        rho = DensityMatrix(np.outer(v, v.conj()))
        out = evolve(rho, self.prop, 3.7)
        np.testing.assert_allclose(out.mat, rho.mat, atol=1e-12)

    def test_trace_and_hermiticity_preserved(self):
        rng = np.random.default_rng(6)
        rho = random_density(rng, 4)
        out = evolve(rho, self.prop, 11.3)
        assert abs(np.trace(out.mat) - 1.0) < 1e-10
        assert np.abs(out.mat - out.mat.conj().T).max() < 1e-10
        assert np.linalg.eigvalsh(out.mat).min() > -1e-9

    def test_negative_time_rejected(self):
        rng = np.random.default_rng(7)
        with pytest.raises(ValueError):
            evolve(random_density(rng, 4), self.prop, -1.0)


class TestEntropies:
    def test_pure_state_zero(self):
        psi = StateVector(np.array([1, 0], dtype=complex))
        assert von_neumann_entropy(psi.projector()) == 0.0

    def test_maximally_mixed(self):
        assert abs(von_neumann_entropy(DensityMatrix(np.eye(2) / 2)) - np.log(2)) < 1e-14

    def test_additivity_on_products(self):
        rng = np.random.default_rng(8)
        rho_a, rho_b = random_density(rng, 3), random_density(rng, 4)
        joint = tensor_product(rho_a, rho_b)
        s = von_neumann_entropy(joint)
        assert abs(s - von_neumann_entropy(rho_a) - von_neumann_entropy(rho_b)) < 1e-10

    def test_unitary_invariance(self):
        rng = np.random.default_rng(9)
        rho = random_density(rng, 4)
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        prop = Propagator.from_operator(Operator((m + m.conj().T) / 2))
        assert abs(von_neumann_entropy(evolve(rho, prop, 2.1)) - von_neumann_entropy(rho)) < 1e-10


class TestRelativeEntropy:
    def test_self_is_zero(self):
        rng = np.random.default_rng(10)
        rho = random_density(rng, 3)
        assert abs(relative_entropy(rho, rho)) < 1e-10

    def test_pure_vs_mixed_analytic(self):
        ground = DensityMatrix(np.diag([1.0, 0.0]).astype(complex))
        mixed = DensityMatrix(np.eye(2) / 2)
        assert abs(relative_entropy(ground, mixed) - np.log(2)) < 1e-12

    def test_definition_oracle(self):
        rng = np.random.default_rng(11)
        rho, sigma = random_density(rng, 4), random_density(rng, 4)
        # oracle: -S(rho) - Tr rho ln sigma via explicit eigensolves
        se, sv = np.linalg.eigh(sigma.mat)
        ln_sigma = (sv * np.log(se)) @ sv.conj().T
        want = -von_neumann_entropy(rho) - np.trace(rho.mat @ ln_sigma).real
        assert abs(relative_entropy(rho, sigma) - want) < 1e-10

    def test_klein_positivity_random(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            rho, sigma = random_density(rng, 3), random_density(rng, 3)
            assert relative_entropy(rho, sigma) >= -1e-10

    def test_support_violation_returns_inf(self):
        pure = DensityMatrix(np.diag([0.0, 1.0]).astype(complex))
        other = DensityMatrix(np.diag([1.0, 0.0]).astype(complex))
        assert relative_entropy(other, pure) == np.inf


class TestDiagEntropy:
    def test_diagonal_state_matches_von_neumann(self):
        rho = DensityMatrix(np.diag([0.7, 0.3]).astype(complex))
        basis = Propagator.from_operator(Operator(SIGMA_Z, hermitian=True))
        assert abs(diag_entropy(rho, basis) - von_neumann_entropy(rho)) < 1e-12

    def test_superposition_in_energy_basis(self):
        plus = StateVector(np.array([1, 1]) / np.sqrt(2))
        basis = Propagator.from_operator(Operator(SIGMA_Z, hermitian=True))
        assert abs(diag_entropy(plus.projector(), basis) - np.log(2)) < 1e-12

    def test_dominates_von_neumann(self):
        rng = np.random.default_rng(13)
        basis = Propagator.from_operator(Operator(SIGMA_Z, hermitian=True))
        for _ in range(25):
            rho = random_density(rng, 2)
            assert diag_entropy(rho, basis) >= von_neumann_entropy(rho) - 1e-10


def test_resonant_exchange_transfers_excitation():
    # |n-1, e> evolves to |n, g> (up to phase) after half a Rabi cycle
    from qtherm.models import JcmParams, build_jcm

    p = JcmParams(omega_a=2 * np.pi, omega_b=2 * np.pi, gamma=0.05, n_max=4, rwa=True)
    sys = build_jcm(p)
    for n in (1, 3):
        psi0 = np.zeros(sys.dim, dtype=complex)
        psi0[(n - 1) * 2 + 1] = 1.0
        t_pi = np.pi / (2 * p.gamma * np.sqrt(n))
        out = evolve(StateVector(psi0), sys.propagator, t_pi)
        assert abs(abs(out.vec[n * 2 + 0]) ** 2 - 1.0) < 1e-10


def test_trace_distance_basic():
    a = DensityMatrix(np.diag([1.0, 0.0]).astype(complex))
    b = DensityMatrix(np.diag([0.0, 1.0]).astype(complex))
    assert abs(trace_distance(a, b) - 1.0) < 1e-14
    assert trace_distance(a, a) < 1e-14
