import numpy as np
import pytest

from qtherm.engine import _JointFrame
from qtherm.errors import PositivityError
from qtherm.generators import (assemble_joint_fast_generator, assemble_joint_weak_generator,
                               decompose)
from qtherm.models import JcmParams, JointSystem, build_jcm
from qtherm.qcore import (
    DensityMatrix,
    Operator,
    Propagator,
    StateVector,
    connected_blocks,
    expect,
    gksl_matrix,
    marginal,
    populations,
    propagate_grid,
    relative_entropy,
    shannon_entropy,
    trace_distance,
    von_neumann_entropy,
)

SIGMA_Z = np.diag([1.0, -1.0]).astype(complex)


def random_density(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    r = m @ m.conj().T
    return DensityMatrix(r / np.trace(r).real)


def random_frame(rng, da, db):
    """Eigenframe of a random coupled system, drawn as verify's Klein check draws one."""
    def herm(d):
        m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        return (m + m.conj().T) / 2

    return _JointFrame(JointSystem(dim_a=da, dim_b=db,
                                   h_a=Operator(herm(da), hermitian=True),
                                   h_b=Operator(herm(db), hermitian=True),
                                   h_ab=Operator(herm(da * db), hermitian=True),
                                   gamma=float(rng.uniform(0.05, 0.5))))


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

    def test_propagator_checks_scale_with_the_operator(self):
        # eigh's reconstruction error grows with the entries, so at max|H| ~ 1e7 it
        # is far above an absolute 1e-10; the checks are relative to max(1, max|H|)
        rng = np.random.default_rng(5)
        m = rng.normal(size=(30, 30)) + 1j * rng.normal(size=(30, 30))
        h = 1e6 * (m + m.conj().T)
        prop = Propagator.from_operator(h)
        back = (prop.eigenvectors * prop.eigenvalues) @ prop.eigenvectors.conj().T
        np.testing.assert_allclose(back, h, rtol=0, atol=1e-10 * np.abs(h).max())

    def test_immutability(self):
        op = Operator(SIGMA_Z)
        with pytest.raises(ValueError):
            op.mat[0, 0] = 2.0


class TestPartialTrace:
    def test_product_state_recovery(self):
        rng = np.random.default_rng(2)
        rho_a, rho_b = random_density(rng, 3), random_density(rng, 2)
        joint = np.kron(rho_a.mat, rho_b.mat)
        np.testing.assert_allclose(marginal(joint, (3, 2), "A"), rho_a.mat, atol=1e-12)
        np.testing.assert_allclose(marginal(joint, (3, 2), "B"), rho_b.mat, atol=1e-12)

    def test_bell_state(self):
        bell = StateVector(np.array([1, 0, 0, 1]) / np.sqrt(2))
        reduced = marginal(bell.projector().mat, (2, 2), "A")
        np.testing.assert_allclose(reduced, np.eye(2) / 2, atol=1e-14)

    @pytest.mark.parametrize("keep", ["A", "B"])
    def test_against_brute_force(self, keep):
        rng = np.random.default_rng(3)
        rho = random_density(rng, 6)
        got = marginal(rho.mat, (3, 2), keep)
        want = brute_force_partial_trace(rho.mat, 3, 2, keep)
        np.testing.assert_allclose(got, want, atol=1e-13)
        assert abs(np.trace(got) - 1.0) < 1e-12

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(4)
        with pytest.raises(ValueError):
            marginal(random_density(rng, 6).mat, (4, 2), "A")

    @pytest.mark.parametrize("keep", ["A", "B"])
    def test_marginal_of_a_stack(self, keep):
        rng = np.random.default_rng(5)
        stack = np.array([random_density(rng, 6).mat for _ in range(4)]).reshape(2, 2, 6, 6)
        got = marginal(stack, (3, 2), keep)
        for idx in np.ndindex(2, 2):
            np.testing.assert_allclose(got[idx], brute_force_partial_trace(stack[idx], 3, 2, keep),
                                       atol=1e-13)


class TestEvolve:
    """The engine's exact propagator: ``apply`` for rho, ``to_frame`` and
    ``evolve_rows`` for state vectors."""

    def setup_method(self):
        self.frame = random_frame(np.random.default_rng(5), 2, 2)

    def test_zero_time_is_identity(self):
        psi = np.array([1, 0, 0, 0], dtype=complex)
        out = self.frame.evolve_rows(self.frame.to_frame(psi[None]), np.array([0.0]))
        np.testing.assert_allclose(out[0], psi, atol=1e-14)
        rho = random_density(np.random.default_rng(7), 4).mat
        np.testing.assert_allclose(self.frame.apply(rho, [0.0])[0], rho, atol=1e-14)

    def test_eigenstate_stationary(self):
        v = self.frame.w[:, 0]
        rho = np.outer(v, v.conj())
        np.testing.assert_allclose(self.frame.apply(rho, [3.7])[0], rho, atol=1e-12)
        out = self.frame.evolve_rows(self.frame.to_frame(v[None]), np.array([3.7]))
        assert abs(abs(np.vdot(v, out[0])) - 1.0) < 1e-12

    def test_vector_of_times_stacks_single_times(self):
        # one call over a vector of times is the stack of one-time calls, bit for bit
        rho = random_density(np.random.default_rng(8), 4).mat
        taus = np.array([0.0, 0.3, 2.5, 2.5, 17.0])
        got = self.frame.apply(rho, taus)
        assert got.shape == (len(taus), 4, 4)
        want = np.array([self.frame.apply(rho, [t])[0] for t in taus])
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(self.frame.hab_expect(got, taus),
                                      [self.frame.hab_expect(w[None], [t])[0]
                                       for w, t in zip(want, taus)])

    def test_trace_and_hermiticity_preserved(self):
        rng = np.random.default_rng(6)
        out = self.frame.apply(random_density(rng, 4).mat, [11.3])[0]
        assert abs(np.trace(out) - 1.0) < 1e-10
        assert np.abs(out - out.conj().T).max() < 1e-10
        assert np.linalg.eigvalsh(out).min() > -1e-9


class TestEntropies:
    def test_pure_state_zero(self):
        psi = StateVector(np.array([1, 0], dtype=complex))
        assert von_neumann_entropy(psi.projector()) == 0.0

    def test_maximally_mixed(self):
        assert abs(von_neumann_entropy(DensityMatrix(np.eye(2) / 2)) - np.log(2)) < 1e-14

    def test_additivity_on_products(self):
        rng = np.random.default_rng(8)
        rho_a, rho_b = random_density(rng, 3), random_density(rng, 4)
        s = von_neumann_entropy(np.kron(rho_a.mat, rho_b.mat))
        assert abs(s - von_neumann_entropy(rho_a) - von_neumann_entropy(rho_b)) < 1e-10

    def test_unitary_invariance(self):
        rng = np.random.default_rng(9)
        rho = random_density(rng, 4)
        out = random_frame(rng, 2, 2).apply(rho.mat, [2.1])[0]
        assert abs(von_neumann_entropy(out) - von_neumann_entropy(rho)) < 1e-10


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
    """Entropy of the populations in an energy basis, taken as the ledger takes B's."""

    basis = Propagator.from_operator(Operator(SIGMA_Z, hermitian=True))

    def entropy(self, rho):
        return shannon_entropy(populations(rho.mat, self.basis.eigenvectors))

    def test_diagonal_state_matches_von_neumann(self):
        rho = DensityMatrix(np.diag([0.7, 0.3]).astype(complex))
        assert abs(self.entropy(rho) - von_neumann_entropy(rho)) < 1e-12

    def test_superposition_in_energy_basis(self):
        plus = StateVector(np.array([1, 1]) / np.sqrt(2))
        assert abs(self.entropy(plus.projector()) - np.log(2)) < 1e-12

    def test_dominates_von_neumann(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            rho = random_density(rng, 2)
            assert self.entropy(rho) >= von_neumann_entropy(rho) - 1e-10


def test_expect_and_populations_of_a_matrix_and_a_stack():
    # a non-Hermitian op, so that Tr(op rho) is complex and expect keeps its real part
    rng = np.random.default_rng(21)
    op = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    stack = np.array([random_density(rng, 4).mat for _ in range(5)])
    want = [np.trace(op @ r).real for r in stack]
    assert abs(expect(op, stack[2]) - want[2]) < 1e-14
    np.testing.assert_allclose(expect(op, stack), want, rtol=0, atol=1e-14)
    vecs = Propagator.from_operator(op + op.conj().T).eigenvectors
    per_matrix = [populations(r, vecs) for r in stack]
    np.testing.assert_allclose(per_matrix, [np.diag(vecs.conj().T @ r @ vecs).real
                                            for r in stack], rtol=0, atol=1e-15)
    np.testing.assert_allclose(populations(stack, vecs), per_matrix, rtol=0, atol=1e-15)
    # a subset of the columns reads only those levels
    np.testing.assert_allclose(populations(stack, vecs[:, [3, 1]]),
                               np.array(per_matrix)[:, [3, 1]], rtol=0, atol=1e-15)


@pytest.mark.parametrize("d,n", [(15, 40), (8, 3), (30, 1)])
def test_populations_keep_the_two_temporary_product_bit_for_bit(d, n):
    # the in-place product swaps the operands of the two-temporary form; numpy's fused
    # complex product can round the imaginary parts differently, but not the real parts
    rng = np.random.default_rng(d)
    stack = rng.normal(size=(n, d, d)) + 1j * rng.normal(size=(n, d, d))
    vecs = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    for rho, v in ((stack, vecs), (stack[0], vecs), (stack, vecs[:, [2, 0]])):
        want = (v.conj() * (rho @ v)).sum(axis=-2).real
        assert populations(rho, v).tobytes() == want.tobytes()


def test_resonant_exchange_transfers_excitation():
    # |n-1, e> evolves to |n, g> (up to phase) after half a Rabi cycle
    p = JcmParams(omega_a=2 * np.pi, omega_b=2 * np.pi, gamma=0.05, n_max=4, rwa=True)
    sys = build_jcm(p)
    frame = _JointFrame(sys)
    for n in (1, 3):
        psi0 = np.zeros(sys.dim, dtype=complex)
        psi0[(n - 1) * 2 + 1] = 1.0
        t_pi = np.pi / (2 * p.gamma * np.sqrt(n))
        out = frame.evolve_rows(frame.to_frame(psi0[None]), np.array([t_pi]))[0]
        assert abs(abs(out[n * 2 + 0]) ** 2 - 1.0) < 1e-10


def test_trace_distance_basic():
    a = DensityMatrix(np.diag([1.0, 0.0]).astype(complex))
    b = DensityMatrix(np.diag([0.0, 1.0]).astype(complex))
    assert abs(trace_distance(a, b) - 1.0) < 1e-14
    assert trace_distance(a, a) < 1e-14


def test_gksl_matrix_holds_one_temporary_beside_the_result():
    # R = L^+ is a transposed view, as every caller passes it; kron of the view
    # R^T used to come out in its layout and be copied by kron's reshape, so that
    # with the sum assembly held three d^2 x d^2 arrays at once (peak 3.0x the result)
    import tracemalloc

    rng = np.random.default_rng(8)
    d = 20
    left, w, v = (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for _ in range(3))
    parts = (left, left.conj().T, [(w, v), (v, w)])
    tracemalloc.start()
    try:
        out = gksl_matrix(parts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.2 * out.nbytes, peak / out.nbytes
    eye = np.eye(d)
    want = np.kron(left, eye) + np.kron(eye, left.conj())
    want += np.kron(w, v.conj())
    want += np.kron(v, w.conj())
    np.testing.assert_array_equal(out, want)


@pytest.mark.parametrize("spacing", ["geomspace", "linspace"])
def test_propagate_grid_matches_expm_at_every_point(spacing):
    # every step of a geomspace grid differs, so each takes a fresh expm; the
    # steps of a linspace grid lie a rounding apart and reuse one matrix
    from scipy.linalg import expm

    sys = build_jcm(JcmParams(gamma=0.3, n_max=2))
    gen = assemble_joint_weak_generator(decompose(sys, 0.5))
    y0 = random_density(np.random.default_rng(4), sys.dim).mat.reshape(-1)
    t0 = 0.7
    grid = t0 + (np.geomspace(1e-2, 40.0, 60) if spacing == "geomspace"
                 else np.linspace(0.0, 40.0, 60))
    got = propagate_grid(gen, y0, t0, grid)
    for t, y in zip(grid, got):
        np.testing.assert_allclose(y, expm((t - t0) * gen) @ y0, rtol=0, atol=1e-12)


class TestConnectedBlocks:
    @staticmethod
    def csgraph_blocks(pattern):
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import connected_components

        _, labels = connected_components(csr_matrix(pattern), directed=False)
        order = np.argsort(labels, kind="stable")
        return [b.tolist() for b in np.split(order, np.cumsum(np.bincount(labels))[:-1])]

    def test_chain_cycle_and_isolated_indices(self):
        # a 150-long chain visited in shuffled order, with one-way edges only (the
        # pattern is not symmetric) and pointers that take several jumping passes to
        # reach the root, a 3-cycle, an index with only a self-loop and one with nothing
        n = 155
        rng = np.random.default_rng(3)
        perm = rng.permutation(n)
        chain, cycle, loop, isolated = perm[:150], perm[150:153], perm[153], perm[154]
        pattern = np.zeros((n, n), dtype=bool)
        pattern[chain[:-1], chain[1:]] = True
        pattern[cycle, np.roll(cycle, 1)] = True
        pattern[loop, loop] = True
        got = [b.tolist() for b in connected_blocks(pattern)]
        assert got == self.csgraph_blocks(pattern)
        assert sorted(chain.tolist()) in got and sorted(cycle.tolist()) in got
        assert [loop] in got and [isolated] in got and len(got) == 4

    @pytest.mark.parametrize("rwa", [False, True], ids=["full", "rwa"])
    @pytest.mark.parametrize("kind", ["weak", "fast"])
    def test_averaged_generators_match_csgraph(self, kind, rwa):
        # the partition, and the block order, that the blockwise propagator used from scipy
        sys = build_jcm(JcmParams(n_max=6, rwa=rwa))
        gen = (assemble_joint_weak_generator(decompose(sys, 0.1)) if kind == "weak"
               else assemble_joint_fast_generator(sys, 5.0))
        got = [b.tolist() for b in connected_blocks(gen != 0)]
        assert got == self.csgraph_blocks(gen != 0)
