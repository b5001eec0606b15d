"""Dense complex linear algebra primitives for finite-dimensional bipartite systems.

States and operators are thin immutable wrappers around numpy arrays with the
usual physical invariants enforced at construction (hermiticity, unit trace,
positivity, normalization).  The averaged propagator and the steady-state
solve share a generator's one real form here, in the traceless Hermitian basis
of Gorini, Kossakowski & Sudarshan (1976), and an inverse's one conditioning
test.  With hbar = k_B = 1, energies are angular frequencies, entropies nats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .errors import DimensionError, PositivityError, PreconditionError, SizeLimitError

HERMITIAN_TOL = 1e-12
NORM_TOL = 1e-12
TRACE_TOL = 1e-10
EIGMIN_TOL = 1e-10
UNITARY_TOL = 1e-10
COND_MAX = 1e10                  # 1-norm condition number ``well_conditioned_inverse`` refuses
_SQRT_HALF = math.sqrt(0.5)

# Largest d^2 x d^2 complex array that ``gksl_matrix`` builds, its result; a joint
# space of 62 (n_max = 30) needs 0.22 GiB.
MAX_SUPEROP_BYTES = 2 ** 29


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.array(arr, dtype=complex, copy=True)
    arr.setflags(write=False)
    return arr


def _require_finite(arr: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(arr.view(float))):
        raise ValueError(f"{what} contains non-finite entries")


@dataclass(frozen=True)
class Operator:
    """Square complex matrix, optionally asserted Hermitian at construction."""

    mat: np.ndarray
    hermitian: bool = False

    def __post_init__(self):
        m = _freeze(self.mat)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionError(f"operator must be square, got shape {m.shape}")
        _require_finite(m, "operator")
        if self.hermitian and np.abs(m - m.conj().T).max() >= HERMITIAN_TOL:
            raise ValueError("operator marked hermitian but max|M - M^+| >= 1e-12")
        object.__setattr__(self, "mat", m)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


@dataclass(frozen=True)
class StateVector:
    """Normalized complex amplitude vector."""

    vec: np.ndarray

    def __post_init__(self):
        v = _freeze(self.vec).reshape(-1)
        _require_finite(v, "state vector")
        nrm = np.linalg.norm(v)
        if abs(nrm - 1.0) >= NORM_TOL:
            raise ValueError(f"state vector norm {nrm!r} deviates from 1 beyond 1e-12")
        object.__setattr__(self, "vec", v)

    def projector(self) -> "DensityMatrix":
        return DensityMatrix(np.outer(self.vec, self.vec.conj()))


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix."""

    mat: np.ndarray

    def __post_init__(self):
        m = _freeze(self.mat)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionError(f"density matrix must be square, got shape {m.shape}")
        _require_finite(m, "density matrix")
        if np.abs(m - m.conj().T).max() >= HERMITIAN_TOL:
            raise ValueError("density matrix not hermitian within 1e-12")
        tr = float(np.trace(m).real)
        if abs(tr - 1.0) >= TRACE_TOL:
            raise ValueError(f"density matrix trace {tr!r} deviates from 1 beyond 1e-10")
        evals = np.linalg.eigvalsh(m)
        if evals.min() < -EIGMIN_TOL:
            raise PositivityError(f"density matrix has eigenvalue {evals.min():.3e} < -1e-10")
        object.__setattr__(self, "mat", m)


@dataclass(frozen=True)
class Propagator:
    """Eigendecomposition of a Hermitian operator: an energy basis
    (``JointSystem.basis_a``, ``basis_b``), and for the coupled Hamiltonian
    the eigenframe in which ``engine._JointFrame`` evolves states."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    dim: int = field(init=False)

    def __post_init__(self):
        ev = np.array(self.eigenvalues, dtype=float, copy=True)
        vv = _freeze(self.eigenvectors)
        ev.setflags(write=False)
        d = ev.shape[0]
        if vv.shape != (d, d):
            raise DimensionError("eigenvector matrix shape does not match eigenvalues")
        if np.abs(vv.conj().T @ vv - np.eye(d)).max() >= UNITARY_TOL:
            raise ValueError("eigenvector matrix is not unitary within 1e-10")
        object.__setattr__(self, "eigenvalues", ev)
        object.__setattr__(self, "eigenvectors", vv)
        object.__setattr__(self, "dim", d)

    @classmethod
    def from_operator(cls, h: Union[Operator, np.ndarray]) -> "Propagator":
        """Eigendecomposition of ``h``, checked to 1e-10 max(1, max|h|) as eigh's rounding is."""
        m = as_matrix(h)
        tol = 1e-10 * max(1.0, float(np.abs(m).max(initial=0.0)))
        if np.abs(m - m.conj().T).max() >= tol:
            raise ValueError("propagator requires a Hermitian operator")
        evals, evecs = np.linalg.eigh(m)
        prop = cls(evals, evecs)
        if np.abs((evecs * evals) @ evecs.conj().T - m).max() >= tol:
            raise ValueError(f"eigendecomposition failed to reconstruct operator within {tol:.1e}")
        return prop


def as_matrix(x) -> np.ndarray:
    """The complex matrix behind an Operator or DensityMatrix, or an array as is."""
    return np.asarray(getattr(x, "mat", x), dtype=complex)


def hermitian_part(m: np.ndarray) -> np.ndarray:
    """(M + M^+) / 2, for a matrix or a stack of them, with one temporary array."""
    out = np.conjugate(m.swapaxes(-1, -2), order="C")
    out += m
    out *= 0.5
    return out


def marginal(joint: np.ndarray, dims: tuple[int, int], keep: str) -> np.ndarray:
    """Partial trace of a bipartite (dA dB) matrix, or of a stack of them, as a plain array.

    ``dims = (dA, dB)`` with A the slow Kronecker index; ``keep`` is "A" or "B".
    Leading axes of ``joint`` are kept.
    """
    da, db = dims
    r = joint.reshape(joint.shape[:-2] + (da, db, da, db))
    if keep == "A":
        return np.einsum("...abcb->...ac", r)
    if keep == "B":
        return np.einsum("...abad->...bd", r)
    raise ValueError("keep must be 'A' or 'B'")


def check_superop_size(d: int) -> None:
    """SizeLimitError when one d^2 x d^2 complex array would exceed MAX_SUPEROP_BYTES."""
    if (nbytes := 16 * d ** 4) > MAX_SUPEROP_BYTES:
        raise SizeLimitError(f"a dense superoperator on a {d}-dimensional space needs "
                             f"{nbytes / 2 ** 30:.1f} GiB per array, more than the "
                             f"{MAX_SUPEROP_BYTES / 2 ** 30:.1f} GiB limit")


def gksl(parts: tuple, rho: np.ndarray) -> np.ndarray:
    """L rho + rho R + sum_j W_j rho V_j^+ of GKSL parts (L, R, [(W_j, V_j)]), on rho or a stack."""
    left, right, pairs = parts
    out = left @ rho + rho @ right
    for w, v in pairs:
        out += w @ rho @ v.conj().T
    return out


def gksl_matrix(parts: tuple) -> np.ndarray:
    """Row-major matrix of ``gksl(parts, .)``, kron(L, 1) + kron(1, R^T) + sum_j kron(W_j, conj V_j)
    added in that order into the first, once ``check_superop_size`` has passed it.  Each later
    term is added through the result's (d, d, d, d) view, a row of its first factor at a time in
    kron's operand order (so to kron's bits): one d^3 temporary is held beside the result."""
    left, right, pairs = parts
    d = len(left)
    check_superop_size(d)
    eye = np.eye(d)
    out = np.kron(left, eye)
    rows = out.reshape(d, d, d, d)           # rows[i, k, j, l] = out[i d + k, j d + l]
    for a, b in [(eye, right.T), *((w, v.conj()) for w, v in pairs)]:
        for i in range(d):
            rows[i] += a[i][None, :, None] * b[:, None, :]
    return out


def _hermitian_rows(m: np.ndarray, n_d: int, n_o: int, sign: complex = 1j) -> np.ndarray:
    # U m along the first axis, for the unitary U that takes a block's vectorized entries,
    # ordered (diagonal, upper, lower triangle), to their coordinates in the orthonormal
    # Hermitian basis E_ii, (E_ij + E_ji)/sqrt2, i(E_ij - E_ji)/sqrt2; sign -1j gives conj(U) m
    diag, upper, lower = m[:n_d], m[n_d:n_d + n_o], m[n_d + n_o:]
    return np.concatenate([diag, (upper + lower) * _SQRT_HALF,
                           (lower - upper) * (sign * _SQRT_HALF)])


def _traceless(m: np.ndarray, n_d: int) -> np.ndarray:
    # the first n_d rows of m reflected by H = 1 - 2 w w^T / |w|^2, w = e_0 - 1/sqrt(n_d),
    # which swaps e_0 and the unit vector 1/sqrt(n_d): the diagonal coordinates become
    # Tr / sqrt(n_d) and n_d - 1 traceless ones (H is symmetric and its own inverse)
    if n_d == 1:
        return m
    w = np.full(n_d, -1.0 / math.sqrt(n_d))
    w[0] += 1.0
    m = m.copy()
    m[:n_d] -= np.multiply.outer(w, w @ m[:n_d]) * (2.0 / (w @ w))
    return m


def hermitian_block(gen: np.ndarray, idx: np.ndarray, dim: int) -> tuple:
    """(idx, herm, g, row): block ``idx`` of a generator on row-major dim x dim matrices.

    A block with diagonal entries that is closed under (i, j) -> (j, i) comes reordered
    (diagonal, upper, lower).  If, in the Hermitian basis, its imaginary part and trace row
    (the sum of the E_ii rows) are within 1e-10 of its largest entry, as a GKSL generator's
    are, g is real on ``to_real``'s coordinates with row 0, the trace row, set to an exact
    zero; herm is (n_d, n_o) and row that row's 1-norm.  Else g is the complex block.
    """
    i, j = np.divmod(idx, dim)
    diag, upper = idx[i == j], idx[i < j]
    lower = (j * dim + i)[i < j]          # the mirror images of the upper triangle
    if not (diag.size and diag.size + 2 * upper.size == idx.size and np.isin(lower, idx).all()):
        return idx, None, gen[np.ix_(idx, idx)], 0.0
    idx, herm = np.concatenate([diag, upper, lower]), (diag.size, upper.size)
    g = gen[np.ix_(idx, idx)]
    h = _hermitian_rows(_hermitian_rows(g, *herm).T, *herm, sign=-1j).T   # U g U^+
    tol = 1e-10 * np.abs(h).max()
    row = np.abs(h.real[:diag.size].sum(axis=0))
    if not (np.abs(h.imag).max() <= tol and row.max() <= tol):
        return idx, None, g, 0.0
    h = _traceless(_traceless(h.real, diag.size).T, diag.size).T       # H h H
    h[0] = 0.0
    return idx, herm, h, float(row.sum())


def to_real(x: np.ndarray, n_d: int, n_o: int) -> np.ndarray:
    """The real coordinates of Hermitian entries x, along the first axis, in ``hermitian_block``'s
    order: [Re x_ii, sqrt2 Re x_ij, sqrt2 Im x_ij], the x_ii reflected by ``_traceless``."""
    return _traceless(_hermitian_rows(x, n_d, n_o).real, n_d)


def from_real(z: np.ndarray, n_d: int, n_o: int) -> np.ndarray:
    """The exactly Hermitian entries of real coordinates z: ``to_real`` inverted."""
    upper = (z[n_d:n_d + n_o] + 1j * z[n_d + n_o:]) * _SQRT_HALF
    return np.concatenate([_traceless(z[:n_d], n_d), upper, upper.conj()])


def well_conditioned_inverse(a: np.ndarray) -> tuple[np.ndarray | None, float]:
    """(a^-1, cond), cond the 1-norm condition number of a; None for a^-1 if cond >= COND_MAX."""
    try:
        inv = np.linalg.inv(a)
    except np.linalg.LinAlgError:
        return None, math.inf             # a is singular
    cond = float(np.linalg.norm(a, 1) * np.linalg.norm(inv, 1))
    return (inv if cond < COND_MAX else None), cond


def connected_blocks(pattern: np.ndarray) -> list[np.ndarray]:
    """Connected components of a square nonzero pattern, its entries taken as undirected edges.

    Every index starts as the root of its own tree.  Each pass hooks the root
    of both ends of every edge (i, j) to the smaller of their two roots, then
    points every index at its root (pointer jumping), until a pass changes
    nothing; each root is then its component's smallest index.  The blocks
    come ordered by that index, each in ascending order.
    """
    rows, cols = np.nonzero(pattern)
    root = np.arange(pattern.shape[0])
    while True:
        low = np.minimum(root[rows], root[cols])
        new = root.copy()
        np.minimum.at(new, root[rows], low)
        np.minimum.at(new, root[cols], low)
        while not (new[new] == new).all():
            new = new[new]
        if (new == root).all():
            break
        root = new
    _, counts = np.unique(root, return_counts=True)
    return np.split(np.argsort(root, kind="stable"), np.cumsum(counts)[:-1])


def propagate_grid(gen: np.ndarray, y0: np.ndarray, t0: float, t_grid) -> np.ndarray:
    """Stack of exp((t - t0) G) y0 over a sorted time grid, for a constant generator G.

    Exact up to rounding: per connected block of G (``connected_blocks``), one
    walk over the grid that holds one matrix exp(h_e G) at a time.  A step h
    within a rounding of h_e reuses it, and any other step takes a fresh
    ``expm``.  An eigendecomposition is not used, as the generators are
    non-normal.
    """
    # imported here, as scipy costs ~0.5 s and ~45 MB in every run that propagates no reference
    from scipy.linalg import expm

    t_grid = np.asarray(t_grid, dtype=float)
    steps = np.diff(t_grid, prepend=float(t0))
    if (steps < 0).any():
        raise ValueError("time grid must be sorted and start at or after t0")
    gen = np.asarray(gen, dtype=complex)
    y0 = np.asarray(y0, dtype=complex)
    out = np.zeros((len(t_grid), len(y0)), dtype=complex)
    for idx in connected_blocks(gen != 0):
        if not y0[idx].any():
            continue                 # exp(tG) keeps a block that starts at zero at zero
        g = gen[np.ix_(idx, idx)]
        norm = np.abs(g).sum(0).max()
        y, h_e, e = y0[idx], None, None
        for k, h in enumerate(steps.tolist()):
            if e is None or abs(h - h_e) * norm >= 1e-8:
                h_e, e = h, expm(h * g)
            elif h != h_e:
                # exp(hG) y = exp(h_e G)(y + (h - h_e) G y) to double precision: steps a
                # rounding apart (as in a linspace grid) leave a remainder ~|(h - h_e) G|^2 / 2
                y = y + (h - h_e) * (g @ y)
            y = out[k, idx] = e @ y
    return out


def expect(op: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Re Tr(op rho) of a matrix, or one per matrix of a stack: one O(d^2) contraction."""
    return np.einsum("...ij,ji->...", rho, op).real


def populations(rho: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Diagonal of rho, or one row per matrix of a stack, in the orthonormal columns of ``vecs``.
    The product is taken in place, so a stack costs one temporary of its size."""
    out = rho @ vecs
    out *= vecs.conj()
    return out.sum(axis=-2).real


def diagonal_populations(rho, basis: Propagator, what: str) -> np.ndarray:
    """Populations (clipped at 0) of a state that must be diagonal in ``basis``.

    Raises PreconditionError when an off-diagonal element exceeds 1e-9 (every
    reservoir state is dephased by the measurement) or when the populations
    are not a distribution (sum 1 within TRACE_TOL, none below -EIGMIN_TOL).
    """
    v = basis.eigenvectors
    in_basis = v.conj().T @ as_matrix(rho) @ v
    pops = np.diag(in_basis)
    if np.abs(in_basis - np.diag(pops)).max() > 1e-9:
        raise PreconditionError(f"{what} is not diagonal in the reservoir energy basis")
    if not abs(pops.real.sum() - 1.0) <= TRACE_TOL or not pops.real.min() >= -EIGMIN_TOL:
        raise PreconditionError(f"{what} is not a state: populations {pops.real}")
    return np.clip(pops.real, 0.0, None)


def spectrum(rho, floor: float = -1e-8) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, or one row per matrix of a stack, clipped
    at 0; an eigenvalue below ``floor`` raises PositivityError."""
    evals = np.linalg.eigvalsh(as_matrix(rho))
    if (evals < floor).any():
        raise PositivityError(f"eigenvalue {evals.min():.3e} below positivity floor {floor}")
    return np.clip(evals, 0.0, None)


def shannon_entropy(p: np.ndarray) -> np.ndarray:
    """-sum p ln p over the positive entries along the last axis (0 ln 0 := 0):
    one entropy per distribution of a stack."""
    p = np.asarray(p, dtype=float)
    return -(p * np.log(np.where(p > 0, p, 1.0))).sum(axis=-1)


def von_neumann_entropy(rho, floor: float = -1e-8) -> float:
    """S = -Tr rho ln rho, in nats; eigenvalues below ``floor`` raise."""
    return float(shannon_entropy(spectrum(rho, floor)))


def relative_entropy(rho, sigma) -> float:
    """Klein relative entropy S(rho|sigma) = Tr(rho ln rho - rho ln sigma).

    Returns +inf when rho has support outside the support of sigma.
    """
    rm, sm = as_matrix(rho), as_matrix(sigma)
    if rm.shape != sm.shape:
        raise DimensionError("relative entropy operands must share a dimension")
    s_evals, s_vecs = np.linalg.eigh(sm)
    cutoff = max(s_evals.max(), 1.0) * 1e-14
    null = s_evals <= cutoff
    diag_in_sigma = populations(rm, s_vecs)
    if null.any() and diag_in_sigma[null].sum() > 1e-10:
        return math.inf
    r_evals = spectrum(rm)
    term1 = -shannon_entropy(r_evals)
    term2 = float((diag_in_sigma[~null] * np.log(s_evals[~null])).sum())
    return term1 - term2


def trace_distance(rho, sigma) -> float:
    """Half the trace norm of rho - sigma."""
    return float(0.5 * np.abs(np.linalg.eigvalsh(as_matrix(rho) - as_matrix(sigma))).sum())
