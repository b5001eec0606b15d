"""Dense complex linear algebra primitives for finite-dimensional bipartite systems.

States and operators are thin immutable wrappers around numpy arrays with the
usual physical invariants enforced at construction (hermiticity, unit trace,
positivity, normalization).  Units follow hbar = k_B = 1 throughout, so all
energies are angular frequencies and all entropies are in nats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .errors import DimensionError, PositivityError, PreconditionError, SizeLimitError

# Largest joint dimension the dense representation will accept.
MAX_JOINT_DIM = 4096

HERMITIAN_TOL = 1e-12
NORM_TOL = 1e-12
TRACE_TOL = 1e-10
EIGMIN_TOL = 1e-10
UNITARY_TOL = 1e-10


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

    @property
    def dim(self) -> int:
        return self.vec.shape[0]

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
        tr = np.trace(m).real
        if abs(tr - 1.0) >= TRACE_TOL:
            raise ValueError(f"density matrix trace {tr!r} deviates from 1 beyond 1e-10")
        evals = np.linalg.eigvalsh(m)
        if evals.min() < -EIGMIN_TOL:
            raise PositivityError(f"density matrix has eigenvalue {evals.min():.3e} < -1e-10")
        object.__setattr__(self, "mat", m)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


@dataclass(frozen=True)
class Propagator:
    """Cached eigendecomposition of a Hermitian operator.

    Evolution for any time reuses the decomposition, which is what makes
    thousands of interval evolutions under one Hamiltonian cheap.
    """

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
        m = as_matrix(h)
        if np.abs(m - m.conj().T).max() >= 1e-10:
            raise ValueError("propagator requires a Hermitian operator")
        evals, evecs = np.linalg.eigh(m)
        prop = cls(evals, evecs)
        if np.abs((evecs * evals) @ evecs.conj().T - m).max() >= 1e-10:
            raise ValueError("eigendecomposition failed to reconstruct operator within 1e-10")
        return prop


def as_matrix(x) -> np.ndarray:
    """The complex matrix behind an Operator or DensityMatrix, or an array as is."""
    return np.asarray(getattr(x, "mat", x), dtype=complex)


def hermitian_part(m: np.ndarray) -> np.ndarray:
    """(M + M^+) / 2, for a matrix or a stack of them."""
    return 0.5 * (m + m.conj().swapaxes(-1, -2))


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


def superoperator(fn, d: int) -> np.ndarray:
    """Row-major matrix S of a linear map on d x d matrices: S vec(rho) = vec(fn(rho)).

    ``fn`` is applied once, to the stack of the d^2 matrix units, and must map
    a stack of matrices to the stack of their images.
    """
    units = np.eye(d * d, dtype=complex).reshape(d * d, d, d)
    return fn(units).reshape(d * d, d * d).T


def populations(rho: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Diagonal of rho in the orthonormal basis given by the columns of ``vecs``."""
    return np.einsum("ij,jk,ki->i", vecs.conj().T, rho, vecs).real


def diagonal_populations(rho, basis: Propagator, what: str) -> np.ndarray:
    """Populations (clipped at 0) of a state that must be diagonal in ``basis``.

    Raises PreconditionError when an off-diagonal element exceeds 1e-9; this
    is the contract of every reservoir state, which the measurement dephases.
    """
    v = basis.eigenvectors
    in_basis = v.conj().T @ as_matrix(rho) @ v
    pops = np.diag(in_basis)
    if np.abs(in_basis - np.diag(pops)).max() > 1e-9:
        raise PreconditionError(f"{what} is not diagonal in the reservoir energy basis")
    return np.clip(pops.real, 0.0, None)


def _kind_mat(x):
    if isinstance(x, Operator):
        return "op", x.mat
    if isinstance(x, DensityMatrix):
        return "dm", x.mat
    if isinstance(x, StateVector):
        return "sv", x.vec
    raise TypeError(f"unsupported operand type {type(x).__name__}")


def tensor_product(a, b):
    """Kronecker product of two same-kind objects, A as the slow index."""
    ka, ma = _kind_mat(a)
    kb, mb = _kind_mat(b)
    if ka != kb:
        raise TypeError("tensor_product operands must be of the same kind")
    dim = (ma.shape[0]) * (mb.shape[0])
    if dim > MAX_JOINT_DIM:
        raise SizeLimitError(f"joint dimension {dim} exceeds maximum {MAX_JOINT_DIM}")
    out = np.kron(ma, mb)
    if ka == "op":
        return Operator(out, hermitian=a.hermitian and b.hermitian)
    if ka == "dm":
        return DensityMatrix(out)
    return StateVector(out)


def partial_trace(rho: Union[DensityMatrix, np.ndarray], dims: tuple[int, int], keep: str) -> DensityMatrix:
    """Trace out one factor of a bipartite density matrix.

    ``dims = (dA, dB)`` with A the slow Kronecker index; ``keep`` is "A" or "B".
    """
    m = as_matrix(rho)
    da, db = dims
    if m.shape != (da * db, da * db):
        raise DimensionError(f"matrix shape {m.shape} does not match dims {dims}")
    return DensityMatrix(marginal(m, dims, keep))


def evolve(state, prop: Propagator, t: float):
    """Unitary evolution of a StateVector or DensityMatrix for time t >= 0."""
    if t < 0:
        raise ValueError("evolution time must be non-negative")
    v = prop.eigenvectors
    phase = np.exp(-1j * prop.eigenvalues * t)
    if isinstance(state, StateVector):
        if state.dim != prop.dim:
            raise DimensionError("state and propagator dimensions differ")
        return StateVector(v @ (phase * (v.conj().T @ state.vec)))
    if isinstance(state, DensityMatrix):
        if state.dim != prop.dim:
            raise DimensionError("state and propagator dimensions differ")
        rt = v.conj().T @ state.mat @ v
        rt = rt * np.outer(phase, phase.conj())
        out = v @ rt @ v.conj().T
        return DensityMatrix(0.5 * (out + out.conj().T))
    raise TypeError(f"unsupported state type {type(state).__name__}")


def _spectrum(rho, floor: float = -1e-8) -> np.ndarray:
    evals = np.linalg.eigvalsh(as_matrix(rho))
    if evals.min() < floor:
        raise PositivityError(f"eigenvalue {evals.min():.3e} below positivity floor {floor}")
    return np.clip(evals, 0.0, None)


def shannon_entropy(p: np.ndarray) -> float:
    """-sum p ln p over the positive entries (0 ln 0 := 0)."""
    p = np.asarray(p, dtype=float)
    pos = p[p > 0]
    return float(-(pos * np.log(pos)).sum())


def von_neumann_entropy(rho, floor: float = -1e-8) -> float:
    """S = -Tr rho ln rho, in nats; eigenvalues below ``floor`` raise."""
    return shannon_entropy(_spectrum(rho, floor))


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
    r_evals = _spectrum(rm)
    term1 = -shannon_entropy(r_evals)
    term2 = float((diag_in_sigma[~null] * np.log(s_evals[~null])).sum())
    return term1 - term2


def diag_entropy(rho, basis: Propagator) -> float:
    """Shannon entropy of the populations of rho in the given eigenbasis."""
    m = as_matrix(rho)
    if m.shape[0] != basis.dim:
        raise DimensionError("state and basis dimensions differ")
    return shannon_entropy(np.clip(populations(m, basis.eigenvectors), 0.0, None))


def trace_distance(rho, sigma) -> float:
    """Half the trace norm of rho - sigma."""
    return float(0.5 * np.abs(np.linalg.eigvalsh(as_matrix(rho) - as_matrix(sigma))).sum())
