"""Hamiltonians and reservoir input states.

The central system (A) is a truncated single cavity mode and the reservoir (B)
a qubit, coupled by photon exchange; the counter-rotating term can be kept or
dropped.  The coupling strength gamma is stored on the side, never folded into
the coupling operator, so perturbative orders and the measurement back-action
-gamma<H_AB> need no re-factoring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, DimensionError, SizeLimitError
from .qcore import Operator, DensityMatrix, Propagator

# Population of the top Fock level above which a run is flagged truncation-suspect.
TRUNCATION_LIMIT = 1e-6

# Largest frequency, coupling or rate: the averaged generators form products of up to
# three of them (decompose's denominators), which stay finite while each is at most 1e100.
MAX_SCALE = 1e100

# Largest joint dimension 2 (n_max + 1) that JcmParams accepts: build_jcm and every CLI
# command take their size from JcmParams, so none allocates an oversized system.
MAX_JOINT_DIM = 4096


@dataclass(frozen=True)
class JcmParams:
    """Cavity/qubit model parameters (hbar = 1, angular frequency units)."""

    omega_a: float = 2 * math.pi
    omega_b: float = 2 * math.pi
    gamma: float = 0.05
    n_max: int = 14
    rwa: bool = False

    def __post_init__(self):
        # each test fails on NaN
        if not (0 < self.omega_a <= MAX_SCALE and 0 < self.omega_b <= MAX_SCALE):
            raise ConfigError(f"mode frequencies must be positive, at most {MAX_SCALE:g}")
        if not 0 <= self.gamma <= MAX_SCALE:
            raise ConfigError(f"coupling strength must be non-negative, at most {MAX_SCALE:g}")
        if self.n_max < 1:
            raise ConfigError("n_max must be at least 1")
        if (dim := 2 * (self.n_max + 1)) > MAX_JOINT_DIM:
            raise SizeLimitError(f"joint dimension 2 (n_max + 1) = {dim} exceeds the maximum "
                                 f"{MAX_JOINT_DIM}")

    @property
    def detuning(self) -> float:
        return self.omega_b - self.omega_a


@dataclass(frozen=True)
class JointSystem:
    """Bipartite system: H = H_A x 1 + 1 x H_B + gamma * H_AB.

    ``h_ab`` is stored without the gamma factor.  Kronecker ordering puts A on
    the slow index.
    """

    dim_a: int
    dim_b: int
    h_a: Operator
    h_b: Operator
    h_ab: Operator
    gamma: float

    def __post_init__(self):
        if self.h_a.dim != self.dim_a or self.h_b.dim != self.dim_b:
            raise DimensionError("subsystem Hamiltonian dimensions do not match dims")
        if self.h_ab.dim != self.dim_a * self.dim_b:
            raise DimensionError("coupling operator must live on the joint space")

    @property
    def dim(self) -> int:
        return self.dim_a * self.dim_b

    @cached_property
    def total_h(self) -> Operator:
        return Operator(self.uncoupled_h + self.gamma * self.h_ab.mat, hermitian=True)

    @cached_property
    def uncoupled_h(self) -> np.ndarray:
        ia, ib = np.eye(self.dim_a), np.eye(self.dim_b)
        return np.kron(self.h_a.mat, ib) + np.kron(ia, self.h_b.mat)

    @cached_property
    def propagator(self) -> Propagator:
        return Propagator.from_operator(self.total_h)

    @cached_property
    def basis_a(self) -> Propagator:
        return Propagator.from_operator(self.h_a)

    @cached_property
    def basis_b(self) -> Propagator:
        return Propagator.from_operator(self.h_b)


def destroy(dim: int) -> np.ndarray:
    """Truncated bosonic lowering operator (<n-1|a|n> = sqrt(n))."""
    a = np.zeros((dim, dim), dtype=complex)
    ns = np.arange(1, dim)
    a[ns - 1, ns] = np.sqrt(ns)
    return a


def build_jcm(p: JcmParams) -> JointSystem:
    """Assemble the cavity-qubit system.

    H_A = omega_a (n + 1/2), H_B = (omega_b/2)(|e><e| - |g><g|) with qubit basis
    order (g, e), and H_AB = a_A^+ a_B + a_A a_B^+, plus the counter-rotating
    a_A^+ a_B^+ + a_A a_B when ``rwa`` is False.  Truncation at n_max makes the
    raising operator annihilate the top level.
    """
    da, db = p.n_max + 1, 2
    a_a = destroy(da)
    a_b = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # |g><e|
    h_a = p.omega_a * (a_a.conj().T @ a_a + 0.5 * np.eye(da))
    h_b = 0.5 * p.omega_b * np.diag([-1.0, 1.0]).astype(complex)
    h_ab = np.kron(a_a.conj().T, a_b) + np.kron(a_a, a_b.conj().T)
    if not p.rwa:
        h_ab = h_ab + np.kron(a_a.conj().T, a_b.conj().T) + np.kron(a_a, a_b)
    return JointSystem(
        dim_a=da,
        dim_b=db,
        h_a=Operator(h_a, hermitian=True),
        h_b=Operator(h_b, hermitian=True),
        h_ab=Operator(h_ab, hermitian=True),
        gamma=p.gamma,
    )


def check_rate(lam: float, what: str = "measurement rate") -> None:
    """Reject a rate (or the quantity named ``what``) that is not positive and finite,
    or above MAX_SCALE."""
    if not 0 < lam <= MAX_SCALE:
        raise ConfigError(f"{what} must be positive and finite, at most {MAX_SCALE:g}, got {lam!r}")


def check_beta(beta) -> None:
    """Reject inverse temperatures that are negative or NaN (inf is the ground state)."""
    if not (np.asarray(beta) >= 0).all():
        raise ConfigError(f"inverse temperature must be non-negative, got {beta!r}")


def thermal_populations(energies: np.ndarray, beta: float) -> np.ndarray:
    """Gibbs weights exp(-beta E)/Z of the levels ``energies``; beta = 0 gives
    equal weights, beta = inf the ground level alone (error if the ground
    level is degenerate).  For a reservoir in its energy basis, pass
    ``sys.basis_b.eigenvalues``."""
    check_beta(beta)
    e = np.asarray(energies, dtype=float)
    if math.isinf(beta):
        ground = e - e.min() < 1e-12
        if ground.sum() > 1:
            raise ValueError("beta = inf undefined: degenerate ground state")
        return ground.astype(float)
    w = np.exp(-beta * (e - e.min()))
    return w / w.sum()


def thermal_state(h: Operator, beta: float) -> DensityMatrix:
    """Gibbs state exp(-beta H)/Z, the matrix form of ``thermal_populations``
    in the eigenbasis of H."""
    prop = Propagator.from_operator(h)
    v = prop.eigenvectors
    return DensityMatrix((v * thermal_populations(prop.eigenvalues, beta)) @ v.conj().T)


@dataclass(frozen=True)
class CouplingCheck:
    subsystem: str
    power: int
    norm: float
    ok: bool


@dataclass(frozen=True)
class CouplingReport:
    """Result of checking Tr_X[(H_X)^k H_AB] = 0 for k = 0..max_power."""

    checks: tuple[CouplingCheck, ...]
    tol: float

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def violations(self) -> tuple[CouplingCheck, ...]:
        return tuple(c for c in self.checks if not c.ok)


def validate_coupling(sys: JointSystem, max_power: int = 4, tol: float = 1e-10) -> CouplingReport:
    """Check that the coupling cannot shift an energy level of either subsystem.

    Monomials f(x) = x^k up to max_power stand in for arbitrary scalar
    functions; the report only records violations, it never raises.
    """
    if max_power < 1:
        raise ValueError("max_power must be >= 1")
    da, db = sys.dim_a, sys.dim_b
    hab = sys.h_ab.mat.reshape(da, db, da, db)
    checks = []
    pow_a = np.eye(da, dtype=complex)
    pow_b = np.eye(db, dtype=complex)
    for k in range(max_power + 1):
        # Tr_A[(H_A^k x 1) H_AB] acts on B; Tr_B[(1 x H_B^k) H_AB] acts on A.
        tr_a = np.einsum("xi,ibxc->bc", pow_a, hab)
        tr_b = np.einsum("xi,aicx->ac", pow_b, hab)
        na, nb = float(np.abs(tr_a).max(initial=0.0)), float(np.abs(tr_b).max(initial=0.0))
        checks.append(CouplingCheck("A", k, na, na < tol))
        checks.append(CouplingCheck("B", k, nb, nb < tol))
        pow_a = pow_a @ sys.h_a.mat
        pow_b = pow_b @ sys.h_b.mat
    return CouplingReport(tuple(checks), tol)
