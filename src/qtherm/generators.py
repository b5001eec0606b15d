"""Measurement-averaged generators of the reduced dynamics.

The coupling is split into frequency sectors V_omega connecting uncoupled
eigenstates whose energies differ by omega.  Averaging second-order
perturbation theory over exponential measurement times gives a dissipator
with coefficients

    d(w, w') = (lam - i w)(lam + i w')(lam - i (w - w'))
    s(w, w') = (2 lam - i (w - w')) / d
    a(w, w') = (w + w') / d

plus a first-order commutator with H_tilde = sum_w V_w / (lam - i w).  The
opposite, fast-measurement regime is an expansion in 1/lam whose second-order
term is a double-commutator dissipator.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm
from scipy.sparse import csr_matrix

from .engine import IntervalRun, check_horizon, check_rate, run_intervals
from .errors import DegenerateSteadyStateError, NumericError, PreconditionError
from .models import JointSystem, thermal_state
from .qcore import (Operator, DensityMatrix, as_matrix, hermitian_part, marginal,
                    populations, superoperator)


@dataclass(frozen=True)
class GeneratorSpec:
    """Frequency sectors and averaged coefficients for one (system, lam) pair.

    V_omega operators are stored in the storage basis of the joint space and
    satisfy V(-w) = V(w)^+ and sum_w V_w = H_AB.
    """

    sys: JointSystem
    lam: float
    frequencies: np.ndarray
    v_ops: tuple[np.ndarray, ...]
    s_coef: np.ndarray
    a_coef: np.ndarray
    d_coef: np.ndarray
    gamma: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "gamma", self.sys.gamma)

    @property
    def n_sectors(self) -> int:
        return len(self.frequencies)

    def h_tilde(self) -> np.ndarray:
        """Averaged first-order coupling sum_w V_w / (lam - i w)."""
        out = np.zeros((self.sys.dim, self.sys.dim), dtype=complex)
        for w, v in zip(self.frequencies, self.v_ops):
            out = out + v / (self.lam - 1j * w)
        return out


def decompose(sys: JointSystem, lam: float, tol: float | None = None) -> GeneratorSpec:
    """Split H_AB into frequency sectors of the uncoupled Hamiltonian.

    Frequencies closer than ``tol`` (default 1e-9 * max|omega|) are binned
    together; binning is symmetric so that V(-w) = V(w)^+ holds exactly.
    A rate that is not positive and finite is a ConfigError.
    """
    check_rate(lam)
    e_a = sys.basis_a.eigenvalues
    e_b = sys.basis_b.eigenvalues
    w0 = np.kron(sys.basis_a.eigenvectors, sys.basis_b.eigenvectors)
    e0 = (e_a[:, None] + e_b[None, :]).reshape(-1)
    hab_eig = w0.conj().T @ sys.h_ab.mat @ w0
    omega = e0[:, None] - e0[None, :]

    scale = float(np.abs(omega).max()) if omega.size else 0.0
    if tol is None:
        tol = 1e-9 * scale if scale > 0 else 1e-12
    if tol <= 0:
        raise ValueError("binning tolerance must be positive")

    # cluster |omega| so sectors come in symmetric +-pairs
    mags = np.sort(np.unique(np.abs(omega).ravel()))
    reps: list[float] = []
    group: list[float] = []
    for v in mags:
        if group and v - group[-1] > tol:
            reps.append(float(np.mean(group)))
            group = []
        group.append(v)
    if group:
        reps.append(float(np.mean(group)))
    reps = [0.0 if r < tol else r for r in reps]

    freqs: list[float] = []
    mats: list[np.ndarray] = []
    for r in reps:
        members = [r] if r == 0.0 else [r, -r]
        for w in members:
            if w == 0.0:
                mask = np.abs(omega) <= tol
            else:
                mask = (np.abs(np.abs(omega) - r) <= tol) & ((omega > 0) == (w > 0))
            block = np.where(mask, hab_eig, 0.0)
            if np.abs(block).max() <= 1e-14 * max(np.abs(hab_eig).max(), 1.0):
                continue
            freqs.append(w)
            mats.append(w0 @ block @ w0.conj().T)

    order = np.argsort(freqs)
    freqs_arr = np.array([freqs[i] for i in order])
    mats_tup = tuple(mats[i] for i in order)

    n = len(freqs_arr)
    d_coef = np.empty((n, n), complex)
    s_coef = np.empty((n, n), complex)
    a_coef = np.empty((n, n), complex)
    for i, w in enumerate(freqs_arr):
        for j, wp in enumerate(freqs_arr):
            d = (lam - 1j * w) * (lam + 1j * wp) * (lam - 1j * (w - wp))
            d_coef[i, j] = d
            s_coef[i, j] = (2 * lam - 1j * (w - wp)) / d
            a_coef[i, j] = (w + wp) / d
    return GeneratorSpec(sys=sys, lam=lam, frequencies=freqs_arr, v_ops=mats_tup,
                         s_coef=s_coef, a_coef=a_coef, d_coef=d_coef)


def _check_product(rho: np.ndarray, da: int, db: int) -> None:
    rho_a = marginal(rho, (da, db), "A")
    rho_b = marginal(rho, (da, db), "B")
    if np.abs(rho - np.kron(rho_a, rho_b)).max() > 1e-8:
        raise PreconditionError("input must be a product state rho_A (x) rho_B")


def dissipator_apply(spec: GeneratorSpec, rho: np.ndarray) -> np.ndarray:
    """Second-order averaged dissipator acting on a joint density matrix or a stack of them.

    In GKSL form, sum_j W_j rho V_j^+ + X rho + rho X^+ with
    W_j = sum_i s_ij V_i and X = sum_ij (-s_ij / 2 + i a_ij / 2) V_j^+ V_i.
    """
    d = spec.sys.dim
    v = np.array(spec.v_ops, dtype=complex).reshape(-1, d, d)
    w = np.einsum("ij,ikl->jkl", spec.s_coef, v)
    x = np.einsum("ij,jlk,ilm->km", 0.5j * spec.a_coef - 0.5 * spec.s_coef, v.conj(), v)
    out = x @ rho + rho @ x.conj().T
    for vj, wj in zip(v, w):
        out = out + wj @ rho @ vj.conj().T
    return out


def _weak_increment(spec: GeneratorSpec, rho: np.ndarray) -> np.ndarray:
    # -i gamma [H_tilde, rho] + gamma^2 L'[rho], on a matrix or a stack of them
    g = spec.gamma
    ht = spec.h_tilde()
    return -1j * g * (ht @ rho - rho @ ht) + g * g * dissipator_apply(spec, rho)


def weak_map(spec: GeneratorSpec, rho_ab0) -> np.ndarray:
    """Expected change of the joint state over one measured interval.

    Returns -i gamma [H_tilde, rho] + gamma^2 L'[rho]; trace-free, evaluated in
    the interaction frame of the uncoupled Hamiltonian.  The input must be a
    product state (the post-measurement form).
    """
    rho = as_matrix(rho_ab0)
    _check_product(rho, spec.sys.dim_a, spec.sys.dim_b)
    return _weak_increment(spec, rho)


# ---------------------------------------------------------------------------
# Reduced (system-only) weak-coupling master equation


def assemble_reduced_generator(spec: GeneratorSpec, beta: float) -> np.ndarray:
    """Dense generator of d rho_A/dt = -i[H_A, rho_A] + gamma^2 lam Tr_B L'[rho_A (x) rho_B].

    Expressed in the energy eigenbasis of H_A acting on the row-major
    vectorization of rho_A.  The reservoir is the thermal state at ``beta``.
    """
    sys = spec.sys
    va, e_a = sys.basis_a.eigenvectors, sys.basis_a.eigenvalues
    rho_b = thermal_state(sys.h_b, beta).mat
    rate = spec.gamma ** 2 * spec.lam

    def rhs(rho_a):
        # a stack of (dA, dA) kron one (dB, dB): the stack of products rho_A (x) rho_B
        joint = np.kron(va @ rho_a @ va.conj().T, rho_b[None])
        diss = marginal(dissipator_apply(spec, joint), (sys.dim_a, sys.dim_b), "A")
        return -1j * (e_a[:, None] - e_a[None, :]) * rho_a + rate * (va.conj().T @ diss @ va)

    return superoperator(rhs, sys.dim_a)


def population_rates(gen: np.ndarray, da: int) -> np.ndarray:
    """Transition rates n -> m read off a vectorized generator's population block."""
    idx = np.arange(da) * (da + 1)
    return gen[np.ix_(idx, idx)].real


@dataclass(frozen=True)
class SteadyStateResult:
    """Null state of a generator plus the two lowest-level populations."""

    rho_ss: DensityMatrix
    p0: float
    p1: float
    beta_eff: float
    residual: float


def steady_state(superoperator: np.ndarray, h_a: Operator | np.ndarray | None = None) -> SteadyStateResult:
    """Steady state as the smallest singular vector of a vectorized generator.

    The result is Hermitized and trace-normalized; a null space of dimension
    greater than one raises DegenerateSteadyStateError.  When ``h_a`` is given,
    p0/p1 are the populations of its two lowest eigenstates and
    beta_eff = -ln(p1/p0) / (E1 - E0).
    """
    gen = np.asarray(superoperator, dtype=complex)
    d2 = gen.shape[0]
    da = int(round(math.sqrt(d2)))
    if da * da != d2:
        raise ValueError("superoperator must act on a vectorized square matrix")
    _, s, vh = np.linalg.svd(gen)
    snorm = float(s.max()) if s.size else 0.0
    null_dim = int((s <= snorm * 1e-10 + 1e-300).sum())
    if null_dim > 1:
        raise DegenerateSteadyStateError(null_dim)
    rho = hermitian_part(vh[-1].conj().reshape(da, da))
    tr = np.trace(rho).real
    if abs(tr) < 1e-14:
        raise NumericError("steady-state candidate has vanishing trace")
    rho = rho / tr
    residual = float(np.linalg.norm(gen @ rho.reshape(-1)))
    evals = np.linalg.eigvalsh(rho)
    if evals.min() < -1e-9:
        raise NumericError(f"steady state not positive: min eigenvalue {evals.min():.2e}")
    rho = rho - np.eye(da) * min(evals.min(), 0.0)
    rho = rho / np.trace(rho).real
    p0 = p1 = beta_eff = math.nan
    if h_a is not None:
        evals_a, vecs_a = np.linalg.eigh(as_matrix(h_a))
        pops = populations(rho, vecs_a)
        p0, p1 = float(pops[0]), float(pops[1])
        gap = float(evals_a[1] - evals_a[0])
        if p0 > 0 and p1 > 0 and gap > 0:
            beta_eff = -math.log(p1 / p0) / gap
    return SteadyStateResult(rho_ss=DensityMatrix(rho), p0=p0, p1=p1,
                             beta_eff=beta_eff, residual=residual)


def lindblad_propagate(spec: GeneratorSpec, rho_a0, rho_b0, t_grid,
                       measurement_protocol: str = "continuous",
                       intervals: np.ndarray | None = None,
                       seed: int | None = None) -> np.ndarray:
    """Propagate the weak-coupling dynamics of rho_A over ``t_grid``.

    "continuous" integrates the reduced master equation with an adaptive
    explicit scheme.  "interval" evolves the joint state under the averaged
    second-order generator in measured intervals (drawn at rate lam from
    ``seed`` unless given explicitly), applying the reservoir-replacement map
    after each one; only the time-propagator differs from the exact process.
    Returns the stack of rho_A matrices at the grid times (storage basis).
    """
    t_grid = np.asarray(t_grid, dtype=float)
    sys = spec.sys
    da = sys.dim_a
    rho_a0 = as_matrix(rho_a0)
    rho_b_mat = as_matrix(rho_b0)
    if measurement_protocol == "continuous":
        beta = _beta_of_state(sys, rho_b_mat)
        gen = assemble_reduced_generator(spec, beta)
        va = sys.basis_a.eigenvectors
        y0 = (va.conj().T @ rho_a0 @ va).reshape(-1)

        def f(t, y):
            return gen @ y

        sol = solve_ivp(f, (float(t_grid[0]), float(t_grid[-1])), y0, t_eval=t_grid,
                        rtol=1e-10, atol=1e-12, method="RK45")
        if not sol.success:
            raise NumericError(f"continuous propagation failed: {sol.message}")
        r = hermitian_part(sol.y.T.reshape(-1, da, da))
        if np.linalg.eigvalsh(r).min() < -1e-7:
            raise NumericError("positivity violated beyond 1e-7 during propagation")
        return va @ r @ va.conj().T
    if measurement_protocol != "interval":
        raise ValueError("measurement_protocol must be 'continuous' or 'interval'")
    run = weak_interval_run(spec, rho_b_mat, rho_a0, horizon=float(t_grid[-1]),
                            seed=0 if seed is None else seed,
                            intervals=intervals, checkpoint_times=t_grid)
    # the averaged propagator works in the rotating frame of the uncoupled
    # Hamiltonian; restore the free phase so coherences read in the lab frame
    va = sys.basis_a.eigenvectors
    ph = np.exp(-1j * np.outer(run.checkpoint_times, sys.basis_a.eigenvalues))
    rt = va.conj().T @ run.checkpoint_rho_a @ va
    return va @ (rt * ph[:, :, None] * ph[:, None, :].conj()) @ va.conj().T


def _beta_of_state(sys: JointSystem, rho_b: np.ndarray) -> float:
    """Inverse temperature of a reservoir state diagonal in the energy basis."""
    e_b = sys.basis_b.eigenvalues
    pops = np.clip(populations(rho_b, sys.basis_b.eigenvectors), 1e-300, None)
    if sys.dim_b != 2:
        # fit: least squares of ln p against -beta e
        d = np.polyfit(e_b, np.log(pops), 1)
        return float(-d[0])
    return float(-(math.log(pops[1]) - math.log(pops[0])) / (e_b[1] - e_b[0]))


def assemble_joint_weak_generator(spec: GeneratorSpec) -> np.ndarray:
    """Joint-space generator of the averaged second-order updates at rate lam."""
    # one averaged update per mean interval
    return superoperator(lambda rho: spec.lam * _weak_increment(spec, rho), spec.sys.dim)


def assemble_joint_fast_generator(sys: JointSystem, lam: float) -> np.ndarray:
    """Joint-space generator of the fast-measurement expansion at rate lam."""
    return superoperator(lambda rho: lam * _fast_increment(sys, rho, lam), sys.dim)


class _LinearPropagator:
    """exp(t G) for a vectorized generator G, one independent block at a time.

    The connected components of G's nonzero pattern are ``blocks`` of indices
    that G never couples to each other (for the averaged generators, ket/bra
    parity or excitation-number sectors), so exp(t G) is block-diagonal in
    them.  Each block is eigendecomposed on its own; a block whose
    eigenvectors are too ill-conditioned to invert (cond >= 1e10, a defective
    block) is propagated with a dense ``expm`` of that block alone, listed in
    ``expm_blocks``.

    As the interval walk's propagator it evolves the joint state in the
    rotating frame of the uncoupled Hamiltonian, where <H_AB> at time tau is
    the phase-weighted sum over the frequency ``sectors`` (omega, V_omega).
    The averaged generators are of GKSL form with a positive coefficient
    matrix, but that matrix is nearly singular at small lam, so in floating
    point (or for a generator the caller supplies) positivity and the trace
    are not exactly preserved: each interval's joint state is checked against
    ``positivity_floor`` and the state of A is re-normalized before the next
    interval.
    """

    positivity_floor = -1e-5         # joint eigenvalues and the ledger's entropies
    checkpoint_floor = -1e-4         # S_A at the checkpoints

    def __init__(self, gen: np.ndarray, sectors):
        # imported here, as loading csgraph adds ~1 MB of RSS to every run without one
        from scipy.sparse.csgraph import connected_components

        self.sectors = tuple(sectors)
        self.dim = int(round(math.sqrt(gen.shape[0])))
        _, labels = connected_components(csr_matrix(gen != 0), directed=False)
        order = np.argsort(labels, kind="stable")
        self.blocks = np.split(order, np.cumsum(np.bincount(labels))[:-1])
        # blocks of one size are decomposed and applied as one stack
        self._eig = []               # (indices, evals, vr, vr^-1), each stacked over blocks
        self.expm_blocks = []        # (indices, block of G) for the ill-conditioned ones
        for size in sorted({len(b) for b in self.blocks}):
            idx = np.array([b for b in self.blocks if len(b) == size])
            g = gen[idx[:, :, None], idx[:, None, :]]
            evals, vr = np.linalg.eig(g)
            ok = np.linalg.cond(vr) < 1e10
            self._eig.append((idx[ok], evals[ok], vr[ok], np.linalg.inv(vr[ok])))
            self.expm_blocks.extend(zip(idx[~ok], g[~ok]))

    def apply(self, theta: np.ndarray, t: float) -> np.ndarray:
        x = theta.reshape(-1)
        out = np.empty(x.shape, dtype=complex)
        for idx, evals, vr, vr_inv in self._eig:
            coeff = (vr_inv @ x[idx][..., None])[..., 0] * np.exp(evals * t)
            out[idx] = (vr @ coeff[..., None])[..., 0]
        for idx, g in self.expm_blocks:
            out[idx] = expm(g * t) @ x[idx]
        return hermitian_part(out.reshape(self.dim, self.dim))

    def evolve(self, joint0: np.ndarray, tau: float) -> np.ndarray:
        return self.apply(joint0, tau)

    def hab_expect(self, joint: np.ndarray, tau: float) -> float:
        tot = 0.0 + 0.0j
        for w, v in self.sectors:
            tot += np.exp(1j * w * tau) * np.trace(joint @ v)
        return float(tot.real)

    def check_positivity(self, joint: np.ndarray) -> float:
        ev_min = float(np.linalg.eigvalsh(joint).min())
        if ev_min < self.positivity_floor:
            raise NumericError(f"joint state positivity lost ({ev_min:.2e}) in interval protocol")
        return ev_min

    def next_state(self, rho_a: np.ndarray) -> np.ndarray:
        return rho_a / np.trace(rho_a).real


def weak_interval_run(spec: GeneratorSpec, rho_b0, rho_a0, horizon: float,
                      seed: int = 0, intervals: np.ndarray | None = None,
                      checkpoint_times: np.ndarray | None = None,
                      beta: float | None = None,
                      generator: np.ndarray | None = None) -> IntervalRun:
    """Run the averaged-propagator comparison protocol with full bookkeeping.

    Same cycle as the exact process, through the same interval walk --
    couple, evolve one sampled interval, measure-and-replace -- except that
    the coupled propagator is replaced by the averaged second-order generator
    (or an explicitly supplied one).  Heat and work ledgers use the same
    reservoir-side definitions as the exact engine.
    """
    sys = spec.sys
    rho_b = as_matrix(rho_b0)
    if beta is None:
        beta = _beta_of_state(sys, rho_b)
    prop = _LinearPropagator(assemble_joint_weak_generator(spec) if generator is None
                             else generator, zip(spec.frequencies, spec.v_ops))
    if checkpoint_times is None:
        check_horizon(horizon)      # before linspace, which would warn on an infinite one
        checkpoint_times = np.linspace(0.0, horizon, 121)
    run = run_intervals(prop, sys, as_matrix(rho_a0), lambda k: (beta, rho_b), horizon,
                        checkpoint_times, spec.lam, seed, intervals)
    run.meta.update(beta=beta, protocol="interval", propagator_blocks=len(prop.blocks),
                    largest_block=max(len(b) for b in prop.blocks))
    return run


def fast_interval_run(sys: JointSystem, lam: float, rho_b0, rho_a0, horizon: float,
                      seed: int = 0, intervals: np.ndarray | None = None,
                      checkpoint_times: np.ndarray | None = None,
                      beta: float | None = None) -> IntervalRun:
    """Interval protocol driven by the fast-measurement generator instead."""
    spec = decompose(sys, lam)
    return weak_interval_run(spec, rho_b0, rho_a0, horizon, seed=seed,
                             intervals=intervals, checkpoint_times=checkpoint_times,
                             beta=beta, generator=assemble_joint_fast_generator(sys, lam))


# ---------------------------------------------------------------------------
# Fast measurement limit


def _fast_dissipator(hab: np.ndarray, rho: np.ndarray) -> np.ndarray:
    # -[H_AB, [H_AB, rho]] = 2 H_AB rho H_AB - {H_AB^2, rho}
    hab2 = hab @ hab
    return 2.0 * hab @ rho @ hab - hab2 @ rho - rho @ hab2


def _fast_increment(sys: JointSystem, rho: np.ndarray, lam: float) -> np.ndarray:
    # the fast-measurement expansion through O(gamma^2/lam^2), on a matrix or a stack
    g = sys.gamma
    hab = sys.h_ab.mat
    h0 = sys.uncoupled_h
    nested = h0 @ hab - hab @ h0
    out = (-1j * g / lam) * (hab @ rho - rho @ hab)
    out = out + (g / lam ** 2) * (nested @ rho - rho @ nested)
    return out + (g * g / lam ** 2) * _fast_dissipator(hab, rho)


def fast_map(sys: JointSystem, rho_ab0, lam: float) -> np.ndarray:
    """Expected interval change in the fast-measurement expansion.

    All terms through O(gamma^2/lam^2): the first-order commutators (trace-free
    and population-free) and the double-commutator dissipator
    2 H_AB rho H_AB - {H_AB^2, rho}.  Valid for lam >> gamma; a warning is
    emitted otherwise.  A rate that is not positive and finite is a ConfigError.
    """
    check_rate(lam)
    g = sys.gamma
    if g > 0 and lam < 10 * g:
        warnings.warn("fast-measurement expansion used with lam < 10 gamma",
                      stacklevel=2)
    return _fast_increment(sys, as_matrix(rho_ab0), lam)


def fast_map_reduced(sys: JointSystem, rho_a, rho_b_pops: np.ndarray, lam: float) -> np.ndarray:
    """d rho_A/dt of the fast-measurement master equation (dissipator part).

    (gamma^2/lam) Tr_B[2 H_AB rho H_AB - {H_AB^2, rho}] at rho = rho_A (x) rho_B,
    with rho_B diagonal in the B energy basis with populations ``rho_b_pops``.
    """
    v_b = sys.basis_b.eigenvectors
    rho_b = (v_b * np.asarray(rho_b_pops, dtype=float)) @ v_b.conj().T
    joint = np.kron(as_matrix(rho_a), rho_b)
    diss = _fast_dissipator(sys.h_ab.mat, joint)
    return (sys.gamma ** 2 / lam) * marginal(diss, (sys.dim_a, sys.dim_b), "A")


# ---------------------------------------------------------------------------
# Low-temperature four-state model and the minimum temperature


def min_temp_predict(lam: float, omega: float) -> float:
    """Cold-reservoir limit of the excited/ground population ratio.

    p1/p0 -> (lam/2w)^2 / ((lam/2w)^2 + 1); the matching effective inverse
    temperature is -ln(p1/p0)/omega.
    """
    if lam <= 0 or omega <= 0:
        raise ValueError("lam and omega must be positive")
    u = (lam / (2.0 * omega)) ** 2
    return u / (u + 1.0)


def four_state_rate(lam: float, omega: float, gamma: float,
                    sigma_e: float, sigma_g: float,
                    p0: float, p1: float) -> tuple[float, float]:
    """Energy flow and steady ratio of the four lowest joint levels.

    Applies when the coupling drives both the resonant exchange (energy
    difference zero) and the simultaneous excitation (difference 2 omega) with
    equal weight:

    dH_A/dt = [2 (w/lam) gamma^2 / ((lam/2w)^2 + 1)]
              [ (lam/2w)^2 (p0 - p1) + sigma_e p0 - sigma_g p1 ]
    steady p1/p0 = ((lam/2w)^2 + sigma_e) / ((lam/2w)^2 + sigma_g).
    """
    if min(sigma_e, sigma_g, p0, p1) < 0:
        raise ValueError("probabilities must be non-negative")
    u = (lam / (2.0 * omega)) ** 2
    pref = 2.0 * (omega / lam) * gamma ** 2 / (u + 1.0)
    dha_dt = pref * (u * (p0 - p1) + sigma_e * p0 - sigma_g * p1)
    steady = (u + sigma_e) / (u + sigma_g)
    return dha_dt, steady


def simultaneous_excitation_mean(lam: float, omega: float, gamma: float,
                                 sigma_e: float, sigma_g: float, n_mean: float) -> float:
    """Average number of simultaneous cavity+qubit excitations per interval."""
    return 2.0 * gamma ** 2 / (lam ** 2 + (2.0 * omega) ** 2) * (
        sigma_g * (n_mean + 1.0) - sigma_e * n_mean)
