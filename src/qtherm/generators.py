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
from dataclasses import dataclass

import numpy as np

from .engine import TRACE_DRIFT_MAX, IntervalRun, ProcessConfig, _JointFrame, run_intervals
from .errors import ConfigError, DegenerateSteadyStateError, NumericError, PreconditionError
from .models import JointSystem, check_rate, thermal_populations, thermal_state
from .qcore import (Operator, DensityMatrix, as_matrix, connected_blocks, diagonal_populations,
                    from_real, gksl, gksl_matrix, hermitian_block, hermitian_part, marginal,
                    propagate_grid, to_real, well_conditioned_inverse)


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

    @property
    def gamma(self) -> float:
        return self.sys.gamma

    def h_tilde(self) -> np.ndarray:
        """Averaged first-order coupling sum_w V_w / (lam - i w)."""
        return sum((v / (self.lam - 1j * w) for w, v in zip(self.frequencies, self.v_ops)),
                   start=np.zeros((self.sys.dim, self.sys.dim), dtype=complex))


def decompose(sys: JointSystem, lam: float) -> GeneratorSpec:
    """Split H_AB into frequency sectors of the uncoupled Hamiltonian.

    The distinct |omega_ij| are cut into clusters where consecutive values
    differ by more than 1e-9 * max|omega|.  A sector is a (cluster, sign)
    pair at +-(cluster mean), and cluster 0 is the one sector at omega = 0,
    so the sectors partition H_AB: sum_w V_w = H_AB and V(-w) = V(w)^+.
    A rate that is not positive and finite is a ConfigError.
    """
    check_rate(lam)
    e_a = sys.basis_a.eigenvalues
    e_b = sys.basis_b.eigenvalues
    w0 = np.kron(sys.basis_a.eigenvectors, sys.basis_b.eigenvectors)
    e0 = (e_a[:, None] + e_b[None, :]).reshape(-1)
    hab_eig = w0.conj().T @ sys.h_ab.mat @ w0
    omega = e0[:, None] - e0[None, :]

    scale = float(np.abs(omega).max())
    tol = 1e-9 * scale if scale > 0 else 1e-12
    mags, inverse = np.unique(np.abs(omega), return_inverse=True)
    starts = np.flatnonzero(np.diff(mags) > tol) + 1      # where clusters 1, 2, ... begin
    reps = [0.0] + [seg.mean() for seg in np.split(mags, starts)[1:]]
    cluster = np.searchsorted(starts, inverse.reshape(omega.shape), side="right")
    sector = np.sign(omega).astype(int) * cluster          # +-cluster; 0 is omega = 0

    floor = 1e-14 * max(np.abs(hab_eig).max(), 1.0)       # a sector this weak carries nothing
    kept = [k for k in sorted(set(sector.flat)) if np.abs(hab_eig[sector == k]).max() > floor]
    freqs = [np.sign(k) * reps[abs(k)] for k in kept]      # ascending k, ascending frequency
    v_ops = tuple(w0 @ np.where(sector == k, hab_eig, 0.0) @ w0.conj().T for k in kept)

    n = len(freqs)
    s_coef = np.empty((n, n), complex)
    a_coef = np.empty((n, n), complex)
    for i, w in enumerate(freqs):
        for j, wp in enumerate(freqs):
            d = (lam - 1j * w) * (lam + 1j * wp) * (lam - 1j * (w - wp))
            s_coef[i, j] = (2 * lam - 1j * (w - wp)) / d
            a_coef[i, j] = (w + wp) / d
    return GeneratorSpec(sys=sys, lam=lam, frequencies=np.array(freqs, dtype=float),
                         v_ops=v_ops, s_coef=s_coef, a_coef=a_coef)


def _dissipator_parts(spec: GeneratorSpec) -> tuple:
    # the second-order averaged dissipator as GKSL parts (X, X^+, [(W_j, V_j)]), with
    # W_j = sum_i s_ij V_i and X = sum_ij (-s_ij / 2 + i a_ij / 2) V_j^+ V_i
    v = np.array(spec.v_ops, dtype=complex).reshape(-1, spec.sys.dim, spec.sys.dim)
    w = np.einsum("ij,ikl->jkl", spec.s_coef, v)
    x = np.einsum("ij,jlk,ilm->km", 0.5j * spec.a_coef - 0.5 * spec.s_coef, v.conj(), v)
    return x, x.conj().T, list(zip(w, v))


def _weak_parts(spec: GeneratorSpec, rate: float) -> tuple:
    # rate (-i gamma [H_tilde, rho] + gamma^2 L'[rho]) as GKSL parts
    x, x_dag, pairs = _dissipator_parts(spec)
    c, h = rate * spec.gamma ** 2, (1j * rate * spec.gamma) * spec.h_tilde()
    return c * x - h, c * x_dag + h, [(c * w, v) for w, v in pairs]


def weak_map(spec: GeneratorSpec, rho_ab0) -> np.ndarray:
    """Expected change of the joint state over one measured interval.

    Returns -i gamma [H_tilde, rho] + gamma^2 L'[rho]; trace-free, evaluated in
    the interaction frame of the uncoupled Hamiltonian.  The input must be a
    product state (the post-measurement form).
    """
    rho = as_matrix(rho_ab0)
    dims = (spec.sys.dim_a, spec.sys.dim_b)
    if np.abs(rho - np.kron(marginal(rho, dims, "A"), marginal(rho, dims, "B"))).max() > 1e-8:
        raise PreconditionError("input must be a product state rho_A (x) rho_B")
    return gksl(_weak_parts(spec, 1.0), rho)


# ---------------------------------------------------------------------------
# Reduced (system-only) weak-coupling master equation


def assemble_reduced_generator(spec: GeneratorSpec, beta: float) -> np.ndarray:
    """Dense generator of d rho_A/dt = -i[H_A, rho_A] + gamma^2 lam Tr_B L'[rho_A (x) rho_B].

    Expressed in the energy eigenbasis of H_A acting on the row-major
    vectorization of rho_A.  The reservoir is the thermal state at ``beta``.
    """
    return _reduced_generator(spec, thermal_populations(spec.sys.basis_b.eigenvalues, beta))


def _reduced_generator(spec: GeneratorSpec, pops_b: np.ndarray) -> np.ndarray:
    # assemble_reduced_generator for reservoir populations p_b in its energy basis.  With
    # M_cb = <c|M|b> the B-blocks of the dissipator parts in the product energy basis, its GKSL
    # parts are L = r sum_b p_b X_bb - i H_A, R = L^+ and [(r p_b W_cb, V_cb)], r = gamma^2 lam
    sys, da, db = spec.sys, spec.sys.dim_a, spec.sys.dim_b
    u = np.kron(sys.basis_a.eigenvectors, sys.basis_b.eigenvectors)
    rate = spec.gamma ** 2 * spec.lam
    x, _, pairs = _dissipator_parts(spec)
    stack = np.array([x, *(m for pair in pairs for m in pair)])     # X, W_1, V_1, W_2, ...
    blocks = (u.conj().T @ stack @ u).reshape(-1, da, db, da, db).transpose(0, 2, 4, 1, 3)
    left = rate * np.einsum("b,bbij->ij", pops_b, blocks[0]) - np.diag(1j * sys.basis_a.eigenvalues)
    w_cb = rate * pops_b[:, None, None] * blocks[1::2]
    return gksl_matrix((left, left.conj().T,
                        list(zip(w_cb.reshape(-1, da, da), blocks[2::2].reshape(-1, da, da)))))


@dataclass(frozen=True)
class SteadyStateResult:
    """Null state, its two lowest-level populations, |G rho| and the solve's condition number."""

    rho_ss: DensityMatrix
    p0: float
    p1: float
    beta_eff: float
    residual: float
    cond: float


def steady_state(superoperator: np.ndarray, h_a: Operator | np.ndarray | None = None) -> SteadyStateResult:
    """Steady state of a vectorized GKSL generator by one real solve.

    In ``qcore.hermitian_block``'s real form G (a PreconditionError without
    one), the trace coordinate is 1/sqrt(d) and G_11 y = -g_10 / sqrt(d)
    gives the others, so rho_ss is Hermitian with trace 1, in the basis the
    generator acts in.  If G_11 fails ``qcore.well_conditioned_inverse``, the
    singular values count the null space: DegenerateSteadyStateError above
    one, else NumericError.  With ``h_a``, that basis must be its ascending
    energy basis (as for ``assemble_reduced_generator``): p0/p1 are the first
    two diagonal entries of rho_ss and beta_eff = -ln(p1/p0) / (E1 - E0)."""
    gen = np.asarray(superoperator, dtype=complex)
    d2 = gen.shape[0]
    da = int(round(math.sqrt(d2)))
    if da * da != d2:
        raise ValueError("superoperator must act on a vectorized square matrix")
    idx, herm, g, _ = hermitian_block(gen, np.arange(d2), da)
    if herm is None:
        raise PreconditionError("the generator does not keep Hermiticity and the trace")
    inv, cond = well_conditioned_inverse(g[1:, 1:])
    if inv is None:
        s = np.linalg.svd(gen, compute_uv=False)
        if (null_dim := int((s <= s.max() * 1e-10 + 1e-300).sum())) > 1:
            raise DegenerateSteadyStateError(null_dim)
        raise NumericError(f"steady-state candidate has vanishing trace (cond {cond:.1e})")
    z = np.concatenate([[1.0], -(inv @ g[1:, 0])]) / math.sqrt(da)
    rho = from_real(z, *herm)[np.argsort(idx)].reshape(da, da)
    residual = float(np.linalg.norm(gen @ rho.reshape(-1)))
    evals = np.linalg.eigvalsh(rho)
    if evals.min() < -1e-9:
        raise NumericError(f"steady state not positive: min eigenvalue {evals.min():.2e}")
    shift = min(evals.min(), 0.0)            # clips rounding below 0; Tr stays 1
    rho = (rho - np.eye(da) * shift) / (1.0 - da * shift)
    p0 = p1 = beta_eff = math.nan
    if h_a is not None:
        evals_a = np.linalg.eigvalsh(as_matrix(h_a))
        p0, p1 = float(rho[0, 0].real), float(rho[1, 1].real)
        gap = float(evals_a[1] - evals_a[0])
        if p0 > 0 and p1 > 0 and gap > 0:
            beta_eff = -math.log(p1 / p0) / gap
    return SteadyStateResult(rho_ss=DensityMatrix(rho), p0=p0, p1=p1,
                             beta_eff=beta_eff, residual=residual, cond=cond)


class AveragedIntervalMap:
    """Expected post-measurement map of one interval, averaged over the
    exponential interval-length distribution.

    In the coupled eigenframe (``engine._JointFrame``) the average multiplies
    the (i, j) matrix element by lam / (lam + i(E_i - E_j)); measurement then
    traces out B and installs a fresh thermal reservoir.  The fixed point is
    the steady state of A at measurement times.
    """

    def __init__(self, sys: JointSystem, beta: float, lam: float):
        check_rate(lam)
        self.sys = sys
        self.frame = _JointFrame(sys)
        self.rho_b = thermal_state(sys.h_b, beta).mat
        self.filter = lam / (lam + 1j * (self.frame.e[:, None] - self.frame.e[None, :]))

    def _average(self, rho_a: np.ndarray) -> np.ndarray:
        # the unnormalized map, on a matrix of A or a stack of them
        joint = np.kron(np.asarray(rho_a, dtype=complex), self.rho_b)
        avg = self.frame.weighted(joint, self.filter)
        return marginal(avg, (self.sys.dim_a, self.sys.dim_b), "A")

    def apply(self, rho_a: np.ndarray) -> np.ndarray:
        out = hermitian_part(self._average(rho_a))
        return out / np.trace(out).real

    def fixed_point(self) -> np.ndarray:
        """``steady_state`` of M - 1, where column (a, b) of M is the map applied
        to the matrix unit E_ab (a GKSL generator); a fixed space of dimension
        greater than one raises DegenerateSteadyStateError."""
        da = self.sys.dim_a
        m = self._average(np.eye(da * da).reshape(-1, da, da)).reshape(da * da, -1).T
        return steady_state(m - np.eye(da * da)).rho_ss.mat


def lindblad_propagate(spec: GeneratorSpec, rho_a0, rho_b0, t_grid) -> np.ndarray:
    """Propagate the continuous weak-coupling master equation of rho_A over ``t_grid``.

    Its generator is constant, so rho_A is propagated exactly from
    ``t_grid[0]`` (``qcore.propagate_grid``).  The reservoir state ``rho_b0``
    must be diagonal in the energy basis of H_B, and its populations there
    enter the generator as they are; an empty grid is a ConfigError.
    Returns the stack of rho_A matrices at the grid times (storage basis).
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.size == 0:
        raise ConfigError("time grid is empty")
    sys = spec.sys
    da = sys.dim_a
    gen = _reduced_generator(spec, diagonal_populations(rho_b0, sys.basis_b, "reservoir input"))
    va = sys.basis_a.eigenvectors
    y0 = (va.conj().T @ as_matrix(rho_a0) @ va).reshape(-1)
    r = hermitian_part(propagate_grid(gen, y0, t_grid[0], t_grid).reshape(-1, da, da))
    if np.linalg.eigvalsh(r).min() < -1e-7:
        raise NumericError("positivity violated beyond 1e-7 during propagation")
    return va @ r @ va.conj().T


def assemble_joint_weak_generator(spec: GeneratorSpec) -> np.ndarray:
    """Joint-space generator of the averaged second-order updates at rate lam
    (one averaged update per mean interval), ``qcore.gksl_matrix`` of its GKSL parts."""
    return gksl_matrix(_weak_parts(spec, spec.lam))


def assemble_joint_fast_generator(sys: JointSystem, lam: float) -> np.ndarray:
    """Joint-space generator of the fast-measurement expansion at rate lam, built
    as the weak one is.  A rate that is not positive and finite is a ConfigError."""
    check_rate(lam)
    return gksl_matrix(_fast_parts(sys, lam, lam))


class _LinearPropagator:
    """exp(t G) for a vectorized generator G, one independent block at a time.

    The connected components of G's nonzero pattern are ``blocks`` of indices
    that G never couples to each other (for the averaged generators, ket/bra
    parity or excitation-number sectors), so exp(t G) is block-diagonal in
    them.  A block is eigendecomposed the first time ``apply`` gets a state
    with weight in it (``decomposed``); a zero block gives an exactly zero
    result.  Each interval starts from rho_A (x) rho_B with B dephased, so
    from a parity-symmetric start (a Fock state) the ket/bra cross-parity
    blocks never get weight.

    A block that ``qcore.hermitian_block`` writes in real form (each
    diagonal-holding block of a GKSL generator) is propagated in real
    arithmetic (``real_blocks``; real ``eig`` costs about half of complex).
    ``eig``'s balancing isolates its zero trace row, so that eigenvalue is
    an exact 0, no other eigenvector has weight on it and no rounding moves
    the trace.  The zeroed rows, G's own rounding, could have moved the trace
    of a state of trace 1 by at most tau times their summed 1-norms: above
    ``engine.TRACE_DRIFT_MAX`` that is a NumericError, and the largest sum a
    state reached is ``trace_row_norm``.

    Every other block (the off-diagonal sector pairs, or a block of a
    generator that does not keep Hermiticity or the trace) is decomposed as
    it is.  A block whose eigenvectors fail ``qcore.well_conditioned_inverse``
    (a defective block's do) takes ``qcore.propagate_grid``'s walk over the
    times (``expm_blocks``); of those that pass, the largest condition number
    is ``eig_cond_max``.  Once decomposed, a block evolves a state to a whole
    vector of times in one matrix product.  A non-finite result (the
    exponentials overflow) is a NumericError.

    As the interval walk's propagator it evolves the joint state in the
    rotating frame of the uncoupled Hamiltonian, where <H_AB> at time tau is
    the phase-weighted sum over the frequency ``sectors`` (omega, V_omega).
    The averaged generators are of GKSL form with a positive coefficient
    matrix, but that matrix is nearly singular at small lam, so in floating
    point (or for a generator the caller supplies) positivity, and in a
    complex block the trace, are not exactly preserved: each interval's joint
    state is checked against ``positivity_floor`` and the state of A is
    re-normalized before the next interval.
    """

    positivity_floor = -1e-5         # joint eigenvalues and the ledger's entropies
    checkpoint_floor = -1e-4         # S_A at the checkpoints

    def __init__(self, gen: np.ndarray, sectors):
        sectors = tuple(sectors)
        self.dim = int(round(math.sqrt(gen.shape[0])))
        self.frequencies = np.array([w for w, _ in sectors], dtype=float)
        # rows vec(V_omega^T), so that Tr(joint V_omega) over a stack is one matrix product
        self._v_t = np.array([v.T for _, v in sectors], dtype=complex).reshape(
            len(sectors), self.dim ** 2)
        self.blocks = connected_blocks(gen != 0)
        self._gen = gen
        self._label = np.empty(gen.shape[0], dtype=int)         # block number of each index
        for k, b in enumerate(self.blocks):
            self._label[b] = k
        # per block: ``qcore.hermitian_block``'s (indices, (n_d, n_o) or None, 1-norm of the
        # zeroed trace row) and (evals, vr, vr^-1) or (block of G,)
        self._parts = [None] * len(self.blocks)
        self.expm_blocks = []        # (indices, decomposed form) for the ill-conditioned ones
        self.trace_row_norm = 0.0    # largest sum of the zeroed trace rows a state reached
        self.eig_cond_max = 0.0      # largest eigenvector condition number of an eig block

    @property
    def decomposed(self) -> np.ndarray:
        """Per block: eigendecomposed (or sent to ``expm``) yet."""
        return np.array([p is not None for p in self._parts])

    @property
    def real_blocks(self) -> int:
        """How many decomposed blocks are propagated in the real Hermitian basis."""
        return sum(p is not None and p[1] is not None for p in self._parts)

    def _decompose(self, k: int) -> tuple:
        idx, herm, g, row = hermitian_block(self._gen, self.blocks[k], self.dim)
        evals, vr = np.linalg.eig(g)
        vr_inv, cond = well_conditioned_inverse(vr)
        if vr_inv is not None:
            self.eig_cond_max = max(self.eig_cond_max, cond)
            return idx, herm, row, (evals, vr, vr_inv)
        self.expm_blocks.append((idx, g))
        return idx, herm, row, (g,)

    def apply(self, theta: np.ndarray, taus) -> np.ndarray:
        """The stack of exp(tau G) theta, Hermitian d x d, one per time in ``taus``,
        which are non-decreasing (as ``run_intervals`` passes them)."""
        taus = np.asarray(taus, dtype=float)
        x = theta.reshape(-1)
        out = np.zeros((taus.size, x.size), dtype=complex)
        hits = np.bincount(self._label[x != 0], minlength=len(self.blocks))
        reached = np.flatnonzero(hits).tolist()
        for k in reached:
            if self._parts[k] is None:
                self._parts[k] = self._decompose(k)
        # a state of trace 1 has coordinates of at most 1, so over tau the zeroed trace
        # rows would have moved the trace by at most their summed 1-norms times tau
        row = sum(self._parts[k][2] for k in reached)
        self.trace_row_norm = max(self.trace_row_norm, row)
        if row * taus.max(initial=0.0) > TRACE_DRIFT_MAX:
            raise NumericError(f"the generator keeps the trace only to {row:.2e} per unit time, "
                               f"up to {row * taus.max():.2e} over tau = {taus.max():.3g}, "
                               f"more than {TRACE_DRIFT_MAX:g}")
        # an overflowing exponential is reported once, as the non-finite result below
        with np.errstate(over="ignore", invalid="ignore"):
            for k in reached:
                idx, herm, _, parts = self._parts[k]
                y = x[idx] if herm is None else to_real(x[idx], *herm)
                if len(parts) == 3:
                    evals, vr, vr_inv = parts
                    y = vr @ ((vr_inv @ y)[:, None] * np.exp(evals[:, None] * taus))
                else:
                    y = propagate_grid(parts[0], y, 0.0, taus).T
                out[:, idx] = (y if herm is None else from_real(y.real, *herm)).T
        if not np.isfinite(out).all():
            raise NumericError("the averaged propagator gave a non-finite state: its "
                               "exponentials overflow")
        out = out.reshape(taus.size, self.dim, self.dim)
        for m in out:                # hermitian_part's bits, as addition commutes
            m += m.conj().T
            m *= 0.5
        return out

    def hab_expect(self, joint: np.ndarray, taus) -> np.ndarray:
        """<H_AB> of each matrix of the stack ``joint`` at its time in ``taus``:
        sum over sectors of exp(i omega tau) Tr(joint V_omega)."""
        traces = joint.reshape(len(joint), -1) @ self._v_t.T
        return (np.exp(1j * np.multiply.outer(taus, self.frequencies)) * traces).sum(axis=1).real

    def check_positivity(self, joint: np.ndarray) -> float:
        ev_min = float(np.linalg.eigvalsh(joint).min())
        if ev_min < self.positivity_floor:
            raise NumericError(f"joint state positivity lost ({ev_min:.2e}) in interval protocol")
        return ev_min

    def next_state(self, rho_a: np.ndarray) -> np.ndarray:
        return rho_a / np.trace(rho_a).real


def _interval_request(sys: JointSystem, lam: float, rho_b0, rho_a0, horizon: float, seed: int,
                      intervals, checkpoint_times, beta) -> tuple[ProcessConfig, np.ndarray]:
    """The weak or fast run's checked ProcessConfig, with one beta, and the populations
    of its reservoir input: all that the run checks, before any generator is built."""
    if np.ndim(beta) != 0:
        raise ConfigError(f"the weak and fast runs take one inverse temperature, got {beta!r}")
    cfg = ProcessConfig(lam=lam, beta=beta, horizon=horizon, seed=seed, initial_state_a=rho_a0,
                        checkpoint_times=checkpoint_times, intervals=intervals)
    cfg.rho_a(sys.dim_a)
    return cfg, diagonal_populations(rho_b0, sys.basis_b, "reservoir input")


def _averaged_run(spec: GeneratorSpec, cfg: ProcessConfig, pops_b: np.ndarray,
                  generator: np.ndarray) -> IntervalRun:
    prop = _LinearPropagator(generator, zip(spec.frequencies, spec.v_ops))
    run = run_intervals(prop, spec.sys, cfg, lambda k: (cfg.beta, pops_b))
    run.meta.update(beta=cfg.beta, propagator_blocks=len(prop.blocks),
                    largest_block=max(len(b) for b in prop.blocks),
                    decomposed_blocks=int(prop.decomposed.sum()), real_blocks=prop.real_blocks,
                    expm_blocks=len(prop.expm_blocks), trace_row_norm=prop.trace_row_norm,
                    eig_cond_max=prop.eig_cond_max)
    return run


def weak_interval_run(spec: GeneratorSpec, rho_b0, rho_a0, horizon: float,
                      seed: int = 0, intervals: np.ndarray | None = None,
                      checkpoint_times: np.ndarray | None = None, *, beta: float,
                      generator: np.ndarray | None = None) -> IntervalRun:
    """Run the averaged-propagator comparison protocol with full bookkeeping.

    Same cycle as the exact process, through the same interval walk --
    couple, evolve one sampled interval, measure-and-replace -- except that
    the coupled propagator is replaced by the averaged second-order generator
    (or an explicitly supplied one).  Heat and work ledgers use the same
    reservoir-side definitions as the exact engine.  The reservoir input
    ``rho_b0`` must be diagonal in the energy basis of H_B (a
    PreconditionError otherwise); it is carried as its populations, and the
    ledgers book its heat at the caller's one ``beta``.
    """
    cfg, pops_b = _interval_request(spec.sys, spec.lam, rho_b0, rho_a0, horizon, seed,
                                    intervals, checkpoint_times, beta)
    return _averaged_run(spec, cfg, pops_b, assemble_joint_weak_generator(spec)
                         if generator is None else generator)


def fast_interval_run(sys: JointSystem, lam: float, rho_b0, rho_a0, horizon: float,
                      seed: int = 0, intervals: np.ndarray | None = None,
                      checkpoint_times: np.ndarray | None = None, *,
                      beta: float) -> IntervalRun:
    """Interval protocol driven by the fast-measurement generator instead, checked
    as ``weak_interval_run`` is; warns, as ``fast_map`` does, when lam < 10 gamma."""
    cfg, pops_b = _interval_request(sys, lam, rho_b0, rho_a0, horizon, seed, intervals,
                                    checkpoint_times, beta)
    _warn_outside_fast_regime(sys, lam)
    return _averaged_run(decompose(sys, lam), cfg, pops_b, assemble_joint_fast_generator(sys, lam))


# ---------------------------------------------------------------------------
# Fast measurement limit


def _fast_parts(sys: JointSystem, lam: float, rate: float) -> tuple:
    # rate times the fast-measurement expansion through O(gamma^2/lam^2) as GKSL parts:
    # -i[K, rho] - c[H_AB, [H_AB, rho]] with K = (gamma/lam) H_AB + i (gamma/lam^2) [H_0, H_AB]
    g, h, h0 = sys.gamma, sys.h_ab.mat, sys.uncoupled_h
    k = (g / lam) * h + (1j * g / lam ** 2) * (h0 @ h - h @ h0)
    c = rate * (g / lam) ** 2
    h2 = c * (h @ h)
    return (-1j * rate) * k - h2, (1j * rate) * k - h2, [(2.0 * c * h, h)]


def outside_fast_regime(sys: JointSystem, lam: float) -> bool:
    """Whether the rate lam is below the fast expansion's range, lam >= 10 gamma."""
    return sys.gamma > 0 and lam < 10 * sys.gamma


def _warn_outside_fast_regime(sys: JointSystem, lam: float) -> None:
    if outside_fast_regime(sys, lam):
        warnings.warn("fast-measurement expansion used with lam < 10 gamma", stacklevel=3)


def fast_map(sys: JointSystem, rho_ab0, lam: float) -> np.ndarray:
    """Expected interval change in the fast-measurement expansion.

    All terms through O(gamma^2/lam^2): the first-order commutators (trace-free
    and population-free) and the double-commutator dissipator
    2 H_AB rho H_AB - {H_AB^2, rho}.  Valid for lam >> gamma; a warning is
    emitted otherwise.  A rate that is not positive and finite is a ConfigError.
    """
    check_rate(lam)
    _warn_outside_fast_regime(sys, lam)
    return gksl(_fast_parts(sys, lam, 1.0), as_matrix(rho_ab0))


def fast_map_reduced(sys: JointSystem, rho_a, rho_b_pops: np.ndarray, lam: float) -> np.ndarray:
    """d rho_A/dt of the fast-measurement master equation (dissipator part).

    (gamma^2/lam) Tr_B[2 H_AB rho H_AB - {H_AB^2, rho}] at rho = rho_A (x) rho_B,
    with rho_B diagonal in the B energy basis with populations ``rho_b_pops``.
    A rate that is not positive and finite is a ConfigError.
    """
    check_rate(lam)
    v_b = sys.basis_b.eigenvectors
    rho_b = (v_b * np.asarray(rho_b_pops, dtype=float)) @ v_b.conj().T
    joint = np.kron(as_matrix(rho_a), rho_b)
    h = sys.h_ab.mat
    diss = gksl((-(h @ h), -(h @ h), [(2.0 * h, h)]), joint)
    return (sys.gamma ** 2 / lam) * marginal(diss, (sys.dim_a, sys.dim_b), "A")


# ---------------------------------------------------------------------------
# Low-temperature four-state model and the minimum temperature


def min_temp_predict(lam: float, omega: float) -> float:
    """Cold-reservoir limit of the excited/ground population ratio.

    p1/p0 -> (lam/2w)^2 / ((lam/2w)^2 + 1); the matching effective inverse
    temperature is -ln(p1/p0)/omega.
    """
    check_rate(lam)
    check_rate(omega, "omega")
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
    check_rate(lam)
    check_rate(omega, "omega")
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
    check_rate(lam)
    check_rate(omega, "omega")
    return 2.0 * gamma ** 2 / (lam ** 2 + (2.0 * omega) ** 2) * (
        sigma_g * (n_mean + 1.0) - sigma_e * n_mean)
