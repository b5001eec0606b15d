"""The repeated measurement process.

Each interval couples the central system A to a fresh reservoir sample B,
evolves the pair under the full Hamiltonian for an exponentially distributed
time, then projectively measures B in its energy basis.  Trajectory mode
samples outcomes per realization; density-matrix mode applies the
outcome-averaged map (dephase B, then replace it: rho_AB -> Tr_B rho_AB (x)
rho_B(0)).  ``_walk`` is the one interval walk, and it advances a batch of
walkers together: the exact density-matrix run and the weak and fast averaged
runs are a batch of one that differ only in the propagator, and a trajectory
ensemble is a batch of n_traj state vectors.

Also provided: the continuous jump-averaged generator, which gives
deterministic ensemble-level curves of the same process.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence, Union

import numpy as np

from .errors import (ConfigError, DimensionError, NumericError, PositivityError,
                     PreconditionError, SizeLimitError)
from .models import (JointSystem, TRUNCATION_LIMIT, check_beta, check_rate, thermal_populations,
                     thermal_state)
from .qcore import (DensityMatrix, StateVector, as_matrix, expect, gksl_matrix, hermitian_part,
                    marginal, populations, propagate_grid, shannon_entropy, spectrum)
from .thermo import IntervalLedger, book_intervals

BORN_TOL = 1e-10
ABSORPTION_CHUNK = 20000         # absorption_rate_mc trials drawn and scored per batch
STACK_BYTES = 2 ** 22            # joint matrices per propagator call; trajectory records held
MAX_INTERVALS = 10 ** 5          # expected intervals per walker: ~30 s, ~0.8 GB exact at n_max 14
MAX_TRAJECTORIES = 10 ** 5       # trajectories per ensemble: ~0.2 GB of random streams alone
MAX_CHECKPOINTS = 10 ** 5        # checkpoint times per run: ~0.4 GB of exact states at n_max 14
TRACE_DRIFT_MAX = 1e-4           # largest |Tr rho_A - 1| of a density-matrix run (weak S_A floor)


@dataclass(frozen=True)
class ProcessConfig:
    """The checked request of every run of the process: exact, trajectory, weak and fast."""

    lam: float                       # measurement rate
    beta: Union[float, Sequence[float]] = 1.0
    horizon: float = 300.0
    seed: int = 2024
    mode: str = "density-matrix"     # or "trajectory"
    n_traj: int = 1
    initial_state_a: Union[DensityMatrix, StateVector, None] = None
    n_checkpoints: int = 121
    checkpoint_times: np.ndarray | None = None
    intervals: np.ndarray | None = None   # explicit interval schedule (density-matrix mode)

    def __post_init__(self):
        """Refuse a bad request before any run allocates.  More than MAX_TRAJECTORIES
        trajectories, more than MAX_CHECKPOINTS checkpoint times, or a schedule that
        expects more than MAX_INTERVALS intervals per walker (lam * horizon, or the
        explicit schedule's length) is a SizeLimitError, any other refusal a ConfigError."""
        if self.mode not in ("trajectory", "density-matrix"):
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.n_traj < 1:
            raise ConfigError(f"n_traj must be >= 1, got {self.n_traj!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed!r}")
        if self.n_checkpoints < 0:
            raise ConfigError(f"n_checkpoints must be >= 0, got {self.n_checkpoints!r}")
        if self.n_traj > MAX_TRAJECTORIES:
            raise SizeLimitError(f"n_traj = {self.n_traj} is more than the limit of "
                                 f"{MAX_TRAJECTORIES:.0e} trajectories")
        times = self.checkpoint_times
        n_cp = self.n_checkpoints if times is None else np.size(times)
        if n_cp > MAX_CHECKPOINTS:
            raise SizeLimitError(f"{n_cp} checkpoint times are more than the limit of "
                                 f"{MAX_CHECKPOINTS:.0e}")
        if self.mode == "trajectory" and self.intervals is not None:
            raise ConfigError("an explicit interval schedule runs in density-matrix mode only")
        if np.size(self.beta) == 0:
            raise ConfigError("the beta schedule is empty")
        check_beta(self.beta)
        check_rate(self.lam)
        if not (self.horizon >= 0 and math.isfinite(self.horizon)):
            raise ConfigError(f"horizon must be non-negative and finite, got {self.horizon!r}")
        count = self.lam * self.horizon if self.intervals is None else len(self.intervals)
        if count > MAX_INTERVALS:
            raise SizeLimitError(f"the schedule expects {count:.3g} intervals per walker, more "
                                 f"than the limit of {MAX_INTERVALS:.0e}")
        grid = [] if times is None else self.grid()
        if not (np.isfinite(grid).all() and (np.diff(grid) >= 0).all()):
            raise ConfigError("checkpoint times must be finite and non-decreasing")
        if self.intervals is not None and not (np.asarray(self.intervals, dtype=float) >= 0).all():
            raise ConfigError("interval lengths must be non-negative")

    def beta_for(self, k: int) -> float:
        if np.isscalar(self.beta):
            return float(self.beta)
        seq = self.beta
        return float(seq[min(k, len(seq) - 1)])

    def grid(self) -> np.ndarray:
        if self.checkpoint_times is not None:
            return np.asarray(self.checkpoint_times, dtype=float)
        return np.linspace(0.0, self.horizon, self.n_checkpoints)

    def rho_a(self, dim_a: int) -> np.ndarray:
        """The initial state of A as a matrix.  A missing state, or a raw matrix that
        fails DensityMatrix's checks (finite, Hermitian, unit trace, positive), is a
        ConfigError, and one whose matrix is not dim_a x dim_a a DimensionError."""
        state = self.initial_state_a
        if state is None:
            raise ConfigError("initial_state_a is required")
        rho_a = state.projector().mat if isinstance(state, StateVector) else as_matrix(state)
        if rho_a.shape != (dim_a, dim_a):
            raise DimensionError(f"the initial state of A has shape {rho_a.shape}, but A has "
                                 f"dimension {dim_a}")
        if isinstance(state, (StateVector, DensityMatrix)):
            return rho_a
        try:
            return DensityMatrix(rho_a).mat
        except (ValueError, PositivityError) as exc:
            raise ConfigError(f"the initial state of A is not a density matrix: {exc}") from None


@dataclass(frozen=True)
class MeasurementOutcome:
    m: int
    p_m: float
    t: float


@dataclass(frozen=True)
class IntervalStep:
    """Result of one coupling-evolution-measurement cycle of a trajectory."""

    state_a: StateVector
    reservoir_populations: np.ndarray
    outcome: MeasurementOutcome
    h_ab_expect: float               # <H_AB> just before measurement, gamma excluded
    born_deviation: float


@dataclass
class CheckpointSeries:
    """Observables on a fixed time grid (ensemble mean in trajectory mode)."""

    t: np.ndarray
    mean_ha: np.ndarray
    mean_hb: np.ndarray
    mean_hab: np.ndarray             # gamma <H_AB>
    q_cum: np.ndarray
    w_cum: np.ndarray
    wmeas_cum: np.ndarray
    s_a: np.ndarray
    s_tot: np.ndarray
    se_ha: np.ndarray
    n_traj: int


@dataclass
class EnsembleSummary:
    """Deterministic reduction of a trajectory ensemble."""

    n_traj: int
    series: CheckpointSeries
    mean_rho_a: np.ndarray                     # (n_checkpoints, dim_a, dim_a)
    truncation_suspect: bool
    born_max_deviation: float
    meta: dict = field(default_factory=dict)


@dataclass
class IntervalRun:
    """What the interval walk records for a batch of one: the exact, weak or fast run.

    States are in the propagator's frame: the lab frame for the exact run, the
    rotating frame of the uncoupled Hamiltonian for the averaged runs, where
    only marginal coherence phases differ; populations, energies and
    entropies are frame-invariant.
    """

    times: np.ndarray                          # measurement times t_1..t_K
    ledgers: list[IntervalLedger]
    rho_a_snapshots: np.ndarray                # (K+1, dim_a, dim_a): at t = 0, after each interval
    pops_a: np.ndarray                         # (K+1, dim_a) their energy-basis populations, >= 0
    s_a_series: np.ndarray                     # (K+1,) their von Neumann entropies
    checkpoint_times: np.ndarray
    checkpoint_rho_a: np.ndarray               # (n_checkpoints, dim_a, dim_a)
    checkpoint_hab: np.ndarray                 # gamma <H_AB>
    checkpoint_hb: np.ndarray
    min_eig: float                             # lowest joint eigenvalue the propagator checked
    meta: dict
    series: CheckpointSeries
    truncation_suspect: bool
    born_max_deviation: float


def sample_interval(rng: np.random.Generator, lam: float) -> float:
    """Exponential waiting time with mean 1/lam."""
    check_rate(lam)
    return float(rng.exponential(1.0 / lam))


def _traj_rng(seed: int, index: int) -> np.random.Generator:
    # counter-based: stream depends only on (seed, index)
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


def _draw_index(p: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Indices drawn with probabilities proportional to p along its last axis,
    one uniform of ``u`` each; ``p`` is one distribution or one row per draw."""
    cum = np.cumsum(p, axis=-1)
    idx = (cum < (u * p.sum(axis=-1))[..., None]).sum(axis=-1)
    return np.minimum(idx, p.shape[-1] - 1)


def _born(psi: np.ndarray, v_b: np.ndarray):
    """Amplitudes amp[i, :, m], row i's unnormalized state of A after outcome m
    of measuring B on joint state-vector rows ``psi``, and the probabilities p[i, m]."""
    db = v_b.shape[0]
    amp = (psi.reshape(-1, db) @ v_b.conj()).reshape(len(psi), psi.shape[1] // db, db)
    return amp, np.einsum("iam->im", np.abs(amp) ** 2)


class _JointFrame:
    """Exact propagator: the eigenframe of the coupled Hamiltonian.

    States stay in the lab frame, so <H_AB> is a plain trace.  Unitary
    evolution keeps the joint state positive and normalized, so there is
    nothing to check or re-normalize between intervals.
    """

    positivity_floor = -1e-8         # eigenvalue floor of the ledger's entropies
    checkpoint_floor = -1e-8         # ... and of S_A at the checkpoints
    stack_bytes = STACK_BYTES        # joint matrices per ``apply`` call

    def __init__(self, sys: JointSystem):
        prop = sys.propagator
        self.e, self.w = prop.eigenvalues, prop.eigenvectors
        self.hab = sys.h_ab.mat

    def weighted(self, joint: np.ndarray, k: np.ndarray) -> np.ndarray:
        """w ((w^+ joint w) * k) w^+: the eigenframe elements of ``joint`` (a matrix or
        a stack) multiplied by the weights ``k`` (a matrix or a stack), back in the lab frame."""
        return self.w @ ((self.w.conj().T @ joint @ self.w) * k) @ self.w.conj().T

    def apply(self, joint0: np.ndarray, taus) -> np.ndarray:
        """The stack of joint0 evolved for each time in ``taus``: the weights
        exp(-i (e_i - e_j) tau) of each time."""
        ph = self.phases(np.asarray(taus, dtype=float))
        return self.weighted(joint0, ph[:, :, None] * ph.conj()[:, None, :])

    def hab_expect(self, joint: np.ndarray, taus) -> np.ndarray:
        """<H_AB> of each matrix of the stack ``joint``."""
        return expect(self.hab, joint)

    def check_positivity(self, joint: np.ndarray) -> float:
        return 0.0

    def next_state(self, rho_a: np.ndarray) -> np.ndarray:
        return rho_a

    def to_frame(self, psi: np.ndarray) -> np.ndarray:
        """Eigenframe coefficients of joint state-vector rows."""
        return psi @ self.w.conj()

    def phases(self, tau: np.ndarray) -> np.ndarray:
        """exp(-i e tau[i]) of the coupled eigenvalues e, one row per time."""
        return np.exp(-1j * np.multiply.outer(tau, self.e))

    def evolve_rows(self, c: np.ndarray, tau: np.ndarray) -> np.ndarray:
        """Lab-frame state vectors of coefficient rows ``c``, row i evolved for tau[i]."""
        return (self.phases(tau) * c) @ self.w.T


def _measure(frame: _JointFrame, v_b: np.ndarray, c0: np.ndarray, t: np.ndarray,
             u: np.ndarray):
    """Evolve coefficient rows ``c0`` for times ``t`` and measure B, drawing each
    outcome with its uniform ``u``.

    Returns the normalized conditional states of A (rows), <H_AB> before the
    measurement (gamma excluded), the Born probabilities and the outcomes.
    """
    psi_t = frame.evolve_rows(c0, t)
    amp, p_m = _born(psi_t, v_b)
    m = _draw_index(p_m, u)
    post = amp[np.arange(m.size), :, m]
    hab = ((psi_t @ frame.hab.T) * psi_t.conj()).sum(axis=1).real
    return post / np.linalg.norm(post, axis=1)[:, None], hab, p_m, m


def step_interval(state_a: StateVector, reservoir_in, sys: JointSystem, t: float,
                  rng: np.random.Generator) -> IntervalStep:
    """Couple one pure trajectory to a reservoir energy eigenstate (its level
    index in ``sys.basis_b``), evolve for a fixed time t, and measure the reservoir,
    sampling the outcome with ``rng``: the trajectory ensemble's measurement
    step on a batch of one.  The outcome-averaged interval of a density matrix
    is ``run_process`` with ``intervals=[t]``.
    """
    if t < 0:
        raise ValueError("interval length must be non-negative")
    if not isinstance(state_a, StateVector):
        raise PreconditionError("step_interval steps a pure state; run a density matrix "
                                "through run_process")
    frame = _JointFrame(sys)
    v_b = sys.basis_b.eigenvectors
    if not isinstance(reservoir_in, (int, np.integer)):
        raise PreconditionError("trajectory reservoir input must be a level index")
    level = int(reservoir_in)
    c0 = frame.to_frame(np.kron(state_a.vec, v_b[:, level])[None])
    psi_a, hab, p_m, m = _measure(frame, v_b, c0, np.array([float(t)]), np.array([rng.random()]))
    p_m, m = p_m[0], int(m[0])
    born_dev = abs(p_m.sum() - 1.0)
    if born_dev > BORN_TOL:
        raise PreconditionError(f"outcome probabilities sum to 1 + {p_m.sum()-1:.2e}")
    return IntervalStep(
        state_a=StateVector(psi_a[0]),
        reservoir_populations=p_m,
        outcome=MeasurementOutcome(m=m, p_m=float(p_m[m]), t=t),
        h_ab_expect=float(hab[0]),
        born_deviation=born_dev,
    )


def _checkpoint_series(grid, ha, hb, hab, s_a, s_a0, se_ha, n_traj: int, sums) -> CheckpointSeries:
    # S_tot counts from t = 0: S_A(0) is the first checkpoint's S_A if the grid starts
    # there (one before t = 0 reads the state at t = 0), else the run's own S_A(0), s_a0
    q_cum, w_cum, wm_cum, bq_cum = sums
    s0 = s_a[0] if len(s_a) and grid[0] <= 0 else s_a0
    return CheckpointSeries(
        t=np.asarray(grid, dtype=float), mean_ha=ha, mean_hb=hb, mean_hab=hab,
        q_cum=q_cum, w_cum=w_cum, wmeas_cum=wm_cum, s_a=s_a,
        s_tot=s_a - s0 - bq_cum, se_ha=se_ha, n_traj=n_traj,
    )


def _walk(step, uniforms: int, rngs: Sequence[np.random.Generator], cfg: ProcessConfig,
          grid: np.ndarray):
    """Advance a batch of walkers together through the measured-interval cycle
    of the checked ``cfg``, with checkpoints at ``grid`` (``cfg.grid()``).

    Step k takes each walker whose clock is before ``cfg.horizon`` through its
    interval k: walker i draws the length from ``rngs[i]`` (or takes
    ``cfg.intervals[k]``), then ``uniforms`` uniforms for the batch's own draws.
    ``step(k, live, u, t_start, t_k, first, stop, completes)`` evolves the
    live walkers from their clocks ``t_start``, records each walker's
    checkpoints ``grid[first:stop]``, each at tau = clip(grid[j] - t_start,
    0, t_k) into its interval, measures the walkers whose interval
    ``completes`` by the horizon and returns their (Q, W, W_meas, beta Q)
    rows, booking beta Q as -dS_B, which is defined at every beta.  The
    interval that crosses the horizon books no ledger.

    Returns all measurement times in order, the number of checkpoints every
    walker reached, and there the running ledger sums over walkers, (4, n).
    """
    horizon, intervals = cfg.horizon, cfg.intervals
    clock = np.zeros(len(rngs))
    cp_next = np.zeros(len(rngs), dtype=int)
    times, terms = [np.empty(0)], [np.empty((0, 4))]
    t_cum, k = 0.0, 0                          # the earliest walker's clock
    while t_cum < horizon:
        live = np.flatnonzero(clock < horizon)
        if intervals is None:
            draws = np.array([(sample_interval(rngs[i], cfg.lam), *rngs[i].random(uniforms))
                              for i in live])
            t_k, u = draws[:, 0], draws[:, 1:]
        elif k < len(intervals):
            t_k, u = np.full(live.size, float(intervals[k])), None
        else:
            break
        t_start = clock[live]
        t_end = t_start + t_k
        completes = t_end <= horizon
        first = cp_next[live]
        stop = np.searchsorted(grid, np.where(completes, t_end, horizon) + 1e-12, side="right")
        terms.append(np.reshape(step(k, live, u, t_start, t_k, first, stop, completes), (-1, 4)))
        times.append(t_end[completes])
        cp_next[live] = stop
        clock[live] = t_end
        t_cum, k = clock.min(), k + 1

    times, terms = np.concatenate(times), np.concatenate(terms)
    order = np.argsort(times, kind="stable")
    n_cp = int(cp_next.min())
    sums = np.vstack((np.zeros(4), np.cumsum(terms[order], axis=0)))
    return times[order], n_cp, sums[np.searchsorted(times[order], grid[:n_cp], side="right")].T


def run_intervals(prop, sys: JointSystem, cfg: ProcessConfig,
                  reservoir: Callable[[int], tuple[float, np.ndarray]]) -> IntervalRun:
    """The measured-interval cycle of the exact, weak and fast runs: ``_walk``
    on a batch of one outcome-averaged state, from the checked ``cfg``'s rho_A.

    Interval k couples rho_A to the reservoir input ``reservoir(k)`` =
    (beta_k, populations of B in ``sys.basis_b``) and evolves the product
    with ``prop`` for the next scheduled time: ``cfg.intervals`` if given, else
    exponential draws at rate ``cfg.lam`` from ``cfg.seed``.  ``prop`` supplies
    apply(joint0, taus) -> the stack of joint states at the times ``taus``,
    hab_expect(stack, taus) -> their <H_AB> (gamma excluded), the bytes
    ``stack_bytes`` that bound one stack,
    check_positivity(joint) -> lowest eigenvalue checked, next_state(rho_A),
    and the S_A eigenvalue floors ``positivity_floor`` (``s_a_series``) and
    ``checkpoint_floor``.

    Before any re-normalization, max |Tr rho_A - 1| over the checkpoints and
    the interval ends is ``meta["trace_drift_max"]``; a drift above
    TRACE_DRIFT_MAX is a NumericError, as the states are then not physical.

    This is the one place a density-matrix interval is booked: the reservoir
    side and dH_A = Tr H_A (rho_end - rho_start) by ``book_intervals`` as the
    interval ends, and dS_A, once the walk is done, as the step of
    ``s_a_series`` across it.

    Each interval's checkpoints are evolved as one vector of times, in calls
    of at most ``prop.stack_bytes`` of joint matrices, so a small joint space
    takes one call per interval and a large one a call per time; its end is
    one more call, of one time.
    """
    grid, rho_a = cfg.grid(), cfg.rho_a(sys.dim_a)
    dims = (sys.dim_a, sys.dim_b)
    v_b, e_b = sys.basis_b.eigenvectors, sys.basis_b.eigenvalues
    cp_rho = np.empty((len(grid), sys.dim_a, sys.dim_a), dtype=complex)
    cp_obs = np.empty((3, len(grid)))              # <H_A>, <H_B>, gamma <H_AB>
    rows: list[dict] = []                          # each interval's ledger but dS_A
    snapshots = [rho_a]
    born_max = min_eig = drift_max = 0.0
    chunk = max(1, prop.stack_bytes // (16 * sys.dim ** 2))

    def reduced(joint, taus):
        # the Hermitian states of A, the states of B and <H_AB> of a stack of joint
        # states, the trace of A checked; a stack passed straight from ``apply`` is
        # dropped on return, so no two stacks are held at once
        nonlocal drift_max
        rho = hermitian_part(marginal(joint, dims, "A"))
        drift = float(np.abs(np.trace(rho, axis1=-2, axis2=-1).real - 1.0).max())
        if not drift <= TRACE_DRIFT_MAX:
            raise NumericError(f"the trace of the state of A drifted from 1 by {drift:.2e}, "
                               f"more than {TRACE_DRIFT_MAX:g}")
        drift_max = max(drift_max, drift)
        return rho, marginal(joint, dims, "B"), prop.hab_expect(joint, taus)

    def step(k, live, u, t_start, t_k, first, stop, completes):
        nonlocal rho_a, born_max, min_eig
        beta_k, pops_b0 = reservoir(k)
        joint0 = np.kron(rho_a, (v_b * pops_b0) @ v_b.conj().T)
        tau = np.minimum(np.maximum(grid[first[0]:stop[0]] - t_start[0], 0.0), t_k[0])
        for lo in range(0, tau.size, chunk):
            taus = tau[lo:lo + chunk]
            rho, rho_b, hab = reduced(prop.apply(joint0, taus), taus)
            cp = slice(first[0] + lo, first[0] + lo + len(rho))
            cp_rho[cp] = rho
            cp_obs[:, cp] = (expect(sys.h_a.mat, rho), expect(sys.h_b.mat, rho_b), sys.gamma * hab)
        if not completes[0]:
            return ()

        joint = prop.apply(joint0, t_k)                # the interval's end, one matrix
        rho, rho_b, hab = reduced(joint, t_k)
        min_eig = min(min_eig, prop.check_positivity(joint[0]))
        # a copy: a view would keep a second array header in every snapshot
        rho_a_end, pops_b = rho[0].copy(), populations(rho_b[0], v_b)
        born_max = max(born_max, abs(pops_b.sum() - 1.0))
        dh_a = float(expect(sys.h_a.mat, rho_a_end - rho_a))
        dh_b, ds_b, q, w_therm, w, r = book_intervals(
            pops_b0, np.clip(pops_b, 0.0, None), e_b, beta_k, dh_a).tolist()
        w_meas = float(-sys.gamma * hab[0])
        rows.append(dict(dH_a=dh_a, dH_b=dh_b, w_meas=w_meas, dS_b=ds_b, q=q, w_therm=w_therm,
                         w=w, r=r, beta=beta_k))
        rho_a = prop.next_state(rho_a_end)
        snapshots.append(rho_a)
        return (q, w, w_meas, -ds_b)

    rng = np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed))
    times, n_cp, sums = _walk(step, 0, [rng], cfg, grid)
    snapshots = np.array(snapshots)
    v_a = sys.basis_a.eigenvectors
    pops_a = np.clip(populations(snapshots, v_a), 0.0, None)
    s_a_series = shannon_entropy(spectrum(snapshots, prop.positivity_floor))
    # an interval's dS_A is taken between the states the run records, so in the
    # averaged runs it ends at the renormalized state
    ledgers = [IntervalLedger(dS_a=ds_a, **row)
               for row, ds_a in zip(rows, np.diff(s_a_series).tolist())]
    series = _checkpoint_series(grid[:n_cp], *cp_obs[:, :n_cp],
                                shannon_entropy(spectrum(cp_rho[:n_cp], prop.checkpoint_floor)),
                                s_a_series[0], np.zeros(n_cp), 1, sums)
    # the largest top-level population of every state of A the run reports: of the
    # checkpoints (that level alone) and of the states after each interval
    top_level = np.argmax(sys.basis_a.eigenvalues)
    top = max(populations(cp_rho[:n_cp], v_a[:, [top_level]]).max(initial=0.0),
              pops_a[1:, top_level].max(initial=0.0))
    return IntervalRun(
        times=times,
        ledgers=ledgers,
        rho_a_snapshots=snapshots,
        pops_a=pops_a,
        s_a_series=s_a_series,
        checkpoint_times=series.t,
        checkpoint_rho_a=cp_rho[:n_cp],
        checkpoint_hab=series.mean_hab,
        checkpoint_hb=series.mean_hb,
        min_eig=min_eig,
        meta={"lam": cfg.lam, "horizon": cfg.horizon, "seed": cfg.seed,
              "top_fock_max": float(top), "trace_drift_max": drift_max},
        series=series,
        truncation_suspect=bool(top > TRUNCATION_LIMIT),
        born_max_deviation=born_max,
    )


def run_process(cfg: ProcessConfig, sys: JointSystem):
    """Run the full repeated measurement process.

    Density-matrix mode returns ``run_intervals``' IntervalRun with
    per-interval ledgers; trajectory mode returns an EnsembleSummary reduced
    over cfg.n_traj realizations (per-trajectory streams are split from the
    master seed by trajectory index).
    """
    cfg.rho_a(sys.dim_a)                       # refuses a missing or misshapen state first
    if cfg.mode == "trajectory":
        return _run_trajectory_ensemble(cfg, sys)

    def reservoir(k: int):
        beta_k = cfg.beta_for(k)
        return beta_k, thermal_populations(sys.basis_b.eigenvalues, beta_k)

    return run_intervals(_JointFrame(sys), sys, cfg, reservoir)


def _run_trajectory_ensemble(cfg: ProcessConfig, sys: JointSystem) -> EnsembleSummary:
    """``_walk`` on a batch of n_traj pure-state trajectories, one row of psi_a each.

    Interval k couples each live trajectory's psi_A to a reservoir level drawn
    from the thermal populations at beta_k, held as (n, d) coefficients c0 in
    the coupled eigenframe.  The walk records, for each trajectory with
    checkpoints in the interval, c_ref = c0 exp(+i e t_start) (c0 moved back to
    t = 0), its checkpoint range, t_start and t_k, and c0 itself where ``_walk``
    clipped a tau to the interval, to be evolved by that tau.  At checkpoint j
    the coefficients c0 exp(-i e (grid[j] - t_start)) are then a per-run phase
    table exp(-i e grid[j]) times c_ref, so no exponential is paid per
    checkpoint; the phase is exact to about eps |e| t in the absolute time t
    rather than eps |e| tau.  A checkpoint is read once, in one pass over the
    rows that hold it in interval order, when the walk ends; records held past
    STACK_BYTES are read into partial sums first and dropped.
    A checkpoint's rows go to the product energy basis U = v_A (x) v_B,
    where H_A (x) 1, A's top-level projector and 1 (x) H_B are diagonal: <H_A>,
    the top-level population and <H_B> are fixed weights times |U^+ psi|^2, and
    gamma <H_AB> and rho_A (rotated back from A's energy basis at the end) come
    off the joint sum over trajectories of U^+|psi><psi|U.  Each trajectory
    draws from its own stream, in the order: its initial eigenstate (mixed
    start only), then per interval the length, the input level and the outcome.
    ``meta`` counts the measurements made over all trajectories
    (``intervals``) and the outcomes drawn for each level of B (``outcomes``).
    """
    n = cfg.n_traj
    rngs = [_traj_rng(cfg.seed, i) for i in range(n)]
    state = cfg.initial_state_a
    if isinstance(state, StateVector):
        psi_a, s_a0 = np.tile(state.vec, (n, 1)), 0.0
    else:
        evals, evecs = np.linalg.eigh(as_matrix(state))
        p = np.clip(evals, 0.0, None)
        drawn = _draw_index(p / p.sum(), np.array([rng.random() for rng in rngs]))
        # the mean state at t = 0 is diagonal in the eigenbasis, with the drawn frequencies
        psi_a, s_a0 = evecs.T[drawn], shannon_entropy(np.bincount(drawn) / n)
    frame = _JointFrame(sys)
    dims = (sys.dim_a, sys.dim_b)
    v_a, e_a = sys.basis_a.eigenvectors, sys.basis_a.eigenvalues
    v_b, e_b = sys.basis_b.eigenvectors, sys.basis_b.eigenvalues
    u_ab = np.kron(v_a, v_b)
    w_e, hab_e = u_ab.conj().T @ frame.w, u_ab.conj().T @ frame.hab @ u_ab
    top, ones_b = np.arange(sys.dim_a) == np.argmax(e_a), np.ones(sys.dim_b)
    weights = np.column_stack((np.kron(e_a, ones_b), np.kron(top, ones_b),
                               np.kron(np.ones(sys.dim_a), e_b)))   # <H_A>, top level, <H_B>

    def energy_a(rows):
        return (np.abs(rows @ v_a.conj()) ** 2) @ e_a

    ha_now = energy_a(psi_a)
    grid = cfg.grid()
    phase = frame.phases(grid)
    rho_sum = np.zeros((len(grid), sys.dim_a, sys.dim_a), complex)
    # <H_A>, <H_B>, gamma <H_AB>, and x - x_ref and its square for x = <H_A>, where
    # x_ref is the first value booked at the checkpoint: the spread is summed
    # without the cancellation of E[x^2] - E[x]^2
    obs_sum = np.zeros((5, len(grid)))
    ha_ref = np.full(len(grid), np.nan)
    outcomes = np.zeros(sys.dim_b, dtype=int)
    born_max = top_max = 0.0
    n_pairs = held_bytes = 0
    held = []            # records not yet read: (c_ref, first, stop, t_start, t_k, clip, c0[clip])

    def read():
        """Add every held row into the sums of each checkpoint it holds, and drop them."""
        nonlocal top_max, n_pairs, held_bytes
        c_ref, first, stop, t_start, t_k, clip, c0 = map(np.concatenate, zip(*held))
        held.clear()
        held_bytes = 0
        slot = np.cumsum(clip) - 1               # where clip, row i's c0 is c0[slot[i]]
        for j in range(first.min(), stop.max()):
            on = np.flatnonzero((first <= j) & (j < stop))
            if not on.size:
                continue
            coef = phase[j] * c_ref[on]
            if clip[on].any():
                x = grid[j] - t_start[on]
                tau = np.clip(x, 0.0, t_k[on])
                clipped = tau != x
                coef[clipped] = frame.phases(tau[clipped]) * c0[slot[on[clipped]]]
            psi = coef @ w_e.T                      # the rows U^+ psi
            ha, top, hb = ((np.abs(psi) ** 2) @ weights).T
            joint = psi.T @ psi.conj()             # sum over trajectories of U^+|psi><psi|U
            rho_sum[j] += marginal(joint, dims, "A")
            if np.isnan(ha_ref[j]):
                ha_ref[j] = ha[0]
            dev = ha - ha_ref[j]
            obs_sum[:, j] += (ha.sum(), hb.sum(), sys.gamma * expect(hab_e, joint), dev.sum(),
                              (dev * dev).sum())
            top_max, n_pairs = max(top_max, top.max()), n_pairs + ha.size

    def step(k, live, u, t_start, t_k, first, stop, completes):
        nonlocal born_max, held_bytes
        beta = cfg.beta_for(k)
        level = _draw_index(thermal_populations(e_b, beta), u[:, 0])
        c0 = frame.to_frame((psi_a[live][:, :, None] * v_b.T[level][:, None, :])
                            .reshape(live.size, -1))
        done = live[completes]
        psi_a[done], hab, p_m, m = _measure(frame, v_b, c0[completes], t_k[completes],
                                            u[completes, 1])
        outcomes[:] += np.bincount(m, minlength=sys.dim_b)
        born_max = max(born_max, float(np.abs(p_m.sum(axis=1) - 1.0).max(initial=0.0)))
        ha_start, ha_now[done] = ha_now[done], energy_a(psi_a[done])
        # the reservoir booked from its input level to the outcome-averaged
        # populations, A's energy conditioned on the sampled outcome (the
        # ensemble averages match density-matrix mode)
        _, ds_b, q, _, w, _ = book_intervals(np.eye(sys.dim_b)[level[completes]],
                                             np.clip(p_m, 0.0, None), e_b, beta,
                                             ha_now[done] - ha_start).T
        terms = np.column_stack((q, w, -sys.gamma * hab, -ds_b))

        # the record comes last, so that the measurement's temporaries are freed first;
        # a tau is clipped only at the ends of a range, as grid is sorted
        has = np.flatnonzero(stop > first)
        if has.size:
            t0, tk = t_start[has], t_k[has]
            clip = (grid[first[has]] - t0 < 0.0) | (grid[stop[has] - 1] - t0 > tk)
            held.append((c0[has] * frame.phases(-t0), first[has], stop[has], t0, tk, clip,
                         c0[has[clip]]))
            held_bytes += sum(a.nbytes for a in held[-1])
            if held_bytes > STACK_BYTES:
                read()
        return terms

    times, n_cp, sums = _walk(step, 2, rngs, cfg, grid)
    if held:
        read()
    mean_ha, mean_hb, mean_hab, mean_dev, mean_dev2 = obs_sum[:, :n_cp] / n
    var = np.maximum(mean_dev2 - mean_dev ** 2, 0.0)
    mean_rho = v_a @ (rho_sum[:n_cp] / n) @ v_a.conj().T
    s_a = shannon_entropy(spectrum(hermitian_part(mean_rho)))
    series = _checkpoint_series(grid[:n_cp], mean_ha, mean_hb, mean_hab, s_a, s_a0,
                                np.sqrt(var / max(n - 1, 1)), n, sums / n)
    return EnsembleSummary(
        n_traj=n,
        series=series,
        mean_rho_a=mean_rho,
        truncation_suspect=bool(top_max > TRUNCATION_LIMIT),
        born_max_deviation=born_max,
        meta={"lam": cfg.lam, "horizon": cfg.horizon, "seed": cfg.seed,
              "top_fock_max": float(top_max), "checkpoint_pairs": n_pairs,
              "intervals": int(times.size), "outcomes": outcomes.tolist()},
    )


# ---------------------------------------------------------------------------
# Exact ensemble-averaged analysis


def jump_averaged_generator(sys: JointSystem, beta: float, lam: float) -> np.ndarray:
    """Row-major superoperator of the exact ensemble-averaged joint master equation.

    d rho/dt = -i[H, rho] + lam (Tr_B rho (x) rho_B(0) - rho), the exact average of the
    piecewise-unitary process over both outcomes and exponential measurement times.  Its
    GKSL parts are L = -iH - lam/2, R = L^+ and the pairs (lam p_c J_cb, J_cb), with
    J_cb = 1 (x) |c><b| in B's energy basis and p_c the thermal populations there.
    A rate that is not positive and finite is a ConfigError.
    """
    check_rate(lam)
    v_b = sys.basis_b.eigenvectors
    pops = thermal_populations(sys.basis_b.eigenvalues, beta)
    left = -1j * sys.total_h.mat - 0.5 * lam * np.eye(sys.dim)
    jumps = [(c, np.kron(np.eye(sys.dim_a), np.outer(v_b[:, c], v_b[:, b].conj())))
             for c, b in np.ndindex(sys.dim_b, sys.dim_b)]
    return gksl_matrix((left, left.conj().T, [(lam * pops[c] * j, j) for c, j in jumps]))


def ensemble_average_series(sys: JointSystem, beta: float, lam: float,
                            rho_a0: np.ndarray, t_eval: np.ndarray):
    """Exact ensemble-mean observables of the process on a sorted time grid.

    The jump-averaged generator is constant and linear, so the joint state is
    propagated exactly from t = 0 (``qcore.propagate_grid``).  Returns
    (rho_a_stack, mean_ha, mean_hb, mean_hab) where mean_hab includes the
    gamma factor.  An empty grid is a ConfigError.
    """
    if len(t_eval) == 0:
        raise ConfigError("time grid is empty")
    gen = jump_averaged_generator(sys, beta, lam)
    d = sys.dim
    rho_b = thermal_state(sys.h_b, beta).mat
    y0 = np.kron(np.asarray(rho_a0, dtype=complex), rho_b).reshape(-1)
    rho = propagate_grid(gen, y0, 0.0, t_eval).reshape(-1, d, d)
    dims = (sys.dim_a, sys.dim_b)
    rho_a = hermitian_part(marginal(rho, dims, "A"))
    return (rho_a, expect(sys.h_a.mat, rho_a), expect(sys.h_b.mat, marginal(rho, dims, "B")),
            sys.gamma * expect(sys.h_ab.mat, rho))


def absorption_rate_mc(sys: JointSystem, psi_a: StateVector, beta: float, lam: float,
                       n_trials: int, seed: int):
    """Monte Carlo estimate of the reservoir excitation rate lam<x>.

    Each trial runs a single interval of the exact process from the same
    initial cavity state with a fresh thermal reservoir sample.  It scores the
    expected level change of the measured qubit (+1 absorption, -1 emission)
    given the sampled input level and interval length, sum_m p_m m - level,
    in place of a sampled outcome: the same mean without the outcome noise
    (Rao-Blackwellisation).  Returns (rate, rate_se).
    """
    check_rate(lam)
    frame = _JointFrame(sys)
    db = sys.dim_b
    v_b = sys.basis_b.eigenvectors
    if db != 2:
        raise PreconditionError("absorption scoring assumes a two-level reservoir")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0,)))
    pops_in = thermal_populations(sys.basis_b.eigenvalues, beta)
    c0 = frame.to_frame(np.array([np.kron(psi_a.vec, v_b[:, b]) for b in range(db)]))
    x_sum = x2_sum = 0.0
    for done in range(0, n_trials, ABSORPTION_CHUNK):
        m = min(ABSORPTION_CHUNK, n_trials - done)
        levels = _draw_index(pops_in, rng.random(m))
        ts = rng.exponential(1.0 / lam, size=m)
        x = _born(frame.evolve_rows(c0[levels], ts), v_b)[1] @ np.arange(db) - levels
        x_sum += x.sum()
        x2_sum += (x * x).sum()
    mean = x_sum / n_trials
    var = max(x2_sum / n_trials - mean ** 2, 0.0)
    se = math.sqrt(var / n_trials)
    return lam * mean, lam * se
