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

Also provided: the exact measurement-averaged interval map and the continuous
jump-averaged generator, which give deterministic ensemble-level curves and
steady states of the same process.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence, Union

import numpy as np
from scipy.integrate import solve_ivp

from .errors import ConfigError, PreconditionError
from .models import JointSystem, TRUNCATION_LIMIT, check_beta, thermal_state
from .qcore import (DensityMatrix, StateVector, as_matrix, diagonal_populations,
                    hermitian_part, marginal, populations, von_neumann_entropy)
from .thermo import IntervalLedger, ledger_for_interval

BORN_TOL = 1e-10


def check_rate(lam: float) -> None:
    """Reject a measurement rate that is not positive and finite."""
    if not (lam > 0 and math.isfinite(lam)):
        raise ConfigError(f"measurement rate must be positive and finite, got {lam!r}")


def check_horizon(horizon: float) -> None:
    """Reject a horizon that is negative or not finite."""
    if not (horizon >= 0 and math.isfinite(horizon)):
        raise ConfigError(f"horizon must be non-negative and finite, got {horizon!r}")


def check_schedule(lam: float, horizon: float, grid: np.ndarray) -> None:
    """Reject a measurement rate or horizon that no interval schedule can honour,
    and checkpoint times that are not finite or that decrease."""
    check_rate(lam)
    check_horizon(horizon)
    if not (np.isfinite(grid).all() and (np.diff(grid) >= 0).all()):
        raise ConfigError("checkpoint times must be finite and non-decreasing")


@dataclass(frozen=True)
class ProcessConfig:
    """Run parameters for the repeated measurement process."""

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
        if self.mode not in ("trajectory", "density-matrix"):
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.n_traj < 1:
            raise ConfigError("n_traj must be >= 1")
        if self.n_checkpoints < 0:
            raise ConfigError("n_checkpoints must be >= 0")
        check_beta(self.beta)
        check_schedule(self.lam, self.horizon, [] if self.checkpoint_times is None
                       else np.asarray(self.checkpoint_times, dtype=float))

    def beta_for(self, k: int) -> float:
        if np.isscalar(self.beta):
            return float(self.beta)
        seq = self.beta
        return float(seq[min(k, len(seq) - 1)])

    def grid(self) -> np.ndarray:
        if self.checkpoint_times is not None:
            return np.asarray(self.checkpoint_times, dtype=float)
        return np.linspace(0.0, self.horizon, self.n_checkpoints)


@dataclass(frozen=True)
class MeasurementOutcome:
    m: int
    p_m: float
    t: float


@dataclass(frozen=True)
class IntervalStep:
    """Result of one coupling-evolution-measurement cycle."""

    state_a: Union[StateVector, DensityMatrix]
    reservoir_populations: np.ndarray
    outcome: MeasurementOutcome | None
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
    """What the interval walk records for a batch of one, whichever propagator.

    States are in the propagator's frame: the lab frame for the exact run, the
    rotating frame of the uncoupled Hamiltonian for the averaged runs, where
    only marginal coherence phases differ; populations, energies and
    entropies are frame-invariant.
    """

    times: np.ndarray                          # measurement times t_1..t_K
    ledgers: list[IntervalLedger]
    rho_a_snapshots: np.ndarray                # (K+1, dim_a, dim_a), after each interval
    checkpoint_times: np.ndarray
    checkpoint_rho_a: np.ndarray               # (n_checkpoints, dim_a, dim_a)
    checkpoint_hab: np.ndarray                 # gamma <H_AB>
    checkpoint_hb: np.ndarray
    min_eig: float                             # lowest joint eigenvalue the propagator checked
    meta: dict
    series: CheckpointSeries
    truncation_suspect: bool
    born_max_deviation: float


@dataclass
class TrajectoryRecord(IntervalRun):
    """The exact density-matrix run (trajectory mode returns EnsembleSummary)."""

    seed: int
    pops_a: np.ndarray                         # (K+1, dim_a) A populations, energy basis
    s_a_series: np.ndarray                     # (K+1,) von Neumann entropy of A


def sample_interval(rng: np.random.Generator, lam: float) -> float:
    """Exponential waiting time with mean 1/lam."""
    if lam <= 0:
        raise ValueError("measurement rate must be positive")
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


def _expect(rows: np.ndarray, op: np.ndarray) -> np.ndarray:
    """<psi|op|psi> for each row psi of ``rows``."""
    return ((rows @ op.T) * rows.conj()).sum(axis=1).real


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

    def __init__(self, sys: JointSystem):
        prop = sys.propagator
        self.e, self.w = prop.eigenvalues, prop.eigenvectors
        self.hab = sys.h_ab.mat

    def evolve(self, joint0: np.ndarray, tau: float) -> np.ndarray:
        jt = self.w.conj().T @ joint0 @ self.w
        ph = np.exp(-1j * self.e * tau)
        return self.w @ (jt * np.outer(ph, ph.conj())) @ self.w.conj().T

    def hab_expect(self, joint: np.ndarray, tau: float) -> float:
        return float(np.trace(self.hab @ joint).real)

    def check_positivity(self, joint: np.ndarray) -> float:
        return 0.0

    def next_state(self, rho_a: np.ndarray) -> np.ndarray:
        return rho_a

    def to_frame(self, psi: np.ndarray) -> np.ndarray:
        """Eigenframe coefficients of joint state-vector rows."""
        return psi @ self.w.conj()

    def evolve_rows(self, c: np.ndarray, tau: np.ndarray) -> np.ndarray:
        """Lab-frame state vectors of coefficient rows ``c``, row i evolved for tau[i]."""
        return (np.exp(-1j * np.multiply.outer(tau, self.e)) * c) @ self.w.T


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
    return post / np.linalg.norm(post, axis=1)[:, None], _expect(psi_t, frame.hab), p_m, m


def _end_interval(prop, sys: JointSystem, joint_t: np.ndarray, tau: float):
    """Outcome-averaged measurement of B at the end of an interval.

    Returns the Hermitian state of A, the (unclipped) B populations in the
    energy basis and <H_AB> just before the measurement, gamma excluded.
    """
    dims = (sys.dim_a, sys.dim_b)
    rho_a = hermitian_part(marginal(joint_t, dims, "A"))
    pops_b = populations(marginal(joint_t, dims, "B"), sys.basis_b.eigenvectors)
    return rho_a, pops_b, prop.hab_expect(joint_t, tau)


def step_interval(state_a, reservoir_in, sys: JointSystem, t: float,
                  rng: np.random.Generator | None = None) -> IntervalStep:
    """Couple, evolve for a fixed time t, and measure the reservoir.

    Trajectory mode (StateVector inputs; reservoir_in must be an energy
    eigenstate or a level index) samples one outcome with ``rng``.
    Density-matrix mode (DensityMatrix inputs) returns the outcome-averaged
    post-measurement state of A.
    """
    if t < 0:
        raise ValueError("interval length must be non-negative")
    frame = _JointFrame(sys)
    v_b = sys.basis_b.eigenvectors

    if isinstance(state_a, StateVector):
        if rng is None:
            raise ValueError("trajectory mode requires an rng for the outcome draw")
        if isinstance(reservoir_in, (int, np.integer)):
            level = int(reservoir_in)
        elif isinstance(reservoir_in, StateVector):
            pops = np.abs(v_b.conj().T @ reservoir_in.vec) ** 2
            if pops.max() < 1.0 - 1e-10:
                raise PreconditionError("trajectory reservoir input must be an energy eigenstate")
            level = int(pops.argmax())
        else:
            raise PreconditionError("trajectory reservoir input must be an eigenstate or level index")
        # the trajectory ensemble's measurement step, on a batch of one
        c0 = frame.to_frame(np.kron(state_a.vec, v_b[:, level])[None])
        psi_a, hab, p_m, m = _measure(frame, v_b, c0, np.array([float(t)]),
                                      np.array([rng.random()]))
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

    rho_b = as_matrix(reservoir_in)
    diagonal_populations(rho_b, sys.basis_b, "reservoir input")
    joint_t = frame.evolve(np.kron(as_matrix(state_a), rho_b), t)
    rho_a_end, pops_b, h_ab_expect = _end_interval(frame, sys, joint_t, t)
    return IntervalStep(
        state_a=DensityMatrix(rho_a_end),
        reservoir_populations=np.clip(pops_b, 0.0, None),
        outcome=None,
        h_ab_expect=h_ab_expect,
        born_deviation=abs(pops_b.sum() - 1.0),
    )


def _checkpoint_series(grid, ha, hb, hab, s_a, se_ha, n_traj: int, sums) -> CheckpointSeries:
    q_cum, w_cum, wm_cum, bq_cum = sums
    s0 = s_a[0] if len(s_a) else 0.0
    return CheckpointSeries(
        t=np.asarray(grid, dtype=float), mean_ha=ha, mean_hb=hb, mean_hab=hab,
        q_cum=q_cum, w_cum=w_cum, wmeas_cum=wm_cum, s_a=s_a,
        s_tot=s_a - s0 - bq_cum, se_ha=se_ha, n_traj=n_traj,
    )


def _walk(step, uniforms: int, rngs: Sequence[np.random.Generator], lam: float,
          horizon: float, grid: np.ndarray, intervals: np.ndarray | None = None):
    """Advance a batch of walkers together through the measured-interval cycle.

    Step k takes each walker whose clock is before ``horizon`` through its
    interval k: walker i draws the length from ``rngs[i]`` (or takes
    ``intervals[k]``), then ``uniforms`` uniforms for the batch's own draws.
    ``step(k, live, u, t_k, checkpoints, completes)`` evolves the live
    walkers, records the checkpoints (j, on, tau) of ``grid`` as it iterates
    them (walkers ``on``, ``tau`` into their interval), measures the walkers
    whose interval ``completes`` by the horizon and returns their (Q, W,
    W_meas, beta Q) rows.  The interval that crosses the horizon books no
    ledger.

    Returns all measurement times in order, the number of checkpoints every
    walker reached, and there the running ledger sums over walkers, (4, n).
    """
    check_schedule(lam, horizon, grid)
    clock = np.zeros(len(rngs))
    cp_next = np.zeros(len(rngs), dtype=int)
    times, terms = [np.empty(0)], [np.empty((0, 4))]
    t_cum, k = 0.0, 0                          # the earliest walker's clock
    while t_cum < horizon:
        live = np.flatnonzero(clock < horizon)
        if intervals is None:
            draws = np.array([(sample_interval(rngs[i], lam), *rngs[i].random(uniforms))
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
        checkpoints = ((j, on, np.minimum(np.maximum(grid[j] - t_start[on], 0.0), t_k[on]))
                       for j in range(first.min(), stop.max())
                       if (on := (first <= j) & (j < stop)).any())
        terms.append(np.reshape(step(k, live, u, t_k, checkpoints, completes), (-1, 4)))
        times.append(t_end[completes])
        cp_next[live] = stop
        clock[live] = t_end
        t_cum, k = clock.min(), k + 1

    times, terms = np.concatenate(times), np.concatenate(terms)
    order = np.argsort(times, kind="stable")
    n_cp = int(cp_next.min())
    sums = np.vstack((np.zeros(4), np.cumsum(terms[order], axis=0)))
    return times[order], n_cp, sums[np.searchsorted(times[order], grid[:n_cp], side="right")].T


def run_intervals(prop, sys: JointSystem, rho_a: np.ndarray,
                  reservoir: Callable[[int], tuple[float, np.ndarray]],
                  horizon: float, grid: np.ndarray, lam: float, seed: int,
                  intervals: np.ndarray | None = None) -> IntervalRun:
    """The measured-interval cycle of the exact, weak and fast runs: ``_walk``
    on a batch of one outcome-averaged state.

    Interval k couples rho_A to the reservoir input ``reservoir(k)`` =
    (beta_k, rho_B) and evolves the product with ``prop`` for the next
    scheduled time: ``intervals`` if given, else exponential draws at rate
    ``lam`` from ``seed``.  ``prop`` supplies evolve(joint0, tau),
    hab_expect(joint, tau) (gamma excluded), check_positivity(joint) -> lowest
    eigenvalue checked, next_state(rho_A), and the entropy floors
    ``positivity_floor`` and ``checkpoint_floor``.
    """
    grid = np.asarray(grid, dtype=float)
    dims = (sys.dim_a, sys.dim_b)
    v_b = sys.basis_b.eigenvectors
    cp_rho = np.empty((len(grid), sys.dim_a, sys.dim_a), dtype=complex)
    cp_obs = np.empty((4, len(grid)))              # <H_A>, <H_B>, gamma <H_AB>, S_A
    ledgers: list[IntervalLedger] = []
    snapshots = [rho_a]
    born_max = min_eig = 0.0

    def step(k, live, u, t_k, checkpoints, completes):
        nonlocal rho_a, born_max, min_eig
        beta_k, rho_b0 = reservoir(k)
        joint0 = np.kron(rho_a, rho_b0)
        for j, _, tau in checkpoints:
            tau = float(tau[0])
            joint = prop.evolve(joint0, tau)
            rho_cp = hermitian_part(marginal(joint, dims, "A"))
            cp_rho[j] = rho_cp
            cp_obs[:, j] = (
                float(np.trace(sys.h_a.mat @ rho_cp).real),
                float(np.trace(sys.h_b.mat @ marginal(joint, dims, "B")).real),
                sys.gamma * prop.hab_expect(joint, tau),
                von_neumann_entropy(rho_cp, prop.checkpoint_floor),
            )
        if not completes[0]:
            return ()

        t_k = float(t_k[0])
        joint_t = prop.evolve(joint0, t_k)
        min_eig = min(min_eig, prop.check_positivity(joint_t))
        rho_a_end, pops_b, h_ab_expect = _end_interval(prop, sys, joint_t, t_k)
        born_max = max(born_max, abs(pops_b.sum() - 1.0))
        rho_b_end = (v_b * np.clip(pops_b, 0.0, None)) @ v_b.conj().T
        led = ledger_for_interval(rho_a, rho_a_end, rho_b0, rho_b_end, h_ab_expect, sys,
                                  beta_k, positivity_floor=prop.positivity_floor)
        ledgers.append(led)
        rho_a = prop.next_state(rho_a_end)
        snapshots.append(rho_a)
        return (led.q, led.w, led.w_meas, led.beta * led.q)

    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed))
    times, n_cp, sums = _walk(step, 0, [rng], lam, horizon, grid, intervals)
    series = _checkpoint_series(grid[:n_cp], *cp_obs[:, :n_cp], np.zeros(n_cp), 1, sums)
    snapshots = np.array(snapshots)
    # every state of A the run reported: at the checkpoints and after each interval
    v_top = sys.basis_a.eigenvectors[:, np.argmax(sys.basis_a.eigenvalues)]
    states = np.concatenate((cp_rho[:n_cp], snapshots[1:]))
    top = np.einsum("a,kab,b->k", v_top.conj(), states, v_top).real
    return IntervalRun(
        times=times,
        ledgers=ledgers,
        rho_a_snapshots=snapshots,
        checkpoint_times=series.t,
        checkpoint_rho_a=cp_rho[:n_cp],
        checkpoint_hab=series.mean_hab,
        checkpoint_hb=series.mean_hb,
        min_eig=min_eig,
        meta={"lam": lam, "horizon": horizon},
        series=series,
        truncation_suspect=bool((top > TRUNCATION_LIMIT).any()),
        born_max_deviation=born_max,
    )


def run_process(cfg: ProcessConfig, sys: JointSystem):
    """Run the full repeated measurement process.

    Density-matrix mode returns a TrajectoryRecord with per-interval ledgers;
    trajectory mode returns an EnsembleSummary reduced over cfg.n_traj
    realizations (per-trajectory streams are split from the master seed by
    trajectory index).
    """
    if cfg.initial_state_a is None:
        raise ConfigError("initial_state_a is required")
    if cfg.mode == "density-matrix":
        return _run_density_matrix(cfg, sys)
    return _run_trajectory_ensemble(cfg, sys)


def _run_density_matrix(cfg: ProcessConfig, sys: JointSystem) -> TrajectoryRecord:
    state = cfg.initial_state_a
    rho_a = state.projector().mat if isinstance(state, StateVector) else as_matrix(state)

    def reservoir(k: int):
        beta_k = cfg.beta_for(k)
        return beta_k, thermal_state(sys.h_b, beta_k).mat

    run = run_intervals(_JointFrame(sys), sys, rho_a, reservoir, cfg.horizon, cfg.grid(),
                        cfg.lam, cfg.seed, cfg.intervals)
    snapshots = run.rho_a_snapshots
    v_a = sys.basis_a.eigenvectors
    return TrajectoryRecord(
        **vars(run), seed=cfg.seed,
        pops_a=np.array([np.clip(populations(r, v_a), 0.0, None) for r in snapshots]),
        s_a_series=np.array([von_neumann_entropy(r) for r in snapshots]))


def _run_trajectory_ensemble(cfg: ProcessConfig, sys: JointSystem) -> EnsembleSummary:
    """``_walk`` on a batch of n_traj pure-state trajectories, one row of psi_a each.

    Interval k couples each live trajectory's psi_A to a reservoir level drawn
    from the thermal populations at beta_k, held as (n, d) coefficients in the
    coupled eigenframe, so that evolving the trajectories to a checkpoint is
    one matrix product.  Checkpoint observables are summed over trajectories.
    Each trajectory draws from its own stream, in the order: its initial
    eigenstate (mixed start only), then per interval the length, the input
    level and the outcome.
    """
    n = cfg.n_traj
    rngs = [_traj_rng(cfg.seed, i) for i in range(n)]
    state = cfg.initial_state_a
    if isinstance(state, StateVector):
        psi_a = np.tile(state.vec, (n, 1))
    else:
        evals, evecs = np.linalg.eigh(as_matrix(state))
        p = np.clip(evals, 0.0, None)
        psi_a = evecs.T[_draw_index(p / p.sum(), np.array([rng.random() for rng in rngs]))]
    frame = _JointFrame(sys)
    dims = (sys.dim_a, sys.dim_b)
    v_b = sys.basis_b.eigenvectors
    v_top = sys.basis_a.eigenvectors[:, np.argmax(sys.basis_a.eigenvalues)]
    # <H_A> and the top-level population as joint-space operators
    ha_joint = np.kron(sys.h_a.mat, np.eye(sys.dim_b))
    top_joint = np.kron(np.outer(v_top, v_top.conj()), np.eye(sys.dim_b))
    ha_now = _expect(psi_a, sys.h_a.mat)
    grid = cfg.grid()
    rho_sum = np.zeros((len(grid), sys.dim_a, sys.dim_a), complex)
    obs_sum = np.zeros((4, len(grid)))             # <H_A>, <H_A>^2, <H_B>, gamma <H_AB>
    born_max = 0.0
    truncation = False

    def step(k, live, u, t_k, checkpoints, completes):
        nonlocal born_max, truncation
        beta = cfg.beta_for(k)
        pops = np.clip(populations(thermal_state(sys.h_b, beta).mat, v_b), 0.0, None)
        joint0 = psi_a[live][:, :, None] * v_b.T[_draw_index(pops, u[:, 0])][:, None, :]
        c0 = frame.to_frame(joint0.reshape(live.size, -1))
        for j, on, tau in checkpoints:
            psi = frame.evolve_rows(c0[on], tau)
            joint = psi.T @ psi.conj()             # sum over trajectories of |psi><psi|
            ha = _expect(psi, ha_joint)
            rho_sum[j] += marginal(joint, dims, "A")
            obs_sum[:, j] += (ha.sum(), (ha * ha).sum(),
                              np.trace(sys.h_b.mat @ marginal(joint, dims, "B")).real,
                              sys.gamma * np.trace(frame.hab @ joint).real)
            truncation = truncation or _expect(psi, top_joint).max() > TRUNCATION_LIMIT

        done = live[completes]
        psi_a[done], hab, p_m, _ = _measure(frame, v_b, c0[completes], t_k[completes],
                                            u[completes, 1])
        born_max = max(born_max, float(np.abs(p_m.sum(axis=1) - 1.0).max(initial=0.0)))
        ha_start, ha_now[done] = ha_now[done], _expect(psi_a[done], sys.h_a.mat)
        # outcome-averaged reservoir bookkeeping; A-side energies conditioned
        # on the sampled outcome (ensemble averages match density-matrix mode)
        p = np.clip(p_m, 0.0, None)
        ds_b = -(p * np.log(np.where(p > 0, p, 1.0))).sum(axis=1)
        q = -ds_b / beta if beta > 0 else np.full(done.size, math.nan)
        return np.column_stack((q, (ha_now[done] - ha_start) - q, -sys.gamma * hab, beta * q))

    _, n_cp, sums = _walk(step, 2, rngs, cfg.lam, cfg.horizon, grid)
    mean_ha, mean_ha2, mean_hb, mean_hab = obs_sum[:, :n_cp] / n
    var = np.maximum(mean_ha2 - mean_ha ** 2, 0.0)
    mean_rho = rho_sum[:n_cp] / n
    s_a = np.array([von_neumann_entropy(hermitian_part(r)) for r in mean_rho])
    series = _checkpoint_series(grid[:n_cp], mean_ha, mean_hb, mean_hab, s_a,
                                np.sqrt(var / max(n - 1, 1)), n, sums / n)
    return EnsembleSummary(
        n_traj=n,
        series=series,
        mean_rho_a=mean_rho,
        truncation_suspect=truncation,
        born_max_deviation=born_max,
        meta={"lam": cfg.lam, "horizon": cfg.horizon, "seed": cfg.seed},
    )


# ---------------------------------------------------------------------------
# Exact measurement-averaged analysis


class AveragedIntervalMap:
    """Expected post-measurement map of one interval, averaged over the
    exponential interval-length distribution.

    In the coupled eigenbasis the average multiplies the (i, j) matrix element
    by lam / (lam + i(E_i - E_j)); measurement then traces out B and installs a
    fresh thermal reservoir.  The fixed point is the steady state of A at
    measurement times.
    """

    def __init__(self, sys: JointSystem, beta: float, lam: float):
        check_rate(lam)
        self.sys = sys
        self.beta = beta
        self.lam = lam
        prop = sys.propagator
        self.e, self.w = prop.eigenvalues, prop.eigenvectors
        self.rho_b = thermal_state(sys.h_b, beta).mat
        self.filter = lam / (lam + 1j * (self.e[:, None] - self.e[None, :]))

    def apply(self, rho_a: np.ndarray) -> np.ndarray:
        joint = np.kron(np.asarray(rho_a, dtype=complex), self.rho_b)
        jt = self.w.conj().T @ joint @ self.w
        avg = self.w @ (jt * self.filter) @ self.w.conj().T
        out = hermitian_part(marginal(avg, (self.sys.dim_a, self.sys.dim_b), "A"))
        return out / np.trace(out).real

    def fixed_point(self, tol: float = 1e-14, max_iter: int = 100000) -> np.ndarray:
        da = self.sys.dim_a
        rho = np.eye(da, dtype=complex) / da
        for _ in range(max_iter):
            new = self.apply(rho)
            if np.abs(new - rho).max() < tol:
                return new
            rho = new
        return rho


def jump_averaged_generator(sys: JointSystem, beta: float, lam: float):
    """Right-hand side of the exact ensemble-averaged joint master equation.

    d rho/dt = -i[H, rho] + lam (Tr_B rho (x) rho_B(0) - rho).  This is the
    exact average of the piecewise-unitary process over both outcomes and
    exponential measurement times.
    """
    h = sys.total_h.mat
    rho_b = thermal_state(sys.h_b, beta).mat
    dims = (sys.dim_a, sys.dim_b)

    def rhs(rho: np.ndarray) -> np.ndarray:
        comm = h @ rho - rho @ h
        replaced = np.kron(marginal(rho, dims, "A"), rho_b)
        return -1j * comm + lam * (replaced - rho)

    return rhs


def ensemble_average_series(sys: JointSystem, beta: float, lam: float,
                            rho_a0: np.ndarray, t_eval: np.ndarray,
                            rtol: float = 1e-9, atol: float = 1e-11):
    """Exact ensemble-mean observables of the process on a time grid.

    Returns (rho_a_stack, mean_ha, mean_hb, mean_hab) where mean_hab includes
    the gamma factor.
    """
    rhs = jump_averaged_generator(sys, beta, lam)
    d = sys.dim
    rho_b = thermal_state(sys.h_b, beta).mat
    y0 = np.kron(np.asarray(rho_a0, dtype=complex), rho_b).reshape(-1)

    def f(t, y):
        return rhs(y.reshape(d, d)).reshape(-1)

    t_eval = np.asarray(t_eval, dtype=float)
    sol = solve_ivp(f, (0.0, float(t_eval[-1])), y0, t_eval=t_eval,
                    rtol=rtol, atol=atol, method="RK45")
    if not sol.success:
        raise RuntimeError(f"ensemble-average integration failed: {sol.message}")
    dims = (sys.dim_a, sys.dim_b)
    rho_a = np.empty((len(t_eval), sys.dim_a, sys.dim_a), complex)
    ha = np.empty(len(t_eval))
    hb = np.empty(len(t_eval))
    hab = np.empty(len(t_eval))
    for i in range(len(t_eval)):
        rho = sol.y[:, i].reshape(d, d)
        rho_a[i] = hermitian_part(marginal(rho, dims, "A"))
        ha[i] = float(np.trace(sys.h_a.mat @ rho_a[i]).real)
        hb[i] = float(np.trace(sys.h_b.mat @ marginal(rho, dims, "B")).real)
        hab[i] = sys.gamma * float(np.trace(sys.h_ab.mat @ rho).real)
    return rho_a, ha, hb, hab


def absorption_rate_mc(sys: JointSystem, psi_a: StateVector, beta: float, lam: float,
                       n_trials: int, seed: int, chunk: int = 20000):
    """Monte Carlo estimate of the reservoir excitation rate lam<x>.

    Each trial runs a single interval of the exact process from the same
    initial cavity state with a fresh thermal reservoir sample, and scores the
    level change of the measured qubit (+1 absorption, -1 emission).  Returns
    (rate, rate_se).
    """
    frame = _JointFrame(sys)
    db = sys.dim_b
    v_b = sys.basis_b.eigenvectors
    if db != 2:
        raise PreconditionError("absorption scoring assumes a two-level reservoir")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0,)))
    pops_in = np.clip(populations(thermal_state(sys.h_b, beta).mat, v_b), 0.0, None)
    pops_in = pops_in / pops_in.sum()
    c0 = frame.to_frame(np.array([np.kron(psi_a.vec, v_b[:, b]) for b in range(db)]))
    x_sum = 0.0
    x2_sum = 0.0
    done = 0
    while done < n_trials:
        m = min(chunk, n_trials - done)
        levels = _draw_index(pops_in, rng.random(m))
        ts = rng.exponential(1.0 / lam, size=m)
        us = rng.random(m)
        psi = frame.evolve_rows(c0[levels], ts)
        x = _draw_index(_born(psi, v_b)[1], us) - levels
        x_sum += x.sum()
        x2_sum += (x * x).sum()
        done += m
    mean = x_sum / n_trials
    var = max(x2_sum / n_trials - mean ** 2, 0.0)
    se = math.sqrt(var / n_trials)
    return lam * mean, lam * se
