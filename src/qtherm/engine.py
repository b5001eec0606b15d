"""The repeated measurement process.

Each interval couples the central system A to a fresh reservoir sample B,
evolves the pair under the full Hamiltonian for an exponentially distributed
time, then projectively measures B in its energy basis.  Trajectory mode
samples outcomes per realization; density-matrix mode applies the
outcome-averaged map (dephase B, then replace it: rho_AB -> Tr_B rho_AB (x)
rho_B(0)).  ``run_intervals`` is the one interval driver: the exact
density-matrix run and the weak and fast averaged runs hand it different
propagators and nothing else.

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
from .models import JointSystem, TRUNCATION_LIMIT, thermal_state
from .qcore import (DensityMatrix, StateVector, as_matrix, diagonal_populations,
                    hermitian_part, marginal, populations, shannon_entropy,
                    von_neumann_entropy)
from .thermo import IntervalLedger, ledger_for_interval

BORN_TOL = 1e-10


def check_rate(lam: float) -> None:
    """Reject a measurement rate that is not positive and finite."""
    if not (lam > 0 and math.isfinite(lam)):
        raise ConfigError(f"measurement rate must be positive and finite, got {lam!r}")


def check_rate_and_horizon(lam: float, horizon: float) -> None:
    """Reject a measurement rate or horizon that no interval schedule can honour."""
    check_rate(lam)
    if not (horizon >= 0 and math.isfinite(horizon)):
        raise ConfigError(f"horizon must be non-negative and finite, got {horizon!r}")


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
        check_rate_and_horizon(self.lam, self.horizon)
        if self.mode not in ("trajectory", "density-matrix"):
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.n_traj < 1:
            raise ConfigError("n_traj must be >= 1")

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
class TrajectoryRecord:
    """One realization (or one density-matrix run) of the process."""

    mode: str
    seed: int
    times: np.ndarray                          # measurement times t_1..t_K
    ledgers: list[IntervalLedger]
    outcomes: list[MeasurementOutcome] | None
    pops_a: np.ndarray                         # (K+1, dim_a) A populations, energy basis
    s_a_series: np.ndarray                     # (K+1,) von Neumann entropy of A
    rho_a_snapshots: np.ndarray                # (K+1, dim_a, dim_a)
    series: CheckpointSeries | None
    truncation_suspect: bool
    born_max_deviation: float
    meta: dict = field(default_factory=dict)


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
    """What the interval driver records, whichever propagator it ran with.

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


def sample_interval(rng: np.random.Generator, lam: float) -> float:
    """Exponential waiting time with mean 1/lam."""
    if lam <= 0:
        raise ValueError("measurement rate must be positive")
    return float(rng.exponential(1.0 / lam))


def _traj_rng(seed: int, index: int) -> np.random.Generator:
    # counter-based: stream depends only on (seed, index)
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


def _draw_index(p: np.ndarray, rng: np.random.Generator) -> int:
    """Index drawn with probabilities proportional to p (one uniform draw)."""
    return min(int(np.searchsorted(np.cumsum(p), rng.random() * p.sum())), len(p) - 1)


def _draw_outcome(psi_t: np.ndarray, v_b: np.ndarray, rng: np.random.Generator):
    """Measure B of a joint pure state: (outcome m, Born probabilities, post-measurement psi_A)."""
    amp_b = v_b.conj().T @ psi_t.reshape(-1, v_b.shape[0]).T  # rows: outcome level
    p_m = (np.abs(amp_b) ** 2).sum(axis=1)
    m = _draw_index(p_m, rng)
    return m, p_m, amp_b[m] / np.linalg.norm(amp_b[m])


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

    def to_frame_sv(self, psi: np.ndarray) -> np.ndarray:
        return self.w.conj().T @ psi

    def evolve_sv(self, c: np.ndarray, t: float) -> np.ndarray:
        return self.w @ (np.exp(-1j * self.e * t) * c)


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
        psi_t = frame.evolve_sv(frame.to_frame_sv(np.kron(state_a.vec, v_b[:, level])), t)
        h_ab_expect = float(np.vdot(psi_t, frame.hab @ psi_t).real)
        m, p_m, psi_a = _draw_outcome(psi_t, v_b, rng)
        born_dev = abs(p_m.sum() - 1.0)
        if born_dev > BORN_TOL:
            raise PreconditionError(f"outcome probabilities sum to 1 + {p_m.sum()-1:.2e}")
        return IntervalStep(
            state_a=StateVector(psi_a),
            reservoir_populations=p_m,
            outcome=MeasurementOutcome(m=m, p_m=float(p_m[m]), t=t),
            h_ab_expect=h_ab_expect,
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


def _cumulative_on_grid(meas_times, grid: np.ndarray, terms) -> np.ndarray:
    """Running sums of per-interval (Q, W, W_meas, beta Q) rows at each grid time.

    An interval counts once its measurement time is at or before the grid
    time; returns a (4, len(grid)) array.
    """
    sums = np.cumsum(np.reshape(np.asarray(terms, dtype=float), (-1, 4)), axis=0)
    sums = np.vstack((np.zeros(4), sums))
    return sums[np.searchsorted(meas_times, grid, side="right")].T


def _checkpoint_series(grid, ha, hb, hab, s_a, se_ha, n_traj: int, sums) -> CheckpointSeries:
    q_cum, w_cum, wm_cum, bq_cum = sums
    s0 = s_a[0] if len(s_a) else 0.0
    return CheckpointSeries(
        t=np.asarray(grid, dtype=float), mean_ha=ha, mean_hb=hb, mean_hab=hab,
        q_cum=q_cum, w_cum=w_cum, wmeas_cum=wm_cum, s_a=s_a,
        s_tot=s_a - s0 - bq_cum, se_ha=se_ha, n_traj=n_traj,
    )


def run_intervals(prop, sys: JointSystem, rho_a: np.ndarray,
                  reservoir: Callable[[int], tuple[float, np.ndarray]],
                  horizon: float, grid: np.ndarray, lam: float, seed: int,
                  intervals: np.ndarray | None = None) -> IntervalRun:
    """The measured-interval cycle, shared by the exact, weak and fast runs.

    Interval k couples rho_A to the reservoir input ``reservoir(k)`` =
    (beta_k, rho_B), evolves the product with ``prop`` for the next scheduled
    time (``intervals`` if given, else exponential draws at rate ``lam`` from
    ``seed``), records every checkpoint of ``grid`` it spans, then measures and
    replaces B and books the interval's ledger.  The interval that crosses
    ``horizon`` contributes checkpoints but no ledger.

    ``prop`` supplies evolve(joint0, tau), hab_expect(joint, tau) (gamma
    excluded), check_positivity(joint) -> lowest eigenvalue checked,
    next_state(rho_A), and the entropy floors ``positivity_floor`` and
    ``checkpoint_floor``.
    """
    check_rate_and_horizon(lam, horizon)
    dims = (sys.dim_a, sys.dim_b)
    v_b = sys.basis_b.eigenvectors
    v_top = sys.basis_a.eigenvectors[:, np.argmax(sys.basis_a.eigenvalues)]
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed))
    n_cp = len(grid)
    cp_rho = np.empty((n_cp, sys.dim_a, sys.dim_a), dtype=complex)
    cp_obs = np.empty((4, n_cp))               # <H_A>, <H_B>, gamma <H_AB>, S_A
    times = [0.0]
    ledgers: list[IntervalLedger] = []
    snapshots = [rho_a]
    born_max = min_eig = 0.0
    truncation = False
    cp_done = 0
    t_cum = 0.0
    k = 0
    while t_cum < horizon:
        if intervals is None:
            t_k = sample_interval(rng, lam)
        elif k < len(intervals):
            t_k = float(intervals[k])
        else:
            break
        beta_k, rho_b0 = reservoir(k)
        joint0 = np.kron(rho_a, rho_b0)
        t_end = t_cum + t_k
        completes = t_end <= horizon
        limit = t_end if completes else horizon

        while cp_done < n_cp and grid[cp_done] <= limit + 1e-12:
            tau = min(max(grid[cp_done] - t_cum, 0.0), t_k)
            joint = prop.evolve(joint0, tau)
            rho_cp = hermitian_part(marginal(joint, dims, "A"))
            cp_rho[cp_done] = rho_cp
            cp_obs[:, cp_done] = (
                float(np.trace(sys.h_a.mat @ rho_cp).real),
                float(np.trace(sys.h_b.mat @ marginal(joint, dims, "B")).real),
                sys.gamma * prop.hab_expect(joint, tau),
                von_neumann_entropy(rho_cp, prop.checkpoint_floor),
            )
            if np.vdot(v_top, rho_cp @ v_top).real > TRUNCATION_LIMIT:
                truncation = True
            cp_done += 1

        if not completes:
            break

        joint_t = prop.evolve(joint0, t_k)
        min_eig = min(min_eig, prop.check_positivity(joint_t))
        rho_a_end, pops_b, h_ab_expect = _end_interval(prop, sys, joint_t, t_k)
        born_max = max(born_max, abs(pops_b.sum() - 1.0))
        rho_b_end = (v_b * np.clip(pops_b, 0.0, None)) @ v_b.conj().T
        ledgers.append(ledger_for_interval(
            rho_a, rho_a_end, rho_b0, rho_b_end, h_ab_expect, sys, beta_k,
            positivity_floor=prop.positivity_floor))
        rho_a = prop.next_state(rho_a_end)
        t_cum = t_end
        times.append(t_cum)
        snapshots.append(rho_a)
        if np.vdot(v_top, rho_a @ v_top).real > TRUNCATION_LIMIT:
            truncation = True
        k += 1

    meas_times = np.array(times[1:])
    sums = _cumulative_on_grid(meas_times, grid[:cp_done],
                               [(led.q, led.w, led.w_meas, led.beta * led.q) for led in ledgers])
    series = _checkpoint_series(grid[:cp_done], *cp_obs[:, :cp_done], np.zeros(cp_done), 1, sums)
    return IntervalRun(
        times=meas_times,
        ledgers=ledgers,
        rho_a_snapshots=np.array(snapshots),
        checkpoint_times=series.t,
        checkpoint_rho_a=cp_rho[:cp_done],
        checkpoint_hab=series.mean_hab,
        checkpoint_hb=series.mean_hb,
        min_eig=min_eig,
        meta={"lam": lam, "horizon": horizon},
        series=series,
        truncation_suspect=truncation,
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
        mode="density-matrix",
        seed=cfg.seed,
        times=run.times,
        ledgers=run.ledgers,
        outcomes=None,
        pops_a=np.array([np.clip(populations(r, v_a), 0.0, None) for r in snapshots]),
        s_a_series=np.array([von_neumann_entropy(r) for r in snapshots]),
        rho_a_snapshots=snapshots,
        series=run.series,
        truncation_suspect=run.truncation_suspect,
        born_max_deviation=run.born_max_deviation,
        meta=run.meta,
    )


def _run_one_trajectory(cfg: ProcessConfig, sys: JointSystem, frame: _JointFrame,
                        idx: int, grid: np.ndarray, input_pops):
    rng = _traj_rng(cfg.seed, idx)
    da, db = sys.dim_a, sys.dim_b
    h_a, h_b, hab = sys.h_a.mat, sys.h_b.mat, frame.hab
    v_b = sys.basis_b.eigenvectors
    v_top = sys.basis_a.eigenvectors[:, np.argmax(sys.basis_a.eigenvalues)]
    state = cfg.initial_state_a
    if isinstance(state, StateVector):
        psi_a = state.vec.copy()
    else:
        evals, evecs = np.linalg.eigh(as_matrix(state))
        p = np.clip(evals, 0.0, None)
        psi_a = evecs[:, _draw_index(p / p.sum(), rng)]

    n_cp = len(grid)
    ha, hb, habv = obs = np.zeros((3, n_cp))  # <H_A>, <H_B>, gamma <H_AB>
    rho = np.zeros((n_cp, da, da), complex)
    meas_times: list[float] = []
    terms: list[tuple[float, float, float, float]] = []
    born_max = 0.0
    truncation = False
    cp_done = 0
    t_cum = 0.0
    k = 0
    while t_cum < cfg.horizon:
        t_k = sample_interval(rng, cfg.lam)
        beta_k = cfg.beta_for(k)
        level = _draw_index(input_pops(beta_k), rng)
        c0 = frame.to_frame_sv(np.kron(psi_a, v_b[:, level]))
        t_end = t_cum + t_k
        completes = t_end <= cfg.horizon
        limit = t_end if completes else cfg.horizon

        ha_start = float(np.vdot(psi_a, h_a @ psi_a).real)

        while cp_done < n_cp and grid[cp_done] <= limit + 1e-12:
            delta = min(max(grid[cp_done] - t_cum, 0.0), t_k)
            psi_cp = frame.evolve_sv(c0, delta)
            m_cp = psi_cp.reshape(da, db)
            rho_cp = m_cp @ m_cp.conj().T
            rho[cp_done] = rho_cp
            ha[cp_done] = float(np.trace(h_a @ rho_cp).real)
            rho_b_cp = m_cp.conj().T @ m_cp
            hb[cp_done] = float(np.trace(h_b @ rho_b_cp.T).real)
            habv[cp_done] = sys.gamma * float(np.vdot(psi_cp, hab @ psi_cp).real)
            if np.vdot(v_top, rho_cp @ v_top).real > TRUNCATION_LIMIT:
                truncation = True
            cp_done += 1

        if not completes:
            break

        psi_t = frame.evolve_sv(c0, t_k)
        h_ab_expect = float(np.vdot(psi_t, hab @ psi_t).real)
        _, p_m, psi_a = _draw_outcome(psi_t, v_b, rng)
        born_max = max(born_max, abs(p_m.sum() - 1.0))

        ha_end = float(np.vdot(psi_a, h_a @ psi_a).real)
        # outcome-averaged reservoir bookkeeping; A-side energies conditioned
        # on the sampled outcome (ensemble averages match density-matrix mode)
        ds_b = shannon_entropy(np.clip(p_m, 0.0, None))
        q_k = -ds_b / beta_k if beta_k > 0 else math.nan
        w_k = (ha_end - ha_start) - q_k if beta_k > 0 else math.nan
        bq_k = beta_k * q_k if beta_k > 0 else math.nan
        terms.append((q_k, w_k, -sys.gamma * h_ab_expect, bq_k))
        meas_times.append(t_end)
        t_cum = t_end
        k += 1

    sums = _cumulative_on_grid(np.array(meas_times), grid, terms)
    return obs, rho, sums, born_max, truncation


def _run_trajectory_ensemble(cfg: ProcessConfig, sys: JointSystem) -> EnsembleSummary:
    frame = _JointFrame(sys)
    grid = cfg.grid()
    n_cp = len(grid)
    v_b = sys.basis_b.eigenvectors
    pops_memo: dict[float, np.ndarray] = {}

    def input_pops(beta: float) -> np.ndarray:
        pops = pops_memo.get(beta)
        if pops is None:
            pops = np.clip(populations(thermal_state(sys.h_b, beta).mat, v_b), 0.0, None)
            pops_memo[beta] = pops
        return pops

    tot_obs = np.zeros((3, n_cp))
    tot_ha2 = np.zeros(n_cp)
    tot_rho = np.zeros((n_cp, sys.dim_a, sys.dim_a), complex)
    tot_sums = np.zeros((4, n_cp))
    born_max = 0.0
    truncation = False
    for idx in range(cfg.n_traj):
        obs, rho, sums, bd, trunc = _run_one_trajectory(cfg, sys, frame, idx, grid, input_pops)
        tot_obs += obs
        tot_ha2 += obs[0] * obs[0]
        tot_rho += rho
        tot_sums += sums
        born_max = max(born_max, bd)
        truncation = truncation or trunc

    n = cfg.n_traj
    mean_ha, mean_hb, mean_hab = tot_obs / n
    var = np.maximum(tot_ha2 / n - mean_ha ** 2, 0.0)
    mean_rho = tot_rho / n
    s_a = np.array([von_neumann_entropy(hermitian_part(r)) for r in mean_rho])
    series = _checkpoint_series(grid, mean_ha, mean_hb, mean_hab, s_a,
                                np.sqrt(var / max(n - 1, 1)), n, tot_sums / n)
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
        if lam <= 0:
            raise ValueError("measurement rate must be positive")
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
    da, db = sys.dim_a, sys.dim_b
    v_b = sys.basis_b.eigenvectors
    if db != 2:
        raise PreconditionError("absorption scoring assumes a two-level reservoir")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0,)))
    pops_in = np.clip(populations(thermal_state(sys.h_b, beta).mat, v_b), 0.0, None)
    pops_in = pops_in / pops_in.sum()
    c0 = [frame.to_frame_sv(np.kron(psi_a.vec, v_b[:, b])) for b in range(db)]
    # Born amplitudes grouped by outcome level: psi reshaped (da, db)
    x_sum = 0.0
    x2_sum = 0.0
    done = 0
    while done < n_trials:
        m = min(chunk, n_trials - done)
        levels = np.searchsorted(np.cumsum(pops_in), rng.random(m) * pops_in.sum())
        levels = np.minimum(levels, db - 1)
        ts = rng.exponential(1.0 / lam, size=m)
        us = rng.random(m)
        x = np.zeros(m)
        for b in range(db):
            sel = levels == b
            if not sel.any():
                continue
            phases = np.exp(-1j * np.outer(frame.e, ts[sel]))
            psi = frame.w @ (phases * c0[b][:, None])
            # outcome populations in the H_B eigenbasis
            amp = np.einsum("bi,abm->aim", v_b.conj(), psi.reshape(da, db, -1))
            p_m = (np.abs(amp) ** 2).sum(axis=0)
            cum = np.cumsum(p_m, axis=0)
            out_lvl = (us[sel][None, :] * cum[-1] > cum).sum(axis=0)
            x[sel] = out_lvl - b
        x_sum += x.sum()
        x2_sum += (x * x).sum()
        done += m
    mean = x_sum / n_trials
    var = max(x2_sum / n_trials - mean ** 2, 0.0)
    se = math.sqrt(var / n_trials)
    return lam * mean, lam * se
