"""Per-interval heat/work/entropy accounting and second-law verification.

Sign convention: every quantity is energy added *to* the system side under
consideration.  Heat is defined from the entropy change of the measured
reservoir, Q = -dS_B/beta, with the reservoir entropy always evaluated in its
energy eigenbasis; work follows from W = dH_A - Q.  The measurement
back-action -gamma<H_AB> is booked as work, never as heat.  ``book_intervals``
is the one place these are computed, for every mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .errors import DimensionError, PreconditionError
from .qcore import as_matrix, expect, shannon_entropy, trace_distance
from .models import JointSystem

# Trace-distance threshold under which two states of A count as a cyclic return.
CYCLE_TOL = 1e-6

# Violation thresholds of the second-law suite.
ENTROPY_TOL = 1e-9        # dS_a + dS_b below -ENTROPY_TOL
KLEIN_TOL = 1e-9          # dH_b - dS_b/beta below -KLEIN_TOL
CYCLE_Q_TOL = 1e-8        # window heat sum above CYCLE_Q_TOL
BACKACTION_TOL = 1e-9     # |w_meas - (dH_a + dH_b)| above BACKACTION_TOL


@dataclass(frozen=True)
class IntervalLedger:
    """Energy and entropy bookkeeping for one measurement interval.

    Energies are angular-frequency units, entropies nats.  ``r`` is the
    combination dH_a + dH_b - dS_b/beta whose integral over any cyclic process
    is non-negative; its per-interval cyclic contribution is dH_b - dS_b/beta,
    which equals -w_therm.
    """

    dH_a: float
    dH_b: float
    w_meas: float
    dS_a: float
    dS_b: float
    q: float
    w_therm: float
    w: float
    r: float
    beta: float

    @property
    def heat_defined(self) -> bool:
        return self.beta > 0 and not math.isnan(self.q)


def _columns(ledgers: Sequence[IntervalLedger]) -> dict[str, np.ndarray]:
    """The ledgers as one array per IntervalLedger field."""
    return {f.name: np.array([getattr(led, f.name) for led in ledgers], dtype=float)
            for f in fields(IntervalLedger)}


def _reservoir_populations(pops, sys: JointSystem, what: str) -> np.ndarray:
    shape = np.shape(pops)
    if shape != (sys.dim_b,):
        raise DimensionError(f"{what} must be the {sys.dim_b} populations of B "
                             f"in its energy basis, got shape {shape}")
    return np.asarray(pops, dtype=float)


def book_intervals(pops_start: np.ndarray, pops_end: np.ndarray, e_b: np.ndarray,
                   beta: float, dh_a) -> np.ndarray:
    """The reservoir-side ledger of intervals: dH_b, dS_b, Q, W_therm, W and R
    on the last axis.

    ``pops_start`` and ``pops_end`` are B's populations over its energies
    ``e_b`` before and after one interval, or one row per interval, and
    ``dh_a`` is A's energy change.  Q = -dS_b/beta, W_therm = -dH_b - Q,
    W = W_therm + dH_a + dH_b (= dH_a - Q) and R = dH_a + dH_b + Q.  With
    beta = 0 the heat is undefined and those four are NaN; with beta = inf,
    Q = 0.
    """
    dh_b = ((pops_end - pops_start) * e_b).sum(axis=-1)
    ds_b = shannon_entropy(pops_end) - shannon_entropy(pops_start)
    if beta == 0:
        q = np.full_like(ds_b, math.nan)
    elif math.isinf(beta):
        q = np.zeros_like(ds_b)
    else:
        q = -ds_b / beta
    w_therm = -dh_b - q
    return np.array((dh_b, ds_b, q, w_therm, w_therm + dh_a + dh_b, dh_a + dh_b + q)).T


def s_tot(s_a_series: Sequence[float], ledgers: Sequence[IntervalLedger]) -> np.ndarray:
    """Total entropy production at each measurement time.

    S_tot(t_k) = S_A(t_k) - S_A(0) - sum_{j<=k} beta_j Q_j, with S_A sampled at
    t_0 = 0 and after each of the len(ledgers) intervals.  beta Q is summed as
    -dS_B, which it equals wherever heat is defined, so S_tot is finite also at
    beta = 0 and beta = inf.
    """
    if len(s_a_series) != len(ledgers) + 1:
        raise ValueError("need one S_A sample per measurement time, including t = 0")
    ds_b = _columns(ledgers)["dS_b"]
    return np.concatenate(([0.0], np.asarray(s_a_series[1:]) - s_a_series[0] + np.cumsum(ds_b)))


def approx_heat_small_change(pops_b_start, pops_b_end, sys: JointSystem) -> tuple[float, float]:
    """Linearized reservoir entropy and heat for a small population change.

    The populations are those of B in ``sys.basis_b``.  Valid when the start
    is canonical: dS_B ~ -sum_j dp_j ln p_j  and  dQ ~ -dH_B.
    """
    p0 = _reservoir_populations(pops_b_start, sys, "pops_b_start")
    p1 = _reservoir_populations(pops_b_end, sys, "pops_b_end")
    if p0.min() <= 0:
        raise PreconditionError("linearization needs full support of the canonical start")
    dp = p1 - p0
    ds_lin = float(-(dp * np.log(p0)).sum())
    dq_lin = float(-(dp * sys.basis_b.eigenvalues).sum())
    return ds_lin, dq_lin


def traditional_qw(rho_a_series: Sequence, h_a) -> tuple[np.ndarray, np.ndarray]:
    """System-only accounting baseline for a time-independent Hamiltonian.

    Q_trad(t) = Tr[H_A (rho_A(t) - rho_A(0))] and W_trad(t) = 0; provided for
    comparison against the reservoir-based ledger.
    """
    mats = np.array([as_matrix(r) for r in rho_a_series])
    q = expect(as_matrix(h_a), mats - mats[0])
    return q, np.zeros_like(q)


@dataclass(frozen=True)
class CyclicWindow:
    start: int          # interval index of the window's first interval
    stop: int           # one past the last interval index
    return_distance: float
    q_sum: float
    r_sum: float


@dataclass(frozen=True)
class SecondLawReport:
    """Outcome of the per-interval and cyclic second-law checks."""

    n_intervals: int
    min_entropy_production: float        # min over intervals of dS_a + dS_b
    min_cyclic_r_contribution: float     # min over intervals of dH_b - dS_b/beta
    max_w_therm: float                   # max of w_therm (should be <= ~0)
    max_backaction_residual: float       # max |w_meas - (dH_a + dH_b)| (exact runs)
    entropy_violations: tuple[int, ...]
    klein_violations: tuple[int, ...]
    backaction_violations: tuple[int, ...]
    windows: tuple[CyclicWindow, ...]
    cyclic_q_violations: tuple[int, ...]  # indices into windows

    @property
    def ok(self) -> bool:
        return not (self.entropy_violations or self.klein_violations
                    or self.backaction_violations or self.cyclic_q_violations)


def find_cyclic_windows(rho_a_snapshots: Sequence, tol: float = CYCLE_TOL) -> list[tuple[int, int, float]]:
    """Index pairs (i, j) with trace distance(rho_i, rho_j) < tol and i < j.

    Snapshots are the states of A at measurement times (len = n_intervals + 1);
    the window covers intervals i .. j-1.  Only the earliest non-overlapping
    windows are returned to keep the list short.  The trace distance is at
    least half the Frobenius distance, which is taken from i to every later
    snapshot at once, so the trace distance is computed only where that bound
    (with a rounding margin) lets it fall below ``tol``.
    """
    mats = np.array([as_matrix(r) for r in rho_a_snapshots])
    out = []
    i = 0
    while i < len(mats) - 1:
        half_frob = 0.5 * np.linalg.norm(mats[i + 1:] - mats[i], axis=(1, 2))
        hit = None
        for j in (i + 1 + np.flatnonzero(half_frob < tol * (1 + 1e-9))).tolist():
            d = trace_distance(mats[i], mats[j])
            if d < tol:
                hit = (i, j, d)
                break
        if hit:
            out.append(hit)
            i = hit[1]
        else:
            i += 1
    return out


def _windows(q: np.ndarray, r: np.ndarray, rho_a_snapshots: Sequence) -> list[CyclicWindow]:
    """The cyclic windows of ``rho_a_snapshots`` with their sums of the heat
    column ``q`` and of R, each summed in interval order."""
    return [CyclicWindow(i, j, dist, float(sum(q[i:j])), float(sum(r[i:j])))
            for i, j, dist in find_cyclic_windows(rho_a_snapshots)]


def second_law_suite(
    ledgers: Sequence[IntervalLedger],
    rho_a_snapshots: Sequence | None = None,
) -> SecondLawReport:
    """Check the second-law structure of an exact run with a thermal reservoir.

    Per interval: dS_a + dS_b >= 0, the Klein positivity of the cyclic
    contribution dH_b - dS_b/beta = R - dH_a (where heat is defined), and the
    back-action identity w_meas = dH_a + dH_b.  Over every cyclic window of
    the ``rho_a_snapshots`` of A, sum(Q) <= 0.
    """
    c = _columns(ledgers)
    ent = c["dS_a"] + c["dS_b"]
    heat = np.array([led.heat_defined for led in ledgers], dtype=bool)
    contrib = (c["r"] - c["dH_a"])[heat]
    resid = np.abs(c["w_meas"] - (c["dH_a"] + c["dH_b"]))
    windows = [] if rho_a_snapshots is None else _windows(c["q"], c["r"], rho_a_snapshots)
    return SecondLawReport(
        n_intervals=len(ledgers),
        min_entropy_production=float(ent.min()) if ent.size else 0.0,
        min_cyclic_r_contribution=float(contrib.min()) if contrib.size else 0.0,
        max_w_therm=float(c["w_therm"][heat].max()) if heat.any() else 0.0,
        max_backaction_residual=float(resid.max(initial=0.0)),
        entropy_violations=tuple(np.flatnonzero(ent < -ENTROPY_TOL).tolist()),
        klein_violations=tuple(np.flatnonzero(heat)[contrib < -KLEIN_TOL].tolist()),
        backaction_violations=tuple(np.flatnonzero(resid > BACKACTION_TOL).tolist()),
        windows=tuple(windows),
        cyclic_q_violations=tuple(k for k, w in enumerate(windows) if w.q_sum > CYCLE_Q_TOL),
    )


def backaction_as_heat_windows(
    ledgers: Sequence[IntervalLedger],
    rho_a_snapshots: Sequence,
) -> list[CyclicWindow]:
    """Diagnostic: book the measurement back-action as heat instead of work.

    The modified heat Q' = Q + w_meas summed over a cyclic window equals the
    window's R sum, which Klein positivity makes strictly positive for thermal
    reservoir inputs -- i.e. net heat *absorbed* over a cycle, a second-law
    violation.  Returns the windows so callers can exhibit sum(Q') > 0.
    """
    c = _columns(ledgers)
    return _windows(c["q"] + c["w_meas"], c["r"], rho_a_snapshots)
