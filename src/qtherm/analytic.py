"""Closed-form cavity-qubit solution and measurement-averaged rates.

Everything here is elementwise closed forms over a time grid (no linear
algebra), so these functions can serve as an independent ground truth for
the numerical engine.  Conventions: hbar = 1, qubit detuning
Delta_c = omega_b - omega_a, Rabi frequency Omega_n = 2 gamma sqrt(n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NumericError
from .models import JcmParams, check_rate


@dataclass(frozen=True)
class JcmAmplitudes:
    """Two-level block amplitudes at time t within the n-excitation sector.

    a_n multiplies the starting component, b_n the exchanged one;
    |a_n|^2 + |b_n|^2 = 1 for all t.
    """

    n: int
    omega_n: float
    omega_n_prime: float
    delta_c: float
    a_n: complex | np.ndarray
    b_n: complex | np.ndarray

    @property
    def transfer_probability(self) -> float | np.ndarray:
        return abs(self.b_n) ** 2


@dataclass(frozen=True)
class AtomFieldState:
    """Diagonal cavity distribution plus atomic level probabilities."""

    p_n: tuple[float, ...]
    sigma_e: float
    sigma_g: float
    x: float = 0.0

    def __post_init__(self):
        if any(p < -1e-12 for p in self.p_n):
            raise ValueError("cavity probabilities must be non-negative")
        if abs(sum(self.p_n) - 1.0) > 1e-10:
            raise ValueError("cavity probabilities must sum to 1")
        if abs(self.sigma_e + self.sigma_g - 1.0) > 1e-10:
            raise ValueError("atomic probabilities must sum to 1")

    @property
    def mean_n(self) -> float:
        return sum(n * p for n, p in enumerate(self.p_n))


def amplitudes(n: int, t: float | np.ndarray, params: JcmParams) -> JcmAmplitudes:
    """a_n(t), b_n(t) for the block spanned by |n-1, e> and |n, g>, elementwise
    over a time or an array of times."""
    if n < 1:
        raise ValueError("the exchange block requires n >= 1")
    if not np.all(np.isfinite(t) & np.greater_equal(t, 0)):
        raise ValueError("time must be non-negative and finite")
    omega_n = 2.0 * params.gamma * math.sqrt(n)
    delta_c = params.detuning
    omega_p = math.hypot(omega_n, delta_c)
    if omega_p == 0.0:
        return JcmAmplitudes(n, 0.0, 0.0, 0.0, 0.0 * t + (1.0 + 0j), 0.0 * t + 0j)
    half = 0.5 * omega_p * t
    a_n = np.cos(half) - 1j * (delta_c / omega_p) * np.sin(half)
    b_n = -1j * (omega_n / omega_p) * np.sin(half)
    return JcmAmplitudes(n, omega_n, omega_p, delta_c, a_n, b_n)


def transfer_probabilities(n_levels: int, t: float, params: JcmParams) -> list[float]:
    """|b_n(t)|^2 for n = 0 .. n_levels (index n; b_0 = 0)."""
    out = [0.0]
    for n in range(1, n_levels + 1):
        out.append(amplitudes(n, t, params).transfer_probability)
    return out


def x_of_t(state: AtomFieldState, t: float, params: JcmParams) -> float:
    """Mean number of photons absorbed by the atom when measured at time t.

    x = sum_n p_n (sigma_g |b_n(t)|^2 - sigma_e |b_{n+1}(t)|^2); the atomic
    populations shift by +-x and the energies by -omega_a*x / +omega_b*x.
    """
    b2 = transfer_probabilities(len(state.p_n), t, params)
    x = 0.0
    for n, p in enumerate(state.p_n):
        x += p * (state.sigma_g * b2[n] - state.sigma_e * b2[n + 1])
    return x


def apply_absorption(state: AtomFieldState, x: float) -> AtomFieldState:
    """Shift the atomic populations by an absorbed photon count x."""
    return AtomFieldState(
        p_n=state.p_n,
        sigma_e=state.sigma_e + x,
        sigma_g=state.sigma_g - x,
        x=state.x + x,
    )


def mean_b2_poisson(n: int, lam: float, params: JcmParams) -> float:
    """Exchange probability averaged over exponentially distributed times.

    lam * integral exp(-lam t) |b_n(t)|^2 dt
        = (1/2) (1 - (lam^2 + Delta_c^2) / (lam^2 + Delta_c^2 + 4 n gamma^2)).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    check_rate(lam)
    base = lam * lam + params.detuning ** 2
    return 0.5 * (1.0 - base / (base + 4.0 * n * params.gamma ** 2))


def mean_b2_first_order(n: int, lam: float, params: JcmParams) -> float:
    """Shared weak-coupling / fast-measurement limit 2 n gamma^2/(lam^2+Delta_c^2)."""
    check_rate(lam)
    return 2.0 * n * params.gamma ** 2 / (lam * lam + params.detuning ** 2)


def einstein_rate(state: AtomFieldState, lam: float, params: JcmParams) -> float:
    """First-order atomic absorption rate lam<x>.

    (2 lam gamma^2 / (lam^2 + Delta_c^2)) (sigma_g <n> - sigma_e <n+1>).
    """
    check_rate(lam)
    pref = 2.0 * lam * params.gamma ** 2 / (lam * lam + params.detuning ** 2)
    return pref * (state.sigma_g * state.mean_n - state.sigma_e * (state.mean_n + 1.0))


def pn_master_step(state: AtomFieldState, mean_b2_per_n: Sequence[float]) -> AtomFieldState:
    """One measurement-interval update of the cavity distribution.

    p_n' = p_n + B_{n+1}(sigma_g p_{n+1} - sigma_e p_n)
               - B_n    (sigma_g p_n     - sigma_e p_{n-1})
    with B_n = mean_b2_per_n[n], B_0 = 0, p_{-1} = 0 and a reflecting top level
    (the flow out of the highest retained n is dropped).  The geometric
    distribution p_n ~ (sigma_e/sigma_g)^n is a fixed point.
    """
    p = list(state.p_n)
    n_top = len(p) - 1
    b2 = list(mean_b2_per_n)
    if len(b2) < n_top + 1:
        raise ValueError("need mean_b2_per_n for every retained level")
    if abs(b2[0]) > 0.0:
        raise ValueError("B_0 must be zero")
    flow = [0.0] * (n_top + 2)  # flow[n]: probability moving n -> n-1 minus n-1 -> n
    for n in range(1, n_top + 1):
        flow[n] = b2[n] * (state.sigma_g * p[n] - state.sigma_e * p[n - 1])
    new = [p[n] - flow[n] + flow[n + 1] for n in range(n_top + 1)]
    if min(new) < -1e-12:
        raise NumericError("negative probability after step: exchange probabilities too large")
    return AtomFieldState(
        p_n=tuple(max(v, 0.0) for v in new),
        sigma_e=state.sigma_e,
        sigma_g=state.sigma_g,
        x=state.x,
    )


def geometric_steady_state(n_levels: int, sigma_e: float, sigma_g: float) -> AtomFieldState:
    """Stationary cavity distribution p_n ~ (sigma_e/sigma_g)^n on a truncated ladder."""
    if sigma_g <= 0:
        raise ValueError("sigma_g must be positive")
    r = sigma_e / sigma_g
    w = [r ** n for n in range(n_levels + 1)]
    z = sum(w)
    return AtomFieldState(tuple(v / z for v in w), sigma_e=sigma_e, sigma_g=sigma_g)
