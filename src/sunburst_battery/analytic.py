"""Closed-form figures of merit in the strong-charger limit (J >> h).

With the ring prepared in a cat state and one battery attached, the
composite state stays in a two-dimensional subspace and oscillates at the
Rabi-like frequency omega = sqrt(delta^2 + 4 kappa^2):

    A(t) = cos(omega t / 2) + i (delta/omega) sin(omega t / 2)
    B(t) = (2 i kappa / omega) sin(omega t / 2)

with |A|^2 + |B|^2 = 1.  Everything else here (stored energy, ergotropy
and its nonzero window, linear entropy, charging power and its value at
the charging time) follows from these amplitudes.  At h = 0 each of n
equispaced batteries is excited with probability |B|^2, independently,
so the stored energy, ergotropy (population convention) and power of n
batteries are n times one battery's, and a cat charger leaves them the
linear entropy (1 - (1 - 2|B|^2)^(2n)) / 2.  ``two_battery`` derives the
n = 2 values independently, as an oracle.  The functions accept scalar or
array times and are the verification oracle for the exact-dynamics
pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import ModelSpec


@dataclass(frozen=True)
class AnalyticParams:
    """Battery gap and coupling, with the derived frequency cached."""

    delta: float
    kappa: float
    omega: float = field(init=False)

    def __post_init__(self):
        if self.delta < 0 or self.kappa < 0:
            raise ValueError("delta and kappa must be non-negative")
        object.__setattr__(self, "omega", float(np.hypot(self.delta, 2.0 * self.kappa)))

    @classmethod
    def from_model(cls, spec: ModelSpec) -> "AnalyticParams":
        return cls(spec.delta, spec.kappa)


def _times(t) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("times must be non-negative")
    return t


def amplitudes(p: AnalyticParams, t):
    """Ground/excited battery amplitudes (A, B) at time t.

    Degenerate case omega = 0 returns the frozen limit (1, 0).
    """
    t = _times(t)
    if p.omega == 0.0:
        return np.ones_like(t, dtype=complex), np.zeros_like(t, dtype=complex)
    half = p.omega * t / 2.0
    a = np.cos(half) + 1j * (p.delta / p.omega) * np.sin(half)
    b = 2j * (p.kappa / p.omega) * np.sin(half)
    return a, b


def excited_population(p: AnalyticParams, t):
    """|B(t)|^2 = (4 kappa^2 / omega^2) sin^2(omega t / 2)."""
    t = _times(t)
    if p.omega == 0.0:
        return np.zeros_like(t)
    return (2.0 * p.kappa / p.omega) ** 2 * np.sin(p.omega * t / 2.0) ** 2


def linear_entropy_analytic(p: AnalyticParams, t, n: int = 1):
    """Mixedness 1 - tr(rho^2) of n batteries charged from a cat charger,
    (1 - (1 - 2|B|^2)^(2n)) / 2: for one battery 1 - (|A|^4 + |B|^4), at
    most 1/2."""
    return 0.5 * (1.0 - (1.0 - 2.0 * excited_population(p, t)) ** (2 * n))


def stored_energy_analytic(p: AnalyticParams, t):
    """Single-battery stored energy delta * |B(t)|^2."""
    return p.delta * excited_population(p, t)


def unavailable_analytic(p: AnalyticParams, t):
    """Energy locked by charger-battery correlations: delta * (1 - |B(t)|^2).

    Equals stored energy minus ergotropy on the nonzero-ergotropy window,
    and is positive for every t and every parameter choice.
    """
    return p.delta * (1.0 - excited_population(p, t))


def ergotropy_analytic(p: AnalyticParams, t):
    """Single-battery extractable work delta * (|B|^2 - |A|^2), clamped at 0.

    Nonzero only when 2 kappa >= delta and only inside the window where the
    excited population exceeds 1/2 (period 2 pi / omega).
    """
    t = _times(t)
    if p.omega == 0.0:
        return np.zeros_like(t)
    raw = p.delta * (2.0 * excited_population(p, t) - 1.0)
    return np.maximum(0.0, raw)


def window_times(p: AnalyticParams):
    """First window (t1, t2) of nonzero ergotropy, or None when 2 kappa < delta.

    t = (2/omega) arccos(+-sqrt((4 kappa^2 - delta^2) / (8 kappa^2))); the
    window is symmetric about the charging time.  At 2 kappa = delta it
    degenerates to the single point t1 = t2 = T.
    """
    if p.kappa == 0.0 or 2.0 * p.kappa < p.delta:
        return None
    arg = np.sqrt((4.0 * p.kappa ** 2 - p.delta ** 2) / (8.0 * p.kappa ** 2))
    t1 = 2.0 / p.omega * np.arccos(arg)
    t2 = 2.0 / p.omega * np.arccos(-arg)
    return float(t1), float(t2)


def bisect_window(p: AnalyticParams):
    """Locate the ergotropy window by sign-change bracketing plus bisection.

    Independent of ``window_times``: scans delta*(2|B|^2 - 1) at 512 points
    of one period and bisects each sign change to 1e-9.  Returns (t1, t2) or
    None when there is no sign change (including the tangent case
    2 kappa = delta, where the window is a single point).
    """
    if p.omega == 0.0:
        return None
    grid = np.linspace(0.0, 2.0 * np.pi / p.omega, 512)
    raw = lambda t: p.delta * (2.0 * float(excited_population(p, t)) - 1.0)
    values = p.delta * (2.0 * excited_population(p, grid) - 1.0)
    crossings = []
    for k in range(1, grid.size):
        lo, hi = float(grid[k - 1]), float(grid[k])
        if values[k - 1] == 0.0 or np.sign(values[k - 1]) == np.sign(values[k]):
            continue
        while hi - lo > 1e-9:
            mid = 0.5 * (lo + hi)
            if np.sign(raw(mid)) == np.sign(raw(lo)):
                lo = mid
            else:
                hi = mid
        crossings.append(0.5 * (lo + hi))
    if len(crossings) < 2:
        return None
    return crossings[0], crossings[1]


def charging_time(p: AnalyticParams) -> float:
    """First time the stored energy peaks: T = pi / omega."""
    if p.omega == 0.0:
        raise ValueError("charging time is undefined for delta = kappa = 0")
    return float(np.pi / p.omega)


def power_analytic(p: AnalyticParams, t):
    """Charging power delta * |B(t)|^2 / t, with the t -> 0 limit 0."""
    t = _times(t)
    stored = stored_energy_analytic(p, t)
    return np.where(t > 0, stored / np.where(t > 0, t, 1.0), 0.0)


def power_at_T(p: AnalyticParams) -> float:
    """Power at the charging time: 4 delta kappa^2 / (pi omega)."""
    if p.omega == 0.0:
        raise ValueError("undefined for delta = kappa = 0")
    return float(4.0 * p.delta * p.kappa ** 2 / (np.pi * p.omega))


def max_ergotropy(p: AnalyticParams) -> float:
    """Peak extractable work delta*(4k^2 - d^2)/(4k^2 + d^2), reached at T.

    Clamped at 0 below the 2 kappa >= delta threshold; grows monotonically
    with the coupling and saturates at delta.
    """
    if p.omega == 0.0:
        return 0.0
    return max(0.0, p.delta * (4.0 * p.kappa ** 2 - p.delta ** 2) / p.omega ** 2)


@dataclass(frozen=True)
class TwoBatteryResult:
    """Corner populations and figures of merit for two batteries.

    lambda1/lambda4 are the |00><00| / |11><11| populations of the reduced
    two-battery state; both stored energy and ergotropy are exactly twice
    the single-battery values at every time.
    """

    lambda1: np.ndarray
    lambda4: np.ndarray
    stored_energy: np.ndarray
    ergotropy: np.ndarray


def two_battery(p: AnalyticParams, t) -> TwoBatteryResult:
    """Two-battery closed forms from the even/odd time-power resummation:
    an oracle for the n-battery forms, derived without them."""
    t = _times(t)
    if p.omega == 0.0:
        one = np.ones_like(t)
        zero = np.zeros_like(t)
        return TwoBatteryResult(one, zero, zero.copy(), zero.copy())
    half_sq = np.sin(p.omega * t / 2.0) ** 2
    coupling_frac = 4.0 * p.kappa ** 2 / p.omega ** 2
    lambda1 = (
        np.cos(p.omega * t) ** 2
        + coupling_frac ** 2 * half_sq ** 2
        + 2.0 * coupling_frac * np.cos(p.omega * t) * half_sq
        + (p.delta / p.omega) ** 2 * np.sin(p.omega * t) ** 2
    )
    lambda4 = (coupling_frac * half_sq) ** 2
    stored = p.delta * (1.0 + lambda4 - lambda1)
    work = np.maximum(0.0, 2.0 * p.delta * (2.0 * coupling_frac * half_sq - 1.0))
    return TwoBatteryResult(lambda1, lambda4, stored, work)
