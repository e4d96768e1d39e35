"""Closed-form figures of merit in the strong-charger limit (J >> h): the
forms the commands write and print.

With the ring prepared in a cat state and one battery attached, the
composite state stays in a two-dimensional subspace and oscillates at the
Rabi-like frequency omega = sqrt(delta^2 + 4 kappa^2):

    A(t) = cos(omega t / 2) + i (delta/omega) sin(omega t / 2)
    B(t) = (2 i kappa / omega) sin(omega t / 2)

with |A|^2 + |B|^2 = 1.  Stored energy, ergotropy and its peak, linear
entropy, the charging time and the charging power follow from the excited
population |B|^2.  At h = 0 each of n equispaced batteries is excited
with probability |B|^2, independently, so the stored energy, ergotropy
(population convention) and power of n batteries are n times one
battery's, and a cat charger leaves them the linear entropy
(1 - (1 - 2|B|^2)^(2n)) / 2.  The functions accept scalar or array times.
The amplitudes themselves, the ergotropy window, the locked energy and the
independent two-battery forms are oracles of the self-check suite only and
live in ``validate``.
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


def max_ergotropy(p: AnalyticParams) -> float:
    """Peak extractable work delta*(4k^2 - d^2)/(4k^2 + d^2), reached at T.

    Clamped at 0 below the 2 kappa >= delta threshold; grows monotonically
    with the coupling and saturates at delta.
    """
    if p.omega == 0.0:
        return 0.0
    return max(0.0, p.delta * (4.0 * p.kappa ** 2 - p.delta ** 2) / p.omega ** 2)
