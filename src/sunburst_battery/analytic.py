"""Closed-form figures of merit in the strong-charger limit (J >> h): the
forms the commands print and write, every CSV cell through
``experiments.analytic_reference``.

With the ring prepared in a cat state and one battery attached, the
composite state stays in a two-dimensional subspace and oscillates at the
Rabi-like frequency omega = sqrt(delta^2 + 4 kappa^2).  With the ratios
r = 2 kappa / omega and s = delta / omega, which AnalyticParams caches,

    A(t) = cos(omega t / 2) + i s sin(omega t / 2)
    B(t) = i r sin(omega t / 2)

with |A|^2 + |B|^2 = 1.  Stored energy, ergotropy and linear entropy
follow from the excited population |B|^2, and the charging power is
``observables.charging_power`` of the stored energy.  At omega = 0
(delta = kappa = 0) r = s = 0, and every form reads the frozen battery.
At h = 0 each of n equispaced batteries is excited with probability
|B|^2, independently, so the stored energy, ergotropy (population
convention) and power of n batteries are n times one battery's, and a cat
charger leaves them the linear entropy (1 - (1 - 2|B|^2)^(2n)) / 2.  The
functions accept scalar or array times.  The amplitudes themselves, the
charging time, the peak ergotropy, the ergotropy window, the locked
energy and the independent two-battery forms are oracles of the
self-check suite only and live in ``validate``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import ModelSpec


@dataclass(frozen=True)
class AnalyticParams:
    """Battery gap and coupling, with the derived frequency omega and the
    ratios r = 2 kappa / omega and s = delta / omega cached.  At a finite
    omega the ratios lie in [0, 1], so their squares neither overflow nor
    divide inf by inf at huge fields; both are 0 at omega = 0, where the
    battery is frozen."""

    delta: float
    kappa: float
    omega: float = field(init=False)
    r: float = field(init=False)
    s: float = field(init=False)

    def __post_init__(self):
        if self.delta < 0 or self.kappa < 0:
            raise ValueError("delta and kappa must be non-negative")
        omega = float(np.hypot(self.delta, 2.0 * self.kappa))
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "r", 2.0 * self.kappa / omega if omega else 0.0)
        object.__setattr__(self, "s", self.delta / omega if omega else 0.0)

    @classmethod
    def from_model(cls, spec: ModelSpec) -> "AnalyticParams":
        return cls(spec.delta, spec.kappa)


def _times(t) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("times must be non-negative")
    return t


def excited_population(p: AnalyticParams, t):
    """|B(t)|^2 = r^2 sin^2(omega t / 2)."""
    return p.r ** 2 * np.sin(p.omega * _times(t) / 2.0) ** 2


def linear_entropy_analytic(p: AnalyticParams, t, n: int = 1):
    """Mixedness 1 - tr(rho^2) of n batteries charged from a cat charger,
    (1 - (1 - 2|B|^2)^(2n)) / 2: for one battery 1 - (|A|^4 + |B|^4), at
    most 1/2.  The square is raised to the n-th power by n elementwise
    products in place, where numpy's float power would round by the CPU's
    SIMD kernel."""
    square = (1.0 - 2.0 * excited_population(p, t)) ** 2
    power = np.ones_like(square)
    for _ in range(n):
        power *= square
    return 0.5 * (1.0 - power)


def stored_energy_analytic(p: AnalyticParams, t):
    """Single-battery stored energy delta |B(t)|^2, formed as
    (delta r)(r sin^2(omega t / 2)): at a huge delta, where r^2 underflows,
    it still reads 4 kappa^2 sin^2(omega t / 2) / delta."""
    return (p.delta * p.r) * (p.r * np.sin(p.omega * _times(t) / 2.0) ** 2)


def ergotropy_analytic(p: AnalyticParams, t):
    """Single-battery extractable work delta * (|B|^2 - |A|^2), clamped at 0.

    Nonzero only when 2 kappa >= delta and only inside the window where the
    excited population exceeds 1/2 (period 2 pi / omega).  Adding 0.0 turns
    the -0.0 of delta = 0 into 0, so no cell is written -0.
    """
    raw = p.delta * (2.0 * excited_population(p, t) - 1.0)
    return np.maximum(0.0, raw) + 0.0
