"""Sunburst Ising Hamiltonian: a ferromagnetic transverse-field Ising ring
(the charger) with n external qubits (the batteries) attached through
sigma^x Sigma^x bonds at equispaced sites.

    H = H_c (x) 1_b  +  1_c (x) H_b  +  V_cb

    H_c  = -sum_i ( J sigma^x_i sigma^x_{i+1} + h sigma^z_i )   (periodic)
    H_b  = -(delta/2) sum_i Sigma^z_i
    V_cb = -kappa sum_i sigma^x_{1+(i-1)d} Sigma^x_i

Basis convention: composite index = charger_bits * 2**n + battery_bits.
Charger site i (1-based) is bit (L - i) of the charger block and battery
qubit i is bit (n - i) of the battery block, so |00...0> is index 0 and
tracing out the charger is a contiguous-stride sum.  Bit value 0 is the
sigma^z = +1 state.  sigma^x_i flips one bit and sigma^z_i reads one bit,
so operator construction is pure bit manipulation; every operator below is
real symmetric in this basis.

Every term flips an even number of bits (sigma^x sigma^x bonds) or none
(sigma^z, Sigma^z), so every operator below conserves the total parity
prod sigma^z prod Sigma^z: it is block diagonal in the even and odd
bit-count sectors (parity_sectors), and is decomposed one block at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from numbers import Integral, Real

import numpy as np

from . import linalg


def bit_counts(values: np.ndarray) -> np.ndarray:
    """Number of set bits of each entry of an integer array."""
    vals = np.array(values, copy=True)
    counts = np.zeros_like(vals)
    while vals.any():
        counts += vals & 1
        vals >>= 1
    return counts


@dataclass(frozen=True)
class ModelSpec:
    """Model parameters.  Couplings are in units of the ring bond J.

    d is the site spacing between consecutive batteries; when omitted it
    defaults to the equispaced choice L/n (which requires n to divide L).
    """

    L: int
    n: int
    d: int | None = None
    J: float = 1.0
    h: float = 0.1
    delta: float = 0.5
    kappa: float = 2.0

    def __post_init__(self):
        if not isinstance(self.L, int) or self.L < 2:
            raise ValueError(f"ring length L must be an integer >= 2, got {self.L!r}")
        if not isinstance(self.n, int) or self.n < 0:
            raise ValueError(f"battery count n must be an integer >= 0, got {self.n!r}")
        for name in ("J", "h", "delta", "kappa"):
            val = getattr(self, name)
            if not np.isfinite(val):
                raise ValueError(f"{name} must be finite, got {val!r}")
        if self.J <= 0:
            raise ValueError("J must be positive (ferromagnetic ring)")
        if self.h < 0 or self.delta < 0 or self.kappa < 0:
            raise ValueError("h, delta and kappa must be non-negative")
        d = self.d
        if d is None:
            if self.n <= 1:
                d = 1
            elif self.L % self.n == 0:
                d = self.L // self.n
            else:
                raise ValueError(
                    f"battery spacing d must be given explicitly: {self.n} does "
                    f"not divide L={self.L} so there is no equispaced default"
                )
        if not isinstance(d, int) or d < 1:
            raise ValueError(f"battery spacing d must be an integer >= 1, got {d!r}")
        object.__setattr__(self, "d", d)
        # n*d <= L also keeps the attachment sites 1, 1+d, ..., 1+(n-1)d distinct
        if self.n * d > self.L:
            raise ValueError(f"n*d = {self.n * d} exceeds L = {self.L}: batteries do not fit")

    @property
    def qubits(self) -> int:
        return self.L + self.n

    @property
    def dim(self) -> int:
        return 1 << self.qubits

    @classmethod
    def from_dict(cls, data: dict) -> "ModelSpec":
        return cls(**config_fields(cls, "model", data, ints=("L", "n", "d"),
                                   floats=("J", "h", "delta", "kappa"),
                                   required=("L", "n")))


def integral(name: str, value) -> int:
    """An integer config value; a float must be integral (11.0 is 11, 11.7 is
    an error), and a bool or string is an error.  Integers are never
    converted through float, so values beyond 2**53 (such as 64-bit seeds)
    stay exact."""
    if (isinstance(value, bool) or not isinstance(value, (Integral, float))
            or isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def real(name: str, value) -> float:
    """A floating-point config value; a bool or string is an error."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


def config_fields(cls, section: str, data: dict, ints=(), floats=(),
                  required=()) -> dict:
    """Keyword arguments for the dataclass ``cls`` from one JSON config section.

    Every key must name a field of ``cls`` and every ``required`` key must be
    present.  Values of ``ints`` keys go through integral() and values of
    ``floats`` keys through real(); None and any other value pass unchanged.
    """
    unknown = set(data) - {f.name for f in fields(cls)}
    if unknown:
        raise ValueError(f"unknown {section} keys: {sorted(unknown)}")
    missing = [key for key in required if key not in data]
    if missing:
        raise ValueError(f"{section} requires the keys {missing}")
    kwargs = dict(data)
    for key, value in data.items():
        if value is None:
            continue
        if key in ints:
            kwargs[key] = integral(f"{section}.{key}", value)
        elif key in floats:
            kwargs[key] = real(f"{section}.{key}", value)
    return kwargs


def battery_positions(spec: ModelSpec) -> list[int]:
    """Charger sites carrying a battery: 1, 1+d, ..., 1+(n-1)d, wrapped into 1..L."""
    return [(i * spec.d) % spec.L + 1 for i in range(spec.n)]


def parity_sectors(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Basis indices of even and of odd bit count, the two eigenspaces of
    the total parity prod sigma^z prod Sigma^z on a register of size dim."""
    odd = (bit_counts(np.arange(dim)) & 1).astype(bool)
    return np.flatnonzero(~odd), np.flatnonzero(odd)


@dataclass(frozen=True, eq=False)
class HermitianOperator:
    """Dense parity-conserving Hermitian operator on the composite register."""

    matrix: np.ndarray = field(repr=False)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def decomposition(self) -> linalg.SpectralDecomposition:
        """Spectral decomposition on both parity sectors, solved on each call."""
        return linalg.decompose(self.matrix, parity_sectors(self.dim))


def _charger_xmask(spec: ModelSpec, site: int) -> int:
    return 1 << (spec.n + spec.L - site)


def _battery_xmask(spec: ModelSpec, i: int) -> int:
    return 1 << (spec.n - i)


def _zvalues(dim: int, bit: int) -> np.ndarray:
    """Diagonal of sigma^z for one bit: +1 where the bit is 0, else -1."""
    return 1.0 - 2.0 * ((np.arange(dim) >> bit) & 1)


def _accumulate_charger(out: np.ndarray, spec: ModelSpec) -> None:
    idx = np.arange(spec.dim)
    # each i contributes its own bond term, so the single bond of an L=2
    # ring is counted twice (i=1 and i=2 both give sigma^x_1 sigma^x_2)
    for site in range(1, spec.L + 1):
        succ = site % spec.L + 1
        mask = _charger_xmask(spec, site) | _charger_xmask(spec, succ)
        out[idx ^ mask, idx] += -spec.J
    if spec.h != 0.0:
        diag = np.zeros(spec.dim)
        for site in range(1, spec.L + 1):
            diag += _zvalues(spec.dim, spec.n + spec.L - site)
        out[idx, idx] += -spec.h * diag


def _accumulate_batteries(out: np.ndarray, spec: ModelSpec) -> None:
    if spec.n == 0 or spec.delta == 0.0:
        return
    idx = np.arange(spec.dim)
    diag = np.zeros(spec.dim)
    for i in range(1, spec.n + 1):
        diag += _zvalues(spec.dim, spec.n - i)
    out[idx, idx] += -(spec.delta / 2.0) * diag


def _accumulate_coupling(out: np.ndarray, spec: ModelSpec) -> None:
    if spec.n == 0 or spec.kappa == 0.0:
        return
    idx = np.arange(spec.dim)
    for i, site in enumerate(battery_positions(spec), start=1):
        mask = _charger_xmask(spec, site) | _battery_xmask(spec, i)
        out[idx ^ mask, idx] += -spec.kappa


def build_charger(spec: ModelSpec) -> HermitianOperator:
    """Ring Hamiltonian embedded in the composite space (identity on batteries)."""
    out = np.zeros((spec.dim, spec.dim))
    _accumulate_charger(out, spec)
    return HermitianOperator(out)


def build_batteries(spec: ModelSpec) -> HermitianOperator:
    """Battery gap Hamiltonian embedded in the composite space (diagonal)."""
    out = np.zeros((spec.dim, spec.dim))
    _accumulate_batteries(out, spec)
    return HermitianOperator(out)


def build_coupling(spec: ModelSpec) -> HermitianOperator:
    """Charger-battery interaction embedded in the composite space."""
    out = np.zeros((spec.dim, spec.dim))
    _accumulate_coupling(out, spec)
    return HermitianOperator(out)


def corrupted_coupling(spec: ModelSpec) -> np.ndarray:
    """Deliberately wrong interaction (z-type at the attachment site) used to
    prove the structural checks can fail.  A mere sign flip of kappa would be
    invisible: it is a local basis change on the battery."""
    out = np.zeros((spec.dim, spec.dim))
    idx = np.arange(spec.dim)
    for i, site in enumerate(battery_positions(spec), start=1):
        zvals = _zvalues(spec.dim, spec.n + spec.L - site)
        out[idx ^ _battery_xmask(spec, i), idx] += -spec.kappa * zvals
    return out


def build_total(spec: ModelSpec) -> HermitianOperator:
    """Full Hamiltonian H_c + H_b + V_cb, accumulated into a single array."""
    out = np.zeros((spec.dim, spec.dim))
    _accumulate_charger(out, spec)
    _accumulate_batteries(out, spec)
    _accumulate_coupling(out, spec)
    return HermitianOperator(out)


def battery_energies(n: int, delta: float) -> np.ndarray:
    """Diagonal of the battery-factor Hamiltonian over the 2**n basis states.

    State with k excited batteries has energy delta*(k - n/2); the ground
    level is -n*delta/2 and levels come with binomial multiplicities.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    return delta * (bit_counts(np.arange(1 << n)) - n / 2.0)
