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
so the Hamiltonian is one list of terms (terms): a real diagonal plus
bit-flip masks with their coefficients.  The matrix-free product
(total_matvec) applies that list directly; the dense builders scatter it
into real symmetric matrices for the oracles and the tests.

Every term flips an even number of bits (sigma^x sigma^x bonds) or none
(sigma^z, Sigma^z), so every operator below conserves the total parity
prod sigma^z prod Sigma^z: it is block diagonal in the even and odd
bit-count sectors (parity_sectors).  A state in one sector is stored on
that sector alone (sector_layout), as one (charger rows x battery levels)
block per charger parity, and total_matvec acts on it in that layout.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from numbers import Integral, Real
from typing import NamedTuple

import numpy as np


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

    The section must be a JSON object, every key must name a field of ``cls``
    and every ``required`` key must be present.  None passes for a field whose
    default is None; otherwise ``ints`` values go through integral() and
    ``floats`` values through real(), and any other value passes unchanged.
    """
    if not isinstance(data, dict):
        raise ValueError(f"{section} must be a JSON object, got {data!r}")
    defaults = {f.name: f.default for f in fields(cls)}
    unknown = set(data) - set(defaults)
    if unknown:
        raise ValueError(f"unknown {section} keys: {sorted(unknown)}")
    missing = [key for key in required if key not in data]
    if missing:
        raise ValueError(f"{section} requires the keys {missing}")
    kwargs = dict(data)
    for key, value in data.items():
        if value is None and defaults[key] is None:
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


class Layout(NamedTuple):
    """Where the entries of a stored vector sit in the composite register.

    ``basis[i]`` is the full-space index of entry i.  The entries form
    consecutive row-major blocks, one per ``(rows, labels)`` pair: ``rows``
    charger configurations times the battery levels ``labels``.
    """

    basis: np.ndarray
    blocks: tuple


def sector_layout(spec: ModelSpec, parity: int | None = None) -> Layout:
    """The layout of the total-parity sector ``parity`` (0 even, 1 odd), or
    of the full space when ``parity`` is None.

    The full space is one block: every charger configuration times every
    battery level, in the natural order.  A sector holds, for each charger
    parity r, the 2**(L-1) chargers of parity r times the battery levels of
    parity ``parity`` ^ r; a block with no such level (n = 0) is left out.
    """
    if parity is None:
        return Layout(np.arange(spec.dim), ((1 << spec.L, np.arange(1 << spec.n)),))
    chargers = bit_counts(np.arange(1 << spec.L)) & 1
    levels = bit_counts(np.arange(1 << spec.n)) & 1
    basis, blocks = [], []
    for r in (0, 1):
        rows, labels = np.flatnonzero(chargers == r), np.flatnonzero(levels == parity ^ r)
        if labels.size:
            basis.append(((rows[:, None] << spec.n) | labels).ravel())
            blocks.append((rows.size, labels))
    return Layout(np.concatenate(basis), tuple(blocks))


def _charger_xmask(spec: ModelSpec, site: int) -> int:
    return 1 << (spec.n + spec.L - site)


def _battery_xmask(spec: ModelSpec, i: int) -> int:
    return 1 << (spec.n - i)


def _zvalues(dim: int, bit: int) -> np.ndarray:
    """Diagonal of sigma^z for one bit: +1 where the bit is 0, else -1."""
    return 1.0 - 2.0 * ((np.arange(dim) >> bit) & 1)


def _zsum(spec: ModelSpec, bits) -> np.ndarray:
    """Diagonal of the sum of sigma^z over the listed bits."""
    diag = np.zeros(spec.dim)
    for bit in bits:
        diag += _zvalues(spec.dim, bit)
    return diag


def _charger_terms(spec: ModelSpec):
    sites = range(1, spec.L + 1)
    # each site contributes its own bond term, so the single bond of an L=2
    # ring is listed twice (sites 1 and 2 both give sigma^x_1 sigma^x_2)
    flips = tuple((_charger_xmask(spec, site) | _charger_xmask(spec, site % spec.L + 1), -spec.J)
                  for site in sites)
    return -spec.h * _zsum(spec, [spec.n + spec.L - site for site in sites]), flips


def _battery_terms(spec: ModelSpec):
    return -(spec.delta / 2.0) * _zsum(spec, [spec.n - i for i in range(1, spec.n + 1)]), ()


def _coupling_terms(spec: ModelSpec):
    flips = tuple((_charger_xmask(spec, site) | _battery_xmask(spec, i), -spec.kappa)
                  for i, site in enumerate(battery_positions(spec), start=1))
    return np.zeros(spec.dim), flips


def terms(spec: ModelSpec) -> tuple[np.ndarray, tuple[tuple[int, float], ...]]:
    """H_total = H_c + H_b + V_cb as ``(diagonal, ((mask, coef), ...))``.

    The matrix is diag(diagonal) plus, for each flip, ``coef`` at every entry
    (i ^ mask, i): the term coef * prod sigma^x over the bits set in mask.
    build_total scatters this list into a dense matrix and total_matvec
    applies it without one.
    """
    parts = (_charger_terms(spec), _battery_terms(spec), _coupling_terms(spec))
    return sum(diag for diag, _ in parts), tuple(f for _, flips in parts for f in flips)


def total_matvec(spec: ModelSpec, basis=None):
    """Matrix-free H_total: ``(matvec, bound)`` where matvec(psi) = H psi, by
    one gather per flip of terms(), and bound is the Gershgorin row-sum
    bound max_i sum_j |H_ij| >= ||H||_2 of the full space.

    psi holds the amplitudes of the full-space indices ``basis`` (all of
    them, in order, by default), which must span whole parity sectors (a
    Layout's basis): entry i meets its partner under a flip at
    ``position[basis[i] ^ mask]``, the position in psi of that index.
    """
    diagonal, flips = terms(spec)
    bound = float(np.max(np.abs(diagonal))) + sum(abs(coef) for _, coef in flips)
    basis = np.arange(spec.dim) if basis is None else np.asarray(basis)
    position = np.zeros(spec.dim, dtype=basis.dtype)
    position[basis] = np.arange(basis.size)
    gathers = [(position[basis ^ mask], coef) for mask, coef in flips]
    diagonal = diagonal[basis]

    def matvec(psi):
        out = diagonal * psi
        for partner, coef in gathers:
            out += coef * psi[partner]
        return out

    return matvec, bound


def _scatter(spec: ModelSpec, diagonal: np.ndarray, flips) -> np.ndarray:
    """Dense matrix of a (diagonal, flips) term list."""
    out = np.zeros((spec.dim, spec.dim))
    idx = np.arange(spec.dim)
    out[idx, idx] += diagonal
    for mask, coef in flips:
        out[idx ^ mask, idx] += coef
    return out


def build_charger(spec: ModelSpec) -> np.ndarray:
    """Ring Hamiltonian embedded in the composite space (identity on batteries)."""
    return _scatter(spec, *_charger_terms(spec))


def build_batteries(spec: ModelSpec) -> np.ndarray:
    """Battery gap Hamiltonian embedded in the composite space (diagonal)."""
    return _scatter(spec, *_battery_terms(spec))


def build_coupling(spec: ModelSpec) -> np.ndarray:
    """Charger-battery interaction embedded in the composite space."""
    return _scatter(spec, *_coupling_terms(spec))


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


def build_total(spec: ModelSpec) -> np.ndarray:
    """Full Hamiltonian H_c + H_b + V_cb as a dense matrix, scattered from
    terms(); the reference the matrix-free path is checked against."""
    return _scatter(spec, *terms(spec))


def battery_energies(n: int, delta: float) -> np.ndarray:
    """Diagonal of the battery-factor Hamiltonian over the 2**n basis states.

    State with k excited batteries has energy delta*(k - n/2); the ground
    level is -n*delta/2 and levels come with binomial multiplicities.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    return delta * (bit_counts(np.arange(1 << n)) - n / 2.0)
