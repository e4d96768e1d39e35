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
(total_matvec) applies that list directly; the dense matrix the oracles
read is scattered from it by ``validate.build_total``.  The parameters are
a ``config.ModelSpec``, checked as the config is read.

Every term flips an even number of bits (sigma^x sigma^x bonds) or none
(sigma^z, Sigma^z), so every operator below conserves the total parity
prod sigma^z prod Sigma^z: it is block diagonal in the sectors of even
and of odd bit count.  A state in one sector is stored on that sector
alone (sector_layout), as one (charger rows x battery levels) block per
charger parity, and total_matvec acts on it in that layout.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .config import ModelSpec


def battery_positions(spec: ModelSpec) -> list[int]:
    """Charger sites carrying a battery: 1, 1+d, ..., 1+(n-1)d."""
    return [i * spec.d + 1 for i in range(spec.n)]


class Layout(NamedTuple):
    """Where the entries of a stored vector sit in the composite register.

    ``basis[i]`` is the full-space index of entry i.  The entries form B
    consecutive row-major blocks of equal size, one per row of ``labels``,
    a (B, b) int array: basis.size // labels.size charger configurations
    times the b battery levels of that row.
    """

    basis: np.ndarray
    labels: np.ndarray


def sector_layout(spec: ModelSpec, parity: int | None = None) -> Layout:
    """The layout of the total-parity sector ``parity`` (0 even, 1 odd), or
    of the full space when ``parity`` is None.

    The full space is one block: every charger configuration times every
    battery level, in the natural order.  A sector holds, for each charger
    parity r, the 2**(L-1) chargers of parity r times the battery levels of
    parity ``parity`` ^ r; a block with no such level (n = 0) is left out,
    so at n = 0 a sector and the full space both have labels [[0]].
    """
    if parity is None:
        return Layout(np.arange(spec.dim), np.arange(1 << spec.n)[None])
    chargers = np.bitwise_count(np.arange(1 << spec.L)) & 1
    levels = np.bitwise_count(np.arange(1 << spec.n)) & 1
    basis, labels = [], []
    for r in (0, 1):
        rows, block = np.flatnonzero(chargers == r), np.flatnonzero(levels == parity ^ r)
        if block.size:
            basis.append(((rows[:, None] << spec.n) | block).ravel())
            labels.append(block)
    return Layout(np.concatenate(basis), np.array(labels))


def terms(spec: ModelSpec) -> tuple[np.ndarray, tuple[tuple[int, float], ...]]:
    """H_total = H_c + H_b + V_cb as ``(diagonal, ((mask, coef), ...))``.

    The matrix is diag(diagonal) plus, for each flip, ``coef`` at every entry
    (i ^ mask, i): the term coef * prod sigma^x over the bits set in mask.
    The flips are the ring bonds, one per site, then the couplings, one per
    battery; the diagonal is -h sum sigma^z - (delta/2) sum Sigma^z.
    total_matvec applies this list without a dense matrix.
    """
    def site_bit(site):
        return 1 << (spec.n + spec.L - site)

    # each site contributes its own bond term, so the single bond of an L=2
    # ring is listed twice (sites 1 and 2 both give sigma^x_1 sigma^x_2)
    bonds = tuple((site_bit(site) | site_bit(site % spec.L + 1), -spec.J)
                  for site in range(1, spec.L + 1))
    couplings = tuple((site_bit(site) | 1 << (spec.n - i), -spec.kappa)
                      for i, site in enumerate(battery_positions(spec), start=1))
    # a sum of sigma^z: the number of qubits minus twice the number of set bits
    index = np.arange(spec.dim)
    ring = spec.L - 2.0 * np.bitwise_count(index >> spec.n)
    batteries = spec.n - 2.0 * np.bitwise_count(index & ((1 << spec.n) - 1))
    # a field near the float limit gives inf (or inf - inf = nan), refused by
    # linalg.phases through the bound; + 0.0 turns each -0.0 into 0.0, so no
    # zero entry carries the sign of h or delta
    with np.errstate(over="ignore", invalid="ignore"):
        diagonal = -spec.h * ring - (spec.delta / 2.0) * batteries + 0.0
    return diagonal, bonds + couplings


def norm_bound(spec: ModelSpec) -> float:
    """The Gershgorin bound max_i sum_j |H_ij| >= ||H||_2 of the full space,
    from the fields alone: the largest diagonal entry is h L + (delta/2) n
    in size (inf for a diagonal that overflows, whose entries may read nan),
    plus the flips' |coef| in terms()'s order, L times J then n kappa."""
    return spec.h * spec.L + (spec.delta / 2.0) * spec.n + sum([spec.J] * spec.L
                                                               + [spec.kappa] * spec.n)


def total_matvec(spec: ModelSpec, basis=None):
    """Matrix-free H_total: ``(matvec, norm_bound(spec))`` where matvec(psi)
    = H psi, by one gather per flip of terms().

    psi holds the amplitudes of the full-space indices ``basis`` (all of
    them, in order, by default), which must span whole parity sectors (a
    Layout's basis): entry i meets its partner under a flip at
    ``position[basis[i] ^ mask]``, the position in psi of that index.
    """
    diagonal, flips = terms(spec)
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

    return matvec, norm_bound(spec)


def battery_energies(n: int, delta: float) -> np.ndarray:
    """Diagonal of the battery-factor Hamiltonian over the 2**n basis states.

    State with k excited batteries has energy delta*(k - n/2); the ground
    level is -n*delta/2 and levels come with binomial multiplicities.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    return delta * (np.bitwise_count(np.arange(1 << n)) - n / 2.0)
