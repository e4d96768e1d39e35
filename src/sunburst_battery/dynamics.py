"""Initial-state factory and exact time evolution on explicit time grids.

The charger starts in a cat state, an x-basis product state, or a seeded
Haar-random state; the batteries always start in the all-ground state
|00...0>.  A trajectory is one Chebyshev expansion of exp(-i H t) psi0
driven by the matrix-free Hamiltonian, with real coefficients: exact to
roundoff at every grid time (no step-size error), with no dense matrix and
no eigendecomposition.  The Hamiltonian conserves the total parity, so a
state with no weight in one parity sector (a cat charger with ground
batteries) is expanded on the other sector alone, at half the size.

Every trajectory is evaluated at M Chebyshev nodes of its grid window,
and the states or the reduced states there are interpolated onto the grid
(``linalg.interpolate``).  The reduced state is bilinear in the state, a
sum of phases exp(-i (E_m - E_m') t) with |E_m - E_m'| <= 2 bound, so on a
window of length D its Chebyshev series in t decays like J_k(bound D), as
the propagator's does at z = bound D: the M terms that the CHEBYSHEV_TOL
cut keeps at that z fix it on the whole window to roundoff.  A state's
phases exp(-i E t) have |E| <= bound, half that bandwidth, so the same
nodes fix the states too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    chebyshev_coefficients,
    chebyshev_nodes,
    chebyshev_series,
    interpolate,
    phases,
    physical_memory,
    series_states,
)
from .model import (
    Layout,
    ModelSpec,
    bit_counts,
    parity_sectors,
    sector_layout,
    total_matvec,
)

from .linalg import evolve_on_grid  # noqa: F401  benchmark tracer binding only (ROADMAP item 10)
from .model import build_total  # noqa: F401  benchmark tracer binding only (ROADMAP item 10)

CHARGER_KINDS = ("ghz_plus", "ghz_minus", "eigenstate", "random")


def _cat(L: int, parity: int) -> np.ndarray:
    """Amplitude 2**((1-L)/2) on every bit string whose weight has ``parity``."""
    if L < 1:
        raise ValueError("L must be >= 1")
    weights = bit_counts(np.arange(1 << L)) & 1
    return np.where(weights == parity, 2.0 ** ((1 - L) / 2), 0.0).astype(np.complex128)


def ghz_plus(L: int) -> np.ndarray:
    """Even cat state (|++..+> + |--..->)/sqrt(2) in the z basis.

    Nonzero amplitude 2**((1-L)/2) on every even-weight bit string; the
    charger ground state for J >> h.
    """
    return _cat(L, 0)


def ghz_minus(L: int) -> np.ndarray:
    """Odd cat state (|++..+> - |--..->)/sqrt(2): amplitude on odd-weight strings."""
    return _cat(L, 1)


def xbasis_product_state(L: int, pattern: int) -> np.ndarray:
    """Product of |+>/|-> factors; a set bit (L-i) of ``pattern`` puts site i in |->.

    These are exact charger eigenstates at h = 0.
    """
    if L < 1:
        raise ValueError("L must be >= 1")
    if pattern < 0 or pattern >> L:
        raise ValueError(f"pattern {pattern} outside [0, 2**{L})")
    signs = 1.0 - 2.0 * (bit_counts(np.arange(1 << L) & pattern) & 1)
    return (signs * 2.0 ** (-L / 2)).astype(np.complex128)


def random_state(rng, dim: int) -> np.ndarray:
    """Normalized vector of ``dim`` independent standard complex Gaussian
    amplitudes drawn from ``rng``; Haar-distributed."""
    psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return psi / np.linalg.norm(psi)


def random_charger(L: int, seed: int) -> np.ndarray:
    """Haar-distributed charger state from a seeded deterministic generator.

    Amplitudes are independent standard complex Gaussians (PCG64 stream),
    normalized; rotation invariance of the Gaussian makes the result Haar.
    """
    if L < 1:
        raise ValueError("L must be >= 1")
    return random_state(np.random.default_rng(seed), 1 << L)


def battery_ground(n: int) -> np.ndarray:
    """All-ground battery register |00...0>."""
    if n < 0:
        raise ValueError("n must be >= 0")
    state = np.zeros(1 << n, dtype=np.complex128)
    state[0] = 1.0
    return state


def compose(charger: np.ndarray, battery: np.ndarray) -> np.ndarray:
    """Tensor product under the model bit convention (charger block high)."""
    charger = np.asarray(charger)
    battery = np.asarray(battery)
    if charger.ndim != 1 or battery.ndim != 1:
        raise ValueError("compose expects two vectors")
    return np.kron(charger, battery)


@dataclass(frozen=True)
class InitialStateSpec:
    """Charger preparation; the battery register is always all-ground.

    charger_kind: ghz_plus | ghz_minus | eigenstate | random
    index: x-basis sign pattern, required for "eigenstate"

    A "random" charger is drawn from the seed of the run that prepares it
    (``charger_state``): every experiment command passes its run seed.
    """

    charger_kind: str = "ghz_plus"
    index: int | None = None

    def __post_init__(self):
        if self.charger_kind not in CHARGER_KINDS:
            raise ValueError(
                f"unknown charger kind {self.charger_kind!r}; expected one of {CHARGER_KINDS}"
            )
        if self.charger_kind == "eigenstate":
            if self.index is None or self.index < 0:
                raise ValueError("eigenstate initial state needs a pattern index >= 0")
        elif self.index is not None:
            raise ValueError(f"index is only valid for 'eigenstate', not {self.charger_kind!r}")

    def charger_state(self, L: int, seed: int | None = None) -> np.ndarray:
        if self.charger_kind == "ghz_plus":
            return ghz_plus(L)
        if self.charger_kind == "ghz_minus":
            return ghz_minus(L)
        if self.charger_kind == "eigenstate":
            return xbasis_product_state(L, self.index)
        if seed is None:
            raise ValueError("random initial state has no seed set")
        return random_charger(L, seed)


def initial_state(spec: ModelSpec, init: InitialStateSpec, seed: int | None = None) -> np.ndarray:
    """Prepared charger, a random one drawn from ``seed``, tensor all-ground batteries."""
    return compose(init.charger_state(spec.L, seed), battery_ground(spec.n))


@dataclass
class Trajectory:
    """States as a Chebyshev expansion with real coefficients (shape (M, K))
    at the M Chebyshev ``nodes`` of the grid window: the state at node j is
    the sum over k of coefficients[j, k] v_k, times -i for odd k, with the
    K vectors v_k held once as the real operands of ``chebyshev_series``,
    shape (1, K, size) when they are real and (2, K, size) when complex.
    The states and quantities of them are interpolated from the nodes onto
    the grid ``times``.  The vector entries are laid out by ``layout``: size
    is dim on the full space, or dim / 2 on one parity sector."""

    spec: ModelSpec
    times: np.ndarray
    coefficients: np.ndarray
    vectors: np.ndarray
    layout: Layout
    nodes: np.ndarray

    @property
    def states(self) -> np.ndarray:
        """Every grid state at once in the natural basis order, shape (T,
        dim); row k is the state at times[k], interpolated from the states
        at the nodes."""
        states = np.zeros((len(self.times), self.spec.dim), dtype=np.complex128)
        states[:, self.layout.basis] = interpolate(
            self.nodes, series_states(self.coefficients, self.vectors), self.times)
        return states


def trajectory(spec: ModelSpec, init: InitialStateSpec, times, seed: int | None = None
               ) -> Trajectory:
    """Evolve the composite initial state over the grid, on the one parity
    sector it occupies if it has exact zeros on the other; a random charger
    is drawn from ``seed``.

    The expansion is evaluated at M Chebyshev nodes of [times[0],
    times[-1]], M >= 2 the number of terms the CHEBYSHEV_TOL cut keeps at
    z = bound (times[-1] - times[0]); a one-point grid has two equal nodes.
    Besides the K vectors and the two real NODE_BLOCK-row buffers that form
    the states from them (``chebyshev_series``), the up-front memory check
    counts the reduced states that ``reduced_states`` holds, the layout's
    B blocks of b battery levels: 16 B b**2 bytes per grid point, 16 4**n
    on the full space and half that on a sector for n >= 1;
    and the matrix-free Hamiltonian (``total_matvec``), held for the whole
    run: an int64 gather index per flip, L + n of them, and the diagonal,
    8 (L + n + 1) bytes per vector entry.  Before the initial state is
    built, a model is refused whose state and Hamiltonian cannot fit on the
    smaller layout, a sector: 8 (L + n + 3) bytes per entry of 2**(L+n-1).
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ValueError("time grid must be a non-empty 1-D array")
    if times[0] < 0:
        raise ValueError("time grid must start at t >= 0")
    if times.size > 1 and not np.all(np.diff(times) > 0):
        raise ValueError("time grid must be strictly increasing")
    entry = 8 * (spec.qubits + 3)
    try:
        held = math.ldexp(entry, spec.qubits - 1)
    except OverflowError:  # the entry size or the total is beyond the float range
        held = math.inf
    available = physical_memory()
    if held > available:
        raise ValueError(
            f"a run at (L, n) = ({spec.L}, {spec.n}) holds its state and Hamiltonian on "
            f"2**{spec.qubits - 1} entries or more, {entry} bytes each: "
            f"{held:.3g} bytes, more than the {available:.3g} bytes of physical memory"
        )
    psi0 = initial_state(spec, init, seed)
    occupied = [parity for parity, idx in enumerate(parity_sectors(spec.dim)) if psi0[idx].any()]
    layout = sector_layout(spec, occupied[0] if len(occupied) == 1 else None)
    psi0 = psi0[layout.basis]
    matvec, bound = total_matvec(spec, layout.basis)
    count = max(2, chebyshev_coefficients(phases(bound, [times[-1] - times[0]])).shape[1])
    nodes = chebyshev_nodes(times[0], times[-1], count)
    cells = layout.labels.size * layout.labels.shape[1]
    hamiltonian = 8 * (spec.qubits + 1) * psi0.size
    coefficients, vectors = chebyshev_series(matvec, bound, psi0, nodes,
                                             extra_bytes=16 * cells * times.size + hamiltonian)
    return Trajectory(spec, times, coefficients, vectors, layout, nodes)
