"""Initial-state factory and exact time evolution on explicit time grids.

``charger_state`` builds each charger kind a ``config.InitialStateSpec``
names: a cat state of either parity, an x-basis product state, or a seeded
Haar-random state; the batteries always start in the all-ground state
|00...0>.  A trajectory is one Chebyshev expansion of exp(-i H t) psi0
driven by the matrix-free Hamiltonian, with real coefficients: exact to
roundoff at every grid time (no step-size error), with no dense matrix and
no eigendecomposition.  The Hamiltonian conserves the total parity, so a
state with no weight in one parity sector (a cat charger with ground
batteries) is expanded on the other sector alone, at half the size.  Battery
level 0 has even parity, so the start vector occupies the parities of the
charger's nonzero entries; it is written straight onto its layout.
The refusals a run makes before it builds an array are ``check_run``'s,
which each command calls on all its runs before the first one starts.

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

from dataclasses import dataclass

import numpy as np

from .config import InitialStateSpec, ModelSpec
from .linalg import (_finite_grid, _refuse_beyond_memory, chebyshev_coefficients,
                     chebyshev_nodes, chebyshev_series, phases)
from .model import Layout, norm_bound, sector_layout, total_matvec


def random_state(rng, dim: int) -> np.ndarray:
    """Normalized vector of ``dim`` independent standard complex Gaussian
    amplitudes drawn from ``rng``; Haar-distributed."""
    psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return psi / np.linalg.norm(psi)


def charger_state(init: InitialStateSpec, L: int, seed: int | None = None) -> np.ndarray:
    """The charger that ``init`` prepares on a ring of L sites, in the z basis.

    A cat, (|++..+> + |--..->)/sqrt(2) for ghz_plus and with a minus sign for
    ghz_minus, has amplitude 2**((1-L)/2) on every bit string of even (odd)
    weight; ghz_plus is the charger ground state for J >> h.  An eigenstate
    is the product of |+>/|-> factors in which a set bit (L-i) of the index
    puts site i in |->, an exact charger eigenstate at h = 0.  A random one
    is Haar-distributed, drawn from ``seed`` by a PCG64 generator.  The
    index must fit the ring, as ``check_run`` checks.
    """
    if L < 1:
        raise ValueError("L must be >= 1")
    if init.charger_kind == "random":
        if seed is None:
            raise ValueError("random initial state has no seed set")
        return random_state(np.random.default_rng(seed), 1 << L)
    strings = np.arange(1 << L)
    if init.charger_kind == "eigenstate":
        signs = 1.0 - 2.0 * (np.bitwise_count(strings & init.index) & 1)
        return (signs * 2.0 ** (-L / 2)).astype(np.complex128)
    parity = int(init.charger_kind == "ghz_minus")
    weights = np.bitwise_count(strings) & 1
    return np.where(weights == parity, 2.0 ** ((1 - L) / 2), 0.0).astype(np.complex128)


def _place(charger: np.ndarray, layout: Layout, n: int) -> np.ndarray:
    """The charger tensor n all-ground batteries, laid out by ``layout``:
    each charger amplitude at the entry whose battery bits are all 0."""
    psi = np.zeros(layout.basis.size, dtype=np.complex128)
    ground = np.flatnonzero(layout.basis % (1 << n) == 0)
    psi[ground] = charger[layout.basis[ground] >> n]
    return psi


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


def check_run(spec: ModelSpec, init: InitialStateSpec, times) -> tuple[np.ndarray, float]:
    """The checked grid and the phase z = bound (times[-1] - times[0]) of a
    run, bound the ``model.norm_bound``, before any array is built:
    ValueError unless the grid is finite, starts at t >= 0 and increases
    strictly, an eigenstate pattern fits the ring, z is finite, and the
    node table, at least z by z coefficients, fits in physical memory."""
    times = _finite_grid(times)
    if times[0] < 0:
        raise ValueError("time grid must start at t >= 0")
    if not np.all(np.diff(times) > 0):
        raise ValueError("time grid must be strictly increasing")
    if init.charger_kind == "eigenstate" and init.index >> spec.L:
        raise ValueError(f"initial.index {init.index} outside [0, 2**{spec.L}) "
                         f"for the (L, n) = ({spec.L}, {spec.n}) system")
    z = float(phases(norm_bound(spec), [times[-1] - times[0]])[0])
    # K > z wherever the cut lies below J_k(z) ~ 0.45 k**(-1/3) at k = ceil(z),
    # z < 1e11, so the node table has more than z rows of more than z terms:
    # it is refused before the z steps that count K
    _refuse_beyond_memory(z, z, 16 * z * z)
    return times, z


def trajectory(spec: ModelSpec, init: InitialStateSpec, times, seed: int | None = None
               ) -> Trajectory:
    """Evolve the composite initial state over the grid, on the one parity
    sector it occupies if the charger's nonzero entries share one parity,
    else on the full space; a random charger is drawn from ``seed``, once.
    The run is first checked (``check_run``), before the charger, the
    layout or the Hamiltonian is built.

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
    8 (L + n + 1) bytes per vector entry.
    """
    times, z = check_run(spec, init, times)
    charger = charger_state(init, spec.L, seed)
    # the batteries start in level 0, so full index c 2**n has the parity of c
    occupied = set((np.bitwise_count(np.flatnonzero(charger)) & 1).tolist())
    layout = sector_layout(spec, occupied.pop() if len(occupied) == 1 else None)
    psi0 = _place(charger, layout, spec.n)
    matvec, bound = total_matvec(spec, layout.basis)
    count = max(2, chebyshev_coefficients([z]).shape[1])
    nodes = chebyshev_nodes(times[0], times[-1], count)
    cells = layout.labels.size * layout.labels.shape[1]
    hamiltonian = 8 * (spec.qubits + 1) * psi0.size
    coefficients, vectors = chebyshev_series(matvec, bound, psi0, nodes,
                                             extra_bytes=16 * cells * times.size + hamiltonian)
    return Trajectory(spec, times, coefficients, vectors, layout, nodes)
