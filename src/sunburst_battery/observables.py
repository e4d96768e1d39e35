"""Battery figures of merit: reduced density matrix, stored energy,
ergotropy, linear entropy and charging power.

Two ergotropy conventions are implemented here.  ``ergotropy`` builds
the passive state from the eigenvalues of the reduced density matrix, the
general definition (optimal over all unitaries on the battery register).
``ergotropy_populations`` uses the occupation probabilities of the battery
energy levels, i.e. work extractable by unitaries diagonal in the energy
basis.  For a single battery charged from a cat state the reduced state is
diagonal and the two agree; for n >= 2 it carries 00<->11 and 01<->10
coherences even in the strong-charger limit, and only the population
convention follows the per-battery closed forms and their linear-in-n
scaling.  Merit series therefore report the population value and no
spectral one: the spectral value is ``ergotropy`` of a trajectory's
``reduced_states``, taken only where it is read.  Both return the work
only.  A merit series is its per-point columns alone: peaks and work
windows are read from them.

Every function here takes one reduced state or a stack of them (leading
axes), so a whole trajectory is reduced and evaluated in one pass, in
either of the two forms ``reduce_to_battery`` returns: full (..., d, d)
matrices, or, with ``layout=`` a model.Layout, the (..., B, b, b) stack of
its B blocks of b levels, the full matrix being the one-block stack.  A
trajectory is reduced from the real and imaginary parts of its states at
the Chebyshev nodes of its grid window, formed a block of nodes at a time
by real matrix products, and the reduced states are then interpolated
onto the grid (dynamics.trajectory has the bandwidth argument).  On one
parity sector each charger parity meets the battery levels of one parity
only, so the reduced state is block diagonal in the battery parity: from
the partial trace to the last figure of merit it is carried as its
blocks alone (half of the 4**n entries for n >= 1), and no zero-filled
2**n x 2**n stack is built.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .dynamics import Trajectory
from .linalg import interpolate, state_blocks
from .model import battery_energies

NEGATIVITY_TOL = 1e-10
UNAVAILABLE_TOL = 1e-9
WORK_FLOOR = 1e-12  # below this the clamped ergotropy counts as zero


def _stack(rho, layout):
    """``rho`` as a (..., B, b, b) stack of blocks and their (B, b) labels,
    those of ``layout``; with ``layout`` None, ``rho`` holds full (..., d,
    d) matrices, the one block of all d levels."""
    rho = np.asarray(rho)
    if layout is None:
        return rho[..., None, :, :], np.arange(rho.shape[-1])[None]
    return rho, layout.labels


def reduce_to_battery(psi, L: int, n: int, layout=None) -> np.ndarray:
    """Trace the charger out of a composite pure state or a stack of them.

    psi has shape (..., 2**(L+n)), or is the pair (real, imag) of its real
    and imaginary parts as real arrays of that shape.  rho[..., a, b] =
    sum_c psi[..., c, a] conj(psi[..., c, b]) over charger configurations
    c, a contiguous-stride sum under the model bit convention; with A and B
    the real and imaginary parts as (2**L x 2**n) matrices,
    rho = A^T A + B^T B + i (X - X^T), X = B^T A: three real products, with
    no conjugated or interleaved copy of the states.

    With ``layout``, a model.Layout, psi holds the entries of that layout
    instead: each of its B blocks is its own (rows x b) matrix, and its
    reduced state is the block of rho on the rows and columns of its
    labels, rho being zero off the blocks.  The result is then those blocks
    only, the stack of shape (..., B, b, b), whose three products are made
    once for all blocks.
    """
    real, imag = psi if isinstance(psi, tuple) else (np.real(psi), np.imag(psi))
    real, imag = np.asarray(real), np.asarray(imag)
    labels = np.arange(1 << n)[None] if layout is None else layout.labels
    rows = 1 << L if layout is None else layout.basis.size // labels.size
    size = rows * labels.size
    if real.ndim == 0 or real.shape[-1] != size or imag.shape != real.shape:
        space = f"2**({L}+{n})" if layout is None else f"the layout at (L, n) = ({L}, {n})"
        raise ValueError(f"state of shape {real.shape} does not match the {size} entries "
                         f"of {space}")
    shape = real.shape[:-1] + (labels.shape[0], rows, labels.shape[1])
    a = np.ascontiguousarray(real, dtype=float).reshape(shape)
    b = np.ascontiguousarray(imag, dtype=float).reshape(shape)
    a_t, b_t = np.swapaxes(a, -1, -2), np.swapaxes(b, -1, -2)
    x = b_t @ a
    rho = np.empty(shape[:-2] + (labels.shape[1],) * 2, dtype=np.complex128)
    rho.real = a_t @ a + b_t @ b
    rho.imag = x - np.swapaxes(x, -1, -2)
    trace = np.trace(rho.real, axis1=-2, axis2=-1).sum(axis=-1)
    off = np.abs(trace - 1.0) > 1e-10
    if np.any(off):
        raise ValueError(
            f"reduced state has trace {float(trace[off][0])!r}; input state not normalized"
        )
    return rho[..., 0, :, :] if layout is None else rho


def _populations(rho, layout) -> np.ndarray:
    """Real level populations of reduced states: the diagonal of each block
    of ``layout`` at its labels, or of the full matrices when ``layout`` is
    None."""
    blocks, labels = _stack(rho, layout)
    populations = np.zeros(blocks.shape[:-3] + (labels.size,))
    populations[..., labels] = np.real(np.diagonal(blocks, axis1=-2, axis2=-1))
    return populations


def _work(populations, weights, levels, what: str):
    """Work extractable from states with these level ``populations`` whose
    passive state has these ``weights`` (``what`` names them): negativity in
    [-NEGATIVITY_TOL, 0) is clamped and the weights renormalized, then
    sorted descending and paired with the levels sorted ascending; the work
    is clamped at 0.  Both energies are measured from the ground level, as
    in stored_energy: the renormalized weights sum to 1 only to roundoff,
    so a ground offset would not cancel between them."""
    if weights.min() < -NEGATIVITY_TOL:
        raise ValueError(f"{what} has negative weight {weights.min():.3e}")
    clipped = np.clip(weights, 0.0, None)
    descending = np.sort(clipped / clipped.sum(axis=-1, keepdims=True), axis=-1)[..., ::-1]
    levels = levels - levels.min()
    return np.maximum(0.0, populations @ levels - descending @ np.sort(levels))


def stored_energy(rho, levels, layout=None):
    """Battery energy above the all-ground initial level: tr(rho H_b) - E_ground,
    summed as populations times excitation energies, so an empty battery
    stores exactly 0."""
    levels = np.asarray(levels, dtype=float)
    return _populations(rho, layout) @ (levels - levels.min())


def ergotropy(rho, levels, layout=None):
    """Extractable work with the spectral passive state: the eigenvalues of
    rho (of each block) sorted descending on the levels sorted ascending."""
    blocks, _ = _stack(rho, layout)
    spectrum = np.linalg.eigvalsh(blocks).reshape(blocks.shape[:-3] + (-1,))
    return _work(_populations(rho, layout), spectrum, np.asarray(levels, dtype=float),
                 "density matrix spectrum")


def ergotropy_populations(rho, levels, layout=None):
    """Extractable work using level occupations as the passive weights.

    This is the convention behind all the closed-form results here: the
    battery coherences are not exploited, only populations are reordered.
    """
    populations = _populations(rho, layout)
    return _work(populations, populations, np.asarray(levels, dtype=float),
                 "density matrix diagonal")


def linear_entropy(rho, layout=None):
    """Mixedness 1 - tr(rho^2), in [0, 1 - 1/dim]: tr(rho^2) is the sum of
    |rho_ab|**2 over every entry (every block entry), a sum of squares over
    the real view, with no conjugated copy."""
    cells, _ = _stack(rho, layout)
    cells = cells.reshape(cells.shape[:-3] + (-1,))
    if np.iscomplexobj(cells):
        cells = np.ascontiguousarray(cells, dtype=np.complex128).view(np.float64)
    purity = np.einsum("...i,...i->...", cells, cells)
    if np.min(1.0 - purity) < -1e-12:
        raise ValueError(f"purity {float(np.max(purity))!r} exceeds 1; not a density matrix")
    return np.maximum(0.0, 1.0 - purity)


def charging_power(delta_e, t):
    """Stored energy per elapsed time, with the t -> 0 limit pinned to 0: the
    P_num column of the numerical energy and P_ana of the closed form."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError(f"time must be non-negative, got {float(t.min())!r}")
    return np.where(t > 0, delta_e / np.where(t > 0, t, 1.0), 0.0)[()]


class MeritSeries(NamedTuple):
    """Figures of merit as columns over a time grid, one entry per grid
    point.

    ``ergotropy`` is the population convention used by every closed-form
    comparison.  Peaks and work windows are read from these columns where
    they are used.
    """

    t: np.ndarray
    stored_energy: np.ndarray
    ergotropy: np.ndarray
    linear_entropy: np.ndarray
    power: np.ndarray


def reduced_states(traj: Trajectory) -> np.ndarray:
    """The reduced states at every grid time as the blocks of the
    trajectory's layout (``reduce_to_battery`` with ``layout``), shape (T,
    B, b, b).  The real and imaginary parts of the states at the
    trajectory's Chebyshev nodes are formed (``state_blocks``) and reduced
    NODE_BLOCK nodes at a time, in two buffers reused from block to block,
    so no (T, dim) array is ever held; the reduced states are then
    interpolated onto the grid in one call (``linalg.interpolate``)."""
    spec = traj.spec
    cells = np.concatenate([
        reduce_to_battery((real, imag), spec.L, spec.n, traj.layout)
        for _, real, imag in state_blocks(traj.coefficients, traj.vectors)
    ])
    return interpolate(traj.nodes, cells, traj.times)


def merit_series(traj: Trajectory, cells: np.ndarray) -> MeritSeries:
    """Evaluate the figures of merit along a trajectory, one column each,
    from its reduced states ``cells`` (``reduced_states(traj)``): each
    figure is the public function of this module evaluated on the blocks
    of the trajectory's layout.  ArithmeticError names the first time
    where the unavailable energy, stored energy minus ergotropy, is below
    -UNAVAILABLE_TOL.
    """
    times = traj.times
    levels = battery_energies(traj.spec.n, traj.spec.delta)
    layout = traj.layout
    stored = stored_energy(cells, levels, layout)
    work = ergotropy_populations(cells, levels, layout)
    unavailable = stored - work
    negative = np.flatnonzero(unavailable < -UNAVAILABLE_TOL)
    if negative.size:
        k = negative[0]
        raise ArithmeticError(
            f"unavailable energy {unavailable[k]:.3e} < -{UNAVAILABLE_TOL} at t={times[k]}"
        )
    return MeritSeries(
        t=times,
        stored_energy=stored,
        ergotropy=work,
        linear_entropy=linear_entropy(cells, layout),
        power=charging_power(stored, times),
    )
