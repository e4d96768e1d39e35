"""Battery figures of merit: reduced density matrix, stored energy,
ergotropy, linear entropy and charging power.

Two ergotropy conventions are computed side by side.  ``ergotropy`` builds
the passive state from the eigenvalues of the reduced density matrix, the
general definition (optimal over all unitaries on the battery register).
``ergotropy_populations`` uses the occupation probabilities of the battery
energy levels, i.e. work extractable by unitaries diagonal in the energy
basis.  For a single battery charged from a cat state the reduced state is
diagonal and the two agree; for n >= 2 it carries 00<->11 and 01<->10
coherences even in the strong-charger limit, and only the population
convention follows the per-battery closed forms and their linear-in-n
scaling.  Merit series therefore report the population value as the
headline ergotropy and carry the spectral value alongside.  Both return
the work only.  A merit series is its per-point columns alone: peaks,
work windows and the gap between the two conventions are read from them.

Every function here takes one reduced state or a stack of them (leading
axes), so a whole trajectory is reduced and evaluated in one pass, in
either of the two forms ``reduce_to_battery`` returns: full (..., d, d)
matrices, or, with ``blocks=`` the blocks of a model.Layout, the (...,
Sum b**2) entries of those blocks over blocks of b levels, the full matrix
being the one-block case.  A trajectory is reduced from the real and
imaginary parts of its states at the Chebyshev nodes of its grid window,
formed a block of nodes at a time by real matrix products, and the reduced
states are then interpolated onto the grid (dynamics.trajectory has the
bandwidth argument).  A trajectory on one parity sector is reduced block
by block: each charger parity meets the battery levels of one parity
only, so its reduced state is block diagonal in the battery parity.  From
the partial trace to the last figure of merit that state is carried as
its blocks alone (half of 4**n entries on a sector): no zero-filled
2**n x 2**n stack is built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import Trajectory
from .linalg import interpolate, state_blocks
from .model import battery_energies

NEGATIVITY_TOL = 1e-10
UNAVAILABLE_TOL = 1e-9
WORK_FLOOR = 1e-12  # below this the clamped ergotropy counts as zero


def _block_views(cells, blocks):
    """``(labels, rho)`` for each ``(rows, labels)`` block of a model.Layout,
    ``rho`` the (..., b, b) view of that block's reduced state in
    ``cells``, whose last axis holds the blocks' b x b entries side by side
    (b = len(labels)).  With ``blocks`` None, ``cells`` are full (..., d, d)
    matrices, the one block of all d levels."""
    if blocks is None:
        yield np.arange(cells.shape[-1]), cells
        return
    start = 0
    for _, labels in blocks:
        stop = start + labels.size ** 2
        yield labels, cells[..., start:stop].reshape(cells.shape[:-1] + (labels.size,) * 2)
        start = stop


def reduce_to_battery(psi, L: int, n: int, blocks=None) -> np.ndarray:
    """Trace the charger out of a composite pure state or a stack of them.

    psi has shape (..., 2**(L+n)), or is the pair (real, imag) of its real
    and imaginary parts as real arrays of that shape.  rho[..., a, b] =
    sum_c psi[..., c, a] conj(psi[..., c, b]) over charger configurations
    c, a contiguous-stride sum under the model bit convention; with A and B
    the real and imaginary parts as (2**L x 2**n) matrices,
    rho = A^T A + B^T B + i (X - X^T), X = B^T A: three real products, with
    no conjugated or interleaved copy of the states.

    With ``blocks``, the ``(rows, labels)`` blocks of a model.Layout, psi
    holds the entries of that layout instead: each block is its own
    (rows x len(labels)) matrix, and its reduced state is the block of rho
    on the rows and columns ``labels``, rho being zero off the blocks.  The
    result is then those blocks only, shape (..., sum of len(labels)**2):
    each block's entries row-major, side by side in the layout's order.
    """
    real, imag = psi if isinstance(psi, tuple) else (np.real(psi), np.imag(psi))
    real, imag = np.asarray(real), np.asarray(imag)
    full = blocks is None
    if full:
        blocks = ((1 << L, np.arange(1 << n)),)
    size = sum(rows * labels.size for rows, labels in blocks)
    if real.ndim == 0 or real.shape[-1] != size or imag.shape != real.shape:
        raise ValueError(
            f"state of shape {real.shape} does not match the {size} entries of "
            f"2**({L}+{n}) = {1 << (L + n)}"
        )
    real = np.ascontiguousarray(real, dtype=float)
    imag = np.ascontiguousarray(imag, dtype=float)
    cells = np.empty(real.shape[:-1] + (sum(labels.size ** 2 for _, labels in blocks),),
                     dtype=np.complex128)
    start, trace = 0, 0.0
    for (rows, labels), (_, rho) in zip(blocks, _block_views(cells, blocks)):
        entries = slice(start, start + rows * labels.size)
        start = entries.stop
        shape = real.shape[:-1] + (rows, labels.size)
        a, b = real[..., entries].reshape(shape), imag[..., entries].reshape(shape)
        a_t, b_t = np.swapaxes(a, -1, -2), np.swapaxes(b, -1, -2)
        x = b_t @ a
        rho.real = a_t @ a + b_t @ b
        rho.imag = x - np.swapaxes(x, -1, -2)
        trace += np.trace(rho.real, axis1=-2, axis2=-1)
    off = np.abs(trace - 1.0) > 1e-10
    if np.any(off):
        raise ValueError(
            f"reduced state has trace {float(trace[off][0])!r}; input state not normalized"
        )
    return cells.reshape(real.shape[:-1] + (1 << n, 1 << n)) if full else cells


def _populations(cells, blocks) -> np.ndarray:
    """Real level populations of reduced states: the diagonal of each of
    the layout's ``blocks`` at its labels, or of the full matrices when
    ``blocks`` is None."""
    views = list(_block_views(np.asarray(cells), blocks))
    populations = np.zeros(views[0][1].shape[:-2] + (sum(labels.size for labels, _ in views),))
    for labels, rho in views:
        populations[..., labels] = np.real(np.diagonal(rho, axis1=-2, axis2=-1))
    return populations


def _work(populations, weights, levels, what: str):
    """Work extractable from states with these level ``populations`` whose
    passive state has these ``weights`` (``what`` names them): negativity in
    [-NEGATIVITY_TOL, 0) is clamped and the weights renormalized, then
    sorted descending and paired with the levels sorted ascending; the work
    is clamped at 0."""
    if weights.min() < -NEGATIVITY_TOL:
        raise ValueError(f"{what} has negative weight {weights.min():.3e}")
    clipped = np.clip(weights, 0.0, None)
    descending = np.sort(clipped / clipped.sum(axis=-1, keepdims=True), axis=-1)[..., ::-1]
    return np.maximum(0.0, populations @ levels - descending @ np.sort(levels))


def stored_energy(rho, levels, blocks=None):
    """Battery energy above the all-ground initial level: tr(rho H_b) - E_ground."""
    levels = np.asarray(levels, dtype=float)
    return _populations(rho, blocks) @ levels - levels.min()


def ergotropy(rho, levels, blocks=None):
    """Extractable work with the spectral passive state: the eigenvalues of
    rho (of each block) sorted descending on the levels sorted ascending."""
    levels = np.asarray(levels, dtype=float)
    spectrum = np.concatenate([np.linalg.eigvalsh(block)
                               for _, block in _block_views(np.asarray(rho), blocks)], axis=-1)
    return _work(_populations(rho, blocks), spectrum, levels, "density matrix spectrum")


def ergotropy_populations(rho, levels, blocks=None):
    """Extractable work using level occupations as the passive weights.

    This is the convention behind all the closed-form results here: the
    battery coherences are not exploited, only populations are reordered.
    """
    populations = _populations(rho, blocks)
    return _work(populations, populations, np.asarray(levels, dtype=float),
                 "density matrix diagonal")


def linear_entropy(rho, blocks=None):
    """Mixedness 1 - tr(rho^2), in [0, 1 - 1/dim]: tr(rho^2) is the sum of
    |rho_ab|**2 over every entry (every block entry), a sum of squares over
    the real view, with no conjugated copy."""
    cells = np.asarray(rho)
    if blocks is None:
        cells = cells.reshape(cells.shape[:-2] + (-1,))
    if np.iscomplexobj(cells):
        cells = np.ascontiguousarray(cells, dtype=np.complex128).view(np.float64)
    purity = np.einsum("...i,...i->...", cells, cells)
    if np.min(1.0 - purity) < -1e-12:
        raise ValueError(f"purity {float(np.max(purity))!r} exceeds 1; not a density matrix")
    return np.maximum(0.0, 1.0 - purity)


def charging_power(delta_e, t):
    """Stored energy per elapsed time, with the t -> 0 limit pinned to 0."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError(f"time must be non-negative, got {float(t.min())!r}")
    return np.where(t > 0, delta_e / np.where(t > 0, t, 1.0), 0.0)[()]


@dataclass
class MeritSeries:
    """Figures of merit as columns over a time grid, one entry per grid
    point.

    ``ergotropy`` is the population convention used by every closed-form
    comparison; ``ergotropy_spectral`` is the eigenvalue-based value.
    Peaks, work windows and the gap between the two conventions are read
    from these columns where they are used.
    """

    t: np.ndarray
    stored_energy: np.ndarray
    ergotropy: np.ndarray
    ergotropy_spectral: np.ndarray
    linear_entropy: np.ndarray
    power: np.ndarray


def _reduced_blocks(traj: Trajectory) -> np.ndarray:
    """The reduced states at every grid time as the blocks of the
    trajectory's layout (``reduce_to_battery`` with ``blocks``), shape (T,
    sum of b**2): reduced at the Chebyshev nodes, then interpolated onto
    the grid."""
    spec = traj.spec
    cells = np.concatenate([
        reduce_to_battery((real, imag), spec.L, spec.n, traj.layout.blocks)
        for _, real, imag in state_blocks(traj.coefficients, traj.vectors)
    ])
    return interpolate(traj.nodes, cells, traj.times)


def merit_series(traj: Trajectory) -> MeritSeries:
    """Evaluate all figures of merit along a trajectory, one column each.

    The real and imaginary parts of the states at the trajectory's
    Chebyshev nodes are formed (``state_blocks``) and reduced NODE_BLOCK
    nodes at a time, in two buffers reused from block to block, so no
    (T, dim) array is ever held; the reduced states are then interpolated
    onto the grid (``linalg.interpolate``).  The reduced states are carried
    as the blocks of the trajectory's layout (``_reduced_blocks``),
    interpolated in one call, and each figure is the public function of
    this module evaluated on those blocks.  ArithmeticError names the first
    time where the unavailable energy, stored energy minus ergotropy, is
    below -UNAVAILABLE_TOL.
    """
    times = traj.times
    levels = battery_energies(traj.spec.n, traj.spec.delta)
    cells, blocks = _reduced_blocks(traj), traj.layout.blocks
    stored = stored_energy(cells, levels, blocks)
    work = ergotropy_populations(cells, levels, blocks)
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
        ergotropy_spectral=ergotropy(cells, levels, blocks),
        linear_entropy=linear_entropy(cells, blocks),
        power=charging_power(stored, times),
    )
