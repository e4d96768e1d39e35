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
headline ergotropy and carry the spectral value alongside.

Every function here takes one matrix or a stack of them (leading axes), so
a whole trajectory is reduced and evaluated in one pass.  A trajectory is
reduced either from the real and imaginary parts of its states, formed a
grid block at a time by real matrix products, or without forming any
state, from the Gram matrix of its Chebyshev vectors over the charger with
the phases of the real coefficients folded in (``reduce_expansion``),
whichever costs fewer operations.  A trajectory on one parity sector is
reduced block by block (model.Layout): each charger parity meets the
battery levels of one parity only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import Trajectory
from .linalg import GRID_BLOCK, state_blocks
from .model import battery_energies

NEGATIVITY_TOL = 1e-10
UNAVAILABLE_TOL = 1e-9
WORK_FLOOR = 1e-12  # below this the clamped ergotropy counts as zero


def _block_slices(L: int, n: int, blocks):
    """``(entries, rows, labels)`` for each ``(rows, labels)`` block of a
    model.Layout (the full register's one block when None), ``entries``
    the slice of a stored vector the block fills, and the vector size."""
    if blocks is None:
        blocks = ((1 << L, np.arange(1 << n)),)
    slices, size = [], 0
    for rows, labels in blocks:
        slices.append((slice(size, size + rows * labels.size), rows, labels))
        size += rows * labels.size
    return slices, size


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
    (rows x len(labels)) matrix, and its reduced state fills the rows and
    columns ``labels`` of rho, which is zero elsewhere.
    """
    real, imag = psi if isinstance(psi, tuple) else (np.real(psi), np.imag(psi))
    real, imag = np.asarray(real), np.asarray(imag)
    slices, size = _block_slices(L, n, blocks)
    if real.ndim == 0 or real.shape[-1] != size or imag.shape != real.shape:
        raise ValueError(
            f"state of shape {real.shape} does not match the {size} entries of "
            f"2**({L}+{n}) = {1 << (L + n)}"
        )
    real = np.ascontiguousarray(real, dtype=float)
    imag = np.ascontiguousarray(imag, dtype=float)
    rho = np.zeros(real.shape[:-1] + (1 << n, 1 << n), dtype=np.complex128)
    for entries, rows, labels in slices:
        shape = real.shape[:-1] + (rows, labels.size)
        a, b = real[..., entries].reshape(shape), imag[..., entries].reshape(shape)
        a_t, b_t = np.swapaxes(a, -1, -2), np.swapaxes(b, -1, -2)
        x = b_t @ a
        rho[..., labels[:, None], labels] = (a_t @ a + b_t @ b) + 1j * (x - np.swapaxes(x, -1, -2))
    return _unit_trace(rho)


def _unit_trace(rho) -> np.ndarray:
    """rho, once every reduced state in it has unit trace within 1e-10."""
    trace = np.real(np.trace(rho, axis1=-2, axis2=-1))
    off = np.abs(trace - 1.0) > 1e-10
    if np.any(off):
        raise ValueError(
            f"reduced state has trace {float(trace[off][0])!r}; input state not normalized"
        )
    return rho


def reduce_expansion(coefficients, vectors, L: int, n: int, blocks=None) -> np.ndarray:
    """Reduced battery state of every expansion of ``chebyshev_series``,
    without forming any state.

    State j is sum_k s_k g_jk v_k with real coefficients g and phases s_k =
    1 (k even) or -i (k odd).  With v_k[c, a] the K vectors under the model
    bit convention, the Gram matrix G[k, a, l, b] = sum_c v_k[c, a]
    conj(v_l[c, b]) over charger configurations c gives rho_ab = sum_kl g_k
    g_l P[k, a, l, b], P = s_k conj(s_l) G.  G is one (K 2**n x 2**L) @
    (2**L x K 2**n) product, and the phases are folded into it once; each
    GRID_BLOCK of grid points then costs one real product of g with P, read
    as pairs of reals, and one contraction with g, T K**2 4**n multiply-adds
    for each of the real and imaginary parts against T K 2**(L+n) for
    forming the states.  With ``blocks`` (see reduce_to_battery) the vectors
    are in that layout, and each block is contracted on its own.
    """
    coefficients, vectors = np.asarray(coefficients, dtype=float), np.asarray(vectors)
    slices, size = _block_slices(L, n, blocks)
    if vectors.ndim != 2 or vectors.shape[1] != size or coefficients.ndim != 2 \
            or coefficients.shape[1] != vectors.shape[0]:
        raise ValueError(
            f"expansion of shapes {coefficients.shape} @ {vectors.shape} does not match "
            f"the {size} entries of 2**({L}+{n}) = {1 << (L + n)}"
        )
    kept = vectors.shape[0]
    phases = np.where(np.arange(kept) % 2, -1j, 1.0)
    rho = np.zeros((coefficients.shape[0], 1 << n, 1 << n), dtype=np.complex128)
    for entries, rows, labels in slices:
        levels = labels.size
        v = vectors[:, entries].reshape(kept, rows, levels)
        # right is always a fresh buffer: numpy sends x @ x.T on one buffer to
        # syrk, whose bits change with the BLAS thread count
        left = np.ascontiguousarray(v.transpose(0, 2, 1)).reshape(kept * levels, rows)
        right = np.conjugate(v.transpose(1, 0, 2), order="C").reshape(rows, kept * levels)
        # folded[k, a, b, l] = s_k conj(s_l) G[k, a, l, b], with l last so the
        # contraction with g runs along memory; the product with g reads it as
        # real pairs
        folded = np.multiply(
            (left @ right).reshape(kept, levels, kept, levels).transpose(0, 1, 3, 2),
            np.multiply.outer(phases, phases.conj())[:, None, None, :], order="C")
        parts = folded.view(np.float64).reshape(kept, -1)
        for start in range(0, coefficients.shape[0], GRID_BLOCK):
            block = coefficients[start:start + GRID_BLOCK]
            half = (block @ parts).view(np.complex128).reshape(-1, levels, levels, kept)
            rho[start:start + GRID_BLOCK, labels[:, None], labels] = \
                np.einsum("tabl,tl->tab", half, block)
    return _unit_trace(rho)


def check_density_matrix(rho, tol: float = 1e-10) -> None:
    """Raise unless rho is Hermitian, unit-trace and positive within tol."""
    rho = np.asarray(rho)
    herm = float(np.max(np.abs(rho - rho.conj().T)))
    if herm > tol:
        raise ValueError(f"density matrix not Hermitian: max asymmetry {herm:.3e}")
    trace = float(np.real(np.trace(rho)))
    if abs(trace - 1.0) > tol:
        raise ValueError(f"density matrix trace {trace!r} != 1")
    lowest = float(np.linalg.eigvalsh(rho)[0])
    if lowest < -tol:
        raise ValueError(f"density matrix has negative eigenvalue {lowest:.3e}")


def _populations(rho) -> np.ndarray:
    """Real diagonal of rho, or of each matrix in a stack."""
    return np.real(np.diagonal(rho, axis1=-2, axis2=-1))


def stored_energy(rho, level_energies):
    """Battery energy above the all-ground initial level: tr(rho H_b) - E_ground."""
    levels = np.asarray(level_energies, dtype=float)
    return _populations(rho) @ levels - levels.min()


def _descending_weights(values, what: str) -> np.ndarray:
    """Clamp numerical negativity in [-NEGATIVITY_TOL, 0), renormalize, sort
    along the last axis."""
    values = np.real(np.asarray(values))
    if values.min() < -NEGATIVITY_TOL:
        raise ValueError(f"{what} has negative weight {values.min():.3e}")
    clipped = np.clip(values, 0.0, None)
    return np.sort(clipped / clipped.sum(axis=-1, keepdims=True), axis=-1)[..., ::-1]


def ergotropy(rho, level_energies, sectors=None):
    """Extractable work and passive energy from the spectral passive state.

    Eigenvalues of rho sorted descending are paired with the battery levels
    sorted ascending; returns (work, passive_energy) with work clamped at 0.
    ``sectors``, index arrays of levels partitioning them, says that rho is
    block diagonal on them: its spectrum is then that of each block.
    """
    levels = np.asarray(level_energies, dtype=float)
    spectrum = (np.linalg.eigvalsh(rho) if sectors is None or len(sectors) == 1 else
                np.concatenate([np.linalg.eigvalsh(rho[..., idx[:, None], idx])
                                for idx in sectors], axis=-1))
    weights = _descending_weights(spectrum, "density matrix spectrum")
    passive = weights @ np.sort(levels)
    return np.maximum(0.0, _populations(rho) @ levels - passive), passive


def ergotropy_populations(rho, level_energies):
    """Extractable work using level occupations as the passive weights.

    This is the convention behind all the closed-form results here: the
    battery coherences are not exploited, only populations are reordered.
    """
    levels = np.asarray(level_energies, dtype=float)
    populations = _populations(rho)
    weights = _descending_weights(populations, "density matrix diagonal")
    passive = weights @ np.sort(levels)
    return np.maximum(0.0, populations @ levels - passive), passive


def passive_state(rho, level_energies) -> np.ndarray:
    """Passive state of rho: its spectrum laid out non-increasing in energy."""
    levels = np.asarray(level_energies, dtype=float)
    weights = _descending_weights(np.linalg.eigvalsh(rho), "density matrix spectrum")
    out = np.zeros((levels.size, levels.size), dtype=np.complex128)
    order = np.argsort(levels, kind="stable")
    out[order, order] = weights
    return out


def linear_entropy(rho):
    """Mixedness 1 - tr(rho^2), in [0, 1 - 1/dim]."""
    rho = np.asarray(rho)
    purity = np.real(np.sum(rho.conj() * rho, axis=(-2, -1)))
    value = 1.0 - purity
    if np.min(value) < -1e-12:
        raise ValueError(f"purity {float(np.max(purity))!r} exceeds 1; not a density matrix")
    return np.maximum(0.0, value)


def charging_power(delta_e, t):
    """Stored energy per elapsed time, with the t -> 0 limit pinned to 0."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError(f"time must be non-negative, got {float(t.min())!r}")
    return np.where(t > 0, delta_e / np.where(t > 0, t, 1.0), 0.0)[()]


@dataclass
class MeritSeries:
    """Figures of merit as columns over a time grid, plus peaks and window
    brackets.

    ``ergotropy`` is the population convention used by every closed-form
    comparison; ``ergotropy_spectral`` is the eigenvalue-based value.
    ``unavailable`` is stored_energy - ergotropy.  Window brackets are the
    grid intervals where the ergotropy switches between zero and nonzero
    (onsets and offsets); the grid cannot resolve the switch times any
    finer.  ``max_variant_gap`` is the largest spread between the two
    ergotropy conventions along the run.
    """

    t: np.ndarray
    stored_energy: np.ndarray
    ergotropy: np.ndarray
    ergotropy_spectral: np.ndarray
    linear_entropy: np.ndarray
    power: np.ndarray
    unavailable: np.ndarray
    peak_stored_time: float
    peak_stored: float
    peak_ergotropy_time: float
    peak_ergotropy: float
    peak_power_time: float
    peak_power: float
    ergotropy_onsets: list[tuple[float, float]]
    ergotropy_offsets: list[tuple[float, float]]
    max_variant_gap: float


def merit_series(traj: Trajectory) -> MeritSeries:
    """Evaluate all figures of merit along a trajectory, one column each.

    With K Chebyshev vectors, the reduced states come from their Gram
    matrix (``reduce_expansion``) when K 2**n < 2**L, the case where that
    contraction takes fewer operations than forming the states; otherwise
    the real and imaginary parts of the states are formed (``state_blocks``)
    and reduced GRID_BLOCK grid points at a time, in two buffers reused
    from block to block.  Either way no (T, dim) array is ever held, and
    each block of the trajectory's layout is reduced on its own: on one
    parity sector the reduced states are block diagonal in the battery
    parity, and their spectra are taken block by block.
    """
    spec = traj.spec
    times = traj.times
    levels = battery_energies(spec.n, spec.delta)
    blocks = traj.layout.blocks
    if traj.vectors.shape[0] << spec.n < 1 << spec.L:
        rho = reduce_expansion(traj.coefficients, traj.vectors, spec.L, spec.n, blocks)
    else:
        rho = np.concatenate([
            reduce_to_battery((real, imag), spec.L, spec.n, blocks)
            for _, real, imag in state_blocks(traj.coefficients, traj.vectors)
        ])
    stored = stored_energy(rho, levels)
    work, _ = ergotropy_populations(rho, levels)
    work_spectral, _ = ergotropy(rho, levels, [labels for _, labels in blocks])
    unavailable = stored - work
    negative = np.flatnonzero(unavailable < -UNAVAILABLE_TOL)
    if negative.size:
        k = negative[0]
        raise ArithmeticError(
            f"unavailable energy {unavailable[k]:.3e} < -{UNAVAILABLE_TOL} at t={times[k]}"
        )
    power = charging_power(stored, times)

    working = work > WORK_FLOOR
    switches = np.flatnonzero(working[1:] != working[:-1])
    return MeritSeries(
        t=times,
        stored_energy=stored,
        ergotropy=work,
        ergotropy_spectral=work_spectral,
        linear_entropy=linear_entropy(rho),
        power=power,
        unavailable=unavailable,
        peak_stored_time=float(times[np.argmax(stored)]),
        peak_stored=float(stored.max()),
        peak_ergotropy_time=float(times[np.argmax(work)]),
        peak_ergotropy=float(work.max()),
        peak_power_time=float(times[np.argmax(power)]),
        peak_power=float(power.max()),
        ergotropy_onsets=[(float(times[k]), float(times[k + 1]))
                          for k in switches if working[k + 1]],
        ergotropy_offsets=[(float(times[k]), float(times[k + 1]))
                           for k in switches if not working[k + 1]],
        max_variant_gap=float(np.max(np.abs(work_spectral - work))),
    )
