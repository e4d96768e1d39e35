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
reduced from the real and imaginary parts of its states at its evaluation
points, formed a grid block at a time by real matrix products; when those
are Chebyshev nodes of the grid window, the reduced states are then
interpolated onto the grid (dynamics.trajectory has the bandwidth
argument).  A trajectory on one parity sector is reduced block by block
(model.Layout): each charger parity meets the battery levels of one parity
only.
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

    The real and imaginary parts of the states at the trajectory's
    evaluation points are formed (``state_blocks``) and reduced GRID_BLOCK
    points at a time, in two buffers reused from block to block, so no
    (T, dim) array is ever held.  On Chebyshev nodes that is one block of
    about K points, whose reduced states are interpolated onto the grid
    (``linalg.interpolate``); everything else is evaluated per grid point.
    Each block of the trajectory's layout is reduced on its own: on one
    parity sector the reduced states are block diagonal in the battery
    parity, and their spectra are taken block by block.
    """
    spec = traj.spec
    times = traj.times
    levels = battery_energies(spec.n, spec.delta)
    blocks = traj.layout.blocks
    rho = np.concatenate([
        reduce_to_battery((real, imag), spec.L, spec.n, blocks)
        for _, real, imag in state_blocks(traj.coefficients, traj.vectors)
    ])
    if traj.nodes is not None:
        rho = interpolate(traj.nodes, rho, times)
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
