"""Dense Hermitian linear algebra: eigendecomposition and spectral propagation.

Everything here acts on composite spin registers of dimension 2**N with
N <= 12 or so, where dense LAPACK solvers are the fastest and most reliable
option.  An operator that conserves a symmetry is decomposed block by block:
each symmetry sector (a set of basis indices that the operator does not
couple to the rest of the space) is diagonalized on its own, and only the
sectors a state occupies need to be solved at all.  A sliced Taylor-series
propagator is kept alongside the spectral one as an independent
cross-check; the two share no code path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HERMITICITY_TOL = 1e-12
NORM_TOL = 1e-10
GRID_BLOCK = 256  # grid points per matrix-matrix product in evolve_on_grid


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigendecomposition of a Hermitian operator on ``dim`` basis states,
    one symmetry sector at a time.

    Each sector is ``(indices, eigenvalues, eigenvectors)``: the basis
    indices it spans, its eigenvalues (ascending) and the orthonormal
    eigenvector columns of the block ``H[indices][:, indices]``.  Basis
    states in no sector were not decomposed: a state with weight on them
    cannot be propagated.

    Eigenvectors of a real symmetric block are kept in real storage; a
    complex amplitude vector is then propagated with two real matrix
    products, which is faster than one complex product and halves the
    memory held by cached decompositions.
    """

    dim: int
    sectors: tuple


def _matrix_of(operator) -> np.ndarray:
    """The square matrix of a plain array or of anything carrying a
    ``.matrix`` attribute."""
    m = np.asarray(getattr(operator, "matrix", operator))
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def _apply(matrix: np.ndarray, x: np.ndarray) -> np.ndarray:
    """matrix @ x without promoting a real matrix to a complex copy.

    The real/imaginary parts are copied to contiguous storage first: they
    are strided views, and matmul on strided input misses the BLAS path.
    """
    if np.iscomplexobj(x) and not np.iscomplexobj(matrix):
        return (matrix @ np.ascontiguousarray(x.real)
                + 1j * (matrix @ np.ascontiguousarray(x.imag)))
    return matrix @ x


def _check_state(dim: int, psi, require_normalized: bool = True) -> np.ndarray:
    psi = np.asarray(psi, dtype=np.complex128)
    if psi.ndim != 1 or psi.size != dim:
        raise ValueError(
            f"state of shape {psi.shape} does not match operator dimension {dim}"
        )
    if require_normalized:
        norm = float(np.linalg.norm(psi))
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"state is not normalized: |psi| = {norm:.12e}")
    return psi


def eigh(operator) -> SpectralDecomposition:
    """Spectral decomposition of one dense Hermitian matrix, as a single
    sector spanning the whole space.

    Real symmetric input (every model Hamiltonian is real in the
    computational basis) is solved in real arithmetic, which is several
    times faster than the complex driver at dimension 4096.
    """
    m = _matrix_of(operator)
    if m.shape[0] == 0:
        raise ValueError("cannot decompose an empty matrix")
    asymmetry = float(np.max(np.abs(m - m.conj().T)))
    if asymmetry > HERMITICITY_TOL:
        raise ValueError(
            f"matrix is not Hermitian: max |H - H^dag| entry = {asymmetry:.3e}"
        )
    if np.iscomplexobj(m) and np.count_nonzero(m.imag):
        eigenvalues, eigenvectors = np.linalg.eigh(m)
    else:
        eigenvalues, eigenvectors = np.linalg.eigh(m.real)
    dim = m.shape[0]
    return SpectralDecomposition(dim, ((np.arange(dim), eigenvalues, eigenvectors),))


def decompose(operator, sectors) -> SpectralDecomposition:
    """Decompose a Hermitian operator on the listed symmetry sectors only.

    Each sector is an array of basis indices.  The operator must not couple
    a sector to the rest of the space (every such entry at most
    HERMITICITY_TOL in size), otherwise ValueError; each diagonal block is
    then solved by eigh(), which also checks that the block is Hermitian.
    """
    m = _matrix_of(operator)
    dim = m.shape[0]
    parts = []
    for idx in map(np.asarray, sectors):
        rest = np.setdiff1d(np.arange(dim), idx, assume_unique=True)
        leak = max(float(np.max(np.abs(m[np.ix_(rest, idx)]), initial=0.0)),
                   float(np.max(np.abs(m[np.ix_(idx, rest)]), initial=0.0)))
        if leak > HERMITICITY_TOL:
            raise ValueError(
                f"operator couples a {idx.size}-state sector to the rest of the "
                f"space: max entry {leak:.3e}"
            )
        (_, eigenvalues, eigenvectors), = eigh(m[np.ix_(idx, idx)]).sectors
        parts.append((idx, eigenvalues, eigenvectors))
    return SpectralDecomposition(dim, tuple(parts))


def evolve_on_grid(decomp: SpectralDecomposition, psi0, times) -> np.ndarray:
    """Propagate psi0 to every grid time; returns shape (len(times), dim).

    Sectors where psi0 is exactly zero stay zero and are skipped; psi0 must
    have no weight outside the decomposed sectors.  Grid points are batched
    into matrix-matrix products, which is far faster than one matrix-vector
    product per point at dimension 4096.
    """
    psi0 = _check_state(decomp.dim, psi0)
    times = np.asarray(times, dtype=float)
    outside = np.ones(decomp.dim, dtype=bool)
    for idx, _, _ in decomp.sectors:
        outside[idx] = False
    if np.any(psi0[outside]):
        raise ValueError("state has weight outside the decomposed symmetry sectors")
    out = np.zeros((times.size, decomp.dim), dtype=np.complex128)
    for idx, eigenvalues, eigenvectors in decomp.sectors:
        part = psi0[idx]
        if not part.any():
            continue
        w = _apply(eigenvectors.conj().T, part)
        for lo in range(0, times.size, GRID_BLOCK):
            chunk = times[lo:lo + GRID_BLOCK]
            phases = np.exp(-1j * np.outer(eigenvalues, chunk))
            out[lo:lo + chunk.size, idx] = _apply(eigenvectors, phases * w[:, None]).T
    return out


def expm_series_oracle(operator, psi0, t: float, term_tol: float = 1e-16) -> np.ndarray:
    """Taylor-series propagator with time slicing (test oracle).

    t is sliced so that ||H||_inf * dt <= 1, then exp(-i H dt) is applied
    stepwise as sum_k (-i H dt)^k / k! psi, truncating once the term norm
    drops below ``term_tol``.  Accurate to ~1e-10 per amplitude at the
    scales used here; independent of the spectral path.
    """
    m = _matrix_of(operator)
    psi = _check_state(m.shape[0], psi0, require_normalized=False)
    hnorm = float(np.max(np.abs(m).sum(axis=1)))  # cheap upper bound on ||H||_2
    nsteps = max(1, int(np.ceil(hnorm * abs(t))))
    dt = t / nsteps
    for _ in range(nsteps):
        term = psi
        acc = psi.astype(np.complex128, copy=True)
        for k in range(1, 400):
            term = (-1j * dt / k) * _apply(m, term)
            acc = acc + term
            if float(np.linalg.norm(term)) < term_tol:
                break
        else:
            raise ArithmeticError("propagator series did not converge")
        psi = acc
    return psi
