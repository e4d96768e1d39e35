"""Hermitian linear algebra: Chebyshev propagation on a time grid, and the
dense oracles it is checked against.

The production propagator, ``chebyshev_series``, needs only the action
psi -> H psi and a bound on ||H||: one vector sequence T_k(H/bound) psi0
serves every point of a time grid, and each grid point is a set of real
expansion coefficients, the phases 1 and -i of even and odd terms
factored out, so the coefficients and the states are formed in real
arithmetic (``state_blocks``).  Dense LAPACK eigendecomposition (``eigh``, or
block by block on symmetry sectors with ``decompose``), spectral
propagation of such a decomposition (``evolve_on_grid``) and a sliced
Taylor-series propagator (``expm_series_oracle``) are kept as independent
references for the tests and the self-check suite.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

HERMITICITY_TOL = 1e-12
NORM_TOL = 1e-10
GRID_BLOCK = 256  # grid points per matrix-matrix product over the time grid
# Chebyshev coefficients are dropped once every later one is below
# CHEBYSHEV_TOL * (1 + z) over the grid, z = bound * max|t|: evaluating the
# phase z cos(theta) in double precision already leaves an absolute error of
# order 1e-16 * z in every coefficient, so a fixed cut would sit in that noise
CHEBYSHEV_TOL = 1e-15


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


def mixed_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b (a 2-D, b 1-D or 2-D) without promoting a real operand to a
    complex copy.

    When exactly one operand is complex, its real and imaginary parts are
    each multiplied with the real one, straight into the two halves of the
    complex result: two real products are several times faster than one
    complex product.  The parts are copied to contiguous storage first: they
    are strided views, and matmul on strided input misses the BLAS path.
    """
    complex_a = np.iscomplexobj(a)
    if complex_a == np.iscomplexobj(b):
        return a @ b
    out = np.empty(a.shape[:-1] + b.shape[1:], dtype=np.complex128)
    z = a if complex_a else b
    for part, half in ((z.real, out.real), (z.imag, out.imag)):
        part = np.ascontiguousarray(part)
        if complex_a:
            np.matmul(part, b, out=half)
        else:
            np.matmul(a, part, out=half)
    return out


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
        w = mixed_matmul(eigenvectors.conj().T, part)
        for lo in range(0, times.size, GRID_BLOCK):
            chunk = times[lo:lo + GRID_BLOCK]
            phases = np.exp(-1j * np.outer(eigenvalues, chunk))
            out[lo:lo + chunk.size, idx] = mixed_matmul(eigenvectors, phases * w[:, None]).T
    return out


def row_sum_bound(matrix) -> float:
    """Gershgorin bound max_i sum_j |H_ij|, an upper bound on ||H||_2."""
    return float(np.max(np.abs(_matrix_of(matrix)).sum(axis=1)))


def _smooth_size(n: int) -> int:
    """The smallest 2**a 3**b 5**c >= n (n >= 1): an FFT length without the
    large prime factors that slow the FFT several times."""
    best, fives = 1 << (n - 1).bit_length(), 1
    while fives < best:
        threes = fives
        while threes < best:
            size = threes
            while size < n:
                size *= 2
            best = min(best, size)
            threes *= 3
        fives *= 5
    return best


def chebyshev_series(matvec, bound: float, psi0, times) -> tuple[np.ndarray, np.ndarray]:
    """exp(-i H t) psi0 at every grid time as a Chebyshev expansion with real
    coefficients.

    ``matvec(v)`` returns H v for a Hermitian H, and ``bound`` >= ||H||_2
    (for example the Gershgorin row-sum bound).  With z = bound * t and
    v_k = T_k(H / bound) psi0,

        exp(-i H t) psi0 = sum_{k even} g_k(t) v_k - i sum_{k odd} g_k(t) v_k,
        g_0 = J_0(z),   g_k = 2 (-1)^floor(k/2) J_k(z),

    the expansion of Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967 (1984),
    whose coefficients 2 (-i)^k J_k(z) are g_k times 1 or -i.  The vectors do
    not depend on t, so one three-term recurrence v_{k+1} = 2 (H/bound) v_k -
    v_{k-1} serves the whole grid.  The g_k(t) are the cosine-series
    coefficients of f(theta) = cos(z cos theta) + sin(z cos theta)
    (Jacobi-Anger), read off one real FFT of f at theta_j = pi j / half,
    j < 2 half, GRID_BLOCK grid points at a time, so the FFT workspace does
    not grow with the grid.  cos and sin are evaluated on [0, pi/2] only:
    f(pi - theta) = cos(z cos theta) - sin(z cos theta) and f(2 pi - theta)
    = f(theta).  half is twice the smallest 2**a 3**b 5**c >= 0.75 z_max +
    30, an FFT length with no large prime factor and at least 1.5 z_max + 60;
    J_k(z) decays faster than exponentially once k > z, and the margin keeps
    the kept terms clear of aliasing up to z of several hundred.

    Returns ``(coefficients, vectors)`` of shapes (len(times), K) and
    (K, dim), the coefficients real; ``series_states`` and ``state_blocks``
    form the states.  The vectors are real when psi0 and H are.  K counts
    the coefficients up to the last one above CHEBYSHEV_TOL * (1 + z_max)
    anywhere on the grid; ArithmeticError if they do not fall below that
    within the FFT.  ValueError if a vector outgrows psi0, which means
    ``bound`` is below ||H||, and, before anything is allocated, if the
    coefficient table and the at least z_max vectors cannot fit in physical
    memory.
    """
    psi0 = _check_state(np.size(psi0), psi0)
    if not (np.isfinite(bound) and bound > 0):
        raise ValueError(f"norm bound must be positive and finite, got {bound!r}")
    z = bound * np.asarray(times, dtype=float)
    if z.ndim != 1 or z.size == 0 or not np.all(np.isfinite(z)):
        raise ValueError("time grid must be a non-empty 1-D array of finite times")
    if not psi0.imag.any():
        psi0 = psi0.real  # a real H then keeps the whole sequence real
    z_max = float(np.max(np.abs(z)))
    quarter = _smooth_size(int(np.ceil(0.75 * z_max + 30)))
    half = 2 * quarter
    rows = min(z.size, GRID_BLOCK)
    # the table, the FFT's input, output and temporaries, and the vectors
    needed = 8 * half * (z.size + 6 * rows) + psi0.itemsize * psi0.size * int(np.ceil(z_max))
    available = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if needed > available:
        raise ValueError(
            f"Chebyshev expansion at z = {z_max:.3g} needs {half} coefficient terms per "
            f"grid point and at least {int(np.ceil(z_max))} vectors: {needed:.3g} bytes, "
            f"more than the {available:.3g} bytes of physical memory"
        )
    # theta_j on [0, pi/2]: cos theta changes sign under theta -> pi - theta,
    # and so does sin(z cos theta) while cos(z cos theta) does not
    cos_theta = np.cos(np.pi * np.arange(quarter + 1) / half)
    samples = np.empty((rows, 2 * half))
    table = np.empty((z.size, half))
    for lo in range(0, z.size, GRID_BLOCK):
        chunk = samples[:min(GRID_BLOCK, z.size - lo)]
        phase = np.multiply.outer(z[lo:lo + GRID_BLOCK], cos_theta)
        even, odd = np.cos(phase), np.sin(phase)
        np.add(even, odd, out=chunk[:, :quarter + 1])
        np.subtract(even[:, quarter - 1::-1], odd[:, quarter - 1::-1],
                    out=chunk[:, quarter + 1:half + 1])  # theta -> pi - theta
        chunk[:, half + 1:] = chunk[:, half - 1:0:-1]  # theta -> 2 pi - theta
        table[lo:lo + chunk.shape[0]] = np.fft.rfft(chunk, axis=1)[:, :half].real
    table /= half
    table[:, 0] /= 2
    above = np.flatnonzero(np.max(np.abs(table), axis=0) > CHEBYSHEV_TOL * (1 + z_max))
    kept = int(above[-1]) + 1 if above.size else 1
    if kept == half:
        raise ArithmeticError(
            f"Chebyshev coefficients did not fall below {CHEBYSHEV_TOL:.0e} * (1 + z) "
            f"within {half} terms at z = {z_max:.3g}"
        )
    first = matvec(psi0) / bound
    vectors = np.empty((kept, psi0.size), dtype=np.result_type(psi0, first))
    vectors[0] = psi0
    if kept > 1:
        vectors[1] = first
    for k in range(2, kept):
        vectors[k] = (2.0 / bound) * matvec(vectors[k - 1]) - vectors[k - 2]
    # |T_k| <= 1 on [-1, 1]; roundoff grows far slower than this margin, while
    # an eigenvalue beyond the bound grows T_k exponentially
    growth = float(np.max(np.linalg.norm(vectors, axis=1)))
    if growth > 1.0 + 1e-6:
        raise ValueError(
            f"Chebyshev vectors grow to norm {growth:.3e}: bound {bound!r} is below ||H||"
        )
    return np.ascontiguousarray(table[:, :kept]), vectors


def state_blocks(coefficients, vectors):
    """The states of a ``chebyshev_series`` expansion, GRID_BLOCK grid points
    at a time, formed in real arithmetic.

    State j is sum_{k even} g_jk v_k - i sum_{k odd} g_jk v_k for real
    coefficients g (T, K) and vectors v (K, dim).  Yields ``(lo, real,
    imag)``: the real and imaginary parts of states lo, lo + 1, ... as two
    contiguous real (rows, dim) arrays, each one real matrix product.  Real
    vectors take T K dim multiply-adds in all, the even terms giving the
    real part and the odd ones the imaginary part; complex vectors take
    2 T K dim, with Re psi = g_e Re v_e + g_o Im v_o and Im psi = g_e Im v_e -
    g_o Re v_o.  The two buffers are allocated once and overwritten by the
    next block: use each block before asking for the next.
    """
    coefficients, vectors = np.asarray(coefficients, dtype=float), np.asarray(vectors)
    if coefficients.ndim != 2 or vectors.ndim != 2 or coefficients.shape[1] != vectors.shape[0]:
        raise ValueError(
            f"expansion of shapes {coefficients.shape} @ {vectors.shape} does not match"
        )
    kept = vectors.shape[0]
    even, odd = slice(0, None, 2), slice(1, None, 2)
    # (columns of g, their signs, real operand) for each part
    if np.iscomplexobj(vectors):
        both = np.r_[0:kept:2, 1:kept:2]
        operands = ((both, 1.0, np.concatenate([vectors.real[even], vectors.imag[odd]])),
                    (both, np.where(both % 2, -1.0, 1.0),
                     np.concatenate([vectors.imag[even], vectors.real[odd]])))
    else:
        operands = ((even, 1.0, vectors[even]), (odd, -1.0, vectors[odd]))
    parts = np.empty((2, min(coefficients.shape[0], GRID_BLOCK), vectors.shape[1]))
    for lo in range(0, coefficients.shape[0], GRID_BLOCK):
        block = coefficients[lo:lo + GRID_BLOCK]
        out = parts[:, :block.shape[0]]
        for part, (columns, sign, operand) in zip(out, operands):
            np.matmul(block[:, columns] * sign, operand, out=part)
        yield lo, out[0], out[1]


def series_states(coefficients, vectors) -> np.ndarray:
    """Every state of a ``chebyshev_series`` expansion, shape (T, dim) complex."""
    states = np.empty((len(coefficients), np.shape(vectors)[1]), dtype=np.complex128)
    for lo, real, imag in state_blocks(coefficients, vectors):
        states.real[lo:lo + real.shape[0]] = real
        states.imag[lo:lo + real.shape[0]] = imag
    return states


def expm_series_oracle(operator, psi0, t: float, term_tol: float = 1e-16) -> np.ndarray:
    """Taylor-series propagator with time slicing (test oracle).

    t is sliced so that ||H||_inf * dt <= 1, then exp(-i H dt) is applied
    stepwise as sum_k (-i H dt)^k / k! psi, truncating once the term norm
    drops below ``term_tol``.  Accurate to ~1e-10 per amplitude at the
    scales used here; independent of the spectral path.
    """
    m = _matrix_of(operator)
    psi = _check_state(m.shape[0], psi0, require_normalized=False)
    hnorm = row_sum_bound(m)
    nsteps = max(1, int(np.ceil(hnorm * abs(t))))
    dt = t / nsteps
    for _ in range(nsteps):
        term = psi
        acc = psi.astype(np.complex128, copy=True)
        for k in range(1, 400):
            term = (-1j * dt / k) * mixed_matmul(m, term)
            acc = acc + term
            if float(np.linalg.norm(term)) < term_tol:
                break
        else:
            raise ArithmeticError("propagator series did not converge")
        psi = acc
    return psi
