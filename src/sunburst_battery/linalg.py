"""Hermitian linear algebra: Chebyshev propagation on a time grid, and the
dense oracles it is checked against.

The production propagator, ``chebyshev_series``, needs only the action
psi -> H psi and a bound on ||H||: one vector sequence T_k(H/bound) psi0
serves every point of a time grid, and each grid point is a set of real
expansion coefficients, the phases 1 and -i of even and odd terms
factored out, so the coefficients and the states are formed in real
arithmetic (``state_blocks``).  Dense LAPACK eigendecomposition of the full
space (``eigh``, a plain ``(eigenvalues, eigenvectors)`` pair), spectral
propagation with that pair (``evolve_on_grid``) and a sliced Taylor-series
propagator (``expm_series_oracle``) are kept as independent references for
the tests and the self-check suite.
"""

from __future__ import annotations

import os

import numpy as np

HERMITICITY_TOL = 1e-12
NORM_TOL = 1e-10
GRID_BLOCK = 256  # grid points per matrix-matrix product over the time grid
# Chebyshev coefficients are dropped once every later one is below
# CHEBYSHEV_TOL * (1 + z) over the grid, z = bound * max|t|: evaluating the
# phase z cos(theta) in double precision already leaves an absolute error of
# order 1e-16 * z in every coefficient, so a fixed cut would sit in that noise
CHEBYSHEV_TOL = 1e-15


def _matrix_of(operator) -> np.ndarray:
    """The operand as a square matrix."""
    m = np.asarray(operator)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


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


def eigh(operator) -> tuple[np.ndarray, np.ndarray]:
    """``(eigenvalues, eigenvectors)`` of a dense Hermitian matrix, as from
    np.linalg.eigh.  Real symmetric input (every model Hamiltonian) is solved
    in real arithmetic, several times faster than the complex driver."""
    m = _matrix_of(operator)
    if m.shape[0] == 0:
        raise ValueError("cannot diagonalize an empty matrix")
    asymmetry = float(np.max(np.abs(m - m.conj().T)))
    if asymmetry > HERMITICITY_TOL:
        raise ValueError(
            f"matrix is not Hermitian: max |H - H^dag| entry = {asymmetry:.3e}"
        )
    if np.iscomplexobj(m) and np.count_nonzero(m.imag):
        return np.linalg.eigh(m)
    return np.linalg.eigh(m.real)


def evolve_on_grid(decomp, psi0, times) -> np.ndarray:
    """psi0 propagated to every grid time, shape (len(times), dim), with the
    ``(eigenvalues, eigenvectors)`` pair of eigh(); grid points are batched
    into matrix-matrix products, GRID_BLOCK at a time."""
    eigenvalues, eigenvectors = decomp
    psi0 = _check_state(eigenvectors.shape[0], psi0)
    times = np.asarray(times, dtype=float)
    w = eigenvectors.conj().T @ psi0
    out = np.empty((times.size, psi0.size), dtype=np.complex128)
    for lo in range(0, times.size, GRID_BLOCK):
        chunk = times[lo:lo + GRID_BLOCK]
        phases = np.exp(-1j * np.outer(eigenvalues, chunk))
        out[lo:lo + chunk.size] = (eigenvectors @ (phases * w[:, None])).T
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
            term = (-1j * dt / k) * (m @ term)
            acc = acc + term
            if float(np.linalg.norm(term)) < term_tol:
                break
        else:
            raise ArithmeticError("propagator series did not converge")
        psi = acc
    return psi
