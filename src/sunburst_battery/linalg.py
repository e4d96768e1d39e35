"""Hermitian linear algebra: Chebyshev propagation on a time grid, and the
dense oracles it is checked against.

The production propagator, ``chebyshev_series``, needs only the action
psi -> H psi and a bound on ||H||: one vector sequence T_k(H/bound) psi0
serves every point of a time grid, and each grid point is a set of real
expansion coefficients, the phases 1 and -i of even and odd terms
factored out, so the coefficients and the states are formed in real
arithmetic (``state_blocks``).  What varies smoothly along a window, such
as a reduced state, can be computed at the window's second-kind Chebyshev
points only (``chebyshev_nodes``) and carried onto the grid by barycentric
interpolation (``interpolate``).  Dense LAPACK eigendecomposition of the full
space (``eigh``, a plain ``(eigenvalues, eigenvectors)`` pair) and spectral
propagation with that pair (``evolve_on_grid``) are kept as independent
references for the tests and the self-check suite; the sliced
Taylor-series propagator and the Gershgorin bound of a dense matrix are
``validate``'s.
"""

from __future__ import annotations

import os

import numpy as np

HERMITICITY_TOL = 1e-12
NORM_TOL = 1e-10
GRID_BLOCK = 256  # grid points per matrix-matrix product over the time grid
NODE_BLOCK = 8  # states per matrix product in state_blocks
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


def _smooth_size(n: int) -> int:
    """The smallest 2**a 3**b 5**c >= n (n >= 1): an FFT length without the
    large prime factors that slow the FFT several times."""
    best, fives = 1 << (n - 1).bit_length(), 1
    while fives < best:
        threes = fives
        while threes < best:
            # threes 2**a with the least a that reaches n
            best = min(best, threes << max(0, (-(-n // threes) - 1).bit_length()))
            threes *= 3
        fives *= 5
    return best


def physical_memory() -> int:
    """Bytes of physical memory, as the operating system reports them."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _refuse_beyond_memory(z_max: float, terms: float, needed: float, vectors: int = 0) -> None:
    """ValueError unless ``needed`` bytes fit in physical memory; the message
    names the coefficient ``terms`` per point at z_max and, when given, the
    vector count, each to three digits."""
    available = physical_memory()
    if needed > available:
        counted = f" and {vectors:.3g} vectors" if vectors else ""
        raise ValueError(
            f"Chebyshev expansion at z = {z_max:.3g} needs {terms:.3g} coefficient terms per "
            f"point{counted}: {needed:.3g} bytes, more than the {available:.3g} bytes of "
            f"physical memory"
        )


def phases(bound: float, times) -> np.ndarray:
    """z = bound * t at every time of a finite 1-D grid; ValueError, naming
    the product, when one overflows the float range."""
    times = _finite_grid(times)
    with np.errstate(over="ignore"):
        z = bound * times
    if not np.all(np.isfinite(z)):
        raise ValueError(f"phase bound * t = {bound:.3g} * {np.max(np.abs(times)):.3g} "
                         "overflows the float range")
    return z


def _finite_grid(z) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    if z.ndim != 1 or z.size == 0 or not np.all(np.isfinite(z)):
        raise ValueError("time grid must be a non-empty 1-D array of finite times")
    return z


def chebyshev_coefficients(z) -> np.ndarray:
    """The real expansion coefficients g_k(z) of ``chebyshev_series`` at
    every z of a 1-D array, shape (len(z), K).

    g_0 = J_0(z) and g_k = 2 (-1)**floor(k/2) J_k(z) are the cosine-series
    coefficients of f(theta) = cos(z cos theta) + sin(z cos theta)
    (Jacobi-Anger), read off one real FFT of f at theta_j = pi j / half,
    j < 2 half, GRID_BLOCK points at a time, so the FFT workspace does not
    grow with the grid.  f is evaluated on [0, pi] only, f(2 pi - theta) =
    f(theta).  half is twice the smallest 2**a 3**b 5**c >= 0.75 z_max +
    30, an FFT length with no large prime factor and at least 1.5 z_max + 60;
    J_k(z) decays faster than exponentially once k > z, and the margin keeps
    the kept terms clear of aliasing up to z of several hundred.

    K counts the coefficients up to the last one above CHEBYSHEV_TOL * (1 +
    z_max) anywhere on the array; ArithmeticError if they do not fall below
    that within the FFT.  ValueError, before anything is allocated, if the
    table and the FFT workspace cannot fit in physical memory, checked on
    the least half, 1.5 z_max + 60, before the search for half.
    """
    z = _finite_grid(z)
    z_max = float(np.max(np.abs(z)))
    rows = min(z.size, GRID_BLOCK)
    # the table, the FFT's input, output and temporaries
    least = 1.5 * z_max + 60
    _refuse_beyond_memory(z_max, least, 8 * least * (z.size + 6 * rows))
    half = 2 * _smooth_size(int(np.ceil(0.75 * z_max + 30)))
    _refuse_beyond_memory(z_max, half, 8 * half * (z.size + 6 * rows))
    # cos theta_j on [0, pi/2], mirrored with its sign flipped onto (pi/2,
    # pi]: cos(pi - theta) = -cos(theta)
    cos_theta = np.cos(np.pi * np.arange(half // 2 + 1) / half)
    cos_theta = np.concatenate((cos_theta, -cos_theta[-2::-1]))
    samples = np.empty((rows, 2 * half))
    table = np.empty((z.size, half))
    for lo in range(0, z.size, GRID_BLOCK):
        chunk = samples[:min(GRID_BLOCK, z.size - lo)]
        phase = np.multiply.outer(z[lo:lo + GRID_BLOCK], cos_theta)
        np.add(np.cos(phase), np.sin(phase), out=chunk[:, :half + 1])
        chunk[:, half + 1:] = chunk[:, half - 1:0:-1]  # theta -> 2 pi - theta
        table[lo:lo + chunk.shape[0]] = np.fft.rfft(chunk, axis=1)[:, :half].real
    table /= half
    table[:, 0] /= 2
    above = np.flatnonzero(np.max(np.abs(table), axis=0) > CHEBYSHEV_TOL * (1 + z_max))
    terms = int(above[-1]) + 1 if above.size else 1
    if terms == half:
        raise ArithmeticError(
            f"Chebyshev coefficients did not fall below {CHEBYSHEV_TOL:.0e} * (1 + z) "
            f"within {half} terms at z = {z_max:.3g}"
        )
    return np.ascontiguousarray(table[:, :terms])


def chebyshev_series(matvec, bound: float, psi0, times,
                     extra_bytes: int = 0) -> tuple[np.ndarray, np.ndarray]:
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
    v_{k-1} serves the whole grid; ``chebyshev_coefficients`` gives the g_k.

    Returns ``(coefficients, vectors)``: the real coefficients, shape
    (len(times), K), and the K vectors, each written as the recurrence
    produces it into the real operands that ``state_blocks`` multiplies, the
    even k first: shape (1, K, size) [v_even; v_odd] when psi0 and H are
    real, else (2, K, size) [Re v_even; Im v_odd] and [Im v_even; Re v_odd].
    ``series_states`` and ``state_blocks`` form the states.  K counts the
    coefficients up to the last one above CHEBYSHEV_TOL * (1 + z_max)
    anywhere on the grid; ArithmeticError if they do not fall below that
    within the FFT.  ValueError if a phase bound * t overflows the float
    range (``phases``), as soon as a vector outgrows psi0, which means
    ``bound`` is below ||H||, if the coefficient table and its FFT
    workspace cannot fit in physical memory (``chebyshev_coefficients``),
    and, once the coefficients are known and before any vector is
    allocated, if they, the K vectors, the two ``state_blocks`` buffers
    that form the states from them and ``extra_bytes`` more, which the
    caller will hold alongside, cannot.
    """
    psi0 = _check_state(np.size(psi0), psi0)
    if not (np.isfinite(bound) and bound > 0):
        raise ValueError(f"norm bound must be positive and finite, got {bound!r}")
    z = phases(bound, times)
    if not psi0.imag.any():
        psi0 = psi0.real  # a real H then keeps the whole sequence real
    coefficients = chebyshev_coefficients(z)
    kept = coefficients.shape[1]
    _refuse_beyond_memory(float(np.max(np.abs(z))), kept, coefficients.nbytes + extra_bytes
                          + psi0.itemsize * kept * psi0.size
                          + 16 * min(z.size, NODE_BLOCK) * psi0.size, kept)
    previous, current = psi0, matvec(psi0) / bound
    complex_parts = np.iscomplexobj(current)
    vectors = np.empty((1 + complex_parts, kept, psi0.size))
    evens = (kept + 1) // 2
    for k in range(kept):
        if k > 1:
            previous, current = current, (2.0 / bound) * matvec(current) - previous
        v = previous if k == 0 else current
        row = k // 2 + (k % 2) * evens
        if complex_parts:
            vectors[k % 2, row], vectors[1 - k % 2, row] = v.real, v.imag
        else:
            vectors[0, row] = v
        # |T_k| <= 1 on [-1, 1]; roundoff grows far slower than this margin,
        # while an eigenvalue beyond the bound grows T_k exponentially
        growth = float(np.sqrt(np.vdot(v, v).real))
        if growth > 1.0 + 1e-6:
            raise ValueError(
                f"Chebyshev vectors grow to norm {growth:.3e}: bound {bound!r} is below ||H||"
            )
    return coefficients, vectors


def state_blocks(coefficients, vectors):
    """The states of a ``chebyshev_series`` expansion, NODE_BLOCK points at
    a time, formed in real arithmetic.

    State j is sum_{k even} g_jk v_k - i sum_{k odd} g_jk v_k for real
    coefficients g (T, K) and the vectors v as ``chebyshev_series`` lays
    them out, shape (parts, K, dim).  Yields ``(lo, real, imag)``: the real
    and imaginary parts of states lo, lo + 1, ... as two contiguous real
    (rows, dim) arrays, each one real matrix product.  Real vectors take
    T K dim multiply-adds in all, the even terms giving the real part and
    the odd ones the imaginary part; complex vectors take 2 T K dim, with
    Re psi = g_e Re v_e + g_o Im v_o and Im psi = g_e Im v_e - g_o Re v_o.
    The two buffers are allocated once and overwritten by the next block:
    use each block before asking for the next.
    """
    coefficients, vectors = np.asarray(coefficients, dtype=float), np.asarray(vectors)
    if (coefficients.ndim != 2 or vectors.ndim != 3 or vectors.shape[0] not in (1, 2)
            or coefficients.shape[1] != vectors.shape[1]):
        raise ValueError(
            f"expansion of shapes {coefficients.shape} @ {vectors.shape} does not match"
        )
    kept, evens = vectors.shape[1], (vectors.shape[1] + 1) // 2
    both = np.r_[0:kept:2, 1:kept:2]
    # (columns of g, their signs, real operand) for each part
    if vectors.shape[0] == 2:
        operands = ((both, 1.0, vectors[0]), (both, np.where(both % 2, -1.0, 1.0), vectors[1]))
    else:
        operands = ((both[:evens], 1.0, vectors[0, :evens]),
                    (both[evens:], -1.0, vectors[0, evens:]))
    parts = np.empty((2, min(coefficients.shape[0], NODE_BLOCK), vectors.shape[2]))
    for lo in range(0, coefficients.shape[0], NODE_BLOCK):
        block = coefficients[lo:lo + NODE_BLOCK]
        out = parts[:, :block.shape[0]]
        for part, (columns, sign, operand) in zip(out, operands):
            np.matmul(block[:, columns] * sign, operand, out=part)
        yield lo, out[0], out[1]


def series_states(coefficients, vectors) -> np.ndarray:
    """Every state of a ``chebyshev_series`` expansion, shape (T, dim) complex."""
    states = np.empty((len(coefficients), np.shape(vectors)[2]), dtype=np.complex128)
    for lo, real, imag in state_blocks(coefficients, vectors):
        states.real[lo:lo + real.shape[0]] = real
        states.imag[lo:lo + real.shape[0]] = imag
    return states


def chebyshev_nodes(t_first: float, t_last: float, count: int) -> np.ndarray:
    """``count`` >= 2 second-kind Chebyshev points of [t_first, t_last],
    (t_first + t_last) / 2 - (t_last - t_first) / 2 cos(pi j / (count - 1)),
    increasing, with the ends exactly t_first and t_last."""
    if count < 2:
        raise ValueError(f"need at least 2 Chebyshev nodes, got {count}")
    nodes = t_first + (t_last - t_first) * (1 - np.cos(np.pi * np.arange(count) / (count - 1))) / 2
    nodes[[0, -1]] = t_first, t_last
    return nodes


def interpolate(nodes, values, times) -> np.ndarray:
    """The polynomial through ``values`` (shape (M, ...), real or complex)
    at the M ``chebyshev_nodes``, evaluated at every one of ``times``.

    This is the barycentric formula of the second kind, whose weights at
    second-kind Chebyshev points are (-1)**j, halved at both ends; it is
    forward stable there (Berrut & Trefethen, SIAM Rev. 46, 501 (2004)),
    and a time equal to a node takes that node's values exactly.  The
    (rows x M) weights are built for GRID_BLOCK grid times at a time, and
    each block costs one real matrix product with the values read as reals.
    """
    nodes, times = np.asarray(nodes, dtype=float), np.asarray(times, dtype=float)
    values = np.ascontiguousarray(values)
    if nodes.ndim != 1 or nodes.size < 2 or values.shape[:1] != nodes.shape:
        raise ValueError(f"values of shape {values.shape} do not match {nodes.size} nodes")
    weights = np.where(np.arange(nodes.size) % 2, -1.0, 1.0)
    weights[[0, -1]] /= 2
    samples = values.reshape(nodes.size, -1)
    samples = samples.view(np.float64) if np.iscomplexobj(samples) else np.asarray(samples, float)
    out = np.empty((times.size, samples.shape[1]))
    for lo in range(0, times.size, GRID_BLOCK):
        gaps = np.subtract.outer(times[lo:lo + GRID_BLOCK], nodes)
        on_node = gaps == 0
        np.copyto(gaps, 1.0, where=on_node)
        rows = weights / gaps
        hits = on_node.any(axis=1)
        rows[hits] = on_node[hits]
        rows /= rows.sum(axis=1, keepdims=True)
        np.matmul(rows, samples, out=out[lo:lo + rows.shape[0]])
    out = out.view(np.complex128) if np.iscomplexobj(values) else out
    return out.reshape(times.shape + values.shape[1:])
