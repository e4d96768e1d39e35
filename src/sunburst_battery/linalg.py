"""Hermitian linear algebra: Chebyshev propagation on a time grid.

The production propagator, ``chebyshev_series``, needs only the action
psi -> H psi and a bound on ||H||: one vector sequence T_k(H/bound) psi0
serves every point of a time grid, and each grid point is a set of real
expansion coefficients, the phases 1 and -i of even and odd terms
factored out, so the coefficients and the states are formed in real
arithmetic (``state_blocks``); the coefficients are Bessel values from
Miller's backward recurrence (``chebyshev_coefficients``).  What varies
smoothly along a window, such as a reduced state, can be computed at the
window's second-kind Chebyshev points only (``chebyshev_nodes``) and
carried onto the grid by barycentric interpolation (``interpolate``).
The dense oracles this path is checked against (LAPACK eigendecomposition,
spectral and sliced Taylor-series propagation) are ``validate``'s.
"""

from __future__ import annotations

import math

import numpy as np

from .config import physical_memory

NORM_TOL = 1e-10
GRID_BLOCK = 256  # grid points per matrix-matrix product over the time grid
NODE_BLOCK = 8  # states per matrix product in state_blocks
# Chebyshev coefficients are dropped once every later one is below
# CHEBYSHEV_TOL * (1 + z) over the grid, z = bound * max|t|: rounding the
# phase z in double precision already moves every coefficient by up to
# ~1e-16 * z (|d J_k / dz| <= 1), so a fixed cut would sit in that noise
CHEBYSHEV_TOL = 1e-15


def _check_state(dim: int, psi) -> np.ndarray:
    psi = np.asarray(psi, dtype=np.complex128)
    if psi.ndim != 1 or psi.size != dim:
        raise ValueError(
            f"state of shape {psi.shape} does not match operator dimension {dim}"
        )
    norm = float(np.linalg.norm(psi))
    if abs(norm - 1.0) > NORM_TOL:
        raise ValueError(f"state is not normalized: |psi| = {norm:.12e}")
    return psi


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

    g_0 = J_0(z) and g_k = 2 (-1)**floor(k/2) J_k(z), the Bessel values from
    Miller's backward recurrence J_{k-1} = (2k/z) J_k - J_{k+1}, run on every
    z at once and normalized by J_0 + 2 sum_k J_2k = 1 (Gautschi, SIAM Rev.
    9, 24 (1967)).  Each z starts from J_{N+1} = 0, J_N = 1 at its own N =
    |z| + 20 |z|**(1/3) + 40 orders, where J_N(z) is far below the cut:
    J_k(z) decays faster than exponentially once k > z.  A row is scaled
    down by 1e-250 whenever it passes 1e250, and a phase below 1e-20, whose
    steps 2k/z would overflow that scaling, takes g_0 = 1, g_1 = z, exact to
    roundoff.

    K counts the coefficients up to the last one above CHEBYSHEV_TOL * (1 +
    z_max) anywhere on the array; ArithmeticError if they do not fall below
    that before the start at z_max.  ValueError, before anything is
    allocated, if the recurrence's table cannot fit in physical memory.
    """
    z = _finite_grid(z)
    z_max = float(np.max(np.abs(z)))
    reach = np.abs(z) + 20 * np.cbrt(np.abs(z)) + 40
    deepest = float(reach.max())
    # the recurrence's table and the returned coefficients
    _refuse_beyond_memory(z_max, deepest, 16 * (deepest + 2) * z.size)
    starts = reach.astype(int)
    start = int(starts.max())
    tiny = np.abs(z) < 1e-20
    scale = np.divide(2.0, z, out=np.zeros_like(z), where=~tiny)
    bessel = np.zeros((start + 2, z.size))
    bessel[starts, np.arange(z.size)] = 1.0
    for k in range(start, 0, -1):
        below = bessel[k - 1]
        below += k * scale * bessel[k] - bessel[k + 1]
        if np.abs(below).max() > 1e250:
            bessel[k - 1:, np.abs(below) > 1e250] *= 1e-250
    bessel[:, tiny] = 0.0
    bessel[0, tiny], bessel[1, tiny] = 1.0, z[tiny] / 2
    bessel /= bessel[0] + 2 * bessel[2::2].sum(axis=0)
    bessel *= np.where(np.arange(start + 2) % 4 < 2, 2.0, -2.0)[:, None]
    bessel[0] /= 2
    peak = np.maximum(bessel.max(axis=1), -bessel.min(axis=1))  # no |table| copy
    above = np.flatnonzero(peak > CHEBYSHEV_TOL * (1 + z_max))
    terms = int(above[-1]) + 1 if above.size else 1
    if terms > start:
        raise ArithmeticError(
            f"Chebyshev coefficients did not fall below {CHEBYSHEV_TOL:.0e} * (1 + z) "
            f"within {start} terms at z = {z_max:.3g}"
        )
    return np.ascontiguousarray(bessel[:terms].T)


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
    ``state_blocks`` forms the states.  K counts the coefficients up to the
    last one above CHEBYSHEV_TOL * (1 + z_max) anywhere on the grid;
    ArithmeticError if they do not fall below that before the start of
    their recurrence.  ValueError if a phase bound * t overflows the float
    range (``phases``), as soon as a vector outgrows psi0, which means
    ``bound`` is below ||H||, if the recurrence's table cannot fit in
    physical memory (``chebyshev_coefficients``), and, before the K vectors
    are allocated (two real parts each if psi0 or H psi0 is complex), if
    the coefficients, the vectors, the two ``state_blocks`` buffers that
    form the states from them and ``extra_bytes`` more, which the caller
    will hold alongside, cannot.
    """
    psi0 = _check_state(np.size(psi0), psi0)
    if not (np.isfinite(bound) and bound > 0):
        raise ValueError(f"norm bound must be positive and finite, got {bound!r}")
    z = phases(bound, times)
    if not psi0.imag.any():
        psi0 = psi0.real  # a real H then keeps the whole sequence real
    coefficients = chebyshev_coefficients(z)
    kept = coefficients.shape[1]
    first = None if np.iscomplexobj(psi0) else matvec(psi0) / bound  # real psi0: is H complex?
    complex_parts = first is None or np.iscomplexobj(first)
    _refuse_beyond_memory(float(np.max(np.abs(z))), kept, coefficients.nbytes + extra_bytes
                          + 8 * (1 + complex_parts) * kept * psi0.size
                          + 16 * min(z.size, NODE_BLOCK) * psi0.size, kept)
    previous, current = psi0, matvec(psi0) / bound if first is None else first
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
    forward stable there (Berrut & Trefethen, SIAM Rev. 46, 501 (2004)).
    The (rows x M) weights are built for GRID_BLOCK grid times at a time, and
    each block costs one real matrix product with the values read as reals.
    The time-node gaps are scaled by the power of two that brings the
    window's width near 1, which is exact and cancels in the normalized
    weights, so a window of subnormal width does not overflow them.  A time
    whose scaled gap to a node is zero or subnormal, where its weight would
    overflow, takes that node's values exactly.
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
    scale = -math.frexp(nodes[-1] - nodes[0])[1]
    for lo in range(0, times.size, GRID_BLOCK):
        gaps = np.ldexp(np.subtract.outer(times[lo:lo + GRID_BLOCK], nodes), scale)
        on_node = np.abs(gaps) < np.finfo(float).tiny
        np.copyto(gaps, 1.0, where=on_node)
        rows = weights / gaps
        hits = on_node.any(axis=1)
        rows[hits] = on_node[hits]
        rows /= rows.sum(axis=1, keepdims=True)
        np.matmul(rows, samples, out=out[lo:lo + rows.shape[0]])
    out = out.view(np.complex128) if np.iscomplexobj(values) else out
    return out.reshape(times.shape + values.shape[1:])
