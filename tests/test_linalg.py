import math
import re
from fractions import Fraction

import numpy as np
import pytest

from conftest import report_physical_memory
from sunburst_battery import linalg, validate
from sunburst_battery.config import ModelSpec, physical_memory
from sunburst_battery.dynamics import random_state
from sunburst_battery.linalg import (
    GRID_BLOCK,
    chebyshev_coefficients,
    chebyshev_nodes,
    chebyshev_series,
    interpolate,
    state_blocks,
)
from sunburst_battery.validate import (build_total, eigh, evolve_on_grid, expm_series_oracle,
                                       row_sum_bound, series_states)

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def random_hermitian(rng, dim):
    raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (raw + raw.conj().T) / 2


def test_eigh_already_diagonal():
    delta = 0.5
    eigenvalues, eigenvectors = eigh(np.diag([-delta / 2, delta / 2]).astype(complex))
    assert np.allclose(eigenvalues, [-0.25, 0.25])
    assert np.allclose(np.abs(eigenvectors), np.eye(2))


def test_eigh_pauli_x():
    eigenvalues, eigenvectors = eigh(SX)
    assert np.allclose(eigenvalues, [-1.0, 1.0])
    # eigenvectors are |-+> up to phase
    minus, plus = eigenvectors.T
    assert np.isclose(abs(np.vdot(minus, [1, -1]) / np.sqrt(2)), 1.0)
    assert np.isclose(abs(np.vdot(plus, [1, 1]) / np.sqrt(2)), 1.0)


def test_eigh_rejects_non_hermitian():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="not Hermitian"):
        eigh(bad)
    # the diagnostic reports the size of the asymmetry
    try:
        eigh(bad)
    except ValueError as exc:
        assert "1.0" in str(exc)
    # the gate sits at HERMITICITY_TOL = 1e-12
    with pytest.raises(ValueError, match="not Hermitian"):
        eigh(np.array([[1.0, 0.3], [0.3 + 1e-11, -1.0]]))
    assert eigh(np.array([[1.0, 0.3], [0.3 + 1e-13, -1.0]]))[0].shape == (2,)


def test_eigh_rejects_empty_and_nonsquare():
    with pytest.raises(ValueError):
        eigh(np.zeros((0, 0)))
    with pytest.raises(ValueError):
        eigh(np.zeros((2, 3)))


@pytest.mark.parametrize("dim", [2, 3, 8, 17, 64])
def test_eigh_reconstruction_and_orthonormality(dim):
    rng = np.random.default_rng(dim)
    ham = random_hermitian(rng, dim)
    eigenvalues, vee = eigh(ham)
    assert np.all(np.diff(eigenvalues) >= 0)
    assert np.max(np.abs(vee.conj().T @ vee - np.eye(dim))) <= 1e-10
    rebuilt = (vee * eigenvalues) @ vee.conj().T
    assert np.max(np.abs(rebuilt - ham)) <= 1e-9 * np.max(np.abs(ham))


def test_evolve_at_zero_is_identity():
    rng = np.random.default_rng(0)
    ham = random_hermitian(rng, 12)
    psi = random_state(rng, 12)
    assert np.max(np.abs(evolve_on_grid(eigh(ham), psi, [0.0])[0] - psi)) <= 1e-12


def test_eigenstate_picks_up_pure_phase():
    delta = 0.5
    ham = np.diag([-delta / 2, delta / 2])
    psi = np.array([1.0, 0.0], dtype=complex)
    times = (0.3, 2.7)
    for t, evolved in zip(times, evolve_on_grid(eigh(ham), psi, times)):
        assert np.allclose(evolved, np.exp(1j * delta * t / 2) * psi, atol=1e-12)


def test_evolve_rejects_dimension_mismatch_and_bad_norm():
    decomp = eigh(np.eye(4))
    with pytest.raises(ValueError, match="dimension"):
        evolve_on_grid(decomp, np.ones(3) / np.sqrt(3), [0.1])
    with pytest.raises(ValueError, match="normalized"):
        evolve_on_grid(decomp, np.ones(4), [0.1])
    # the gate sits at NORM_TOL = 1e-10
    with pytest.raises(ValueError, match="not normalized"):
        evolve_on_grid(decomp, np.full(4, 0.5 * (1 + 1e-9)), [0.1])
    assert evolve_on_grid(decomp, np.full(4, 0.5 * (1 + 1e-11)), [0.1]).shape == (1, 4)


def test_series_oracle_zero_generator():
    psi = np.array([0.6, 0.8j], dtype=complex)
    assert np.allclose(expm_series_oracle(np.zeros((2, 2)), psi, 5.0), psi)


def test_series_oracle_x_rotation(monkeypatch):
    # exp(-i sx t) = cos(t) - i sin(t) sx: full flip to -i|1> at t = pi/2,
    # pure sign at t = pi
    psi = np.array([1.0, 0.0], dtype=complex)
    quarter = expm_series_oracle(SX, psi, np.pi / 2)
    assert np.allclose(quarter, -1j * SX @ psi, atol=1e-12)
    half = expm_series_oracle(SX, psi, np.pi)
    assert np.allclose(half, -psi, atol=1e-12)
    # a bound far below the norm leaves one step of 300 sx at t = 1, whose
    # terms 300^k / k! are still ~1e122 at the series' last term: it fails
    # rather than returning a truncated sum (at 1000 sx the terms overflow)
    monkeypatch.setattr(validate, "row_sum_bound", lambda matrix: 1e-9)
    with pytest.raises(ArithmeticError, match="did not converge"):
        expm_series_oracle(300 * SX, psi, 1.0)


@pytest.mark.parametrize("t", [0.1, 1.0])
def test_propagators_agree_on_random_hermitian(t):
    rng = np.random.default_rng(42)
    ham = random_hermitian(rng, 16)
    psi = random_state(rng, 16)
    spectral = evolve_on_grid(eigh(ham), psi, [t])[0]
    series = expm_series_oracle(ham, psi, t)
    assert np.max(np.abs(spectral - series)) <= 1e-8


def test_propagators_agree_on_small_models():
    # random model parameters, composite dimension up to 64
    rng = np.random.default_rng(7)
    for L, n in ((2, 0), (2, 1), (3, 2), (4, 2), (5, 1)):
        spec = ModelSpec(L, n, d=1, J=float(rng.uniform(0.5, 2)),
                         h=float(rng.uniform(0, 1)), delta=float(rng.uniform(0, 1)),
                         kappa=float(rng.uniform(0, 2)))
        total = build_total(spec)
        psi = random_state(rng, spec.dim)
        times = (0.1, 1.0)
        for t, evolved in zip(times, evolve_on_grid(eigh(total), psi, times)):
            diff = np.abs(evolved - expm_series_oracle(total, psi, t))
            assert np.max(diff) <= 1e-8


def test_unitarity_and_energy_conservation():
    rng = np.random.default_rng(3)
    ham = random_hermitian(rng, 24)
    decomp = eigh(ham)
    psi = random_state(rng, 24)
    reference = np.real(np.vdot(psi, ham @ psi))
    for evolved in evolve_on_grid(decomp, psi, np.linspace(0.0, 8.0, 17)):
        assert abs(np.linalg.norm(evolved) - 1.0) <= 1e-10
        energy = np.real(np.vdot(evolved, ham @ evolved))
        assert abs(energy - reference) <= 1e-9 * max(1.0, abs(reference))


def test_evolve_on_grid_matches_single_calls():
    rng = np.random.default_rng(9)
    ham = random_hermitian(rng, 20)
    decomp = eigh(ham)
    psi = random_state(rng, 20)
    times = np.linspace(0.0, 3.0, 600)  # more points than one grid block
    batch = evolve_on_grid(decomp, psi, times)
    for k, t in enumerate(times):
        # one-point calls cover the block boundaries
        assert np.max(np.abs(batch[k] - evolve_on_grid(decomp, psi, [t])[0])) <= 1e-12
    # the Taylor series is an independent reference: the ends, both block
    # edges and a spread of interior points
    edges = [GRID_BLOCK - 1, GRID_BLOCK, 2 * GRID_BLOCK - 1, 2 * GRID_BLOCK]
    for k in sorted({0, times.size - 1, *edges, *range(37, times.size, 97)}):
        assert np.max(np.abs(batch[k] - expm_series_oracle(ham, psi, times[k]))) <= 1e-8


def test_chebyshev_series_real_state_under_complex_hamiltonian():
    # a real psi0 keeps a real vector sequence only while H is real: here the
    # first product is complex and the whole sequence must follow it
    rng = np.random.default_rng(17)
    ham = random_hermitian(rng, 24)
    psi = np.abs(random_state(rng, 24))
    times = np.array([0.0, 0.05, 0.9, 4.0])
    coefficients, vectors = chebyshev_series(lambda v: ham @ v, row_sum_bound(ham), psi, times)
    assert vectors.shape[0] == 2 and coefficients.shape == (times.size, vectors.shape[1])
    for t, state in zip(times, series_states(coefficients, vectors)):
        assert np.max(np.abs(state - expm_series_oracle(ham, psi, t))) <= 1e-8


def test_chebyshev_series_counts_a_real_state_under_a_complex_hamiltonian_at_16_bytes(
        monkeypatch):
    # the complex first product makes each of the K vectors two real parts,
    # 16 bytes per entry: memory for 12, more than the real state's own 8,
    # must be refused before they exist
    rng = np.random.default_rng(17)
    ham = random_hermitian(rng, 64)
    psi = np.abs(random_state(rng, 64))
    bound, times = row_sum_bound(ham), np.linspace(0.0, 3.0, 4)
    coefficients = chebyshev_coefficients(bound * times)
    held = coefficients.nbytes + 16 * times.size * psi.size  # with both state_blocks buffers
    report_physical_memory(monkeypatch, held + 12 * coefficients.size // times.size * psi.size)
    with pytest.raises(ValueError, match=r"coefficient terms per point and .* vectors: .* bytes"):
        chebyshev_series(lambda v: ham @ v, bound, psi, times)


def bessel_j(k: int, z: float) -> float:
    """J_k(z) from its power series sum_m (-1)^m (z/2)^(2m+k) / (m! (m+k)!)
    in exact rational arithmetic, summed until the alternating terms, which
    decrease once m > z, fall below 1e-40."""
    half = Fraction(z) / 2
    term = half ** k / math.factorial(k)
    total, m = Fraction(0), 0
    while m <= z or abs(term) > Fraction(1, 10 ** 40):
        total += term
        m += 1
        term *= -half * half / (m * (m + k))
    return float(total)


def test_chebyshev_coefficients_match_exact_bessel_series():
    # g_0 = J_0(z) and g_k = 2 (-1)^floor(k/2) J_k(z): checks the recurrence,
    # its normalization and the sign convention against exact power series;
    # 2.3e-169 takes the small-phase branch
    zs = [0.0, 2.3e-169, 0.3, 1.7, 4.0, 9.0]
    coefficients, _ = chebyshev_series(lambda v: np.diag([-1.0, 1.0]) @ v, 1.0,
                                       np.array([1.0, 0.0]), zs)
    for z, row in zip(zs, coefficients):
        for k in range(31):
            exact = (1 if k == 0 else 2) * (-1) ** (k // 2) * bessel_j(k, z)
            got = row[k] if k < row.size else 0.0
            assert abs(got - exact) <= 1e-14, (z, k)


def test_chebyshev_coefficients_sum_to_the_generating_function():
    # sum_k g_k cos(k theta) = cos(z cos theta) + sin(z cos theta): at theta =
    # 0 and pi the coefficients sum to cos z + sin z and, alternating, to
    # cos z - sin z.  Each z alone, then all in one table; the row at 1e-8
    # grows past 1e250 and is rescaled, and 0, 1e-300 and 2.3e-169 take the
    # small-phase branch
    zs = np.array([0.0, 1e-300, 2.3e-169, 1e-8, 0.3, 5.0, 28.7, 158.0, 2010.0, 2e4])
    rows = [chebyshev_coefficients([z])[0] for z in zs]
    table = chebyshev_coefficients(zs)
    for z, alone, joint in zip(zs, rows, table):
        for g in (alone, joint):
            alternating = np.where(np.arange(g.size) % 2, -1.0, 1.0)
            assert abs(g.sum() - (np.cos(z) + np.sin(z))) <= 1e-14 * (1 + z), z
            assert abs(g @ alternating - (np.cos(z) - np.sin(z))) <= 1e-14 * (1 + z), z


@pytest.mark.parametrize("nodes", [5, 17], ids=["M5", "M17"])
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_node_blocking_changes_no_state(nodes, kind, monkeypatch):
    # states are formed NODE_BLOCK nodes at a time, two products per block;
    # 17 nodes leave a one-row last block, which numpy hands to GEMV.  Each
    # state is the one of a single product over all the nodes
    rng = np.random.default_rng(23)
    if kind == "real":
        raw = rng.standard_normal((40, 40))
        ham, psi = (raw + raw.T) / 2, np.abs(random_state(rng, 40))
    else:
        ham, psi = random_hermitian(rng, 40), random_state(rng, 40)
    coefficients, vectors = chebyshev_series(lambda v: ham @ v, row_sum_bound(ham), psi,
                                             chebyshev_nodes(0.0, 3.0, nodes))
    assert vectors.shape[0] == (1 if kind == "real" else 2)
    rows = []
    real_matmul = np.matmul
    monkeypatch.setattr(np, "matmul", lambda a, b, **kw: rows.append(len(a)) or
                        real_matmul(a, b, **kw))
    blocked = series_states(coefficients, vectors)
    assert rows == {5: [5, 5], 17: [8, 8, 8, 8, 1, 1]}[nodes]
    monkeypatch.setattr(linalg, "NODE_BLOCK", nodes)
    whole = series_states(coefficients, vectors)
    assert rows[-2:] == [nodes, nodes]
    assert np.max(np.abs(blocked - whole)) <= 1e-15


def test_state_blocks_rejects_an_expansion_of_mismatched_shapes():
    # K coefficients per node against the K vectors, held as one or two
    # real operands
    for coefficients, vectors in ((np.zeros((2, 3)), np.zeros((1, 4, 5))),
                                  (np.zeros(3), np.zeros((1, 3, 5))),
                                  (np.zeros((2, 3)), np.zeros((3, 3, 5)))):
        with pytest.raises(ValueError, match="does not match"):
            next(state_blocks(coefficients, vectors))


def test_chebyshev_series_refuses_a_window_beyond_physical_memory():
    # without the check this size fails at once with MemoryError
    ham = np.diag([-1.0, 1.0])
    with pytest.raises(ValueError, match=r"z = 1e\+12 needs .* bytes, more than .* memory"):
        chebyshev_series(lambda v: ham @ v, 1.0, np.array([1.0, 0.0]), [0.0, 1e12])


def test_memory_refusal_prints_every_count_in_three_digits():
    # at z = 1e300 the recurrence would start 1e300 orders up, a 300-digit
    # integer; its table is refused before any vector is counted
    ham = np.diag([-1.0, 1.0])
    with pytest.raises(ValueError) as raised:
        chebyshev_series(lambda v: ham @ v, 1.0, np.array([1.0, 0.0]), [0.0, 1e300])
    message = str(raised.value)
    assert "needs 1e+300 coefficient terms per point: 3.2e+301 bytes" in message
    assert not re.search(r"\d{5}", message), message
    with pytest.raises(ValueError, match=r"^Chebyshev expansion at z = 1e\+300 needs 1e\+300 "
                                         r"coefficient terms per point: 1\.6e\+301 bytes, .* "
                                         r"physical memory$"):
        chebyshev_coefficients([1e300])


def test_chebyshev_series_names_a_phase_beyond_the_float_range():
    # the times are finite; bound * t is not
    ham = np.diag([-1.0, 1.0])
    with pytest.raises(ValueError, match=r"^phase bound \* t = 2 \* 1\.7e\+308 overflows"):
        chebyshev_series(lambda v: ham @ v, 2.0, np.array([1.0, 0.0]), [0.0, 1.7e308])


def test_chebyshev_series_counts_the_callers_bytes_in_the_memory_check():
    ham = np.diag([-1.0, 1.0])
    psi = np.array([1.0, 0.0])
    available = physical_memory()
    chebyshev_series(lambda v: ham @ v, 1.0, psi, [0.0, 1.0], extra_bytes=available // 2)
    with pytest.raises(ValueError, match="physical memory"):
        chebyshev_series(lambda v: ham @ v, 1.0, psi, [0.0, 1.0], extra_bytes=available)


def test_chebyshev_nodes_are_increasing_with_exact_ends():
    nodes = chebyshev_nodes(0.3, 2.0, 7)
    assert nodes[0] == 0.3 and nodes[-1] == 2.0 and np.all(np.diff(nodes) > 0)
    assert np.allclose(nodes, 1.15 - 0.85 * np.cos(np.pi * np.arange(7) / 6), atol=1e-15)
    with pytest.raises(ValueError, match="at least 2"):
        chebyshev_nodes(0.0, 1.0, 1)


def test_interpolation_reproduces_polynomials_and_node_values(monkeypatch):
    # a complex polynomial of degree M - 1 in t, times a (2, 2) pattern, is
    # reproduced on a grid of several blocks, exactly at the nodes; the
    # weights are built at most GRID_BLOCK rows at a time
    rng = np.random.default_rng(3)
    nodes = chebyshev_nodes(0.5, 2.5, 12)
    coefficients = rng.standard_normal((12, 2, 2)) + 1j * rng.standard_normal((12, 2, 2))

    def poly(t):
        u = np.asarray(t)[..., None, None] - 1.5
        return sum(c * u ** k for k, c in enumerate(coefficients))

    times = np.sort(np.concatenate([np.linspace(0.5, 2.5, 2 * GRID_BLOCK + 50), nodes[1:-1]]))
    rows = []
    real_matmul = np.matmul
    monkeypatch.setattr(np, "matmul", lambda a, b, **kw: rows.append(len(a)) or
                        real_matmul(a, b, **kw))
    values = interpolate(nodes, poly(nodes), times)
    monkeypatch.undo()
    assert rows == [GRID_BLOCK, GRID_BLOCK, times.size - 2 * GRID_BLOCK]
    assert values.shape == (times.size, 2, 2) and np.iscomplexobj(values)
    assert np.max(np.abs(values - poly(times))) <= 1e-12
    at_nodes = interpolate(nodes, poly(nodes), nodes)
    assert np.array_equal(at_nodes, poly(nodes))
    real = interpolate(nodes, poly(nodes).real, times)
    assert not np.iscomplexobj(real) and np.max(np.abs(real - poly(times).real)) <= 1e-12
    with pytest.raises(ValueError, match="do not match"):
        interpolate(nodes, poly(nodes)[1:], times)


def test_interpolation_on_a_subnormal_window_overflows_no_weight():
    # the gaps between times and nodes on [0, 1e-320] are subnormal, and
    # dividing the weights by them unscaled overflows to inf and nan
    # (pytest turns the RuntimeWarning into an error)
    nodes = chebyshev_nodes(0.0, 1e-320, 9)
    assert np.all(np.diff(nodes) > 0)
    rng = np.random.default_rng(4)
    values = rng.standard_normal((9, 3)) + 1j * rng.standard_normal((9, 3))
    assert np.array_equal(interpolate(nodes, values, nodes), values)
    times = np.linspace(0.0, 1e-320, 50)
    ones = interpolate(nodes, np.ones(9), times)
    assert np.max(np.abs(ones - 1.0)) <= 1e-13
    assert np.all(np.isfinite(interpolate(nodes, values, times)))


def test_chebyshev_series_raises_when_the_tail_does_not_converge(monkeypatch):
    ham = np.diag([-1.0, 0.5, 1.0])
    psi = np.ones(3) / np.sqrt(3)
    # the default cut sits far below every coefficient at this z ...
    chebyshev_series(lambda v: ham @ v, 1.0, psi, [0.0, 40.0])
    # ... and a cut no rounded coefficient can reach is never met
    monkeypatch.setattr(linalg, "CHEBYSHEV_TOL", 0.0)
    with pytest.raises(ArithmeticError, match="did not fall below"):
        chebyshev_series(lambda v: ham @ v, 1.0, psi, [0.0, 40.0])


def test_chebyshev_series_rejects_bad_bounds_and_grids():
    ham = np.diag([-2.0, 1.0])
    psi = np.array([0.6, 0.8], dtype=complex)
    for bound in (0.0, -1.0, np.inf):
        with pytest.raises(ValueError, match="bound"):
            chebyshev_series(lambda v: ham @ v, bound, psi, [1.0])
    # a bound below ||H|| lets the Chebyshev vectors grow without limit
    with pytest.raises(ValueError, match="below"):
        chebyshev_series(lambda v: ham @ v, 1.0, psi, [10.0])
    # at bound = (1 - 1e-4) ||H|| they grow only as T_k(1 / (1 - 1e-4)): to
    # norm 1.058 over the 25 terms of the window [0, 5], past the guard's
    # 1 + 1e-6 though far below a loose margin such as 2
    unit = np.diag([-1.0, 1.0])
    with pytest.raises(ValueError, match=r"bound 0\.9999 is below \|\|H\|\|"):
        chebyshev_series(lambda v: unit @ v, 1 - 1e-4, np.array([1.0, 1.0]) / np.sqrt(2),
                         [0.0, 5.0])
    with pytest.raises(ValueError, match="time grid"):
        chebyshev_series(lambda v: ham @ v, 2.0, psi, [])
    with pytest.raises(ValueError, match="normalized"):
        chebyshev_series(lambda v: ham @ v, 2.0, 2 * psi, [1.0])
    # the gate sits at NORM_TOL = 1e-10
    with pytest.raises(ValueError, match="not normalized"):
        chebyshev_series(lambda v: ham @ v, 2.0, psi * (1 + 1e-9), [1.0])
    chebyshev_series(lambda v: ham @ v, 2.0, psi * (1 + 1e-11), [1.0])


def test_ground_state_against_independent_oracles():
    # full model at composite dimension 32: the eigh ground level must agree
    # with shifted power iteration and be a fixed point of the series
    # propagator (pure phase rotation)
    spec = ModelSpec(4, 1, J=1.0, h=0.1, delta=0.5, kappa=2.0)
    total = build_total(spec)
    eigenvalues, eigenvectors = eigh(total)
    ground_energy, ground = eigenvalues[0], eigenvectors[:, 0]

    # power iteration on (cI - H), accelerated by repeated squaring.  The two
    # lowest levels form a cat doublet split by ~8e-6, one member per sector
    # of the exact global flip symmetry G = prod sigma^z (x) prod Sigma^z, so
    # each sector is iterated separately and the minimum taken.
    shift = float(np.max(np.abs(total).sum(axis=1))) + 1.0
    booster = shift * np.eye(spec.dim) - total
    booster /= np.max(np.abs(booster))
    for _ in range(15):
        booster = booster @ booster
        booster /= np.max(np.abs(booster))
    parity = np.zeros(spec.dim, dtype=int)
    bits = np.arange(spec.dim)
    while bits.any():
        parity += bits & 1
        bits >>= 1
    flip_sign = 1.0 - 2.0 * (parity & 1)
    rng = np.random.default_rng(1)
    seed_vec = rng.standard_normal(spec.dim)
    sector_energies = []
    for sign in (+1.0, -1.0):
        vec = seed_vec + sign * flip_sign * seed_vec
        vec /= np.linalg.norm(vec)
        for _ in range(60):
            vec = booster @ vec
            vec /= np.linalg.norm(vec)
        sector_energies.append(float(vec @ (total @ vec)))
    assert abs(min(sector_energies) - ground_energy) <= 1e-9

    t = 0.4
    evolved = expm_series_oracle(total, ground.astype(complex), t)
    assert np.max(np.abs(evolved - np.exp(-1j * ground_energy * t) * ground)) <= 1e-8
