import numpy as np
import pytest

from sunburst_battery import (
    ModelSpec,
    build_total,
    decompose,
    eigh,
    evolve_on_grid,
    expm_series_oracle,
    parity_sectors,
)
from sunburst_battery.dynamics import random_state

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def random_hermitian(rng, dim):
    raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (raw + raw.conj().T) / 2


def test_eigh_already_diagonal():
    delta = 0.5
    decomp = eigh(np.diag([-delta / 2, delta / 2]).astype(complex))
    (indices, eigenvalues, eigenvectors), = decomp.sectors
    assert decomp.dim == 2 and indices.tolist() == [0, 1]
    assert np.allclose(eigenvalues, [-0.25, 0.25])
    assert np.allclose(np.abs(eigenvectors), np.eye(2))


def test_eigh_pauli_x():
    (_, eigenvalues, eigenvectors), = eigh(SX).sectors
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


def test_eigh_rejects_empty_and_nonsquare():
    with pytest.raises(ValueError):
        eigh(np.zeros((0, 0)))
    with pytest.raises(ValueError):
        eigh(np.zeros((2, 3)))


@pytest.mark.parametrize("dim", [2, 3, 8, 17, 64])
def test_eigh_reconstruction_and_orthonormality(dim):
    rng = np.random.default_rng(dim)
    ham = random_hermitian(rng, dim)
    (_, eigenvalues, vee), = eigh(ham).sectors
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


def test_decompose_rejects_coupled_sectors_and_non_hermitian_blocks():
    spec = ModelSpec(3, 1, h=0.3, kappa=1.1)
    matrix = build_total(spec).matrix
    # the ring bonds at site 1 flip the highest bit: its halves are no sectors
    low = np.arange(spec.dim // 2)
    with pytest.raises(ValueError, match="couples"):
        decompose(matrix, [low, low + spec.dim // 2])
    even, odd = parity_sectors(spec.dim)
    bad = matrix.copy()
    bad[even[0], even[1]] += 1e-3
    with pytest.raises(ValueError, match="matrix is not Hermitian"):
        decompose(bad, [even, odd])


def test_evolve_rejects_weight_outside_decomposed_sectors():
    rng = np.random.default_rng(5)
    spec = ModelSpec(3, 1, h=0.3, kappa=1.1)
    even, odd = parity_sectors(spec.dim)
    decomp = decompose(build_total(spec), [even])
    with pytest.raises(ValueError, match="outside"):
        evolve_on_grid(decomp, random_state(rng, spec.dim), [0.1])
    inside = np.zeros(spec.dim, dtype=complex)
    inside[even] = random_state(rng, even.size)
    oracle = evolve_on_grid(eigh(build_total(spec).matrix), inside, [0.1, 2.0])
    assert np.max(np.abs(evolve_on_grid(decomp, inside, [0.1, 2.0]) - oracle)) <= 1e-12


def test_series_oracle_zero_generator():
    psi = np.array([0.6, 0.8j], dtype=complex)
    assert np.allclose(expm_series_oracle(np.zeros((2, 2)), psi, 5.0), psi)


def test_series_oracle_x_rotation():
    # exp(-i sx t) = cos(t) - i sin(t) sx: full flip to -i|1> at t = pi/2,
    # pure sign at t = pi
    psi = np.array([1.0, 0.0], dtype=complex)
    quarter = expm_series_oracle(SX, psi, np.pi / 2)
    assert np.allclose(quarter, -1j * SX @ psi, atol=1e-12)
    half = expm_series_oracle(SX, psi, np.pi)
    assert np.allclose(half, -psi, atol=1e-12)


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
        for t, evolved in zip(times, evolve_on_grid(total.decomposition(), psi, times)):
            diff = np.abs(evolved - expm_series_oracle(total.matrix, psi, t))
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
        # one-point calls cover the block boundaries; the Taylor series is an
        # independent reference
        assert np.max(np.abs(batch[k] - evolve_on_grid(decomp, psi, [t])[0])) <= 1e-12
        assert np.max(np.abs(batch[k] - expm_series_oracle(ham, psi, t))) <= 1e-8


def test_ground_state_against_independent_oracles():
    # full model at composite dimension 32: the eigh ground level must agree
    # with shifted power iteration and be a fixed point of the series
    # propagator (pure phase rotation)
    spec = ModelSpec(4, 1, J=1.0, h=0.1, delta=0.5, kappa=2.0)
    total = build_total(spec)
    # ground level: the lowest over the parity sectors, its eigenvector
    # scattered back into the full space
    indices, eigenvalues, eigenvectors = min(
        total.decomposition().sectors, key=lambda sector: sector[1][0]
    )
    ground_energy = eigenvalues[0]
    ground = np.zeros(spec.dim)
    ground[indices] = eigenvectors[:, 0]

    # power iteration on (cI - H), accelerated by repeated squaring.  The two
    # lowest levels form a cat doublet split by ~8e-6, one member per sector
    # of the exact global flip symmetry G = prod sigma^z (x) prod Sigma^z, so
    # each sector is iterated separately and the minimum taken.
    shift = float(np.max(np.abs(total.matrix).sum(axis=1))) + 1.0
    booster = shift * np.eye(spec.dim) - total.matrix
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
        sector_energies.append(float(vec @ (total.matrix @ vec)))
    assert abs(min(sector_energies) - ground_energy) <= 1e-9

    t = 0.4
    evolved = expm_series_oracle(total.matrix, ground.astype(complex), t)
    assert np.max(np.abs(evolved - np.exp(-1j * ground_energy * t) * ground)) <= 1e-8
