import numpy as np
import pytest

from sunburst_battery import (
    InitialStateSpec,
    ModelSpec,
    battery_energies,
    build_total,
    compose,
    ergotropy_populations,
    evolve_on_grid,
    ghz_minus,
    ghz_plus,
    initial_state,
    parity_sectors,
    random_charger,
    reduce_to_battery,
    stored_energy,
    trajectory,
    xbasis_product_state,
)
from sunburst_battery import linalg
from sunburst_battery.dynamics import battery_ground


def test_ghz_single_site():
    assert np.allclose(ghz_plus(1), [1.0, 0.0])
    assert np.allclose(ghz_minus(1), [0.0, 1.0])


def test_ghz_two_sites():
    state = ghz_plus(2)
    # weight only on even bit strings 00 and 11
    assert np.allclose(state, [2 ** -0.5, 0.0, 0.0, 2 ** -0.5])
    assert np.isclose(np.linalg.norm(state), 1.0)
    sxsx = np.kron([[0, 1], [1, 0]], [[0, 1], [1, 0]]).astype(float)
    assert np.isclose(np.real(state.conj() @ sxsx @ state), 1.0)
    odd = ghz_minus(2)
    assert np.allclose(np.abs(odd), [0.0, 2 ** -0.5, 2 ** -0.5, 0.0])
    assert np.isclose(np.vdot(state, odd), 0.0)


@pytest.mark.parametrize("L", [1, 2, 3, 6])
def test_ghz_weight_structure(L):
    for state, parity in ((ghz_plus(L), 0), (ghz_minus(L), 1)):
        assert np.isclose(np.linalg.norm(state), 1.0)
        for s, amp in enumerate(state):
            if bin(s).count("1") % 2 == parity:
                assert np.isclose(amp, 2 ** ((1 - L) / 2))
            else:
                assert amp == 0.0


def test_xbasis_product_state():
    plus = xbasis_product_state(2, 0)
    assert np.allclose(plus, 0.5)
    # pattern 0b10 puts site 1 in |->
    mixed = xbasis_product_state(2, 0b10)
    assert np.allclose(mixed, [0.5, 0.5, -0.5, -0.5])
    with pytest.raises(ValueError):
        xbasis_product_state(2, 4)


def test_random_charger_determinism_and_norm():
    assert np.array_equal(random_charger(6, 123), random_charger(6, 123))
    for seed in range(100):
        assert abs(np.linalg.norm(random_charger(4, seed)) - 1.0) <= 1e-12
    # distinct seeds give nearly orthogonal states at this dimension
    overlap = abs(np.vdot(random_charger(6, 1), random_charger(6, 2))) ** 2
    assert overlap < 0.5


def test_compose_basics():
    zero = battery_ground(1)
    state = compose(battery_ground(2), zero)
    assert state[0] == 1.0 and np.count_nonzero(state) == 1
    ghz = compose(ghz_plus(2), zero)
    # charger even-parity strings tensored with battery 0
    assert np.flatnonzero(ghz).tolist() == [0, 6]
    rng = np.random.default_rng(0)
    a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    assert np.isclose(np.linalg.norm(compose(a, b)),
                      np.linalg.norm(a) * np.linalg.norm(b))
    with pytest.raises(ValueError):
        compose(np.ones((2, 2)), b)


def test_initial_state_spec_validation():
    with pytest.raises(ValueError, match="unknown charger kind"):
        InitialStateSpec("bell")
    with pytest.raises(ValueError, match="pattern index"):
        InitialStateSpec("eigenstate")
    with pytest.raises(ValueError, match="only valid"):
        InitialStateSpec("ghz_plus", index=1)
    with pytest.raises(ValueError, match="only valid"):
        InitialStateSpec("ghz_plus", seed=3)
    spec = InitialStateSpec.from_dict({"charger_kind": "random", "seed": 5})
    assert spec.seed == 5
    with pytest.raises(ValueError, match="battery_kind"):
        InitialStateSpec.from_dict({"charger_kind": "ghz_plus", "battery_kind": "excited"})


def test_trajectory_validation_and_identity_grid():
    spec = ModelSpec(3, 1, h=0.1)
    init = InitialStateSpec()
    traj = trajectory(spec, init, [0.0])
    assert np.max(np.abs(traj.states[0] - initial_state(spec, init))) <= 1e-12
    with pytest.raises(ValueError, match="strictly increasing"):
        trajectory(spec, init, [0.0, 0.0])
    with pytest.raises(ValueError, match="t >= 0"):
        trajectory(spec, init, [-0.5, 0.5])


def test_trajectory_norm_preservation():
    spec = ModelSpec(4, 2, h=0.2)
    traj = trajectory(spec, InitialStateSpec("random", seed=8), np.linspace(0, 5, 101))
    norms = np.linalg.norm(traj.states, axis=1)
    assert np.max(np.abs(norms - 1.0)) <= 1e-9


def test_global_phase_leaves_observables_unchanged():
    spec = ModelSpec(3, 1, h=0.1)
    decomp = build_total(spec).decomposition()
    psi = initial_state(spec, InitialStateSpec())
    times = np.linspace(0, 2, 7)
    levels = battery_energies(spec.n, spec.delta)
    from sunburst_battery.linalg import evolve_on_grid

    states = evolve_on_grid(decomp, psi, times)
    rotated = evolve_on_grid(decomp, np.exp(1j * 0.83) * psi, times)
    for plain, turned in zip(states, rotated):
        rho_a = reduce_to_battery(plain, spec.L, spec.n)
        rho_b = reduce_to_battery(turned, spec.L, spec.n)
        assert abs(stored_energy(rho_a, levels) - stored_energy(rho_b, levels)) <= 1e-12
        assert abs(ergotropy_populations(rho_a, levels)[0]
                   - ergotropy_populations(rho_b, levels)[0]) <= 1e-12


def test_charger_eigenstates_match_cat_state_observables():
    # at near-zero transverse field every x-product eigenstate charges the
    # battery exactly like the cat state (population convention)
    spec = ModelSpec(5, 1, h=1e-3, delta=0.5, kappa=2.0)
    times = np.linspace(0.0, 2.0, 60)
    decomp = build_total(spec).decomposition()
    levels = battery_energies(spec.n, spec.delta)

    def curves(init):
        traj = trajectory(spec, init, times, decomp)
        stored, work = [], []
        for psi in traj.states:
            rho = reduce_to_battery(psi, spec.L, spec.n)
            stored.append(stored_energy(rho, levels))
            work.append(ergotropy_populations(rho, levels)[0])
        return np.array(stored), np.array(work)

    ref_stored, ref_work = curves(InitialStateSpec())
    for pattern in (0, 3, 0b10110):
        got_stored, got_work = curves(InitialStateSpec("eigenstate", index=pattern))
        assert np.max(np.abs(got_stored - ref_stored)) <= 1e-3
        assert np.max(np.abs(got_work - ref_work)) <= 1e-3


def test_full_scale_excited_population_at_charging_time(heavy):
    # |B(T)|^2 = 16/16.25 at the first stored-energy peak; h = 0.1 leaves
    # percent-level corrections, h = 1e-3 leaves none at this tolerance
    t_charge = np.pi / np.sqrt(16.25)
    for h, tol in ((0.1, 0.02), (1e-3, 1e-3)):
        spec = ModelSpec(11, 1, h=h)
        traj = heavy.trajectory(spec, times=np.array([t_charge]))
        rho = reduce_to_battery(traj.states[0], spec.L, spec.n)
        population = float(np.real(rho[1, 1]))
        assert abs(population - 16.0 / 16.25) <= tol


@pytest.mark.parametrize("spec", [
    ModelSpec(6, 0, h=0.3),
    ModelSpec(5, 1, h=0.2, kappa=1.3),
    ModelSpec(6, 2, d=2, h=0.1),
    ModelSpec(4, 4, d=1, h=0.4, delta=0.7, kappa=0.9),
], ids=["L6n0", "L5n1", "L6n2d2", "L4n4"])
@pytest.mark.parametrize("init", [
    InitialStateSpec(),
    InitialStateSpec("ghz_minus"),
    InitialStateSpec("eigenstate", index=5),
    InitialStateSpec("random", seed=11),
], ids=lambda init: init.charger_kind)
def test_sector_trajectory_matches_dense_oracle(spec, init, monkeypatch):
    # the parity-sector path against dense full-space ED; cat chargers lie in
    # one sector (ghz_minus in the odd one), the others in both
    solved = []
    dense_eigh = linalg.eigh
    monkeypatch.setattr(linalg, "eigh", lambda m: solved.append(len(m)) or dense_eigh(m))
    times = np.linspace(0.0, 3.0, 41)
    states = trajectory(spec, init, times).states
    psi0 = initial_state(spec, init)
    oracle = evolve_on_grid(dense_eigh(build_total(spec).matrix), psi0, times)
    assert np.max(np.abs(states - oracle)) <= 1e-12
    even, odd = parity_sectors(spec.dim)
    empty = {"ghz_plus": [odd], "ghz_minus": [even]}.get(init.charger_kind, [])
    assert solved == [spec.dim // 2] * (2 - len(empty))
    for idx in empty:
        assert not psi0[idx].any() and not states[:, idx].any()
