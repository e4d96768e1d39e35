import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import numpy_figures

from sunburst_battery import (
    InitialStateSpec,
    ModelSpec,
    battery_energies,
    build_total,
    charging_power,
    compose,
    ergotropy_populations,
    evolve_on_grid,
    ghz_minus,
    ghz_plus,
    initial_state,
    merit_series,
    parity_sectors,
    random_charger,
    reduce_to_battery,
    stored_energy,
    trajectory,
    xbasis_product_state,
)
from sunburst_battery import dynamics, linalg
from sunburst_battery.dynamics import CHARGER_KINDS, battery_ground


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


def test_trajectory_refuses_a_grid_whose_reduced_states_cannot_fit_in_memory():
    # the two parity blocks of an n = 8 reduced state on one sector take
    # 16 * 2 * 128**2 bytes = 512 KiB per grid point: a short window with
    # one point more than physical memory holds is refused before any
    # vector is allocated, though the expansion itself is tiny
    spec = ModelSpec(8, 8, d=1)
    available = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    times = np.linspace(0.0, 0.01, available // (8 << 16) + 1)
    with pytest.raises(ValueError, match="physical memory"):
        trajectory(spec, InitialStateSpec(), times)


def test_trajectory_refuses_a_run_whose_vectors_and_state_buffers_cannot_fit(monkeypatch):
    # a random charger at (10,2) holds K = 63 complex vectors of dim 4096
    # as two real operands and the two 8-row real buffers state_blocks forms
    # their states in, 5.3 MB at the tracemalloc peak of the whole run once
    # a small run has made the one-time allocations of the first call (6.2
    # MB with them).  The check used to count ceil(z) = 31 vectors
    # and the reduced states, 2.9 MB.  Now the run fails before any vector
    # is allocated with half the peak as physical memory (refused on
    # ceil(z) vectors, their buffers and the matrix-free Hamiltonian,
    # 3.55 MB) and with 0.9 of it (refused on the exact K, 5.65 MB), and
    # runs with 1.1 times it: the count is close
    spec, init = ModelSpec(10, 2), InitialStateSpec("random", seed=3)
    times = np.linspace(0.0, 2.0, 2000)
    merit_series(trajectory(ModelSpec(4, 1), init, times))
    tracemalloc.start()
    try:
        merit_series(trajectory(spec, init, times))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    page, sysconf = os.sysconf("SC_PAGE_SIZE"), os.sysconf
    matvecs, total_matvec = [], dynamics.total_matvec

    def counted(*args):
        matvec, bound = total_matvec(*args)
        return lambda v: matvecs.append(1) or matvec(v), bound

    def physical(memory):
        monkeypatch.setattr(os, "sysconf", lambda key: int(memory) // page
                            if key == "SC_PHYS_PAGES" else sysconf(key))

    monkeypatch.setattr(dynamics, "total_matvec", counted)
    for share, vectors in ((0.5, 31), (0.9, 63)):
        physical(share * peak)
        with pytest.raises(ValueError, match=rf"^Chebyshev expansion at z = \S+ needs \S+ "
                                             rf"coefficient terms per point and at least "
                                             rf"{vectors} vectors: \S+ bytes, more than the "
                                             rf"\S+ bytes of physical memory$"):
            trajectory(spec, init, times)
    assert matvecs == []
    physical(1.1 * peak)
    assert trajectory(spec, init, times).vectors.shape == (2, 63, 4096)


@pytest.mark.parametrize("spec, init", [
    (ModelSpec(12, 2), InitialStateSpec("random", seed=3)),
    (ModelSpec(12, 3), InitialStateSpec()),
], ids=["random-L12n2", "cat-L12n3"])
def test_the_expansion_is_held_once(spec, init):
    # complex vectors on the full space and real ones on a sector: the K
    # vectors are the only array of their size, so forming and reducing
    # the node states on the 2000-point grid peaks at 1.19 and 1.34 times
    # their bytes; a second copy of the operands, or all M ~ K node states
    # formed at once, would each take it past 2
    times = np.linspace(0.0, 2.0, 2000)
    tracemalloc.start()
    try:
        traj = trajectory(spec, init, times)
        merit_series(traj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.4 * traj.vectors.nbytes, peak / traj.vectors.nbytes


def test_the_memory_count_covers_the_whole_run(monkeypatch):
    # what a (13,1) random run counts up front (the K vectors and their
    # state buffers, the reduced states, and total_matvec's L + n gather
    # indices and diagonal) is at least the tracemalloc peak of forming and
    # evaluating it, 21.56 MB against 20.77 MB; without the Hamiltonian's
    # 1.97 MB the count was 20.0 MB.  A small run first makes the one-time
    # allocations of the first call, which are no part of the run
    merit_series(trajectory(ModelSpec(4, 1), InitialStateSpec("random", seed=3),
                            np.linspace(0.0, 2.0, 2000)))
    counted, refuse = [], linalg._refuse_beyond_memory

    def spy(z_max, half, needed, vectors=0):
        counted.append(needed)
        return refuse(z_max, half, needed, vectors)

    monkeypatch.setattr(linalg, "_refuse_beyond_memory", spy)
    spec, init = ModelSpec(13, 1), InitialStateSpec("random", seed=3)
    tracemalloc.start()
    try:
        merit_series(trajectory(spec, init, np.linspace(0.0, 2.0, 2000)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counted[-1] >= peak, (counted[-1], peak)


def test_trajectory_norm_preservation():
    spec = ModelSpec(4, 2, h=0.2)
    traj = trajectory(spec, InitialStateSpec("random", seed=8), np.linspace(0, 5, 101))
    norms = np.linalg.norm(traj.states, axis=1)
    assert np.max(np.abs(norms - 1.0)) <= 1e-9


def test_global_phase_leaves_observables_unchanged():
    spec = ModelSpec(3, 1, h=0.1)
    decomp = linalg.eigh(build_total(spec))
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
        assert abs(ergotropy_populations(rho_a, levels)
                   - ergotropy_populations(rho_b, levels)) <= 1e-12


def test_charger_eigenstates_match_cat_state_observables():
    # at near-zero transverse field every x-product eigenstate charges the
    # battery exactly like the cat state (population convention)
    spec = ModelSpec(5, 1, h=1e-3, delta=0.5, kappa=2.0)
    times = np.linspace(0.0, 2.0, 60)
    levels = battery_energies(spec.n, spec.delta)

    def curves(init):
        traj = trajectory(spec, init, times)
        stored, work = [], []
        for psi in traj.states:
            rho = reduce_to_battery(psi, spec.L, spec.n)
            stored.append(stored_energy(rho, levels))
            work.append(ergotropy_populations(rho, levels))
        return np.array(stored), np.array(work)

    ref_stored, ref_work = curves(InitialStateSpec())
    for pattern in (0, 3, 0b10110):
        got_stored, got_work = curves(InitialStateSpec("eigenstate", index=pattern))
        assert np.max(np.abs(got_stored - ref_stored)) <= 1e-3
        assert np.max(np.abs(got_work - ref_work)) <= 1e-3


def test_full_scale_excited_population_at_charging_time():
    # |B(T)|^2 = 16/16.25 at the first stored-energy peak; h = 0.1 leaves
    # percent-level corrections, h = 1e-3 leaves none at this tolerance
    t_charge = np.pi / np.sqrt(16.25)
    for h, tol in ((0.1, 0.02), (1e-3, 1e-3)):
        spec = ModelSpec(11, 1, h=h)
        traj = trajectory(spec, InitialStateSpec(), np.array([t_charge]))
        rho = reduce_to_battery(traj.states[0], spec.L, spec.n)
        population = float(np.real(rho[1, 1]))
        assert abs(population - 16.0 / 16.25) <= tol


@pytest.mark.parametrize("spec, t_end", [
    (ModelSpec(6, 0, h=0.3), 3.0),
    (ModelSpec(5, 1, h=0.2, kappa=1.3), 3.0),
    (ModelSpec(7, 1, h=0.1), 0.5),
    (ModelSpec(6, 2, d=2, h=0.1), 3.0),
    (ModelSpec(4, 4, d=1, h=0.4, delta=0.7, kappa=0.9), 3.0),
], ids=["L6n0", "L5n1", "L7n1-short", "L6n2d2", "L4n4"])
@pytest.mark.parametrize("init", [
    InitialStateSpec(),
    InitialStateSpec("ghz_minus"),
    InitialStateSpec("eigenstate", index=5),
    InitialStateSpec("random", seed=11),
], ids=lambda init: init.charger_kind)
def test_sector_trajectory_matches_dense_oracle(spec, t_end, init, monkeypatch):
    # the matrix-free Chebyshev path against dense full-space ED; it solves
    # nothing.  A cat charger is expanded on its one parity sector (vectors
    # of half the length) and its empty sector (the odd one for ghz_plus,
    # the even one for ghz_minus) stays exactly zero; an x-product or random
    # charger is expanded on the full space.  Either way every merit column
    # follows the reduced oracle states, interpolated from the Chebyshev
    # nodes of the window: fewer than the 41 grid points for the short
    # (7, 1) window, more for every other
    solved = []
    dense_eigh = linalg.eigh
    monkeypatch.setattr(linalg, "eigh", lambda m: solved.append(len(m)) or dense_eigh(m))
    times = np.linspace(0.0, t_end, 41)
    traj = trajectory(spec, init, times)
    cat = init.charger_kind.startswith("ghz")
    parts = 2 if init.charger_kind == "random" else 1  # complex vectors: two real operands
    assert traj.vectors.shape == (parts, traj.coefficients.shape[1],
                                  spec.dim // 2 if cat else spec.dim)
    states = traj.states
    psi0 = initial_state(spec, init)
    oracle = evolve_on_grid(dense_eigh(build_total(spec)), psi0, times)
    assert np.max(np.abs(states - oracle)) <= 1e-12
    assert solved == []
    even, odd = parity_sectors(spec.dim)
    for idx in {"ghz_plus": [odd], "ghz_minus": [even]}.get(init.charger_kind, []):
        assert not psi0[idx].any() and not states[:, idx].any()
    assert_merit_columns_match_oracle(merit_series(traj), oracle, spec)


def assert_merit_columns_match_oracle(series, oracle, spec):
    """Every merit column of ``series`` within 1e-12 of reducing the dense
    oracle states, shape (T, dim), and evaluating them."""
    expected = numpy_figures(reduce_to_battery(oracle, spec.L, spec.n),
                             battery_energies(spec.n, spec.delta))
    expected["power"] = charging_power(expected["stored_energy"], series.t)
    for name, column in expected.items():
        assert np.max(np.abs(getattr(series, name) - column)) <= 1e-12, name


def interpolated_cases():
    """(spec, init, times) with more grid points than Chebyshev nodes: n = 0..4
    under every charger kind on [0, 3], a window that starts at t = 0.7, and
    the window of fig3 at kappa = 0.25, one period 2 pi / omega, at z = bound
    (t_last - t_first) ~ 108.  The first nonzero grid time stays >= ~0.005:
    P = dE / t turns the ~1e-15 roundoff of dE into ~1e-12 at t = 0.001."""
    specs = [ModelSpec(6, 0, h=0.3), ModelSpec(5, 1, h=0.2, kappa=1.3),
             ModelSpec(6, 2, d=2, h=0.1), ModelSpec(5, 3, d=1, h=0.2, kappa=0.8),
             ModelSpec(4, 4, d=1, h=0.4, delta=0.7, kappa=0.9)]
    for spec in specs:
        for init in (InitialStateSpec(), InitialStateSpec("ghz_minus"),
                     InitialStateSpec("eigenstate", index=5),
                     InitialStateSpec("random", seed=11)):
            yield pytest.param(spec, init, np.linspace(0.0, 3.0, 400),
                               id=f"L{spec.L}n{spec.n}-{init.charger_kind}")
    yield pytest.param(ModelSpec(5, 1, h=0.2, kappa=1.3), InitialStateSpec("random", seed=4),
                       np.linspace(0.7, 3.7, 400), id="late-start")
    slow = ModelSpec(9, 1, h=0.3, kappa=0.25)
    yield pytest.param(slow, InitialStateSpec(),
                       np.linspace(0.0, 2 * np.pi / np.hypot(slow.delta, 2 * slow.kappa), 1500),
                       id="fig3-kappa0.25-period")


@pytest.mark.parametrize("spec, init, times", interpolated_cases())
def test_interpolated_trajectory_matches_dense_oracle(spec, init, times):
    # the states are expanded at the Chebyshev nodes of the window only, and
    # their reduced states interpolated onto the grid: every merit column
    # still follows dense full-space ED to 1e-12, and the states the
    # trajectory reports are exact at the grid times
    traj = trajectory(spec, init, times)
    assert traj.nodes.size < times.size
    oracle = evolve_on_grid(linalg.eigh(build_total(spec)), initial_state(spec, init), times)
    assert np.max(np.abs(traj.states - oracle)) <= 1e-12
    assert_merit_columns_match_oracle(merit_series(traj), oracle, spec)


@pytest.mark.parametrize("spec, init", [
    (ModelSpec(4, 4, d=1, h=0.4, delta=0.7, kappa=0.9), InitialStateSpec("random", seed=11)),
    (ModelSpec(7, 1, h=0.1, kappa=0.25), InitialStateSpec()),
], ids=["L4n4-random", "L7n1-cat"])
def test_long_window_matches_dense_oracle(spec, init):
    # t up to 12 needs ~180 Chebyshev terms here (fig3 windows reach ~9 at
    # L+n = 12): the recurrence must stay accurate over the whole sequence
    times = np.linspace(0.0, 12.0, 97)
    states = trajectory(spec, init, times).states
    oracle = evolve_on_grid(linalg.eigh(build_total(spec)), initial_state(spec, init), times)
    assert np.max(np.abs(states - oracle)) <= 1e-12


@st.composite
def small_runs(draw, kind):
    """A random model with L + n <= 7, a ``kind`` charger preparation and an
    increasing grid on [0, 5]."""
    n = draw(st.integers(0, 3))
    L = draw(st.integers(max(n, 2), 7 - n))  # n d <= L: the batteries must fit
    d = draw(st.integers(1, L // n)) if n else None
    spec = ModelSpec(L, n, d=d, h=draw(st.floats(0.0, 1.0)), delta=draw(st.floats(0.0, 1.0)),
                     kappa=draw(st.floats(0.0, 2.0)))
    init = InitialStateSpec(
        kind,
        index=draw(st.integers(0, (1 << L) - 1)) if kind == "eigenstate" else None,
        seed=draw(st.integers(0, 2 ** 32 - 1)) if kind == "random" else None,
    )
    times = np.sort(draw(st.lists(st.floats(0.0, 5.0), min_size=1, max_size=12, unique=True)))
    return spec, init, times


@pytest.mark.parametrize("kind", CHARGER_KINDS)
def test_trajectory_matches_dense_oracle_on_random_runs(kind):
    # ten derandomized draws per charger kind, forty in all
    @settings(max_examples=10, derandomize=True, deadline=None)
    @given(small_runs(kind))
    def check(run):
        spec, init, times = run
        states = trajectory(spec, init, times).states
        oracle = evolve_on_grid(linalg.eigh(build_total(spec)),
                                initial_state(spec, init), times)
        assert np.max(np.abs(states - oracle)) <= 1e-12

    check()
