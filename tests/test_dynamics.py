import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import numpy_figures, report_physical_memory

from sunburst_battery import dynamics, linalg
from sunburst_battery.cli import main
from sunburst_battery.config import (
    CHARGER_KINDS,
    ExperimentConfig,
    InitialStateSpec,
    ModelSpec,
    physical_memory,
)
from sunburst_battery.dynamics import charger_state, trajectory
from sunburst_battery.experiments import run_series
from sunburst_battery.model import battery_energies
from sunburst_battery.observables import (
    charging_power,
    ergotropy,
    ergotropy_populations,
    merit_series,
    reduce_to_battery,
    reduced_states,
    stored_energy,
)
from sunburst_battery.validate import (build_total, eigh, evolve_on_grid, initial_state,
                                       trajectory_states)


GHZ_PLUS, GHZ_MINUS = InitialStateSpec("ghz_plus"), InitialStateSpec("ghz_minus")
RANDOM = InitialStateSpec("random")


def test_ghz_single_site():
    assert np.allclose(charger_state(GHZ_PLUS, 1), [1.0, 0.0])
    assert np.allclose(charger_state(GHZ_MINUS, 1), [0.0, 1.0])
    # no ring: the one-entry cat would not be normalized
    with pytest.raises(ValueError, match="L must be >= 1"):
        charger_state(GHZ_PLUS, 0)


def test_ghz_two_sites():
    state = charger_state(GHZ_PLUS, 2)
    # weight only on even bit strings 00 and 11
    assert np.allclose(state, [2 ** -0.5, 0.0, 0.0, 2 ** -0.5])
    assert np.isclose(np.linalg.norm(state), 1.0)
    sxsx = np.kron([[0, 1], [1, 0]], [[0, 1], [1, 0]]).astype(float)
    assert np.isclose(np.real(state.conj() @ sxsx @ state), 1.0)
    odd = charger_state(GHZ_MINUS, 2)
    assert np.allclose(np.abs(odd), [0.0, 2 ** -0.5, 2 ** -0.5, 0.0])
    assert np.isclose(np.vdot(state, odd), 0.0)


@pytest.mark.parametrize("L", [1, 2, 3, 6])
def test_ghz_weight_structure(L):
    for state, parity in ((charger_state(GHZ_PLUS, L), 0), (charger_state(GHZ_MINUS, L), 1)):
        assert np.isclose(np.linalg.norm(state), 1.0)
        for s, amp in enumerate(state):
            if bin(s).count("1") % 2 == parity:
                assert np.isclose(amp, 2 ** ((1 - L) / 2))
            else:
                assert amp == 0.0


def test_xbasis_product_state():
    plus = charger_state(InitialStateSpec("eigenstate", 0), 2)
    assert np.allclose(plus, 0.5)
    # pattern 0b10 puts site 1 in |->
    mixed = charger_state(InitialStateSpec("eigenstate", 0b10), 2)
    assert np.allclose(mixed, [0.5, 0.5, -0.5, -0.5])
    # a pattern beyond the ring is refused by the run, naming its system
    with pytest.raises(ValueError, match=r"^initial\.index 4 outside \[0, 2\*\*2\) for the "
                                         r"\(L, n\) = \(2, 1\) system$"):
        trajectory(ModelSpec(2, 1), InitialStateSpec("eigenstate", 4), [0.0, 1.0])


def test_random_charger_determinism_and_norm():
    assert np.array_equal(charger_state(RANDOM, 6, 123), charger_state(RANDOM, 6, 123))
    for seed in range(100):
        assert abs(np.linalg.norm(charger_state(RANDOM, 4, seed)) - 1.0) <= 1e-12
    # distinct seeds give nearly orthogonal states at this dimension
    overlap = abs(np.vdot(charger_state(RANDOM, 6, 1), charger_state(RANDOM, 6, 2))) ** 2
    assert overlap < 0.5


@pytest.mark.parametrize("n", [0, 1, 2, 4])
@pytest.mark.parametrize("kind", CHARGER_KINDS)
def test_trajectory_starts_on_its_layout_from_the_kronecker_vector(kind, n):
    # the start vector is written onto the run's layout directly; it must be
    # the charger (x) |0...0> Kronecker vector's entries there, exactly, and
    # the layout must be the parity sector that vector's support occupies
    # (the full space when it occupies both)
    spec = ModelSpec(8, n)
    init = InitialStateSpec(kind, index=3 if kind == "eigenstate" else None)
    ground = np.zeros(1 << n)
    ground[0] = 1.0
    psi0 = np.kron(charger_state(init, spec.L, 5), ground)
    traj = trajectory(spec, init, np.linspace(0.0, 1.0, 3), 5)
    basis = traj.layout.basis
    start = traj.vectors[0, 0] + (1j * traj.vectors[1, 0] if len(traj.vectors) == 2 else 0)
    assert np.array_equal(start, psi0[basis])
    parity = np.array([bin(i).count("1") % 2 for i in range(spec.dim)])
    occupied = np.unique(parity[np.flatnonzero(psi0)])
    assert occupied.size == (1 if kind.startswith("ghz") else 2)
    assert np.array_equal(np.sort(basis), np.flatnonzero(np.isin(parity, occupied)))


def test_initial_state_spec_validation():
    with pytest.raises(ValueError, match="unknown charger kind"):
        InitialStateSpec("bell")
    with pytest.raises(ValueError, match="pattern index"):
        InitialStateSpec("eigenstate")
    with pytest.raises(ValueError, match="only valid"):
        InitialStateSpec("ghz_plus", index=1)
    # a random charger is drawn from the run's seed, which it cannot run without
    with pytest.raises(ValueError, match="no seed set"):
        trajectory(ModelSpec(3, 1), InitialStateSpec("random"), [0.0])
    with pytest.raises(ValueError, match="battery_kind"):
        ExperimentConfig.from_dict({"initial": {"charger_kind": "ghz_plus",
                                                "battery_kind": "excited"}})


def test_trajectory_validation_and_identity_grid():
    spec = ModelSpec(3, 1, h=0.1)
    init = InitialStateSpec()
    traj = trajectory(spec, init, [0.0])
    assert np.max(np.abs(trajectory_states(traj)[0] - initial_state(spec, init))) <= 1e-12
    with pytest.raises(ValueError, match="strictly increasing"):
        trajectory(spec, init, [0.0, 0.0])
    with pytest.raises(ValueError, match="t >= 0"):
        trajectory(spec, init, [-0.5, 0.5])
    # an empty, 2-D or non-finite grid is refused as such, not as unordered
    for grid in ([], [[0.0, 1.0]], [0.0, np.nan], [0.0, np.inf]):
        with pytest.raises(ValueError, match="^time grid must be a non-empty 1-D array of "
                                             "finite times$"):
            trajectory(ModelSpec(4, 1), init, grid)


def test_trajectory_refuses_a_grid_whose_reduced_states_cannot_fit_in_memory():
    # the two parity blocks of an n = 8 reduced state on one sector take
    # 16 * 2 * 128**2 bytes = 512 KiB per grid point: a short window with
    # one point more than physical memory holds is refused before any
    # vector is allocated, though the expansion itself is tiny
    spec = ModelSpec(8, 8, d=1)
    times = np.linspace(0.0, 0.01, physical_memory() // (8 << 16) + 1)
    with pytest.raises(ValueError, match="physical memory"):
        trajectory(spec, InitialStateSpec(), times)


def test_trajectory_refuses_a_run_whose_vectors_and_state_buffers_cannot_fit(monkeypatch):
    # a random charger at (10,2) holds K = 63 complex vectors of dim 4096
    # as two real operands and the two 8-row real buffers state_blocks forms
    # their states in, 5.3 MB at the tracemalloc peak of the whole run once
    # a small run has made the one-time allocations of the first call (6.2
    # MB with them).  The run fails before any vector is allocated with
    # half and with 0.9 of the peak as physical memory, refused on the
    # exact K, its buffers, the reduced states and the matrix-free
    # Hamiltonian (5.62 MB), and runs with 1.1 times it: the count is close
    spec, init = ModelSpec(10, 2), InitialStateSpec("random")
    times = np.linspace(0.0, 2.0, 2000)
    run_series(ModelSpec(4, 1), init, times, 3)
    tracemalloc.start()
    try:
        run_series(spec, init, times, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    matvecs, total_matvec = [], dynamics.total_matvec

    def counted(*args):
        matvec, bound = total_matvec(*args)
        return lambda v: matvecs.append(1) or matvec(v), bound

    monkeypatch.setattr(dynamics, "total_matvec", counted)
    for share in (0.5, 0.9):
        report_physical_memory(monkeypatch, share * peak)
        with pytest.raises(ValueError, match=r"^Chebyshev expansion at z = \S+ needs 63 "
                                             r"coefficient terms per point and 63 vectors: "
                                             r"\S+ bytes, more than the \S+ bytes of "
                                             r"physical memory$"):
            trajectory(spec, init, times, 3)
    assert matvecs == []
    report_physical_memory(monkeypatch, 1.1 * peak)
    assert trajectory(spec, init, times, 3).vectors.shape == (2, 63, 4096)


def test_a_model_too_big_for_memory_is_refused_before_its_state_is_built(tmp_path, monkeypatch,
                                                                         capsys):
    # with 1 MiB of physical memory, (16,2) cannot hold its state and
    # Hamiltonian even on one parity sector, 8 (L + n + 3) bytes on each
    # of 2**17 entries: it is refused before the initial state, the
    # parity sectors, the layout or the Hamiltonian's gathers are built
    # (which peaked at 50 MB before the expansion's own check), and the
    # CLI prints that as one error line
    report_physical_memory(monkeypatch, 1 << 20)
    message = (r"a run at \(L, n\) = \(16, 2\) holds its state and Hamiltonian on 2\*\*17 "
               r"entries or more, 168 bytes each: 2\.2e\+07 bytes, more than the \S+ bytes of "
               r"physical memory")
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"^{message}$"):
            trajectory(ModelSpec(16, 2), InitialStateSpec("random"),
                       np.linspace(0.0, 2.0, 2000), 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6, peak
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"model": {"L": 16, "n": 2}, "output_path": str(tmp_path / "x")}))
    assert main(["fig4", "--config", str(config)]) == 2
    captured = capsys.readouterr()
    assert re.fullmatch(f"error: {message}\n", captured.err), captured.err
    assert captured.out == "" and not (tmp_path / "x").exists()


def test_a_window_too_long_for_its_node_table_is_refused_before_k_is_counted(monkeypatch):
    # at z = 6.65e6 counting K alone would take ~7e6 recurrence steps; the
    # node table, more than z rows of more than z terms, is refused first,
    # before the charger or the Hamiltonian is built; a window 1e4 times
    # shorter, whose K > z, is counted and run
    def fail(name):
        def call(*args):
            raise AssertionError(f"{name} called before the window was checked")
        return call

    for name in ("chebyshev_coefficients", "total_matvec", "charger_state"):
        monkeypatch.setattr(dynamics, name, fail(name))
    with pytest.raises(ValueError, match=r"^Chebyshev expansion at z = 6\.65e\+06 needs "
                                         r"6\.65e\+06 coefficient terms per point: 7\.08e\+14 "
                                         r"bytes, more than the \S+ bytes of physical memory$"):
        trajectory(ModelSpec(4, 1), InitialStateSpec(), [0.0, 1e6])
    monkeypatch.undo()
    assert trajectory(ModelSpec(4, 1), InitialStateSpec(), [0.0, 100.0]).nodes.size > 665


@pytest.mark.parametrize("spec, init", [
    (ModelSpec(12, 2), InitialStateSpec("random")),
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
        traj = trajectory(spec, init, times, 3)
        merit_series(traj, reduced_states(traj))
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
    run_series(ModelSpec(4, 1), InitialStateSpec("random"), np.linspace(0.0, 2.0, 2000), 3)
    counted, refuse = [], linalg._refuse_beyond_memory

    def spy(z_max, half, needed, vectors=0):
        counted.append(needed)
        return refuse(z_max, half, needed, vectors)

    monkeypatch.setattr(linalg, "_refuse_beyond_memory", spy)
    spec, init = ModelSpec(13, 1), InitialStateSpec("random")
    tracemalloc.start()
    try:
        run_series(spec, init, np.linspace(0.0, 2.0, 2000), 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counted[-1] >= peak, (counted[-1], peak)


def test_trajectory_norm_preservation():
    spec = ModelSpec(4, 2, h=0.2)
    traj = trajectory(spec, InitialStateSpec("random"), np.linspace(0, 5, 101), 8)
    norms = np.linalg.norm(trajectory_states(traj), axis=1)
    assert np.max(np.abs(norms - 1.0)) <= 1e-9


def test_global_phase_leaves_observables_unchanged():
    spec = ModelSpec(3, 1, h=0.1)
    decomp = eigh(build_total(spec))
    psi = initial_state(spec, InitialStateSpec())
    times = np.linspace(0, 2, 7)
    levels = battery_energies(spec.n, spec.delta)
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
        for psi in trajectory_states(traj):
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
        rho = reduce_to_battery(trajectory_states(traj)[0], spec.L, spec.n)
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
    InitialStateSpec("random"),
], ids=lambda init: init.charger_kind)
def test_sector_trajectory_matches_dense_oracle(spec, t_end, init):
    # the matrix-free Chebyshev path against dense full-space ED; it solves
    # nothing.  A cat charger is expanded on its one parity sector (vectors
    # of half the length) and its empty sector (the odd one for ghz_plus,
    # the even one for ghz_minus) stays exactly zero; an x-product or random
    # charger is expanded on the full space.  Either way every merit column
    # follows the reduced oracle states, interpolated from the Chebyshev
    # nodes of the window: fewer than the 41 grid points for the short
    # (7, 1) window, more for every other
    times = np.linspace(0.0, t_end, 41)
    traj = trajectory(spec, init, times, 11)
    cat = init.charger_kind.startswith("ghz")
    parts = 2 if init.charger_kind == "random" else 1  # complex vectors: two real operands
    assert traj.vectors.shape == (parts, traj.coefficients.shape[1],
                                  spec.dim // 2 if cat else spec.dim)
    states = trajectory_states(traj)
    psi0 = initial_state(spec, init, 11)
    oracle = evolve_on_grid(eigh(build_total(spec)), psi0, times)
    assert np.max(np.abs(states - oracle)) <= 1e-12
    odd = np.array([bin(i).count("1") % 2 for i in range(spec.dim)], dtype=bool)
    for idx in {"ghz_plus": [odd], "ghz_minus": [~odd]}.get(init.charger_kind, []):
        assert not psi0[idx].any() and not states[:, idx].any()
    assert_merit_columns_match_oracle(traj, oracle)


def assert_merit_columns_match_oracle(traj, oracle, power=True):
    """Every merit column of ``traj``, and the spectral ergotropy of its
    reduced states, within 1e-12 of reducing the dense oracle states, shape
    (T, dim), and evaluating them.  With ``power`` False the power is
    checked through the stored energy instead: it must be charging_power
    of the stored-energy column."""
    spec, cells = traj.spec, reduced_states(traj)
    levels = battery_energies(spec.n, spec.delta)
    expected = numpy_figures(reduce_to_battery(oracle, spec.L, spec.n), levels)
    columns = merit_series(traj, cells)._asdict()
    columns["ergotropy_spectral"] = ergotropy(cells, levels, traj.layout)
    if power:
        expected["power"] = charging_power(expected["stored_energy"], traj.times)
    else:
        assert np.array_equal(columns["power"], charging_power(columns["stored_energy"], traj.times))
    for name, column in expected.items():
        assert np.max(np.abs(columns[name] - column)) <= 1e-12, name


def interpolated_cases():
    """(spec, init, times, seed) with more grid points than Chebyshev nodes: n = 0..4
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
                     InitialStateSpec("random")):
            yield pytest.param(spec, init, np.linspace(0.0, 3.0, 400), 11,
                               id=f"L{spec.L}n{spec.n}-{init.charger_kind}")
    yield pytest.param(ModelSpec(5, 1, h=0.2, kappa=1.3), InitialStateSpec("random"),
                       np.linspace(0.7, 3.7, 400), 4, id="late-start")
    slow = ModelSpec(9, 1, h=0.3, kappa=0.25)
    yield pytest.param(slow, InitialStateSpec(),
                       np.linspace(0.0, 2 * np.pi / np.hypot(slow.delta, 2 * slow.kappa), 1500),
                       None, id="fig3-kappa0.25-period")


@pytest.mark.parametrize("spec, init, times, seed", interpolated_cases())
def test_interpolated_trajectory_matches_dense_oracle(spec, init, times, seed):
    # the states are expanded at the Chebyshev nodes of the window only, and
    # their reduced states interpolated onto the grid: every merit column
    # still follows dense full-space ED to 1e-12, and the states the
    # trajectory reports are exact at the grid times
    traj = trajectory(spec, init, times, seed)
    assert traj.nodes.size < times.size
    oracle = evolve_on_grid(eigh(build_total(spec)), initial_state(spec, init, seed), times)
    assert np.max(np.abs(trajectory_states(traj) - oracle)) <= 1e-12
    assert_merit_columns_match_oracle(traj, oracle)


@pytest.mark.parametrize("spec, init", [
    (ModelSpec(4, 4, d=1, h=0.4, delta=0.7, kappa=0.9), InitialStateSpec("random")),
    (ModelSpec(7, 1, h=0.1, kappa=0.25), InitialStateSpec()),
], ids=["L4n4-random", "L7n1-cat"])
def test_long_window_matches_dense_oracle(spec, init):
    # t up to 12 needs ~180 Chebyshev terms here (fig3 windows reach ~9 at
    # L+n = 12): the recurrence must stay accurate over the whole sequence
    times = np.linspace(0.0, 12.0, 97)
    states = trajectory_states(trajectory(spec, init, times, 11))
    oracle = evolve_on_grid(eigh(build_total(spec)), initial_state(spec, init, 11), times)
    assert np.max(np.abs(states - oracle)) <= 1e-12


@pytest.mark.parametrize("times", [[0.0, 1e-310, 1.0], [0.0, 1e-307, 1000.0]],
                         ids=["1e-310", "1e-307"])
def test_time_a_subnormal_gap_from_a_node_matches_dense_oracle(times):
    # the second grid time sits a subnormal scaled gap from the node t = 0
    # without equal to it: its barycentric weight would overflow to inf and
    # its row normalize to nan, so it takes that node's values instead.
    # Every merit column follows the oracle; the states are compared at the
    # two times by the node, since at t = 1000 (z ~ 7e3) the phases of both
    # paths round by ~1e-16 z
    spec, init, times = ModelSpec(4, 1), InitialStateSpec(), np.array(times)
    traj = trajectory(spec, init, times)
    oracle = evolve_on_grid(eigh(build_total(spec)), initial_state(spec, init), times)
    assert np.max(np.abs(trajectory_states(traj)[:2] - oracle[:2])) <= 1e-12
    assert_merit_columns_match_oracle(traj, oracle, power=False)


@st.composite
def small_runs(draw, kind, grids=st.lists(st.floats(0.0, 5.0), min_size=1, max_size=12,
                                          unique=True).map(np.sort)):
    """A random model with L + n <= 7, a ``kind`` charger preparation, an
    increasing grid drawn from ``grids``, by default on [0, 5], and the
    run seed of a random charger (None for another kind)."""
    n = draw(st.integers(0, 3))
    L = draw(st.integers(max(n, 2), 7 - n))  # n d <= L: the batteries must fit
    d = draw(st.integers(1, L // n)) if n else None
    spec = ModelSpec(L, n, d=d, h=draw(st.floats(0.0, 1.0)), delta=draw(st.floats(0.0, 1.0)),
                     kappa=draw(st.floats(0.0, 2.0)))
    init = InitialStateSpec(
        kind, index=draw(st.integers(0, (1 << L) - 1)) if kind == "eigenstate" else None)
    seed = draw(st.integers(0, 2 ** 32 - 1)) if kind == "random" else None
    return spec, init, draw(grids), seed


@pytest.mark.parametrize("kind", CHARGER_KINDS)
def test_trajectory_matches_dense_oracle_on_random_runs(kind):
    # ten derandomized draws per charger kind, forty in all
    @settings(max_examples=10, derandomize=True, deadline=None)
    @given(small_runs(kind))
    def check(run):
        spec, init, times, seed = run
        states = trajectory_states(trajectory(spec, init, times, seed))
        oracle = evolve_on_grid(eigh(build_total(spec)),
                                initial_state(spec, init, seed), times)
        assert np.max(np.abs(states - oracle)) <= 1e-12

    check()


@st.composite
def grids(draw):
    """A uniform or random strictly increasing grid of 1 to 399 points on a
    window 0.01 to 8 long that starts between 0 and 3."""
    start, length = draw(st.floats(0.0, 3.0)), draw(st.floats(0.01, 8.0))
    count = draw(st.integers(1, 399))
    if draw(st.booleans()):
        return np.linspace(start, start + length, count)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return np.unique(rng.uniform(start, start + length, count))


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(st.sampled_from(CHARGER_KINDS).flatmap(lambda kind: small_runs(kind, grids())))
def test_production_path_matches_dense_oracle_on_random_runs(run):
    # every column of the path each command takes (trajectory, then
    # reduced_states, then merit_series, and ergotropy for the spectral
    # value) follows the dense full-space ED oracle, whatever the model,
    # charger, window and grid; the power is P = dE / t, whose roundoff
    # grows without bound as t -> 0, so it is checked through the stored
    # energy
    spec, init, times, seed = run
    oracle = evolve_on_grid(eigh(build_total(spec)), initial_state(spec, init, seed), times)
    assert_merit_columns_match_oracle(trajectory(spec, init, times, seed), oracle, power=False)
