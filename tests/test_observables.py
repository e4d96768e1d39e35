import re
import tracemalloc

import numpy as np
import pytest

from conftest import numpy_figures

from sunburst_battery import dynamics, observables
from sunburst_battery.analytic import AnalyticParams
from sunburst_battery.config import InitialStateSpec, ModelSpec
from sunburst_battery.dynamics import Trajectory, charger_state, random_state, trajectory
from sunburst_battery.experiments import run_series
from sunburst_battery.linalg import NODE_BLOCK, chebyshev_nodes
from sunburst_battery.model import battery_energies, sector_layout
from sunburst_battery.observables import (
    WORK_FLOOR,
    charging_power,
    ergotropy,
    ergotropy_populations,
    linear_entropy,
    merit_series,
    reduce_to_battery,
    reduced_states,
    stored_energy,
)
from sunburst_battery.validate import (
    _naive_partial_trace,
    amplitudes,
    trajectory_states,
    unavailable_analytic,
)

OMEGA = np.sqrt(16.25)
T_CHARGE = np.pi / OMEGA


def work_windows(series):
    """(onsets, offsets): the (t_k, t_k+1) grid brackets where the ergotropy
    column switches from at most WORK_FLOOR to above it, and back."""
    working = series.ergotropy > WORK_FLOOR
    switches = np.flatnonzero(working[1:] != working[:-1])
    onsets = [(series.t[k], series.t[k + 1]) for k in switches if working[k + 1]]
    offsets = [(series.t[k], series.t[k + 1]) for k in switches if not working[k + 1]]
    return onsets, offsets


def test_reduce_product_state_is_pure():
    rng = np.random.default_rng(2)
    charger = random_state(rng, 8)
    battery = random_state(rng, 4)
    rho = reduce_to_battery(np.kron(charger, battery), 3, 2)
    assert np.max(np.abs(rho - np.outer(battery, battery.conj()))) <= 1e-12
    assert abs(linear_entropy(rho)) <= 1e-12


def test_reduce_matches_two_branch_structure():
    # state A * ghz_plus (x) |0> + B * ghz_minus (x) |1> reduces to
    # diag(|A|^2, |B|^2): the charger branches are orthogonal
    p = AnalyticParams(0.5, 2.0)
    a, b = amplitudes(p, 0.37)
    L = 4
    psi = (a * np.kron(charger_state(InitialStateSpec("ghz_plus"), L), [1, 0])
           + b * np.kron(charger_state(InitialStateSpec("ghz_minus"), L), [0, 1]))
    rho = reduce_to_battery(np.asarray(psi), L, 1)
    expected = np.diag([abs(a) ** 2, abs(b) ** 2])
    assert np.max(np.abs(rho - expected)) <= 1e-12


def test_reduce_against_naive_oracle():
    rng = np.random.default_rng(4)
    for L, n in ((3, 2), (2, 1), (4, 2), (3, 3), (5, 1)):
        psi = random_state(rng, 1 << (L + n))
        fast = reduce_to_battery(psi, L, n)
        slow = _naive_partial_trace(psi, L, n)
        assert np.max(np.abs(fast - slow)) <= 1e-12
        assert np.max(np.abs(fast - fast.conj().T)) <= 1e-10
        assert abs(np.trace(fast) - 1.0) <= 1e-10
        assert np.linalg.eigvalsh(fast)[0] >= -1e-10


def test_reduce_rejects_bad_input():
    with pytest.raises(ValueError, match="does not match"):
        reduce_to_battery(np.ones(6) / np.sqrt(6), 2, 1)
    with pytest.raises(ValueError, match="not normalized"):
        reduce_to_battery(np.ones(8), 2, 1)
    # the trace gate is 1e-10: a squared norm of 1 + 1e-9 is refused, and
    # one of 1 + 1e-12, far above roundoff, passes
    psi = random_state(np.random.default_rng(3), 32)
    with pytest.raises(ValueError, match="not normalized"):
        reduce_to_battery(psi * np.sqrt(1 + 1e-9), 4, 1)
    rho = reduce_to_battery(psi * np.sqrt(1 + 1e-12), 4, 1)
    assert abs(np.trace(rho).real - (1 + 1e-12)) <= 1e-14


@pytest.mark.parametrize("n, parity", [(2, 1), (0, None), (0, 0)],
                         ids=["sector-n2", "full-n0", "sector-n0"])
def test_reduce_with_a_layout_rejects_a_state_of_another_size(n, parity):
    # a layout's states have its basis.size entries: at n = 0 the full
    # layout and a sector both have labels [[0]], but 2**L and 2**(L-1)
    # rows, so the state of the one is refused by the other, as is any
    # other size
    rng = np.random.default_rng(60 + n)
    spec = ModelSpec(4, n, d=1)
    layout = sector_layout(spec, parity)
    size = layout.basis.size
    rho = reduce_to_battery(random_state(rng, size), spec.L, n, layout)
    assert rho.shape == layout.labels.shape + layout.labels.shape[1:]
    for shape in ((size // 2,), (2 * size,), (size + 1,), (3, size - 1)):
        with pytest.raises(ValueError, match=re.escape(
                f"state of shape {shape} does not match the {size} entries of "
                f"the layout at (L, n) = (4, {n})")):
            reduce_to_battery(np.ones(shape) / np.sqrt(shape[-1]), spec.L, n, layout)


@pytest.mark.parametrize("init", [InitialStateSpec(), InitialStateSpec("random")],
                         ids=["cat", "random"])
def test_gram_and_state_reductions_agree_on_every_entry(init):
    # the (real, imag) form of a state reduces exactly like the complex one,
    # for states of a real vector sequence on one parity sector and of a
    # complex one on the full space
    traj = trajectory(ModelSpec(5, 2, d=2, h=0.3, delta=0.5, kappa=1.5), init,
                      np.linspace(0.0, 1.5, 40), 6)
    states = trajectory_states(traj)
    rho = reduce_to_battery(states, 5, 2)
    assert np.array_equal(reduce_to_battery((states.real, states.imag), 5, 2), rho)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_block_reduction_holds_the_blocks_of_the_full_reduction(n):
    # on a parity sector the full reduced state is zero off the layout's
    # blocks, and reducing the layout's entries gives those blocks as one
    # (B, b, b) stack; the full layout is the one-block stack.  Each
    # figure of merit reads the blocks as it reads the full matrix
    rng = np.random.default_rng(50 + n)
    spec = ModelSpec(4, n, d=1)
    levels = battery_energies(n, 0.5)
    for parity in (0, 1, None):
        layout = sector_layout(spec, parity)
        states = np.zeros((3, spec.dim), dtype=np.complex128)
        for psi in states:
            psi[layout.basis] = random_state(rng, layout.basis.size)
        full = reduce_to_battery(states, spec.L, n)
        cells = reduce_to_battery(states[:, layout.basis], spec.L, n, layout)
        assert cells.shape == (3,) + layout.labels.shape + layout.labels.shape[1:]
        on_blocks = np.zeros(full.shape, dtype=bool)
        for block, labels in enumerate(layout.labels):
            expected = full[:, labels[:, None], labels]
            assert np.max(np.abs(cells[:, block] - expected)) <= 1e-15, (parity, labels)
            on_blocks[:, labels[:, None], labels] = True
        assert not np.any(full[~on_blocks]), parity
        single = reduce_to_battery(states[1, layout.basis], spec.L, n, layout)
        assert np.max(np.abs(single - cells[1])) <= 1e-15, parity
        for figure in (stored_energy, ergotropy, ergotropy_populations):
            on_cells = figure(cells, levels, layout)
            assert np.max(np.abs(on_cells - figure(full, levels))) <= 1e-14, (parity, figure)
        on_cells = linear_entropy(cells, layout)
        assert np.max(np.abs(on_cells - linear_entropy(full))) <= 1e-14, parity


def test_stored_energy_endpoints():
    levels = battery_energies(3, 0.5)
    ground = np.zeros((8, 8)); ground[0, 0] = 1.0
    assert abs(stored_energy(ground, levels)) <= 1e-12
    full = np.zeros((8, 8)); full[7, 7] = 1.0
    assert np.isclose(stored_energy(full, levels), 3 * 0.5)


def test_stored_energy_at_charging_time_value():
    # delta * 4 kappa^2 / omega^2 with delta=0.5, kappa=2
    rho = np.diag([0.25 / 16.25, 16.0 / 16.25])
    assert np.isclose(stored_energy(rho, battery_energies(1, 0.5)),
                      0.49230769230769234, atol=1e-12)


def test_ergotropy_maximally_mixed_is_passive():
    levels = battery_energies(2, 0.5)
    mixed = np.eye(4) / 4
    assert ergotropy(mixed, levels) == 0.0
    assert np.isclose(stored_energy(mixed, levels) + levels.min(), np.mean(levels))


@pytest.mark.parametrize("p", [0.9, 0.6, 0.5, 0.3, 0.05])
def test_single_battery_ergotropy_piecewise(p):
    delta = 0.5
    rho = np.diag([p, 1 - p])
    levels = battery_energies(1, delta)
    expected = delta * (1 - 2 * p) if p < 0.5 else 0.0
    for variant in (ergotropy, ergotropy_populations):
        assert np.isclose(variant(rho, levels), expected, atol=1e-12)


def test_ergotropy_at_charging_time_value():
    rho = np.diag([0.25 / 16.25, 16.0 / 16.25])
    assert np.isclose(ergotropy(rho, battery_energies(1, 0.5)), 0.4846153846153846,
                      atol=1e-12)


def test_passive_state_has_zero_ergotropy():
    rng = np.random.default_rng(6)
    psi = random_state(rng, 32)
    rho = reduce_to_battery(psi, 2, 3)
    levels = battery_energies(3, 0.7)
    # the spectrum descending on the levels ascending
    passive = np.diag(np.linalg.eigvalsh(rho)[::-1][np.argsort(np.argsort(levels))])
    assert ergotropy(passive, levels) <= 1e-10
    # the work is the energy above that of the passive state
    assert np.isclose(ergotropy(rho, levels),
                      stored_energy(rho, levels) - stored_energy(passive, levels))


def test_variants_agree_on_diagonal_states():
    rng = np.random.default_rng(8)
    for _ in range(20):
        weights = rng.dirichlet(np.ones(8))
        rho = np.diag(weights).astype(complex)
        levels = battery_energies(3, 0.5)
        assert np.isclose(ergotropy(rho, levels), ergotropy_populations(rho, levels),
                          atol=1e-10)


def test_spectral_variant_sees_coherence_populations_do_not():
    # equal populations with a coherence: spectral work is positive,
    # population work vanishes.  Spectrum is (0.8, 0.2), so the work is
    # delta * (0.8 - 0.2) / 2.
    delta = 0.5
    rho = np.array([[0.5, 0.3], [0.3, 0.5]], dtype=complex)
    levels = battery_energies(1, delta)
    spectral = ergotropy(rho, levels)
    population = ergotropy_populations(rho, levels)
    assert np.isclose(spectral, delta * 0.3, atol=1e-12)
    assert population == 0.0


def test_negative_eigenvalue_clamp_and_rejection():
    levels = battery_energies(1, 0.5)
    slightly = np.diag([1.0 + 5e-11, -5e-11])
    assert ergotropy(slightly, levels) == 0.0
    with pytest.raises(ValueError, match="negative weight"):
        ergotropy(np.diag([1.001, -0.001]), levels)
    # a weight of -1e-9 is past NEGATIVITY_TOL = 1e-10 in both conventions
    for work in (ergotropy, ergotropy_populations):
        with pytest.raises(ValueError, match="negative weight"):
            work(np.diag([1.0 + 1e-9, -1e-9]), levels)


def test_linear_entropy_bounds_and_values():
    pure = np.zeros((4, 4)); pure[2, 2] = 1.0
    assert linear_entropy(pure) == 0.0
    assert np.isclose(linear_entropy(np.eye(2) / 2), 0.5)
    rho = np.diag([0.25 / 16.25, 16.0 / 16.25])
    assert np.isclose(linear_entropy(rho), 0.030295857988165364, atol=1e-12)
    # the purity gate sits at 1 + 1e-12: a purity of 1 + 1e-10 is refused,
    # one of 1 + 1e-13 is roundoff and clamps to 0
    with pytest.raises(ValueError, match="exceeds 1"):
        linear_entropy(np.diag([1.0 + 5e-11, 0.0]))
    assert linear_entropy(np.diag([1.0 + 5e-14, 0.0])) == 0.0


def test_charging_power_contract():
    assert charging_power(0.0, 1.0) == 0.0
    assert charging_power(0.3, 0.0) == 0.0
    assert np.isclose(charging_power(0.49230769230769234, T_CHARGE),
                      0.6317037159988421, atol=1e-12)
    with pytest.raises(ValueError):
        charging_power(0.1, -1.0)


def test_merit_series_decoupled_is_identically_zero():
    spec = ModelSpec(4, 2, h=0.3, kappa=0.0)
    traj = trajectory(spec, InitialStateSpec(), np.linspace(0, 2, 40))
    cells = reduced_states(traj)
    series = merit_series(traj, cells)
    spectral = ergotropy(cells, battery_energies(spec.n, spec.delta), traj.layout)
    for column in (series.stored_energy, series.ergotropy, series.power,
                   series.linear_entropy, spectral):
        assert np.max(np.abs(column)) <= 1e-12


def test_merit_series_zero_ergotropy_below_threshold():
    # 2 kappa < delta keeps the battery mostly in the ground state
    spec = ModelSpec(5, 1, h=0.1, delta=0.5, kappa=0.2)
    series = run_series(spec, InitialStateSpec(), np.linspace(0, 6, 200))
    assert series.ergotropy.max() <= 1e-12
    assert work_windows(series)[0] == []


def test_merit_series_window_and_peaks():
    spec = ModelSpec(5, 1, h=1e-3, delta=0.5, kappa=2.0)
    times = np.linspace(0.0, 2.0, 2000)
    series = run_series(spec, InitialStateSpec(), times)
    step = times[1] - times[0]
    assert abs(times[np.argmax(series.stored_energy)] - T_CHARGE) <= 1.5 * step
    # onset/offset brackets straddle the closed-form window edges
    onsets, offsets = work_windows(series)
    (t1_lo, t1_hi) = onsets[0]
    (t2_lo, t2_hi) = offsets[0]
    assert t1_lo <= 0.3935428541669808 + 1e-3 and 0.3935428541669808 <= t1_hi + 1e-3
    assert t2_lo <= 1.1651235897346877 + 1e-3 and 1.1651235897346877 <= t2_hi + 1e-3
    # second onset one period after the first
    assert len(onsets) == 2
    assert np.isclose(onsets[1][1] - onsets[0][1],
                      2 * np.pi / OMEGA, atol=2 * step)


def test_merit_unavailable_identity_on_window():
    # stored - extractable = delta (1 - |B|^2) inside the window, h -> 0
    spec = ModelSpec(6, 1, h=1e-3, delta=0.5, kappa=2.0)
    p = AnalyticParams(spec.delta, spec.kappa)
    times = np.linspace(0.45, 1.1, 50)  # strictly inside the window
    series = run_series(spec, InitialStateSpec(), times)
    expected = unavailable_analytic(p, times)
    unavailable = series.stored_energy - series.ergotropy
    assert np.max(np.abs(unavailable - expected)) <= 1e-3
    assert np.min(unavailable) >= -1e-9


def spectral_run(spec, times):
    """The merit series of a cat-charged run and the spectral ergotropy of
    its reduced states."""
    traj = trajectory(spec, InitialStateSpec(), times)
    cells = reduced_states(traj)
    levels = battery_energies(spec.n, spec.delta)
    return merit_series(traj, cells), ergotropy(cells, levels, traj.layout)


def test_variants_coincide_for_single_battery_at_small_field():
    # the single-battery reduced state from a cat preparation is diagonal
    # in the strong-charger limit, so the two conventions agree there
    spec = ModelSpec(6, 1, h=1e-3, delta=0.5, kappa=2.0)
    series, spectral = spectral_run(spec, np.linspace(0, 2, 300))
    assert np.max(np.abs(spectral - series.ergotropy)) <= 1e-3


def test_variant_gap_reported_for_multiple_batteries():
    # with two batteries the reduced state keeps coherences even for small h,
    # so the spectral convention exceeds the population one inside the run
    spec = ModelSpec(4, 2, h=1e-3, delta=0.5, kappa=2.0)
    series, spectral = spectral_run(spec, np.linspace(0, 2, 300))
    gaps = spectral - series.ergotropy
    assert np.max(np.abs(gaps)) > 0.1
    assert np.min(gaps) >= -1e-10


def test_run_series_computes_no_spectrum(monkeypatch):
    # no merit column is spectral, so a series solves no eigenvalue problem;
    # the spectral ergotropy is taken from the reduced states where it is read
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or eigvalsh(a))
    times = np.linspace(0.0, 2.0, 200)
    run_series(ModelSpec(6, 2), InitialStateSpec(), times)
    run_series(ModelSpec(5, 1), InitialStateSpec("random"), times, 3)
    assert calls == []
    ergotropy(np.eye(2) / 2, [0.0, 1.0])  # the spy sees the spectral convention
    assert calls == [(1, 2, 2)]


def test_merit_full_scale_peak_near_charging_time(heavy):
    series = heavy.series(ModelSpec(11, 1, h=0.1))
    step = 2.0 / 1999
    assert abs(series.t[np.argmax(series.stored_energy)] - T_CHARGE) <= 1.5 * step


def random_density_matrices(rng, count, dim):
    raw = rng.standard_normal((count, dim, dim)) + 1j * rng.standard_normal((count, dim, dim))
    rho = raw @ np.swapaxes(raw, -1, -2).conj()
    return rho / np.trace(rho, axis1=-2, axis2=-1).real[:, None, None]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_stacked_merit_functions_match_per_matrix_calls(n):
    rng = np.random.default_rng(30 + n)
    levels = battery_energies(n, 0.5)
    stack = random_density_matrices(rng, 6, 1 << n)
    singles = numpy_figures(stack, levels)
    stacked = {
        "stored_energy": stored_energy(stack, levels),
        "ergotropy": ergotropy_populations(stack, levels),
        "ergotropy_spectral": ergotropy(stack, levels),
        "linear_entropy": linear_entropy(stack),
    }
    for name, column in stacked.items():
        assert np.max(np.abs(column - singles[name])) <= 1e-14, name

    L = 5 - n
    states = np.array([random_state(rng, 1 << (L + n)) for _ in range(6)])
    stacked = reduce_to_battery(states, L, n)
    for psi, rho in zip(states, stacked):
        assert np.max(np.abs(rho - reduce_to_battery(psi, L, n))) <= 1e-14


def test_stacked_input_rejects_one_bad_member():
    rng = np.random.default_rng(40)
    L, n = 3, 2
    states = np.array([random_state(rng, 1 << (L + n)) for _ in range(4)])
    states[2] *= 1.1
    with pytest.raises(ValueError, match="not normalized") as single:
        reduce_to_battery(states[2], L, n)
    with pytest.raises(ValueError, match="not normalized") as stacked:
        reduce_to_battery(states, L, n)
    assert str(stacked.value) == str(single.value)

    levels = battery_energies(1, 0.5)
    stack = np.array([np.diag([0.7, 0.3]), np.diag([1.001, -0.001]), np.eye(2) / 2])
    for variant in (ergotropy, ergotropy_populations):
        with pytest.raises(ValueError, match="negative weight") as single:
            variant(stack[1], levels)
        with pytest.raises(ValueError, match="negative weight") as stacked:
            variant(stack, levels)
        assert str(stacked.value) == str(single.value)


@pytest.fixture
def reductions(monkeypatch):
    """The number of states each reduce_to_battery call reduced_states makes
    reduces, in call order."""
    calls = []
    reduce = observables.reduce_to_battery

    def spy(psi, *args):
        calls.append(len(psi[0]))
        return reduce(psi, *args)

    monkeypatch.setattr(observables, "reduce_to_battery", spy)
    return calls


def node_blocks(count):
    """The state counts of the reduce_to_battery calls for ``count`` nodes."""
    return [min(NODE_BLOCK, count - lo) for lo in range(0, count, NODE_BLOCK)]


def assert_matches_per_point_evaluation(traj, cells):
    """Every merit column of the reduced states ``cells`` of ``traj``, and
    their spectral ergotropy, within 1e-14 of reducing and evaluating the
    states of ``traj`` one at a time."""
    spec, times = traj.spec, traj.times
    levels = battery_energies(spec.n, spec.delta)
    expected = numpy_figures([reduce_to_battery(psi, spec.L, spec.n)
                              for psi in trajectory_states(traj)], levels)
    expected["t"] = times
    expected["power"] = [charging_power(e, t) for e, t in zip(expected["stored_energy"], times)]
    columns = merit_series(traj, cells)._asdict()
    columns["ergotropy_spectral"] = ergotropy(cells, levels, traj.layout)
    for name, column in expected.items():
        assert np.max(np.abs(columns[name] - np.asarray(column))) <= 1e-14, name


def assert_grids_match_per_point_evaluation(grids, reductions):
    """For a random and a cat charger of a (4, 2) model, each grid of
    ``grids`` (times, M) is formed at its M Chebyshev nodes, reduced there
    NODE_BLOCK at a time and matches per-point evaluation."""
    spec = ModelSpec(4, 2, h=0.3, delta=0.5, kappa=1.5)
    for init in (InitialStateSpec("random"), InitialStateSpec()):
        for times, count in grids:
            traj = trajectory(spec, init, times, 5)
            assert traj.nodes.size == count, (init.charger_kind, times.size)
            cells = reduced_states(traj)
            assert reductions == node_blocks(count), (init.charger_kind, times.size)
            reductions.clear()
            assert_matches_per_point_evaluation(traj, cells)


def test_merit_series_matches_per_point_evaluation(reductions):
    # grids of at most M points are interpolated from the nodes too: fewer
    # points than the M = 45 nodes of [0, 2] and as many, one point (two
    # equal nodes) and two points five apart (79 nodes)
    grids = [(np.linspace(0.0, 2.0, steps), 45) for steps in (30, 45)]
    grids += [(np.array([0.7]), 2), (np.array([0.0, 5.0]), 79)]
    assert_grids_match_per_point_evaluation(grids, reductions)


def test_interpolated_merit_series_matches_per_point_evaluation(reductions):
    # more grid points than the M = 45 nodes: the states are reduced at the
    # nodes only, and the interpolated reduced states give every column to
    # roundoff
    assert_grids_match_per_point_evaluation([(np.linspace(0.0, 2.0, 60), 45)], reductions)


def test_merit_series_peak_memory_is_the_block_stack_that_trajectory_counts(monkeypatch):
    # a sector run interpolated from its nodes holds one (T, B, b, b)
    # complex stack of reduced-state blocks, 8 4**n bytes per grid point,
    # which trajectory counts up front beside the matrix-free Hamiltonian
    # (8 (L + n + 1) bytes per entry of the 128-entry sector); populations
    # and the purity add no second stack
    counted = []
    series = dynamics.chebyshev_series

    def spy(*args, extra_bytes=0, **kwargs):
        counted.append(extra_bytes)
        return series(*args, extra_bytes=extra_bytes, **kwargs)

    monkeypatch.setattr(dynamics, "chebyshev_series", spy)
    spec = ModelSpec(4, 4, d=1)
    times = np.linspace(0.0, 2.0, 4000)
    traj = trajectory(spec, InitialStateSpec(), times)
    blocks = 8 * 4 ** 4 * times.size
    assert counted == [blocks + 8 * 9 * 128]
    merit_series(traj, reduced_states(traj))  # first-call allocations of the linear algebra
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        merit_series(traj, reduced_states(traj))
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * blocks + (1 << 20), (peak, blocks)


def test_merit_series_names_first_negative_unavailable_time(monkeypatch):
    def inflated(cells, levels, blocks):
        work = stored_energy(cells, levels, blocks)
        work[[3, 5]] += 1e-6
        return work

    monkeypatch.setattr(observables, "ergotropy_populations", inflated)
    spec = ModelSpec(3, 1, h=0.3, delta=0.5, kappa=1.5)
    times = np.linspace(0.0, 1.0, 8)
    traj = trajectory(spec, InitialStateSpec(), times)
    with pytest.raises(ArithmeticError, match=re.escape(f"at t={times[3]}") + "$"):
        merit_series(traj, reduced_states(traj))


def test_default_grid_reduces_once_at_the_nodes(reductions):
    # on the default 2000-point grid every fig1 system is evaluated at its M
    # Chebyshev nodes, as many as the expansion has terms (the window
    # starts at t = 0), and reduced NODE_BLOCK nodes at a time; so is a grid
    # of M or M + 1 points on the window
    times = np.linspace(0.0, 2.0, 2000)
    for (L, n), count in (((11, 1), 60), ((10, 2), 63), ((9, 3), 66), ((8, 4), 69)):
        traj = trajectory(ModelSpec(L, n, h=0.1), InitialStateSpec(), times)
        assert traj.nodes.size == count == traj.coefficients.shape[1], (L, n)
        assert traj.nodes[0] == 0.0 and traj.nodes[-1] == 2.0
        reduced_states(traj)
        assert reductions == node_blocks(count), (L, n)
        reductions.clear()
        for steps in (count, count + 1):
            coarse = trajectory(ModelSpec(L, n, h=0.1), InitialStateSpec(),
                                np.linspace(0.0, 2.0, steps))
            assert np.array_equal(coarse.nodes, traj.nodes), (L, n, steps)


def test_misnormalized_trajectory_raises_a_trace_error(reductions):
    # every state is twice a basis vector, so its reduced trace is exactly 4
    # at each of the three nodes of a five-point grid
    spec = ModelSpec(3, 1)
    bad = Trajectory(spec, np.linspace(0.0, 1.0, 5), np.eye(3), 2 * np.eye(3, 16)[None],
                     sector_layout(spec), chebyshev_nodes(0.0, 1.0, 3))
    with pytest.raises(ValueError) as raised:
        reduced_states(bad)
    assert str(raised.value) == "reduced state has trace 4.0; input state not normalized"
    assert reductions == [3]
