import re

import numpy as np
import pytest

from sunburst_battery import (
    AnalyticParams,
    InitialStateSpec,
    ModelSpec,
    amplitudes,
    battery_energies,
    charging_power,
    check_density_matrix,
    compose,
    ergotropy,
    ergotropy_populations,
    ghz_minus,
    ghz_plus,
    linear_entropy,
    merit_series,
    passive_state,
    reduce_to_battery,
    run_series,
    stored_energy,
    trajectory,
    unavailable_analytic,
)
from sunburst_battery.dynamics import random_state
from sunburst_battery.experiments import _naive_partial_trace

OMEGA = np.sqrt(16.25)
T_CHARGE = np.pi / OMEGA


def test_reduce_product_state_is_pure():
    rng = np.random.default_rng(2)
    charger = random_state(rng, 8)
    battery = random_state(rng, 4)
    rho = reduce_to_battery(compose(charger, battery), 3, 2)
    assert np.max(np.abs(rho - np.outer(battery, battery.conj()))) <= 1e-12
    assert abs(linear_entropy(rho)) <= 1e-12


def test_reduce_matches_two_branch_structure():
    # state A * ghz_plus (x) |0> + B * ghz_minus (x) |1> reduces to
    # diag(|A|^2, |B|^2): the charger branches are orthogonal
    p = AnalyticParams(0.5, 2.0)
    a, b = amplitudes(p, 0.37)
    L = 4
    psi = a * compose(ghz_plus(L), [1, 0]) + b * compose(ghz_minus(L), [0, 1])
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
        check_density_matrix(fast)


def test_reduce_rejects_bad_input():
    with pytest.raises(ValueError, match="does not match"):
        reduce_to_battery(np.ones(6) / np.sqrt(6), 2, 1)
    with pytest.raises(ValueError, match="not normalized"):
        reduce_to_battery(np.ones(8), 2, 1)


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
    work, passive = ergotropy(np.eye(4) / 4, levels)
    assert work == 0.0
    assert np.isclose(passive, np.mean(levels))


@pytest.mark.parametrize("p", [0.9, 0.6, 0.5, 0.3, 0.05])
def test_single_battery_ergotropy_piecewise(p):
    delta = 0.5
    rho = np.diag([p, 1 - p])
    levels = battery_energies(1, delta)
    expected = delta * (1 - 2 * p) if p < 0.5 else 0.0
    for variant in (ergotropy, ergotropy_populations):
        work, _ = variant(rho, levels)
        assert np.isclose(work, expected, atol=1e-12)


def test_ergotropy_at_charging_time_value():
    rho = np.diag([0.25 / 16.25, 16.0 / 16.25])
    work, _ = ergotropy(rho, battery_energies(1, 0.5))
    assert np.isclose(work, 0.4846153846153846, atol=1e-12)


def test_passive_state_has_zero_ergotropy():
    rng = np.random.default_rng(6)
    psi = random_state(rng, 32)
    rho = reduce_to_battery(psi, 2, 3)
    levels = battery_energies(3, 0.7)
    passive = passive_state(rho, levels)
    check_density_matrix(passive)
    work, _ = ergotropy(passive, levels)
    assert work <= 1e-10
    # energies ordered against weights: passive energy reproduced exactly
    _, reference = ergotropy(rho, levels)
    assert np.isclose(stored_energy(passive, levels) + levels.min(), reference)


def test_variants_agree_on_diagonal_states():
    rng = np.random.default_rng(8)
    for _ in range(20):
        weights = rng.dirichlet(np.ones(8))
        rho = np.diag(weights).astype(complex)
        levels = battery_energies(3, 0.5)
        assert np.isclose(ergotropy(rho, levels)[0],
                          ergotropy_populations(rho, levels)[0], atol=1e-10)


def test_spectral_variant_sees_coherence_populations_do_not():
    # equal populations with a coherence: spectral work is positive,
    # population work vanishes.  Spectrum is (0.8, 0.2), so the work is
    # delta * (0.8 - 0.2) / 2.
    delta = 0.5
    rho = np.array([[0.5, 0.3], [0.3, 0.5]], dtype=complex)
    levels = battery_energies(1, delta)
    spectral, _ = ergotropy(rho, levels)
    population, _ = ergotropy_populations(rho, levels)
    assert np.isclose(spectral, delta * 0.3, atol=1e-12)
    assert population == 0.0


def test_negative_eigenvalue_clamp_and_rejection():
    levels = battery_energies(1, 0.5)
    slightly = np.diag([1.0 + 5e-11, -5e-11])
    work, _ = ergotropy(slightly, levels)
    assert work == 0.0
    with pytest.raises(ValueError, match="negative weight"):
        ergotropy(np.diag([1.001, -0.001]), levels)


def test_linear_entropy_bounds_and_values():
    pure = np.zeros((4, 4)); pure[2, 2] = 1.0
    assert linear_entropy(pure) == 0.0
    assert np.isclose(linear_entropy(np.eye(2) / 2), 0.5)
    rho = np.diag([0.25 / 16.25, 16.0 / 16.25])
    assert np.isclose(linear_entropy(rho), 0.030295857988165364, atol=1e-12)


def test_charging_power_contract():
    assert charging_power(0.0, 1.0) == 0.0
    assert charging_power(0.3, 0.0) == 0.0
    assert np.isclose(charging_power(0.49230769230769234, T_CHARGE),
                      0.6317037159988421, atol=1e-12)
    with pytest.raises(ValueError):
        charging_power(0.1, -1.0)


def test_merit_series_decoupled_is_identically_zero():
    spec = ModelSpec(4, 2, h=0.3, kappa=0.0)
    series = run_series(spec, InitialStateSpec(), np.linspace(0, 2, 40))
    for column in (series.stored_energy, series.ergotropy, series.power,
                   series.linear_entropy, series.ergotropy_spectral):
        assert np.max(np.abs(column)) <= 1e-12


def test_merit_series_zero_ergotropy_below_threshold():
    # 2 kappa < delta keeps the battery mostly in the ground state
    spec = ModelSpec(5, 1, h=0.1, delta=0.5, kappa=0.2)
    series = run_series(spec, InitialStateSpec(), np.linspace(0, 6, 200))
    assert series.peak_ergotropy <= 1e-12
    assert series.ergotropy_onsets == []


def test_merit_series_window_and_peaks():
    spec = ModelSpec(5, 1, h=1e-3, delta=0.5, kappa=2.0)
    times = np.linspace(0.0, 2.0, 2000)
    series = run_series(spec, InitialStateSpec(), times)
    step = times[1] - times[0]
    assert abs(series.peak_stored_time - T_CHARGE) <= 1.5 * step
    # onset/offset brackets straddle the closed-form window edges
    (t1_lo, t1_hi) = series.ergotropy_onsets[0]
    (t2_lo, t2_hi) = series.ergotropy_offsets[0]
    assert t1_lo <= 0.3935428541669808 + 1e-3 and 0.3935428541669808 <= t1_hi + 1e-3
    assert t2_lo <= 1.1651235897346877 + 1e-3 and 1.1651235897346877 <= t2_hi + 1e-3
    # second onset one period after the first
    assert len(series.ergotropy_onsets) == 2
    assert np.isclose(series.ergotropy_onsets[1][1] - series.ergotropy_onsets[0][1],
                      2 * np.pi / OMEGA, atol=2 * step)


def test_merit_unavailable_identity_on_window():
    # stored - extractable = delta (1 - |B|^2) inside the window, h -> 0
    spec = ModelSpec(6, 1, h=1e-3, delta=0.5, kappa=2.0)
    p = AnalyticParams.from_model(spec)
    times = np.linspace(0.45, 1.1, 50)  # strictly inside the window
    series = run_series(spec, InitialStateSpec(), times)
    expected = unavailable_analytic(p, times)
    assert np.max(np.abs(series.unavailable - expected)) <= 1e-3
    assert np.min(series.unavailable) >= -1e-9


def test_variants_coincide_for_single_battery_at_small_field():
    # the single-battery reduced state from a cat preparation is diagonal
    # in the strong-charger limit, so the two conventions agree there
    spec = ModelSpec(6, 1, h=1e-3, delta=0.5, kappa=2.0)
    series = run_series(spec, InitialStateSpec(), np.linspace(0, 2, 300))
    assert series.max_variant_gap <= 1e-3


def test_variant_gap_reported_for_multiple_batteries():
    # with two batteries the reduced state keeps coherences even for small h,
    # so the spectral convention exceeds the population one inside the run
    spec = ModelSpec(4, 2, h=1e-3, delta=0.5, kappa=2.0)
    series = run_series(spec, InitialStateSpec(), np.linspace(0, 2, 300))
    assert series.max_variant_gap > 0.1
    gaps = series.ergotropy_spectral - series.ergotropy
    assert np.min(gaps) >= -1e-10


def test_merit_full_scale_peak_near_charging_time(heavy):
    series = heavy.series(ModelSpec(11, 1, h=0.1))
    step = 2.0 / 1999
    assert abs(series.peak_stored_time - T_CHARGE) <= 1.5 * step


def random_density_matrices(rng, count, dim):
    raw = rng.standard_normal((count, dim, dim)) + 1j * rng.standard_normal((count, dim, dim))
    rho = raw @ np.swapaxes(raw, -1, -2).conj()
    return rho / np.trace(rho, axis1=-2, axis2=-1).real[:, None, None]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_stacked_merit_functions_match_per_matrix_calls(n):
    rng = np.random.default_rng(30 + n)
    levels = battery_energies(n, 0.5)
    stack = random_density_matrices(rng, 6, 1 << n)
    singles = {
        "stored": [stored_energy(rho, levels) for rho in stack],
        "spectral": [ergotropy(rho, levels) for rho in stack],
        "populations": [ergotropy_populations(rho, levels) for rho in stack],
        "entropy": [linear_entropy(rho) for rho in stack],
    }
    assert np.max(np.abs(stored_energy(stack, levels) - singles["stored"])) <= 1e-14
    assert np.max(np.abs(linear_entropy(stack) - singles["entropy"])) <= 1e-14
    for name, variant in (("spectral", ergotropy), ("populations", ergotropy_populations)):
        work, passive = variant(stack, levels)
        assert np.max(np.abs(work - [w for w, _ in singles[name]])) <= 1e-14
        assert np.max(np.abs(passive - [p for _, p in singles[name]])) <= 1e-14

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


def test_merit_series_matches_per_point_evaluation():
    spec = ModelSpec(4, 2, h=0.3, delta=0.5, kappa=1.5)
    times = np.linspace(0.0, 2.0, 60)
    traj = trajectory(spec, InitialStateSpec("random", seed=5), times)
    series = merit_series(traj)
    levels = battery_energies(spec.n, spec.delta)
    rhos = [reduce_to_battery(psi, spec.L, spec.n) for psi in traj.states]
    stored = np.array([stored_energy(rho, levels) for rho in rhos])
    work = np.array([ergotropy_populations(rho, levels)[0] for rho in rhos])
    expected = {
        "t": times,
        "stored_energy": stored,
        "ergotropy": work,
        "ergotropy_spectral": [ergotropy(rho, levels)[0] for rho in rhos],
        "linear_entropy": [linear_entropy(rho) for rho in rhos],
        "power": [charging_power(e, t) for e, t in zip(stored, times)],
        "unavailable": stored - work,
    }
    for name, column in expected.items():
        assert np.max(np.abs(getattr(series, name) - np.asarray(column))) <= 1e-14, name
    assert series.peak_ergotropy == work.max()
    assert series.peak_ergotropy_time == times[np.argmax(work)]


def test_merit_series_names_first_negative_unavailable_time(monkeypatch):
    from sunburst_battery import observables

    def inflated(rho, levels):
        work = stored_energy(rho, levels)
        work[[3, 5]] += 1e-6
        return work, None

    monkeypatch.setattr(observables, "ergotropy_populations", inflated)
    spec = ModelSpec(3, 1, h=0.3, delta=0.5, kappa=1.5)
    times = np.linspace(0.0, 1.0, 8)
    traj = trajectory(spec, InitialStateSpec(), times)
    with pytest.raises(ArithmeticError, match=re.escape(f"at t={times[3]}") + "$"):
        merit_series(traj)
