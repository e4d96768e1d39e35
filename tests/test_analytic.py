import numpy as np
import pytest

from sunburst_battery.analytic import (
    AnalyticParams,
    charging_time,
    ergotropy_analytic,
    excited_population,
    linear_entropy_analytic,
    max_ergotropy,
    power_analytic,
    stored_energy_analytic,
)
from sunburst_battery.validate import (
    amplitudes,
    bisect_window,
    power_at_T,
    two_battery,
    unavailable_analytic,
    window_times,
)

REF = AnalyticParams(0.5, 2.0)
OMEGA = np.sqrt(16.25)
T_CHARGE = np.pi / OMEGA


def test_params_derive_frequency():
    assert np.isclose(REF.omega ** 2, REF.delta ** 2 + 4 * REF.kappa ** 2,
                      rtol=1e-12)
    with pytest.raises(ValueError):
        AnalyticParams(-0.1, 1.0)
    with pytest.raises(TypeError):  # omega is derived, not a constructor argument
        AnalyticParams(0.5, 2.0, omega=1.0)


def test_amplitudes_at_zero_and_decoupled():
    a, b = amplitudes(REF, 0.0)
    assert a == 1.0 and b == 0.0
    silent = AnalyticParams(0.5, 0.0)
    _, b = amplitudes(silent, np.linspace(0, 10, 50))
    assert np.max(np.abs(b)) == 0.0
    frozen = AnalyticParams(0.0, 0.0)
    a, b = amplitudes(frozen, 1.7)
    assert a == 1.0 and b == 0.0


def test_amplitudes_at_charging_time():
    a, b = amplitudes(REF, T_CHARGE)
    assert np.isclose(abs(a) ** 2, 0.015384615384615387, atol=1e-12)
    assert np.isclose(abs(b) ** 2, 0.9846153846153848, atol=1e-12)


def test_amplitude_normalization_random_parameters():
    rng = np.random.default_rng(10)
    for _ in range(300):
        p = AnalyticParams(float(rng.uniform(0, 4)), float(rng.uniform(0, 4)))
        t = rng.uniform(0, 20, 10)
        a, b = amplitudes(p, t)
        assert np.max(np.abs(np.abs(a) ** 2 + np.abs(b) ** 2 - 1.0)) <= 1e-12


def test_amplitudes_reject_negative_times():
    with pytest.raises(ValueError):
        amplitudes(REF, -0.1)


def test_linear_entropy_curve():
    assert linear_entropy_analytic(REF, 0.0) == 0.0
    assert np.isclose(linear_entropy_analytic(REF, T_CHARGE),
                      0.030295857988165364, atol=1e-12)
    grid = np.linspace(0, 20, 4001)
    values = linear_entropy_analytic(REF, grid)
    assert np.all(values <= 0.5 + 1e-12) and np.all(values >= -1e-12)


def test_ergotropy_window_and_values():
    assert ergotropy_analytic(REF, 0.1) == 0.0  # before the window opens
    assert np.isclose(ergotropy_analytic(REF, T_CHARGE), 0.4846153846153846,
                      atol=1e-12)
    boundary = AnalyticParams(0.5, 0.25)  # 2 kappa = delta
    grid = np.linspace(0, 30, 3000)
    assert np.max(ergotropy_analytic(boundary, grid)) <= 1e-12
    below = AnalyticParams(0.5, 0.2)
    assert np.max(ergotropy_analytic(below, grid)) == 0.0


def test_window_times():
    t1, t2 = window_times(REF)
    assert np.isclose(t1, 0.3935428541669808, atol=1e-12)
    assert np.isclose(t2, 1.1651235897346877, atol=1e-12)
    assert t1 < T_CHARGE < t2
    assert np.isclose(t1 + t2, 2 * T_CHARGE, atol=1e-12)
    # ergotropy is positive strictly inside and zero just outside
    assert ergotropy_analytic(REF, (t1 + t2) / 2) > 0
    assert ergotropy_analytic(REF, t1 - 1e-3) == 0.0
    assert ergotropy_analytic(REF, t2 + 1e-3) == 0.0


def test_window_degenerate_and_absent():
    assert window_times(AnalyticParams(0.5, 0.2)) is None
    t1, t2 = window_times(AnalyticParams(0.5, 0.25))
    t_deg = charging_time(AnalyticParams(0.5, 0.25))
    assert np.isclose(t1, t_deg) and np.isclose(t2, t_deg)


def test_window_strong_coupling_limit():
    # arccos argument tends to sqrt(1/2): the window opens at T/2
    strong = AnalyticParams(0.5, 1e6)
    t1, _ = window_times(strong)
    assert np.isclose(t1, charging_time(strong) / 2, rtol=1e-10)


def test_bisect_window_agrees_with_closed_form():
    for p in (REF, AnalyticParams(0.3, 0.9), AnalyticParams(1.0, 0.8)):
        closed = window_times(p)
        scanned = bisect_window(p)
        assert abs(scanned[0] - closed[0]) <= 1e-8
        assert abs(scanned[1] - closed[1]) <= 1e-8
    assert bisect_window(AnalyticParams(0.5, 0.1)) is None


def test_stored_and_unavailable_energy():
    assert stored_energy_analytic(REF, 0.0) == 0.0
    assert np.isclose(unavailable_analytic(REF, 0.0), REF.delta)
    assert np.isclose(stored_energy_analytic(REF, T_CHARGE),
                      0.49230769230769234, atol=1e-12)
    assert np.isclose(unavailable_analytic(REF, T_CHARGE),
                      0.007692307692307693, atol=1e-12)
    rng = np.random.default_rng(3)
    for _ in range(100):
        p = AnalyticParams(float(rng.uniform(0, 3)), float(rng.uniform(0, 3)))
        t = rng.uniform(0, 20, 20)
        assert np.all(unavailable_analytic(p, t) >= 0.0)


def test_unavailable_equals_stored_minus_work_on_window():
    t1, t2 = window_times(REF)
    inside = np.linspace(t1 + 1e-9, t2 - 1e-9, 500)
    residual = (stored_energy_analytic(REF, inside)
                - ergotropy_analytic(REF, inside)
                - unavailable_analytic(REF, inside))
    assert np.max(np.abs(residual)) <= 1e-12


def test_charging_time_and_power_at_T():
    assert np.isclose(charging_time(REF), 0.7793332219508342, atol=1e-15)
    assert np.isclose(power_at_T(REF), 0.6317037159988421, atol=1e-12)
    assert np.isclose(power_at_T(REF),
                      stored_energy_analytic(REF, T_CHARGE) / T_CHARGE,
                      atol=1e-12)
    with pytest.raises(ValueError):
        charging_time(AnalyticParams(0.0, 0.0))


def test_power_curve_limits():
    assert power_analytic(REF, 0.0) == 0.0
    small = np.array([1e-8, 1e-6, 1e-4])
    # rises linearly from zero: P ~ delta kappa^2 t
    expected = REF.delta * REF.kappa ** 2 * small
    assert np.allclose(power_analytic(REF, small), expected, rtol=1e-6)


def test_max_ergotropy_values_and_saturation():
    assert np.isclose(max_ergotropy(REF), 0.4846153846153846, atol=1e-12)
    assert np.isclose(max_ergotropy(AnalyticParams(0.5, 4.0)),
                      0.4961089494163424, atol=1e-12)
    assert max_ergotropy(AnalyticParams(0.5, 0.25)) == 0.0
    assert max_ergotropy(AnalyticParams(0.5, 0.1)) == 0.0
    assert np.isclose(max_ergotropy(AnalyticParams(0.5, 1e8)), 0.5, atol=1e-10)
    assert np.isclose(max_ergotropy(REF), ergotropy_analytic(REF, T_CHARGE),
                      atol=1e-12)


def test_max_ergotropy_monotone_in_coupling():
    kappas = np.linspace(0.26, 8.0, 200)
    values = [max_ergotropy(AnalyticParams(0.5, k)) for k in kappas]
    assert np.all(np.diff(values) > 0)


def test_periodicity_of_all_observables():
    rng = np.random.default_rng(12)
    for _ in range(30):
        p = AnalyticParams(float(rng.uniform(0.1, 2)), float(rng.uniform(0.1, 2)))
        period = 2 * np.pi / p.omega
        t = rng.uniform(0, 10, 16)
        for fn in (stored_energy_analytic, ergotropy_analytic,
                   linear_entropy_analytic, unavailable_analytic,
                   excited_population):
            assert np.max(np.abs(fn(p, t + period) - fn(p, t))) <= 1e-9


def test_two_battery_start_and_twice_identity():
    pair = two_battery(REF, 0.0)
    assert pair.lambda1 == 1.0 and pair.lambda4 == 0.0
    assert pair.stored_energy == 0.0 and pair.ergotropy == 0.0
    rng = np.random.default_rng(13)
    t = rng.uniform(0, 20, 100)
    for p in (REF, AnalyticParams(0.7, 0.9), AnalyticParams(0.2, 3.0)):
        pair = two_battery(p, t)
        assert np.max(np.abs(pair.stored_energy
                             - 2 * stored_energy_analytic(p, t))) <= 1e-12
        assert np.max(np.abs(pair.ergotropy
                             - 2 * ergotropy_analytic(p, t))) <= 1e-12
        assert np.all(pair.lambda1 + pair.lambda4 <= 1 + 1e-12)


def test_two_battery_values_at_charging_time():
    pair = two_battery(REF, T_CHARGE)
    assert np.isclose(float(pair.stored_energy), 0.9846153846153848, atol=1e-12)
    assert np.isclose(float(pair.ergotropy), 0.9692307692307692, atol=1e-12)


def test_two_battery_corner_population_is_fourth_power():
    # the expanded lambda1 resums to |A|^4: the two derivations must agree,
    # on the grid and at the random times of the twice-identity test
    t = np.concatenate([np.linspace(0, 5, 200),
                        np.random.default_rng(13).uniform(0, 20, 100)])
    for p in (REF, AnalyticParams(0.7, 0.9), AnalyticParams(0.2, 3.0)):
        a, b = amplitudes(p, t)
        pair = two_battery(p, t)
        assert np.max(np.abs(pair.lambda1 - np.abs(a) ** 4)) <= 1e-12
        assert np.max(np.abs(pair.lambda4 - np.abs(b) ** 4)) <= 1e-12
