"""Acceptance suite: every reference claim at full scale (dimension 4096).

One test per criterion; each prints a single PASS/FAIL line (run with
``pytest -s`` to see them on success).  Each dimension-4096 reference run
is a matrix-free Chebyshev trajectory, and its merit series is shared
through the session-scoped cache, so the whole module runs in seconds on
two cores.
"""

import numpy as np
import pytest

from conftest import REFERENCE_GRID

from sunburst_battery.analytic import (
    AnalyticParams,
    ergotropy_analytic,
    linear_entropy_analytic,
    stored_energy_analytic,
)
from sunburst_battery.cli import main
from sunburst_battery.config import InitialStateSpec, ModelSpec
from sunburst_battery.dynamics import trajectory
from sunburst_battery.experiments import read_csv
from sunburst_battery.observables import charging_power
from sunburst_battery.validate import (
    amplitude_residual,
    build_total,
    conservation_drift,
    max_ergotropy,
    partial_trace_gap,
    propagator_gap,
    trajectory_states,
    two_battery,
    unavailable_analytic,
)

OMEGA = np.sqrt(16.25)
T_CHARGE = np.pi / OMEGA
GRID_STEP = REFERENCE_GRID[1] - REFERENCE_GRID[0]
POWER_PEAK_TIME = 2.3312 / OMEGA  # rounded peak-location constant


def reference_model(**overrides):
    base = dict(L=11, n=1, J=1.0, h=0.1, delta=0.5, kappa=2.0)
    base.update(overrides)
    return ModelSpec(**base)


def report(num, name, ok, detail):
    print(f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} ({name}): {detail}"


def grid_index_distance(times, t_found, t_reference):
    """Both times snapped to the grid; an argmax cannot be resolved finer."""
    step = times[1] - times[0]
    return abs(round((t_found - times[0]) / step)
               - round((t_reference - times[0]) / step))


def test_criterion_1_single_battery_curves_vs_closed_forms(heavy):
    single = AnalyticParams(0.5, 2.0)
    work_ref = ergotropy_analytic(single, REFERENCE_GRID)
    entropy_ref = linear_entropy_analytic(single, REFERENCE_GRID)
    details, work_devs = [], []
    for h, tol in ((0.1, 0.05), (1e-3, 1e-3)):
        series = heavy.series(reference_model(h=h))
        work_dev = float(np.max(np.abs(series.ergotropy - work_ref)))
        entropy_dev = float(np.max(np.abs(series.linear_entropy - entropy_ref)))
        work_devs.append(work_dev)
        details.append(f"h={h}: |xi| {work_dev:.2e}, |SL| {entropy_dev:.2e} <= {tol}")
        if work_dev > tol or entropy_dev > tol:
            report(1, "single-battery curves", False, "; ".join(details))
    # numerics converge onto the closed forms as the transverse field shrinks
    converges = work_devs[1] < work_devs[0]
    report(1, "single-battery curves", converges,
           "; ".join(details) + f"; h->0 convergence {converges}")


def test_criterion_2_per_battery_ergotropy_collapse(heavy):
    reference = ergotropy_analytic(AnalyticParams(0.5, 2.0), REFERENCE_GRID)
    worst = 0.0
    for L, n in ((10, 2), (9, 3), (8, 4)):
        series = heavy.series(reference_model(L=L, n=n))
        worst = max(worst, float(np.max(np.abs(
            series.ergotropy / n - reference
        ))))
    report(2, "ergotropy collapse", worst <= 0.05,
           f"max |xi/n - xi_1| = {worst:.2e} over n=2..4")


def test_criterion_2b_per_battery_ergotropy_is_nearly_exact(heavy):
    # far below criterion 2's 0.05: over t <= 2 the battery sees only a few
    # charger sites, so xi/n hardly depends on L or n (measured 2.5e-10,
    # 6.1e-14, 7.5e-10 and 1.1e-8).  Battery spacing d + 1 instead of d
    # gives 1.7e-5 at (9,3) and still passes criterion 2.
    single = heavy.series(reference_model()).ergotropy
    details, ok = [], True
    for L, n, bound in ((8, 1, 1e-8), (10, 2, 1e-12), (9, 3, 1e-8), (8, 4, 1e-7)):
        gap = float(np.max(np.abs(heavy.series(reference_model(L=L, n=n)).ergotropy / n
                                  - single)))
        ok = ok and gap <= bound
        details.append(f"({L},{n}) {gap:.1e} <= {bound:.0e}")
    report("2b", "per-battery ergotropy vs (11,1)", ok, "; ".join(details))


def test_criterion_3_power_collapse_and_peak_location(heavy):
    reference = charging_power(stored_energy_analytic(AnalyticParams(0.5, 2.0), REFERENCE_GRID),
                               REFERENCE_GRID)
    worst = 0.0
    for L, n in ((11, 1), (10, 2), (9, 3), (8, 4)):
        series = heavy.series(reference_model(L=L, n=n))
        worst = max(worst, float(np.max(np.abs(
            series.power / n - reference
        ))))
    single = heavy.series(reference_model())
    offset = grid_index_distance(REFERENCE_GRID, single.t[np.argmax(single.power)],
                                 POWER_PEAK_TIME)
    ok = worst <= 0.05 and offset <= 1
    report(3, "power collapse and peak",
           ok, f"max |P/n - P_1| = {worst:.2e}, peak {offset} grid steps from 2.3312/omega")


def test_criterion_4_coupling_sweep_peaks(heavy):
    peaks, details, ok = [], [], True
    for kappa in (0.25, 0.5, 1.0, 2.0, 4.0):
        p = AnalyticParams(0.5, kappa)
        times = np.linspace(0.0, 2 * np.pi / p.omega, 2000)
        series = heavy.series(reference_model(kappa=kappa), times=times)
        peak = float(series.ergotropy.max())
        peaks.append(peak)
        if kappa == 0.25:
            ok = ok and peak <= 1e-9
            details.append(f"k=0.25: max xi = {peak:.1e}")
        else:
            work_err = abs(peak - max_ergotropy(p))
            power_ref = 1.45 * 0.5 * kappa ** 2 / p.omega
            power_rel = abs(float(series.power.max()) - power_ref) / power_ref
            ok = ok and work_err <= 0.05 and power_rel <= 0.05
            details.append(f"k={kappa}: dxi {work_err:.1e}, dP/P {power_rel:.1e}")
    monotone = bool(np.all(np.diff(peaks) > 0))
    ok = ok and monotone
    details.append(f"monotone in kappa: {monotone}")
    report(4, "coupling sweep", ok, "; ".join(details))


def test_criterion_5_initial_state_independence(heavy, tmp_path):
    # h = 0.1 leg runs end to end through the CLI (its own trajectories)
    out = tmp_path / "fig4.csv"
    assert main(["fig4", "--seed", "11", "--out", str(out)]) == 0
    cols = read_csv(out)
    reference = ergotropy_analytic(AnalyticParams(0.5, 2.0), REFERENCE_GRID)
    curves = [cols["xi_num"][cols["seed"] == seed] for seed in (11, 12, 13)]
    pair_01 = max(
        float(np.max(np.abs(a - b)))
        for i, a in enumerate(curves) for b in curves[i + 1:]
    )
    vs_ana_01 = max(float(np.max(np.abs(c - reference))) for c in curves)

    fine = [
        heavy.series(reference_model(h=1e-3), init=InitialStateSpec("random"), seed=seed)
        for seed in (11, 12, 13)
    ]
    pair_fine = max(
        float(np.max(np.abs(a.ergotropy - b.ergotropy)))
        for i, a in enumerate(fine) for b in fine[i + 1:]
    )
    ok = pair_01 <= 0.05 and vs_ana_01 <= 0.05 and pair_fine <= 1e-3
    report(5, "initial-state independence", ok,
           f"h=0.1 pairwise {pair_01:.2e}, vs analytic {vs_ana_01:.2e}; "
           f"h=1e-3 pairwise {pair_fine:.2e}")


def test_criterion_6_charging_time_independent_of_battery_count(heavy):
    offsets = []
    for L, n in ((11, 1), (10, 2), (9, 3), (8, 4)):
        series = heavy.series(reference_model(L=L, n=n))
        offsets.append(grid_index_distance(
            REFERENCE_GRID, series.t[np.argmax(series.stored_energy)], T_CHARGE))
    ok = all(off <= 1 for off in offsets)
    report(6, "charging time", ok,
           f"argmax dE within {max(offsets)} grid step(s) of T for n=1..4")


def test_criterion_7_two_battery_doubling(heavy):
    p = AnalyticParams(0.5, 2.0)
    rng = np.random.default_rng(99)
    t = rng.uniform(0.0, 10.0, 100)
    pair = two_battery(p, t)
    exact = max(
        float(np.max(np.abs(pair.ergotropy - 2 * ergotropy_analytic(p, t)))),
        float(np.max(np.abs(pair.stored_energy - 2 * stored_energy_analytic(p, t)))),
    )
    series = heavy.series(reference_model(L=10, n=2))
    ed = max(
        float(np.max(np.abs(series.ergotropy
                            - 2 * ergotropy_analytic(p, REFERENCE_GRID)))),
        float(np.max(np.abs(series.stored_energy
                            - 2 * stored_energy_analytic(p, REFERENCE_GRID)))),
    )
    ok = exact <= 1e-12 and ed <= 0.05
    report(7, "two-battery doubling", ok,
           f"analytic residual {exact:.1e} at 100 random t; ED deviation {ed:.2e}")


def test_criterion_8_property_suites(heavy):
    rng = np.random.default_rng(123)
    details = []

    # propagator oracle equivalence up to dimension 64
    models = (ModelSpec(L, n, d=1,
                        J=float(rng.uniform(0.5, 1.5)), h=float(rng.uniform(0, 1)),
                        delta=float(rng.uniform(0, 1)), kappa=float(rng.uniform(0, 2)))
              for L, n in ((2, 1), (3, 2), (4, 2), (5, 1)))
    worst = propagator_gap(rng, (16, 48, 64), models)
    propagators_ok = worst <= 1e-8
    details.append(f"propagators {worst:.1e}")

    # partial-trace oracle equivalence up to 6 qubits
    worst = partial_trace_gap(rng, ((2, 1), (3, 2), (4, 2), (2, 4), (5, 1), (3, 3)))
    trace_ok = worst <= 1e-12
    details.append(f"partial trace {worst:.1e}")

    worst = amplitude_residual(rng, 200, 4.0, 20.0)
    amplitudes_ok = worst <= 1e-12
    details.append(f"normalization {worst:.1e}")

    # unavailable energy never negative; zero work below threshold
    merit_ok = True
    for L, n in ((11, 1), (10, 2)):
        series = heavy.series(reference_model(L=L, n=n))
        unavailable = series.stored_energy - series.ergotropy
        merit_ok = merit_ok and float(np.min(unavailable)) >= -1e-9
    for _ in range(50):
        delta = float(rng.uniform(0.1, 2))
        kappa = float(rng.uniform(0, delta / 2 * 0.999))
        p = AnalyticParams(delta, kappa)
        sample_times = rng.uniform(0, 20, 50)
        merit_ok = merit_ok and float(np.max(
            ergotropy_analytic(p, sample_times)
        )) == 0.0
        locked = unavailable_analytic(p, sample_times)
        merit_ok = merit_ok and float(np.min(locked)) >= 0.0
    low = heavy.series(reference_model(L=5, n=1, kappa=0.2),
                       times=np.linspace(0.0, 6.0, 500))
    merit_ok = merit_ok and float(low.ergotropy.max()) <= 1e-12
    details.append(f"unavailable/threshold ok {merit_ok}")

    # conservation along trajectories: full grid on a small model, explicit
    # spot checks on the production system
    drift = max(
        conservation_drift(trajectory_states(trajectory(spec, InitialStateSpec(), times)),
                           build_total(spec))
        for spec, times in ((ModelSpec(5, 1, h=0.1), np.linspace(0.0, 4.0, 400)),
                            (reference_model(), np.array([0.0, 1.0, 2.0])))
    )
    conservation_ok = drift <= 1e-9
    details.append(f"conservation {drift:.1e}")

    ok = (propagators_ok and trace_ok and amplitudes_ok and merit_ok
          and conservation_ok)
    report(8, "property suites", ok, "; ".join(details))
