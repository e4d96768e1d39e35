"""Experiment runners: the commands that write reproducible CSV datasets
for the time-series, collapse, coupling-sweep and random-initial-state
studies, from a run description that ``config`` reads and checks.  The
self-check suite and its oracles are ``validate``'s, which no command here
imports.

CSV layout is fixed (see CSV_COLUMNS): numeric columns carry raw battery
register totals, the n column supports per-battery normalization, and the
analytic reference columns hold the strong-charger closed forms of n
batteries for every n, every command's from ``analytic_reference``.
Floats are written with 17 significant digits and LF line endings so a
run is reproducible byte for byte given (config, seed), whatever the BLAS
thread count, on one numpy build and BLAS kernel.  Every
line comes from one formatter, ``_format_rows``, GRID_BLOCK grid points
at a time, and is written as it is made; ``write_csv`` reports each file.

Each command runs its trajectories one after another, in run order, each
CSV key once (fig1 and fig3 on the register's systems, ``_register_systems``),
with BLAS on one thread by default (``cli.main``).  Every refusal comes
before the first run: a config section a command would not read, a
system too big for memory (``ModelSpec``), and each run's grid,
eigenstate pattern and window (``dynamics.check_run``); fig4's seeds share
one model, charger kind and grid, so it checks that window once.
"""

from __future__ import annotations

import numpy as np

from .analytic import (AnalyticParams, ergotropy_analytic, linear_entropy_analytic,
                       stored_energy_analytic)
from .config import ExperimentConfig, InitialStateSpec, ModelSpec, TimeGrid, replace
from .dynamics import check_run, trajectory
from .linalg import GRID_BLOCK
from .model import battery_energies
from .observables import (WORK_FLOOR, MeritSeries, charging_power, ergotropy, merit_series,
                          reduced_states)

CSV_COLUMNS = ("t", "dE_num", "xi_num", "SL_num", "P_num",
               "dE_ana", "xi_ana", "SL_ana", "P_ana", "n", "L", "kappa", "seed")

BATTERY_COUNTS = (1, 2, 3, 4)
FIG3_KAPPAS = (0.25, 0.5, 1.0, 2.0, 4.0)
FIG4_SEEDS = 3
POWER_PEAK_COEFF = 1.45  # bounds the peak power coefficient 2 sin^2(x)/x = 1.44922, tan x = 2x


def write_csv(path, lines, label: str) -> None:
    """Write the CSV_COLUMNS header, then each of ``lines`` (from
    ``_format_rows``) as it is read, with LF endings; once the file is
    closed, print the ``label`` line that reports its row count."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write(",".join(CSV_COLUMNS) + "\n")
        handle.writelines(line + "\n" for line in lines)
    print(f"{label}: wrote {len(lines)} rows to {path}")


def read_csv(path) -> dict[str, np.ndarray]:
    """Read a dataset written by write_csv into column arrays (NaN = empty).

    The cells are parsed line by line into one float array, so no string of
    a cell outlives its line."""
    with open(path, encoding="utf-8") as handle:
        header = handle.readline().strip().split(",")
        if tuple(header) != CSV_COLUMNS:
            raise ValueError(f"unexpected CSV header {header}")
        table = np.fromiter(_csv_cells(handle), dtype=float)
    return dict(zip(CSV_COLUMNS, table.reshape(-1, len(CSV_COLUMNS)).T.copy()))


def _csv_cells(lines):
    """Every cell of the non-blank data ``lines`` as a float, NaN when empty."""
    for number, line in enumerate(lines, start=2):
        cells = line.strip().split(",")
        if cells == [""]:
            continue
        if len(cells) != len(CSV_COLUMNS):
            raise ValueError(f"CSV line {number} has {len(cells)} cells, "
                             f"expected {len(CSV_COLUMNS)}")
        yield from (float(cell) if cell else np.nan for cell in cells)


def analytic_reference(spec: ModelSpec, times):
    """Closed-form (dE, xi, SL, P) columns of spec.n batteries: n times one
    battery's dE, xi and charging_power(dE), and the cat charger's SL."""
    times = np.asarray(times, dtype=float)
    p = AnalyticParams(spec.delta, spec.kappa)
    stored = stored_energy_analytic(p, times)
    return (spec.n * stored, spec.n * ergotropy_analytic(p, times),
            linear_entropy_analytic(p, times, spec.n), spec.n * charging_power(stored, times))


def run_series(spec: ModelSpec, init: InitialStateSpec, times, seed: int | None = None
               ) -> MeritSeries:
    """Trajectory, its reduced states, then all figures of merit on a grid;
    a random charger is drawn from ``seed``."""
    traj = trajectory(spec, init, times, seed)
    return merit_series(traj, reduced_states(traj))


def _format_rows(columns, labels):
    """The CSV lines of the equal-length float ``columns`` (None for a blank
    column), one per entry, each ending in the (n, L, kappa, seed)
    ``labels``: every line fills one "%.17g" template whose label and blank
    cells are formatted once, and the lines are made GRID_BLOCK entries at
    a time, so only one block's cells and lines are held."""
    template = ",".join("" if col is None else "%.17g" for col in columns)
    template += ",%d,%d,%.17g,%d" % labels
    values = [np.asarray(col, dtype=float) for col in columns if col is not None]
    for lo in range(0, values[0].size, GRID_BLOCK):
        block = [col[lo:lo + GRID_BLOCK].tolist() for col in values]
        yield from (template % row for row in zip(*block))


class _SeriesLines:
    """Every run's CSV lines in run order, formatted as they are read, so
    the lines of a whole file are never held at once; len() is the row
    count."""

    def __init__(self, runs, results):
        self.pairs = list(zip(runs, results))

    def __len__(self) -> int:
        return sum(series.t.size for _, series in self.pairs)

    def __iter__(self):
        for (spec, _, seed), series in self.pairs:
            yield from _format_rows((series.t, series.stored_energy, series.ergotropy,
                                     series.linear_entropy, series.power,
                                     *analytic_reference(spec, series.t)),
                                    (spec.n, spec.L, spec.kappa, seed))


def _max_gap(a, b) -> float:
    """Largest absolute entry of a - b."""
    return float(np.max(np.abs(np.subtract(a, b))))


def _collapse(symbol: str, column: str, runs, results, reference) -> None:
    """Print, one fig1 line per run, the largest deviation of its per-battery
    ``column`` from a single-battery reference curve."""
    for (spec, _, _), series in zip(runs, results):
        dev = _max_gap(getattr(series, column) / spec.n, reference)
        print(f"fig1 (L={spec.L}, n={spec.n}): max |{symbol}/n - {symbol}_ana| = {dev:.3e}")


def _refuse_sweep(command: str, config: ExperimentConfig) -> None:
    """A command that sweeps nothing fails on a sweep section instead of
    ignoring it."""
    if config.sweep is not None:
        raise ValueError(f"{command} runs no sweep; remove the config's sweep section")


def _refuse_spacing(command: str, model: ModelSpec) -> None:
    """A command that runs every system at the equispaced spacing L/n fails
    on a configured spacing other than that instead of dropping it; a
    single battery sits at site 1 whatever d is."""
    if model.n >= 2 and model.d * model.n != model.L:
        raise ValueError(f"{command} runs every system at the equispaced spacing L/n; "
                         f"remove the config's model.d ({model.d})")


def _refuse_no_battery(command: str, specs) -> None:
    """A command that compares each battery with the one-battery closed
    forms fails, before the first run, on a system without one, naming it."""
    for spec in specs:
        if spec.n == 0:
            raise ValueError(f"{command} compares each battery with the one-battery closed "
                             f"forms; the (L, n) = ({spec.L}, 0) system has no battery")


def _register_systems(command: str, model: ModelSpec):
    """The (L, n) systems of ``model``'s L + n qubits, one for each n of
    BATTERY_COUNTS that divides a ring of two sites or more; none is refused."""
    qubits = model.qubits
    systems = [(qubits - n, n) for n in BATTERY_COUNTS if qubits - n >= 2 and qubits % n == 0]
    if not systems:
        raise ValueError(f"{command}: no n of 1..4 divides a ring of L >= 2 sites at "
                         f"L + n = {qubits}")
    return systems


def cmd_fig1(config: ExperimentConfig, collapse_systems=None) -> None:
    """Ergotropy, linear entropy and charging power vs time, single battery
    plus collapse set (the paper's Figs. 1 and 2).

    The configured model is the single-battery panel.  The collapse systems
    are its register's others (``_register_systems``, or ``collapse_systems``,
    an override for the benchmark and a few tests: ROADMAP item 10), none
    run twice, all at L/n with the same couplings.  Per battery, the
    ergotropy, then the power, is compared with the one-battery curve; in
    between, for a cat charger, each system's linear entropy with the cat's
    closed form for its n (the SL_ana column whatever the charger).  A sweep
    section and a system without a battery are refused.
    """
    _refuse_sweep("fig1", config)
    init = config.initial or InitialStateSpec()
    times = config.grid.times()
    model = config.model
    systems = _register_systems("fig1", model) if collapse_systems is None else collapse_systems
    specs = [model] + [replace(model, L=L, n=n, d=None) for L, n in systems
                       if (L, n) != (model.L, model.n)]
    _refuse_no_battery("fig1", specs)
    runs = [(spec, init, config.seed) for spec in specs]
    for spec in specs:
        check_run(spec, init, times)
    results = [run_series(spec, init, times, seed) for spec, init, seed in runs]
    single = AnalyticParams(model.delta, model.kappa)
    _collapse("xi", "ergotropy", runs, results, ergotropy_analytic(single, times))
    if init.charger_kind in ("ghz_plus", "ghz_minus"):
        for spec, series in zip(specs, results):
            dev = _max_gap(series.linear_entropy, linear_entropy_analytic(single, times, spec.n))
            print(f"fig1 (L={spec.L}, n={spec.n}): max |SL - SL_ana| = {dev:.3e}")
    _collapse("P", "power", runs, results,
              charging_power(stored_energy_analytic(single, times), times))
    write_csv(config.output_path, _SeriesLines(runs, results), "fig1")


def cmd_fig3(config: ExperimentConfig) -> None:
    """Peak per-battery ergotropy and power as a function of the coupling.

    Each (kappa, n) point is scanned over one full oscillation period
    [0, 2 pi / omega] with the configured number of grid points (the
    default window would miss the peaks at weak coupling).  One summary
    row per point; kappa grid and period-long window are artifact choices.
    Every point runs one of the register's systems (``_register_systems``,
    refused first if there is none) at the spacing L/n, and another
    configured spacing is refused.
    The kappa grid is the values of the config's sweep section, which must
    sweep kappa, else FIG3_KAPPAS.  The grid section sets the number of
    points only: a window other than the default is refused, as is a point
    whose omega, period or n-battery bound n POWER_PEAK_COEFF delta kappa^2
    / omega on the peak power leaves the float range.  A row's numeric and
    closed-form (``analytic_reference``) cells are reduced alike from the
    columns on the point's grid: dE, xi and P are the column maxima, and t
    and SL are read at the numeric ergotropy peak.  A point whose peak
    ergotropy is at most WORK_FLOOR has no work, so no peak: its ``t``,
    ``SL_num`` and ``SL_ana`` cells are left empty.  Every refusal comes before
    the first run, each point's ``check_run`` on its window [0, period]
    among them; the points then run one at a time, each printing its
    line as its row is made.
    """
    systems = _register_systems("fig3", config.model)
    _refuse_spacing("fig3", config.model)
    if config.sweep is not None and config.sweep.parameter != "kappa":
        raise ValueError(f"fig3 sweeps kappa only; the config sweeps {config.sweep.parameter}")
    window, default = (config.grid.t_start, config.grid.t_end), TimeGrid()
    if window != (default.t_start, default.t_end):
        raise ValueError(f"fig3 scans [0, 2 pi / omega] and reads only grid.steps; remove the "
                         f"config's grid window [{window[0]}, {window[1]}]")
    kappas = FIG3_KAPPAS if config.sweep is None else config.sweep.values
    init = config.initial or InitialStateSpec()
    specs = [replace(config.model, L=L, n=n, d=None, kappa=k) for L, n in systems for k in kappas]
    points = []
    for spec in specs:
        p = AnalyticParams(spec.delta, spec.kappa)
        if p.omega == 0.0:
            raise ValueError("cannot scan a period for delta = kappa = 0")
        point = f"fig3 (n={spec.n}, kappa={spec.kappa})"
        if p.omega == np.inf:
            raise ValueError(f"{point}: omega = sqrt(delta^2 + 4 kappa^2) = inf leaves the "
                             "float range")
        period = 2.0 * np.pi / p.omega
        # kappa / omega <= 1/2 first and n last, so no partial product overflows early
        peak_power = spec.n * (POWER_PEAK_COEFF * p.delta * p.kappa * (p.kappa / p.omega))
        if not np.isfinite([period, peak_power]).all():
            raise ValueError(f"{point}: period 2 pi / omega = {period:.3g} or peak power "
                             f"{peak_power:.3g} leaves the float range")
        check_run(spec, init, (0.0, period))
        points.append((spec, period))
    if config.sweep is None:
        print(f"fig3: kappa grid {FIG3_KAPPAS} is an artifact default, "
              "not a reference-pinned set")
    rows = []
    for spec, period in points:
        times = np.linspace(0.0, period, config.grid.steps)
        series = run_series(spec, init, times, config.seed)
        k = int(np.argmax(series.ergotropy))
        working = series.ergotropy[k] > WORK_FLOOR
        peaks = [(energy.max(), work.max(), entropy[k] if working else None, power.max())
                 for energy, work, entropy, power in (
                     (series.stored_energy, series.ergotropy, series.linear_entropy, series.power),
                     analytic_reference(spec, times))]
        rows.extend(_format_rows([None if cell is None else (cell,) for cell in
                                  (series.t[k] if working else None, *peaks[0], *peaks[1])],
                                 (spec.n, spec.L, spec.kappa, config.seed)))
        (_, work, _, power), (_, work_ana, _, power_ana) = peaks
        print(f"fig3 (n={spec.n}, kappa={spec.kappa}): {'' if working else 'no work, '}"
              f"max xi/n = {work / spec.n:.5g} (closed form {work_ana / spec.n:.5g}), "
              f"max P/n = {power / spec.n:.5g} (closed form {power_ana / spec.n:.5g})")
    write_csv(config.output_path, rows, "fig3")


def _run_with_spectral(spec: ModelSpec, times, seed: int):
    """The merit series of a random charger drawn from ``seed`` and its
    spectral ergotropy column, both from one set of reduced states, which
    are dropped on return."""
    traj = trajectory(spec, InitialStateSpec("random"), times, seed)
    cells = reduced_states(traj)
    levels = battery_energies(spec.n, spec.delta)
    return merit_series(traj, cells), ergotropy(cells, levels, traj.layout)


def cmd_fig4(config: ExperimentConfig) -> None:
    """Ergotropy vs time for FIG4_SEEDS random charger preparations.

    Run k draws its charger from the seed its CSV rows carry, config.seed +
    k; the last must fit in 64 unsigned bits as the first does.  Each is its
    own Chebyshev run (``_run_with_spectral``), one held at a time.  Reports
    pairwise curve deviations for both ergotropy conventions (only the
    population one collapses as h -> 0; the spectral one keeps an
    O(2**(-L/2)) seed-dependent coherence bump near the window edges).  A
    sweep or initial section is refused, since fig4 sets every charger
    itself, and so is a model without a battery.  The seeds share one model,
    charger kind and grid, so one ``check_run`` checks them before any runs.
    """
    _refuse_sweep("fig4", config)
    _refuse_no_battery("fig4", [config.model])
    if config.initial is not None:
        raise ValueError("fig4 runs random chargers seeded seed, seed + 1, ...; "
                         "remove the config's initial section")
    seeds = [config.seed + k for k in range(FIG4_SEEDS)]
    if seeds[-1] >= 2 ** 64:
        raise ValueError(f"fig4 runs seeds seed..seed + {FIG4_SEEDS - 1}, so seed must be at "
                         f"most {2 ** 64 - FIG4_SEEDS}, got {config.seed}")
    init, times = InitialStateSpec("random"), config.grid.times()
    check_run(config.model, init, times)
    runs = [(config.model, init, seed) for seed in seeds]
    results, spectral = zip(*(_run_with_spectral(spec, times, seed) for spec, _, seed in runs))
    # at each time the widest pair is (max, min), so ptp is the largest pairwise gap exactly
    pair_pop = float(np.max(np.ptp([series.ergotropy for series in results], axis=0)))
    pair_spec = float(np.max(np.ptp(spectral, axis=0)))
    # per battery, as _collapse compares: the closed form is for one battery
    reference = ergotropy_analytic(AnalyticParams(config.model.delta, config.model.kappa), times)
    vs_analytic = max(_max_gap(series.ergotropy / config.model.n, reference)
                      for series in results)
    print(f"fig4: pairwise max |xi_i - xi_j| = {pair_pop:.3e} "
          f"(spectral convention {pair_spec:.3e}), "
          f"max |xi/n - xi_ana| = {vs_analytic:.3e}")
    write_csv(config.output_path, _SeriesLines(runs, results), "fig4")


def cmd_sweep(config: ExperimentConfig) -> None:
    """Time series for each value of the swept parameter (kappa or n).  An n
    sweep runs every n at the equispaced spacing L/n, and refuses a
    configured spacing other than that."""
    if config.sweep is None:
        raise ValueError("sweep command needs a 'sweep' section in the config")
    if config.sweep.parameter == "n":
        _refuse_spacing("sweep", config.model)
    init = config.initial or InitialStateSpec()
    times = config.grid.times()
    runs = [(replace(config.model, kappa=value) if config.sweep.parameter == "kappa"
             else replace(config.model, n=value, d=None), init, config.seed)
            for value in config.sweep.values]
    for spec, init, _ in runs:
        check_run(spec, init, times)
    results = [run_series(spec, init, times, seed) for spec, init, seed in runs]
    write_csv(config.output_path, _SeriesLines(runs, results),
              f"sweep ({config.sweep.parameter})")
