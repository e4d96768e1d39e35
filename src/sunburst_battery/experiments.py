"""Experiment runners: reproducible CSV datasets for the time-series,
collapse, coupling-sweep and random-initial-state studies, plus a
self-check suite comparing the exact Chebyshev pipeline against dense
oracles and the closed forms.

CSV layout is fixed (see CSV_COLUMNS): numeric columns carry raw battery
register totals, the n column supports per-battery normalization, and the
analytic reference columns are filled for n = 1 and n = 2 only (there is
no closed form beyond two batteries; the linear-entropy reference exists
only for n = 1).  Floats are written with 17 significant digits and LF
line endings so a run is reproducible byte for byte given (config, seed),
whatever the BLAS thread count.

Each command runs its trajectories one after another, in run order; the
command line runs BLAS on one thread by default (``cli.main``).  A config
section that a command would not read fails before any run.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from itertools import combinations

import numpy as np

from .analytic import (
    AnalyticParams,
    amplitudes,
    bisect_window,
    charging_time,
    ergotropy_analytic,
    linear_entropy_analytic,
    max_ergotropy,
    power_analytic,
    power_at_T,
    stored_energy_analytic,
    two_battery,
    unavailable_analytic,
    window_times,
)
from .dynamics import InitialStateSpec, ghz_plus, random_state, trajectory
from .linalg import (
    chebyshev_series,
    eigh,
    evolve_on_grid,
    expm_series_oracle,
    row_sum_bound,
    series_states,
)
from .model import (
    ModelSpec,
    battery_energies,
    build_batteries,
    build_charger,
    build_coupling,
    build_total,
    config_fields,
    corrupted_coupling,
    integral,
    real,
    total_matvec,
)
from .observables import (
    WORK_FLOOR,
    MeritSeries,
    charging_power,
    merit_series,
    reduce_to_battery,
)

CSV_COLUMNS = ("t", "dE_num", "xi_num", "SL_num", "P_num",
               "dE_ana", "xi_ana", "SL_ana", "P_ana", "n", "L", "kappa", "seed")

DEFAULT_SEED = 1234
FIG1_COLLAPSE_SYSTEMS = ((10, 2), (9, 3), (8, 4))
FIG2_SYSTEMS = ((11, 1), (10, 2), (9, 3), (8, 4))
FIG3_KAPPAS = (0.25, 0.5, 1.0, 2.0, 4.0)
FIG3_TOTAL_QUBITS = 12
POWER_PEAK_COEFF = 1.45  # rounded coefficient of the power maximum


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid of ``steps`` points on [t_start, t_end]."""

    t_start: float = 0.0
    t_end: float = 2.0
    steps: int = 2000

    def __post_init__(self):
        if self.steps < 2:
            raise ValueError(f"grid needs at least 2 points, got {self.steps}")
        for key in ("t_start", "t_end"):
            if not math.isfinite(getattr(self, key)):
                raise ValueError(f"grid.{key} must be finite, got {getattr(self, key)!r}")
        if self.t_start < 0 or self.t_end <= self.t_start:
            raise ValueError(
                f"grid requires t_end > t_start >= 0, got [{self.t_start}, {self.t_end}]"
            )

    def times(self) -> np.ndarray:
        return np.linspace(self.t_start, self.t_end, self.steps)

    @classmethod
    def from_dict(cls, data: dict) -> "TimeGrid":
        return cls(**config_fields(cls, "grid", data, ints=("steps",),
                                   floats=("t_start", "t_end")))


@dataclass(frozen=True)
class SweepSpec:
    """One swept parameter (kappa or n) and its values."""

    parameter: str
    values: tuple

    def __post_init__(self):
        if self.parameter not in ("kappa", "n"):
            raise ValueError(f"sweep parameter must be 'kappa' or 'n', got {self.parameter!r}")
        values = tuple(self.values)
        if not values:
            raise ValueError("sweep needs at least one value")
        if self.parameter == "kappa":
            values = tuple(real("sweep.values", v) for v in values)
            if any(v < 0 for v in values):
                raise ValueError("kappa values must be non-negative")
        else:
            values = tuple(integral("sweep.values", v) for v in values)
            if any(v < 0 for v in values):
                raise ValueError("n values must be non-negative")
        object.__setattr__(self, "values", values)

    @classmethod
    def from_dict(cls, data: dict) -> "SweepSpec":
        kwargs = config_fields(cls, "sweep", data, required=("parameter", "values"))
        if not isinstance(kwargs["values"], list):
            raise ValueError(f"sweep.values must be a list, got {kwargs['values']!r}")
        return cls(**kwargs)


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one run; serializable as a single JSON document."""

    model: ModelSpec = ModelSpec(11, 1)
    initial: InitialStateSpec = InitialStateSpec()
    grid: TimeGrid = TimeGrid()
    sweep: SweepSpec | None = None
    seed: int = DEFAULT_SEED
    output_path: str = "out.csv"

    def __post_init__(self):
        seed = integral("config.seed", self.seed)
        if not 0 <= seed < 2 ** 64:
            raise ValueError(f"seed must fit in 64 unsigned bits, got {self.seed!r}")
        object.__setattr__(self, "seed", seed)

    @property
    def seeded_initial(self) -> InitialStateSpec:
        """The initial state every command runs: a random charger left
        without a seed takes the run seed."""
        if self.initial.charger_kind == "random" and self.initial.seed is None:
            return replace(self.initial, seed=self.seed)
        return self.initial

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        kwargs = config_fields(cls, "config", data, ints=("seed",))
        for key, section in (("model", ModelSpec), ("initial", InitialStateSpec),
                             ("grid", TimeGrid), ("sweep", SweepSpec)):
            # a null sweep is no sweep; any other section must be an object
            if key in kwargs and (key != "sweep" or kwargs[key] is not None):
                kwargs[key] = section.from_dict(kwargs[key])
        if not isinstance(kwargs.get("output_path", ""), str):
            raise ValueError(f"output_path must be a string, got {kwargs['output_path']!r}")
        return cls(**kwargs)


def load_config(path) -> ExperimentConfig:
    with open(path, encoding="utf-8") as handle:
        return ExperimentConfig.from_dict(json.load(handle))


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def write_csv(path, rows) -> None:
    """Write rows matching CSV_COLUMNS with full precision and LF endings.

    A row is a tuple of cells (None, an integer or a float), or a line
    already formatted the same way (``_series_rows``)."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write(",".join(CSV_COLUMNS) + "\n")
        handle.writelines((row if isinstance(row, str) else ",".join(map(_fmt, row))) + "\n"
                          for row in rows)


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
    """Closed-form (dE, xi, SL, P) columns for n in {1, 2}; None otherwise."""
    times = np.asarray(times, dtype=float)
    p = AnalyticParams.from_model(spec)
    if spec.n == 1:
        return (stored_energy_analytic(p, times), ergotropy_analytic(p, times),
                linear_entropy_analytic(p, times), power_analytic(p, times))
    if spec.n == 2:
        pair = two_battery(p, times)
        return pair.stored_energy, pair.ergotropy, None, charging_power(pair.stored_energy, times)
    return None, None, None, None


def run_series(spec: ModelSpec, init: InitialStateSpec, times) -> MeritSeries:
    """Trajectory plus all figures of merit on a grid."""
    return merit_series(trajectory(spec, init, times))


def _format_rows(columns, labels) -> list[str]:
    """One CSV line per entry of the equal-length float ``columns`` (None
    for a blank column), followed by the ``labels`` cells, each line as
    ``_fmt`` would join its cells: every line fills one "%.17g" template
    whose label and blank cells are formatted once."""
    template = ",".join("" if col is None else "%.17g" for col in columns)
    template += "," + ",".join(map(_fmt, labels))
    values = [np.asarray(col, dtype=float).tolist() for col in columns if col is not None]
    return [template % row for row in zip(*values)]


def _series_rows(series: MeritSeries, spec: ModelSpec, seed: int) -> list[str]:
    """One CSV line per grid point (``_format_rows``)."""
    columns = (series.t, series.stored_energy, series.ergotropy, series.linear_entropy,
               series.power, *analytic_reference(spec, series.t))
    return _format_rows(columns, (spec.n, spec.L, spec.kappa, seed))


class _SeriesLines:
    """Every run's CSV lines (``_series_rows``) in run order, formatted one
    run at a time as they are read, so the lines of a whole file are never
    held at once; len() is the row count."""

    def __init__(self, runs, results):
        self.pairs = list(zip(runs, results))

    def __len__(self) -> int:
        return sum(series.t.size for _, series in self.pairs)

    def __iter__(self):
        for (spec, _, seed), series in self.pairs:
            yield from _series_rows(series, spec, seed)


def _write_series(label: str, path, runs, results) -> None:
    """One CSV of every run's series, rows in run order."""
    rows = _SeriesLines(runs, results)
    write_csv(path, rows)
    print(f"{label}: wrote {len(rows)} rows to {path}")


def _max_gap(a, b) -> float:
    """Largest absolute entry of a - b."""
    return float(np.max(np.abs(np.subtract(a, b))))


def _collapse(command: str, symbol: str, column: str, runs, results, reference):
    """(L, n, max deviation) of each run's per-battery ``column`` from a
    single-battery reference curve, printed one line per run, and the
    largest of these deviations."""
    systems, worst = [], 0.0
    for (spec, _, _), series in zip(runs, results):
        dev = _max_gap(getattr(series, column) / max(spec.n, 1), reference)
        systems.append((spec.L, spec.n, dev))
        worst = max(worst, dev)
        print(f"{command} (L={spec.L}, n={spec.n}): max |{symbol}/n - {symbol}_ana| = {dev:.3e}")
    return systems, worst


def _refuse_sweep(command: str, config: ExperimentConfig) -> None:
    """A command that sweeps nothing fails on a sweep section instead of
    ignoring it."""
    if config.sweep is not None:
        raise ValueError(f"{command} runs no sweep; remove the config's sweep section")


def _refuse_large_index(command: str, init: InitialStateSpec, specs) -> None:
    """An eigenstate charger pattern must fit the ring of every system a
    command runs: checked before the first run, naming the system."""
    for spec in specs:
        if init.charger_kind == "eigenstate" and init.index >= 1 << spec.L:
            raise ValueError(f"{command}: initial.index {init.index} outside [0, 2**{spec.L}) "
                             f"for the (L, n) = ({spec.L}, {spec.n}) system")


def _refuse_spacing(command: str, model: ModelSpec) -> None:
    """A command that runs every system at the equispaced spacing L/n fails
    on a configured spacing other than that instead of dropping it; a
    single battery sits at site 1 whatever d is."""
    if model.n >= 2 and model.d * model.n != model.L:
        raise ValueError(f"{command} runs every system at the equispaced spacing L/n; "
                         f"remove the config's model.d ({model.d})")


def cmd_fig1(config: ExperimentConfig, collapse_systems=FIG1_COLLAPSE_SYSTEMS) -> dict:
    """Ergotropy and linear entropy vs time, single battery plus collapse set.

    The configured model is the single-battery panel; ``collapse_systems``
    are (L, n) pairs run with the same couplings for the per-battery
    collapse onto the single-battery curve.  A sweep section is refused.
    """
    _refuse_sweep("fig1", config)
    times = config.grid.times()
    specs = [config.model] + [
        replace(config.model, L=ls, n=ns, d=None) for ls, ns in collapse_systems
    ]
    _refuse_large_index("fig1", config.initial, specs)
    runs = [(spec, config.seeded_initial, config.seed) for spec in specs]
    results = [run_series(spec, init, times) for spec, init, _ in runs]
    single = AnalyticParams.from_model(config.model)
    systems, worst = _collapse("fig1", "xi", "ergotropy", runs, results,
                               ergotropy_analytic(single, times))
    entropy_dev = _max_gap(results[0].linear_entropy, linear_entropy_analytic(single, times))
    print(f"fig1 (L={config.model.L}, n={config.model.n}): max |SL - SL_ana| = {entropy_dev:.3e}")
    _write_series("fig1", config.output_path, runs, results)
    return {"systems": systems, "max_xi_collapse": worst, "max_entropy_deviation": entropy_dev}


def cmd_fig2(config: ExperimentConfig, systems=FIG2_SYSTEMS) -> dict:
    """Charging power vs time for growing battery count (per-battery collapse).

    The (L, n) pairs run are ``systems``, with the configured couplings, each
    at the equispaced spacing L/n; the configured (L, n) must be one of them,
    and a configured spacing other than L/n is refused, as is a sweep
    section.
    """
    _refuse_sweep("fig2", config)
    _refuse_spacing("fig2", config.model)
    if (config.model.L, config.model.n) not in systems:
        raise ValueError(
            f"fig2 runs the fixed (L, n) systems {tuple(systems)}; the configured "
            f"model (L={config.model.L}, n={config.model.n}) is not one of them"
        )
    times = config.grid.times()
    runs = [(replace(config.model, L=ls, n=ns, d=None), config.seeded_initial, config.seed)
            for ls, ns in systems]
    _refuse_large_index("fig2", config.initial, [spec for spec, _, _ in runs])
    results = [run_series(spec, init, times) for spec, init, _ in runs]
    reference = power_analytic(AnalyticParams.from_model(config.model), times)
    collapse, worst = _collapse("fig2", "P", "power", runs, results, reference)
    _write_series("fig2", config.output_path, runs, results)
    return {"systems": collapse, "max_power_collapse": worst,
            "peak_power_times": [float(series.t[np.argmax(series.power)]) for series in results]}


def cmd_fig3(config: ExperimentConfig, n_values=(1, 2, 3, 4),
             total_qubits: int = FIG3_TOTAL_QUBITS) -> dict:
    """Peak per-battery ergotropy and power as a function of the coupling.

    Each (kappa, n) point is scanned over one full oscillation period
    [0, 2 pi / omega] with the configured number of grid points (the
    default window would miss the peaks at weak coupling).  One summary
    row per point; kappa grid and period-long window are artifact choices.
    Every point has L + n = ``total_qubits``, which the configured model
    must match, and the equispaced spacing L/n (another configured spacing
    is refused).  The kappa grid is the values of the config's sweep
    section, which must sweep kappa, else FIG3_KAPPAS.  The grid section
    sets the number of points only: a window other than the default is
    refused.  A point whose peak ergotropy is at most WORK_FLOOR has no
    work, so no peak: its ``t`` and ``SL_num`` cells are left empty.
    """
    if config.model.L + config.model.n != total_qubits:
        systems = tuple((total_qubits - n, n) for n in n_values)
        raise ValueError(
            f"fig3 runs the fixed (L, n) systems {systems} with L + n = {total_qubits}; "
            f"the configured model has L + n = {config.model.L + config.model.n}"
        )
    _refuse_spacing("fig3", config.model)
    if config.sweep is not None and config.sweep.parameter != "kappa":
        raise ValueError(f"fig3 sweeps kappa only; the config sweeps {config.sweep.parameter}")
    window = (config.grid.t_start, config.grid.t_end)
    if window != (TimeGrid.t_start, TimeGrid.t_end):
        raise ValueError(f"fig3 scans [0, 2 pi / omega] and reads only grid.steps; remove the "
                         f"config's grid window [{window[0]}, {window[1]}]")
    if config.sweep is not None:
        kappas = config.sweep.values
    else:
        kappas = FIG3_KAPPAS
        print(f"fig3: kappa grid {FIG3_KAPPAS} is an artifact default, "
              "not a reference-pinned set")
    tasks = []
    for n in n_values:
        for kappa in kappas:
            spec = replace(config.model, L=total_qubits - n, n=n, d=None, kappa=kappa)
            p = AnalyticParams.from_model(spec)
            if p.omega == 0.0:
                raise ValueError("cannot scan a period for delta = kappa = 0")
            times = np.linspace(0.0, 2.0 * np.pi / p.omega, config.grid.steps)
            tasks.append((spec, times))
    _refuse_large_index("fig3", config.initial, [spec for spec, _ in tasks])
    init = config.seeded_initial
    results = [run_series(spec, init, times) for spec, times in tasks]
    rows, summary = [], {"points": []}
    for (spec, times), series in zip(tasks, results):
        p = AnalyticParams.from_model(spec)
        scale = spec.n if spec.n in (1, 2) else None
        peak_p_ana = POWER_PEAK_COEFF * p.delta * p.kappa ** 2 / p.omega
        k = int(np.argmax(series.ergotropy))
        peak_work, peak_power = float(series.ergotropy[k]), float(series.power.max())
        working = peak_work > WORK_FLOOR
        rows.append((
            float(series.t[k]) if working else None,
            float(series.stored_energy.max()),
            peak_work,
            float(series.linear_entropy[k]) if working else None,
            peak_power,
            None if scale is None else scale * p.delta * 4 * p.kappa ** 2 / p.omega ** 2,
            None if scale is None else scale * max_ergotropy(p),
            linear_entropy_analytic(p, charging_time(p)) if spec.n == 1 else None,
            None if scale is None else scale * peak_p_ana,
            spec.n, spec.L, spec.kappa, config.seed,
        ))
        summary["points"].append({
            "n": spec.n, "kappa": spec.kappa,
            "peak_ergotropy_per_battery": peak_work / spec.n,
            "peak_power_per_battery": peak_power / spec.n,
            "analytic_peak_ergotropy": max_ergotropy(p),
            "analytic_peak_power": peak_p_ana,
        })
        print(f"fig3 (n={spec.n}, kappa={spec.kappa}): {'' if working else 'no work, '}"
              f"max xi/n = {peak_work / spec.n:.5f} "
              f"(closed form {max_ergotropy(p):.5f}), "
              f"max P/n = {peak_power / spec.n:.5f} "
              f"(approx {peak_p_ana:.5f})")
    write_csv(config.output_path, rows)
    print(f"fig3: wrote {len(rows)} rows to {config.output_path}")
    return summary


def cmd_fig4(config: ExperimentConfig, n_seeds: int = 3) -> dict:
    """Ergotropy vs time for several random charger preparations.

    Seeds are config.seed, config.seed + 1, ...; each realization is its
    own Chebyshev run.  Reports pairwise curve deviations for both
    ergotropy conventions (only the population one collapses as h -> 0;
    the spectral one keeps an O(2**(-L/2)) seed-dependent coherence bump
    near the window edges).  A sweep or initial section is refused: fig4
    sets every charger itself.
    """
    _refuse_sweep("fig4", config)
    if config.initial != InitialStateSpec():
        raise ValueError("fig4 runs random chargers seeded seed, seed + 1, ...; "
                         "remove the config's initial section")
    times = config.grid.times()
    seeds = [config.seed + k for k in range(n_seeds)]
    runs = [(config.model, InitialStateSpec("random", seed=seed), seed) for seed in seeds]
    results = [run_series(spec, init, times) for spec, init, _ in runs]
    pair_pop, pair_spec = 0.0, 0.0
    for a, b in combinations(results, 2):
        pair_pop = max(pair_pop, _max_gap(a.ergotropy, b.ergotropy))
        pair_spec = max(pair_spec, _max_gap(a.ergotropy_spectral, b.ergotropy_spectral))
    # per battery, as _collapse compares: the closed form is for one battery
    reference = ergotropy_analytic(AnalyticParams.from_model(config.model), times)
    vs_analytic = max(_max_gap(series.ergotropy / max(config.model.n, 1), reference)
                      for series in results)
    summary = {
        "seeds": seeds,
        "pairwise_max_deviation": pair_pop,
        "pairwise_max_deviation_spectral": pair_spec,
        "max_deviation_vs_analytic": vs_analytic,
    }
    print(f"fig4: pairwise max |xi_i - xi_j| = {pair_pop:.3e} "
          f"(spectral convention {pair_spec:.3e}), "
          f"max |xi/n - xi_ana| = {vs_analytic:.3e}")
    _write_series("fig4", config.output_path, runs, results)
    return summary


def cmd_sweep(config: ExperimentConfig) -> dict:
    """Time series for each value of the swept parameter (kappa or n).  An n
    sweep runs every n at the equispaced spacing L/n, and refuses a
    configured spacing other than that."""
    if config.sweep is None:
        raise ValueError("sweep command needs a 'sweep' section in the config")
    if config.sweep.parameter == "n":
        _refuse_spacing("sweep", config.model)
    times = config.grid.times()
    runs = [(replace(config.model, kappa=value) if config.sweep.parameter == "kappa"
             else replace(config.model, n=value, d=None), config.seeded_initial, config.seed)
            for value in config.sweep.values]
    _refuse_large_index("sweep", config.initial, [spec for spec, _, _ in runs])
    results = [run_series(spec, init, times) for spec, init, _ in runs]
    _write_series(f"sweep ({config.sweep.parameter})", config.output_path, runs, results)
    return {"values": config.sweep.values}


# ---------------------------------------------------------------------------
# self-check suite

VALIDATE_SEED = 20240601


def _naive_partial_trace(psi: np.ndarray, L: int, n: int) -> np.ndarray:
    """Index-looped reference partial trace (oracle, intentionally slow)."""
    return np.array([[sum(psi[(c << n) | a] * np.conj(psi[(c << n) | b]) for c in range(1 << L))
                      for b in range(1 << n)] for a in range(1 << n)], dtype=np.complex128)


def propagator_gap(rng, dims, models) -> float:
    """Largest amplitude gap to expm_series_oracle, from random states, of
    both chebyshev_series (the production propagator) and evolve_on_grid
    (dense eigh): a random Hermitian matrix per size in ``dims`` at t = 0.1
    and 1.0, then each ModelSpec in ``models`` at t = 0.7, matrix-free.  All
    are drawn from ``rng`` in that order; ``models`` is read lazily, so a
    generator may draw each spec's parameters from ``rng`` too."""
    def gap(matrix, matvec, bound, times):
        psi = random_state(rng, len(matrix))
        coefficients, vectors = chebyshev_series(matvec, bound, psi, times)
        worst = 0.0
        for t, chebyshev, dense in zip(times, series_states(coefficients, vectors),
                                       evolve_on_grid(eigh(matrix), psi, times)):
            exact = expm_series_oracle(matrix, psi, t)
            worst = max(worst, _max_gap(chebyshev, exact), _max_gap(dense, exact))
        return worst

    worst = 0.0
    for dim in dims:
        raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        ham = (raw + raw.conj().T) / 2
        worst = max(worst, gap(ham, lambda v: ham @ v, row_sum_bound(ham), (0.1, 1.0)))
    for spec in models:
        worst = max(worst, gap(build_total(spec), *total_matvec(spec), (0.7,)))
    return worst


def partial_trace_gap(rng, shapes) -> float:
    """Largest entry gap of the production partial trace reduce_to_battery to
    _naive_partial_trace, over one random normalized state (drawn from
    ``rng``) per (L, n) shape."""
    worst = 0.0
    for L, n in shapes:
        psi = random_state(rng, 1 << (L + n))
        worst = max(worst, _max_gap(reduce_to_battery(psi, L, n), _naive_partial_trace(psi, L, n)))
    return worst


def amplitude_residual(rng, draws: int, param_max: float, t_max: float) -> float:
    """Largest | |A|^2 + |B|^2 - 1 | over ``draws`` random (delta, kappa, t),
    with delta and kappa uniform on [0, param_max] and t on [0, t_max]."""
    worst = 0.0
    for _ in range(draws):
        p = AnalyticParams(rng.uniform(0, param_max), rng.uniform(0, param_max))
        a, b = amplitudes(p, rng.uniform(0, t_max))
        worst = max(worst, float(abs(abs(a) ** 2 + abs(b) ** 2 - 1.0)))
    return worst


def conservation_drift(states: np.ndarray, matrix: np.ndarray) -> float:
    """Largest norm drift, or energy spread relative to max(1, |E|), along
    the rows of ``states`` evolved under the Hamiltonian ``matrix``."""
    norms = np.linalg.norm(states, axis=1)
    energies = np.real(np.einsum("ti,ij,tj->t", states.conj(), matrix, states))
    scale = max(1.0, float(np.max(np.abs(energies))))
    return max(_max_gap(norms, 1.0), float(np.ptp(energies)) / scale)


def _check_propagators(rng, quick):
    models = [ModelSpec(L, n, d=1, h=0.3, delta=0.4, kappa=0.8) for L, n in ((2, 1), (3, 2))]
    worst = propagator_gap(rng, (8, 16) if quick else (8, 16, 32), models)
    return worst <= 1e-8, f"max amplitude diff {worst:.2e}"


def _check_partial_trace(rng, quick):
    worst = partial_trace_gap(rng, ((2, 1), (3, 2), (4, 2), (3, 3)))
    return worst <= 1e-12, f"max entry diff {worst:.2e}"


def _check_amplitudes(rng, quick):
    worst = amplitude_residual(rng, 50 if quick else 200, 3.0, 10.0)
    return worst <= 1e-12, f"max | |A|^2+|B|^2 - 1 | {worst:.2e}"


def _check_analytic_chain(rng, quick):
    """Closed-form identities at strong coupling, the window by bisection
    and the period; and the rounded POWER_PEAK_COEFF against the power
    maximum sampled over one period."""
    p = AnalyticParams(0.5, 2.0)
    t_charge = charging_time(p)
    t1, t2 = window_times(p)
    inside = np.linspace(t1 + 1e-6, t2 - 1e-6, 101)
    bis = bisect_window(p)
    period = 2 * np.pi / p.omega
    sample = np.linspace(0, period, 37)
    chain_dev = max(
        _max_gap(stored_energy_analytic(p, inside) - ergotropy_analytic(p, inside),
                 unavailable_analytic(p, inside)),
        abs(power_at_T(p) - stored_energy_analytic(p, t_charge) / t_charge),
        abs(max_ergotropy(p) - ergotropy_analytic(p, t_charge)),
        abs((t1 + t2) - 2 * t_charge),
        abs(bis[0] - t1), abs(bis[1] - t2),
        _max_gap(ergotropy_analytic(p, sample), ergotropy_analytic(p, sample + period)),
    )
    peak = float(np.max(power_analytic(p, np.linspace(0, period, 2001))))
    coeff_dev = abs(peak / (POWER_PEAK_COEFF * p.delta * p.kappa ** 2 / p.omega) - 1)
    return (chain_dev <= 1e-8 and coeff_dev <= 5e-3,
            f"max identity residual {chain_dev:.2e}, power peak {coeff_dev:.2e} "
            f"from POWER_PEAK_COEFF")


def _check_two_battery_analytic(rng, quick):
    p = AnalyticParams(0.5, 2.0)
    t_random = rng.uniform(0, 10, 100)
    pair = two_battery(p, t_random)
    twice_dev = max(_max_gap(pair.stored_energy, 2 * stored_energy_analytic(p, t_random)),
                    _max_gap(pair.ergotropy, 2 * ergotropy_analytic(p, t_random)))
    occupancy_ok = bool(np.all(pair.lambda1 + pair.lambda4 <= 1 + 1e-12))
    return (twice_dev <= 1e-12 and occupancy_ok,
            f"max residual {twice_dev:.2e}, corner populations bounded {occupancy_ok}")


def _charger_commutator(spec: ModelSpec, other: np.ndarray) -> float:
    h_c = build_charger(spec)
    return float(np.max(np.abs(h_c @ other - other @ h_c)))


_COMMUTING_MODEL = ModelSpec(4, 2, h=0.0, delta=0.5, kappa=2.0)


def _check_commutator(rng, quick):
    spec = _COMMUTING_MODEL
    comm = _charger_commutator(spec, build_batteries(spec) + build_coupling(spec))
    return comm <= 1e-10, f"max |[H_c, H_b+V]| entry {comm:.2e}"


def _check_mutation(rng, quick):
    bad = _charger_commutator(_COMMUTING_MODEL, corrupted_coupling(_COMMUTING_MODEL))
    return bad > 1e-3, f"corrupted coupling commutator {bad:.2e} (must be far from zero)"


def _check_ghz_energy(rng, quick):
    worst = 0.0
    for L, h in ((2, 0.0), (3, 0.1), (5, 0.7)):
        spec = ModelSpec(L, 0, J=1.3, h=h)
        state = ghz_plus(L)
        energy = float(np.real(state.conj() @ (build_charger(spec) @ state)))
        worst = max(worst, abs(energy + spec.L * spec.J))
    return worst <= 1e-10, f"max |<H_c> + L*J| {worst:.2e}"


def _check_battery_spectrum(rng, quick):
    """Battery levels -n d/2 + k d with binomial multiplicity."""
    spec = ModelSpec(3, 3, d=1, delta=0.7)
    full = np.sort(np.diagonal(build_batteries(spec)))
    levels = battery_energies(spec.n, spec.delta)
    spectrum_ok = np.allclose(full, np.sort(np.tile(levels, 1 << spec.L)), atol=1e-12)
    binomial_ok = all(
        int(np.sum(np.isclose(levels, spec.delta * (k - spec.n / 2)))) == math.comb(spec.n, k)
        for k in range(spec.n + 1)
    )
    return (spectrum_ok and binomial_ok,
            f"levels match {spectrum_ok}, multiplicities binomial {binomial_ok}")


def _check_conservation(rng, quick):
    spec = ModelSpec(5, 1, h=0.1)
    traj = trajectory(spec, InitialStateSpec(), np.linspace(0.0, 3.0, 120))
    drift = conservation_drift(traj.states, build_total(spec))
    return drift <= 1e-9, f"max norm/energy drift {drift:.2e}"


def _check_no_work_below_threshold(rng, quick):
    spec = ModelSpec(5, 1, h=0.1, delta=0.5, kappa=0.2)
    peak = run_series(spec, InitialStateSpec(), np.linspace(0, 6, 240)).ergotropy.max()
    return peak <= 1e-12, f"max work {peak:.2e}"


def _check_two_battery_ed(rng, quick):
    L = 4 if quick else 10
    spec = ModelSpec(L, 2, h=0.1, delta=0.5, kappa=2.0)
    times = np.linspace(0.0, 2.0, 200 if quick else 2000)
    series = run_series(spec, InitialStateSpec(), times)
    p = AnalyticParams.from_model(spec)
    dev = max(_max_gap(series.ergotropy, 2 * ergotropy_analytic(p, times)),
              _max_gap(series.stored_energy, 2 * stored_energy_analytic(p, times)))
    return dev <= 0.05, f"L={L} max |ED - 2x single| {dev:.3e}"


# Every self-check as (name, check) in the order validate runs it; each
# check(rng, quick) returns (ok, detail).
CHECKS = (
    ("propagator_oracle_agreement", _check_propagators),
    ("partial_trace_oracle", _check_partial_trace),
    ("amplitude_normalization", _check_amplitudes),
    ("analytic_consistency", _check_analytic_chain),
    ("two_battery_twice_analytic", _check_two_battery_analytic),
    ("commutator_h0", _check_commutator),
    ("coupling_mutation_detected", _check_mutation),
    ("ghz_charger_energy", _check_ghz_energy),
    ("battery_spectrum", _check_battery_spectrum),
    ("trajectory_conservation", _check_conservation),
    ("ergotropy_zero_below_threshold", _check_no_work_below_threshold),
    ("two_battery_twice_ed", _check_two_battery_ed),
)


def cmd_validate(quick: bool = False) -> int:
    """Run the CHECKS table in order on one generator seeded with
    VALIDATE_SEED; print one line per check, nonzero on failure.  quick=True
    shrinks the exact-dynamics sizes for smoke testing; the full run
    uses the production (L=10, n=2) system."""
    rng = np.random.default_rng(VALIDATE_SEED)
    failed = 0
    for name, check in CHECKS:
        ok, detail = check(rng, quick)
        failed += not ok
        print(f"CHECK {name} {'PASS' if ok else 'FAIL'} {detail}")
    print(f"validate: {len(CHECKS) - failed}/{len(CHECKS)} checks passed")
    return 1 if failed else 0
