"""Experiment runners: reproducible CSV datasets for the time-series,
collapse, coupling-sweep and random-initial-state studies, plus a
self-check suite comparing the exact-diagonalization pipeline against the
closed forms.

CSV layout is fixed (see CSV_COLUMNS): numeric columns carry raw battery
register totals, the n column supports per-battery normalization, and the
analytic reference columns are filled for n = 1 and n = 2 only (there is
no closed form beyond two batteries; the linear-entropy reference exists
only for n = 1).  Floats are written with 17 significant digits and LF
line endings so a run is reproducible byte for byte given (config, seed).
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .analytic import (
    AnalyticParams,
    amplitudes,
    bisect_window,
    charging_time,
    ergotropy_analytic,
    linear_entropy_analytic,
    max_ergotropy,
    max_power,
    power_analytic,
    power_at_T,
    stored_energy_analytic,
    two_battery,
    unavailable_analytic,
    window_times,
)
from .dynamics import InitialStateSpec, ghz_plus, trajectory
from .linalg import eigh, evolve_on_grid, expm_series_oracle
from .model import (
    ModelSpec,
    _battery_xmask,
    _zvalues,
    battery_energies,
    battery_positions,
    build_batteries,
    build_charger,
    build_coupling,
    build_total,
    config_fields,
    integral,
    real,
)
from .observables import MeritSeries, charging_power, merit_series, reduce_to_battery

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
        return cls(**config_fields(cls, "sweep", data, required=("parameter", "values")))


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

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        kwargs = config_fields(cls, "config", data, ints=("seed",))
        for key, section in (("model", ModelSpec), ("initial", InitialStateSpec),
                             ("grid", TimeGrid), ("sweep", SweepSpec)):
            if kwargs.get(key) is None:
                kwargs.pop(key, None)  # null keeps the default section
            else:
                kwargs[key] = section.from_dict(kwargs[key])
        if "output_path" in kwargs:
            kwargs["output_path"] = str(kwargs["output_path"])
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
    """Write rows matching CSV_COLUMNS with full precision and LF endings."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write(",".join(CSV_COLUMNS) + "\n")
        for row in rows:
            handle.write(",".join(_fmt(v) for v in row) + "\n")


def read_csv(path) -> dict[str, np.ndarray]:
    """Read a dataset written by write_csv into column arrays (NaN = empty)."""
    with open(path, encoding="utf-8") as handle:
        header = handle.readline().strip().split(",")
        if tuple(header) != CSV_COLUMNS:
            raise ValueError(f"unexpected CSV header {header}")
        cells = [line.strip().split(",") for line in handle if line.strip()]
    columns = {}
    for j, name in enumerate(CSV_COLUMNS):
        columns[name] = np.array(
            [float(row[j]) if row[j] else np.nan for row in cells]
        )
    return columns


def analytic_reference(spec: ModelSpec, times):
    """Closed-form (dE, xi, SL, P) columns for n in {1, 2}; None otherwise."""
    times = np.asarray(times, dtype=float)
    p = AnalyticParams.from_model(spec)
    if spec.n == 1:
        stored = stored_energy_analytic(p, times)
        return (
            stored,
            ergotropy_analytic(p, times),
            linear_entropy_analytic(p, times),
            power_analytic(p, times),
        )
    if spec.n == 2:
        pair = two_battery(p, times)
        return pair.stored_energy, pair.ergotropy, None, charging_power(pair.stored_energy, times)
    return None, None, None, None


def run_series(spec: ModelSpec, init: InitialStateSpec, times,
               decomposition=None) -> MeritSeries:
    """Trajectory plus all figures of merit on a grid."""
    return merit_series(trajectory(spec, init, times, decomposition))


def _series_rows(series: MeritSeries, spec: ModelSpec, seed: int) -> list[tuple]:
    blank = [None] * series.t.size
    analytic = [blank if col is None else col for col in analytic_reference(spec, series.t)]
    labels = (spec.n, spec.L, spec.kappa, seed)
    return [
        row + labels
        for row in zip(series.t, series.stored_energy, series.ergotropy,
                       series.linear_entropy, series.power, *analytic)
    ]


def _parallel_map(fn, items, jobs: int) -> list:
    """Map preserving input order; thread pool is safe since the heavy
    kernels (LAPACK, matmul) release the GIL."""
    if jobs <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items))


def _map_series(runs, times, jobs: int, decomposition=None) -> list[MeritSeries]:
    """run_series for each (spec, init, seed) run on one grid, in run order."""
    return _parallel_map(
        lambda run: run_series(run[0], run[1], times, decomposition), runs, jobs
    )


def _write_series(label: str, path, runs, results) -> None:
    """One CSV of every run's series, rows in run order."""
    rows = [row for (spec, _, seed), series in zip(runs, results)
            for row in _series_rows(series, spec, seed)]
    write_csv(path, rows)
    print(f"{label}: wrote {len(rows)} rows to {path}")


def _collapse(command: str, symbol: str, column: str, runs, results, reference):
    """(L, n, max deviation) of each run's per-battery ``column`` from a
    single-battery reference curve, printed one line per run, and the
    largest of these deviations."""
    systems, worst = [], 0.0
    for (spec, _, _), series in zip(runs, results):
        dev = float(np.max(np.abs(getattr(series, column) / max(spec.n, 1) - reference)))
        systems.append((spec.L, spec.n, dev))
        worst = max(worst, dev)
        print(f"{command} (L={spec.L}, n={spec.n}): max |{symbol}/n - {symbol}_ana| = {dev:.3e}")
    return systems, worst


def cmd_fig1(config: ExperimentConfig,
             collapse_systems=FIG1_COLLAPSE_SYSTEMS, jobs: int = 1) -> dict:
    """Ergotropy and linear entropy vs time, single battery plus collapse set.

    The configured model is the single-battery panel; ``collapse_systems``
    are (L, n) pairs run with the same couplings for the per-battery
    collapse onto the single-battery curve.
    """
    times = config.grid.times()
    specs = [config.model] + [
        replace(config.model, L=ls, n=ns, d=None) for ls, ns in collapse_systems
    ]
    runs = [(spec, config.initial, config.seed) for spec in specs]
    results = _map_series(runs, times, jobs)
    single = AnalyticParams.from_model(config.model)
    systems, worst = _collapse("fig1", "xi", "ergotropy", runs, results,
                               ergotropy_analytic(single, times))
    summary = {"systems": systems, "max_xi_collapse": worst}
    entropy_dev = float(np.max(np.abs(
        results[0].linear_entropy - linear_entropy_analytic(single, times)
    )))
    summary["max_entropy_deviation"] = entropy_dev
    print(f"fig1 (L={config.model.L}, n={config.model.n}): max |SL - SL_ana| = {entropy_dev:.3e}")
    _write_series("fig1", config.output_path, runs, results)
    return summary


def cmd_fig2(config: ExperimentConfig, systems=FIG2_SYSTEMS, jobs: int = 1) -> dict:
    """Charging power vs time for growing battery count (per-battery collapse).

    The (L, n) pairs run are ``systems``, with the configured couplings; the
    configured (L, n) must be one of them.
    """
    if (config.model.L, config.model.n) not in systems:
        raise ValueError(
            f"fig2 runs the fixed (L, n) systems {tuple(systems)}; the configured "
            f"model (L={config.model.L}, n={config.model.n}) is not one of them"
        )
    times = config.grid.times()
    runs = [(replace(config.model, L=ls, n=ns, d=None), config.initial, config.seed)
            for ls, ns in systems]
    results = _map_series(runs, times, jobs)
    reference = power_analytic(AnalyticParams.from_model(config.model), times)
    collapse, worst = _collapse("fig2", "P", "power", runs, results, reference)
    _write_series("fig2", config.output_path, runs, results)
    return {"systems": collapse, "max_power_collapse": worst,
            "peak_power_times": [series.peak_power_time for series in results]}


def cmd_fig3(config: ExperimentConfig, kappas=None, n_values=(1, 2, 3, 4),
             total_qubits: int = FIG3_TOTAL_QUBITS, jobs: int = 1) -> dict:
    """Peak per-battery ergotropy and power as a function of the coupling.

    Each (kappa, n) point is scanned over one full oscillation period
    [0, 2 pi / omega] with the configured number of grid points (the
    default window would miss the peaks at weak coupling).  One summary
    row per point; kappa grid and period-long window are artifact choices.
    Every point has L + n = ``total_qubits``, which the configured model
    must match.
    """
    if config.model.L + config.model.n != total_qubits:
        systems = tuple((total_qubits - n, n) for n in n_values)
        raise ValueError(
            f"fig3 runs the fixed (L, n) systems {systems} with L + n = {total_qubits}; "
            f"the configured model has L + n = {config.model.L + config.model.n}"
        )
    if kappas is None:
        if config.sweep is not None and config.sweep.parameter == "kappa":
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
    results = _parallel_map(
        lambda task: run_series(task[0], config.initial, task[1]), tasks, jobs
    )
    rows, summary = [], {"points": []}
    for (spec, times), series in zip(tasks, results):
        p = AnalyticParams.from_model(spec)
        scale = spec.n if spec.n in (1, 2) else None
        peak_p_ana = POWER_PEAK_COEFF * p.delta * p.kappa ** 2 / p.omega
        sl_at_peak = series.linear_entropy[int(np.argmax(series.ergotropy))]
        rows.append((
            series.peak_ergotropy_time,
            series.peak_stored,
            series.peak_ergotropy,
            float(sl_at_peak),
            series.peak_power,
            None if scale is None else scale * p.delta * 4 * p.kappa ** 2 / p.omega ** 2,
            None if scale is None else scale * max_ergotropy(p),
            linear_entropy_analytic(p, charging_time(p)) if spec.n == 1 else None,
            None if scale is None else scale * peak_p_ana,
            spec.n, spec.L, spec.kappa, config.seed,
        ))
        summary["points"].append({
            "n": spec.n, "kappa": spec.kappa,
            "peak_ergotropy_per_battery": series.peak_ergotropy / spec.n,
            "peak_power_per_battery": series.peak_power / spec.n,
            "analytic_peak_ergotropy": max_ergotropy(p),
            "analytic_peak_power": peak_p_ana,
            "analytic_peak_power_exact": max_power(p)[1],
        })
        print(f"fig3 (n={spec.n}, kappa={spec.kappa}): "
              f"max xi/n = {series.peak_ergotropy / spec.n:.5f} "
              f"(closed form {max_ergotropy(p):.5f}), "
              f"max P/n = {series.peak_power / spec.n:.5f} "
              f"(approx {peak_p_ana:.5f})")
    write_csv(config.output_path, rows)
    print(f"fig3: wrote {len(rows)} rows to {config.output_path}")
    return summary


def cmd_fig4(config: ExperimentConfig, n_seeds: int = 3, jobs: int = 1) -> dict:
    """Ergotropy vs time for several random charger preparations.

    Seeds are config.seed, config.seed + 1, ...; the model decomposition is
    shared across realizations.  Reports pairwise curve deviations for both
    ergotropy conventions (only the population one collapses as h -> 0;
    the spectral one keeps an O(2**(-L/2)) seed-dependent coherence bump
    near the window edges).
    """
    times = config.grid.times()
    seeds = [config.seed + k for k in range(n_seeds)]
    runs = [(config.model, InitialStateSpec("random", seed=seed), seed) for seed in seeds]
    results = _map_series(runs, times, jobs, build_total(config.model).decomposition())
    pair_pop, pair_spec = 0.0, 0.0
    for i in range(len(results)):
        for j in range(i + 1, len(results)):
            pair_pop = max(pair_pop, float(np.max(np.abs(
                results[i].ergotropy - results[j].ergotropy
            ))))
            pair_spec = max(pair_spec, float(np.max(np.abs(
                results[i].ergotropy_spectral - results[j].ergotropy_spectral
            ))))
    reference = ergotropy_analytic(AnalyticParams.from_model(config.model), times)
    vs_analytic = max(
        float(np.max(np.abs(series.ergotropy - reference)))
        for series in results
    )
    summary = {
        "seeds": seeds,
        "pairwise_max_deviation": pair_pop,
        "pairwise_max_deviation_spectral": pair_spec,
        "max_deviation_vs_analytic": vs_analytic,
    }
    print(f"fig4: pairwise max |xi_i - xi_j| = {pair_pop:.3e} "
          f"(spectral convention {pair_spec:.3e}), "
          f"max |xi - xi_ana| = {vs_analytic:.3e}")
    _write_series("fig4", config.output_path, runs, results)
    return summary


def cmd_sweep(config: ExperimentConfig, jobs: int = 1) -> dict:
    """Time series for each value of the swept parameter (kappa or n)."""
    if config.sweep is None:
        raise ValueError("sweep command needs a 'sweep' section in the config")
    times = config.grid.times()
    init = config.initial
    if init.charger_kind == "random" and init.seed is None:
        init = replace(init, seed=config.seed)
    runs = [(replace(config.model, kappa=value) if config.sweep.parameter == "kappa"
             else replace(config.model, n=value, d=None), init, config.seed)
            for value in config.sweep.values]
    results = _map_series(runs, times, jobs)
    _write_series(f"sweep ({config.sweep.parameter})", config.output_path, runs, results)
    return {"values": config.sweep.values}


# ---------------------------------------------------------------------------
# self-check suite


def _corrupted_coupling(spec: ModelSpec) -> np.ndarray:
    """Deliberately wrong interaction (z-type at the attachment site) used to
    prove the structural checks can fail.  A mere sign flip of kappa would be
    invisible: it is a local basis change on the battery."""
    out = np.zeros((spec.dim, spec.dim))
    idx = np.arange(spec.dim)
    for i, site in enumerate(battery_positions(spec), start=1):
        zvals = _zvalues(spec.dim, spec.n + spec.L - site)
        out[idx ^ _battery_xmask(spec, i), idx] += -spec.kappa * zvals
    return out


def _commutator_max(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(a @ b - b @ a)))


def _naive_partial_trace(psi: np.ndarray, L: int, n: int) -> np.ndarray:
    """Index-looped reference partial trace (oracle, intentionally slow)."""
    rho = np.zeros((1 << n, 1 << n), dtype=np.complex128)
    for a in range(1 << n):
        for b in range(1 << n):
            acc = 0.0 + 0.0j
            for c in range(1 << L):
                acc += psi[(c << n) | a] * np.conj(psi[(c << n) | b])
            rho[a, b] = acc
    return rho


def cmd_validate(quick: bool = False) -> int:
    """Run the cross-check suite; print one line per check, nonzero on failure.

    quick=True shrinks the exact-diagonalization sizes for smoke testing;
    the full run uses the production (L=10, n=2) system.
    """
    checks = []

    def check(name: str, ok: bool, detail: str) -> None:
        checks.append(ok)
        print(f"CHECK {name} {'PASS' if ok else 'FAIL'} {detail}")

    rng = np.random.default_rng(20240601)

    # independent propagators agree on random Hermitian generators
    worst = 0.0
    dims = (8, 16) if quick else (8, 16, 32)
    for dim in dims:
        raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        ham = (raw + raw.conj().T) / 2
        psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        psi /= np.linalg.norm(psi)
        evolved = evolve_on_grid(eigh(ham), psi, [0.1, 1.0])
        for state, t in zip(evolved, (0.1, 1.0)):
            diff = np.max(np.abs(state - expm_series_oracle(ham, psi, t)))
            worst = max(worst, float(diff))
    for L, n in ((2, 1), (3, 2)):
        spec = ModelSpec(L, n, d=1, J=1.0, h=0.3, delta=0.4, kappa=0.8)
        total = build_total(spec)
        psi = rng.standard_normal(spec.dim) + 1j * rng.standard_normal(spec.dim)
        psi /= np.linalg.norm(psi)
        diff = np.max(np.abs(
            evolve_on_grid(total.decomposition(), psi, [0.7])[0]
            - expm_series_oracle(total.matrix, psi, 0.7)
        ))
        worst = max(worst, float(diff))
    check("propagator_oracle_agreement", worst <= 1e-8, f"max amplitude diff {worst:.2e}")

    # partial trace against the index-looped oracle
    worst = 0.0
    for L, n in ((2, 1), (3, 2), (4, 2), (3, 3)):
        psi = rng.standard_normal(1 << (L + n)) + 1j * rng.standard_normal(1 << (L + n))
        psi /= np.linalg.norm(psi)
        diff = np.max(np.abs(reduce_to_battery(psi, L, n) - _naive_partial_trace(psi, L, n)))
        worst = max(worst, float(diff))
    check("partial_trace_oracle", worst <= 1e-12, f"max entry diff {worst:.2e}")

    # amplitude normalization over random parameters
    worst = 0.0
    for _ in range(50 if quick else 200):
        p = AnalyticParams(rng.uniform(0, 3), rng.uniform(0, 3))
        a, b = amplitudes(p, rng.uniform(0, 10))
        worst = max(worst, float(abs(abs(a) ** 2 + abs(b) ** 2 - 1.0)))
    check("amplitude_normalization", worst <= 1e-12, f"max | |A|^2+|B|^2 - 1 | {worst:.2e}")

    # closed-form consistency chain at strong coupling
    p = AnalyticParams(0.5, 2.0)
    t_charge = charging_time(p)
    t1, t2 = window_times(p)
    inside = np.linspace(t1 + 1e-6, t2 - 1e-6, 101)
    identity_dev = float(np.max(np.abs(
        stored_energy_analytic(p, inside) - ergotropy_analytic(p, inside)
        - unavailable_analytic(p, inside)
    )))
    chain_dev = max(
        identity_dev,
        abs(power_at_T(p) - stored_energy_analytic(p, t_charge) / t_charge),
        abs(max_ergotropy(p) - ergotropy_analytic(p, t_charge)),
        abs((t1 + t2) - 2 * t_charge),
    )
    bis = bisect_window(p)
    chain_dev = max(chain_dev, abs(bis[0] - t1), abs(bis[1] - t2))
    period = 2 * np.pi / p.omega
    sample = np.linspace(0, period, 37)
    chain_dev = max(chain_dev, float(np.max(np.abs(
        ergotropy_analytic(p, sample) - ergotropy_analytic(p, sample + period)
    ))))
    check("analytic_consistency", chain_dev <= 1e-8, f"max identity residual {chain_dev:.2e}")

    # two-battery closed forms are exactly twice the single-battery ones
    t_random = rng.uniform(0, 10, 100)
    pair = two_battery(p, t_random)
    twice_dev = max(
        float(np.max(np.abs(pair.stored_energy - 2 * stored_energy_analytic(p, t_random)))),
        float(np.max(np.abs(pair.ergotropy - 2 * ergotropy_analytic(p, t_random)))),
    )
    occupancy_ok = bool(np.all(pair.lambda1 + pair.lambda4 <= 1 + 1e-12))
    check("two_battery_twice_analytic",
          twice_dev <= 1e-12 and occupancy_ok,
          f"max residual {twice_dev:.2e}, corner populations bounded {occupancy_ok}")

    # commuting structure at h = 0 and detection of a corrupted interaction
    spec0 = ModelSpec(4, 2, J=1.0, h=0.0, delta=0.5, kappa=2.0)
    h_c = build_charger(spec0).matrix
    rest = build_batteries(spec0).matrix + build_coupling(spec0).matrix
    comm = _commutator_max(h_c, rest)
    check("commutator_h0", comm <= 1e-10, f"max |[H_c, H_b+V]| entry {comm:.2e}")
    bad = _commutator_max(h_c, _corrupted_coupling(spec0))
    check("coupling_mutation_detected", bad > 1e-3,
          f"corrupted coupling commutator {bad:.2e} (must be far from zero)")

    # cat-state charger energy is -L*J for any transverse field
    worst = 0.0
    for L, h in ((2, 0.0), (3, 0.1), (5, 0.7)):
        spec = ModelSpec(L, 0, J=1.3, h=h)
        state = ghz_plus(L)
        energy = float(np.real(state.conj() @ (build_charger(spec).matrix @ state)))
        worst = max(worst, abs(energy + spec.L * spec.J))
    check("ghz_charger_energy", worst <= 1e-10, f"max |<H_c> + L*J| {worst:.2e}")

    # battery spectrum: levels -n d/2 + k d with binomial multiplicity
    spec_b = ModelSpec(3, 3, d=1, delta=0.7)
    full = np.sort(np.diagonal(build_batteries(spec_b).matrix))
    expected = np.sort(np.tile(battery_energies(spec_b.n, spec_b.delta), 1 << spec_b.L))
    spectrum_ok = np.allclose(full, expected, atol=1e-12)
    levels = battery_energies(spec_b.n, spec_b.delta)
    binomial_ok = all(
        int(np.sum(np.isclose(levels, spec_b.delta * (k - spec_b.n / 2))))
        == math.comb(spec_b.n, k)
        for k in range(spec_b.n + 1)
    )
    check("battery_spectrum", spectrum_ok and binomial_ok,
          f"levels match {spectrum_ok}, multiplicities binomial {binomial_ok}")

    # norm and energy conservation along a trajectory
    spec_t = ModelSpec(5, 1, h=0.1)
    total = build_total(spec_t)
    times = np.linspace(0.0, 3.0, 120)
    traj = trajectory(spec_t, InitialStateSpec(), times, total.decomposition())
    norms = np.linalg.norm(traj.states, axis=1)
    energies = np.real(np.einsum("ti,ij,tj->t", traj.states.conj(), total.matrix, traj.states))
    scale = max(1.0, float(np.max(np.abs(energies))))
    drift = max(float(np.max(np.abs(norms - 1.0))),
                float(np.ptp(energies)) / scale)
    check("trajectory_conservation", drift <= 1e-9, f"max norm/energy drift {drift:.2e}")

    # no work below the coupling threshold (zero up to roundoff)
    spec_w = ModelSpec(5, 1, h=0.1, delta=0.5, kappa=0.2)
    series = run_series(spec_w, InitialStateSpec(), np.linspace(0, 6, 240))
    peak = series.peak_ergotropy
    check("ergotropy_zero_below_threshold", peak <= 1e-12, f"max work {peak:.2e}")

    # exact diagonalization reproduces twice-the-single-battery at n = 2
    L_ed, n_ed = (4, 2) if quick else (10, 2)
    spec_ed = ModelSpec(L_ed, n_ed, h=0.1, delta=0.5, kappa=2.0)
    times = np.linspace(0.0, 2.0, 200 if quick else 2000)
    series = run_series(spec_ed, InitialStateSpec(), times)
    p_ed = AnalyticParams.from_model(spec_ed)
    dev = max(
        float(np.max(np.abs(series.ergotropy - 2 * ergotropy_analytic(p_ed, times)))),
        float(np.max(np.abs(series.stored_energy - 2 * stored_energy_analytic(p_ed, times)))),
    )
    check("two_battery_twice_ed", dev <= 0.05,
          f"L={L_ed} max |ED - 2x single| {dev:.3e}")

    failed = checks.count(False)
    print(f"validate: {len(checks) - failed}/{len(checks)} checks passed")
    return 1 if failed else 0
