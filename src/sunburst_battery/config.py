"""The description of a run: the model, the charger preparation, the time
grid, the sweep, the seed and the output path, read from one JSON document
and checked as it is read.

This module imports the standard library only, so the command line checks
a whole config, a model or grid too big for memory included, and fails on
a bad one with one ``error:`` line, before numpy loads
(``cli.config_from_args``).  Everything that builds arrays from a config
lives in the numeric modules: the Hamiltonian in ``model``, the charger
states in ``dynamics`` (``charger_state``), the grid times in
``TimeGrid.times``, which loads numpy when it is called.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import MISSING, dataclass, fields
from numbers import Integral, Real

DEFAULT_SEED = 1234
# the least any run holds per grid point: the time, one complex
# reduced-state entry and four float merit columns
GRID_POINT_BYTES = 8 + 16 + 4 * 8
CHARGER_KINDS = ("ghz_plus", "ghz_minus", "eigenstate", "random")


def physical_memory() -> int:
    """Bytes of physical memory, as the operating system reports them."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def integral(name: str, value) -> int:
    """An integer config value; a float must be integral (11.0 is 11, 11.7 is
    an error), and a bool or string is an error.  Integers are never
    converted through float, so values beyond 2**53 (such as 64-bit seeds)
    stay exact."""
    if (isinstance(value, bool) or not isinstance(value, (Integral, float))
            or isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def real(name: str, value) -> float:
    """A floating-point config value; a bool, a string or an integer beyond
    the float range is an error.  Adding 0.0 reads -0.0 as 0, so no field
    or label is written -0."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        return float(value) + 0.0
    except OverflowError:
        raise ValueError(f"{name} is an integer beyond the float range") from None


def config_fields(cls, section: str, data) -> dict:
    """Keyword arguments for the dataclass ``cls`` from the JSON object
    ``data`` at key ``section``: every key names a field, every field with
    no default is given, and a value (but None for a None default) goes
    through integral() for a field declared ``int`` or ``int | None`` and
    through real() for ``float``.  This module postpones its annotations,
    so the declarations are strings."""
    if not isinstance(data, dict):
        raise ValueError(f"{section} must be a JSON object, got {data!r}")
    declared = {f.name: f for f in fields(cls)}
    unknown = set(data) - set(declared)
    if unknown:
        raise ValueError(f"unknown {section} keys: {sorted(unknown)}")
    missing = [name for name, f in declared.items() if f.default is MISSING and name not in data]
    if missing:
        raise ValueError(f"{section} requires the keys {missing}")
    kwargs = dict(data)
    for key, value in data.items():
        field = declared[key]
        if value is None and field.default is None:
            continue
        if field.type in ("int", "int | None"):
            kwargs[key] = integral(f"{section}.{key}", value)
        elif field.type == "float":
            kwargs[key] = real(f"{section}.{key}", value)
    return kwargs


@dataclass(frozen=True)
class ModelSpec:
    """Model parameters.  Couplings are in units of the ring bond J.

    d is the site spacing between consecutive batteries; when omitted it
    defaults to the equispaced choice L/n (which requires n to divide L).
    A register too big for physical memory is refused, as TimeGrid refuses
    a grid, so a command refuses every system it builds before any run.
    """

    L: int
    n: int
    d: int | None = None
    J: float = 1.0
    h: float = 0.1
    delta: float = 0.5
    kappa: float = 2.0

    def __post_init__(self):
        if not isinstance(self.L, int) or self.L < 2:
            raise ValueError(f"ring length L must be an integer >= 2, got {self.L!r}")
        if not isinstance(self.n, int) or self.n < 0:
            raise ValueError(f"battery count n must be an integer >= 0, got {self.n!r}")
        for name in ("J", "h", "delta", "kappa"):
            val = getattr(self, name)
            if not math.isfinite(val):
                raise ValueError(f"{name} must be finite, got {val!r}")
        if self.J <= 0:
            raise ValueError("J must be positive (ferromagnetic ring)")
        if self.h < 0 or self.delta < 0 or self.kappa < 0:
            raise ValueError("h, delta and kappa must be non-negative")
        d = self.d
        if d is None:
            if self.n <= 1:
                d = 1
            elif self.L % self.n == 0:
                d = self.L // self.n
            else:
                raise ValueError(
                    f"battery spacing d must be given explicitly: {self.n} does "
                    f"not divide L={self.L} so there is no equispaced default"
                )
        if not isinstance(d, int) or d < 1:
            raise ValueError(f"battery spacing d must be an integer >= 1, got {d!r}")
        object.__setattr__(self, "d", d)
        # n*d <= L also keeps the attachment sites 1, 1+d, ..., 1+(n-1)d distinct
        if self.n * d > self.L:
            raise ValueError(f"n*d = {self.n * d} exceeds L = {self.L}: batteries do not fit")
        # bytes a run holds per entry of its smaller layout, a parity sector:
        # the complex state, then the Hamiltonian's int64 gather index per
        # flip, L + n of them, and its float diagonal
        entry = 8 * (self.qubits + 3)
        try:
            held = math.ldexp(entry, self.qubits - 1)
        except OverflowError:  # the entry size or the total is beyond the float range
            held = math.inf
        available = physical_memory()
        if held > available:
            raise ValueError(
                f"a run at (L, n) = ({self.L}, {self.n}) holds its state and Hamiltonian on "
                f"2**{self.qubits - 1} entries or more, {entry} bytes each: "
                f"{held:.3g} bytes, more than the {available:.3g} bytes of physical memory"
            )

    @property
    def qubits(self) -> int:
        return self.L + self.n

    @property
    def dim(self) -> int:
        return 1 << self.qubits


@dataclass(frozen=True)
class InitialStateSpec:
    """Charger preparation; the battery register is always all-ground.

    charger_kind: ghz_plus | ghz_minus | eigenstate | random
    index: x-basis sign pattern, required for "eigenstate"

    A "random" charger is drawn from the seed of the run that prepares it
    (``dynamics.charger_state``): every experiment command passes its run
    seed.
    """

    charger_kind: str = "ghz_plus"
    index: int | None = None

    def __post_init__(self):
        if self.charger_kind not in CHARGER_KINDS:
            raise ValueError(
                f"unknown charger kind {self.charger_kind!r}; expected one of {CHARGER_KINDS}"
            )
        if self.charger_kind == "eigenstate":
            if self.index is None or self.index < 0:
                raise ValueError("eigenstate initial state needs a pattern index >= 0")
        elif self.index is not None:
            raise ValueError(f"index is only valid for 'eigenstate', not {self.charger_kind!r}")


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid of ``steps`` points on [t_start, t_end]; ``steps`` must
    fit GRID_POINT_BYTES per point in physical memory."""

    t_start: float = 0.0
    t_end: float = 2.0
    steps: int = 2000

    def __post_init__(self):
        if self.steps < 2:
            raise ValueError(f"grid needs at least 2 points, got {self.steps}")
        available = physical_memory()
        if self.steps * GRID_POINT_BYTES > available:
            raise ValueError(f"grid.steps = {self.steps} points of {GRID_POINT_BYTES} bytes "
                             f"cannot fit in the {available:.3g} bytes of physical memory")
        for key in ("t_start", "t_end"):
            if not math.isfinite(getattr(self, key)):
                raise ValueError(f"grid.{key} must be finite, got {getattr(self, key)!r}")
        if self.t_start < 0 or self.t_end <= self.t_start:
            raise ValueError(
                f"grid requires t_end > t_start >= 0, got [{self.t_start}, {self.t_end}]"
            )

    def times(self):
        """The grid as a numpy array."""
        import numpy as np  # here, not at the top: a config is read before numpy loads

        return np.linspace(self.t_start, self.t_end, self.steps)


@dataclass(frozen=True)
class SweepSpec:
    """One swept parameter (kappa or n) and its values, none repeated."""

    parameter: str
    values: tuple

    def __post_init__(self):
        if not isinstance(self.values, (list, tuple)):
            raise ValueError(f"sweep.values must be a list, got {self.values!r}")
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
        if len(set(values)) < len(values):
            raise ValueError(f"sweep.values must name each series once, got {list(values)}")
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one run; serializable as a single JSON document."""

    model: ModelSpec = ModelSpec(11, 1)
    initial: InitialStateSpec | None = None  # no section: the cat charger, or fig4's own
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
        kwargs = config_fields(cls, "config", data)
        for key, section in (("model", ModelSpec), ("initial", InitialStateSpec),
                             ("grid", TimeGrid), ("sweep", SweepSpec)):
            # a null sweep is no sweep; any other section must be an object
            if key in kwargs and (key != "sweep" or kwargs[key] is not None):
                kwargs[key] = section(**config_fields(section, key, kwargs[key]))
        if not isinstance(kwargs.get("output_path", ""), str):
            raise ValueError(f"output_path must be a string, got {kwargs['output_path']!r}")
        return cls(**kwargs)


def load_config(path) -> ExperimentConfig:
    with open(path, encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except RecursionError:
            raise ValueError(f"config {str(path)!r} is nested too deeply to read") from None
        except ValueError as exc:  # a JSONDecodeError or a UnicodeDecodeError
            raise ValueError(f"config {str(path)!r} is not valid JSON: {exc}") from None
    return ExperimentConfig.from_dict(data)
