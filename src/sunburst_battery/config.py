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

The records are ``collections.namedtuple`` classes, each with a checking
``__new__`` whose parameters are its fields, in order: frozen values with
equality, hash and a repr naming every field that, as tuples, also
iterate, index and equal a plain tuple of the same values.  namedtuple's
``_replace`` and ``_make`` skip the checks, so ``replace``, which builds
through ``__new__``, is the one way to change a record.  Unlike a
dataclass, a namedtuple keeps ``inspect``, ``ast``, ``dis`` and
``tokenize`` out of the start of every command and every refused config.
"""

from __future__ import annotations

import json
import math
import os
from collections import namedtuple
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


def replace(record: tuple, **changes) -> tuple:
    """A new record of the type of ``record``, with its fields but those in
    ``changes``: built through ``__new__``, so every check runs again and
    every derived value (``ModelSpec.d`` given as None) is derived again.
    An unknown field is a TypeError."""
    return type(record)(**{**record._asdict(), **changes})


def config_fields(cls, section: str, data) -> dict:
    """Keyword arguments for the record ``cls`` from the JSON object
    ``data`` at key ``section``: every key names a field, every field with
    no default is given, and a value (but None for a None default) goes
    through integral() for a field declared ``int`` or ``int | None`` and
    through real() for ``float``.  The fields are ``cls._fields``, and
    their defaults and declarations are read from ``cls.__new__``; this
    module postpones its annotations, so the declarations are strings."""
    if not isinstance(data, dict):
        raise ValueError(f"{section} must be a JSON object, got {data!r}")
    new = cls.__new__
    defaults = dict(zip(reversed(cls._fields), reversed(new.__defaults__ or ())))
    unknown = set(data) - set(cls._fields)
    if unknown:
        raise ValueError(f"unknown {section} keys: {sorted(unknown)}")
    missing = [name for name in cls._fields if name not in defaults and name not in data]
    if missing:
        raise ValueError(f"{section} requires the keys {missing}")
    kwargs = dict(data)
    for key, value in data.items():
        if value is None and key in defaults and defaults[key] is None:
            continue
        declared = new.__annotations__[key]
        if declared in ("int", "int | None"):
            kwargs[key] = integral(f"{section}.{key}", value)
        elif declared == "float":
            kwargs[key] = real(f"{section}.{key}", value)
    return kwargs


class ModelSpec(namedtuple("ModelSpec", "L n d J h delta kappa")):
    """Model parameters.  Couplings are in units of the ring bond J.

    d is the site spacing between consecutive batteries; when omitted it
    defaults to the equispaced choice L/n (which requires n to divide L).
    A register too big for physical memory is refused, as TimeGrid refuses
    a grid, so a command refuses every system it builds before any run.
    """

    __slots__ = ()

    def __new__(cls, L: int, n: int, d: int | None = None, J: float = 1.0,
                h: float = 0.1, delta: float = 0.5, kappa: float = 2.0):
        if not isinstance(L, int) or L < 2:
            raise ValueError(f"ring length L must be an integer >= 2, got {L!r}")
        if not isinstance(n, int) or n < 0:
            raise ValueError(f"battery count n must be an integer >= 0, got {n!r}")
        for name, val in (("J", J), ("h", h), ("delta", delta), ("kappa", kappa)):
            if not math.isfinite(val):
                raise ValueError(f"{name} must be finite, got {val!r}")
        if J <= 0:
            raise ValueError("J must be positive (ferromagnetic ring)")
        if h < 0 or delta < 0 or kappa < 0:
            raise ValueError("h, delta and kappa must be non-negative")
        if d is None:
            if n <= 1:
                d = 1
            elif L % n == 0:
                d = L // n
            else:
                raise ValueError(
                    f"battery spacing d must be given explicitly: {n} does "
                    f"not divide L={L} so there is no equispaced default"
                )
        if not isinstance(d, int) or d < 1:
            raise ValueError(f"battery spacing d must be an integer >= 1, got {d!r}")
        # n*d <= L also keeps the attachment sites 1, 1+d, ..., 1+(n-1)d distinct
        if n * d > L:
            raise ValueError(f"n*d = {n * d} exceeds L = {L}: batteries do not fit")
        # bytes a run holds per entry of its smaller layout, a parity sector:
        # the complex state, then the Hamiltonian's int64 gather index per
        # flip, L + n of them, and its float diagonal
        qubits = L + n
        entry = 8 * (qubits + 3)
        try:
            held = math.ldexp(entry, qubits - 1)
        except OverflowError:  # the entry size or the total is beyond the float range
            held = math.inf
        available = physical_memory()
        if held > available:
            raise ValueError(
                f"a run at (L, n) = ({L}, {n}) holds its state and Hamiltonian on "
                f"2**{qubits - 1} entries or more, {entry} bytes each: "
                f"{held:.3g} bytes, more than the {available:.3g} bytes of physical memory"
            )
        return super().__new__(cls, L, n, d, J, h, delta, kappa)

    @property
    def qubits(self) -> int:
        return self.L + self.n

    @property
    def dim(self) -> int:
        return 1 << self.qubits


class InitialStateSpec(namedtuple("InitialStateSpec", "charger_kind index")):
    """Charger preparation; the battery register is always all-ground.

    charger_kind: ghz_plus | ghz_minus | eigenstate | random
    index: x-basis sign pattern, required for "eigenstate"

    A "random" charger is drawn from the seed of the run that prepares it
    (``dynamics.charger_state``): every experiment command passes its run
    seed.
    """

    __slots__ = ()

    def __new__(cls, charger_kind: str = "ghz_plus", index: int | None = None):
        if charger_kind not in CHARGER_KINDS:
            raise ValueError(
                f"unknown charger kind {charger_kind!r}; expected one of {CHARGER_KINDS}"
            )
        if charger_kind == "eigenstate":
            if index is None or index < 0:
                raise ValueError("eigenstate initial state needs a pattern index >= 0")
        elif index is not None:
            raise ValueError(f"index is only valid for 'eigenstate', not {charger_kind!r}")
        return super().__new__(cls, charger_kind, index)


class TimeGrid(namedtuple("TimeGrid", "t_start t_end steps")):
    """Uniform grid of ``steps`` points on [t_start, t_end]; ``steps`` must
    fit GRID_POINT_BYTES per point in physical memory."""

    __slots__ = ()

    def __new__(cls, t_start: float = 0.0, t_end: float = 2.0, steps: int = 2000):
        if steps < 2:
            raise ValueError(f"grid needs at least 2 points, got {steps}")
        available = physical_memory()
        if steps * GRID_POINT_BYTES > available:
            raise ValueError(f"grid.steps = {steps} points of {GRID_POINT_BYTES} bytes "
                             f"cannot fit in the {available:.3g} bytes of physical memory")
        for key, val in (("t_start", t_start), ("t_end", t_end)):
            if not math.isfinite(val):
                raise ValueError(f"grid.{key} must be finite, got {val!r}")
        if t_start < 0 or t_end <= t_start:
            raise ValueError(f"grid requires t_end > t_start >= 0, got [{t_start}, {t_end}]")
        return super().__new__(cls, t_start, t_end, steps)

    def times(self):
        """The grid as a numpy array."""
        import numpy as np  # here, not at the top: a config is read before numpy loads

        return np.linspace(self.t_start, self.t_end, self.steps)


class SweepSpec(namedtuple("SweepSpec", "parameter values")):
    """One swept parameter (kappa or n) and its values, none repeated."""

    __slots__ = ()

    def __new__(cls, parameter: str, values: tuple):
        if not isinstance(values, (list, tuple)):
            raise ValueError(f"sweep.values must be a list, got {values!r}")
        if parameter not in ("kappa", "n"):
            raise ValueError(f"sweep parameter must be 'kappa' or 'n', got {parameter!r}")
        if not values:
            raise ValueError("sweep needs at least one value")
        if parameter == "kappa":
            values = tuple(real("sweep.values", v) for v in values)
            if any(v < 0 for v in values):
                raise ValueError("kappa values must be non-negative")
        else:
            values = tuple(integral("sweep.values", v) for v in values)
            if any(v < 0 for v in values):
                raise ValueError("n values must be non-negative")
        if len(set(values)) < len(values):
            raise ValueError(f"sweep.values must name each series once, got {list(values)}")
        return super().__new__(cls, parameter, values)


class ExperimentConfig(namedtuple("ExperimentConfig",
                                  "model initial grid sweep seed output_path")):
    """Full description of one run; serializable as a single JSON document.
    No initial section (None) is the cat charger, or fig4's own."""

    __slots__ = ()

    def __new__(cls, model: ModelSpec = ModelSpec(11, 1),
                initial: InitialStateSpec | None = None, grid: TimeGrid = TimeGrid(),
                sweep: SweepSpec | None = None, seed: int = DEFAULT_SEED,
                output_path: str = "out.csv"):
        checked = integral("config.seed", seed)
        if not 0 <= checked < 2 ** 64:
            raise ValueError(f"seed must fit in 64 unsigned bits, got {seed!r}")
        return super().__new__(cls, model, initial, grid, sweep, checked, output_path)

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
