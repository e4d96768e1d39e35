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

The records are plain frozen classes on one base, ``Record``, whose
fields are the parameters of their ``__init__``; ``replace`` builds a
changed copy through ``__init__``, so it is checked again.  Plain classes
keep ``inspect``, ``ast``, ``dis`` and ``tokenize``, which the standard
library's dataclass module imports and set-up never uses, out of the
start of every command and every refused config.
"""

from __future__ import annotations

import json
import math
import os
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


class Record:
    """A frozen record whose fields are the parameters of its ``__init__``,
    in order.  Equal fields make equal records with equal hashes, the repr
    names every field, and no field is assigned after ``__init__``:
    ``replace`` builds a new record, through ``__init__``, instead.  Each
    ``__init__`` stores its arguments with ``self._store(locals())`` before
    it checks them, and sets a derived value with ``object.__setattr__``."""

    _fields: tuple = ()

    def __init_subclass__(cls):
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1:code.co_argcount]

    def _store(self, arguments: dict) -> None:
        for name in self._fields:
            object.__setattr__(self, name, arguments[name])

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__name__} is frozen: cannot set or delete {name!r}")

    __delattr__ = __setattr__


def replace(record: Record, **changes) -> Record:
    """A new record of the type of ``record``, with its fields but those in
    ``changes``: built through ``__init__``, so every check runs again and
    every derived value (``ModelSpec.d`` given as None) is derived again.
    An unknown field is a TypeError."""
    return type(record)(**{**{name: getattr(record, name) for name in record._fields},
                           **changes})


def config_fields(cls, section: str, data) -> dict:
    """Keyword arguments for the record ``cls`` from the JSON object
    ``data`` at key ``section``: every key names a field, every field with
    no default is given, and a value (but None for a None default) goes
    through integral() for a field declared ``int`` or ``int | None`` and
    through real() for ``float``.  The fields, their defaults and their
    declarations are read from ``cls.__init__``; this module postpones its
    annotations, so the declarations are strings."""
    if not isinstance(data, dict):
        raise ValueError(f"{section} must be a JSON object, got {data!r}")
    init = cls.__init__
    defaults = dict(zip(reversed(cls._fields), reversed(init.__defaults__ or ())))
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
        declared = init.__annotations__[key]
        if declared in ("int", "int | None"):
            kwargs[key] = integral(f"{section}.{key}", value)
        elif declared == "float":
            kwargs[key] = real(f"{section}.{key}", value)
    return kwargs


class ModelSpec(Record):
    """Model parameters.  Couplings are in units of the ring bond J.

    d is the site spacing between consecutive batteries; when omitted it
    defaults to the equispaced choice L/n (which requires n to divide L).
    A register too big for physical memory is refused, as TimeGrid refuses
    a grid, so a command refuses every system it builds before any run.
    """

    def __init__(self, L: int, n: int, d: int | None = None, J: float = 1.0,
                 h: float = 0.1, delta: float = 0.5, kappa: float = 2.0):
        self._store(locals())
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


class InitialStateSpec(Record):
    """Charger preparation; the battery register is always all-ground.

    charger_kind: ghz_plus | ghz_minus | eigenstate | random
    index: x-basis sign pattern, required for "eigenstate"

    A "random" charger is drawn from the seed of the run that prepares it
    (``dynamics.charger_state``): every experiment command passes its run
    seed.
    """

    def __init__(self, charger_kind: str = "ghz_plus", index: int | None = None):
        self._store(locals())
        if self.charger_kind not in CHARGER_KINDS:
            raise ValueError(
                f"unknown charger kind {self.charger_kind!r}; expected one of {CHARGER_KINDS}"
            )
        if self.charger_kind == "eigenstate":
            if self.index is None or self.index < 0:
                raise ValueError("eigenstate initial state needs a pattern index >= 0")
        elif self.index is not None:
            raise ValueError(f"index is only valid for 'eigenstate', not {self.charger_kind!r}")


class TimeGrid(Record):
    """Uniform grid of ``steps`` points on [t_start, t_end]; ``steps`` must
    fit GRID_POINT_BYTES per point in physical memory."""

    def __init__(self, t_start: float = 0.0, t_end: float = 2.0, steps: int = 2000):
        self._store(locals())
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


class SweepSpec(Record):
    """One swept parameter (kappa or n) and its values, none repeated."""

    def __init__(self, parameter: str, values: tuple):
        self._store(locals())
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


class ExperimentConfig(Record):
    """Full description of one run; serializable as a single JSON document.
    No initial section (None) is the cat charger, or fig4's own."""

    def __init__(self, model: ModelSpec = ModelSpec(11, 1),
                 initial: InitialStateSpec | None = None, grid: TimeGrid = TimeGrid(),
                 sweep: SweepSpec | None = None, seed: int = DEFAULT_SEED,
                 output_path: str = "out.csv"):
        self._store(locals())
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
