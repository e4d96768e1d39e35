"""Run the sunburst-battery CLI inside this process, optionally traced.

    python3 benchmarks/child.py [--spans FILE] [--collapse L,n ...] -- <cli args>
    python3 benchmarks/child.py --setup-only -- <cli args>

``--spans`` wraps each layer's public functions at the module binding that
its caller looks up, runs ``cli.main`` and writes every span (name, parent
span, start, end, counts) to FILE when the command returns.  Spans are kept
in memory until then so that writing them costs nothing inside the run.

``--collapse`` replaces the fig1 collapse systems; it exists only for the
smoke sizes, because fig1 hard-codes three dimension-4096 systems.

``--setup-only`` imports the package, parses the command line and config
exactly as the CLI does, prints the monotonic clock and exits: the parent
times spawn-to-parsed set-up from it.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import os
import time


def clock() -> float:
    """Machine-wide monotonic clock, comparable between processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _dim(args, kwargs, out):
    matrix = getattr(args[0], "matrix", args[0])
    return {"dim": int(matrix.shape[0])}


def _states(args, kwargs, out):
    return {"points": len(args[2]), "bytes": int(getattr(out, "nbytes", 0))}


def _matrix(args, kwargs, out):
    return {"bytes": int(out.matrix.nbytes)}


def _points(args, kwargs, out):
    return {"points": len(args[0].times)}


def _csv(args, kwargs, out):
    return {"rows": len(args[1]), "bytes": os.path.getsize(args[0])}


# (module, attribute the caller looks up, span name, counts taken at the boundary)
TARGETS = (
    ("linalg", "eigh", "linalg.eigh", _dim),
    ("dynamics", "evolve_on_grid", "linalg.evolve_on_grid", _states),
    ("dynamics", "build_total", "model.build_total", _matrix),
    ("experiments", "build_total", "model.build_total", _matrix),
    ("experiments", "trajectory", "dynamics.trajectory", None),
    ("experiments", "merit_series", "observables.merit_series", _points),
    ("observables", "reduce_to_battery", "observables.reduce_to_battery", None),
    ("experiments", "analytic_reference", "experiments.analytic_reference", None),
    ("experiments", "write_csv", "experiments.write_csv", _csv),
)


class Tracer:
    """Spans in call order; each is [name, parent index, start, end, counts]."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, fn, name, counts=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._open[-1] if self._open else None
            span = [name, parent, clock(), None, None]
            self.spans.append(span)
            self._open.append(index)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                self._open.pop()
            if counts is not None:
                span[4] = counts(args, kwargs, out)
            return out
        return traced

    def install(self, command: str) -> None:
        for module_name, attr, name, counts in TARGETS:
            module = importlib.import_module(f"sunburst_battery.{module_name}")
            if hasattr(module, attr):
                setattr(module, attr, self.wrap(getattr(module, attr), name, counts))
        cli = importlib.import_module("sunburst_battery.cli")
        runners = getattr(cli, "_RUNNERS", {})
        if command in runners:
            runner, help_text = runners[command]
            runners[command] = (self.wrap(runner, f"experiments.cmd_{command}"), help_text)


def _override_collapse(systems) -> None:
    from sunburst_battery import cli, experiments

    _, help_text = cli._RUNNERS["fig1"]
    cli._RUNNERS["fig1"] = (
        functools.partial(experiments.cmd_fig1, collapse_systems=systems), help_text
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", help="write the trace spans to this JSON file")
    parser.add_argument("--collapse", nargs="+", default=None,
                        help="fig1 collapse systems as L,n pairs (smoke sizes)")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop once the package is imported and the config parsed")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    from sunburst_battery import cli

    if args.setup_only:
        cli.config_from_args(cli.build_parser().parse_args(cli_args))
        print(repr(clock()), flush=True)
        return 0
    if args.collapse:
        _override_collapse(tuple(tuple(int(v) for v in s.split(",")) for s in args.collapse))
    if not args.spans:
        return cli.main(cli_args)

    tracer = Tracer()
    tracer.install(cli_args[0])
    code = tracer.wrap(cli.main, "cli.main")(cli_args)
    with open(args.spans, "w", encoding="utf-8") as handle:
        json.dump({"spans": tracer.spans}, handle, separators=(",", ":"))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
