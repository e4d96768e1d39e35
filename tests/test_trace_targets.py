"""The benchmark tracer (benchmarks/child.py) wraps package functions at the
module bindings their callers look up, and skips a binding it cannot find
without a message; per-layer metrics would then read 0.  These tests pin
every binding it names."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np

from sunburst_battery import (
    InitialStateSpec,
    ModelSpec,
    cli,
    experiments,
    linalg,
    trajectory,
)

CHILD = Path(__file__).resolve().parents[1] / "benchmarks" / "child.py"


def load_child():
    spec = importlib.util.spec_from_file_location("benchmark_child", CHILD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_is_bound():
    targets = load_child().TARGETS
    assert targets
    missing = [
        (module, attr) for module, attr, *_ in targets
        if not callable(getattr(importlib.import_module(f"sunburst_battery.{module}"),
                                attr, None))
    ]
    assert not missing


def test_runners_cover_every_command_but_validate():
    parser = cli.build_parser()
    assert set(cli._RUNNERS) == {"fig1", "fig2", "fig3", "fig4", "sweep"}
    for command in [*cli._RUNNERS, "validate"]:
        assert parser.parse_args([command]).command == command
    # the tracer replaces the fig1 collapse set at smoke sizes by keyword
    assert "collapse_systems" in inspect.signature(experiments.cmd_fig1).parameters


def test_every_dense_solve_goes_through_linalg_eigh(monkeypatch):
    # the tracer wraps the linalg.eigh binding to count solves and sum dim**3
    # over them; a solve that bypassed it would leave linalg.eigh.* reading 0.
    # Trajectories are matrix-free and solve nothing.
    solved = []
    dense_eigh = linalg.eigh
    monkeypatch.setattr(linalg, "eigh", lambda m: solved.append(len(m)) or dense_eigh(m))
    spec = ModelSpec(4, 2)
    times = np.linspace(0.0, 1.0, 5)
    trajectory(spec, InitialStateSpec(), times)
    trajectory(spec, InitialStateSpec("random", seed=3), times)
    assert solved == []
