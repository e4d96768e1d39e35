"""The benchmark tracer (benchmarks/child.py) wraps package functions at the
module bindings their callers look up, and skips a binding it cannot find
without a message; per-layer metrics would then read 0.  These tests pin
every binding it names, and run the harness (benchmarks/run.py) end to end
at smoke size."""

import importlib
import importlib.util
import inspect
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sunburst_battery import cli, experiments, linalg
from sunburst_battery.config import InitialStateSpec, ModelSpec
from sunburst_battery.dynamics import trajectory

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"
CHILD = BENCHMARKS / "child.py"


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
    assert set(cli._RUNNERS) == {"fig1", "fig3", "fig4", "sweep"}
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
    trajectory(spec, InitialStateSpec("random"), times, 3)
    assert solved == []


@pytest.mark.parametrize("workload", ["fig1_cat", "fig4_random"])
def test_benchmark_harness_runs_a_smoke_workload(workload):
    # the harness leans on the --jobs 1 option, the cli._RUNNERS table, the
    # cmd_fig1 collapse_systems keyword and experiments.read_csv; a smoke run
    # end to end must exit 0 and check every series it wrote
    proc = subprocess.run(
        [sys.executable, str(BENCHMARKS / "run.py"), "--workload", workload, "--smoke",
         "--seconds", "0.5"], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, result
