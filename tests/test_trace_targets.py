"""The benchmark tracer (benchmarks/child.py) wraps package functions at the
module bindings their callers look up, and skips a binding it cannot find
without a message; per-layer metrics would then read 0.  These tests pin
every binding it names that production calls, and run the harness
(benchmarks/run.py) end to end at smoke size, once traced.  The bindings
of the dense oracles (linalg.eigh, dynamics.evolve_on_grid and the two
build_total) are exempt: the oracles live in ``validate``, which no
command loads, so their spans read 0 whether the tracer finds them or not."""

import importlib
import importlib.util
import inspect
import json
import subprocess
import sys
from pathlib import Path

import pytest

from sunburst_battery import cli, experiments

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"
CHILD = BENCHMARKS / "child.py"
ORACLE_BINDINGS = {("linalg", "eigh"), ("dynamics", "evolve_on_grid"),
                   ("dynamics", "build_total"), ("experiments", "build_total")}


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
        if (module, attr) not in ORACLE_BINDINGS
        and not callable(getattr(importlib.import_module(f"sunburst_battery.{module}"),
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


@pytest.mark.parametrize("workload, trace", [
    pytest.param("fig1_cat", 0, id="fig1_cat"),
    pytest.param("fig4_random", 0, id="fig4_random"),
    pytest.param("fig1_cat", 1, id="fig1_cat-traced"),
])
def test_benchmark_harness_runs_a_smoke_workload(workload, trace):
    # the harness leans on the --jobs 1 option, the cli._RUNNERS table, the
    # cmd_fig1 collapse_systems keyword and experiments.read_csv; a smoke run
    # end to end must exit 0 and check every series it wrote.  Traced, the
    # CSV must match the untraced bytes, no dense solve may run, and every
    # merit point must reach the CSV.  A traced run writes its spans to
    # .bench_work/trace-<workload>.json; the file found there before the
    # run, or its absence, is put back after it
    spans = BENCHMARKS.parent / ".bench_work" / f"trace-{workload}.json"
    found = spans.read_bytes() if spans.exists() else None
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCHMARKS / "run.py"), "--workload", workload, "--smoke",
             "--seconds", "0.5", "--trace", str(trace)],
            capture_output=True, text=True, timeout=300)
    finally:
        if found is None:
            spans.unlink(missing_ok=True)
        else:
            spans.write_bytes(found)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, result
    if trace:
        metrics = {name: metric["value"] for name, metric in result["metrics"].items()}
        assert metrics["experiments.csv_bytes_match"] == 1, metrics
        assert metrics["linalg.eigh.calls"] == 0, metrics
        points = metrics["observables.merit_series.points"]
        assert points == metrics["experiments.write_csv.rows"] > 0, metrics
