"""Self-test of the benchmark at smoke sizes; finishes in well under a minute.

    python3 benchmarks/selftest.py

1. Each workload's traced run, made twice, gives the same exact counts
   (calls, points, rows, dim3), and they equal the counts its plan
   predicts for the current pipeline.
2. Each workload's untraced run passes its checks and reports every
   end-to-end metric of BENCHMARK.json with a positive value.
3. The checks catch a corrupted CSV of every workload.
4. In a directory holding only BENCHMARK.json and benchmarks/, run.py
   exits nonzero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
from checks import check

def bench(workload: str, trace: int, cwd: Path = run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False)


def result(done: subprocess.CompletedProcess) -> dict:
    if done.returncode != 0:
        raise AssertionError(f"run.py exited with {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def corrupted_csv_fails(workload: str, workdir: Path) -> bool:
    from sunburst_battery.experiments import read_csv

    p = run.plan(workload, 3, workdir, smoke=True)
    if run.spawn(run.program_cmd(p), workdir, 60)["code"] != 0:
        raise AssertionError(f"{workload}: smoke run failed")
    columns = read_csv(p["csv"])
    if check(p, columns)[0] != 0:
        raise AssertionError(f"{workload}: smoke output fails its checks")
    middle = len(columns["t"]) // 2
    columns["dE_num"][middle] += 0.3  # breaks P t = dE and the closed forms
    columns["xi_num"][middle] += 0.3
    return check(p, columns)[0] > 0


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    bench_json = json.loads(run.BENCHMARK.read_text(encoding="utf-8"))
    problems = []
    for workload in run.WORKLOADS:
        first, second = result(bench(workload, 1)), result(bench(workload, 1))
        with tempfile.TemporaryDirectory(dir=run.ROOT / ".bench_work") as tmp:
            expected = run.plan(workload, 3, Path(tmp), smoke=True)["counts"]
        for name, want in expected.items():
            got = (first["metrics"][name]["value"], second["metrics"][name]["value"])
            if got != (want, want):
                problems.append(f"{workload}: {name} = {got}, expected {want} twice")
        plain = result(bench(workload, 0))
        for metric in bench_json["end_to_end"]:
            value = plain["metrics"].get(metric["name"], {}).get("value")
            if not (isinstance(value, (int, float)) and value > 0):
                problems.append(f"{workload}: {metric['name']} = {value!r}")
        for out in (first, second, plain):
            if not out["correct"] or out["failed"]:
                problems.append(f"{workload}: outputs failed their checks")
        with tempfile.TemporaryDirectory(dir=run.ROOT / ".bench_work") as tmp:
            if not corrupted_csv_fails(workload, Path(tmp)):
                problems.append(f"{workload}: corrupted CSV passed the checks")
        print(f"{workload}: counts {first['metrics']['linalg.eigh.calls']['value']} eigh, "
              f"{first['metrics']['observables.reduce_to_battery.calls']['value']} "
              f"reduce_to_battery; {len(problems)} problems so far")

    with tempfile.TemporaryDirectory(dir=run.ROOT / ".bench_work") as tmp:
        bare = Path(tmp)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, bare / "benchmarks",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = bench(run.WORKLOADS[0], 0, cwd=bare)
        if done.returncode == 0 or '"correct"' in done.stdout:
            problems.append("run.py without the program source did not fail")

    for line in problems:
        print(f"FAIL {line}")
    print("selftest", "FAIL" if problems else "PASS")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
