"""Benchmark of the sunburst-battery command line, one workload per run.

    python3 benchmarks/run.py --workload fig1_cat --seed 1 --seconds 28 --trace 0

Each invocation of the program runs in a fresh process at ``--jobs 1``
under the machine's default BLAS threading (thread variables are recorded,
never set).  The benchmark turns ``--seed`` into the program's inputs (a
config file and flags), writes every CSV to a scratch directory under
``.bench_work/`` in the checkout, reads it back and checks it
(``checks.py``), then deletes the scratch directory.  The benchmark reads
and writes nothing outside the checkout, so it uses no system temporary
directory; ``.bench_work/`` is ignored by git.

``--trace 0`` times set-up several times, then repeats the workload while
the next repetition is expected to end within ``--seconds`` (at least
once), and reports the end-to-end metrics as medians over repetitions.
``--trace 1`` runs the workload once untraced and once under
``child.py --spans`` and reports the per-layer metrics of the traced run;
``trace.overhead_s`` is the difference of the two wall times.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` (series of grid points written,
counted over every repetition) and ``metrics``.  The lines before it name
every metric with its unit and give the machine context.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCE = HERE / "reference.json"
BENCHMARK = ROOT / "BENCHMARK.json"  # names, units and run length of the metrics

WORKLOADS = ("fig1_cat", "fig4_random", "sweep_small")
DEFAULT_SEED = 1
SETUP_PROBES = 10    # half before the repetitions, half after: set-up time
                     # follows machine load that shifts within seconds
RUN_LIMIT_S = 170.0  # a run must end within 180 s
DELTA = 0.5          # battery gap of every workload (the CLI default)

def clock() -> float:
    """Machine-wide monotonic clock, comparable with the one in child.py."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# --------------------------------------------------------------------------
# workloads


def plan(workload: str, seed: int, workdir: Path, smoke: bool = False) -> dict:
    """Inputs of one invocation and what its CSV must hold.

    ``argv`` follows ``sunburst_battery.cli``; ``child`` holds extra
    ``child.py`` options (the smoke fig1 needs them); ``series`` lists the
    expected (n, L, kappa, seed) keys; ``counts`` the layer calls and work
    counts a traced run of the current pipeline makes.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    csv = str(workdir / f"{workload}.csv")
    steps = 50 if smoke else 2000
    config, child = None, []
    if workload == "fig1_cat":
        # the headline figure: cat-state charger, one battery plus the collapse set
        systems = [(7, 1), (6, 2), (6, 3), (4, 4)] if smoke else [(11, 1), (10, 2), (9, 3), (8, 4)]
        if smoke:
            config = {"model": {"L": 7, "n": 1}, "grid": {"steps": steps}}
            child = ["--collapse"] + [f"{L},{n}" for L, n in systems[1:]]
        argv = ["fig1", "--seed", str(seed)]
        series = [(n, L, 2.0, seed) for L, n in systems]
        decompositions = [2 ** (L + n) for L, n in systems]
        kind = "collapse"
    elif workload == "fig4_random":
        # one decomposition shared by three Haar-random chargers
        L = 7 if smoke else 11
        if smoke:
            config = {"model": {"L": L, "n": 1}, "grid": {"steps": steps}}
        first = int(rng.integers(0, 2 ** 31))
        argv = ["fig4", "--seed", str(first)]
        series = [(1, L, 2.0, first + k) for k in range(3)]
        decompositions = [2 ** (L + 1)]
        kind = "collapse"
    elif workload == "sweep_small":
        # dim 256: the per-point merit loop and CSV output dominate.  20 kappa
        # values (~5 s) rather than 40 fit several repetitions into a run.
        # Stratified draws keep the worst-case kappa, and so closed_form_dev,
        # steady from seed to seed.
        count, L = (4, 4) if smoke else (20, 6)
        edges = np.linspace(0.25, 4.0, count + 1)
        kappas = [float(v) for v in edges[:-1] + rng.random(count) * np.diff(edges)]
        config = {"model": {"L": L, "n": 2},
                  "sweep": {"parameter": "kappa", "values": kappas},
                  "grid": {"steps": steps}, "seed": seed}
        argv = ["sweep"]
        series = [(2, L, k, seed) for k in kappas]
        decompositions = [2 ** (L + 2)] * count
        kind = "invariants"
    else:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    if config is not None:
        path = workdir / f"{workload}.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        argv += ["--config", str(path)]
    argv += ["--out", csv, "--jobs", "1"]
    points = len(series) * steps
    trajectories = len(series)
    return {
        "workload": workload, "seed": seed, "smoke": smoke, "argv": argv, "child": child,
        "csv": csv, "series": series, "times": np.linspace(0.0, 2.0, steps).tolist(),
        "delta": DELTA, "kind": kind, "pairwise": workload == "fig4_random",
        "points": points,
        "counts": {
            "model.build_total.calls": len(decompositions),
            "linalg.eigh.calls": len(decompositions),
            "linalg.eigh.dim3": sum(d ** 3 for d in decompositions),
            "linalg.evolve_on_grid.calls": trajectories,
            "linalg.evolve_on_grid.points": points,
            "observables.merit_series.points": points,
            "observables.reduce_to_battery.calls": points,
            "experiments.write_csv.rows": points,
        },
    }


# --------------------------------------------------------------------------
# processes


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(cmd: list, workdir: Path, timeout: float) -> dict:
    """Run one child to completion; its own wall, CPU time and peak RSS.

    ``os.wait4`` gives the resource usage of this child alone, so one
    workload's high-water mark never hides another's.
    """
    log = workdir / "child.log"
    start = clock()
    with open(log, "wb") as out:
        proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.STDOUT,
                                env=child_env(), cwd=workdir)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
    wall = clock() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        tail = log.read_text(encoding="utf-8", errors="replace")[-2000:]
        print(f"child exited with {proc.returncode}: {' '.join(cmd)}\n{tail}", file=sys.stderr)
    return {"wall": wall, "cpu": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss * 1024 / 1e6, "code": proc.returncode}


def program_cmd(p: dict, spans: Path | None = None) -> list:
    """The CLI itself, or child.py when tracing or overriding smoke sizes."""
    if spans is None and not p["child"]:
        return [sys.executable, "-m", "sunburst_battery.cli"] + p["argv"]
    extra = ["--spans", str(spans)] if spans is not None else []
    return [sys.executable, str(HERE / "child.py")] + extra + p["child"] + ["--"] + p["argv"]


def setup_time(p: dict, workdir: Path) -> float:
    """Spawn until the package is imported and the config parsed."""
    start = clock()
    done = subprocess.run(
        [sys.executable, str(HERE / "child.py"), "--setup-only", "--"] + p["argv"],
        env=child_env(), cwd=workdir, capture_output=True, text=True, timeout=60, check=True,
    )
    return float(done.stdout.split()[-1]) - start


def invoke(p: dict, workdir: Path, deadline: float, spans: Path | None = None) -> dict:
    """One run of the program plus the check of what it wrote."""
    from checks import check, closed_form_dev
    from sunburst_battery.experiments import read_csv

    csv = Path(p["csv"])
    csv.unlink(missing_ok=True)
    run = spawn(program_cmd(p, spans), workdir, max(1.0, deadline - clock()))
    run["failed"], run["dev"], run["digest"] = len(p["series"]), float("nan"), None
    if run["code"] == 0 and csv.exists():
        run["digest"] = file_digest(csv)
        columns = read_csv(csv)
        summaries = None
        if p["kind"] == "invariants" and not p["smoke"]:
            summaries = reference().get("sweep_small_summaries", {}).get(str(p["seed"]))
        run["failed"], messages = check(p, columns, summaries)
        run["dev"] = closed_form_dev(columns)
        for message in messages:
            print(f"check failed: {message}", file=sys.stderr)
    return run


def file_digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def reference() -> dict:
    if REFERENCE.exists():
        return json.loads(REFERENCE.read_text(encoding="utf-8"))
    return {}


# --------------------------------------------------------------------------
# metrics


def timed_run(p: dict, workdir: Path, seconds: float, deadline: float) -> tuple[list, dict]:
    setups = [setup_time(p, workdir) for _ in range(SETUP_PROBES // 2)]
    runs, start = [], clock()
    while True:
        runs.append(invoke(p, workdir, deadline))
        elapsed = clock() - start
        if elapsed + runs[-1]["wall"] > seconds or clock() + runs[-1]["wall"] > deadline:
            break
    setups += [setup_time(p, workdir) for _ in range(SETUP_PROBES - len(setups))]
    walls = [r["wall"] for r in runs]
    metrics = {
        "wall_s": statistics.median(walls),
        "points_per_s": statistics.median(p["points"] / w for w in walls),
        "setup_s": statistics.median(setups),
        "cpu_s": statistics.median(r["cpu"] for r in runs),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in runs),
        "closed_form_dev": max(r["dev"] for r in runs),
    }
    return runs, metrics


def layer_metrics(spans: list) -> dict:
    """Totals per span name, with self time = duration - direct children."""
    durations = [end - start for _, _, start, end, _ in spans]
    child_time = [0.0] * len(spans)
    for (_, parent, _, _, _), duration in zip(spans, durations):
        if parent is not None:
            child_time[parent] += duration
    calls, total, own, counts = {}, {}, {}, {}
    for (name, _, _, _, attrs), duration, inner in zip(spans, durations, child_time):
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + duration
        own[name] = own.get(name, 0.0) + duration - inner
        for key, value in (attrs or {}).items():
            counts.setdefault(name, {}).setdefault(key, []).append(value)

    def count(name, key, fold=sum):
        return fold(counts.get(name, {}).get(key, [0]))

    merit_points = count("observables.merit_series", "points")
    commands = [name for name in own if name.startswith("experiments.cmd_")]
    return {
        "linalg.eigh.calls": calls.get("linalg.eigh", 0),
        "linalg.eigh.s": total.get("linalg.eigh", 0.0),
        "linalg.eigh.dim3": sum(d ** 3 for d in counts.get("linalg.eigh", {}).get("dim", [])),
        "linalg.evolve_on_grid.calls": calls.get("linalg.evolve_on_grid", 0),
        "linalg.evolve_on_grid.s": total.get("linalg.evolve_on_grid", 0.0),
        "linalg.evolve_on_grid.points": count("linalg.evolve_on_grid", "points"),
        "linalg.evolve_on_grid.state_mb": count("linalg.evolve_on_grid", "bytes", max) / 1e6,
        "model.build_total.calls": calls.get("model.build_total", 0),
        "model.build_total.s": total.get("model.build_total", 0.0),
        "model.build_total.matrix_mb": count("model.build_total", "bytes", max) / 1e6,
        "dynamics.trajectory.self_s": own.get("dynamics.trajectory", 0.0),
        "observables.merit_series.s": total.get("observables.merit_series", 0.0),
        "observables.merit_series.self_s": own.get("observables.merit_series", 0.0),
        "observables.merit_series.points": merit_points,
        "observables.merit_series.us_per_point":
            1e6 * total.get("observables.merit_series", 0.0) / max(merit_points, 1),
        "observables.reduce_to_battery.calls": calls.get("observables.reduce_to_battery", 0),
        "experiments.analytic_reference.s": total.get("experiments.analytic_reference", 0.0),
        "experiments.write_csv.s": total.get("experiments.write_csv", 0.0),
        "experiments.write_csv.rows": count("experiments.write_csv", "rows"),
        "experiments.write_csv.mb": count("experiments.write_csv", "bytes") / 1e6,
        "experiments.self_s": sum(own[name] for name in commands),
        "cli.self_s": own.get("cli.main", 0.0),
    }


def traced_run(p: dict, workdir: Path, deadline: float) -> tuple[list, dict, list]:
    plain = invoke(p, workdir, deadline)
    spans_path = workdir / "spans.json"
    traced = invoke(p, workdir, deadline, spans_path)
    spans = json.loads(spans_path.read_text(encoding="utf-8"))["spans"] if traced["code"] == 0 else []
    metrics = layer_metrics(spans)
    recorded = reference().get("csv_sha256", {}).get(p["workload"], {}).get(str(p["seed"]))
    same = traced["digest"] is not None and traced["digest"] == plain["digest"]
    if recorded is not None and not p["smoke"]:
        same = same and traced["digest"] == recorded
    metrics["experiments.csv_bytes_match"] = int(same)
    metrics["trace.overhead_s"] = traced["wall"] - plain["wall"]
    return [plain, traced], metrics, spans


# --------------------------------------------------------------------------
# context and output


def machine_context(p: dict, workdir: Path) -> dict:
    import numpy as np

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), None)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = done.stdout.strip() or None
    threads = {k: os.environ.get(k) for k in
               ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return {
        "workload": p["workload"], "seed": p["seed"], "smoke": p["smoke"],
        "program_argv": [a.replace(str(workdir), "<work>") for a in p["argv"]], "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)), "cpu": cpu,
        "python": sys.version.split()[0], "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration")},
        "blas_thread_env": threads, "commit": commit,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the self-test")
    args = parser.parse_args(argv)
    bench = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in bench["per_layer" if args.trace else "end_to_end"]}
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    if not (SRC / "sunburst_battery" / "cli.py").is_file():
        print(f"error: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    deadline = clock() + RUN_LIMIT_S

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        p = plan(args.workload, args.seed, workdir, args.smoke)
        context = machine_context(p, workdir)
        if args.trace:
            runs, metrics, spans = traced_run(p, workdir, deadline)
            (WORK / f"trace-{args.workload}.json").write_text(
                json.dumps({"context": context, "spans": spans}), encoding="utf-8")
        else:
            runs, metrics = timed_run(p, workdir, seconds, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(runs) * len(p["series"])
    failed = sum(r["failed"] for r in runs)
    context["repetitions"] = len(runs)
    context["walls_s"] = [round(r["wall"], 4) for r in runs]
    context["failed_frac"] = failed / attempted
    print("context " + json.dumps(context))
    metrics = {name: metrics[name] for name in units}
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
