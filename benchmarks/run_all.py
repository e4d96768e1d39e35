"""Run every workload of BENCHMARK.json, print each metric with its unit, check outputs.

    python3 benchmarks/run_all.py --seed 1
    python3 benchmarks/run_all.py --seed 1 --runs 10 --trace --out BENCH.json

For each workload, ``--runs`` untraced runs of ``run.py`` with seeds
seed, seed + 1, ... and, with ``--trace``, one traced run at ``--seed``.
Prints the median of each end-to-end metric with its spread (distance
between the first and third quartile as a share of the median, over the
runs), ``failed_frac`` (failed series / series attempted), and the
per-layer metrics of the traced run.  Exits 1 if any output check failed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited with {done.returncode}")
    context = next(json.loads(line[len("context "):]) for line in lines
                   if line.startswith("context "))
    out = {"seed": seed, "context": context, **json.loads(lines[-1])}
    values = ", ".join(f"{k} {v['value']:.5g}" for k, v in out["metrics"].items())
    print(f"  seed {seed} trace {trace}: correct {out['correct']}; {values}", flush=True)
    return out


def spread(values: list) -> float:
    """Interquartile distance as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--trace", action="store_true", help="add one traced run per workload")
    parser.add_argument("--out", help="write every run and summary to this JSON file")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m for m in bench["end_to_end"]}
    report, ok = {"runs": {}, "summary": {}}, True
    for workload in names:
        runs = [one_run(workload, args.seed + k, bench["run_seconds"], 0)
                for k in range(args.runs)]
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        ok = ok and all(r["correct"] for r in runs)
        summary = {"failed_frac": failed / attempted, "attempted": attempted, "metrics": {}}
        print(f"{workload}: {len(runs)} runs, failed_frac = {failed}/{attempted}")
        for name, meta in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            row = {"median": statistics.median(values), "spread": spread(values),
                   "unit": meta["unit"], "bound": meta["bound"], "values": values}
            summary["metrics"][name] = row
            flag = "" if row["spread"] <= meta["bound"] / 3 else "  (spread above bound/3)"
            print(f"  {name} = {row['median']:.6g} {meta['unit']}"
                  f"  spread {row['spread']:.4f} of bound {meta['bound']}{flag}")
        if args.trace:
            traced = one_run(workload, args.seed, bench["run_seconds"], 1)
            ok = ok and traced["correct"]
            runs.append(traced)
            summary["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
            for name, metric in traced["metrics"].items():
                print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
        report["runs"][workload] = runs
        report["summary"][workload] = summary
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
