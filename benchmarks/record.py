"""Record the reference outputs of the default seed into reference.json.

    python3 benchmarks/record.py

Stores the SHA-256 of each workload's CSV (it feeds the traced run's
``experiments.csv_bytes_match``) and the per-series summaries of
sweep_small, which its correctness check compares against.  Run it only
when the program's output is meant to change, and say so in CHANGES.md.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run
from checks import split_series, summarize


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    from sunburst_battery.experiments import read_csv

    seed = run.DEFAULT_SEED
    out = {"seed": seed, "csv_sha256": {}, "sweep_small_summaries": {}}
    run.WORK.mkdir(exist_ok=True)
    for workload in run.WORKLOADS:
        workdir = Path(tempfile.mkdtemp(prefix=f"record-{workload}-", dir=run.WORK))
        try:
            p = run.plan(workload, seed, workdir)
            result = run.spawn(run.program_cmd(p), workdir, run.RUN_LIMIT_S)
            if result["code"] != 0:
                return 1
            out["csv_sha256"][workload] = {str(seed): run.file_digest(p["csv"])}
            if workload == "sweep_small":
                columns = read_csv(p["csv"])
                out["sweep_small_summaries"][str(seed)] = {
                    repr(key[2]): summarize(columns, rows)
                    for key, rows in split_series(columns).items()
                }
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print(f"{workload}: {out['csv_sha256'][workload][str(seed)]}")
    run.REFERENCE.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
