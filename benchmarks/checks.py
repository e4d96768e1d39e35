"""Correctness checks on the CSV a workload writes.

Every CSV is read back with the package's ``read_csv`` and split into
series (one per (n, L, kappa, seed) key, in file order).  A series fails
when it is missing, has the wrong grid, or breaks a bound:

- fig1_cat, fig4_random: the acceptance bounds of tests/test_acceptance.py.
  Per-battery ergotropy and power within 0.05 of the single-battery closed
  form, the n = 1 linear entropy within 0.05 of its closed form, and for
  fig4 pairwise ergotropy gaps between charger seeds of at most 0.05.
- sweep_small: the battery invariants on every row,
  0 <= xi <= dE <= n delta, 0 <= SL <= 1 - 2**-n and P t = dE, plus, for
  the recorded seed, each series summary against the recorded one.

The closed forms are written out here rather than imported, so that the
check does not share code with the program it checks.
"""

from __future__ import annotations

import numpy as np

ACCEPT_TOL = 0.05   # tests/test_acceptance.py bound on per-battery curves
ROUND_TOL = 1e-9    # floating-point slack on exact invariants
SUMMARY_RTOL = 1e-9  # fast paths may move the last digits (ROADMAP allows ~1e-12)
FLAT_XI = 1e-9       # below this peak, xi is zero up to rounding and has no peak time


def single_battery(delta: float, kappa: float, times: np.ndarray) -> dict:
    """Strong-charger closed forms for one battery (population convention)."""
    omega = float(np.hypot(delta, 2.0 * kappa))
    excited = (2.0 * kappa / omega) ** 2 * np.sin(omega * times / 2.0) ** 2
    stored = delta * excited
    safe_t = np.where(times > 0, times, 1.0)
    return {
        "xi": np.maximum(0.0, delta * (2.0 * excited - 1.0)),
        "P": np.where(times > 0, stored / safe_t, 0.0),
        "SL": 1.0 - ((1.0 - excited) ** 2 + excited ** 2),
    }


def split_series(columns: dict) -> dict:
    """Row indices of each (n, L, kappa, seed) series, in file order."""
    keys = list(zip(columns["n"], columns["L"], columns["kappa"], columns["seed"]))
    series: dict = {}
    for row, key in enumerate(keys):
        series.setdefault(tuple(float(v) for v in key), []).append(row)
    return {key: np.asarray(rows) for key, rows in series.items()}


def summarize(columns: dict, rows: np.ndarray) -> list[float]:
    """Peak xi, its time, peak dE, peak P and peak SL of one series."""
    xi = columns["xi_num"][rows]
    return [float(xi.max()), float(columns["t"][rows][int(np.argmax(xi))]),
            float(columns["dE_num"][rows].max()), float(columns["P_num"][rows].max()),
            float(columns["SL_num"][rows].max())]


def same_summary(got, want) -> bool:
    """Summaries agree; the time of peak xi counts only where xi has a peak."""
    got, want = np.array(got, dtype=float), np.array(want, dtype=float)
    if want[0] <= FLAT_XI:
        got[1] = want[1] = 0.0
    return bool(np.allclose(got, want, rtol=SUMMARY_RTOL, atol=1e-12))


def closed_form_dev(columns: dict) -> float:
    """Largest per-battery |xi - xi_ana| over rows that carry a reference."""
    ref = columns["xi_ana"]
    has = np.isfinite(ref)
    if not has.any():
        return float("nan")
    return float(np.max(np.abs(columns["xi_num"][has] - ref[has]) / columns["n"][has]))


def _curve_problems(columns, rows, n, delta, kappa, times) -> list[str]:
    ref = single_battery(delta, kappa, times)
    problems = []
    for name, col in (("xi", "xi_num"), ("P", "P_num")):
        dev = float(np.max(np.abs(columns[col][rows] / n - ref[name])))
        if not dev <= ACCEPT_TOL:
            problems.append(f"per-battery {name} off the closed form by {dev:.3e}")
    if n == 1:
        dev = float(np.max(np.abs(columns["SL_num"][rows] - ref["SL"])))
        if not dev <= ACCEPT_TOL:
            problems.append(f"linear entropy off the closed form by {dev:.3e}")
    return problems


def _invariant_problems(columns, rows, n, delta) -> list[str]:
    xi, de = columns["xi_num"][rows], columns["dE_num"][rows]
    sl, power, t = columns["SL_num"][rows], columns["P_num"][rows], columns["t"][rows]
    tests = {
        "xi < 0": xi < 0.0,
        "xi > dE": xi > de + ROUND_TOL,
        "dE > n delta": de > n * delta + ROUND_TOL,
        "SL outside [0, 1 - 2**-n]": (sl < 0.0) | (sl > 1.0 - 2.0 ** -n + ROUND_TOL),
        "P t != dE": np.abs(power * t - de) > ROUND_TOL * np.maximum(1.0, np.abs(de)),
    }
    return [f"{name} on {int(bad.sum())} rows" for name, bad in tests.items() if bad.any()]


def check(spec: dict, columns: dict, reference_summaries=None) -> tuple[int, list[str]]:
    """Number of failed series and one message per problem.

    ``spec`` describes what the invocation should have written: ``series``
    (list of (n, L, kappa, seed) keys), ``times``, ``delta``, ``kind``
    ("collapse" or "invariants") and, for fig4, ``pairwise``.
    """
    found = split_series(columns)
    times = np.asarray(spec["times"])
    failed, messages = set(), []
    for key in (tuple(float(v) for v in k) for k in spec["series"]):
        rows = found.get(key)
        problems = []
        if rows is None:
            problems.append("missing")
        elif rows.size != times.size or np.max(np.abs(columns["t"][rows] - times)) > ROUND_TOL:
            problems.append(f"wrong grid ({rows.size} rows)")
        elif not all(np.all(np.isfinite(columns[c][rows]))
                     for c in ("dE_num", "xi_num", "SL_num", "P_num")):
            problems.append("non-finite values")
        elif spec["kind"] == "collapse":
            problems += _curve_problems(columns, rows, int(key[0]), spec["delta"], key[2], times)
        else:
            problems += _invariant_problems(columns, rows, int(key[0]), spec["delta"])
            if reference_summaries is not None:
                want = reference_summaries.get(repr(key[2]))
                got = summarize(columns, rows)
                if want is None or not same_summary(got, want):
                    problems.append(f"summary {got} != recorded {want}")
        if problems:
            failed.add(key)
            messages.append(f"series {key}: " + "; ".join(problems))
    if spec.get("pairwise") and not failed:
        keys = [tuple(float(v) for v in k) for k in spec["series"]]
        for i, a in enumerate(keys):
            for b in keys[i + 1:]:
                gap = float(np.max(np.abs(columns["xi_num"][found[a]]
                                          - columns["xi_num"][found[b]])))
                if not gap <= ACCEPT_TOL:
                    failed.update((a, b))
                    messages.append(f"series {a} vs {b}: xi gap {gap:.3e}")
    extra = set(found) - {tuple(float(v) for v in k) for k in spec["series"]}
    if extra:
        messages.append(f"unexpected series {sorted(extra)}")
        failed.update(tuple(float(v) for v in k) for k in spec["series"])
    return len(failed), messages
