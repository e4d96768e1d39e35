import ast
import dataclasses
import gc
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import typing
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import GHZ, numpy_figures, report_physical_memory
from sunburst_battery import experiments, validate
from sunburst_battery.analytic import AnalyticParams
from sunburst_battery.cli import build_parser, config_from_args, main
from sunburst_battery.config import (
    CHARGER_KINDS,
    ExperimentConfig,
    InitialStateSpec,
    ModelSpec,
    SweepSpec,
    TimeGrid,
    load_config,
)
from sunburst_battery.experiments import (
    CSV_COLUMNS,
    analytic_reference,
    cmd_fig1,
    cmd_fig3,
    cmd_fig4,
    cmd_sweep,
    read_csv,
    write_csv,
)
from sunburst_battery.model import battery_energies
from sunburst_battery.observables import WORK_FLOOR, MeritSeries, charging_power, reduce_to_battery
from sunburst_battery.validate import (CHECKS, VALIDATE_SEED, build_total, cmd_validate, eigh,
                                       evolve_on_grid, initial_state, max_ergotropy)

SMALL_MODEL = {"L": 4, "n": 1, "J": 1.0, "h": 0.1, "delta": 0.5, "kappa": 2.0}


def printed_gaps(out: str, label: str) -> list[float]:
    """Every value that a line of ``out`` prints as ``label = value``."""
    return [float(value) for value in re.findall(re.escape(label) + r" = (\S+)", out)]


def small_config(tmp_path, name, **overrides):
    """A small config with a ghz_plus initial section; a section overridden
    with None is left out."""
    data = {
        "model": dict(SMALL_MODEL),
        "initial": {"charger_kind": "ghz_plus"},
        "grid": {"t_start": 0.0, "t_end": 2.0, "steps": 40},
        "seed": 7,
        "output_path": str(tmp_path / name),
    }
    data.update(overrides)
    return ExperimentConfig.from_dict({k: v for k, v in data.items() if v is not None})


def test_config_roundtrip_and_unknown_keys(tmp_path):
    payload = {
        "model": dict(SMALL_MODEL),
        "initial": {"charger_kind": "random"},
        "grid": {"t_start": 0.0, "t_end": 1.0, "steps": 10},
        "sweep": {"parameter": "kappa", "values": [0.5, 1.0]},
        "seed": 42,
        "output_path": "x.csv",
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    config = load_config(path)
    assert config.model.kappa == 2.0
    assert config.initial.charger_kind == "random"
    assert config.sweep.values == (0.5, 1.0)
    assert config.seed == 42

    for corruption in (
        {"extra": 1},
        {"model": {**SMALL_MODEL, "mu": 0.2}},
        {"grid": {"t_start": 0, "t_end": 1, "steps": 10, "dt": 0.1}},
        {"initial": {"charger_kind": "ghz_plus", "phase": 0.3}},
        {"initial": {"charger_kind": "random", "seed": 3}},
        {"sweep": {"parameter": "kappa", "values": [1], "scale": "log"}},
    ):
        broken = {**payload, **corruption}
        with pytest.raises(ValueError, match="unknown"):
            ExperimentConfig.from_dict(broken)


@pytest.mark.parametrize("data, key", [
    ({"model": {**SMALL_MODEL, "L": 11.7}}, "model.L"),
    ({"grid": {"steps": 2000.9}}, "grid.steps"),
    ({"seed": 1.5}, "config.seed"),
    ({"initial": {"charger_kind": "eigenstate", "index": 2.5}}, "initial.index"),
    ({"sweep": {"parameter": "n", "values": [1.5]}}, "sweep.values"),
    ({"model": {**SMALL_MODEL, "L": 11.0}, "seed": 2 ** 64 - 1}, None),
])
def test_integer_keys_must_hold_integral_numbers(data, key):
    if key is not None:
        with pytest.raises(ValueError, match=re.escape(key)):
            ExperimentConfig.from_dict(data)
        return
    config = ExperimentConfig.from_dict(data)
    assert config.model.L == 11 and isinstance(config.model.L, int)
    assert config.seed == 2 ** 64 - 1


@pytest.mark.parametrize("data, key", [
    ({"model": {**SMALL_MODEL, "L": "11"}}, "model.L"),
    ({"model": {**SMALL_MODEL, "h": "0.1"}}, "model.h"),
    ({"model": {**SMALL_MODEL, "kappa": True}}, "model.kappa"),
    ({"seed": True}, "config.seed"),
    ({"grid": {"steps": "40"}}, "grid.steps"),
    ({"sweep": {"parameter": "kappa", "values": ["1.0"]}}, "sweep.values"),
    ({"model": {**SMALL_MODEL, "L": 11.0}, "seed": 2 ** 64 - 1}, None),
])
def test_numeric_keys_reject_strings_and_booleans(data, key):
    if key is not None:
        with pytest.raises(ValueError, match=re.escape(key)):
            ExperimentConfig.from_dict(data)
        return
    config = ExperimentConfig.from_dict(data)
    assert config.model.L == 11 and isinstance(config.model.L, int)
    assert config.seed == 2 ** 64 - 1
    # a seed set after parsing is checked the same way
    with pytest.raises(ValueError, match="config.seed"):
        replace(config, seed=1.5)
    assert replace(config, seed=3.0).seed == 3


def test_grid_and_sweep_validation():
    with pytest.raises(ValueError):
        TimeGrid(0.0, 2.0, 1)
    with pytest.raises(ValueError):
        TimeGrid(1.0, 0.5, 10)
    with pytest.raises(ValueError):
        TimeGrid(-0.1, 1.0, 10)
    with pytest.raises(ValueError):
        SweepSpec("coupling", (1.0,))
    with pytest.raises(ValueError):
        SweepSpec("kappa", ())
    with pytest.raises(ValueError):
        SweepSpec("n", (-1,))
    assert SweepSpec("n", (1, 2)).values == (1, 2)


VALID_CONFIG = {
    "model": {"L": 4, "n": 2, "d": 2, "J": 1.0, "h": 0.1, "delta": 0.5, "kappa": 2.0},
    "initial": {"charger_kind": "random", "index": None},
    "grid": {"t_start": 0.0, "t_end": 1.0, "steps": 10},
    "sweep": {"parameter": "kappa", "values": [0.5, 1.0]},
    "seed": 42,
    "output_path": "x.csv",
}
JSON_SCALARS = (
    st.sampled_from([None, True, False, 0, -1, math.nan, math.inf, -math.inf, "", "kappa",
                     "n", "random", "eigenstate"]),
    st.sampled_from([2 ** 64, -(2 ** 64), 10 ** 400, -(10 ** 400)]),
    st.integers(), st.floats(), st.text(max_size=6),
)
JSON_VALUES = st.one_of(*JSON_SCALARS, st.recursive(
    st.one_of(*JSON_SCALARS),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                               max_size=3),
    max_leaves=6,
))
CONFIG_PATHS = [(key, None) for key in VALID_CONFIG] + [
    (key, field) for key, section in VALID_CONFIG.items() if isinstance(section, dict)
    for field in section]


@st.composite
def json_configs(draw):
    """VALID_CONFIG with one to three known keys, or whole sections, set to
    arbitrary JSON values and some sections left out."""
    config = {key: dict(value) if isinstance(value, dict) else value
              for key, value in VALID_CONFIG.items()}
    for key, field in draw(st.lists(st.sampled_from(CONFIG_PATHS), min_size=1, max_size=3)):
        if field is not None and isinstance(config[key], dict):
            config[key][field] = draw(JSON_VALUES)
        elif field is None:
            config[key] = draw(JSON_VALUES)
    for key in draw(st.lists(st.sampled_from(sorted(VALID_CONFIG)), max_size=2)):
        config.pop(key, None)
    return config


@settings(max_examples=400, deadline=None, database=None)
@given(json_configs())
def test_config_parses_or_raises_value_error_on_any_json(data):
    # nulls, booleans, huge integers, NaN and infinities, strings, lists and
    # objects under every known key: bad input fails with a ValueError
    try:
        ExperimentConfig.from_dict(data)
    except ValueError:
        pass


@pytest.mark.parametrize("section, key", [("model", "h"), ("grid", "t_end")])
def test_cli_refuses_an_integer_beyond_the_float_range(tmp_path, capsys, section, key):
    # JSON reads a 400-digit integer exactly; as a float it overflows
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({section: {**VALID_CONFIG[section], key: 10 ** 400},
                                       "output_path": str(tmp_path / "never.csv")}))
    assert main(["fig4", "--config", str(config_path)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: {section}.{key} is an integer beyond the float range"]
    assert not (tmp_path / "never.csv").exists()


CONFIG_SECTIONS = (("config", ExperimentConfig), ("model", ModelSpec),
                   ("initial", InitialStateSpec), ("grid", TimeGrid), ("sweep", SweepSpec))


def test_every_numeric_config_field_is_read_by_its_declared_type():
    # the types are resolved from each section's annotations here, apart
    # from the reader: an int field set to 2.5 and a float field set to
    # "0.1" are refused by their key path, so a reader that stops matching
    # a declaration lets one through to its dataclass and fails
    checked = []
    for key, cls in CONFIG_SECTIONS:
        types = typing.get_type_hints(cls)
        for field in dataclasses.fields(cls):
            if types[field.name] in (int, int | None):
                value, message = 2.5, "must be an integer, got 2.5"
            elif types[field.name] is float:
                value, message = "0.1", "must be a number, got '0.1'"
            else:
                continue
            data = {name: dict(section) if isinstance(section, dict) else section
                    for name, section in VALID_CONFIG.items()}
            (data if key == "config" else data[key])[field.name] = value
            path = f"{key}.{field.name}"
            with pytest.raises(ValueError, match=f"^{re.escape(f'{path} {message}')}$"):
                ExperimentConfig.from_dict(data)
            checked.append(path)
    assert checked == ["config.seed", "model.L", "model.n", "model.d", "model.J", "model.h",
                       "model.delta", "model.kappa", "initial.index", "grid.t_start",
                       "grid.t_end", "grid.steps"]


def test_cli_refuses_a_config_nested_too_deeply_for_the_json_reader(tmp_path, capsys):
    # 100 000 nested lists overflow the JSON reader's recursion limit
    out = tmp_path / "never.csv"
    config_path = tmp_path / "config.json"
    config_path.write_text('{"model": ' + "[" * 100_000 + "]" * 100_000
                           + f', "output_path": {json.dumps(str(out))}}}')
    assert main(["fig1", "--config", str(config_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        f"error: config {str(config_path)!r} is nested too deeply to read"]
    assert captured.out == "" and not out.exists()


def test_cli_names_a_config_file_that_fails_to_parse(tmp_path, monkeypatch, capsys):
    # the parser's own message follows the path, for bad JSON and bad UTF-8 alike
    calls = []
    monkeypatch.setattr(experiments, "run_series", lambda *args: calls.append(args))
    monkeypatch.chdir(tmp_path)
    cases = {
        "truncated.json": (b'{"model": ', "Expecting value: line 1 column 11 (char 10)"),
        "utf16.json": (b"\xff\xfe", "'utf-8' codec can't decode byte 0xff in position 0"),
        "empty.json": (b"", "Expecting value: line 1 column 1 (char 0)"),
    }
    for name, (content, reason) in cases.items():
        config_path = tmp_path / name
        config_path.write_bytes(content)
        assert main(["fig1", "--config", str(config_path)]) == 2
        captured = capsys.readouterr()
        [line] = captured.err.splitlines()
        assert line.startswith(f"error: config {str(config_path)!r} is not valid JSON: "), line
        assert reason in line
        assert captured.out == ""
    assert calls == [] and sorted(path.name for path in tmp_path.iterdir()) == sorted(cases)


def test_cli_refuses_a_field_that_overflows_the_hamiltonian_in_one_line(tmp_path, capsys):
    # h = 1e308 takes the ring's diagonal past the float range to inf, which
    # raises no numpy warning: the overflowing phase bound is the one line
    out = tmp_path / "never.csv"
    assert main(["fig1", "--h-override", "1e308", "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: phase bound * t = inf * 2 overflows the float range"]
    assert not out.exists()


@pytest.mark.parametrize("n,kappa", [(1, 1e8), (2, 1e10)])
def test_fig4_at_large_energies_reads_no_roundoff_as_negative_unavailable_energy(
        tmp_path, capsys, n, kappa):
    # at delta = 1e8 the ground level -n delta/2 is large; with the energies
    # measured from it, the passive energy of the all-ground start is exactly
    # 0 and its unavailable energy exactly 0, not -7e-9 or -1.5e-8
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "model": {"L": 4, "n": n, "delta": 1e8, "kappa": kappa},
        "grid": {"t_end": 1e-7, "steps": 50},
        "output_path": str(tmp_path / "fig4.csv")}))
    assert main(["fig4", "--config", str(config_path)]) == 0
    assert capsys.readouterr().err == ""
    cols = read_csv(tmp_path / "fig4.csv")
    assert cols["t"].size == 3 * 50
    start = cols["t"] == 0.0
    assert np.all(cols["dE_num"][start] == 0.0) and np.all(cols["xi_num"][start] == 0.0)
    assert np.min(cols["dE_num"] - cols["xi_num"]) >= -1e-9


def test_cli_refuses_an_output_path_with_a_null_byte_before_any_run(tmp_path, monkeypatch,
                                                                     capsys):
    calls = []
    monkeypatch.setattr(experiments, "run_series", lambda *args: calls.append(args))
    out = str(tmp_path / "a\0b.csv")
    assert main(["fig1", "--out", out]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"error: output path {out!r} has an embedded null byte"]
    assert captured.out == "" and calls == [] and list(tmp_path.iterdir()) == []


def test_csv_format_and_reread(tmp_path):
    path = tmp_path / "table.csv"
    columns = [(0.1,), (1 / 3,), None, (2.0,), (0.0,), None, None, None, None]
    write_csv(path, list(experiments._format_rows(columns, (1, 4, 2.0, 7))), "table")
    raw = path.read_bytes()
    assert raw.startswith((",".join(CSV_COLUMNS) + "\n").encode())
    assert b"\r" not in raw
    assert b"0.33333333333333331" in raw  # 17 significant digits
    cols = read_csv(path)
    assert cols["dE_num"][0] == 1 / 3
    assert np.isnan(cols["xi_num"][0])
    assert cols["seed"][0] == 7


def test_csv_golden_bytes_for_tuple_and_series_rows(tmp_path):
    # one-entry columns (fig3's summary rows) and a whole series format None
    # as empty, integers (np.int64 too) as digits and floats with 17
    # significant digits, signed zero and subnormal-range values included;
    # a series of n = 3 batteries carries its closed-form cells
    header = ",".join(CSV_COLUMNS) + "\n"
    path = tmp_path / "tuples.csv"
    columns = [(-0.0,), (1e-300,), None, (0.1,), (2,), (np.int64(-3),), (1 / 3,), None, (5.0,)]
    write_csv(path, list(experiments._format_rows(columns, (1, 4, 2.0, np.int64(2 ** 63 - 1)))),
              "tuples")
    assert path.read_bytes() == (
        header + "-0,1e-300,,0.10000000000000001,2,-3,"
        "0.33333333333333331,,5,1,4,2,9223372036854775807\n").encode()

    column = np.array([0.0, -0.0, 1e-300, 1 / 3])
    series = MeritSeries(t=column, stored_energy=-column, ergotropy=column,
                         linear_entropy=column, power=-column)
    lines = experiments._SeriesLines([(ModelSpec(6, 3, kappa=0.5), None, np.int64(9))], [series])
    path = tmp_path / "series.csv"
    write_csv(path, lines, "series")
    assert path.read_bytes() == (
        header
        + "0,-0,0,0,-0,0,0,0,0,3,6,0.5,9\n"
        + "-0,0,-0,-0,0,0,0,0,0,3,6,0.5,9\n"
        + "1e-300,-1e-300,1e-300,"
          "1e-300,-1e-300,0,0,0,0,3,6,0.5,9\n"
        + "0.33333333333333331,-0.33333333333333331,0.33333333333333331,"
          "0.33333333333333331,-0.33333333333333331,0.041186640704626791,0,"
          "0.14371807539089576,0.12355992211388037,3,6,0.5,9\n").encode()


@settings(max_examples=200, deadline=None)
@given(rows=st.integers(0, 4), data=st.data(),
       labels=st.tuples(st.integers(0, 8), st.integers(2, 24), st.floats(),
                        st.integers(0, 2 ** 64 - 1)))
def test_row_template_formats_every_cell_as_fmt(rows, data, labels):
    # nan, infinities, subnormals and -0.0 included; a None column is blank,
    # and the first (the time) never is
    def fmt(value):
        if value is None:
            return ""
        if isinstance(value, (int, np.integer)):
            return str(int(value))
        return format(float(value), ".17g")

    column = st.lists(st.floats(), min_size=rows, max_size=rows)
    columns = [data.draw(column)] + data.draw(st.lists(st.none() | column, max_size=8))
    lines = list(experiments._format_rows(columns, labels))
    assert len(lines) == rows
    for k, line in enumerate(lines):
        cells = [None if col is None else col[k] for col in columns] + list(labels)
        assert line == ",".join(map(fmt, cells))


def test_series_lines_do_not_depend_on_the_grid_block(monkeypatch):
    # two full blocks and three points more: the block edges leave no mark
    t = np.linspace(0.0, 2.0, 2 * experiments.GRID_BLOCK + 3)
    series = MeritSeries(t=t, stored_energy=np.sin(t), ergotropy=np.cos(t) ** 2,
                         linear_entropy=-t / 3, power=np.exp(-t))
    runs = [(ModelSpec(4, 1), None, 7), (ModelSpec(6, 3, kappa=0.5), None, 8)]
    blocked = list(experiments._SeriesLines(runs, [series, series]))
    monkeypatch.setattr(experiments, "GRID_BLOCK", t.size)
    assert blocked == list(experiments._SeriesLines(runs, [series, series]))
    assert len(blocked) == 2 * t.size


def test_csv_golden_bytes_for_a_fig3_row_without_work(tmp_path):
    # no peak (blank t and SL_num) and no closed form (n = 3): one line
    path = tmp_path / "fig3.csv"
    columns = [None, (0.25,), (1e-17,), None, (np.float64(1 / 3),), None, None, None, None]
    write_csv(path, list(experiments._format_rows(columns, (3, 9, 0.25, 2 ** 64 - 1))), "fig3")
    assert path.read_bytes() == (
        ",".join(CSV_COLUMNS) + "\n"
        + ",0.25,1.0000000000000001e-17,,0.33333333333333331,,,,,3,9,0.25,"
          "18446744073709551615\n").encode()


def test_series_csv_is_written_a_grid_block_at_a_time(tmp_path):
    # the lines of a run are never all held: one n = 1 series of 1e4 points
    # costs at most 64 B per point above the series itself (the closed-form
    # columns take 32 of them; 57 B in all), where a formatter that holds a
    # whole run's lines takes 555
    t = np.linspace(0.0, 2.0, 10_000)
    series = MeritSeries(t=t, stored_energy=t / 3, ergotropy=t / 7, linear_entropy=-t,
                         power=t * t)
    lines = experiments._SeriesLines([(ModelSpec(4, 1), None, 7)], [series])
    tracemalloc.start()
    try:
        write_csv(tmp_path / "long.csv", lines, "long")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * t.size, peak / t.size
    assert len(read_csv(tmp_path / "long.csv")["t"]) == t.size


def test_read_csv_rejects_a_row_of_the_wrong_width(tmp_path):
    path = tmp_path / "short.csv"
    path.write_text(",".join(CSV_COLUMNS) + "\n" + ",".join(["1"] * len(CSV_COLUMNS))
                    + "\n\n" + ",".join(["1"] * (len(CSV_COLUMNS) - 1)) + "\n")
    with pytest.raises(ValueError, match=f"CSV line 4 has {len(CSV_COLUMNS) - 1} cells"):
        read_csv(path)


def test_read_csv_rejects_an_unexpected_header(tmp_path):
    path = tmp_path / "renamed.csv"
    path.write_text(",".join(("time",) + CSV_COLUMNS[1:]) + "\n")
    with pytest.raises(ValueError, match="unexpected CSV header"):
        read_csv(path)


def test_analytic_reference_filling():
    # every n has every column: dE, xi and P are n times one battery's, and
    # SL is the cat charger's (1 - (1 - 2 q)^(2n)) / 2, q the excited
    # population, so n = 0 has zero cells
    times = np.linspace(0.0, 1.0, 5)
    one = ModelSpec(4, 1)
    dE1, xi1, sl1, p1 = analytic_reference(one, times)
    q = dE1 / one.delta
    assert np.allclose(sl1, 2 * q * (1 - q), rtol=0, atol=1e-15)
    for n in (0, 2, 3, 4):
        dE, xi, sl, power = analytic_reference(ModelSpec(12 - n, n), times)
        assert np.array_equal(dE, n * dE1) and np.array_equal(xi, n * xi1)
        assert np.array_equal(power, n * p1)
        assert np.allclose(sl, (1 - (1 - 2 * q) ** (2 * n)) / 2, rtol=0, atol=1e-15)
    assert all(np.array_equal(col, np.zeros_like(times))
               for col in analytic_reference(ModelSpec(4, 0), times))
    # delta = kappa = 0 freezes the battery: omega = 0, and every closed-form
    # column and the peak work are zero, not the NaN of a division by omega
    for n in (0, 1, 2, 3):
        for col in analytic_reference(ModelSpec(12 - n, n, delta=0.0, kappa=0.0), times):
            assert np.array_equal(col, np.zeros_like(times)), (n, col)
    assert max_ergotropy(AnalyticParams(0.0, 0.0)) == 0.0


@pytest.mark.parametrize("L, n", [(7, 1), (6, 2), (6, 3), (4, 4)])
def test_analytic_reference_is_exact_for_every_battery_count_at_zero_field(L, n):
    # at h = 0 the batteries are excited independently, each with the one-
    # battery probability q, whatever the charger: dE, xi and P are n times
    # one battery's, and a cat charger gives SL = (1 - (1 - 2 q)^(2n)) / 2.
    # P is compared as P t, since P = dE / t magnifies roundoff near t = 0
    spec = ModelSpec(L, n, h=0.0)
    times = np.linspace(0.0, 2.0, 200)
    dE, xi, sl, power = analytic_reference(spec, times)
    for kind, index, seed in (("ghz_plus", None, None), ("ghz_minus", None, None),
                              ("random", None, 5), ("eigenstate", 3, None)):
        series = experiments.run_series(spec, InitialStateSpec(kind, index), times, seed)
        gaps = [np.max(np.abs(series.stored_energy - dE)), np.max(np.abs(series.ergotropy - xi)),
                np.max(np.abs(series.power * times - power * times))]
        if kind.startswith("ghz"):
            gaps.append(np.max(np.abs(series.linear_entropy - sl)))
        assert max(gaps) <= 1e-12, (kind, gaps)


def test_fig1_small_scale(tmp_path, capsys):
    config = small_config(tmp_path, "fig1.csv")
    assert cmd_fig1(config, collapse_systems=((4, 2),)) is None
    out = capsys.readouterr().out
    collapse = printed_gaps(out, "max |xi/n - xi_ana|")
    assert len(collapse) == 2 and max(collapse) <= 0.05
    entropy = printed_gaps(out, "max |SL - SL_ana|")
    assert len(entropy) == 2 and max(entropy) <= 0.05
    power = printed_gaps(out, "max |P/n - P_ana|")
    assert len(power) == 2 and max(power) <= 0.05
    cols = read_csv(config.output_path)
    assert len(cols["t"]) == 2 * 40
    # power vanishes at t = 0 for every system
    assert np.all(cols["P_num"][cols["t"] == 0.0] == 0.0)
    # every analytic cell is filled, for n = 1 and n = 2 alike
    for name in ("dE_ana", "xi_ana", "SL_ana", "P_ana"):
        assert not np.isnan(cols[name]).any(), name


def test_fig1_prints_the_power_collapse_and_fig2_is_gone(tmp_path, capsys):
    # fig1 writes the paper's Figs. 1 and 2: after its ergotropy lines, one
    # power line per system, in run order; fig2 is no command
    with pytest.raises(SystemExit) as exit_info:
        main(["fig2", "--out", str(tmp_path / "never.csv")])
    assert exit_info.value.code == 2
    assert "invalid choice: 'fig2'" in capsys.readouterr().err
    config = small_config(tmp_path, "fig1.csv")
    cmd_fig1(config, collapse_systems=((4, 2), (3, 1)))
    lines = capsys.readouterr().out.splitlines()
    xi = [k for k, line in enumerate(lines) if "max |xi/n - xi_ana|" in line]
    power = [k for k, line in enumerate(lines) if "max |P/n - P_ana|" in line]
    assert len(xi) == len(power) == 3 and max(xi) < min(power)
    assert [lines[k].split(":")[0] for k in power] == [
        "fig1 (L=4, n=1)", "fig1 (L=4, n=2)", "fig1 (L=3, n=1)"]
    assert not (tmp_path / "never.csv").exists()


def test_fig1_compares_the_linear_entropy_for_every_battery_count(tmp_path, capsys):
    # a (6, 2) panel and a (4, 1) collapse system: one SL line per system,
    # in run order, between the xi and the P lines, each the largest gap of
    # SL_num to the SL_ana cells of its n
    config = small_config(tmp_path, "fig1.csv", model={**SMALL_MODEL, "L": 6, "n": 2})
    cmd_fig1(config, collapse_systems=((4, 1),))
    lines = capsys.readouterr().out.splitlines()
    labels = [line.split(": ")[1].split(" = ")[0] for line in lines[:-1]]
    assert labels == ["max |xi/n - xi_ana|"] * 2 + ["max |SL - SL_ana|"] * 2 + [
        "max |P/n - P_ana|"] * 2
    assert [line.split(":")[0] for line in lines[2:4]] == ["fig1 (L=6, n=2)", "fig1 (L=4, n=1)"]
    cols = read_csv(config.output_path)
    gaps = [np.max(np.abs(cols["SL_num"] - cols["SL_ana"])[cols["n"] == n]) for n in (2, 1)]
    assert printed_gaps("\n".join(lines), "max |SL - SL_ana|") == [float(f"{g:.3e}") for g in gaps]
    assert max(gaps) <= 0.05


@pytest.mark.parametrize("initial", [{"charger_kind": "eigenstate", "index": 3},
                                     {"charger_kind": "random"}], ids=["eigenstate", "random"])
def test_fig1_compares_the_linear_entropy_only_for_a_cat_charger(tmp_path, capsys, initial):
    # SL_ana is the cat charger's closed form, so another charger gets no SL
    # line (at h = 0 an eigenstate charger leaves its battery pure), but
    # still its xi and P lines, which at h = 0 hold for every charger, and a
    # full SL_ana column
    config = small_config(tmp_path, "fig1.csv", model={**SMALL_MODEL, "h": 0.0}, initial=initial)
    cmd_fig1(config, collapse_systems=((4, 2),))
    lines = capsys.readouterr().out.splitlines()
    labels = [line.split(": ")[1].split(" = ")[0] for line in lines[:-1]]
    assert labels == ["max |xi/n - xi_ana|"] * 2 + ["max |P/n - P_ana|"] * 2
    assert max(printed_gaps("\n".join(lines), "max |xi/n - xi_ana|")) <= 1e-12
    assert not np.isnan(read_csv(config.output_path)["SL_ana"]).any()


def test_a_model_without_a_battery_is_refused_by_the_closed_form_commands(
        tmp_path, monkeypatch, capsys):
    # fig1 and fig4 compare each battery with the one-battery closed forms:
    # n = 0 fails before any run.  A sweep over n compares nothing, and runs
    # it, with zero closed-form cells
    calls = []
    for name in ("run_series", "trajectory"):
        monkeypatch.setattr(experiments, name, lambda *args: calls.append(args))
    config_path = tmp_path / "config.json"
    for command in ("fig1", "fig4"):
        out = tmp_path / f"{command}.csv"
        config_path.write_text(json.dumps({"model": {"L": 4, "n": 0}, "output_path": str(out)}))
        assert main([command, "--config", str(config_path)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {command} compares each battery with the one-battery closed forms; "
            "the (L, n) = (4, 0) system has no battery"]
        assert calls == [] and not out.exists()
    monkeypatch.undo()
    config = small_config(tmp_path, "sweep.csv", sweep={"parameter": "n", "values": [0, 1]})
    cmd_sweep(config)
    cols = read_csv(config.output_path)
    assert set(np.unique(cols["n"])) == {0, 1}
    for name in ("dE_ana", "xi_ana", "SL_ana", "P_ana"):
        assert np.all(cols[name][cols["n"] == 0] == 0.0), name


@pytest.mark.parametrize("kind", ["ghz_plus", "random"])
def test_a_sweep_over_a_subnormal_grid_window_writes_no_nan_cell(tmp_path, kind):
    # every gap between a time and a node is subnormal on [0, 1e-320]
    config = small_config(tmp_path, "tiny.csv", initial={"charger_kind": kind},
                          grid={"t_start": 0.0, "t_end": 1e-320, "steps": 5},
                          sweep={"parameter": "kappa", "values": [1.0, 2.0]})
    cmd_sweep(config)
    cols = read_csv(config.output_path)
    assert cols["t"].size == 10
    for name in CSV_COLUMNS:
        assert not np.isnan(cols[name]).any(), name


def test_fig1_on_a_tiny_window_stores_and_charges_exactly_nothing(tmp_path, capsys):
    # over t <= 1e-300 every battery stays in level 0 to roundoff: its stored
    # energy must read 0, not the cancellation of its level sum against the
    # ground level, which the power would then divide by t
    config_path = tmp_path / "tiny.json"
    out = tmp_path / "tiny.csv"
    config_path.write_text(json.dumps({"model": {"L": 4, "n": 1},
                                       "grid": {"t_end": 1e-300, "steps": 5},
                                       "output_path": str(out)}))
    assert main(["fig1", "--config", str(config_path)]) == 0
    cols = read_csv(out)
    assert cols["t"].size == 5  # the (4, 1) register holds no other system
    assert np.all(cols["dE_num"] == 0.0) and np.all(cols["P_num"] == 0.0)
    gaps = [line for line in capsys.readouterr().out.splitlines() if "max |" in line]
    assert len(gaps) == 3 and all(line.endswith(" = 0.000e+00") for line in gaps), gaps


def fig1_keys(tmp_path, capsys, model):
    """The (n, L) key of every row, and the printed systems, of a 5-step fig1
    run through ``main`` on ``model``."""
    code, out, err, cols = run_cli(tmp_path, capsys, "fig1",
                                   {"model": model, "grid": {"steps": 5}})
    assert code == 0 and err == [], err
    systems = [line.split(":")[0] for line in out if "max |xi/n - xi_ana|" in line]
    return list(zip(cols["n"].astype(int), cols["L"].astype(int))), systems


def test_fig1_runs_every_system_of_its_register_once(tmp_path, capsys):
    # a (10, 2) panel is one of its register's systems: the others, (11, 1),
    # (9, 3) and (8, 4), run once each after it, and no key is written twice
    keys, systems = fig1_keys(tmp_path, capsys, {"L": 10, "n": 2})
    assert keys == [key for key in ((2, 10), (1, 11), (3, 9), (4, 8)) for _ in range(5)]
    assert systems == ["fig1 (L=10, n=2)", "fig1 (L=11, n=1)", "fig1 (L=9, n=3)",
                       "fig1 (L=8, n=4)"]


def test_fig1_runs_the_systems_fig3_runs_on_its_register(tmp_path, capsys):
    # a (5, 1) register holds (5, 1), (4, 2) and (3, 3), as fig3 reads it
    keys, _ = fig1_keys(tmp_path, capsys, {"L": 5, "n": 1})
    assert keys[::5] == [(1, 5), (2, 4), (3, 3)]
    code, _, _, cols = run_cli(tmp_path, capsys, "fig3", {
        "model": {"L": 5, "n": 1}, "grid": {"steps": 20},
        "sweep": {"parameter": "kappa", "values": [2.0]}})
    assert code == 0
    assert list(zip(cols["n"].astype(int), cols["L"].astype(int))) == keys[::5]


@pytest.mark.parametrize("command, sweep", [
    ("sweep", {"parameter": "kappa", "values": [2.0, 2.0]}),
    ("sweep", {"parameter": "kappa", "values": [1.0, -0.0, 0.0]}),
    ("sweep", {"parameter": "n", "values": [1, 2, 2.0]}),
    ("fig3", {"parameter": "kappa", "values": [1.0, 1.0]}),
], ids=["kappa", "kappa-signed-zero", "n", "fig3"])
def test_a_repeated_sweep_value_is_refused_in_one_line(tmp_path, capsys, command, sweep):
    # two runs of one value would write one (n, L, kappa, seed) key twice;
    # the fresh-process config test below shows numpy is not yet loaded
    model = {"L": 6, "n": 2} if sweep["parameter"] == "n" else {"L": 4, "n": 1}
    code, out, err, cols = run_cli(tmp_path, capsys, command, {
        "model": model, "grid": {"steps": 5}, "sweep": sweep})
    assert (code, out, cols) == (2, [], None)
    assert len(err) == 1 and err[0].startswith("error: sweep.values must name each series once")


def test_fig1_refuses_a_collapse_system_without_a_battery_before_any_run(
        tmp_path, monkeypatch):
    # a library call may pass collapse systems: one with n = 0 has no
    # per-battery curve to compare, and fails before the first run
    calls = []
    monkeypatch.setattr(experiments, "run_series", lambda *args: calls.append(args))
    config = small_config(tmp_path, "fig1.csv")
    with pytest.raises(ValueError, match=re.escape("the (L, n) = (4, 0) system has no battery")):
        cmd_fig1(config, collapse_systems=((4, 0),))
    assert calls == [] and list(tmp_path.iterdir()) == []


def test_fig1_rows_are_reproducible_bytes(tmp_path):
    config = small_config(tmp_path, "first.csv")
    cmd_fig1(config, collapse_systems=((4, 2),))
    first = (tmp_path / "first.csv").read_bytes()
    config2 = small_config(tmp_path, "second.csv")
    cmd_fig1(config2, collapse_systems=((4, 2),))
    second = (tmp_path / "second.csv").read_bytes()
    assert first == second


def test_fig1_zero_coupling_kills_all_work_columns(tmp_path):
    config = small_config(tmp_path, "fig1_k0.csv",
                          model={**SMALL_MODEL, "kappa": 0.0})
    cmd_fig1(config, collapse_systems=((4, 2),))
    cols = read_csv(config.output_path)
    assert np.max(np.abs(cols["xi_num"])) <= 1e-12
    assert np.max(np.abs(cols["xi_ana"])) == 0.0


def test_fig3_small_scale(tmp_path):
    # a (5, 1) register runs n = 1, 2 and 3 at L + n = 6; n = 4 would leave
    # a ring of two sites that four batteries cannot be spaced on
    config = small_config(tmp_path, "fig3.csv", model={**SMALL_MODEL, "L": 5},
                          sweep={"parameter": "kappa", "values": [0.25, 2.0]})
    assert cmd_fig3(config) is None
    cols = read_csv(config.output_path)
    assert len(cols["t"]) == 6
    assert list(zip(cols["n"], cols["L"])) == [(1, 5), (1, 5), (2, 4), (2, 4), (3, 3), (3, 3)]
    for name in ("dE_ana", "xi_ana", "P_ana"):
        assert not np.isnan(cols[name]).any(), name
    # SL_ana is read at the numeric ergotropy peak, so it is blank where SL_num is
    assert np.array_equal(np.isnan(cols["SL_ana"]), np.isnan(cols["SL_num"]))
    # per battery: the closed-form cells of every n are n times one battery's
    xi, xi_ana, power, power_ana = (cols[name] / cols["n"]
                                    for name in ("xi_num", "xi_ana", "P_num", "P_ana"))
    weak = cols["kappa"] == 0.25
    # threshold coupling: no extractable work up to h corrections
    assert np.all(xi[weak] <= 0.05)
    assert np.all(np.abs(xi - xi_ana)[~weak] <= 0.05)
    assert np.all((np.abs(power - power_ana) / power_ana)[~weak] <= 0.05)


def test_fig3_leaves_peak_cells_empty_without_work(tmp_path, capsys):
    # 2 kappa < delta: the ergotropy series of every n is roundoff, so it has
    # no peak time and no entropy at that peak; the strong-coupling points
    # keep both
    config = small_config(tmp_path, "fig3.csv", model={**SMALL_MODEL, "L": 5},
                          sweep={"parameter": "kappa", "values": [0.2, 2.0]})
    cmd_fig3(config)
    cols = read_csv(config.output_path)
    assert set(cols["n"]) == {1, 2, 3}
    below = cols["kappa"] == 0.2
    assert np.max(cols["xi_num"][below]) <= 1e-12
    assert np.isnan(cols["t"][below]).all() and np.isnan(cols["SL_num"][below]).all()
    assert not np.isnan(cols["t"][~below]).any() and not np.isnan(cols["SL_num"][~below]).any()
    assert not np.isnan(cols["dE_num"]).any() and not np.isnan(cols["P_num"]).any()
    out = capsys.readouterr().out
    for n in (1, 2, 3):
        assert f"fig3 (n={n}, kappa=0.2): no work, max xi/n" in out
        assert f"fig3 (n={n}, kappa=2.0): max xi/n" in out
    # just above threshold (2 kappa = delta (1 + 1e-6), h = 0) the peak
    # ergotropy is 5.0e-7, far below the strong-coupling values but above
    # WORK_FLOOR = 1e-12: it has a peak time; the odd step count puts T = pi/omega on the grid.
    # A (4, 1) register runs n = 1 alone: no ring of 3, 2 or 1 sites spaces 2, 3 or 4 batteries
    config = small_config(tmp_path, "fig3_edge.csv", model={**SMALL_MODEL, "h": 0.0},
                          grid={"t_start": 0.0, "t_end": 2.0, "steps": 101},
                          sweep={"parameter": "kappa", "values": [0.25 * (1 + 1e-6)]})
    cmd_fig3(config)
    cols = read_csv(config.output_path)
    assert cols["n"].tolist() == [1.0] and 1e-7 < cols["xi_num"][0] < 1e-6
    assert cols["t"][0] == 4.4428807167174522
    out = capsys.readouterr().out
    assert "max xi/n" in out and "no work, " not in out


def test_fig3_rows_are_the_peaks_of_the_runs_they_name(tmp_path):
    # each row's t, dE, xi, SL and P cells are read, to the last bit, from
    # the columns of run_series on that row's system and period grid: t and
    # SL at the ergotropy argmax (empty without work), the others maxima;
    # its closed-form cells are the same reduction of analytic_reference on
    # that grid, SL_ana read at the numeric argmax
    config = small_config(tmp_path, "fig3.csv", model={**SMALL_MODEL, "L": 5},
                          sweep={"parameter": "kappa", "values": [0.2, 2.0]})
    cmd_fig3(config)
    cols = read_csv(config.output_path)
    assert len(cols["t"]) == 6
    for row in range(6):
        spec = replace(config.model, L=int(cols["L"][row]), n=int(cols["n"][row]), d=None,
                       kappa=float(cols["kappa"][row]))
        omega = AnalyticParams.from_model(spec).omega
        times = np.linspace(0.0, 2.0 * np.pi / omega, config.grid.steps)
        series = experiments.run_series(spec, config.initial, times, config.seed)
        k = np.argmax(series.ergotropy)
        working = series.ergotropy[k] > WORK_FLOOR
        dE, xi, sl, power = analytic_reference(spec, times)
        expected = {"t": times[k] if working else np.nan,
                    "dE_num": series.stored_energy.max(), "xi_num": series.ergotropy[k],
                    "SL_num": series.linear_entropy[k] if working else np.nan,
                    "P_num": series.power.max(), "dE_ana": dE.max(), "xi_ana": xi.max(),
                    "SL_ana": sl[k] if working else np.nan, "P_ana": power.max()}
        for name, value in expected.items():
            assert np.array_equal(cols[name][row], value, equal_nan=True), (row, name)
    assert np.isnan(cols["t"][cols["kappa"] == 0.2]).all()


def test_fig3_meets_its_closed_forms_at_zero_field(tmp_path, capsys):
    # at h = 0 the closed forms are exact, and fig3 reduces its numeric and
    # closed-form columns alike on one grid: every numeric cell is within
    # 1e-12 of its closed-form cell, SL_ana blank exactly where SL_num is,
    # whatever the grid misses of the true peaks
    code, out, err, cols = run_cli(tmp_path, capsys, "fig3", {
        "model": {"L": 5, "n": 1, "h": 0.0}, "grid": {"steps": 200}})
    assert (code, err) == (0, []) and len(cols["t"]) == 3 * len(experiments.FIG3_KAPPAS)
    for quantity in ("dE", "xi", "SL", "P"):
        numeric, closed = cols[quantity + "_num"], cols[quantity + "_ana"]
        assert np.array_equal(np.isnan(numeric), np.isnan(closed)), quantity
        assert np.nanmax(np.abs(numeric - closed)) <= 1e-12, quantity
    assert np.isnan(cols["SL_ana"]).sum() == 3


@pytest.mark.parametrize("kappas", [[0.0], [2.0, 0.0]], ids=["alone", "after-a-point"])
def test_fig3_refuses_delta_and_kappa_zero_before_any_run(tmp_path, monkeypatch, capsys,
                                                          kappas):
    # omega = 0 has no period to scan: the point is refused with every other
    # check, before the first run, also when another point comes first
    calls = []
    monkeypatch.setattr(experiments, "run_series", lambda *args: calls.append(args))
    out = tmp_path / "fig3.csv"
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"model": {"L": 11, "n": 1, "delta": 0.0},
                                       "sweep": {"parameter": "kappa", "values": kappas},
                                       "output_path": str(out)}))
    assert main(["fig3", "--config", str(config_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == ["error: cannot scan a period for delta = kappa = 0"]
    assert captured.out == "" and calls == [] and not out.exists()


def test_fig3_rejects_a_model_it_would_not_run(tmp_path, monkeypatch, capsys):
    # fig3 runs n = 1..4 on the configured register size: at L + n = 7 only
    # n = 1 fits, since a ring of 5, 4 or 3 sites spaces no 2, 3 or 4
    # batteries equally
    config_path = tmp_path / "config.json"
    out = tmp_path / "fig3.csv"
    config_path.write_text(json.dumps({"model": {**SMALL_MODEL, "L": 6}, "grid": {"steps": 10},
                                       "output_path": str(out)}))
    assert main(["fig3", "--config", str(config_path)]) == 0
    cols = read_csv(out)
    assert list(zip(cols["n"], cols["L"], cols["kappa"])) == [
        (1, 6, kappa) for kappa in experiments.FIG3_KAPPAS]
    capsys.readouterr()
    # on a (2, 0) register no n fits, which fails before any run
    calls = []
    monkeypatch.setattr(experiments, "run_series", lambda *args: calls.append(args))
    config_path.write_text(json.dumps({
        "model": {"L": 2, "n": 0},
        "output_path": str(tmp_path / "never.csv"),
    }))
    assert main(["fig3", "--config", str(config_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        "error: fig3: no n of 1..4 divides a ring of L >= 2 sites at L + n = 2"]
    assert captured.out == "" and calls == []
    # fig3 sweeps kappa alone: a sweep over n would run n = 1..4 regardless
    config_path.write_text(json.dumps({
        "sweep": {"parameter": "n", "values": [1, 2]},
        "output_path": str(tmp_path / "never.csv"),
    }))
    assert main(["fig3", "--config", str(config_path)]) == 2
    captured = capsys.readouterr()
    assert "kappa only" in captured.err and captured.out == ""
    assert not (tmp_path / "never.csv").exists()


def run_cli(tmp_path, capsys, command, data):
    """Exit code, stdout and stderr lines, and the CSV columns (None when no
    file was written) of ``command`` run through ``main`` on the config
    ``data``."""
    config_path, out = tmp_path / "config.json", tmp_path / f"{command}.csv"
    out.unlink(missing_ok=True)
    config_path.write_text(json.dumps({**data, "output_path": str(out)}))
    code = main([command, "--config", str(config_path)])
    captured = capsys.readouterr()
    return (code, captured.out.splitlines(), captured.err.splitlines(),
            read_csv(out) if out.exists() else None)


@pytest.mark.parametrize("delta", [1e160, 1e300])
def test_fig3_writes_finite_cells_where_omega_squared_overflows(tmp_path, capsys, delta):
    # omega ** 2 leaves the float range from omega ~ 1.3e154 while the runs,
    # one period long, do not: each closed-form cell is written from ratios
    # and products, and the stored energy n delta 4 kappa^2 / omega^2
    # sin^2(omega t / 2) peaks on the grid at 4 n kappa^2 / delta times the
    # grid's largest sin^2(omega t / 2), sin^2(9 pi / 19), not at 0.  No point
    # has work, so SL_ana is blank with SL_num
    code, out, err, cols = run_cli(tmp_path, capsys, "fig3",
                                   {"model": {"L": 11, "n": 1, "delta": delta},
                                    "grid": {"steps": 20}})
    assert (code, err) == (0, [])
    assert out[-1].endswith("wrote 20 rows to " + str(tmp_path / "fig3.csv"))
    for name in ("dE_num", "xi_num", "P_num", "dE_ana", "xi_ana", "P_ana"):
        assert np.isfinite(cols[name]).all(), name
    assert np.isnan(cols["SL_num"]).all() and np.isnan(cols["SL_ana"]).all()
    expected = 4 * cols["n"] * cols["kappa"] ** 2 / delta * np.sin(9 * np.pi / 19) ** 2
    assert np.all(np.abs(cols["dE_ana"] - expected) <= 1e-12 * expected)


def test_fig3_writes_the_saturated_closed_forms_at_a_huge_coupling(tmp_path, capsys):
    # at kappa = 1e300 the ergotropy per battery is delta (2 sin^2(omega t / 2)
    # - 1), though kappa * kappa overflows: on the grid it peaks at
    # sin^2(9 pi / 19), just below delta; the bound n 1.45 delta kappa^2 /
    # omega on the peak power is ~1.1e300 at n = 3, finite, so the point runs
    code, out, err, cols = run_cli(tmp_path, capsys, "fig3", {
        "model": {"L": 5, "n": 1, "delta": 0.5},
        "sweep": {"parameter": "kappa", "values": [1e300]}, "grid": {"steps": 20}})
    assert (code, err) == (0, [])
    assert list(cols["n"]) == [1, 2, 3]
    expected = 0.5 * cols["n"] * (2 * np.sin(9 * np.pi / 19) ** 2 - 1)
    assert np.all(np.abs(cols["xi_ana"] - expected) <= 1e-12 * expected)
    assert np.isfinite(cols["P_ana"]).all() and np.all(cols["P_ana"] > 0)
    # the printed peaks are bounded: ~3.6e299 is not written out digit by digit
    assert max(len(line) for line in out) <= 120


def test_fig3_refuses_a_point_whose_omega_overflows(tmp_path, monkeypatch, capsys):
    # 2 kappa leaves the float range above ~9e307, and with it omega: the
    # period 2 pi / omega would read 0, so the point is refused by name
    # before the first run
    calls = []
    monkeypatch.setattr(experiments, "run_series", lambda *args: calls.append(args))
    code, out, err, cols = run_cli(tmp_path, capsys, "fig3", {
        "model": {"L": 11, "n": 1}, "sweep": {"parameter": "kappa", "values": [1e308]}})
    assert code == 2 and out == [] and cols is None and calls == []
    assert err == ["error: fig3 (n=1, kappa=1e+308): omega = sqrt(delta^2 + 4 kappa^2) = inf "
                   "leaves the float range"]


@pytest.mark.parametrize("value, shown", [(5e-324, "omega = inf or peak power 0 "),
                                          (1e200, "omega = 2.81e-200 or peak power inf ")])
def test_fig3_refuses_a_point_whose_period_or_peak_power_overflows(
        tmp_path, monkeypatch, capsys, value, shown):
    # delta = kappa = 5e-324 has 2 pi / omega = inf, and delta = kappa = 1e200
    # a closed-form peak power of 1.45 delta kappa**2 / omega = inf: refused
    # with every other check, before the first run, naming the point
    calls = []
    monkeypatch.setattr(experiments, "run_series", lambda *args: calls.append(args))
    code, out, err, cols = run_cli(tmp_path, capsys, "fig3", {
        "model": {"L": 11, "n": 1, "delta": value},
        "sweep": {"parameter": "kappa", "values": [value]}})
    assert code == 2 and out == [] and cols is None and calls == []
    assert len(err) == 1 and err[0].startswith(f"error: fig3 (n=1, kappa={value}): period 2 pi ")
    assert shown in err[0] and err[0].endswith(" leaves the float range")


def test_fig3_refuses_a_point_whose_n_battery_peak_power_overflows(tmp_path, monkeypatch,
                                                                   capsys):
    # at delta = 1e10 and kappa = 1e298 the bound 1.45 delta kappa^2 / omega
    # on one battery's peak power is 7.25e307: n = 1 and 2 stay finite, and
    # the n = 3 point, whose cells are three times that, is refused by name
    # before the first run (formed as n 1.45 delta kappa, the product would
    # overflow at n = 2 already)
    def fail(*args):
        raise AssertionError("fig3 ran a point")

    monkeypatch.setattr(experiments, "run_series", fail)
    code, out, err, cols = run_cli(tmp_path, capsys, "fig3", {
        "model": {"L": 5, "n": 1, "delta": 1e10}, "grid": {"steps": 20},
        "sweep": {"parameter": "kappa", "values": [1e298]}})
    assert (code, out, cols) == (2, [], None)
    assert err == ["error: fig3 (n=3, kappa=1e+298): period 2 pi / omega = 3.14e-298 or peak "
                   "power inf leaves the float range"]


EXTREME_FIELDS = (-0.0, 0.0, 5e-324, 1e-310, 1e160, 1e300, 1e308)


def extreme_field_cases():
    """(id, command, config data): fig1 at (4, 1), fig3 at (5, 1), fig4 and a
    one-value kappa sweep at (4, 2), each with h, J, delta, kappa alone and
    delta = kappa together set to each of EXTREME_FIELDS, on 5 grid steps."""
    systems = {"fig1": (4, 1), "fig3": (5, 1), "fig4": (4, 2), "sweep": (4, 2)}
    cases = []
    for command, (L, n) in systems.items():
        for fields in (("h",), ("J",), ("delta",), ("kappa",), ("delta", "kappa")):
            for value in EXTREME_FIELDS:
                model = {"L": L, "n": n, **{name: value for name in fields}}
                data = {"model": model, "grid": {"steps": 5}}
                if command in ("fig3", "sweep"):
                    data["sweep"] = {"parameter": "kappa",
                                     "values": [model.get("kappa", ModelSpec.kappa)]}
                cases.append((f"{command}-{'='.join(fields)}-{value:g}", command, data))
    return cases


def test_extreme_fields_run_or_fail_in_one_line(tmp_path, capsys):
    # every command on fields from a signed zero to the float limit either
    # runs, writing no inf or nan cell but fig3's blank peak cells (SL_ana
    # blank exactly where SL_num is) and no -0 cell, or fails with one error
    # line: never a traceback, and never a numpy warning, which the test
    # settings turn into an error
    outcomes = {}
    for name, command, data in extreme_field_cases():
        code, _, err, cols = run_cli(tmp_path, capsys, command, data)
        assert code == 0 and err == [] or code == 2 and len(err) == 1, (name, code, err)
        if cols is not None and command == "fig3":
            assert np.array_equal(np.isnan(cols["SL_ana"]), np.isnan(cols["SL_num"])), name
        for column, cells in (cols or {}).items():
            blank = command == "fig3" and column in ("t", "SL_num", "SL_ana")
            assert not np.isinf(cells).any() and (blank or not np.isnan(cells).any()), (
                name, column)
            assert not (np.signbit(cells) & (cells == 0)).any(), (name, column)
        outcomes[code] = outcomes.get(code, 0) + 1
    assert outcomes[0] > 0 and outcomes[2] > 0, outcomes


@pytest.mark.parametrize("command", ["fig1", "fig4", "sweep"])
def test_an_overflowing_diagonal_is_refused_by_its_norm_bound(tmp_path, capsys, command):
    # h = delta = 1e308 on (7, 4): diagonal entries whose ring and battery
    # parts have opposite signs read inf - inf; the bound, taken from the
    # fields, is inf, and the phase is refused without a numpy warning
    data = {"model": {"L": 7, "n": 4, "d": 1, "h": 1e308, "delta": 1e308}, "grid": {"steps": 5}}
    if command == "sweep":
        data["sweep"] = {"parameter": "kappa", "values": [2.0]}
    code, out, err, cols = run_cli(tmp_path, capsys, command, data)
    assert (code, out, cols) == (2, [], None)
    assert err == ["error: phase bound * t = inf * 2 overflows the float range"]


@pytest.mark.parametrize("command", ["fig3", "sweep"])
def test_a_spacing_the_command_would_drop_is_refused_before_any_run(
        tmp_path, monkeypatch, capsys, command):
    # fig3 and an n sweep run every system at d = L/n: a configured
    # (10, 2) model at d = 3 fails instead of running at d = 5
    calls = []
    monkeypatch.setattr(experiments, "run_series", lambda *args: calls.append(args))
    out = tmp_path / f"{command}.csv"
    data = {"model": {"L": 10, "n": 2, "d": 3}, "output_path": str(out)}
    if command == "sweep":
        data["sweep"] = {"parameter": "n", "values": [1, 2]}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(data))
    assert main([command, "--config", str(config_path)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: {command} runs every system at the equispaced spacing L/n; "
        "remove the config's model.d (3)"]
    assert calls == [] and not out.exists()


def test_an_equispaced_or_single_battery_spacing_still_runs(tmp_path):
    # an explicit d = L/n is the spacing these commands run; one battery
    # sits at site 1 whatever d is
    equispaced = {**SMALL_MODEL, "n": 2, "d": 2}
    fig3 = small_config(tmp_path, "fig3.csv", model=equispaced,
                        sweep={"parameter": "kappa", "values": [2.0]})
    cmd_fig3(fig3)
    assert read_csv(fig3.output_path)["n"].tolist() == [1.0, 2.0, 3.0]
    for name, model in (("sweep.csv", equispaced), ("single.csv", {**SMALL_MODEL, "d": 3})):
        config = small_config(tmp_path, name, model=model,
                              sweep={"parameter": "n", "values": [1, 2]})
        cmd_sweep(config)
        assert set(np.unique(read_csv(config.output_path)["n"])) == {1, 2}


@pytest.mark.parametrize("command, payload", [
    ("fig1", 5),
    ("fig1", [{"model": SMALL_MODEL}]),
    ("fig1", {"model": 5}),
    ("fig1", {"model": None}),
    ("fig1", {"sweep": {"parameter": "kappa", "values": 3}}),
    ("fig1", {"model": {"L": 4, "n": 1, "h": None}}),
    ("fig1", {"grid": {"steps": 10, "t_end": None}}),
    ("fig4", {"output_path": None}),
    ("fig4", {"output_path": 5}),
    ("sweep", {"sweep": {"parameter": "kappa", "values": [0.5, -1.0]}}),
], ids=["top-level-number", "top-level-list", "model-number", "model-null",
        "sweep-values-number", "model-h-null", "grid-t_end-null", "output_path-null",
        "output_path-number", "sweep-kappa-negative"])
def test_cli_rejects_malformed_config_sections(tmp_path, monkeypatch, capsys, command, payload):
    # each fails with one error line and exit 2, before any output is written
    monkeypatch.chdir(tmp_path)
    Path("config.json").write_text(json.dumps(payload))
    assert main([command, "--config", "config.json"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    assert os.listdir(tmp_path) == ["config.json"]


def test_fig4_small_scale_determinism(tmp_path, capsys):
    config = small_config(tmp_path, "fig4.csv", model={**SMALL_MODEL, "L": 5}, initial=None)
    assert cmd_fig4(config) is None
    pairwise = printed_gaps(capsys.readouterr().out, "pairwise max |xi_i - xi_j|")
    assert len(pairwise) == 1 and pairwise[0] <= 0.05
    cols = read_csv(config.output_path)
    assert np.array_equal(cols["seed"], np.repeat([7, 8, 9], 40))
    # identical seed -> identical curve, bit for bit: a run from seed 8
    # repeats the second and third curves of the run from seed 7
    config_again = small_config(tmp_path, "fig4b.csv", model={**SMALL_MODEL, "L": 5},
                                initial=None, seed=8)
    cmd_fig4(config_again)
    again = read_csv(config_again.output_path)
    assert np.array_equal(again["seed"], np.repeat([8, 9, 10], 40))
    assert np.array_equal(cols["xi_num"][cols["seed"] >= 8], again["xi_num"][again["seed"] <= 9])


def test_fig4_compares_each_battery_with_the_closed_form(tmp_path, capsys):
    # the closed form is for one battery: an (8, 2) register holds two, and
    # its total ergotropy is about twice that curve; the printed gap is per
    # battery
    config = small_config(tmp_path, "fig4.csv", model={**SMALL_MODEL, "L": 8, "n": 2},
                          initial=None)
    cmd_fig4(config)
    gap = printed_gaps(capsys.readouterr().out, "max |xi/n - xi_ana|")
    assert len(gap) == 1 and gap[0] <= 0.05


def test_fig4_prints_the_largest_pairwise_gap_of_its_csv(tmp_path, capsys):
    # the printed population gap is the widest of the three seeds' xi_num
    # curves apart, over every pair and time; 17-digit cells round-trip
    code, out, err, cols = run_cli(tmp_path, capsys, "fig4",
                                   {"model": {"L": 4, "n": 1}, "grid": {"steps": 30}})
    assert (code, err) == (0, [])
    curves = [cols["xi_num"][cols["seed"] == seed] for seed in np.unique(cols["seed"])]
    assert len(curves) == 3 and all(curve.size == 30 for curve in curves)
    gap = max(np.max(np.abs(a - b)) for i, a in enumerate(curves) for b in curves[i + 1:])
    assert printed_gaps("\n".join(out), "pairwise max |xi_i - xi_j|") == [float(f"{gap:.3e}")]


def test_sweep_requires_and_runs(tmp_path):
    config = small_config(tmp_path, "sweep.csv")
    with pytest.raises(ValueError, match="sweep"):
        cmd_sweep(config)
    config = small_config(
        tmp_path, "sweep.csv",
        sweep={"parameter": "kappa", "values": [0.0, 2.0]},
    )
    cmd_sweep(config)
    cols = read_csv(config.output_path)
    assert set(np.unique(cols["kappa"])) == {0.0, 2.0}
    quiet = cols["kappa"] == 0.0
    assert np.max(np.abs(cols["xi_num"][quiet])) <= 1e-12


def test_sweep_over_battery_number(tmp_path):
    config = small_config(
        tmp_path, "sweepn.csv",
        sweep={"parameter": "n", "values": [1, 2]},
    )
    cmd_sweep(config)
    cols = read_csv(config.output_path)
    assert set(np.unique(cols["n"])) == {1, 2}


@pytest.mark.parametrize("name, check", CHECKS, ids=[name for name, _ in CHECKS])
def test_validate_check(name, check):
    ok, detail = check(np.random.default_rng(VALIDATE_SEED))
    assert ok, f"{name}: {detail}"


def test_validate_table_order():
    assert [name for name, _ in CHECKS] == [
        "propagator_oracle_agreement", "partial_trace_oracle", "amplitude_normalization",
        "analytic_consistency", "two_battery_twice_analytic", "commutator_h0",
        "coupling_mutation_detected", "ghz_charger_energy", "battery_spectrum",
        "trajectory_conservation", "ergotropy_zero_below_threshold", "two_battery_twice_ed",
    ]


def test_validate_reports_a_failing_check(monkeypatch, capsys):
    table = list(CHECKS)
    table[6] = ("coupling_mutation_detected", lambda rng: (False, "forced"))
    monkeypatch.setattr(validate, "CHECKS", tuple(table))
    assert cmd_validate() == 1
    out = capsys.readouterr().out
    assert "CHECK coupling_mutation_detected FAIL forced\n" in out
    assert out.count(" PASS ") == 11
    assert out.endswith("validate: 11/12 checks passed\n")


def test_cli_validate_prints_one_pass_line_per_check_and_takes_no_options(capsys):
    # one size only: a second run in the same process prints the same bytes,
    # and an option such as --quick is a usage error
    assert main(["validate"]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert len(lines) == len(CHECKS) + 1
    for line, (name, _) in zip(lines, CHECKS):
        assert line.startswith(f"CHECK {name} PASS "), line
    assert lines[-1] == "validate: 12/12 checks passed"
    assert main(["validate"]) == 0
    assert capsys.readouterr().out == out
    with pytest.raises(SystemExit) as exit_info:
        main(["validate", "--quick"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --quick" in capsys.readouterr().err


def test_cli_parsing_and_overrides(tmp_path):
    parser = build_parser()
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "model": dict(SMALL_MODEL),
        "grid": {"t_start": 0.0, "t_end": 1.0, "steps": 10},
        "seed": 5,
        "output_path": str(tmp_path / "from_config.csv"),
    }))
    args = parser.parse_args([
        "fig4", "--config", str(config_path), "--seed", "99",
        "--out", str(tmp_path / "override.csv"), "--h-override", "0.001",
    ])
    config = config_from_args(args)
    assert config.seed == 99
    assert config.output_path.endswith("override.csv")
    assert config.model.h == 0.001
    assert config.model.L == 4

    defaults = config_from_args(parser.parse_args(["fig3"]))
    assert defaults.model.L == 11 and defaults.model.n == 1
    assert defaults.model.h == 0.1 and defaults.model.kappa == 2.0
    assert defaults.output_path == "fig3.csv"
    assert defaults.grid.steps == 2000


def test_cli_end_to_end_small_run(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "model": {**SMALL_MODEL, "L": 5},
        "grid": {"t_start": 0.0, "t_end": 2.0, "steps": 30},
        "seed": 3,
        "output_path": str(tmp_path / "cli_fig4.csv"),
    }))
    assert main(["fig4", "--config", str(config_path)]) == 0
    cols = read_csv(tmp_path / "cli_fig4.csv")
    assert len(cols["t"]) == 90
    assert main(["sweep", "--config", str(config_path)]) == 2  # no sweep section


@pytest.mark.parametrize("command", ["fig1", "fig3", "sweep"])
def test_cli_fills_a_random_charger_seed_from_the_run_seed(tmp_path, capsys, command):
    # a random charger is drawn from the run seed (here set by --seed), the
    # seed every CSV row carries: at --seed 9 and 10 the files differ, and
    # each series' xi_num cells are those of an in-process run drawn from
    # the seed in its cells.  fig3 scans its own window at the one kappa of
    # the sweep section and writes each series' peak
    sections = {
        "fig3": {"grid": {"steps": 8}, "sweep": {"parameter": "kappa", "values": [2.0]}},
        "sweep": {"model": {"L": 4, "n": 2}, "grid": {"t_end": 1.0, "steps": 8},
                  "sweep": {"parameter": "kappa", "values": [1.0, 2.0]}},
    }.get(command, {"grid": {"t_end": 1.0, "steps": 8}})
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"initial": {"charger_kind": "random"}, **sections}))
    config = load_config(config_path)
    columns = []
    for seed in (9, 10):
        out = tmp_path / f"{command}-{seed}.csv"
        assert main([command, "--config", str(config_path), "--seed", str(seed),
                     "--out", str(out)]) == 0
        cols = read_csv(out)
        assert np.all(cols["seed"] == seed)
        for n, L, kappa in sorted(set(zip(cols["n"], cols["L"], cols["kappa"]))):
            spec = replace(config.model, L=int(L), n=int(n), d=None, kappa=kappa)
            times = (np.linspace(0.0, 2 * np.pi / AnalyticParams.from_model(spec).omega, 8)
                     if command == "fig3" else config.grid.times())
            work = experiments.run_series(spec, InitialStateSpec("random"), times, seed).ergotropy
            rows = (cols["n"] == n) & (cols["L"] == L) & (cols["kappa"] == kappa)
            assert np.array_equal(cols["xi_num"][rows], [work.max()] if command == "fig3"
                                  else work), (seed, n, L, kappa)
        columns.append(cols["xi_num"])
    assert not np.array_equal(*columns)
    # the charger has no seed of its own
    out = tmp_path / "never.csv"
    config_path.write_text(json.dumps({"initial": {"charger_kind": "random", "seed": 9},
                                       **sections, "output_path": str(out)}))
    capsys.readouterr()
    assert main([command, "--config", str(config_path), "--seed", "9"]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == ["error: unknown initial keys: ['seed']"]
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("command, sections, section", [
    ("fig1", {"sweep": {"parameter": "kappa", "values": [1.0, 2.0]}}, "sweep"),
    ("fig4", {"sweep": {"parameter": "kappa", "values": [1.0, 2.0]}}, "sweep"),
    ("fig4", {"model": {"L": 4, "n": 1},
              "initial": {"charger_kind": "eigenstate", "index": 10 ** 30}}, "initial"),
    # an initial section fig4 would ignore is refused even when it spells out the default
    ("fig4", {"model": {"L": 4, "n": 1}, "grid": {"steps": 5}, "initial": {}}, "initial"),
    ("fig4", {"model": {"L": 4, "n": 1}, "grid": {"steps": 5},
              "initial": {"charger_kind": "ghz_plus"}}, "initial"),
    ("fig3", {"grid": {"t_start": 1.0, "t_end": 1.5}}, "grid"),
], ids=["fig1-sweep", "fig4-sweep", "fig4-initial", "fig4-initial-empty",
        "fig4-initial-default", "fig3-grid-window"])
def test_cli_rejects_a_config_section_the_command_would_ignore(tmp_path, capsys, command,
                                                               sections, section):
    # a section the command would not read fails before any run: exit 2,
    # one error line naming the section, no CSV
    config_path = tmp_path / "config.json"
    out = tmp_path / "never.csv"
    config_path.write_text(json.dumps({**sections, "output_path": str(out)}))
    assert main([command, "--config", str(config_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert f"the config's {section} " in captured.err
    assert captured.out == "" and not out.exists()


def test_cli_jobs_is_a_parse_shim_for_one(tmp_path, capsys):
    # --jobs survives only as a flag whose one value, 1, changes nothing
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"model": {"L": 4, "n": 1}, "grid": {"steps": 10}}))
    out = tmp_path / "fig4.csv"
    assert main(["fig4", "--config", str(config_path), "--jobs", "1", "--out", str(out)]) == 0
    assert out.exists()
    for jobs in ("2", "0"):
        with pytest.raises(SystemExit) as exit_info:
            main(["fig4", "--jobs", jobs, "--out", str(tmp_path / "never.csv")])
        assert exit_info.value.code == 2
        assert "--jobs: invalid choice" in capsys.readouterr().err
    assert not (tmp_path / "never.csv").exists()


def test_cli_refuses_a_window_whose_expansion_cannot_fit_in_memory(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "model": {"L": 4, "n": 1},
        "grid": {"t_end": 1e12},
        "output_path": str(tmp_path / "huge.csv"),
    }))
    assert main(["fig4", "--config", str(config_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: Chebyshev expansion at z = ") and "physical memory" in err
    assert not (tmp_path / "huge.csv").exists()


@pytest.mark.parametrize("key, value", [("t_end", "NaN"), ("t_end", "Infinity"),
                                        ("t_start", "NaN"), ("t_start", "-Infinity")])
def test_cli_refuses_a_non_finite_grid_window(tmp_path, capsys, key, value):
    # JSON NaN and Infinity parse as floats; the grid names the key at once
    config_path = tmp_path / "config.json"
    config_path.write_text(f'{{"model": {{"L": 4, "n": 1}}, "grid": {{"{key}": {value}}}, '
                           f'"output_path": "{tmp_path / "never.csv"}"}}')
    assert main(["fig4", "--config", str(config_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        f"error: grid.{key} must be finite, got {float(value.replace('Infinity', 'inf'))!r}"]
    assert not (tmp_path / "never.csv").exists()


def test_cli_memory_refusal_prints_no_long_integers(tmp_path, capsys):
    # a 300-digit term count, a byte count beyond the float range and a
    # phase bound * t beyond it each end in one error line, before any run
    config_path = tmp_path / "config.json"
    refusals = [
        (("fig4",), {"t_end": 1e300}, "error: Chebyshev expansion at z = ", "physical memory"),
        (("fig1", "fig4"), {"steps": 20, "t_end": 1e307},
         "error: Chebyshev expansion at z = ", "inf bytes"),
        (("fig1", "fig4"), {"steps": 20, "t_start": 1e308, "t_end": 1.7e308},
         "error: phase bound * t = 6.65 * 7e+307 ", "overflows the float range"),
    ]
    for commands, grid, start, detail in refusals:
        config_path.write_text(json.dumps({
            "model": {"L": 4, "n": 1},
            "grid": grid,
            "output_path": str(tmp_path / "huge.csv"),
        }))
        for command in commands:
            assert main([command, "--config", str(config_path)]) == 2
            captured = capsys.readouterr()
            err = captured.err
            assert err.startswith(start) and err.count("\n") == 1, err
            assert detail in err and not re.search(r"\d{5}", err), err
            assert captured.out == "" and not (tmp_path / "huge.csv").exists()


def test_cli_refuses_a_missing_output_directory_before_any_run(tmp_path, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(experiments, "run_series", lambda *args: calls.append(args))
    out = tmp_path / "missing" / "fig3.csv"
    assert main(["fig3", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"error: output directory {str(out.parent)!r} does not exist"]
    assert captured.out == "" and calls == [] and not out.parent.exists()
    # an empty path names no file, from --out or from the config
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"output_path": ""}))
    for args in (["--out", ""], ["--config", str(config_path)]):
        assert main(["fig3", *args]) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == ["error: output path is empty"], args
        assert captured.out == "" and calls == []


def test_cli_refuses_an_output_path_that_is_a_directory_before_any_run(tmp_path, monkeypatch,
                                                                        capsys):
    calls = []
    for name in ("run_series", "trajectory"):  # fig4 runs its trajectories itself
        monkeypatch.setattr(experiments, name, lambda *args: calls.append(args))
    assert main(["fig4", "--out", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"error: output path {str(tmp_path)!r} is a directory"]
    assert captured.out == "" and calls == [] and list(tmp_path.iterdir()) == []


def test_cli_refuses_a_grid_beyond_memory_before_allocating_it(tmp_path, monkeypatch, capsys):
    # under 1 MiB of physical memory, 4 000 000 grid points cannot hold the
    # 56 bytes that any run keeps per point: the config is refused as it is
    # parsed, before the 32 MB grid or any coefficient is allocated
    available = report_physical_memory(monkeypatch, 1 << 20)
    config_path = tmp_path / "config.json"
    out = tmp_path / "fig4.csv"
    config_path.write_text(json.dumps({"grid": {"steps": 4_000_000}, "output_path": str(out)}))
    tracemalloc.start()
    try:
        assert main(["fig4", "--config", str(config_path)]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6, peak
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        f"error: grid.steps = 4000000 points of 56 bytes cannot fit in the {available:.3g} "
        "bytes of physical memory"]
    assert captured.out == "" and not out.exists()


def test_cli_reports_an_allocation_failure_as_one_error_line(tmp_path, monkeypatch, capsys):
    # 10**17 grid times are 800 PB, beyond any address space, so np.linspace
    # raises at once instead of reserving pages it would never touch; the
    # reported physical memory is raised past the grid's 56 bytes per point
    # so that the config is not refused first
    report_physical_memory(monkeypatch, os.sysconf("SC_PAGE_SIZE") << 62)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "grid": {"steps": 10 ** 17}, "output_path": str(tmp_path / "fig1.csv"),
    }))
    assert main(["fig1", "--config", str(config_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: Unable to allocate ") and err.count("\n") == 1, err
    assert not (tmp_path / "fig1.csv").exists()


def test_negative_initial_seed_is_refused_at_parse_time(tmp_path, monkeypatch, capsys):
    # the run seed, which draws a random charger, is refused before any run
    data = {"initial": {"charger_kind": "random"}, "seed": -3}
    with pytest.raises(ValueError, match=re.escape("seed must fit in 64 unsigned bits, got -3")):
        ExperimentConfig.from_dict(data)
    calls = []
    monkeypatch.setattr(experiments, "run_series", lambda *args: calls.append(args))
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({**data, "output_path": str(tmp_path / "fig1.csv")}))
    assert main(["fig1", "--config", str(config_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == ["error: seed must fit in 64 unsigned bits, got -3"]
    assert captured.out == "" and calls == []


@pytest.mark.parametrize("command", ["fig1", "fig3", "sweep"])
def test_an_eigenstate_index_too_large_for_a_ring_is_refused_before_any_run(
        tmp_path, monkeypatch, capsys, command):
    # the figures run rings of L = 11, 10, 9 and 8, the sweep a (9, 3)
    # system: pattern 1000 fits L >= 10 only, and the (9, 3) system is named
    # before any run
    calls = []
    monkeypatch.setattr(experiments, "run_series", lambda *args: calls.append(args))
    out = tmp_path / f"{command}.csv"
    data = {"initial": {"charger_kind": "eigenstate", "index": 1000}, "output_path": str(out)}
    if command == "sweep":
        data.update(model={"L": 9, "n": 3}, sweep={"parameter": "kappa", "values": [1.0, 2.0]})
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(data))
    assert main([command, "--config", str(config_path)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: initial.index 1000 outside [0, 2**9) for the (L, n) = (9, 3) system"]
    assert calls == [] and not out.exists()


@pytest.mark.parametrize("command", ["fig1", "sweep"])
def test_an_eigenstate_charger_on_a_huge_ring_is_refused_by_its_size(tmp_path, capsys, command):
    # pattern 3 fits a ring of L = 10**11 (tested by a shift: no 2**L
    # integer is built), so the run's own size refuses it, in one line
    # naming the system and the exact bytes per entry, 8 (L + n + 3); so
    # does a ring whose 2**(L-1) entries overflow a C long (10**19) or whose
    # L itself overflows a float (10**400)
    out = tmp_path / f"{command}.csv"
    for L in (100_000_000_000, 10 ** 19, 10 ** 400):
        data = {"model": {"L": L, "n": 1},
                "initial": {"charger_kind": "eigenstate", "index": 3}, "output_path": str(out)}
        if command == "sweep":
            data["sweep"] = {"parameter": "kappa", "values": [1.0]}
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(data))
        assert main([command, "--config", str(config_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1, err
        assert err[0].startswith(f"error: a run at (L, n) = ({L}, 1) holds its state "), err
        assert f" entries or more, {8 * (L + 4)} bytes each: " in err[0], err
        assert not out.exists()


def test_an_n_sweep_refuses_a_value_too_big_for_memory_before_any_run(tmp_path, capsys,
                                                                     monkeypatch):
    # with 8 GiB of physical memory (20, 1) fits and (20, 10) does not, 8
    # (L + n + 3) bytes on each of 2**29 entries: every value's system is
    # built, and so refused, before the first run starts
    report_physical_memory(monkeypatch, 1 << 33)

    def run(*args):
        raise AssertionError("a run started before the sweep's systems were checked")

    monkeypatch.setattr(experiments, "trajectory", run)
    out = tmp_path / "sweep.csv"
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"model": {"L": 20, "n": 1}, "output_path": str(out),
                                       "sweep": {"parameter": "n", "values": [1, 10]}}))
    assert main(["sweep", "--config", str(config_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        "error: a run at (L, n) = (20, 10) holds its state and Hamiltonian on 2**29 entries or "
        "more, 264 bytes each: 1.42e+11 bytes, more than the 8.59e+09 bytes of physical memory"]
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("command, data, error", [
    ("sweep", {"model": {"L": 4, "n": 1}, "sweep": {"parameter": "kappa", "values": [2.0, 1e9]}},
     "Chebyshev expansion at z = 2e+09 needs 2e+09 coefficient terms per point: 6.4e+19 bytes, "
     "more than the 8.59e+09 bytes of physical memory"),
    ("sweep", {"model": {"L": 4, "n": 1}, "sweep": {"parameter": "kappa", "values": [2.0, 1e308]}},
     "phase bound * t = 1e+308 * 2 overflows the float range"),
    ("fig3", {"model": {"L": 5, "n": 1, "delta": 1e-300}, "grid": {"steps": 50},
              "sweep": {"parameter": "kappa", "values": [2.0, 1e-300]}},
     "Chebyshev expansion at z = 1.55e+301 needs 1.55e+301 coefficient terms per point: inf "
     "bytes, more than the 8.59e+09 bytes of physical memory"),
    ("fig1", {"model": {"L": 11, "n": 1, "kappa": 8000.0}},
     "Chebyshev expansion at z = 3.2e+04 needs 3.2e+04 coefficient terms per point: 1.64e+10 "
     "bytes, more than the 8.59e+09 bytes of physical memory"),
    ("fig4", {"model": {"L": 4, "n": 1, "kappa": 1e9}},
     "Chebyshev expansion at z = 2e+09 needs 2e+09 coefficient terms per point: 6.4e+19 bytes, "
     "more than the 8.59e+09 bytes of physical memory"),
], ids=["sweep-node-table", "sweep-phase-overflow", "fig3-node-table", "fig1-collapse-node-table",
        "fig4-node-table"])
def test_a_window_a_run_cannot_hold_is_refused_before_any_run(tmp_path, capsys, monkeypatch,
                                                              command, data, error):
    # the first sweep or fig3 run (kappa = 2) fits and a later value's
    # window does not, its node table (z by z at least) or its phase z =
    # bound * t beyond the float range; fig1's (11, 1) panel fits and its
    # (10, 2) collapse system, of twice the coupling bound, does not; every
    # run's window is checked before the first one starts, fig4's included
    report_physical_memory(monkeypatch, 1 << 33)

    def run(*args):
        raise AssertionError("a run started before every window was checked")

    monkeypatch.setattr(experiments, "trajectory", run)
    monkeypatch.setattr(experiments, "run_series", run)
    out = tmp_path / f"{command}.csv"
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({**data, "output_path": str(out)}))
    assert main([command, "--config", str(config_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"error: {error}"]
    assert captured.out == "" and not out.exists()


BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def child_env(**variables) -> dict:
    """This environment for a fresh Python process that imports the package
    from this checkout, without the BLAS thread variables unless given."""
    src = str(Path(experiments.__file__).resolve().parents[1])
    env = {key: value for key, value in os.environ.items() if key not in BLAS_THREADS}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return {**env, **variables}


def run_child(code: str, **variables):
    """The JSON that ``code`` prints as its last line in a fresh process."""
    done = subprocess.run([sys.executable, "-c", code], env=child_env(**variables),
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_importing_the_package_loads_no_numpy_and_defines_only_its_version():
    loaded, names = run_child(
        "import json, sys, sunburst_battery\n"
        "print(json.dumps([sorted(m for m in sys.modules\n"
        "                         if m == 'numpy' or m.startswith('sunburst_battery.')),\n"
        "                  sorted(vars(sunburst_battery))]))"
    )
    assert loaded == []
    module_attributes = {"__builtins__", "__cached__", "__doc__", "__file__", "__loader__",
                         "__name__", "__package__", "__path__", "__spec__"}
    assert set(names) - module_attributes == {"__version__"}


def test_only_the_validate_command_loads_the_self_check_module(tmp_path):
    # every figure command and a sweep run the production path alone: the
    # check table and the dense oracles load for validate only, so no
    # command can reach them; none of the others loads numpy's FFT
    commands = []
    for name, section in (("fig1", {"model": {"L": 4, "n": 1}}),
                          ("fig3", {"model": {"L": 5, "n": 1}}),
                          ("sweep", {"model": {"L": 4, "n": 1},
                                     "sweep": {"parameter": "n", "values": [1, 2]}})):
        config = tmp_path / f"{name}.json"
        config.write_text(json.dumps({**section, "grid": {"steps": 10}}))
        commands.append([name, "--config", str(config), "--out", str(tmp_path / f"{name}.csv")])
    commands += [["fig4", "--out", str(tmp_path / "fig4.csv")], ["validate"]]
    loaded = run_child(
        "import json, sys\n"
        "from sunburst_battery.cli import main\n"
        "loaded = []\n"
        f"for argv in {commands!r}:\n"
        "    assert main(argv) == 0\n"
        "    loaded.append(['sunburst_battery.validate' in sys.modules,\n"
        "                   'numpy.fft' in sys.modules])\n"
        "print(json.dumps(loaded))"
    )
    assert [validate for validate, _ in loaded] == [False, False, False, False, True]
    assert [fft for _, fft in loaded[:4]] == [False, False, False, False]


NUMERIC_MODULES = ("numpy", *(f"sunburst_battery.{name}" for name in
                              ("model", "dynamics", "linalg", "observables", "analytic",
                               "experiments")))


def test_the_command_line_and_config_are_checked_before_numpy_loads(tmp_path, capsys):
    # a fresh process parses every command's config, and fails on a bad
    # config and on a bad --out, with neither numpy nor any numeric module
    # loaded; the configs and the error lines are this process's
    full = tmp_path / "full.json"
    full.write_text(json.dumps({
        "model": {"L": 6, "n": 2, "d": 3, "J": 1.0, "h": 0.2, "delta": 0.4, "kappa": 1.5},
        "initial": {"charger_kind": "eigenstate", "index": 5},
        "grid": {"t_start": 0.5, "t_end": 1.5, "steps": 30},
        "sweep": {"parameter": "kappa", "values": [0.5, 1.0]},
        "seed": 11, "output_path": str(tmp_path / "sweep.csv")}))
    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"model": {"L": 4, "n": 1, "coupling": 2.0}}))
    parsed = [["fig1"], ["fig3", "--seed", "5"], ["fig4", "--h-override", "0.3"],
              ["sweep", "--config", str(full), "--seed", "9", "--h-override", "0.25"]]
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps({"model": {"L": 40, "n": 1}}))
    repeated = tmp_path / "repeated.json"
    repeated.write_text(json.dumps({"sweep": {"parameter": "kappa", "values": [0.0, -0.0]}}))
    failing = [["fig1", "--config", str(unknown)],
               ["fig4", "--out", str(tmp_path / "missing" / "fig4.csv")],
               ["fig4", "--config", str(huge)],
               ["sweep", "--config", str(repeated)]]
    configs, codes, errors, loaded = run_child(
        "import contextlib, io, json, sys\n"
        "from sunburst_battery import cli\n"
        "configs = [repr(cli.config_from_args(cli.build_parser().parse_args(argv)))\n"
        f"           for argv in {parsed!r}]\n"
        "codes, errors = [], []\n"
        f"for argv in {failing!r}:\n"
        "    with contextlib.redirect_stderr(io.StringIO()) as err:\n"
        "        codes.append(cli.main(argv))\n"
        "    errors.append(err.getvalue())\n"
        f"loaded = sorted(m for m in {NUMERIC_MODULES!r} if m in sys.modules)\n"
        "print(json.dumps([configs, codes, errors, loaded]))"
    )
    assert loaded == []
    assert configs == [repr(config_from_args(build_parser().parse_args(argv))) for argv in parsed]
    assert codes == [2, 2, 2, 2]
    expected = []
    for argv in failing:
        assert main(argv) == 2
        expected.append(capsys.readouterr().err)
    assert errors == expected
    assert expected[0] == "error: unknown model keys: ['coupling']\n"
    assert expected[1] == f"error: output directory {str(tmp_path / 'missing')!r} does not exist\n"
    assert re.fullmatch(r"error: a run at \(L, n\) = \(40, 1\) holds its state and Hamiltonian "
                        r"on 2\*\*40 entries or more, 352 bytes each: 3\.87e\+14 bytes, more "
                        r"than the \S+ bytes of physical memory\n", expected[2]), expected[2]
    assert expected[3] == "error: sweep.values must name each series once, got [0.0, 0.0]\n"


def test_the_config_module_imports_the_standard_library_only():
    # config loads before numpy (cli.config_from_args); an import of numpy
    # or of a package module when it loads would undo that without a sign.
    # Only TimeGrid.times imports numpy, when it is called.
    tree = ast.parse(Path(experiments.__file__).with_name("config.py").read_text())
    at_load, in_functions = [], []

    def collect(node, inside_function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Import, ast.ImportFrom)):
                assert not getattr(child, "level", 0), ast.unparse(child)
                names = ([alias.name for alias in child.names] if isinstance(child, ast.Import)
                         else [child.module])
                (in_functions if inside_function else at_load).extend(
                    name.partition(".")[0] for name in names)
            collect(child, inside_function or isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)))

    collect(tree, False)
    assert at_load and set(at_load) <= sys.stdlib_module_names, at_load
    assert in_functions == ["numpy"]


SOURCE_MODULES = sorted(Path(experiments.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCE_MODULES, ids=[path.stem for path in SOURCE_MODULES])
def test_every_source_module_imports_the_standard_library_numpy_or_the_package(path):
    # the dependency list is numpy only: an import of any other package,
    # at load or inside a function, would add one without a sign
    imported = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            imported.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.append("sunburst_battery" if node.level else node.module)
    outside = [name for name in imported if name.partition(".")[0] not in
               sys.stdlib_module_names | {"numpy", "sunburst_battery"}]
    assert not outside, outside


def test_cli_defaults_blas_to_one_thread_unless_the_environment_says_otherwise(tmp_path):
    # main sets each variable it finds unset before numpy loads, and OpenBLAS
    # then starts no thread of its own; an explicit setting is left as it is
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"model": {"L": 4, "n": 1}, "grid": {"steps": 10}}))
    code = (
        "import json, os\n"
        "from sunburst_battery.cli import main\n"
        f"code = main(['fig4', '--config', {str(config)!r}, '--out', {str(tmp_path / 'x.csv')!r}])\n"
        "tasks = len(os.listdir('/proc/self/task')) if os.path.isdir('/proc/self/task') else None\n"
        f"print(json.dumps([code, [os.environ.get(v) for v in {BLAS_THREADS!r}], tasks]))"
    )
    code_default, values, tasks = run_child(code)
    assert code_default == 0 and values == ["1", "1", "1"]
    if tasks is not None:
        assert tasks == 1
    code_two, values, _ = run_child(code, OPENBLAS_NUM_THREADS="2")
    assert code_two == 0 and values[0] == "2"


def test_in_process_cli_leaves_the_environment_alone(tmp_path, monkeypatch):
    # numpy is already loaded here, so the thread default could not apply
    for name in BLAS_THREADS:
        monkeypatch.delenv(name, raising=False)
    before = dict(os.environ)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"model": {"L": 4, "n": 1}, "grid": {"steps": 10}}))
    assert main(["fig4", "--config", str(config), "--out", str(tmp_path / "x.csv")]) == 0
    assert dict(os.environ) == before


def test_fresh_cli_process_skips_cyclic_collection_and_freezes_before_exit(tmp_path):
    # a fresh interpreter writes the bytes an in-process run writes, and
    # returns with the collector on and the objects alive at exit frozen;
    # an in-process run, numpy already loaded, freezes nothing
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"model": {"L": 4, "n": 1}, "grid": {"steps": 10}}))
    fresh = tmp_path / "fresh.csv"
    code, enabled, frozen = run_child(
        "import gc, json\n"
        "from sunburst_battery.cli import main\n"
        f"code = main(['fig4', '--config', {str(config)!r}, '--out', {str(fresh)!r}])\n"
        "print(json.dumps([code, gc.isenabled(), gc.get_freeze_count()]))"
    )
    assert code == 0 and enabled and frozen > 0
    frozen = gc.get_freeze_count()
    out = tmp_path / "in-process.csv"
    assert main(["fig4", "--config", str(config), "--out", str(out)]) == 0
    assert gc.get_freeze_count() == frozen and gc.isenabled()
    assert out.read_bytes() == fresh.read_bytes()


def test_default_csv_bytes_do_not_depend_on_blas_threads(tmp_path):
    # fig1 and fig4 at defaults in fresh processes: one with the BLAS thread
    # variables unset (the CLI's one-thread default) and one with two
    # OpenBLAS threads (set in the child's environment only); the two
    # children of a command run side by side
    for command in ("fig1", "fig4"):
        children = []
        for threads in (None, "2"):
            out = tmp_path / f"{command}-threads{threads}.csv"
            env = child_env() if threads is None else child_env(OPENBLAS_NUM_THREADS=threads)
            cmd = [sys.executable, "-m", "sunburst_battery.cli", command, "--out", str(out)]
            children.append((subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL,
                                              stderr=subprocess.PIPE), out))
        for child, out in children:
            _, err = child.communicate(timeout=300)
            assert child.returncode == 0, err.decode()
        first = children[0][1].read_bytes()
        assert first.count(b"\n") == 1 + {"fig1": 4, "fig4": 3}[command] * 2000
        for _, out in children[1:]:
            assert out.read_bytes() == first, out.name


CPU_KERNEL_VARIABLES = ({}, {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"},
                        {"OPENBLAS_CORETYPE": "Prescott"})


def test_closed_form_cells_do_not_depend_on_the_cpu_kernels(tmp_path):
    # an n sweep at L = 4 over n = 2 and 4 in fresh processes: by default,
    # with numpy's AVX-512 kernels switched off, and with OpenBLAS held to
    # its Prescott kernel.  The t, closed-form and label cells are
    # byte-identical to the default run's, and every *_num cell is within
    # 1e-13 of it.  On a CPU without AVX-512, or with an OpenBLAS that is not
    # built DYNAMIC_ARCH, these variables change nothing, and the three runs
    # agree trivially
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"model": {"L": 4, "n": 2}, "grid": {"steps": 2000},
                                  "sweep": {"parameter": "n", "values": [2, 4]}}))
    children = []
    for k, variables in enumerate(CPU_KERNEL_VARIABLES):
        out = tmp_path / f"sweep-{k}.csv"
        cmd = [sys.executable, "-m", "sunburst_battery.cli", "sweep", "--config", str(config),
               "--out", str(out)]
        children.append((subprocess.Popen(cmd, env=child_env(**variables),
                                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE), out))
    for child, _ in children:
        _, err = child.communicate(timeout=300)
        assert child.returncode == 0, err.decode()
    tables = [[line.split(",") for line in out.read_text().splitlines()] for _, out in children]
    assert len(tables[0]) == 1 + 2 * 2000
    numeric = [CSV_COLUMNS.index(name) for name in CSV_COLUMNS if name.endswith("_num")]
    for table in tables[1:]:
        assert len(table) == len(tables[0])
        for row, (line, reference) in enumerate(zip(table, tables[0])):
            assert [cell for j, cell in enumerate(line) if j not in numeric] == [
                cell for j, cell in enumerate(reference) if j not in numeric], row
            assert all(abs(float(line[j]) - float(reference[j])) <= 1e-13
                       for j in numeric if row), row


def command_cases():
    """(name, command, config data, keyword arguments) running every command
    on systems of at most 6 qubits, parameters drawn from a fixed seed: the
    keyword arguments override fig1's collapse systems, and fig3 runs
    n = 1, 2 and 3 on the six qubits of its (5, 1) model."""
    rng = np.random.default_rng(20261019)

    def model(L, n):
        return {"L": L, "n": n, "J": float(rng.uniform(0.5, 1.5)), "h": float(rng.uniform(0, 0.6)),
                "delta": float(rng.uniform(0.2, 1.0)), "kappa": float(rng.uniform(0.2, 2.0))}

    def grid():
        start = float(rng.uniform(0.0, 1.0))
        return {"t_start": start, "t_end": start + float(rng.uniform(0.5, 3.0)),
                "steps": int(rng.integers(20, 60))}

    def seed():
        return int(rng.integers(0, 2 ** 32))

    return [
        ("fig1", "cmd_fig1", {"model": model(3, 1), "grid": grid(), "seed": seed(),
                              "initial": {"charger_kind": "eigenstate", "index": 5}},
         {"collapse_systems": ((4, 2),)}),
        ("fig1-ghz_minus", "cmd_fig1", {"model": model(4, 2), "grid": grid(), "seed": seed(),
                                        "initial": {"charger_kind": "ghz_minus"}},
         {"collapse_systems": ((3, 1), (4, 2))}),
        ("fig3", "cmd_fig3", {"model": model(5, 1), "grid": {"steps": 40}, "seed": seed(),
                              "initial": {"charger_kind": "random"},
                              "sweep": {"parameter": "kappa", "values": [0.3, 1.7]}}, {}),
        ("fig4", "cmd_fig4", {"model": model(4, 1), "grid": grid(), "seed": seed()}, {}),
        ("sweep-kappa", "cmd_sweep", {"model": {**model(3, 2), "d": 1}, "grid": grid(),
                                      "seed": seed(), "initial": {"charger_kind": "random"},
                                      "sweep": {"parameter": "kappa", "values": [0.4, 1.1]}}, {}),
        ("sweep-n", "cmd_sweep", {"model": model(4, 2), "grid": grid(), "seed": seed(),
                                  "sweep": {"parameter": "n", "values": [1, 2, 4]}}, {}),
    ]


def command_runs(command, config, kwargs):
    """(spec, initial state, times, run seed) of every run ``command``
    writes, in order, for the series commands; fig3's (spec, times) per
    summary row."""
    model, times = config.model, config.grid.times()
    if command == "cmd_fig1":  # a pair equal to the configured one runs once
        specs = [model] + [replace(model, L=L, n=n, d=None) for L, n in kwargs["collapse_systems"]
                           if (L, n) != (model.L, model.n)]
    elif command == "cmd_fig3":
        specs = [replace(model, L=model.qubits - n, n=n, d=None, kappa=kappa)
                 for n in (1, 2, 3) for kappa in config.sweep.values]
        return [(spec, np.linspace(0.0, 2 * np.pi / AnalyticParams.from_model(spec).omega,
                                   config.grid.steps)) for spec in specs]
    elif command == "cmd_fig4":
        return [(model, InitialStateSpec("random"), times, config.seed + k) for k in range(3)]
    elif config.sweep.parameter == "kappa":
        specs = [replace(model, kappa=value) for value in config.sweep.values]
    else:
        specs = [replace(model, n=value, d=None) for value in config.sweep.values]
    return [(spec, config.initial or GHZ, times, config.seed) for spec in specs]


def dense_columns(spec, init, times, seed):
    """Stored energy, population ergotropy and linear entropy of dense
    full-space ED states on ``times``, a random charger drawn from ``seed``."""
    oracle = evolve_on_grid(eigh(build_total(spec)), initial_state(spec, init, seed), times)
    return numpy_figures(reduce_to_battery(oracle, spec.L, spec.n),
                         battery_energies(spec.n, spec.delta))


def assert_matches_dense_oracle(command, config, kwargs):
    """Every *_num cell that ``command`` wrote to ``config.output_path``
    follows dense ED to 1e-12 (the power, dE / t, through the stored
    energy: its roundoff grows as t -> 0), under the labels, seeds and
    times of its runs; fig3's peak time is a time where the dense ergotropy
    peaks, blank with its entropy where there is no work."""
    cols = read_csv(config.output_path)
    runs = command_runs(command, config, kwargs)
    if command == "cmd_fig3":
        assert len(cols["t"]) == len(runs)
        for row, (spec, times) in enumerate(runs):
            dense = dense_columns(spec, config.initial or GHZ, times, config.seed)
            power = charging_power(dense["stored_energy"], times)
            labels = (cols["n"][row], cols["L"][row], cols["kappa"][row])
            assert labels == (spec.n, spec.L, spec.kappa)
            assert abs(cols["dE_num"][row] - dense["stored_energy"].max()) <= 1e-12
            assert abs(cols["xi_num"][row] - dense["ergotropy"].max()) <= 1e-12
            assert abs(cols["P_num"][row] - power.max()) <= 1e-12
            if dense["ergotropy"].max() <= WORK_FLOOR:  # no work, no peak
                assert np.isnan(cols["t"][row]) and np.isnan(cols["SL_num"][row])
                continue
            k = int(np.flatnonzero(times == cols["t"][row])[0])
            assert dense["ergotropy"][k] >= dense["ergotropy"].max() - 1e-12
            assert abs(cols["SL_num"][row] - dense["linear_entropy"][k]) <= 1e-12
        return
    start = 0
    for spec, init, times, seed in runs:
        block = slice(start, start + times.size)
        start += times.size
        assert np.array_equal(cols["t"][block], times)
        assert np.all(cols["n"][block] == spec.n) and np.all(cols["L"][block] == spec.L)
        assert np.all(cols["kappa"][block] == spec.kappa)
        assert np.all(cols["seed"][block] == seed)
        dense = dense_columns(spec, init, times, seed)
        for cell, name in (("dE_num", "stored_energy"), ("xi_num", "ergotropy"),
                           ("SL_num", "linear_entropy")):
            assert np.max(np.abs(cols[cell][block] - dense[name])) <= 1e-12, (command, cell)
        assert np.array_equal(cols["P_num"][block],
                              charging_power(cols["dE_num"][block], times))
    assert start == cols["t"].size


def test_small_commands_match_dense_oracle_at_one_and_two_blas_threads(tmp_path, capsys):
    # every *_num cell that fig1, fig3, fig4 and sweep write follows dense ED
    # (assert_matches_dense_oracle), each command's last stdout line reports
    # its CSV's data lines, and fresh processes at one and at two OpenBLAS
    # threads write the bytes this process writes
    cases = [(name, command, {**data, "output_path": f"{name}.csv"}, kwargs)
             for name, command, data, kwargs in command_cases()]
    code = (
        "import os, sys\n"
        "from sunburst_battery import experiments\n"
        "from sunburst_battery.config import ExperimentConfig\n"
        "os.chdir(sys.argv[1])\n"
        f"for _, command, data, kwargs in {cases!r}:\n"
        "    config = ExperimentConfig.from_dict(data)\n"
        "    getattr(experiments, command)(config, **kwargs)\n"
    )
    children = []
    for threads in ("1", "2"):
        folder = tmp_path / f"threads{threads}"
        folder.mkdir()
        children.append((subprocess.Popen(
            [sys.executable, "-c", code, str(folder)], env=child_env(OPENBLAS_NUM_THREADS=threads),
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE), folder))
    for name, command, data, kwargs in cases:
        config = ExperimentConfig.from_dict({**data, "output_path": str(tmp_path / f"{name}.csv")})
        getattr(experiments, command)(config, **kwargs)
        label = (f"sweep ({config.sweep.parameter})" if command == "cmd_sweep"
                 else command.removeprefix("cmd_"))
        rows = len(Path(config.output_path).read_text().splitlines()) - 1
        assert capsys.readouterr().out.splitlines()[-1] == (
            f"{label}: wrote {rows} rows to {config.output_path}"), name
        assert_matches_dense_oracle(command, config, kwargs)
    for child, folder in children:
        _, err = child.communicate(timeout=300)
        assert child.returncode == 0, err.decode()
        for name, _, _, _ in cases:
            expected = (tmp_path / f"{name}.csv").read_bytes()
            assert (folder / f"{name}.csv").read_bytes() == expected, (folder.name, name)


@st.composite
def drawn_commands(draw):
    """One of ``command_cases`` with its four model parameters, grid window
    and steps (steps alone for fig3, which scans one period), run seed and
    charger kind drawn: (command, config data, keyword arguments)."""
    _, command, data, kwargs = draw(st.sampled_from(command_cases()))
    model = {**data["model"], **{key: draw(st.floats(lo, hi)) for key, lo, hi in (
        ("J", 0.2, 1.5), ("h", 0.0, 1.0), ("delta", 0.1, 1.0), ("kappa", 0.1, 2.0))}}
    grid = {"steps": draw(st.integers(2, 60))}
    if command != "cmd_fig3":
        start = draw(st.floats(0.0, 3.0))
        grid.update(t_start=start, t_end=start + draw(st.floats(0.01, 8.0)))
    data = {key: value for key, value in data.items() if key != "initial"}
    data.update(model=model, grid=grid, seed=draw(st.integers(0, 2 ** 64 - 3)))
    if command != "cmd_fig4":  # fig4 seeds its random chargers itself
        kind = draw(st.sampled_from(CHARGER_KINDS))
        data["initial"] = {"charger_kind": kind}
        if kind == "eigenstate":  # a pattern of the smallest charger, L = 3
            data["initial"]["index"] = draw(st.integers(0, 7))
    return command, data, kwargs


def test_drawn_commands_match_dense_oracle(tmp_path):
    # every *_num cell of a command run on drawn parameters, window, seeds
    # and charger follows dense ED to 1e-12, under the same checks as at the
    # fixed seed above
    @settings(max_examples=40, derandomize=True, deadline=None, database=None)
    @given(drawn_commands())
    def check(case):
        command, data, kwargs = case
        config = ExperimentConfig.from_dict({**data, "output_path": str(tmp_path / "run.csv")})
        getattr(experiments, command)(config, **kwargs)
        assert_matches_dense_oracle(command, config, kwargs)

    check()


def test_default_runs_keep_their_term_and_node_counts(tmp_path, monkeypatch, capsys):
    # K coefficient terms and M nodes of every default fig1, fig3 and fig4
    # run, (L, n, kappa, K, M): the cut, not how the coefficients are
    # computed, sets them
    runs, trajectory = [], experiments.trajectory

    def counted(spec, init, times, seed=None):
        traj = trajectory(spec, init, times, seed)
        runs.append((spec.L, spec.n, spec.kappa, traj.coefficients.shape[1], traj.nodes.size))
        return traj

    monkeypatch.setattr(experiments, "trajectory", counted)
    counts = {}
    for command in ("fig1", "fig3", "fig4"):
        assert main([command, "--out", str(tmp_path / f"{command}.csv")]) == 0
        counts[command], runs[:] = runs[:], []
    capsys.readouterr()
    assert counts["fig1"] == [(11, 1, 2.0, 60, 60), (10, 2, 2.0, 63, 63), (9, 3, 2.0, 66, 66),
                              (8, 4, 2.0, 69, 69)]
    assert counts["fig4"] == [(11, 1, 2.0, 60, 60)] * 3
    fig3 = {(L, n, kappa): (terms, nodes) for L, n, kappa, terms, nodes in counts["fig3"]}
    assert len(fig3) == 20
    assert [fig3[12 - n, n, 0.25] for n in (1, 2, 3, 4)] == [
        (158, 158), (152, 152), (146, 146), (140, 140)]
    assert [fig3[12 - n, n, 4.0] for n in (1, 2, 3, 4)] == [(38, 38), (42, 42), (45, 45), (49, 49)]


def test_fig4_refuses_a_seed_whose_last_run_seed_leaves_64_bits(tmp_path, capsys):
    # fig4 runs seed, seed + 1 and seed + 2: the largest valid run seed,
    # 2**64 - 1, may only be the last of them
    config_path = tmp_path / "config.json"
    out = tmp_path / "fig4.csv"
    config_path.write_text(json.dumps({"model": {"L": 4, "n": 1}, "grid": {"steps": 20}}))
    for seed in (2 ** 64 - 1, 2 ** 64 - 2):
        assert main(["fig4", "--config", str(config_path), "--seed", str(seed),
                     "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            f"error: fig4 runs seeds seed..seed + 2, so seed must be at most {2 ** 64 - 3}, "
            f"got {seed}"]
        assert captured.out == "" and not out.exists()
    assert main(["fig4", "--config", str(config_path), "--seed", str(2 ** 64 - 3),
                 "--out", str(out)]) == 0
    assert out.read_text().splitlines()[-1].endswith(f",{2 ** 64 - 1}")
