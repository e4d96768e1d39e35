import json
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sunburst_battery import (
    CSV_COLUMNS,
    AnalyticParams,
    ExperimentConfig,
    InitialStateSpec,
    MeritSeries,
    ModelSpec,
    SweepSpec,
    TimeGrid,
    analytic_reference,
    cmd_fig1,
    cmd_fig2,
    cmd_fig3,
    cmd_fig4,
    cmd_sweep,
    cmd_validate,
    load_config,
    read_csv,
    write_csv,
)
from sunburst_battery import experiments
from sunburst_battery.cli import build_parser, config_from_args, main
from sunburst_battery.experiments import CHECKS, VALIDATE_SEED
from sunburst_battery.observables import WORK_FLOOR

SMALL_MODEL = {"L": 4, "n": 1, "J": 1.0, "h": 0.1, "delta": 0.5, "kappa": 2.0}


def small_config(tmp_path, name, **overrides):
    data = {
        "model": dict(SMALL_MODEL),
        "initial": {"charger_kind": "ghz_plus"},
        "grid": {"t_start": 0.0, "t_end": 2.0, "steps": 40},
        "seed": 7,
        "output_path": str(tmp_path / name),
    }
    data.update(overrides)
    return ExperimentConfig.from_dict(data)


def test_config_roundtrip_and_unknown_keys(tmp_path):
    payload = {
        "model": dict(SMALL_MODEL),
        "initial": {"charger_kind": "random", "seed": 3},
        "grid": {"t_start": 0.0, "t_end": 1.0, "steps": 10},
        "sweep": {"parameter": "kappa", "values": [0.5, 1.0]},
        "seed": 42,
        "output_path": "x.csv",
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    config = load_config(path)
    assert config.model.kappa == 2.0
    assert config.initial.seed == 3
    assert config.sweep.values == (0.5, 1.0)
    assert config.seed == 42

    for corruption in (
        {"extra": 1},
        {"model": {**SMALL_MODEL, "mu": 0.2}},
        {"grid": {"t_start": 0, "t_end": 1, "steps": 10, "dt": 0.1}},
        {"initial": {"charger_kind": "ghz_plus", "phase": 0.3}},
        {"sweep": {"parameter": "kappa", "values": [1], "scale": "log"}},
    ):
        broken = {**payload, **corruption}
        with pytest.raises(ValueError, match="unknown"):
            ExperimentConfig.from_dict(broken)


@pytest.mark.parametrize("data, key", [
    ({"model": {**SMALL_MODEL, "L": 11.7}}, "model.L"),
    ({"grid": {"steps": 2000.9}}, "grid.steps"),
    ({"seed": 1.5}, "config.seed"),
    ({"initial": {"charger_kind": "eigenstate", "index": 2.5}}, "initial-state.index"),
    ({"initial": {"charger_kind": "random", "seed": 2.5}}, "initial-state.seed"),
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
    "initial": {"charger_kind": "random", "index": None, "seed": 3},
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


def test_csv_format_and_reread(tmp_path):
    path = tmp_path / "table.csv"
    rows = [(0.1, 1 / 3, None, 2.0, 0.0, None, None, None, None, 1, 4, 2.0, 7)]
    write_csv(path, rows)
    raw = path.read_bytes()
    assert raw.startswith((",".join(CSV_COLUMNS) + "\n").encode())
    assert b"\r" not in raw
    assert b"0.33333333333333331" in raw  # 17 significant digits
    cols = read_csv(path)
    assert cols["dE_num"][0] == 1 / 3
    assert np.isnan(cols["xi_num"][0])
    assert cols["seed"][0] == 7


def test_csv_golden_bytes_for_tuple_and_series_rows(tmp_path):
    # both row paths format None as empty, integers (np.int64 too) as digits
    # and floats with 17 significant digits, signed zero and subnormal-range
    # values included
    header = ",".join(CSV_COLUMNS) + "\n"
    path = tmp_path / "tuples.csv"
    write_csv(path, [(-0.0, 1e-300, None, 0.1, 2, np.int64(-3), 1 / 3, None, 5.0,
                      1, 4, 2.0, np.int64(2 ** 63 - 1))])
    assert path.read_bytes() == (
        header + "-0,1e-300,,0.10000000000000001,2,-3,"
        "0.33333333333333331,,5,1,4,2,9223372036854775807\n").encode()

    column = np.array([0.0, -0.0, 1e-300, 1 / 3])
    series = MeritSeries(t=column, stored_energy=-column, ergotropy=column,
                         ergotropy_spectral=column, linear_entropy=column, power=-column)
    lines = experiments._series_rows(series, ModelSpec(6, 3, kappa=0.5), np.int64(9))
    path = tmp_path / "series.csv"
    write_csv(path, lines)
    assert path.read_bytes() == (
        header
        + "0,-0,0,0,-0,,,,,3,6,0.5,9\n"
        + "-0,0,-0,-0,0,,,,,3,6,0.5,9\n"
        + "1e-300,-1e-300,1e-300,"
          "1e-300,-1e-300,,,,,3,6,0.5,9\n"
        + "0.33333333333333331,-0.33333333333333331,0.33333333333333331,"
          "0.33333333333333331,-0.33333333333333331,,,,,3,6,0.5,9\n").encode()


@settings(max_examples=200, deadline=None)
@given(rows=st.integers(0, 4), data=st.data(),
       labels=st.tuples(st.integers(0, 8), st.integers(2, 24), st.floats(),
                        st.integers(0, 2 ** 64 - 1)))
def test_row_template_formats_every_cell_as_fmt(rows, data, labels):
    # nan, infinities, subnormals and -0.0 included; a None column is blank,
    # and the first (the time) never is
    column = st.lists(st.floats(), min_size=rows, max_size=rows)
    columns = [data.draw(column)] + data.draw(st.lists(st.none() | column, max_size=8))
    lines = experiments._format_rows(columns, labels)
    assert len(lines) == rows
    for k, line in enumerate(lines):
        cells = [None if col is None else col[k] for col in columns] + list(labels)
        assert line == ",".join(map(experiments._fmt, cells))


def test_read_csv_rejects_a_row_of_the_wrong_width(tmp_path):
    path = tmp_path / "short.csv"
    path.write_text(",".join(CSV_COLUMNS) + "\n" + ",".join(["1"] * len(CSV_COLUMNS))
                    + "\n\n" + ",".join(["1"] * (len(CSV_COLUMNS) - 1)) + "\n")
    with pytest.raises(ValueError, match=f"CSV line 4 has {len(CSV_COLUMNS) - 1} cells"):
        read_csv(path)


def test_analytic_reference_filling():
    times = np.linspace(0.0, 1.0, 5)
    one = analytic_reference(ModelSpec(4, 1), times)
    assert all(col is not None for col in one)
    two = analytic_reference(ModelSpec(4, 2), times)
    assert two[0] is not None and two[1] is not None and two[3] is not None
    assert two[2] is None  # no two-battery closed form for the linear entropy
    three = analytic_reference(ModelSpec(6, 3), times)
    assert all(col is None for col in three)


def test_fig1_small_scale(tmp_path):
    config = small_config(tmp_path, "fig1.csv")
    summary = cmd_fig1(config, collapse_systems=((4, 2),))
    assert summary["max_xi_collapse"] <= 0.05
    assert summary["max_entropy_deviation"] <= 0.05
    cols = read_csv(config.output_path)
    assert len(cols["t"]) == 2 * 40
    # analytic columns filled for both systems here (n = 1 and n = 2)
    assert not np.isnan(cols["xi_ana"]).any()
    mask2 = cols["n"] == 2
    assert np.isnan(cols["SL_ana"][mask2]).all()
    assert not np.isnan(cols["SL_ana"][~mask2]).any()


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


def test_fig2_small_scale(tmp_path):
    config = small_config(tmp_path, "fig2.csv")
    summary = cmd_fig2(config, systems=((4, 1), (4, 2)))
    assert summary["max_power_collapse"] <= 0.05
    cols = read_csv(config.output_path)
    # power vanishes at t = 0 for every system
    assert np.all(cols["P_num"][cols["t"] == 0.0] == 0.0)


def test_fig3_small_scale(tmp_path):
    config = small_config(tmp_path, "fig3.csv", model={**SMALL_MODEL, "L": 5},
                          sweep={"parameter": "kappa", "values": [0.25, 2.0]})
    summary = cmd_fig3(config, n_values=(1, 2), total_qubits=6)
    cols = read_csv(config.output_path)
    assert len(cols["t"]) == 4
    for point in summary["points"]:
        if point["kappa"] == 0.25:
            # threshold coupling: no extractable work up to h corrections
            assert point["peak_ergotropy_per_battery"] <= 0.05
        else:
            assert abs(point["peak_ergotropy_per_battery"]
                       - point["analytic_peak_ergotropy"]) <= 0.05
            assert abs(point["peak_power_per_battery"]
                       - point["analytic_peak_power"]) / point["analytic_peak_power"] <= 0.05


def test_fig3_leaves_peak_cells_empty_without_work(tmp_path, capsys):
    # 2 kappa < delta: the ergotropy series is roundoff, so it has no peak
    # time and no entropy at that peak; the strong-coupling point keeps both
    config = small_config(tmp_path, "fig3.csv", model={**SMALL_MODEL, "L": 5},
                          sweep={"parameter": "kappa", "values": [0.2, 2.0]})
    cmd_fig3(config, n_values=(1,), total_qubits=6)
    cols = read_csv(config.output_path)
    below = cols["kappa"] == 0.2
    assert np.max(cols["xi_num"][below]) <= 1e-12
    assert np.isnan(cols["t"][below]).all() and np.isnan(cols["SL_num"][below]).all()
    assert not np.isnan(cols["t"][~below]).any() and not np.isnan(cols["SL_num"][~below]).any()
    assert not np.isnan(cols["dE_num"]).any() and not np.isnan(cols["P_num"]).any()
    out = capsys.readouterr().out
    assert "fig3 (n=1, kappa=0.2): no work, max xi/n" in out
    assert "fig3 (n=1, kappa=2.0): max xi/n" in out


def test_fig3_rows_are_the_peaks_of_the_runs_they_name(tmp_path):
    # each row's t, dE, xi, SL and P cells are read, to the last bit, from
    # the columns of run_series on that row's system and period grid: t and
    # SL at the ergotropy argmax (empty without work), the others maxima
    config = small_config(tmp_path, "fig3.csv", model={**SMALL_MODEL, "L": 5},
                          sweep={"parameter": "kappa", "values": [0.2, 2.0]})
    cmd_fig3(config, n_values=(1, 2), total_qubits=6)
    cols = read_csv(config.output_path)
    assert len(cols["t"]) == 4
    for row in range(4):
        spec = replace(config.model, L=int(cols["L"][row]), n=int(cols["n"][row]), d=None,
                       kappa=float(cols["kappa"][row]))
        omega = AnalyticParams.from_model(spec).omega
        times = np.linspace(0.0, 2.0 * np.pi / omega, config.grid.steps)
        series = experiments.run_series(spec, config.seeded_initial, times)
        k = np.argmax(series.ergotropy)
        working = series.ergotropy[k] > WORK_FLOOR
        expected = {"t": times[k] if working else np.nan,
                    "dE_num": series.stored_energy.max(), "xi_num": series.ergotropy[k],
                    "SL_num": series.linear_entropy[k] if working else np.nan,
                    "P_num": series.power.max()}
        for name, value in expected.items():
            assert np.array_equal(cols[name][row], value, equal_nan=True), (row, name)
    assert np.isnan(cols["t"][cols["kappa"] == 0.2]).all()


def test_fig2_fig3_reject_a_model_they_would_not_run(tmp_path, capsys):
    # both commands run fixed (L, n) systems; a configured model outside them
    # fails before any work instead of being ignored
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "model": {**SMALL_MODEL, "L": 6},
        "output_path": str(tmp_path / "never.csv"),
    }))
    assert main(["fig3", "--config", str(config_path)]) == 2
    err = capsys.readouterr().err
    assert "L + n = 12" in err and "(11, 1)" in err and "L + n = 7" in err
    assert main(["fig2", "--config", str(config_path)]) == 2
    err = capsys.readouterr().err
    assert "(11, 1)" in err and "(L=6, n=1)" in err
    # fig3 sweeps kappa alone: a sweep over n would run n = 1..4 regardless
    config_path.write_text(json.dumps({
        "sweep": {"parameter": "n", "values": [1, 2]},
        "output_path": str(tmp_path / "never.csv"),
    }))
    assert main(["fig3", "--config", str(config_path)]) == 2
    captured = capsys.readouterr()
    assert "kappa only" in captured.err and captured.out == ""
    assert not (tmp_path / "never.csv").exists()


@pytest.mark.parametrize("command", ["fig2", "fig3", "sweep"])
def test_a_spacing_the_command_would_drop_is_refused_before_any_run(
        tmp_path, monkeypatch, capsys, command):
    # fig2, fig3 and an n sweep run every system at d = L/n: a configured
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
    cmd_fig2(small_config(tmp_path, "fig2.csv", model=equispaced), systems=((4, 1), (4, 2)))
    cmd_fig3(small_config(tmp_path, "fig3.csv", model=equispaced,
                          sweep={"parameter": "kappa", "values": [2.0]}),
             n_values=(1, 2), total_qubits=6)
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
], ids=["top-level-number", "top-level-list", "model-number", "model-null",
        "sweep-values-number", "model-h-null", "grid-t_end-null", "output_path-null",
        "output_path-number"])
def test_cli_rejects_malformed_config_sections(tmp_path, monkeypatch, capsys, command, payload):
    # each fails with one error line and exit 2, before any output is written
    monkeypatch.chdir(tmp_path)
    Path("config.json").write_text(json.dumps(payload))
    assert main([command, "--config", "config.json"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    assert os.listdir(tmp_path) == ["config.json"]


def test_fig4_small_scale_determinism(tmp_path):
    config = small_config(tmp_path, "fig4.csv", model={**SMALL_MODEL, "L": 5})
    summary = cmd_fig4(config, n_seeds=3)
    assert summary["seeds"] == [7, 8, 9]
    assert summary["pairwise_max_deviation"] <= 0.05
    cols = read_csv(config.output_path)
    assert set(np.unique(cols["seed"])) == {7, 8, 9}
    # identical seed -> identical curve, bit for bit
    first = cols["xi_num"][cols["seed"] == 7]
    config_again = small_config(tmp_path, "fig4b.csv", model={**SMALL_MODEL, "L": 5})
    cmd_fig4(config_again, n_seeds=1)
    again = read_csv(config_again.output_path)["xi_num"]
    assert np.array_equal(first, again)


def test_fig4_compares_each_battery_with_the_closed_form(tmp_path):
    # the closed form is for one battery: an (8, 2) register holds two, and
    # its total ergotropy is about twice that curve
    config = small_config(tmp_path, "fig4.csv", model={**SMALL_MODEL, "L": 8, "n": 2})
    summary = cmd_fig4(config, n_seeds=2)
    assert summary["max_deviation_vs_analytic"] <= 0.05


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
    ok, detail = check(np.random.default_rng(VALIDATE_SEED), True)
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
    table[6] = ("coupling_mutation_detected", lambda rng, quick: (False, "forced"))
    monkeypatch.setattr(experiments, "CHECKS", tuple(table))
    assert cmd_validate(quick=True) == 1
    out = capsys.readouterr().out
    assert "CHECK coupling_mutation_detected FAIL forced\n" in out
    assert out.count(" PASS ") == 11
    assert out.endswith("validate: 11/12 checks passed\n")


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

    defaults = config_from_args(parser.parse_args(["fig2"]))
    assert defaults.model.L == 11 and defaults.model.n == 1
    assert defaults.model.h == 0.1 and defaults.model.kappa == 2.0
    assert defaults.output_path == "fig2.csv"
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


@pytest.mark.parametrize("command", ["fig1", "fig2", "fig3"])
def test_cli_fills_a_random_charger_seed_from_the_run_seed(tmp_path, command):
    # a random charger without a seed runs as if given the run seed (here
    # set by --seed), as sweep always did; fig3 scans its own window at the
    # one kappa of the sweep section
    outputs = []
    for initial in ({"charger_kind": "random"}, {"charger_kind": "random", "seed": 9}):
        config_path = tmp_path / "config.json"
        outputs.append(tmp_path / f"{command}-{len(outputs)}.csv")
        sections = ({"grid": {"steps": 8}, "sweep": {"parameter": "kappa", "values": [2.0]}}
                    if command == "fig3" else {"grid": {"t_start": 0.0, "t_end": 1.0, "steps": 8}})
        config_path.write_text(json.dumps({
            "initial": initial, **sections, "output_path": str(outputs[-1]),
        }))
        assert main([command, "--config", str(config_path), "--seed", "9"]) == 0
    assert outputs[0].read_bytes() == outputs[1].read_bytes()


@pytest.mark.parametrize("command, sections, section", [
    ("fig1", {"sweep": {"parameter": "kappa", "values": [1.0, 2.0]}}, "sweep"),
    ("fig2", {"sweep": {"parameter": "kappa", "values": [1.0, 2.0]}}, "sweep"),
    ("fig4", {"sweep": {"parameter": "kappa", "values": [1.0, 2.0]}}, "sweep"),
    ("fig4", {"model": {"L": 4, "n": 1},
              "initial": {"charger_kind": "eigenstate", "index": 10 ** 30}}, "initial"),
    ("fig3", {"grid": {"t_start": 1.0, "t_end": 1.5}}, "grid"),
], ids=["fig1-sweep", "fig2-sweep", "fig4-sweep", "fig4-initial", "fig3-grid-window"])
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
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "model": {"L": 4, "n": 1},
        "grid": {"t_end": 1e300},
        "output_path": str(tmp_path / "huge.csv"),
    }))
    assert main(["fig4", "--config", str(config_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: Chebyshev expansion at z = ") and err.count("\n") == 1
    assert "physical memory" in err and not re.search(r"\d{5}", err), err
    assert not (tmp_path / "huge.csv").exists()


def test_cli_refuses_a_missing_output_directory_before_any_run(tmp_path, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(experiments, "run_series", lambda *args: calls.append(args))
    out = tmp_path / "missing" / "fig3.csv"
    assert main(["fig3", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"error: output directory {str(out.parent)!r} does not exist"]
    assert captured.out == "" and calls == [] and not out.parent.exists()


def test_cli_refuses_an_output_path_that_is_a_directory_before_any_run(tmp_path, monkeypatch,
                                                                        capsys):
    calls = []
    monkeypatch.setattr(experiments, "run_series", lambda *args: calls.append(args))
    assert main(["fig4", "--out", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"error: output path {str(tmp_path)!r} is a directory"]
    assert captured.out == "" and calls == [] and list(tmp_path.iterdir()) == []


def test_cli_reports_an_allocation_failure_as_one_error_line(tmp_path, capsys):
    # 10**17 grid times are 800 PB, beyond any address space, so np.linspace
    # raises at once instead of reserving pages it would never touch
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "grid": {"steps": 10 ** 17}, "output_path": str(tmp_path / "fig1.csv"),
    }))
    assert main(["fig1", "--config", str(config_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: Unable to allocate ") and err.count("\n") == 1, err
    assert not (tmp_path / "fig1.csv").exists()


def test_negative_initial_seed_is_refused_at_parse_time(tmp_path, monkeypatch, capsys):
    data = {"initial": {"charger_kind": "random", "seed": -3}}
    with pytest.raises(ValueError, match=re.escape("initial.seed must be non-negative, got -3")):
        ExperimentConfig.from_dict(data)
    calls = []
    monkeypatch.setattr(experiments, "run_series", lambda *args: calls.append(args))
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({**data, "output_path": str(tmp_path / "fig1.csv")}))
    assert main(["fig1", "--config", str(config_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == ["error: initial.seed must be non-negative, got -3"]
    assert captured.out == "" and calls == []


@pytest.mark.parametrize("command", ["fig1", "fig2", "fig3", "sweep"])
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
        f"error: {command}: initial.index 1000 outside [0, 2**9) for the (L, n) = (9, 3) system"]
    assert calls == [] and not out.exists()


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


def test_importing_the_package_loads_no_numpy_and_resolves_every_export():
    loaded = run_child(
        "import json, sys, sunburst_battery\n"
        "print(json.dumps(sorted(m for m in sys.modules\n"
        "                        if m == 'numpy' or m.startswith('sunburst_battery.'))))"
    )
    assert loaded == []
    import importlib

    import sunburst_battery

    assert set(sunburst_battery.__all__) <= set(dir(sunburst_battery))
    for name in sunburst_battery.__all__:
        module = importlib.import_module(f"sunburst_battery.{sunburst_battery._SOURCE[name]}")
        assert getattr(sunburst_battery, name) is getattr(module, name), name
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        sunburst_battery.no_such_name


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
