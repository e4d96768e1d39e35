import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from sunburst_battery import (
    CSV_COLUMNS,
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
                         ergotropy_spectral=column, linear_entropy=column, power=-column,
                         unavailable=column, **dict.fromkeys(
                             ("peak_stored_time", "peak_stored", "peak_ergotropy_time",
                              "peak_ergotropy", "peak_power_time", "peak_power",
                              "max_variant_gap"), 0.0),
                         ergotropy_onsets=[], ergotropy_offsets=[])
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
    config = small_config(tmp_path, "fig3.csv", model={**SMALL_MODEL, "L": 5})
    summary = cmd_fig3(config, kappas=(0.25, 2.0), n_values=(1, 2), total_qubits=6)
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
    config = small_config(tmp_path, "fig3.csv", model={**SMALL_MODEL, "L": 5})
    cmd_fig3(config, kappas=(0.2, 2.0), n_values=(1,), total_qubits=6)
    cols = read_csv(config.output_path)
    below = cols["kappa"] == 0.2
    assert np.max(cols["xi_num"][below]) <= 1e-12
    assert np.isnan(cols["t"][below]).all() and np.isnan(cols["SL_num"][below]).all()
    assert not np.isnan(cols["t"][~below]).any() and not np.isnan(cols["SL_num"][~below]).any()
    assert not np.isnan(cols["dE_num"]).any() and not np.isnan(cols["P_num"]).any()
    out = capsys.readouterr().out
    assert "fig3 (n=1, kappa=0.2): no work, max xi/n" in out
    assert "fig3 (n=1, kappa=2.0): max xi/n" in out


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


def test_default_csv_bytes_do_not_depend_on_blas_threads(tmp_path):
    # fig1 and fig4 at defaults, each in fresh processes under one and two
    # BLAS threads (set in the child's environment only); the two children
    # of a command run side by side
    src = str(Path(experiments.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    for command in ("fig1", "fig4"):
        children = []
        for threads in ("1", "2"):
            out = tmp_path / f"{command}-threads{threads}.csv"
            env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads}
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
