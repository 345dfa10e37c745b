"""Experiment harness: config validation, determinism, CSV/manifest output."""

import ast
import itertools
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import fields
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from test_golden import TINY_CONFIGS

from sbsim import cli, experiments, metrics, noise, sim
from sbsim.cli import main
from sbsim.encoding import code_bits
from sbsim.experiments import (
    EXPERIMENT_KINDS,
    ExperimentConfig,
    emit_csv,
    make_config,
    run,
    steps_for,
)


def test_validation_collects_all_problems():
    cfg = ExperimentConfig(
        experiment="mystery", orders=(3,), dt_grid=(), xi_list=(2.0,), gamma=(-1.0,)
    )
    problems = cfg.validate()
    assert len(problems) >= 5


def test_make_config_rejects_bad_values():
    with pytest.raises(ValueError) as err:
        make_config("trotter_sweep", overrides={"orders": (5,), "t_final": -1.0})
    assert "orders" in str(err.value) and "t_final" in str(err.value)


def test_make_config_kind_defaults():
    cfg = make_config("gamma_sweep")
    assert cfg.gamma == (0.0, 0.5, 1.0, 1.5, 2.0, 2.5)
    assert cfg.orders == (2,)
    cfg = make_config("correlations")
    assert cfg.n_spins == 2 and cfg.omega == 6.0


def test_make_config_file_then_flag_precedence():
    cfg = make_config(
        "noise_sweep",
        file_values={"xi_list": [0.5], "gamma": [0.9]},
        overrides={"gamma": (1.1,)},
    )
    assert cfg.xi_list == (0.5,)
    assert cfg.gamma == (1.1,)


def test_steps_for_rounds_to_nearest():
    # dt grid 0.1..0.5 over t_final=2 gives N = 20, 10, 7, 5, 4
    assert [steps_for(2.0, dt) for dt in (0.1, 0.2, 0.3, 0.4, 0.5)] == [20, 10, 7, 5, 4]


def test_emit_csv_formats_and_rejects_nan(tmp_path):
    path = str(tmp_path / "out.csv")
    emit_csv(path, ("a", "b"), [(1, 0.123456789012345), (2, 1.0 / 3.0)])
    lines = Path(path).read_text().splitlines()
    assert lines[0] == "a,b"
    assert lines[1] == "1,0.123456789012"
    with pytest.raises(ValueError):
        emit_csv(path, ("a",), [(float("nan"),)])


def test_emit_csv_header_only(tmp_path):
    path = str(tmp_path / "empty.csv")
    emit_csv(path, ("x", "y"), [])
    assert Path(path).read_text() == "x,y\n"


def test_trotter_sweep_rows_and_truthful_t_final(tmp_path):
    cfg = make_config(
        "trotter_sweep",
        overrides={
            "orders": (1,),
            "gamma": (1.0,),
            "dt_grid": (0.3, 0.5),
            "out_dir": str(tmp_path),
        },
    )
    csv_path, manifest_path = run(cfg)
    lines = Path(csv_path).read_text().splitlines()
    assert lines[0].split(",")[:4] == ["order", "gamma", "xi", "dt"]
    rows = [line.split(",") for line in lines[1:]]
    # dt=0.3 runs 7 steps to t=2.1, reported truthfully
    assert rows[0][4] == "7" and rows[0][5] == "2.1"
    assert rows[1][4] == "4" and rows[1][5] == "2"
    manifest = json.loads(Path(manifest_path).read_text())
    assert set(manifest) == {"experiment", "config", "package_version", "rate_convention", "outputs"}
    assert manifest["experiment"] == "trotter_sweep"
    assert manifest["package_version"]
    assert manifest["rate_convention"] == "paper-collision"
    assert os.path.basename(manifest["outputs"][0]) == "trotter_sweep.csv"


def test_rerun_is_byte_identical(tmp_path):
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    for out in (out_a, out_b):
        cfg = make_config(
            "noise_sweep",
            overrides={"xi_list": (0.1,), "dt_grid": (0.5,), "out_dir": out, "gamma": (0.7,)},
        )
        run(cfg)
    csv_a, csv_b = (Path(out) / "noise_sweep.csv" for out in (out_a, out_b))
    assert csv_a.read_text() == csv_b.read_text()


def test_infidelity_rows_lie_in_unit_interval(tmp_path):
    cfg = make_config(
        "infidelity_vs_time",
        overrides={
            "orders": (2,),
            "xi_list": (0.1,),
            "dt_grid": (0.5,),
            "out_dir": str(tmp_path),
        },
    )
    csv_path, _ = run(cfg)
    rows = [line.split(",") for line in Path(csv_path).read_text().splitlines()[1:]]
    values = [float(r[-1]) for r in rows]
    assert all(-1e-9 <= v <= 1 + 1e-9 for v in values)
    times = [float(r[-2]) for r in rows]
    assert times[0] == 0.0 and times[-1] == 2.0


def test_observables_exact_and_sampled(tmp_path):
    base = {
        "orders": (2,),
        "xi_list": (0.1,),
        "dt_grid": (1.0,),
        "t_final": 1.0,
        "out_dir": str(tmp_path / "exact"),
    }
    csv_exact, _ = run(make_config("observables", overrides=base))
    rows = [line.split(",") for line in Path(csv_exact).read_text().splitlines()[1:]]
    sources = {r[0] for r in rows}
    assert sources == {"exact", "circuit"}
    exact_t0 = [r for r in rows if r[0] == "exact"][0]
    assert float(exact_t0[4]) == pytest.approx(0.0, abs=1e-9)  # no initial occupation
    assert float(exact_t0[5]) == pytest.approx(1.0, abs=1e-9)  # spin starts excited

    sampled = dict(base)
    sampled.update({"shots": 4096, "seed": 7, "out_dir": str(tmp_path / "shots")})
    csv_shots, _ = run(make_config("observables", overrides=sampled))
    srows = [line.split(",") for line in Path(csv_shots).read_text().splitlines()[1:]]
    circuit_rows = [r for r in srows if r[0] == "circuit"]
    # sampled estimates stay near the exact ones at this shot count
    for exact_row, sampled_row in zip([r for r in rows if r[0] == "circuit"], circuit_rows):
        assert abs(float(exact_row[4]) - float(sampled_row[4])) < 0.15
        assert abs(float(exact_row[5]) - float(sampled_row[5])) < 0.15


def test_shots_rejected_outside_observables():
    with pytest.raises(ValueError):
        make_config("correlations", overrides={"shots": 100})


def test_correlations_rows(tmp_path):
    cfg = make_config(
        "correlations",
        overrides={"orders": (1,), "xi_list": (0.1,), "dt_grid": (0.5,),
                   "t_final": 1.0, "out_dir": str(tmp_path)},
    )
    csv_path, _ = run(cfg)
    rows = [line.split(",") for line in Path(csv_path).read_text().splitlines()[1:]]
    assert {r[0] for r in rows} == {"exact", "circuit"}
    for r in rows:
        assert abs(float(r[4])) <= 1 + 1e-9
        assert abs(float(r[5])) <= 1 + 1e-9


def test_gate_counts_csv_shape(tmp_path):
    cfg = make_config("gate_counts", overrides={"out_dir": str(tmp_path)})
    csv_path, _ = run(cfg)
    lines = Path(csv_path).read_text().splitlines()
    assert lines[0] == "n_spins,d_ho,order,code,single_qubit,cx"
    assert len(lines) == 17  # 2 spins x 2 truncations x 2 orders x 2 codes


def test_worker_pool_matches_serial(tmp_path):
    # workers is deprecated and has no effect: the output stays byte-identical
    overrides = {"orders": (1,), "gamma": (0.0, 1.0), "dt_grid": (0.5,)}
    serial = make_config(
        "trotter_sweep", overrides={**overrides, "out_dir": str(tmp_path / "s")}
    )
    pooled = make_config(
        "trotter_sweep", overrides={**overrides, "out_dir": str(tmp_path / "p"), "workers": 2}
    )
    run(serial)
    run(pooled)
    assert (
        (tmp_path / "s" / "trotter_sweep.csv").read_text()
        == (tmp_path / "p" / "trotter_sweep.csv").read_text()
    )


def test_shot_sampled_observables_pool_matches_serial(tmp_path):
    # the deprecated workers field leaves the sampled output byte-identical;
    # the xi = 0 member of the noise model samples through its identity readout
    overrides = {"orders": (2,), "xi_list": (0.0, 0.1), "dt_grid": (0.5,), "t_final": 1.0,
                 "shots": 500, "seed": 4}
    for workers in (1, 2):
        out = str(tmp_path / f"w{workers}")
        run(make_config("observables", overrides={**overrides, "out_dir": out, "workers": workers}))
    serial = (tmp_path / "w1" / "observables.csv").read_text()
    assert serial == (tmp_path / "w2" / "observables.csv").read_text()
    assert serial.count("\ncircuit,2,0,") == 3  # the xi = 0 rows at t = 0, 0.5, 1


def test_clamp_warning_reaches_caller_under_pool(tmp_path):
    # every run is serial, so noise-model warnings are raised in the caller, workers: 2 too;
    # an sx error below its thermal infidelity clamps the depolarizing probability
    doc = json.loads(resources.files("sbsim").joinpath("data/jakarta-avg.json").read_text())
    for gate in doc["gates"]:
        if gate["kind"] == "sx":
            gate["error"] = 1e-6
    cal_path = tmp_path / "cal.json"
    cal_path.write_text(json.dumps(doc))
    cfg = make_config(
        "noise_sweep",
        overrides={"xi_list": (0.1,), "dt_grid": (0.5,), "workers": 2,
                   "calibration": str(cal_path), "out_dir": str(tmp_path / "out")},
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run(cfg)
    assert any("depolarizing probability clamped" in str(w.message) for w in caught)


def test_cli_runs_and_prints_outputs(tmp_path, capsys):
    code = main(
        [
            "noise_sweep",
            "--xi", "0.1",
            "--dt", "0.5",
            "--order", "1",
            "--out", str(tmp_path),
        ]
    )
    assert code == 0
    printed = capsys.readouterr().out.splitlines()
    assert printed, "CLI should print the output paths"
    assert all(os.path.exists(p) for p in printed)


def test_cli_config_file_with_flag_override(tmp_path, capsys):
    config = {"dt_grid": [0.5], "xi_list": [0.5], "gamma": [0.7]}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    code = main(
        ["noise_sweep", "--config", str(path), "--xi", "0.2", "--out", str(tmp_path / "r")]
    )
    assert code == 0
    manifest = json.loads((tmp_path / "r" / "noise_sweep_manifest.json").read_text())
    assert manifest["config"]["xi_list"] == [0.2]
    assert manifest["config"]["gamma"] == [0.7]


@pytest.mark.parametrize("experiment", ["observables", "correlations"])
def test_cli_gamma_grid_rejected_without_gamma_column(tmp_path, capsys, experiment):
    # neither has a gamma or a dt column, so each takes one value on both axes
    out = tmp_path / "out"
    for flag, values, named in (("--gamma", ["0", "1"], "gamma=(0.0, 1.0)"),
                                ("--dt", ["0.1", "0.2"], "dt_grid=(0.1, 0.2)")):
        assert main([experiment, flag, *values, "--out", str(out)]) == 2
        assert f"{experiment} has no gamma or dt column, so it takes one value of each; got {named}" in (
            capsys.readouterr().err
        )
    assert not out.exists()


# one flag per ExperimentConfig field after experiment, with a value away from the field's default
_FLAGS = {
    "epsilon": (["--epsilon", "0.3"], 0.3),
    "omega": (["--omega", "5"], 5.0),
    "lambda_c": (["--lambda", "0.3"], 0.3),
    "gamma": (["--gamma", "0", "0.5"], [0.0, 0.5]),
    "n_spins": (["--n-spins", "2"], 2),
    "d_ho": (["--d-ho", "8"], 8),
    "code": (["--code", "binary"], "binary"),
    "orders": (["--order", "2", "1"], [2, 1]),
    "dt_grid": (["--dt", "0.1", "0.3"], [0.1, 0.3]),
    "t_final": (["--t-final", "0.4"], 0.4),
    "xi_list": (["--xi", "0.01", "0.03"], [0.01, 0.03]),
    "shots": (["--shots", "100"], 100),
    "seed": (["--seed", "3"], 3),
    "convention": (["--convention", "eq2-literal"], "eq2-literal"),
    "calibration": (["--calibration", "cal.json"], "cal.json"),
    "out_dir": (["--out", "elsewhere"], "elsewhere"),
    "workers": (["--workers", "2"], 2),
}


def test_every_setting_has_one_flag_that_reaches_make_config(monkeypatch):
    settings = [f for f in fields(ExperimentConfig) if f.name != "experiment"]
    assert [f.name for f in settings] == list(_FLAGS)
    dests = [action.dest for action in cli._build_parser()._actions]
    assert all(dests.count(name) == 1 for name in _FLAGS)
    seen = []

    def recorded(experiment, file_values, overrides):
        seen.append(overrides)
        raise ValueError("recorded")

    monkeypatch.setattr(cli, "make_config", recorded)
    for f in settings:
        argv, value = _FLAGS[f.name]
        assert (tuple(value) if isinstance(value, list) else value) != f.default
        assert main(["noise_sweep", *argv]) == 2
        assert {k: v for k, v in seen.pop().items() if v is not None} == {f.name: value}


def test_cli_help_names_every_experiment(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["--help"])
    assert exit_.value.code == 0
    printed = capsys.readouterr().out
    assert all(kind in printed for kind in EXPERIMENT_KINDS)


def test_cli_gamma_list_flag_is_gone(tmp_path, capsys):
    # --gamma takes the whole gamma axis; the old flag is an argparse error, exit 2
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exit_:
        main(["trotter_sweep", "--gamma-list", "0", "1", "--out", str(out)])
    assert exit_.value.code == 2
    assert "unrecognized arguments: --gamma-list" in capsys.readouterr().err
    assert not out.exists()


def test_cli_gamma_writes_rows_at_its_values_only(tmp_path):
    # a sweep's kind default gamma axis is replaced, not kept beside --gamma
    for experiment, gammas in (("trotter_sweep", ["0.5"]), ("gamma_sweep", ["0.7", "0.2"])):
        out = tmp_path / experiment
        assert main([experiment, "--gamma", *gammas, "--t-final", "0.4", "--out", str(out)]) == 0
        header, *rows = (out / f"{experiment}.csv").read_text().splitlines()
        column = header.split(",").index("gamma")
        assert rows and {row.split(",")[column] for row in rows} == set(gammas)


def test_cli_invalid_config_exits_nonzero(tmp_path, capsys):
    code = main(["noise_sweep", "--xi", "7.0", "--out", str(tmp_path)])
    assert code == 2
    assert "xi" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args, message",
    [
        (["--calibration", "{tmp}/missing.json"], "calibration"),
        (["--calibration", "{tmp}/truncated.json"], "calibration"),
        (["--config", "{tmp}/missing.json"], "config"),
        (["--config", "{tmp}/truncated.json"], "config"),
        (["--omega", "nan"], "omega must be finite"),
        (["--dt", "nan"], "dt grid must be non-empty, positive and finite"),
        (["--xi", "nan"], "xi values must lie in [0, 1]"),
        (["--d-ho", "64"], "7-qubit model register exceeds the engine limit 6"),
        (["--config", "{tmp}/list.json"], "config must be a JSON object, got list"),
        (["--config", "{tmp}/bogus.json"], "unknown config key 'bogus'"),
        (["--config", "{tmp}/mistyped.json"], "xi_list must be a list of float, got 'abc'"),
        (["--calibration", "{tmp}/no_sx.json"], "calibration has no sx entry for operands (0,)"),
        (["--calibration", "{tmp}/cx_off_chip.json"], "cx entry on qubits (0, 9), but only 7"),
        (["--calibration", "{tmp}/two_qubits.json", "--shots", "100"],
         "calibration lists 2 qubits; reading out the register needs 3"),
        (["--calibration", "{tmp}/cx_one_operand.json"],
         "cx entry on qubits (0,) has 1 operand(s); cx takes 2"),
        (["--shots", "10", "--seed", "-1"], "seed must be non-negative, got -1"),
        (["--calibration", "{tmp}/time_nan.json"], "cx entry: time_ns must be a finite number, got nan"),
        (["--calibration", "{tmp}/time_inf.json"], "cx entry: time_ns must be a finite number, got inf"),
        (["--calibration", "{tmp}/error_true.json"], "cx entry: error must be a finite number, got True"),
        (["--workers", "0"], "workers must be at least 1"),
        (["gate_counts", "--d-ho", "16", "--order", "1", "--code", "binary", "--n-spins", "3"],
         "it does not use n_spins=3, d_ho=16, code=binary, orders=(1,)"),
        (["gate_counts", "--t-final", "1", "--xi", "0.1", "--convention", "eq2-literal"],
         "it does not use t_final=1.0, xi_list=(0.1,), convention=eq2-literal"),
        (["gate_counts", "--d-ho", "8"], "gate_counts runs a fixed grid"),
        (["gate_counts", "--calibration", "{tmp}/truncated.json"], "it does not use calibration="),
        (["--calibration", "{tmp}/qubits_string.json"], "cx entry: qubits must be a list of integers"),
        (["--calibration", "{tmp}/qubits_bool.json"], "cx entry: qubits must be a list of integers"),
        (["--calibration", "{tmp}/sx_twice.json"], "two sx entries on qubits (2,)"),
        (["--seed", "5"], "seed=5 only seeds shot sampling; it needs --shots"),
        (["gate_counts", "--seed", "5"], "seed=5 only seeds shot sampling; it needs --shots"),
        (["gate_counts", "--gamma", "0.5"], "it does not use gamma=(0.5,)"),
        (["gate_counts", "--convention", "eq2-literal"], "it does not use convention=eq2-literal"),
        (["gate_counts", "--dt", "0.3"], "it does not use dt_grid=(0.3,)"),
        (["gate_counts", "--dt", "0.1", "0.2"], "it does not use dt_grid=(0.1, 0.2)"),
        (["trotter_sweep", "--calibration", "{tmp}/valid.json", "--t-final", "0.4"],
         "valid.json' is not read: every xi is 0 and no shots are sampled"),
        (["--config", "{tmp}/gamma_list.json"], "unknown config key 'gamma_list'"),
        (["--config", "{tmp}/scalar_gamma.json"], "gamma must be a list of float, got 0.5"),
        (["gate_counts", "--epsilon", "0.3"], "it does not use epsilon=0.3"),
        (["gate_counts", "--lambda", "0.3"], "it does not use lambda_c=0.3"),
        (["gate_counts", "--omega", "5"], "it does not use omega=5.0"),
        (["--code", "foo"], "unknown code 'foo'; choose from gray, binary"),
        (["--convention", "foo"], "unknown rate convention 'foo'; choose from paper-collision, eq2-literal"),
        (["--config", "{tmp}/other_experiment.json"], "the config is for experiment 'gate_counts', not 'noise_sweep'"),
        (["trotter_sweep", "--t-final", "1e300", "--dt", "1e-300"],
         "t_final=1e+300 at dt=1e-300 is not a finite number of steps"),
        (["--t-final", "1e12", "--dt", "1"], "t_final=1e+12 at dt=1 takes 1000000000000 steps, whose states need"),
        (["--shots", "9223372036854775808", "--t-final", "0.4"],
         "shots must be at most 2**63 - 1, the most one multinomial draw takes; got 9223372036854775808"),
        (["correlations", "--n-spins", "1"], "correlations need n_spins = 2"),
        (["noise_sweep", "--shots", "10"], "shot sampling is only supported for the observables experiment"),
        (["--shots", "0"], "shots must be at least 1 when given"),
    ],
)
def test_cli_bad_input_exits_2_before_any_output(tmp_path, capsys, args, message):
    (tmp_path / "truncated.json").write_text('{"qubits": [')
    (tmp_path / "list.json").write_text("[1, 2]")
    (tmp_path / "bogus.json").write_text('{"bogus": 1}')
    (tmp_path / "mistyped.json").write_text('{"xi_list": "abc"}')
    (tmp_path / "gamma_list.json").write_text('{"gamma_list": [0.5]}')
    (tmp_path / "scalar_gamma.json").write_text('{"gamma": 0.5}')
    (tmp_path / "other_experiment.json").write_text('{"experiment": "gate_counts", "xi_list": [0.1]}')
    doc = json.loads(resources.files("sbsim").joinpath("data/jakarta-avg.json").read_text())
    (tmp_path / "valid.json").write_text(json.dumps(doc))
    no_sx = {**doc, "gates": [g for g in doc["gates"] if g["kind"] != "sx"]}
    (tmp_path / "no_sx.json").write_text(json.dumps(no_sx))
    off_chip = {**doc, "gates": doc["gates"] + [{**doc["gates"][0], "qubits": [0, 9]}]}
    (tmp_path / "cx_off_chip.json").write_text(json.dumps(off_chip))
    one_operand = {**doc, "gates": doc["gates"] + [{**doc["gates"][0], "qubits": [0]}]}
    (tmp_path / "cx_one_operand.json").write_text(json.dumps(one_operand))
    (tmp_path / "two_qubits.json").write_text(json.dumps({**doc, "qubits": doc["qubits"][:2]}))
    assert doc["gates"][0]["kind"] == "cx"
    for name, field, value in (("time_nan", "time_ns", float("nan")),
                               ("time_inf", "time_ns", float("inf")), ("error_true", "error", True)):
        gates = [{**doc["gates"][0], field: value}, *doc["gates"][1:]]
        (tmp_path / f"{name}.json").write_text(json.dumps({**doc, "gates": gates}))
    for name, value in (("qubits_string", "01"), ("qubits_bool", [True, 0])):
        gates = [{**doc["gates"][0], "qubits": value}, *doc["gates"][1:]]
        (tmp_path / f"{name}.json").write_text(json.dumps({**doc, "gates": gates}))
    sx_twice = [{"kind": "sx", "qubits": [2], "error": error, "time_ns": 35.0} for error in (1e-3, 4e-3)]
    (tmp_path / "sx_twice.json").write_text(json.dumps({**doc, "gates": doc["gates"] + sx_twice}))
    out = tmp_path / "out"
    if args[0] in EXPERIMENT_KINDS:
        experiment, args = args[0], args[1:]
    else:
        experiment = "observables" if "--shots" in args else "noise_sweep"
    argv = [experiment, *[a.format(tmp=tmp_path) for a in args], "--out", str(out)]
    assert main(argv) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_cli_runs_a_manifest_config_block_again_byte_for_byte(tmp_path):
    # the config block names its own experiment, which a config file may repeat
    first, again = tmp_path / "first", tmp_path / "again"
    assert main(["observables", "--shots", "100", "--seed", "3", "--xi", "0.1", "--t-final", "0.4",
                 "--out", str(first)]) == 0
    config = json.loads((first / "observables_manifest.json").read_text())["config"]
    assert config["experiment"] == "observables"
    (tmp_path / "config.json").write_text(json.dumps(config))
    assert main(["observables", "--config", str(tmp_path / "config.json"), "--out", str(again)]) == 0
    assert (again / "observables.csv").read_bytes() == (first / "observables.csv").read_bytes()
    assert json.loads((again / "observables_manifest.json").read_text())["config"] == {**config, "out_dir": str(again)}


@pytest.mark.parametrize("below", ["", "sub"])
def test_cli_out_that_is_no_directory_exits_2_before_any_computation(tmp_path, capsys, monkeypatch, below):
    # an --out naming a file, or a path under one, is bad input, not an os.makedirs traceback
    blocker = tmp_path / "results"
    blocker.write_text("kept")
    monkeypatch.setattr(cli, "run", lambda cfg: pytest.fail("the experiment ran"))
    assert main(["noise_sweep", "--out", str(blocker / below)]) == 2
    assert f"{str(blocker)!r} is not a directory" in capsys.readouterr().err
    assert blocker.read_text() == "kept"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["trotter_sweep", "--epsilon", "1e308"], "epsilon=1e+308, omega=4, lambda=2, gamma=1, dt=0.5"),
        (["noise_sweep", "--gamma", "1e300"], "epsilon=0.5, omega=4, lambda=2, gamma=1e+300, dt=0.2"),
        (["trotter_sweep", "--lambda", "1e308"], "lambda=1e+308"),
    ],
)
def test_cli_model_too_stiff_for_the_oracle_exits_2_before_any_output(tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "more than 10000 Taylor substeps per interval" in err and message in err
    assert not out.exists()


def test_per_operand_calibration_must_cover_every_gate_of_the_run(tmp_path):
    doc = json.loads(resources.files("sbsim").joinpath("data/jakarta-avg.json").read_text())
    sx = next(g for g in doc["gates"] if g["kind"] == "sx")
    others = [g for g in doc["gates"] if g["kind"] != "sx"]
    for n_sx, problem in ((4, None), (3, "calibration has no sx entry for operands (3,)")):
        path = tmp_path / f"sx{n_sx}.json"
        path.write_text(json.dumps({**doc, "gates": others + [{**sx, "qubits": [q]} for q in range(n_sx)]}))
        cfg = ExperimentConfig("noise_sweep", xi_list=(0.1,), calibration=str(path))
        assert cfg.validate() == ([problem] if problem else [])


# the spin sits on circuit qubit 2 at one spin ((2, 0, 1)); two spins put their auxiliaries at the edges
@pytest.mark.parametrize("n_spins, register", [(1, (2, 0, 1)), (2, (1, 2, 3, 4))])
def test_each_model_qubit_is_read_out_through_its_circuit_qubit(tmp_path, monkeypatch, n_spins, register):
    doc = json.loads(resources.files("sbsim").joinpath("data/jakarta-avg.json").read_text())
    graded = [{**q, "p10": 0.01 * (i + 1), "p01": 0.01 * (i + 1)} for i, q in enumerate(doc["qubits"])]
    cal_path = tmp_path / "graded.json"
    cal_path.write_text(json.dumps({**doc, "qubits": graded}))
    flips = []
    sample = sim.sample_counts

    def captured(rho, shots, readout=None, seed=None):
        flips.append([(m[0, 1], m[1, 0]) for m in readout])
        return sample(rho, shots, readout, seed)

    monkeypatch.setattr(sim, "sample_counts", captured)
    argv = ["observables", "--n-spins", str(n_spins), "--shots", "10", "--xi", "1", "--order", "1",
            "--t-final", "0.4", "--calibration", str(cal_path), "--out", str(tmp_path / "out")]
    assert main(argv) == 0
    expected = [(0.01 * (q + 1), 0.01 * (q + 1)) for q in register]
    np.testing.assert_allclose(flips, [expected] * 3, rtol=0, atol=1e-15)  # one per snapshot


def test_two_spins_at_d_ho_8_validate():
    cfg = make_config("correlations", overrides={"d_ho": 8})
    assert cfg.validate() == [] and cfg.d_ho == 8


# trotter_sweep runs every circuit noiseless, so its 4 circuits, one per (order, gamma), each
# stacking its 5 dt values, share one one-member stack; gamma_sweep runs each of its 6 circuits
# under the same (None, xi 0.01) stack.  The counts are of the commutation-aware runs
# (sim._runs) of those circuits' steps and preparations.
@pytest.mark.parametrize(
    "experiment, distinct",
    [("trotter_sweep", 20), ("gamma_sweep", 18)],
    ids=["trotter_sweep", "gamma_sweep"],
)
def test_each_distinct_run_compiles_once_per_noise_model(tmp_path, monkeypatch, experiment, distinct):
    calls = []
    compile_run = sim._compile

    def counted(run, model, aux, embedded):
        calls.append((run, id(model)))
        return compile_run(run, model, aux, embedded)

    monkeypatch.setattr(sim, "_compile", counted)
    run(make_config(experiment, overrides={"out_dir": str(tmp_path)}))
    assert len(calls) == len(set(calls)) == distinct


@pytest.mark.parametrize("experiment", [kind for kind in EXPERIMENT_KINDS if kind != "gate_counts"])
def test_every_circuit_runs_under_the_whole_xi_stack(tmp_path, monkeypatch, experiment):
    # the grid points of each (order, gamma) circuit are its dt values times the run's xi
    # values, so one call per circuit stacks every dt, and one noise model, with a member per
    # xi, and one dict of compiled runs serve every circuit
    cfg = make_config(experiment, overrides={"out_dir": str(tmp_path)})
    circuits: dict[tuple, list[float]] = {}
    for t in experiments._tasks(cfg):
        circuits.setdefault((t["order"], t["gamma"]), []).append((t["dt"], t["xi"]))
    assert all(sorted(points) == sorted(itertools.product(cfg.dt_grid, cfg.xi_list)) for points in circuits.values())
    calls = []
    simulate = sim.simulate

    def recorded(circuit, model=None, rho0=None, repeat=1, compiled=None):
        calls.append((model, compiled))
        assert circuit.points == len(set(cfg.dt_grid)) == len(repeat)
        return simulate(circuit, model, rho0, repeat, compiled)

    monkeypatch.setattr(sim, "simulate", recorded)
    run(cfg)
    assert len(calls) == len(circuits)
    (model,) = {id(model): model for model, _ in calls}.values()
    assert len({id(compiled) for _, compiled in calls}) == 1
    assert (model is None) == (not cfg.uses_calibration)
    if model is not None:
        assert model.xi == cfg.xi_list


def test_no_compiled_dict_holds_a_channel_of_its_own(tmp_path, monkeypatch):
    # every gate reads its calibration entry's one channel stack; none is copied per operand list
    calls = []
    simulate = sim.simulate

    def recorded(circuit, model=None, rho0=None, repeat=1, compiled=None):
        calls.append((circuit, model, compiled))
        return simulate(circuit, model, rho0, repeat, compiled)

    monkeypatch.setattr(sim, "simulate", recorded)
    run(make_config("correlations", overrides={"out_dir": str(tmp_path)}))
    assert not any(g.kind == "id" for circuit, _, _ in calls for g in circuit.gates)  # U = 1 would match
    channels = {stack.tobytes() for _, model, _ in calls for stack in model.channels.values()}
    for compiled in {id(compiled): compiled for _, _, compiled in calls}.values():
        held = [v for value in compiled.values() for v in (value if isinstance(value, tuple) else (value,))]
        arrays = [array for array in held if isinstance(array, np.ndarray)]
        assert arrays and not any(array.tobytes() in channels for array in arrays)


@pytest.mark.parametrize("xi", ["0", "0.1"])
def test_duplicate_xi_values_write_identical_rows(tmp_path, xi):
    # two points of each circuit at one xi read two members, of the built stack or of the noiseless run
    assert main(["noise_sweep", "--xi", xi, xi, "--t-final", "0.4", "--out", str(tmp_path)]) == 0
    header, *rows = (tmp_path / "noise_sweep.csv").read_text().splitlines()
    assert len(rows) == 2 and rows[0] == rows[1]
    assert rows[0].split(",")[header.split(",").index("xi")] == xi


def test_repeated_xi_values_are_simulated_once(tmp_path, monkeypatch):
    # --xi 0.1 0.1 0.01 builds and runs a member per distinct value; both 0.1 rows read one member
    models = []
    simulate = sim.simulate

    def recorded(circuit, model=None, rho0=None, repeat=1, compiled=None):
        models.append(model)
        return simulate(circuit, model, rho0, repeat, compiled)

    monkeypatch.setattr(sim, "simulate", recorded)
    assert main(["noise_sweep", "--xi", "0.1", "0.1", "0.01", "--t-final", "0.4", "--out", str(tmp_path)]) == 0
    assert models and all(model.xi == (0.1, 0.01) for model in models)
    header, *rows = (tmp_path / "noise_sweep.csv").read_text().splitlines()
    xi = header.split(",").index("xi")
    assert [row.split(",")[xi] for row in rows] == ["0.1", "0.1", "0.01"]
    assert rows[0] == rows[1] != rows[2]


@pytest.mark.parametrize("argv", [["gamma_sweep", "--gamma", "0.5", "0.5"], ["noise_sweep", "--dt", "0.2", "0.2"]])
def test_repeated_gamma_or_dt_values_write_each_row_twice(tmp_path, argv):
    # a circuit's repeated points each read the member of their own xi, none past the stack
    assert main([*argv, "--t-final", "0.4", "--out", str(tmp_path)]) == 0
    _, *rows = (tmp_path / f"{argv[0]}.csv").read_text().splitlines()
    assert rows and rows[0::2] == rows[1::2] and len(set(rows)) == len(rows) // 2


@pytest.mark.parametrize(
    "experiment, overrides",
    [("noise_sweep", {"xi_list": (0.01, 0.1)}), ("infidelity_vs_time", {"orders": (1,), "xi_list": (0.3, 0.0)}),
     ("trotter_sweep", {"n_spins": 2, "gamma": (0.0, 1.0)})],
    ids=["noise_sweep", "infidelity_vs_time", "trotter_sweep-2spins"],
)
def test_each_dt_of_a_stacked_grid_simulates_as_that_dt_alone(experiment, overrides):
    # the run stacks its dt values as points of one step per (order, gamma), here unsorted and
    # ragged in step count; each grid point's snapshots are the bits of a run at its dt alone
    def snapshots(dts):
        cfg = make_config(experiment, overrides={**overrides, "dt_grid": dts, "t_final": 0.6})
        model = noise.build_noise_model(cfg.calibration_data, cfg.xi_list) if cfg.uses_calibration else None
        tasks = experiments._tasks(cfg)
        return tasks, experiments._simulated_snapshots(cfg, tasks, model)

    tasks, stacked = snapshots((0.2, 0.3, 0.1))
    for dt in (0.2, 0.3, 0.1):
        alone = iter(snapshots((dt,))[1])
        for task, states in zip(tasks, stacked):
            if task["dt"] == dt:
                assert np.array_equal(states, next(alone))
        assert next(alone, None) is None


@pytest.mark.parametrize("dts", [("0.1", "0.2", "0.3"), ("0.3", "0.1", "0.2")], ids=["sorted", "unsorted"])
def test_each_dt_of_the_ci_grid_writes_the_rows_of_that_dt_alone(tmp_path, dts):
    argv = ["noise_sweep", "--xi", "0.01", "0.1", "--t-final", "0.6"]
    assert main([*argv, "--dt", *dts, "--out", str(tmp_path / "grid")]) == 0
    _, *rows = (tmp_path / "grid" / "noise_sweep.csv").read_text().splitlines()
    for dt in dts:
        assert main([*argv, "--dt", dt, "--out", str(tmp_path / dt)]) == 0
        _, *alone = (tmp_path / dt / "noise_sweep.csv").read_text().splitlines()
        assert alone and [row for row in rows if row.split(",")[3] == dt] == alone  # column 3 is dt


def test_each_dt_of_a_two_spin_grid_scores_its_rows_within_1e_14_of_that_dt_alone(tmp_path):
    # the exact reference runs on the union of the run's dt grids, so a score may move in its
    # last printed digit (0.000355252097216 against ...217 at order 2, gamma 0, dt 0.1); the
    # keys are equal and every score lies within 1e-14 of that dt's own run, not byte for byte
    argv = ["trotter_sweep", "--n-spins", "2", "--gamma", "0", "1", "--t-final", "0.6"]
    assert main([*argv, "--dt", "0.2", "0.3", "0.1", "--out", str(tmp_path / "grid")]) == 0
    header, *rows = (tmp_path / "grid" / "trotter_sweep.csv").read_text().splitlines()
    names = header.split(",")
    scores = [i for i, name in enumerate(names) if name.endswith("infidelity")]
    keys = [i for i in range(len(names)) if i not in scores]
    dt = names.index("dt")
    for value in ("0.2", "0.3", "0.1"):
        assert main([*argv, "--dt", value, "--out", str(tmp_path / value)]) == 0
        _, *alone = (tmp_path / value / "trotter_sweep.csv").read_text().splitlines()
        stacked = [row.split(",") for row in rows if row.split(",")[dt] == value]
        assert alone and len(stacked) == len(alone)
        for grid_row, alone_row in zip(stacked, (row.split(",") for row in alone)):
            assert [grid_row[i] for i in keys] == [alone_row[i] for i in keys]
            assert all(abs(float(grid_row[i]) - float(alone_row[i])) <= 1e-14 for i in scores)


# a sweep scores each t > 0 snapshot once, in one stacked call per grid point: trotter_sweep runs
# 4 (order, gamma) curves of 20 + 10 + 7 + 5 + 4 steps (20 points), the xi grid 2 orders x 5 xi
# of 10 steps (10 points)
@pytest.mark.parametrize(
    "argv, snapshots",
    [(["trotter_sweep"], 184),
     (["noise_sweep", "--order", "1", "2", "--xi", "0.01", "0.03", "0.1", "0.3", "1"], 100)],
)
def test_each_simulated_snapshot_is_scored_once(tmp_path, monkeypatch, argv, snapshots):
    scored = []
    infidelity = metrics.infidelity

    def counted(*args):
        scored.append(args[0])
        return infidelity(*args)

    monkeypatch.setattr(metrics, "infidelity", counted)
    assert main([*argv, "--out", str(tmp_path)]) == 0
    _, *rows = (tmp_path / f"{argv[0]}.csv").read_text().splitlines()
    assert len(scored) == len(rows) == {"trotter_sweep": 20, "noise_sweep": 10}[argv[0]]
    states = [rho.tobytes() for stack in scored for rho in stack]
    assert len(states) == len(set(states)) == snapshots


# validate's memory bound counts every state array and row a run holds at once: on grids where those
# dominate, the traced peak of run stays under the bound and above half of it
@pytest.mark.parametrize("experiment, t_final", [("trotter_sweep", 40.0), ("noise_sweep", 100.0),
                                                 ("gamma_sweep", 20.0), ("infidelity_vs_time", 100.0)])
def test_memory_bound_holds_the_traced_peak_of_run(tmp_path, experiment, t_final):
    # infidelity_vs_time holds one row per snapshot: at 10 xi, 10 020 rows, about a tenth of its peak
    xi = {"infidelity_vs_time": {"xi_list": tuple(k / 100 for k in range(1, 11))}}.get(experiment, {})
    cfg = make_config(experiment, overrides={"t_final": t_final, "out_dir": str(tmp_path), **xi})
    bound = sum(cfg._state_bytes(cfg.model_params(0.0).register_width).values())
    tracemalloc.start()
    try:
        run(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound <= 2 * peak


@pytest.mark.parametrize("experiment", EXPERIMENT_KINDS)
def test_worker_pool_output_is_byte_identical_to_serial(tmp_path, experiment):
    # the deprecated workers field has no effect on any experiment
    texts = []
    for workers in (1, 2):
        out = tmp_path / f"w{workers}"
        run(make_config(experiment, overrides={**TINY_CONFIGS[experiment], "out_dir": str(out),
                                               "workers": workers}))
        texts.append((out / f"{experiment}.csv").read_text())
    assert texts[0] == texts[1]


def test_calibration_file_is_parsed_once_per_cli_run(tmp_path, monkeypatch):
    doc = json.loads(resources.files("sbsim").joinpath("data/jakarta-avg.json").read_text())
    cal_path = tmp_path / "cal.json"
    cal_path.write_text(json.dumps(doc))
    paths = []
    load = noise.load_calibration

    def counted(path):
        paths.append(path)
        return load(path)

    monkeypatch.setattr(noise, "load_calibration", counted)
    out = tmp_path / "out"
    assert main(["noise_sweep", "--calibration", str(cal_path), "--out", str(out)]) == 0
    assert paths == [str(cal_path)]
    manifest = json.loads((out / "noise_sweep_manifest.json").read_text())
    assert "calibration_data" not in manifest["config"]
    assert manifest["config"]["calibration"] == str(cal_path)


def test_config_is_validated_once_per_cli_run(tmp_path, monkeypatch):
    calls = []
    gaps = ExperimentConfig._calibration_gaps

    def counted(cfg, cal):
        calls.append(cfg.experiment)
        return gaps(cfg, cal)

    monkeypatch.setattr(ExperimentConfig, "_calibration_gaps", counted)
    assert main(["noise_sweep", "--out", str(tmp_path / "cli")]) == 0
    assert calls == ["noise_sweep"]
    # a hand-built config is validated by run, once
    run(ExperimentConfig("noise_sweep", xi_list=(0.1,), out_dir=str(tmp_path / "hand")))
    assert calls == ["noise_sweep"] * 2


def test_sampled_unused_code_word_reads_as_zero_occupation(tmp_path, monkeypatch):
    # at d_ho = 3 the word level 3 would take encodes no level; the number operator reads 0 on it
    cfg = make_config(
        "observables",
        overrides={"d_ho": 3, "shots": 10, "xi_list": (0.1,), "orders": (1,), "dt_grid": (0.5,),
                   "t_final": 0.5, "out_dir": str(tmp_path)},
    )
    params = cfg.model_params(*cfg.gamma)
    bits = [0] * params.register_width  # spin in |0>, the ground state
    for q, b in zip(params.boson_positions, code_bits(3, cfg.code, 2)):
        bits[q] = b
    quasi = np.zeros(2**params.register_width)
    quasi[int("".join(map(str, bits)), 2)] = 1.0
    monkeypatch.setattr(sim, "mitigate_readout", lambda counts, confusions: quasi)
    csv_path, _ = run(cfg)
    rows = [line.split(",") for line in Path(csv_path).read_text().splitlines()[1:]]
    circuit = [r for r in rows if r[0] == "circuit"]
    assert len(circuit) == 2
    assert all((float(r[4]), float(r[5])) == (0.0, -1.0) for r in circuit)


def test_calibration_check_and_run_share_the_native_circuits(tmp_path, monkeypatch):
    calls = []
    assemble = experiments.assemble_evolution

    def counted(*args):
        calls.append(args[3:5])  # (dt values, order)
        return assemble(*args)

    monkeypatch.setattr(experiments, "assemble_evolution", counted)
    argv = ["noise_sweep", "--order", "1", "2", "--xi", "0.01", "0.03", "0.1", "0.3", "1"]
    assert main([*argv, "--out", str(tmp_path)]) == 0
    assert calls == [((0.2,), 1), ((0.2,), 2)]


def _fresh_python(code: str) -> str:
    """Standard output of ``code`` run in a fresh interpreter that imports sbsim from this source tree."""
    src = str(Path(experiments.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True).stdout


def test_import_loads_no_process_pool_machinery():
    code = (
        "import sys, sbsim.cli; "
        "print(sorted(m for m in sys.modules if m.startswith(('multiprocessing', 'concurrent'))))"
    )
    assert _fresh_python(code).strip() == "[]"


def test_a_run_loads_no_openssl(tmp_path):
    # hashlib loads OpenSSL's libcrypto; a run without shots hashes nothing, so it loads hashlib only if numpy does
    listed = "; import sys; print(sorted(sys.modules))"
    numpy = _fresh_python("import numpy" + listed)
    run = _fresh_python(f"import sbsim.cli; assert sbsim.cli.main(['noise_sweep', '--t-final', '0.4', "
                        f"'--out', {str(tmp_path)!r}]) == 0" + listed)
    added = set(ast.literal_eval(run.splitlines()[-1])) - set(ast.literal_eval(numpy))
    assert not added & {"hashlib", "_hashlib"}


def test_workers_2_starts_no_process(tmp_path, monkeypatch, capsys):
    def no_fork():
        raise AssertionError("a run must not start a process")

    monkeypatch.setattr(os, "fork", no_fork)
    argv = ["noise_sweep", "--order", "1", "2", "--workers", "2", "--out", str(tmp_path)]
    assert main(argv) == 0
    assert capsys.readouterr().err.count("deprecated and has no effect") == 1

