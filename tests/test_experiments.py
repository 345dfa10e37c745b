"""Experiment harness: config validation, determinism, CSV/manifest output."""

import json
import os
import warnings
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from test_golden import TINY_CONFIGS

from sbsim import experiments, noise, sim
from sbsim.cli import main
from sbsim.encoding import BitCode
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
        experiment="mystery", orders=(3,), dt_grid=(), xi_list=(2.0,), gamma=-1.0
    )
    problems = cfg.validate()
    assert len(problems) >= 5


def test_make_config_rejects_bad_values():
    with pytest.raises(ValueError) as err:
        make_config("trotter_sweep", overrides={"orders": (5,), "t_final": -1.0})
    assert "orders" in str(err.value) and "t_final" in str(err.value)


def test_make_config_kind_defaults():
    cfg = make_config("gamma_sweep")
    assert cfg.gamma_list == (0.0, 0.5, 1.0, 1.5, 2.0, 2.5)
    assert cfg.orders == (2,)
    cfg = make_config("correlations")
    assert cfg.n_spins == 2 and cfg.omega == 6.0


def test_make_config_file_then_flag_precedence():
    cfg = make_config(
        "noise_sweep",
        file_values={"xi_list": [0.5], "seed": 9},
        overrides={"seed": 11},
    )
    assert cfg.xi_list == (0.5,)
    assert cfg.seed == 11


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
            "gamma_list": (1.0,),
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
    assert manifest["experiment"] == "trotter_sweep"
    assert manifest["package_version"]
    assert manifest["rate_convention"] == "paper-collision"
    assert os.path.basename(manifest["outputs"][0]) == "trotter_sweep.csv"


def test_rerun_is_byte_identical(tmp_path):
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    for out in (out_a, out_b):
        cfg = make_config(
            "noise_sweep",
            overrides={"xi_list": (0.1,), "dt_grid": (0.5,), "out_dir": out, "seed": 3},
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
    overrides = {"orders": (1,), "gamma_list": (0.0, 1.0), "dt_grid": (0.5,)}
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
    # xi = 0 simulates without noise but still samples through the readout model
    overrides = {"orders": (2,), "xi_list": (0.0, 0.1), "dt_grid": (0.5,), "t_final": 1.0,
                 "shots": 500, "seed": 4}
    for workers in (1, 2):
        out = str(tmp_path / f"w{workers}")
        run(make_config("observables", overrides={**overrides, "out_dir": out, "workers": workers}))
    serial = (tmp_path / "w1" / "observables.csv").read_text()
    assert serial == (tmp_path / "w2" / "observables.csv").read_text()
    assert serial.count("\ncircuit,2,0,") == 3  # the xi = 0 rows at t = 0, 0.5, 1


def test_clamp_warning_reaches_caller_under_pool(tmp_path):
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
    config = {"dt_grid": [0.5], "xi_list": [0.5], "seed": 1}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    code = main(
        ["noise_sweep", "--config", str(path), "--xi", "0.2", "--out", str(tmp_path / "r")]
    )
    assert code == 0
    manifest = json.loads((tmp_path / "r" / "noise_sweep_manifest.json").read_text())
    assert manifest["config"]["xi_list"] == [0.2]
    assert manifest["config"]["seed"] == 1


@pytest.mark.parametrize("experiment", ["observables", "correlations"])
def test_cli_gamma_list_rejected_without_gamma_column(tmp_path, capsys, experiment):
    out = tmp_path / "out"
    assert main([experiment, "--gamma-list", "0", "5", "--out", str(out)]) == 2
    assert "gamma_list" in capsys.readouterr().err
    assert not out.exists()


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
        (["--n-spins", "2", "--d-ho", "16"], "6-qubit model register exceeds the exact oracle limit 5"),
        (["--config", "{tmp}/list.json"], "config must be a JSON object, got list"),
        (["--config", "{tmp}/bogus.json"], "unknown config key 'bogus'"),
        (["--config", "{tmp}/mistyped.json"], "xi_list must be a list of float, got 'abc'"),
        (["--calibration", "{tmp}/no_sx.json"], "calibration has no sx entry for operands (0,)"),
        (["--calibration", "{tmp}/cx_off_chip.json"], "cx entry on qubits (0, 9), but only 7"),
        (["--calibration", "{tmp}/two_qubits.json", "--shots", "100"],
         "calibration lists 2 qubits; reading out the register needs 3"),
        (["--calibration", "{tmp}/cx_one_operand.json"],
         "cx entry on qubits (0,) has 1 operand(s); cx takes 2"),
    ],
)
def test_cli_bad_input_exits_2_before_any_output(tmp_path, capsys, args, message):
    (tmp_path / "truncated.json").write_text('{"qubits": [')
    (tmp_path / "list.json").write_text("[1, 2]")
    (tmp_path / "bogus.json").write_text('{"bogus": 1}')
    (tmp_path / "mistyped.json").write_text('{"xi_list": "abc"}')
    doc = json.loads(resources.files("sbsim").joinpath("data/jakarta-avg.json").read_text())
    no_sx = {**doc, "gates": [g for g in doc["gates"] if g["kind"] != "sx"]}
    (tmp_path / "no_sx.json").write_text(json.dumps(no_sx))
    off_chip = {**doc, "gates": doc["gates"] + [{**doc["gates"][0], "qubits": [0, 9]}]}
    (tmp_path / "cx_off_chip.json").write_text(json.dumps(off_chip))
    one_operand = {**doc, "gates": doc["gates"] + [{**doc["gates"][0], "qubits": [0]}]}
    (tmp_path / "cx_one_operand.json").write_text(json.dumps(one_operand))
    (tmp_path / "two_qubits.json").write_text(json.dumps({**doc, "qubits": doc["qubits"][:2]}))
    out = tmp_path / "out"
    experiment = "observables" if "--shots" in args else "noise_sweep"
    argv = [experiment, *[a.format(tmp=tmp_path) for a in args], "--out", str(out)]
    assert main(argv) == 2
    assert message in capsys.readouterr().err
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


def test_two_spins_at_d_ho_8_validate():
    cfg = make_config("correlations", overrides={"d_ho": 8})
    assert cfg.validate() == [] and cfg.d_ho == 8


@pytest.mark.parametrize("experiment, distinct", [("trotter_sweep", 76), ("gamma_sweep", 40)])
def test_each_distinct_run_compiles_once_per_noise_model(tmp_path, monkeypatch, experiment, distinct):
    calls = []
    compile_run = sim._compile

    def counted(run, model, aux, embedded):
        calls.append((run, id(model)))
        return compile_run(run, model, aux, embedded)

    monkeypatch.setattr(sim, "_compile", counted)
    run(make_config(experiment, overrides={"out_dir": str(tmp_path)}))
    assert len(calls) == len(set(calls)) == distinct


@pytest.mark.parametrize("experiment", EXPERIMENT_KINDS)
def test_worker_pool_output_is_byte_identical_to_serial(tmp_path, experiment):
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


def test_sampled_unused_code_word_reads_as_zero_occupation(tmp_path, monkeypatch):
    # at d_ho = 3 the word level 3 would take encodes no level; the number operator reads 0 on it
    cfg = make_config(
        "observables",
        overrides={"d_ho": 3, "shots": 10, "xi_list": (0.1,), "orders": (1,), "dt_grid": (0.5,),
                   "t_final": 0.5, "out_dir": str(tmp_path)},
    )
    params = cfg.model_params()
    bits = [0] * params.register_width  # spin in |0>, the ground state
    for q, b in zip(params.boson_positions, BitCode(cfg.code, 2).bits(3)):
        bits[q] = b
    quasi = np.zeros(2**params.register_width)
    quasi[int("".join(map(str, bits)), 2)] = 1.0
    monkeypatch.setattr(sim, "mitigate_readout", lambda counts, confusions: quasi)
    csv_path, _ = run(cfg)
    rows = [line.split(",") for line in Path(csv_path).read_text().splitlines()[1:]]
    circuit = [r for r in rows if r[0] == "circuit"]
    assert len(circuit) == 2
    assert all((float(r[4]), float(r[5])) == (0.0, -1.0) for r in circuit)


def test_pool_starts_no_more_workers_than_points(tmp_path, monkeypatch):
    started = []

    class RecordingPool:
        """Runs tasks in this process; records the pool size it was asked for."""

        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", RecordingPool)
    run(make_config("noise_sweep", overrides={"workers": 500, "out_dir": str(tmp_path)}))
    assert started == [3]  # noise_sweep defaults: 3 points
