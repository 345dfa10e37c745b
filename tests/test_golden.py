"""Golden CSVs: a tiny config of each experiment, checked cell by cell at 1e-10.

The goldens in ``tests/golden/`` pin the numbers, so an engine, oracle or
harness change that drifts any CSV value shows here.  Every run is serial;
each experiment is checked as configured and with the deprecated
``workers`` = 2, which has no effect, against the same golden.
Correlations is also checked at ``d_ho`` = 8 (5 state qubits) and, at its
default config with ``t_final`` = 0.4, at ``d_ho`` = 16 (6 state qubits,
the engine's widest register), and observables with 500 sampled shots at
seed 4, which pins the shot seeds and the readout mitigation.  Regenerate
them only on purpose, with ``PYTHONPATH=src python tests/test_golden.py``.
"""

import os
import shutil
import sys
import tempfile

import pytest

from sbsim.experiments import EXPERIMENT_KINDS, make_config, run

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
TOL = 1e-10
D_HO_8_GOLDEN = "correlations_d_ho_8.csv"
D_HO_16_GOLDEN = "correlations_d_ho_16.csv"
D_HO_16 = {"d_ho": 16, "t_final": 0.4}  # sbsim correlations --d-ho 16 --t-final 0.4
SHOTS_GOLDEN = "observables_shots.csv"
SHOTS = {"shots": 500, "seed": 4}

_SHORT = {"dt_grid": (0.5,), "t_final": 1.0}
TINY_CONFIGS = {
    "trotter_sweep": {**_SHORT, "gamma": (0.0, 1.0), "xi_list": (0.0, 0.1)},
    "noise_sweep": {**_SHORT, "xi_list": (0.01, 1.0)},
    "infidelity_vs_time": {**_SHORT, "orders": (1,), "xi_list": (0.1,)},
    "gamma_sweep": {**_SHORT, "xi_list": (0.0, 0.1), "gamma": (0.0, 1.0)},
    "observables": {**_SHORT, "orders": (2,), "xi_list": (0.1, 1.0)},
    "correlations": {**_SHORT, "orders": (1,), "xi_list": (0.1,)},
    "gate_counts": {},
}


def _run_tiny(experiment: str, out_dir: str, workers: int = 1, **extra) -> str:
    overrides = {**TINY_CONFIGS[experiment], "out_dir": out_dir, "workers": workers, **extra}
    return run(make_config(experiment, overrides=overrides))[0]


def _run_d_ho_16(out_dir: str) -> str:
    return run(make_config("correlations", overrides={**D_HO_16, "out_dir": out_dir}))[0]


def _cells(path: str) -> list[list[str]]:
    with open(path) as fh:
        return [line.split(",") for line in fh.read().splitlines()]


def _assert_matches(path: str, golden: str) -> None:
    got = _cells(path)
    want = _cells(os.path.join(GOLDEN_DIR, golden))
    assert got[0] == want[0]
    assert len(got) == len(want)
    for row_got, row_want in zip(got[1:], want[1:]):
        assert len(row_got) == len(row_want)
        for a, b in zip(row_got, row_want):
            try:
                assert abs(float(a) - float(b)) <= TOL, (row_got, row_want)
            except ValueError:
                assert a == b


def test_every_experiment_has_a_tiny_config():
    assert set(TINY_CONFIGS) == set(EXPERIMENT_KINDS)


@pytest.mark.parametrize(
    "experiment, workers",
    [
        pytest.param(kind, workers, id=kind if workers == 1 else f"{kind}-workers{workers}")
        for workers in (1, 2)
        for kind in EXPERIMENT_KINDS
    ],
)
def test_csv_matches_golden(experiment, workers, tmp_path):
    _assert_matches(_run_tiny(experiment, str(tmp_path), workers), f"{experiment}.csv")


def test_correlations_at_d_ho_8_match_golden(tmp_path):
    # two spins on a 5-qubit model register
    _assert_matches(_run_tiny("correlations", str(tmp_path), d_ho=8), D_HO_8_GOLDEN)


def test_correlations_at_d_ho_16_match_golden(tmp_path):
    # two spins on a 6-qubit model register, the engine's widest
    _assert_matches(_run_d_ho_16(str(tmp_path)), D_HO_16_GOLDEN)


def test_shot_sampled_observables_match_golden(tmp_path):
    _assert_matches(_run_tiny("observables", str(tmp_path), **SHOTS), SHOTS_GOLDEN)


if __name__ == "__main__":
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory() as out_dir:
        for kind in EXPERIMENT_KINDS:
            shutil.copy(_run_tiny(kind, out_dir), GOLDEN_DIR)
            print(f"wrote {kind}.csv", file=sys.stderr)
        shutil.copy(_run_tiny("correlations", out_dir, d_ho=8), os.path.join(GOLDEN_DIR, D_HO_8_GOLDEN))
        print(f"wrote {D_HO_8_GOLDEN}", file=sys.stderr)
        shutil.copy(_run_d_ho_16(out_dir), os.path.join(GOLDEN_DIR, D_HO_16_GOLDEN))
        print(f"wrote {D_HO_16_GOLDEN}", file=sys.stderr)
        shutil.copy(_run_tiny("observables", out_dir, **SHOTS), os.path.join(GOLDEN_DIR, SHOTS_GOLDEN))
        print(f"wrote {SHOTS_GOLDEN}", file=sys.stderr)
