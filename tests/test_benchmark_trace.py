"""The benchmark's trace mode, run as the benchmark runs it: a fresh process on this checkout's src."""

import json
import os
import subprocess
import sys
from pathlib import Path

CHILD = Path(__file__).resolve().parents[1] / "benchmarks" / "child.py"


def test_trace_mode_records_a_span_for_each_layer(tmp_path):
    # the tracer binds each call's arguments by name, so a renamed or dropped parameter shows here
    record = tmp_path / "record.json"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    argv = [sys.executable, str(CHILD), str(record), "trace", "--",
            "noise_sweep", "--t-final", "0.4", "--out", str(tmp_path / "out")]
    done = subprocess.run(argv, env=env, cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    spans = json.loads(record.read_text())["spans"]
    names = {span["name"] for span in spans}
    assert {"oracle.evolve", "noise.build", "sim.simulate"} <= names
    assert all(span.get("key") for span in spans if span["name"] == "oracle.evolve")
