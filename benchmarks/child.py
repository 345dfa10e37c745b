"""One fresh-process sample of an sbsim experiment.

    python3 benchmarks/child.py RECORD MODE -- CLI_ARGV...

Runs ``sbsim.cli.main(CLI_ARGV)`` from this checkout's ``src`` and writes a
JSON record to RECORD when the process ends. MODE is one of

* ``time``  -- record when ``experiments.run`` is entered and left, and the
  peak resident set of this process and of its waited-for children;
* ``probe`` -- stop as soon as ``experiments.run`` is entered (set-up only);
* ``trace`` -- as ``time``, and also record a span around every call of
  each layer's entry points, kept in memory and written with the record;
* ``env``   -- import the package and record the interpreter, numpy and BLAS.

All times are CLOCK_MONOTONIC readings, so the parent can subtract its own
launch time from them.
"""

from __future__ import annotations

import os
import sys
import time


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# Gate kinds that mark positions in a circuit; every other gate is work.
MARKERS = ("barrier", "measure", "reset")

# (span name, module, attribute). Each wrapper replaces the function in every
# sbsim module namespace that holds it, so names that sbsim.experiments
# imports directly (assemble_evolution, evolve_exact) are traced too.
TARGETS = (
    ("experiments.run", "sbsim.experiments", "run"),
    ("experiments.emit_csv", "sbsim.experiments", "emit_csv"),
    ("circuits.assemble", "sbsim.circuits", "assemble_evolution"),
    ("transpile.decompose", "sbsim.transpile", "decompose_native"),
    ("noise.build", "sbsim.noise", "build_noise_model"),
    ("sim.simulate", "sbsim.sim", "simulate"),
    ("oracle.evolve", "sbsim.oracle", "evolve_exact"),
    ("metrics.infidelity", "sbsim.metrics", "infidelity"),
    ("metrics.time_averaged_infidelity", "sbsim.metrics", "time_averaged_infidelity"),
    ("metrics.connected_correlation", "sbsim.metrics", "connected_correlation"),
    ("metrics.expectation", "sbsim.metrics", "expectation"),
)


def _digest(*parts) -> str:
    import hashlib

    return hashlib.sha1(repr(parts).encode()).hexdigest()[:16]


def _oracle_key(args: dict) -> dict:
    grid = tuple(float(t) for t in args["t_grid"])
    return {"key": _digest(args["params"], grid, args["convention"], args["code_kind"])}


def _noise_key(args: dict) -> dict:
    return {"key": _digest(args["cal"], args["xi"])}


def _sim_work(args: dict) -> dict:
    circuit = args["circuit"]
    gates = sum(1 for g in circuit.gates if g.kind not in MARKERS)
    return {"gates": gates, "width": circuit.width}


# Extra span fields, computed from the call's bound arguments before it starts.
DETAILS = {
    "oracle.evolve": _oracle_key,
    "noise.build": _noise_key,
    "sim.simulate": _sim_work,
}


class Tracer:
    """Spans (name, parent index, start, end, details) of the traced calls."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        import functools
        import inspect

        detail = DETAILS.get(name)
        signature = inspect.signature(fn) if detail else None
        spans, open_spans = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "parent": open_spans[-1] if open_spans else None}
            if detail:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.update(detail(bound.arguments))
            open_spans.append(len(spans))
            spans.append(span)
            span["start"] = now()
            try:
                return fn(*args, **kwargs)
            finally:
                span["end"] = now()
                open_spans.pop()

        return traced

    def install(self) -> None:
        import importlib

        for name, module_name, attr in TARGETS:
            original = getattr(importlib.import_module(module_name), attr)
            wrapper = self.wrap(name, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "sbsim" or mod_name.startswith("sbsim."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)


def _environment() -> dict:
    import ctypes
    import glob
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = None
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                threads = int(getattr(lib, symbol)())
                break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads_effective": threads,
    }


def main() -> int:
    if len(sys.argv) < 4 or sys.argv[3] != "--" or sys.argv[2] not in ("time", "probe", "trace", "env"):
        print("usage: child.py RECORD {time,probe,trace,env} -- CLI_ARGV...", file=sys.stderr)
        return 2
    record_path, mode, argv = sys.argv[1], sys.argv[2], sys.argv[4:]
    sys.path.insert(0, SRC)
    import sbsim.cli as cli

    package = os.path.dirname(os.path.abspath(sys.modules["sbsim"].__file__))
    if package != os.path.join(SRC, "sbsim"):
        print(f"sbsim was imported from {package}, not from {SRC}", file=sys.stderr)
        return 2

    record: dict = {"mode": mode}
    if mode == "env":
        record.update(_environment())
    else:
        tracer = None
        if mode == "trace":
            tracer = Tracer()
            tracer.install()
        inner_run = cli.run

        def timed_run(cfg):
            record["run_enter"] = now()
            if mode == "probe":
                raise SystemExit(0)
            paths = inner_run(cfg)
            record["run_exit"] = now()
            return paths

        cli.run = timed_run
        try:
            record["exit_code"] = cli.main(argv)
        except SystemExit as exc:
            record["exit_code"] = exc.code or 0
        import resource

        peak_kb = max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        )
        record["peak_rss_mb"] = peak_kb / 1024.0
        if tracer is not None:
            record["spans"] = tracer.spans

    import json

    with open(record_path, "w") as fh:
        json.dump(record, fh)
    return int(record.get("exit_code", 0))


if __name__ == "__main__":
    sys.exit(main())
