"""sbsim benchmark: end-to-end and per-layer timings of four experiment workloads.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace {0,1}

Run from the root of a source checkout. Each sample starts a fresh Python
process (benchmarks/child.py) that drives ``sbsim.cli.main`` with the
workload's argv from benchmarks/workloads.json, so module caches start cold,
as they do for every command-line user. Every CSV written is checked
against the workload's golden at 1e-10 absolute per numeric cell, and all
CSVs of one grid within a run must be byte-identical.

``--trace 0`` alternates timed runs and set-up probes for S seconds and
reports the end-to-end metrics (setup_s, run_s, peak_rss_mb) as medians.
``--trace 1`` cycles an untraced run, a traced run and a run of the same
grid with the worker count toggled, and reports the per-layer metrics.
``--workload all`` runs every workload in both modes.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it give the environment
and each metric with its sample count.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
WORK = os.path.join(ROOT, ".bench_work")
GOLDEN_TOL = 1e-10
CHILD_TIMEOUT_S = 150.0
MIN_TIMED_SAMPLES = 3


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class BenchmarkError(Exception):
    """The benchmark cannot run here (missing sources, unknown workload)."""


def load_spec() -> tuple[dict, dict]:
    """The metric definitions (BENCHMARK.json) and the workloads (workloads.json)."""
    if not os.path.isfile(os.path.join(ROOT, "src", "sbsim", "__init__.py")):
        raise BenchmarkError(f"no sbsim sources under {os.path.join(ROOT, 'src')}")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    with open(os.path.join(HERE, "workloads.json")) as fh:
        return bench, json.load(fh)


def child_env(spec: dict) -> dict:
    # One BLAS/OpenMP thread per process; workloads.json gives the reason
    # (blas_threads_reason): the pool path oversubscribes the cores otherwise.
    env = dict(os.environ)
    threads = str(spec["blas_threads"])
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = threads
    env.pop("PYTHONPATH", None)
    return env


def toggle_workers(argv: list[str]) -> list[str]:
    """The same grid with the worker count switched between 1 and 2."""
    if "--workers" in argv:
        i = argv.index("--workers")
        return argv[:i] + argv[i + 2:]
    return argv + ["--workers", "2"]


def is_pooled(argv: list[str]) -> bool:
    return "--workers" in argv and int(argv[argv.index("--workers") + 1]) > 1


# ---------------------------------------------------------------------------
# output checks


def golden_mismatch(text: str, golden: str) -> str | None:
    """First difference beyond GOLDEN_TOL between two CSV texts, or None."""
    got, want = text.splitlines(), golden.splitlines()
    if len(got) != len(want):
        return f"{len(got)} lines, golden has {len(want)}"
    if got[:1] != want[:1]:
        return f"header {got[:1]} differs from golden {want[:1]}"
    for line_no, (a_line, b_line) in enumerate(zip(got, want), start=1):
        a_cells, b_cells = a_line.split(","), b_line.split(",")
        if len(a_cells) != len(b_cells):
            return f"line {line_no}: {len(a_cells)} cells, golden has {len(b_cells)}"
        for a, b in zip(a_cells, b_cells):
            try:
                fa, fb = float(a), float(b)
            except ValueError:
                if a != b:
                    return f"line {line_no}: {a!r} != golden {b!r}"
                continue
            if not abs(fa - fb) <= GOLDEN_TOL:
                return f"line {line_no}: {a} differs from golden {b} by more than {GOLDEN_TOL}"
    return None


class OutputCheck:
    """Golden comparison plus byte identity of every CSV of one grid in a run."""

    def __init__(self, golden_path: str) -> None:
        with open(golden_path) as fh:
            self.golden = fh.read()
        self.first: bytes | None = None

    def problem(self, csv_path: str) -> str | None:
        try:
            with open(csv_path, "rb") as fh:
                data = fh.read()
        except OSError as exc:
            return f"no CSV: {exc}"
        mismatch = golden_mismatch(data.decode(), self.golden)
        if mismatch:
            return mismatch
        if self.first is None:
            self.first = data
        elif data != self.first:
            return "CSV bytes differ from the first CSV of this grid in this run"
        return None


# ---------------------------------------------------------------------------
# samples


class Runner:
    """Launches child processes, checks their outputs and keeps their records."""

    def __init__(self, spec: dict, workload: str, work_dir: str) -> None:
        self.env = child_env(spec)
        self.work_dir = work_dir
        self.check = OutputCheck(os.path.join(HERE, spec["workloads"][workload]["golden"]))
        self.attempted = 0
        self.failures: list[str] = []
        self._count = 0

    def launch(self, mode: str, argv: list[str]) -> dict | None:
        """One child process; returns its record, or None if it recorded no timings."""
        self._count += 1
        tag = f"{self._count:04d}-{mode}"
        record_path = os.path.join(self.work_dir, tag + ".json")
        out_dir = os.path.join(self.work_dir, tag)
        cli_argv = list(argv) + (["--out", out_dir] if mode != "env" else [])
        cmd = [sys.executable, CHILD, record_path, mode, "--", *cli_argv]
        produces_csv = mode in ("time", "trace")
        self.attempted += produces_csv
        launched = now()
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, start_new_session=True,
        )
        try:
            _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            err = f"timed out after {CHILD_TIMEOUT_S} s".encode()
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
        try:
            problem, record = self._read(proc.returncode, err, record_path, out_dir, argv, mode)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
            if os.path.exists(record_path):
                os.remove(record_path)
        if problem:
            self.failures.append(f"{mode} {' '.join(argv)}: {problem}")
            print(f"sample failed: {self.failures[-1]}", file=sys.stderr)
        if record is not None:
            record["launched"] = launched
        return record

    def _read(self, code, err, record_path, out_dir, argv, mode):
        if code != 0:
            tail = err.decode(errors="replace").strip().splitlines()[-3:]
            return f"exit code {code}: {' | '.join(tail)}", None
        try:
            with open(record_path) as fh:
                record = json.load(fh)
        except (OSError, ValueError) as exc:
            return f"no record: {exc}", None
        if mode in ("time", "trace"):
            if "run_exit" not in record:
                return "experiments.run did not return", None
            # A wrong CSV fails the sample but its timings are still reported.
            return self.check.problem(os.path.join(out_dir, f"{argv[0]}.csv")), record
        if mode == "probe" and "run_enter" not in record:
            return "experiments.run was never entered", None
        return None, record


def median(values: list[float]) -> float:
    return float(statistics.median(values))


def measure_end_to_end(runner: Runner, argv: list[str], seconds: float) -> dict:
    """Alternate timed runs and set-up probes until the time is used."""
    setups, runs, rss = [], [], []
    cycles: list[float] = []
    start = now()
    while True:
        cycle_start = now()
        rec = runner.launch("time", argv)
        if rec:
            setups.append(rec["run_enter"] - rec["launched"])
            runs.append(rec["run_exit"] - rec["run_enter"])
            rss.append(rec["peak_rss_mb"])
        probe = runner.launch("probe", argv)
        if probe:
            setups.append(probe["run_enter"] - probe["launched"])
        cycles.append(now() - cycle_start)
        if len(cycles) >= MIN_TIMED_SAMPLES and now() + median(cycles) > start + seconds:
            break
    samples = {"setup_s": setups, "run_s": runs, "peak_rss_mb": rss}
    return {name: values for name, values in samples.items() if values}


def span_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer figures of one traced run from its spans."""
    def duration(s):
        return s["end"] - s["start"]

    def layer_s(prefix):
        """Time in spans of one layer, counting a span nested in the same layer once."""
        total = 0.0
        for s in spans:
            if s["name"].startswith(prefix):
                parent = s["parent"]
                while parent is not None and not spans[parent]["name"].startswith(prefix):
                    parent = spans[parent]["parent"]
                total += duration(s) if parent is None else 0.0
        return total

    def named(name):
        return [s for s in spans if s["name"] == name]

    def unique_ratio(calls):
        return len({s["key"] for s in calls}) / len(calls) if calls else 1.0

    run_index = next(i for i, s in enumerate(spans) if s["name"] == "experiments.run")
    run_s = duration(spans[run_index])
    attributed = sum(duration(s) for s in spans if s["parent"] == run_index)
    oracle, noise, sims = named("oracle.evolve"), named("noise.build"), named("sim.simulate")
    simulate_s = layer_s("sim.")
    gates = sum(s["gates"] for s in sims)
    return {
        "oracle.evolve_s": layer_s("oracle."),
        "oracle.calls": len(oracle),
        "oracle.unique_ratio": unique_ratio(oracle),
        "sim.simulate_s": simulate_s,
        "sim.gates_applied": gates,
        "sim.gates_per_s": gates / simulate_s if simulate_s > 0 else 0.0,
        "sim.width_max": max((s["width"] for s in sims), default=0),
        "noise.build_s": layer_s("noise."),
        "noise.builds": len(noise),
        "noise.unique_ratio": unique_ratio(noise),
        "circuits.assemble_s": layer_s("circuits."),
        "transpile.decompose_s": layer_s("transpile."),
        "metrics.eval_s": layer_s("metrics."),
        "metrics.calls": sum(1 for s in spans if s["name"].startswith("metrics.")),
        "experiments.self_s": run_s - attributed,
        "experiments.emit_csv_s": layer_s("experiments.emit_csv"),
        "trace.attributed_share": attributed / run_s,
        "trace.run_s": run_s,
    }


def measure_per_layer(runner: Runner, argv: list[str], seconds: float) -> dict:
    """Cycle untraced, traced and worker-toggled runs until the time is used."""
    counterpart = toggle_workers(argv)
    untraced, traced, toggled = [], [], []
    cycles: list[float] = []
    start = now()
    while True:
        cycle_start = now()
        rec = runner.launch("time", argv)
        if rec:
            untraced.append(rec["run_exit"] - rec["run_enter"])
        rec = runner.launch("trace", argv)
        if rec:
            traced.append(span_metrics(rec["spans"]))
        rec = runner.launch("time", counterpart)
        if rec:
            toggled.append(rec["run_exit"] - rec["run_enter"])
        cycles.append(now() - cycle_start)
        if now() + median(cycles) > start + seconds:
            break
    if not (untraced and traced and toggled):
        return {}
    samples = {name: [t[name] for t in traced] for name in traced[0] if name != "trace.run_s"}
    serial, pooled = (toggled, untraced) if is_pooled(argv) else (untraced, toggled)
    samples["experiments.pool_speedup"] = [median(serial) / median(pooled)]
    samples["trace.overhead_s"] = [median([t["trace.run_s"] for t in traced]) - median(untraced)]
    return samples


# ---------------------------------------------------------------------------
# environment and report


def source_digest() -> str:
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith((".py", ".json")):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def git_revision() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(runner: Runner, spec: dict, args, workload: str, load: tuple) -> dict:
    env = runner.launch("env", []) or {}
    return {
        "workload": workload,
        "argv": spec["workloads"][workload]["argv"],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
        "python": env.get("python"),
        "numpy": env.get("numpy"),
        "blas": env.get("blas"),
        "blas_threads": spec["blas_threads"],
        "blas_threads_effective": env.get("blas_threads_effective"),
        "blas_threads_reason": spec["blas_threads_reason"],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "load_average_at_start": list(load),
    }


def run_workload(bench: dict, spec: dict, workload: str, args) -> dict:
    load = os.getloadavg()
    work_dir = os.path.join(WORK, f"{workload}-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    try:
        runner = Runner(spec, workload, work_dir)
        print("environment: " + json.dumps(environment(runner, spec, args, workload, load)))
        entry = spec["workloads"][workload]
        reference = entry.get("same_bytes_as")
        if reference:
            # The first CSV of the run comes from the serial grid, so every
            # pooled CSV after it must match serial output byte for byte.
            runner.launch("time", spec["workloads"][reference]["argv"])
        measure = measure_per_layer if args.trace else measure_end_to_end
        samples = measure(runner, entry["argv"], args.seconds)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        if os.path.isdir(WORK) and not os.listdir(WORK):
            os.rmdir(WORK)
    units = {m["name"]: m["unit"] for m in bench["per_layer" if args.trace else "end_to_end"]}
    missing = [name for name in units if name not in samples]
    if missing:
        raise BenchmarkError(f"{workload}: no successful sample for {', '.join(missing)}")
    metrics = {}
    for name, unit in units.items():
        values = samples[name]
        metrics[name] = {"value": median(values), "unit": unit}
        print(f"{workload} {name} = {median(values):.6g} {unit} "
              f"(median of {len(values)}, min {min(values):.6g}, max {max(values):.6g})")
    failed = len(runner.failures)
    print(f"{workload} error_rate = {failed / runner.attempted:.6g} "
          f"({failed} failed of {runner.attempted} runs attempted)")
    return {"correct": failed == 0, "attempted": runner.attempted, "failed": failed,
            "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="workload name from benchmarks/workloads.json, or 'all'")
    parser.add_argument("--seed", type=int, default=0, help="recorded; the workloads hold no random inputs")
    parser.add_argument("--seconds", type=float, help="measuring time per run (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 reports per-layer metrics from traced runs")
    args = parser.parse_args(argv)
    try:
        bench, spec = load_spec()
        if args.seconds is None:
            args.seconds = bench["run_seconds"]
        if args.workload == "all":
            results = {}
            for name in spec["workloads"]:
                for trace in (0, 1):
                    args.trace = trace
                    results[f"{name}/trace{trace}"] = run_workload(bench, spec, name, args)
            print(json.dumps(results))
            return 0
        if args.workload not in spec["workloads"]:
            raise BenchmarkError(f"unknown workload {args.workload!r}; "
                                 f"choose from {', '.join(spec['workloads'])} or all")
        print(json.dumps(run_workload(bench, spec, args.workload, args)))
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
