"""Config-driven experiment harness: sweeps, observables, correlations, gate counts.

Each experiment expands into an ordered grid of points.  ``run`` builds
every input that points share once, in the calling process: the
calibration (parsed once and kept on the config), one noise model per xi,
one exact reference trajectory per (gamma, dt), one native one-step circuit
per (order, gamma, dt) and one dict of compiled runs per noise model.  Only
the circuit trajectories, one per point, are simulated, serially or by a
worker pool: each replays its one-step circuit for its step count.  Serially
the points of a noise model share its compiled runs; a worker receives an
empty dict and compiles for itself.  Rows are then built from the
trajectories and the shared references in grid order, so identical configs
and seeds give byte-identical CSV output in both modes.
"""

from __future__ import annotations

import hashlib
import json
import numbers
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields
from functools import cached_property

import numpy as np

from . import __version__, metrics, noise, sim, transpile
from .circuits import MARKER_KINDS, Circuit, assemble_evolution, evolution_layout
from .encoding import GRAY, STANDARD_BINARY
from .model import (
    PAPER_COLLISION,
    RATE_CONVENTIONS,
    InitialStateSpec,
    ModelParams,
    initial_density_matrix,
)
from .oracle import MAX_REGISTER_WIDTH, TrajectorySnapshot, evolve_exact

EXPERIMENT_KINDS = (
    "trotter_sweep",
    "noise_sweep",
    "infidelity_vs_time",
    "gamma_sweep",
    "observables",
    "correlations",
    "gate_counts",
)

_HEADERS = {
    "trotter_sweep": ("order", "gamma", "xi", "dt", "n_steps", "t_final",
                      "avg_infidelity", "final_infidelity"),
    "noise_sweep": ("order", "gamma", "xi", "dt", "n_steps", "t_final",
                    "avg_infidelity", "final_infidelity"),
    "infidelity_vs_time": ("order", "gamma", "xi", "dt", "t", "infidelity"),
    "gamma_sweep": ("order", "dt", "xi", "gamma", "avg_infidelity", "final_infidelity"),
    "observables": ("source", "order", "xi", "t", "boson_occupation", "spin_z"),
    "correlations": ("source", "order", "xi", "t", "czz", "cxx"),
    "gate_counts": ("n_spins", "d_ho", "order", "code", "single_qubit", "cx"),
}


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    epsilon: float = 0.5
    omega: float = 4.0
    lambda_c: float = 2.0
    gamma: float = 1.0
    n_spins: int = 1
    d_ho: int = 4
    code: str = GRAY
    orders: tuple[int, ...] = (1, 2)
    dt_grid: tuple[float, ...] = (0.2,)
    t_final: float = 2.0
    xi_list: tuple[float, ...] = (0.0,)
    gamma_list: tuple[float, ...] = ()
    shots: int | None = None
    seed: int = 0
    convention: str = PAPER_COLLISION
    calibration: str | None = None
    out_dir: str = "results"
    workers: int = 1

    def validate(self) -> list[str]:
        """All problems at once, so a batch job fails before any computation."""
        problems = []
        if self.experiment not in EXPERIMENT_KINDS:
            problems.append(f"unknown experiment {self.experiment!r}")
        if self.code not in (GRAY, STANDARD_BINARY):
            problems.append(f"unknown code {self.code!r}")
        if self.convention not in RATE_CONVENTIONS:
            problems.append(f"unknown rate convention {self.convention!r}")
        if not self.orders or any(o not in (1, 2) for o in self.orders):
            problems.append(f"orders must be a non-empty subset of (1, 2), got {self.orders}")
        if not self.dt_grid or not all(0 < dt < np.inf for dt in self.dt_grid):
            problems.append(f"dt grid must be non-empty, positive and finite, got {self.dt_grid}")
        if not 0 < self.t_final < np.inf:
            problems.append("t_final must be positive and finite")
        if not self.xi_list or not all(0 <= x <= 1 for x in self.xi_list):
            problems.append(f"xi values must lie in [0, 1], got {self.xi_list}")
        if not all(0 <= g < np.inf for g in self.gamma_list):
            problems.append("gamma values must be nonnegative and finite")
        if self.shots is not None and self.shots < 1:
            problems.append("shots must be at least 1 when given")
        if self.shots is not None and self.experiment != "observables":
            problems.append("shot sampling is only supported for the observables experiment")
        if self.experiment in ("observables", "correlations") and len(self.dt_grid) != 1:
            problems.append("observables/correlations need a single dt (exact rows share its grid)")
        if self.experiment in ("observables", "correlations") and self.gamma_list:
            problems.append("observables/correlations run at the single gamma; gamma_list is not used")
        if self.experiment == "correlations" and self.n_spins != 2:
            problems.append("correlations need n_spins = 2")
        if self.workers < 1:
            problems.append("workers must be at least 1")
        try:
            params = self.model_params()
            if self.experiment != "gate_counts":
                evolution_layout(params)  # raises for spin counts circuits do not support
                width = params.register_width
                if width > MAX_REGISTER_WIDTH:
                    problems.append(
                        f"{width}-qubit model register exceeds the exact oracle limit {MAX_REGISTER_WIDTH}"
                    )
        except ValueError as exc:
            problems.append(str(exc))
        uses_calibration = self.experiment != "gate_counts" and (
            self.shots is not None or any(xi > 0 for xi in self.xi_list)
        )
        if self.calibration is not None or uses_calibration:
            try:
                cal = self.calibration_data
            except (OSError, ValueError) as exc:
                problems.append(f"cannot load calibration {self.calibration!r}: {exc}")
            else:
                if uses_calibration and not problems:
                    problems += self._calibration_gaps(cal)
        return problems

    def _calibration_gaps(self, cal: noise.CalibrationData) -> list[str]:
        """What the run would look up in the calibration but not find."""
        problems = []
        width = self.model_params().register_width
        if self.shots is not None and len(cal.qubits) < width:
            problems.append(
                f"calibration lists {len(cal.qubits)} qubits; reading out the register needs {width}"
            )
        if any(xi > 0 for xi in self.xi_list):
            params = self.model_params(max(self.gamma_list or (self.gamma,)))
            missing: dict[str, list[tuple[int, ...]]] = {}
            for order in self.orders:
                circuit = assemble_evolution(
                    params, self.initial_state(), 1, self.dt_grid[0], order, self.code, self.convention
                )
                for g in transpile.decompose_native(circuit).gates:
                    if g.kind in MARKER_KINDS or g.qubits in missing.get(g.kind, ()):
                        continue
                    try:
                        cal.gate_entry(g.kind, g.qubits)
                    except KeyError:
                        missing.setdefault(g.kind, []).append(g.qubits)
            problems += [
                f"calibration has no {kind} entry for operands {', '.join(map(str, sorted(ops)))}"
                for kind, ops in missing.items()
            ]
        return problems

    def model_params(self, gamma: float | None = None) -> ModelParams:
        return ModelParams(
            epsilon=self.epsilon,
            omega=self.omega,
            lambda_c=self.lambda_c,
            gamma=self.gamma if gamma is None else gamma,
            n_spins=self.n_spins,
            d_ho=self.d_ho,
        )

    def initial_state(self) -> InitialStateSpec:
        spins = ("up",) if self.n_spins == 1 else ("up",) + ("down",) * (self.n_spins - 1)
        return InitialStateSpec(spins, 0)

    @cached_property
    def calibration_data(self) -> noise.CalibrationData:
        """The calibration, parsed on first use and then kept on this config."""
        if self.calibration is None:
            return noise.jakarta_average_calibration()
        return noise.load_calibration(self.calibration)


_KIND_DEFAULTS: dict[str, dict] = {
    "trotter_sweep": {"dt_grid": (0.1, 0.2, 0.3, 0.4, 0.5), "gamma_list": (0.0, 1.0)},
    "noise_sweep": {"orders": (2,), "xi_list": (0.01, 0.1, 1.0)},
    "infidelity_vs_time": {"xi_list": (0.01, 0.1, 1.0)},
    "gamma_sweep": {"orders": (2,), "xi_list": (0.0, 0.01),
                    "gamma_list": (0.0, 0.5, 1.0, 1.5, 2.0, 2.5)},
    "observables": {"xi_list": (0.01, 0.1, 1.0)},
    "correlations": {"n_spins": 2, "omega": 6.0, "xi_list": (0.01, 0.1, 1.0)},
    "gate_counts": {},
}


def make_config(experiment: str, file_values: dict | None = None, overrides: dict | None = None) -> ExperimentConfig:
    """Config from kind defaults, then a JSON document, then explicit overrides."""
    if file_values is not None and not isinstance(file_values, dict):
        raise ValueError(f"invalid config:\n  config must be a JSON object, got {type(file_values).__name__}")
    values: dict = dict(_KIND_DEFAULTS.get(experiment, {}))
    for source in (file_values or {}), (overrides or {}):
        values.update({k: v for k, v in source.items() if v is not None})
    values.pop("experiment", None)
    annotations = {f.name: f.type for f in fields(ExperimentConfig) if f.name != "experiment"}
    problems = []
    for key, value in list(values.items()):
        problem = _entry_problem(key, value, annotations.get(key))
        if problem:
            problems.append(problem)
            del values[key]
        elif annotations[key].startswith("tuple["):
            values[key] = tuple(value)
    cfg = ExperimentConfig(experiment=experiment, **values)
    problems += cfg.validate()
    if problems:
        raise ValueError("invalid config:\n  " + "\n  ".join(problems))
    return cfg


_ITEM_TYPES = {"int": numbers.Integral, "float": numbers.Real, "str": str}


def _entry_problem(key: str, value, annotation: str | None) -> str | None:
    """Why a config entry does not fit its ExperimentConfig field, or None if it does."""
    if annotation is None:
        return f"unknown config key {key!r}"
    item = annotation.removesuffix(" | None")
    many = item.startswith("tuple[")
    if many:
        item = item[len("tuple["):-len(", ...]")]
    items = value if many else (value,)
    ok = isinstance(items, (list, tuple)) and all(
        isinstance(v, _ITEM_TYPES[item]) and not isinstance(v, bool) for v in items
    )
    return None if ok else f"{key} must be {'a list of ' + item if many else item}, got {value!r}"


# ---------------------------------------------------------------------------
# experiment task lists


def steps_for(t_final: float, dt: float) -> int:
    return max(1, round(t_final / dt))


def _tasks(cfg: ExperimentConfig) -> list[dict]:
    if cfg.experiment == "gate_counts":
        return [
            {"n_spins": ns, "d_ho": d, "order": o, "code": code}
            for ns in (1, 2)
            for d in (4, 8)
            for o in (1, 2)
            for code in (GRAY, STANDARD_BINARY)
        ]
    gammas = cfg.gamma_list or (cfg.gamma,)
    if cfg.experiment == "gamma_sweep":
        # xi outside gamma: each xi's rows trace one curve over gamma
        grid = [(o, g, xi) for o in cfg.orders for xi in cfg.xi_list for g in gammas]
    else:
        grid = [(o, g, xi) for o in cfg.orders for g in gammas for xi in cfg.xi_list]
    return [{"order": o, "gamma": g, "xi": xi, "dt": dt} for o, g, xi in grid for dt in cfg.dt_grid]


# ---------------------------------------------------------------------------
# one grid point: the circuit trajectory, the only work sent to the pool


def _simulated_trajectory(
    circuit: Circuit, model, n_steps: int, dt: float, compiled: dict
) -> list[TrajectorySnapshot]:
    """The trajectory of one point: its one-step circuit replayed n_steps times."""
    result = sim.simulate(circuit, model, repeat=n_steps, compiled=compiled)
    return [TrajectorySnapshot(k * dt, s) for k, s in enumerate(result.snapshots)]


def _exact_trajectory(cfg: ExperimentConfig, gamma: float, dt: float) -> list[TrajectorySnapshot]:
    params = cfg.model_params(gamma)
    rho0 = initial_density_matrix(cfg.initial_state(), params, cfg.code)
    grid = [k * dt for k in range(steps_for(cfg.t_final, dt) + 1)]
    return evolve_exact(rho0, params, grid, cfg.convention, cfg.code)


# ---------------------------------------------------------------------------
# rows of one grid point, from its simulated and exact trajectories


def _sweep_rows(
    cfg: ExperimentConfig, task: dict, simulated, exact, model, state_values
) -> list[tuple]:
    """One row of avg and final infidelity (trotter, noise and gamma sweeps)."""
    n_steps = len(simulated) - 1
    values = {
        **task,
        "n_steps": n_steps,
        "t_final": n_steps * task["dt"],
        "avg_infidelity": metrics.time_averaged_infidelity(simulated, exact),
        "final_infidelity": metrics.infidelity(simulated[-1].rho, exact[-1].rho),
    }
    return [tuple(values[name] for name in _HEADERS[cfg.experiment])]


def _per_time_rows(
    cfg: ExperimentConfig, task: dict, simulated, exact, model, state_values
) -> list[tuple]:
    return [
        (task["order"], task["gamma"], task["xi"], task["dt"], s.t, metrics.infidelity(s.rho, e.rho))
        for s, e in zip(simulated, exact)
    ]


def _state_values(cfg: ExperimentConfig, params: ModelParams):
    """rho -> (boson_occupation, spin_z) for observables, (czz, cxx) for correlations.

    The operators are built here, once for every state of a run.
    """
    if cfg.experiment == "observables":
        specs = (metrics.ObservableSpec(metrics.BOSON_NUMBER), metrics.ObservableSpec(metrics.SIGMA_Z, 0))
        mats = [metrics.observable_matrix(spec, params, cfg.code) for spec in specs]
        return lambda rho: tuple(
            metrics.expectation(rho, spec, params, cfg.code, mat) for spec, mat in zip(specs, mats)
        )
    pairs = {pair: metrics.spin_pair_operators(pair, params) for pair in ("ZZ", "XX")}
    return lambda rho: tuple(
        metrics.connected_correlation(rho, pair, params, ops) for pair, ops in pairs.items()
    )


def _observable_rows(
    cfg: ExperimentConfig, task: dict, simulated, exact, model, state_values
) -> list[tuple]:
    """Circuit rows (source="circuit") for observables/correlations.

    With shots, the observables are estimated from the readout-mitigated
    quasi-probabilities of the measured register, as the diagonal state
    diag(quasi): both observables are diagonal in the measured basis, so
    this applies the same operators as the exact rows.
    """
    params = cfg.model_params()
    confusions = None
    if cfg.shots is not None:
        confusions = model.confusion_matrices(range(params.register_width))
    rows = []
    for k, snap in enumerate(simulated):
        if cfg.shots is None:
            values = state_values(snap.rho)
        else:
            seed = np.random.SeedSequence(
                [cfg.seed, task["order"], int(round(task["xi"] * 10**6)), k]
            ).generate_state(1)[0]
            counts = sim.sample_counts(snap.rho, cfg.shots, readout=confusions, seed=int(seed))
            values = state_values(np.diag(sim.mitigate_readout(counts, confusions)))
        rows.append(("circuit", task["order"], task["xi"], snap.t, *values))
    return rows


def _gate_count_rows(cfg: ExperimentConfig, task: dict) -> list[tuple]:
    params = ModelParams(
        epsilon=cfg.epsilon,
        omega=6.0 if task["n_spins"] == 2 else cfg.omega,
        lambda_c=cfg.lambda_c,
        gamma=cfg.gamma if cfg.gamma > 0 else 1.0,
        n_spins=task["n_spins"],
        d_ho=task["d_ho"],
    )
    spins = ("up",) if task["n_spins"] == 1 else ("up", "down")
    circuit = assemble_evolution(
        params, InitialStateSpec(spins, 0), 1, cfg.dt_grid[0], task["order"],
        task["code"], cfg.convention
    )
    native = transpile.decompose_native(circuit)
    routed = transpile.route(native, transpile.JAKARTA)
    counts = transpile.count_gates(routed.circuit)
    return [(task["n_spins"], task["d_ho"], task["order"], task["code"],
             counts.single_qubit, counts.cx)]


_ROW_BUILDERS = {
    "trotter_sweep": _sweep_rows,
    "noise_sweep": _sweep_rows,
    "gamma_sweep": _sweep_rows,
    "infidelity_vs_time": _per_time_rows,
    "observables": _observable_rows,
    "correlations": _observable_rows,
}


def _trajectory_rows(cfg: ExperimentConfig, tasks: list[dict]) -> list[tuple]:
    """Rows of every grid point in grid order, from inputs built once for all points.

    Each distinct (order, gamma, dt) gets one native one-step circuit, and
    each noise model one dict of compiled runs; a point replays its circuit
    for its step count.  A point at xi = 0 simulates without noise; its
    model, built only when shots are sampled, serves the readout.
    """
    xis = dict.fromkeys(t["xi"] for t in tasks if t["xi"] > 0 or cfg.shots is not None)
    cal = cfg.calibration_data if xis else None
    models = {xi: noise.build_noise_model(cal, xi) for xi in xis}
    keys = dict.fromkeys((t["gamma"], t["dt"]) for t in tasks)
    references = {key: _exact_trajectory(cfg, *key) for key in keys}
    circuits = {
        (o, g, dt): transpile.decompose_native(assemble_evolution(
            cfg.model_params(g), cfg.initial_state(), 1, dt, o, cfg.code, cfg.convention
        ))
        for o, g, dt in dict.fromkeys((t["order"], t["gamma"], t["dt"]) for t in tasks)
    }
    caches = {t["xi"]: {} for t in tasks}  # one per engine noise model, None at xi = 0
    points = (
        [circuits[t["order"], t["gamma"], t["dt"]] for t in tasks],
        [models[t["xi"]] if t["xi"] > 0 else None for t in tasks],
        [steps_for(cfg.t_final, t["dt"]) for t in tasks],
        [t["dt"] for t in tasks],
        [caches[t["xi"]] for t in tasks],
    )
    if cfg.workers > 1:
        with ProcessPoolExecutor(max_workers=min(cfg.workers, len(tasks))) as pool:
            simulated = list(pool.map(_simulated_trajectory, *points))
    else:
        simulated = list(map(_simulated_trajectory, *points))

    rows: list[tuple] = []
    state_values = None
    if cfg.experiment in ("observables", "correlations"):
        state_values = _state_values(cfg, cfg.model_params())
        exact = references[(cfg.gamma, cfg.dt_grid[0])]
        rows += [("exact", 0, 0.0, s.t, *state_values(s.rho)) for s in exact]
    build = _ROW_BUILDERS[cfg.experiment]
    for task, trajectory in zip(tasks, simulated):
        exact = references[(task["gamma"], task["dt"])]
        rows += build(cfg, task, trajectory, exact, models.get(task["xi"]), state_values)
    return rows


# ---------------------------------------------------------------------------
# output


def emit_csv(path: str, header: tuple[str, ...], rows: list[tuple]) -> str:
    """Deterministic CSV: 12 significant digits, NaN values abort."""
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for name, value in zip(header, row):
            if isinstance(value, float):
                if np.isnan(value):
                    raise ValueError(f"NaN in column {name!r} of row {row}")
                cells.append(f"{value:.12g}")
            else:
                cells.append(str(value))
        lines.append(",".join(cells))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def run(cfg: ExperimentConfig) -> list[str]:
    """Evaluate the experiment grid and write its CSV plus a JSON run manifest."""
    problems = cfg.validate()
    if problems:
        raise ValueError("invalid config:\n  " + "\n  ".join(problems))
    os.makedirs(cfg.out_dir, exist_ok=True)

    tasks = _tasks(cfg)
    if cfg.experiment == "gate_counts":
        rows = [row for task in tasks for row in _gate_count_rows(cfg, task)]
    else:
        rows = _trajectory_rows(cfg, tasks)

    csv_path = os.path.join(cfg.out_dir, f"{cfg.experiment}.csv")
    emit_csv(csv_path, _HEADERS[cfg.experiment], rows)

    manifest = {
        "experiment": cfg.experiment,
        "config": asdict(cfg),
        "config_sha256": hashlib.sha256(
            json.dumps(asdict(cfg), sort_keys=True).encode()
        ).hexdigest(),
        "package_version": __version__,
        "rate_convention": cfg.convention,
        "outputs": [csv_path],
    }
    manifest_path = os.path.join(cfg.out_dir, f"{cfg.experiment}_manifest.json")
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    return [csv_path, manifest_path]
