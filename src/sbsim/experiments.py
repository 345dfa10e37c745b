"""Config-driven experiment harness: sweeps, observables, correlations, gate counts.

Each experiment expands into an ordered grid of independent points; points
can be evaluated by a worker pool, and rows are always emitted in grid
order, so identical configs and seeds give byte-identical CSV output.
"""

from __future__ import annotations

import hashlib
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__, metrics, noise, sim, transpile
from .circuits import assemble_evolution, evolution_layout
from .encoding import GRAY, STANDARD_BINARY, BitCode, TruncationSpec
from .encoding import code_index as encoding_code_index
from .model import (
    PAPER_COLLISION,
    RATE_CONVENTIONS,
    InitialStateSpec,
    ModelParams,
    initial_density_matrix,
)
from .oracle import TrajectorySnapshot, evolve_exact

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
        if self.experiment == "correlations" and self.n_spins != 2:
            problems.append("correlations need n_spins = 2")
        if self.workers < 1:
            problems.append("workers must be at least 1")
        try:
            params = self.model_params()
            if self.experiment != "gate_counts":
                width = len(evolution_layout(params)[0])
                if width > sim.MAX_SIM_WIDTH:
                    problems.append(f"{width}-qubit circuit exceeds the engine limit {sim.MAX_SIM_WIDTH}")
        except ValueError as exc:
            problems.append(str(exc))
        if self.calibration is not None:
            try:
                self.load_calibration()
            except (OSError, ValueError) as exc:
                problems.append(f"cannot load calibration {self.calibration!r}: {exc}")
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

    def load_calibration(self) -> noise.CalibrationData:
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
    values: dict = dict(_KIND_DEFAULTS.get(experiment, {}))
    for source in (file_values or {}), (overrides or {}):
        values.update({k: v for k, v in source.items() if v is not None})
    values.pop("experiment", None)
    for key in ("orders", "dt_grid", "xi_list", "gamma_list"):
        if key in values and values[key] is not None:
            values[key] = tuple(values[key])
    cfg = ExperimentConfig(experiment=experiment, **values)
    problems = cfg.validate()
    if problems:
        raise ValueError("invalid config:\n  " + "\n  ".join(problems))
    return cfg


# ---------------------------------------------------------------------------
# single grid point: circuit vs reference trajectories


def steps_for(t_final: float, dt: float) -> int:
    return max(1, round(t_final / dt))


def _simulated_trajectory(
    cfg: ExperimentConfig, gamma: float, dt: float, n_steps: int, order: int, xi: float
) -> list[TrajectorySnapshot]:
    params = cfg.model_params(gamma)
    circuit = assemble_evolution(
        params, cfg.initial_state(), n_steps, dt, order, cfg.code, cfg.convention
    )
    circuit = transpile.decompose_native(circuit)
    model = noise.build_noise_model(cfg.load_calibration(), xi) if xi > 0 else None
    result = sim.simulate(circuit, noise=model)
    return [TrajectorySnapshot(k * dt, s) for k, s in enumerate(result.snapshots)]


def _exact_trajectory(
    cfg: ExperimentConfig, gamma: float, dt: float, n_steps: int
) -> list[TrajectorySnapshot]:
    params = cfg.model_params(gamma)
    rho0 = initial_density_matrix(cfg.initial_state(), params, cfg.code)
    grid = [k * dt for k in range(n_steps + 1)]
    return evolve_exact(rho0, params, grid, cfg.convention, cfg.code)


def _infidelity_point(cfg: ExperimentConfig, gamma: float, dt: float, order: int, xi: float):
    n_steps = steps_for(cfg.t_final, dt)
    simulated = _simulated_trajectory(cfg, gamma, dt, n_steps, order, xi)
    exact = _exact_trajectory(cfg, gamma, dt, n_steps)
    avg = metrics.time_averaged_infidelity(simulated, exact)
    final = metrics.infidelity(simulated[-1].rho, exact[-1].rho)
    per_time = [
        (s.t, metrics.infidelity(s.rho, e.rho)) for s, e in zip(simulated, exact)
    ]
    return n_steps, avg, final, per_time, simulated, exact


# ---------------------------------------------------------------------------
# experiment task lists


def _tasks(cfg: ExperimentConfig) -> list[dict]:
    kind = cfg.experiment
    gammas = cfg.gamma_list or (cfg.gamma,)
    if kind in ("trotter_sweep", "noise_sweep", "infidelity_vs_time"):
        return [
            {"order": o, "gamma": g, "xi": xi, "dt": dt}
            for o in cfg.orders
            for g in gammas
            for xi in cfg.xi_list
            for dt in cfg.dt_grid
        ]
    if kind == "gamma_sweep":
        # xi outside gamma: each xi's rows trace one curve over gamma
        return [
            {"order": o, "gamma": g, "xi": xi, "dt": dt}
            for o in cfg.orders
            for xi in cfg.xi_list
            for g in gammas
            for dt in cfg.dt_grid
        ]
    if kind in ("observables", "correlations"):
        return [
            {"order": o, "xi": xi, "dt": dt}
            for o in cfg.orders
            for xi in cfg.xi_list
            for dt in cfg.dt_grid
        ]
    if kind == "gate_counts":
        return [
            {"n_spins": ns, "d_ho": d, "order": o, "code": code}
            for ns in (1, 2)
            for d in (4, 8)
            for o in (1, 2)
            for code in (GRAY, STANDARD_BINARY)
        ]
    raise ValueError(f"unknown experiment {kind!r}")


def _eval_task(cfg: ExperimentConfig, task: dict) -> list[tuple]:
    kind = cfg.experiment
    if kind in ("trotter_sweep", "noise_sweep"):
        n, avg, final, _, _, _ = _infidelity_point(
            cfg, task["gamma"], task["dt"], task["order"], task["xi"]
        )
        return [(task["order"], task["gamma"], task["xi"], task["dt"], n,
                 n * task["dt"], avg, final)]
    if kind == "infidelity_vs_time":
        _, _, _, per_time, _, _ = _infidelity_point(
            cfg, task["gamma"], task["dt"], task["order"], task["xi"]
        )
        return [
            (task["order"], task["gamma"], task["xi"], task["dt"], t, inf)
            for t, inf in per_time
        ]
    if kind == "gamma_sweep":
        _, avg, final, _, _, _ = _infidelity_point(
            cfg, task["gamma"], task["dt"], task["order"], task["xi"]
        )
        return [(task["order"], task["dt"], task["xi"], task["gamma"], avg, final)]
    if kind in ("observables", "correlations"):
        return _observable_rows(cfg, task)
    if kind == "gate_counts":
        return _gate_count_rows(cfg, task)
    raise ValueError(f"unknown experiment {kind!r}")


def _state_values(cfg: ExperimentConfig, params: ModelParams, rho) -> tuple[float, float]:
    """(boson_occupation, spin_z) for observables, (czz, cxx) for correlations."""
    if cfg.experiment == "observables":
        number = metrics.ObservableSpec(metrics.BOSON_NUMBER)
        spin_z = metrics.ObservableSpec(metrics.SIGMA_Z, 0)
        return (
            metrics.expectation(rho, number, params, cfg.code),
            metrics.expectation(rho, spin_z, params, cfg.code),
        )
    return (
        metrics.connected_correlation(rho, "ZZ", params),
        metrics.connected_correlation(rho, "XX", params),
    )


def _observable_rows(cfg: ExperimentConfig, task: dict) -> list[tuple]:
    """Circuit rows (source="circuit") for observables/correlations."""
    params = cfg.model_params()
    dt = task["dt"]
    n_steps = steps_for(cfg.t_final, dt)
    simulated = _simulated_trajectory(cfg, cfg.gamma, dt, n_steps, task["order"], task["xi"])
    confusions = None
    if cfg.shots is not None:
        model = noise.build_noise_model(cfg.load_calibration(), task["xi"])
        confusions = model.confusion_matrices(range(params.register_width))
    rows = []
    for k, snap in enumerate(simulated):
        if cfg.shots is None:
            values = _state_values(cfg, params, snap.rho)
        else:
            seed = np.random.SeedSequence(
                [cfg.seed, task["order"], int(round(task["xi"] * 10**6)), k]
            ).generate_state(1)[0]
            values = _sampled_observables(cfg, params, snap.rho, confusions, int(seed))
        rows.append(("circuit", task["order"], task["xi"], snap.t, *values))
    return rows


def _sampled_observables(
    cfg: ExperimentConfig, params: ModelParams, rho, confusions, seed: int
) -> tuple[float, float]:
    """Shot-sampled, readout-mitigated estimates of the two diagonal observables.

    Both observables are diagonal in the measurement basis: the encoded
    number operator is a Z-string sum and the physical spin-z is the spin
    bit.  The estimate averages the decoded values over the mitigated
    quasi-probability distribution.
    """
    counts = sim.sample_counts(rho, cfg.shots, readout=confusions, seed=seed)
    quasi = sim.mitigate_readout(counts, confusions)
    width = params.register_width
    code = BitCode(cfg.code, TruncationSpec(params.d_ho).n_qubits)
    occupation = 0.0
    spin_z = 0.0
    spin_bit = params.spin_positions[0]
    for idx, weight in enumerate(quasi):
        bits = tuple((idx >> (width - 1 - q)) & 1 for q in range(width))
        boson_word = tuple(bits[q] for q in params.boson_positions)
        occupation += weight * encoding_code_index(boson_word, code)
        spin_z += weight * (1.0 if bits[spin_bit] else -1.0)
    return occupation, spin_z


def _exact_value_rows(cfg: ExperimentConfig) -> list[tuple]:
    """Reference rows (source="exact") for observables/correlations."""
    params = cfg.model_params()
    dt = cfg.dt_grid[0]
    n_steps = steps_for(cfg.t_final, dt)
    exact = _exact_trajectory(cfg, cfg.gamma, dt, n_steps)
    return [("exact", 0, 0.0, snap.t, *_state_values(cfg, params, snap.rho)) for snap in exact]


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
    if cfg.workers > 1:
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            chunks = list(pool.map(_eval_task, [cfg] * len(tasks), tasks))
    else:
        chunks = [_eval_task(cfg, t) for t in tasks]

    rows: list[tuple] = []
    if cfg.experiment in ("observables", "correlations"):
        rows.extend(_exact_value_rows(cfg))
    for chunk in chunks:
        rows.extend(chunk)

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
