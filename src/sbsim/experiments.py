"""Config-driven experiment harness: sweeps, observables, correlations, gate counts.

``ExperimentConfig`` is the one list of settings (the command line has one
flag per field).  Each experiment expands into an ordered grid over four
axes, each one tuple field: ``orders``, ``gamma``, ``xi_list`` and
``dt_grid``; ``validate`` rejects every setting a run would not read, and
a grid whose step count, or the state arrays and rows it holds at once,
the host could not hold.
``run`` builds every input that points share once: the calibration, one
noise model with a member per xi, one native one-step circuit per
(order, gamma) stacking every distinct dt as a point, in grid order
(``ExperimentConfig.step_dts``; each per-point angle has the bits of the
build at that dt alone), one dict of compiled runs, and the exact
reference, one stacked oracle call for every gamma on the union of the dt
grids (so adding a dt to a run can move the last printed digit of another
dt's rows).  Each circuit is simulated in one engine pass in the calling
process, under every noise member and for every dt at its own step count
(the engine orders the points).  One row pass scores each snapshot once
against the reference, one stacked call per grid point on the array the
engine returned, and emits the rows in grid order, so identical configs
and seeds give byte-identical CSV output.  gate_counts
instead counts the routed native step of the paper's model, at gamma = 1,
of each point of a fixed grid, and reads no setting but ``out_dir``.  The
``workers`` field is deprecated and has no effect: every run is serial.
"""

from __future__ import annotations

import json
import numbers
import os
from dataclasses import asdict, dataclass, fields, replace
from functools import cached_property

import numpy as np

from . import __version__, metrics, noise, sim, transpile
from .circuits import MARKER_KINDS, Circuit, assemble_evolution, evolution_layout
from .encoding import CODE_KINDS, GRAY
from .model import (
    PAPER_COLLISION,
    RATE_CONVENTIONS,
    InitialStateSpec,
    ModelParams,
    initial_density_matrix,
)
from .oracle import MAX_SUBSTEPS, evolve_exact, exceeds_substep_cap

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

EXPERIMENT_KINDS = tuple(_HEADERS)

# The only settings gate_counts reads: it counts the paper's model on a fixed grid, so every
# other setting must keep its default there, a field added later included.
_GATE_COUNT_READS = ("experiment", "out_dir", "workers")

# Bytes of one result row as _trajectory_rows builds it, rounded up from tracemalloc: 144 B for
# infidelity_vs_time, 168 B for observables and correlations, 149-195 B for a sweep's one row per point.
_ROW_BYTES = 200


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    epsilon: float = ModelParams.epsilon
    omega: float = ModelParams.omega
    lambda_c: float = ModelParams.lambda_c
    gamma: tuple[float, ...] = (ModelParams.gamma,)
    n_spins: int = ModelParams.n_spins
    d_ho: int = ModelParams.d_ho
    code: str = GRAY
    orders: tuple[int, ...] = (1, 2)
    dt_grid: tuple[float, ...] = (0.2,)
    t_final: float = 2.0
    xi_list: tuple[float, ...] = (0.0,)
    shots: int | None = None
    seed: int = 0
    convention: str = PAPER_COLLISION
    calibration: str | None = None
    out_dir: str = "results"
    # No effect, but the benchmark's xi_grid_pool workload passes it; it goes with that workload (ROADMAP item 1).
    workers: int = 1

    def validate(self) -> list[str]:
        """All problems at once, unread settings among them, so a batch job fails before any computation."""
        return list(self._problems)

    @cached_property
    def _problems(self) -> tuple[str, ...]:
        """What ``validate`` reports, found on first use and then kept on this config."""
        problems = []
        if self.experiment not in EXPERIMENT_KINDS:
            problems.append(f"unknown experiment {self.experiment!r}")
        if self.code not in CODE_KINDS:
            problems.append(f"unknown code {self.code!r}; choose from {', '.join(CODE_KINDS)}")
        if self.convention not in RATE_CONVENTIONS:
            problems.append(f"unknown rate convention {self.convention!r}; choose from {', '.join(RATE_CONVENTIONS)}")
        if not self.orders or any(o not in (1, 2) for o in self.orders):
            problems.append(f"orders must be a non-empty subset of (1, 2), got {self.orders}")
        if not self.dt_grid or not all(0 < dt < np.inf for dt in self.dt_grid):
            problems.append(f"dt grid must be non-empty, positive and finite, got {self.dt_grid}")
        if not 0 < self.t_final < np.inf:
            problems.append("t_final must be positive and finite")
        if not self.xi_list or not all(0 <= x <= 1 for x in self.xi_list):
            problems.append(f"xi values must lie in [0, 1], got {self.xi_list}")
        if not self.gamma or not all(0 <= g < np.inf for g in self.gamma):
            problems.append(f"gamma values must be non-empty, nonnegative and finite, got {self.gamma}")
        if self.shots is not None and self.shots < 1:
            problems.append("shots must be at least 1 when given")
        elif self.shots is not None and self.shots > np.iinfo(np.int64).max:
            problems.append(f"shots must be at most 2**63 - 1, the most one multinomial draw takes; got {self.shots}")
        if self.seed < 0:
            problems.append(f"seed must be non-negative, got {self.seed}")
        elif self.shots is None and self.seed != ExperimentConfig.seed:  # its default
            problems.append(f"seed={self.seed} only seeds shot sampling; it needs --shots")
        if self.shots is not None and self.experiment != "observables":
            problems.append("shot sampling is only supported for the observables experiment")
        if self.experiment in ("observables", "correlations"):
            many = [f"{name}={getattr(self, name)}" for name in ("gamma", "dt_grid") if len(getattr(self, name)) > 1]
            if many:
                problems.append(f"{self.experiment} has no gamma or dt column, so it takes one value of each; "
                                f"got {', '.join(many)}")
        if self.experiment == "correlations" and self.n_spins != 2:
            problems.append("correlations need n_spins = 2")
        if self.workers < 1:
            problems.append("workers must be at least 1")
        if self.experiment == "gate_counts":
            unread = [f"{f.name}={getattr(self, f.name)}" for f in fields(self)
                      if f.name not in _GATE_COUNT_READS and getattr(self, f.name) != f.default]
            if unread:
                problems.append(
                    "gate_counts runs a fixed grid of the paper's model (1-2 spins, d_ho 4 and 8, orders 1 and 2, "
                    f"both codes); it does not use {', '.join(unread)}"
                )
        existing = os.path.abspath(self.out_dir)
        while not os.path.lexists(existing):
            existing = os.path.dirname(existing)
        if not os.path.isdir(existing):
            problems.append(f"cannot write to out_dir {self.out_dir!r}: {existing!r} is not a directory")
        try:
            params = self.model_params(0.0)  # the register does not depend on gamma
            if self.experiment != "gate_counts":
                evolution_layout(params)  # raises for spin counts circuits do not support
                width = params.register_width
                if width > sim.MAX_SIM_WIDTH:
                    problems.append(f"{width}-qubit model register exceeds the engine limit {sim.MAX_SIM_WIDTH}")
                elif not problems:
                    problems += self._size_problems(width)
                    if exceeds_substep_cap(
                        self.model_params(max(self.gamma)), max(self.dt_grid), self.convention, self.code
                    ):
                        problems.append(
                            f"the exact oracle would need more than {MAX_SUBSTEPS} Taylor substeps per interval at "
                            f"epsilon={self.epsilon:g}, omega={self.omega:g}, lambda={self.lambda_c:g}, "
                            f"gamma={max(self.gamma):g}, dt={max(self.dt_grid):g}"
                        )
        except ValueError as exc:
            problems.append(str(exc))
        if self.experiment != "gate_counts" and self.uses_calibration:
            try:
                cal = self.calibration_data
            except (OSError, ValueError) as exc:
                problems.append(f"cannot load calibration {self.calibration!r}: {exc}")
            else:
                if not problems:
                    problems += self._calibration_gaps(cal)
        elif self.experiment != "gate_counts" and self.calibration is not None:
            problems.append(f"calibration={self.calibration!r} is not read: every xi is 0 and no shots are sampled")
        return tuple(problems)

    def _size_problems(self, width: int) -> list[str]:
        """Why the run's step count, or what it holds on a ``width``-qubit register, cannot be held."""
        try:
            held = self._state_bytes(width)
        except OverflowError:
            return [f"t_final={self.t_final:g} at dt={min(self.dt_grid):g} is not a finite number of steps"]
        memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        if sum(held.values()) <= memory:
            return []
        steps = steps_for(self.t_final, min(self.dt_grid))
        terms = ", ".join(f"{size / 2**30:.3g} GiB {name}" for name, size in held.items())
        return [f"t_final={self.t_final:g} at dt={min(self.dt_grid):g} takes {steps} steps, whose states need "
                f"{sum(held.values()) / 2**30:.3g} GiB at once ({terms}); this host has {memory / 2**30:.3g} GiB"]

    def _state_bytes(self, width: int) -> dict[str, int]:
        """Bytes of the state arrays and rows a run on a ``width``-qubit register holds at once, at most, by holder."""
        steps = [steps_for(self.t_final, dt) for dt in self.step_dts]  # OverflowError if not finite
        state = 16 * 4**width  # bytes of one complex density matrix on the register
        reference = len(set(self.gamma)) * sum(n + 1 for n in steps) * state  # every gamma on the union of the dt grids
        return {
            "exact reference and its square roots": 2 * reference,
            # one buffer per (order, gamma) circuit: every dt and distinct xi, each at the longest dt's length
            "engine snapshots": len(set(self.orders)) * len(set(self.gamma)) * len(steps) * len(set(self.xi_list))
                                * (max(steps) + 1) * state,
            # one scoring call roots the reference or one point's snapshots, and holds at most six stacks of that
            # size: the picked roots, sqrtm_psd's four intermediates and the product it takes singular values of
            "scoring": 6 * max(reference, (max(steps) + 1) * state),
            "result rows": _ROW_BYTES * self._row_count(),
        }

    def _row_count(self) -> int:
        """Rows of the run's CSV: one per grid point for the sweeps, one per snapshot otherwise."""
        points = len(self.orders) * len(self.gamma) * len(self.xi_list)  # grid points per dt
        if self.experiment in ("trotter_sweep", "noise_sweep", "gamma_sweep"):
            return points * len(self.dt_grid)
        snapshots = sum(steps_for(self.t_final, dt) + 1 for dt in self.dt_grid)
        exact = snapshots if self.experiment in ("observables", "correlations") else 0  # validated: one gamma and dt
        return points * snapshots + exact

    def _calibration_gaps(self, cal: noise.CalibrationData) -> list[str]:
        """What the run would look up in the calibration but not find."""
        problems = []
        register = self.native_step(self.orders[0], max(self.gamma)).model_register
        needed = max(register) + 1  # each model qubit is read out on the circuit qubit holding it
        if self.shots is not None and len(cal.qubits) < needed:
            problems.append(f"calibration lists {len(cal.qubits)} qubits; reading out the register needs {needed}")
        if any(xi > 0 for xi in self.xi_list):
            missing: dict[str, list[tuple[int, ...]]] = {}
            for order in self.orders:
                for g in self.native_step(order, max(self.gamma)).gates:
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

    @property
    def uses_calibration(self) -> bool:
        """Whether the run reads the calibration: some xi is above 0, or shots are sampled."""
        return self.shots is not None or any(xi > 0 for xi in self.xi_list)

    def model_params(self, gamma: float) -> ModelParams:
        return ModelParams(
            epsilon=self.epsilon,
            omega=self.omega,
            lambda_c=self.lambda_c,
            gamma=gamma,
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

    @cached_property
    def step_dts(self) -> tuple[float, ...]:
        """The distinct dt values of the grid, in grid order: the points of every step."""
        return tuple(dict.fromkeys(self.dt_grid))

    @cached_property
    def _native_steps(self) -> dict[tuple, Circuit]:
        return {}

    def native_step(self, order: int, gamma: float) -> Circuit:
        """The native one-step circuit at (order, gamma), stacking one point per dt of ``step_dts``.

        Built on first use and kept on this config.
        """
        key = (order, gamma)
        if key not in self._native_steps:
            self._native_steps[key] = transpile.decompose_native(assemble_evolution(
                self.model_params(gamma), self.initial_state(), 1, self.step_dts, order, self.code, self.convention
            ))
        return self._native_steps[key]


_KIND_DEFAULTS: dict[str, dict] = {
    "trotter_sweep": {"dt_grid": (0.1, 0.2, 0.3, 0.4, 0.5), "gamma": (0.0, 1.0)},
    "noise_sweep": {"orders": (2,), "xi_list": (0.01, 0.1, 1.0)},
    "infidelity_vs_time": {"xi_list": (0.01, 0.1, 1.0)},
    "gamma_sweep": {"orders": (2,), "xi_list": (0.0, 0.01),
                    "gamma": (0.0, 0.5, 1.0, 1.5, 2.0, 2.5)},
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
    # a run manifest's config block names its experiment; a config naming another one is a mistake
    named = values.pop("experiment", experiment)
    problems = [] if named == experiment else [f"the config is for experiment {named!r}, not {experiment!r}"]
    annotations = {f.name: f.type for f in fields(ExperimentConfig) if f.name != "experiment"}
    for key, value in list(values.items()):
        problem = _entry_problem(key, value, annotations.get(key))
        if problem:
            problems.append(problem)
            del values[key]
        elif field_type(annotations[key])[1]:
            values[key] = tuple(value)
    cfg = ExperimentConfig(experiment=experiment, **values)
    problems += cfg.validate()
    if problems:
        raise ValueError("invalid config:\n  " + "\n  ".join(problems))
    return cfg


def field_type(annotation: str) -> tuple[type, bool]:
    """The item type (int, float or str) named by a field's annotation, and whether the field is a tuple of them."""
    item = annotation.removesuffix(" | None")
    many = item.startswith("tuple[")
    if many:
        item = item[len("tuple["):-len(", ...]")]
    return {"int": int, "float": float, "str": str}[item], many


def _entry_problem(key: str, value, annotation: str | None) -> str | None:
    """Why a config entry does not fit its ExperimentConfig field, or None if it does."""
    if annotation is None:
        return f"unknown config key {key!r}"
    item, many = field_type(annotation)
    accepted = {int: numbers.Integral, float: numbers.Real}.get(item, item)  # a float field takes an int too
    items = value if many else (value,)
    ok = isinstance(items, (list, tuple)) and all(
        isinstance(v, accepted) and not isinstance(v, bool) for v in items
    )
    return None if ok else f"{key} must be {'a list of ' if many else ''}{item.__name__}, got {value!r}"


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
            for code in CODE_KINDS
        ]
    if cfg.experiment == "gamma_sweep":
        # xi outside gamma: each xi's rows trace one curve over gamma
        grid = [(o, g, xi) for o in cfg.orders for xi in cfg.xi_list for g in cfg.gamma]
    else:
        grid = [(o, g, xi) for o in cfg.orders for g in cfg.gamma for xi in cfg.xi_list]
    return [{"order": o, "gamma": g, "xi": xi, "dt": dt} for o, g, xi in grid for dt in cfg.dt_grid]


# Times of the run's dt grids closer than this are one time of the union grid:
# k * dt of different dt meet only up to rounding (3 * 0.1 against 0.3).
_TIME_TOL = 1e-9


def _references(cfg: ExperimentConfig, tasks: list[dict]) -> tuple[np.ndarray, dict, dict]:
    """Exact states of every gamma of the run on the union of its dt grids, from one oracle call.

    Returns the (B, n, d, d) states, one row per distinct gamma, the row of
    each gamma, and for each dt the indices of its times k * dt in the union
    grid.
    """
    gammas = dict.fromkeys(t["gamma"] for t in tasks)
    times = {dt: np.arange(steps_for(cfg.t_final, dt) + 1) * dt for dt in dict.fromkeys(t["dt"] for t in tasks)}
    union = np.sort(np.concatenate(list(times.values())))
    union = union[np.concatenate(([True], np.diff(union) > _TIME_TOL))]
    index = {dt: np.searchsorted(union, t - _TIME_TOL) for dt, t in times.items()}
    params = tuple(cfg.model_params(g) for g in gammas)
    rho0 = initial_density_matrix(cfg.initial_state(), params[0], cfg.code)
    states = evolve_exact(rho0, params, union, cfg.convention, cfg.code)
    return states, {g: b for b, g in enumerate(gammas)}, index


# ---------------------------------------------------------------------------
# rows


def _state_values(cfg: ExperimentConfig, params: ModelParams):
    """States (n, d, d) -> one list per column: (boson_occupation, spin_z) for
    observables, (czz, cxx) for correlations.

    The operators are built here, once for every state of a run.
    """
    if cfg.experiment == "observables":
        ops = (metrics.boson_number(params, cfg.code), metrics.spin_operator("Z", 0, params))
        return lambda states: [metrics.expectation(states, op).tolist() for op in ops]
    pairs = [tuple(metrics.spin_operator(axis, spin, params) for spin in (0, 1)) for axis in "ZX"]
    return lambda states: [metrics.connected_correlation(states, *pair).tolist() for pair in pairs]


def _gate_count_rows(cfg: ExperimentConfig, tasks: list[dict]) -> list[tuple]:
    """Routed native gate counts of one time step at each point of the fixed grid.

    Two spins run at omega = 6, as correlations does; every step is counted at gamma = 1,
    where its collisions are applied.
    """
    rows = []
    for t in tasks:
        point = replace(cfg, n_spins=t["n_spins"], d_ho=t["d_ho"], code=t["code"],
                        omega=6.0 if t["n_spins"] == 2 else cfg.omega)
        native = point.native_step(t["order"], 1.0)
        counts = transpile.count_gates(transpile.route(native, transpile.JAKARTA).circuit)
        rows.append((t["n_spins"], t["d_ho"], t["order"], t["code"], counts.single_qubit, counts.cx))
    return rows


def _simulated_snapshots(cfg: ExperimentConfig, tasks: list[dict], model) -> list[np.ndarray]:
    """Each point's simulated (n, d, d) snapshots, in grid order.

    Each distinct (order, gamma) gets one native one-step circuit
    (``cfg.native_step``) with a point per dt of ``cfg.step_dts``,
    simulated in this process in one engine pass for every dt, each at its
    own step count, under every member of ``model``; all of them share one
    dict of compiled runs.  Each grid point reads the point of its dt and
    the member of its xi (one per distinct xi of ``cfg.xi_list``, so
    repeated values share one); without a model each reads the one
    noiseless member.
    """
    repeat = tuple(steps_for(cfg.t_final, dt) for dt in cfg.step_dts)
    compiled: dict = {}
    runs = {
        key: sim.simulate(cfg.native_step(*key), model, repeat=repeat, compiled=compiled)
        for key in dict.fromkeys((t["order"], t["gamma"]) for t in tasks)
    }
    return [
        runs[t["order"], t["gamma"]][cfg.step_dts.index(t["dt"])][0 if model is None else model.xi.index(t["xi"])]
        for t in tasks
    ]


def _trajectory_rows(cfg: ExperimentConfig, tasks: list[dict]) -> list[tuple]:
    """Rows of every grid point in grid order, each simulated snapshot scored once.

    One noise model with a member per distinct xi of the run is built when
    some xi is above 0 or shots are sampled (its readout serves the
    sampling), and the points are simulated by ``_simulated_snapshots``.
    Each simulated state is then scored once against the exact state of its
    gamma at the same time, read from the run's one stacked reference
    (``_references``).  The sweeps and infidelity_vs_time score by
    infidelity, one stacked call per point on the engine's array for it,
    against the square roots of the reference states alone, each root
    taken once.  Observables and correlations score by state values, one
    stacked call per operator and point.
    """
    xis = tuple(dict.fromkeys(cfg.xi_list))  # a repeated xi is built and simulated once
    model = noise.build_noise_model(cfg.calibration_data, xis) if cfg.uses_calibration else None
    references, ref_row, ref_index = _references(cfg, tasks)
    simulated = _simulated_snapshots(cfg, tasks, model)

    rows: list[tuple] = []
    if cfg.experiment in ("observables", "correlations"):
        (gamma,), (dt,) = cfg.gamma, cfg.dt_grid  # validated: one value on each axis
        state_values = _state_values(cfg, cfg.model_params(gamma))
        exact = references[ref_row[gamma]][ref_index[dt]]
        rows += [("exact", 0, 0.0, k * dt, *values) for k, values in enumerate(zip(*state_values(exact)))]
        for task, states in zip(tasks, simulated):
            if cfg.shots is not None:
                # The observables are estimated from the readout-mitigated
                # quasi-probabilities of the measured register, as the diagonal
                # state diag(quasi): both observables are diagonal in the measured
                # basis, so this applies the same operators as the exact rows.
                # Each model qubit is read out through the circuit qubit holding it.
                register = cfg.native_step(task["order"], task["gamma"]).model_register
                confusions = model.readout[model.xi.index(task["xi"]), list(register)]
                sampled = []
                for k, rho in enumerate(states):
                    seed = np.random.SeedSequence(
                        [cfg.seed, task["order"], int(round(task["xi"] * 10**6)), k]
                    ).generate_state(1)[0]
                    counts = sim.sample_counts(rho, cfg.shots, readout=confusions, seed=int(seed))
                    sampled.append(np.diag(sim.mitigate_readout(counts, confusions)))
                states = np.array(sampled)
            rows += [("circuit", task["order"], task["xi"], k * task["dt"], *values)
                     for k, values in enumerate(zip(*state_values(states)))]
        return rows

    first = 0 if cfg.experiment == "infidelity_vs_time" else 1  # no sweep column reads t = 0
    roots = metrics.sqrtm_psd(references)
    for task, states in zip(tasks, simulated):
        scores = metrics.infidelity(states[first:], None, roots[ref_row[task["gamma"]], ref_index[task["dt"]][first:]])
        if cfg.experiment == "infidelity_vs_time":
            rows += [(task["order"], task["gamma"], task["xi"], task["dt"], k * task["dt"], score)
                     for k, score in enumerate(scores.tolist())]
            continue
        n_steps = len(states) - 1
        values = {**task, "n_steps": n_steps, "t_final": n_steps * task["dt"],
                  "avg_infidelity": float(np.mean(scores)), "final_infidelity": float(scores[-1])}
        rows.append(tuple(values[name] for name in _HEADERS[cfg.experiment]))
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
        rows = _gate_count_rows(cfg, tasks)
    else:
        rows = _trajectory_rows(cfg, tasks)

    csv_path = os.path.join(cfg.out_dir, f"{cfg.experiment}.csv")
    emit_csv(csv_path, _HEADERS[cfg.experiment], rows)

    manifest = {
        "experiment": cfg.experiment,
        "config": asdict(cfg),
        "package_version": __version__,
        "rate_convention": cfg.convention,
        "outputs": [csv_path],
    }
    manifest_path = os.path.join(cfg.out_dir, f"{cfg.experiment}_manifest.json")
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    return [csv_path, manifest_path]
