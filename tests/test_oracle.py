"""Exact reference against scipy's expm and closed-form open-system solutions."""

import csv
import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from conftest import RATE_READINGS, lindblad_operators, liouvillian, random_density_matrix
from sbsim import experiments, metrics, noise, oracle, sim, transpile
from sbsim.circuits import assemble_evolution
from sbsim.experiments import make_config, run
from sbsim.encoding import GRAY, STANDARD_BINARY
from sbsim.model import (
    ModelParams,
    dense_hamiltonian,
    hamiltonian_sum,
    initial_density_matrix,
)
from sbsim.oracle import evolve_exact


def _expm_reference(rho0, params, t):
    """exp(L t) rho0 from scipy, on the dense generator built in conftest."""
    jumps = lindblad_operators(params) if params.gamma > 0 else []
    gen = liouvillian(dense_hamiltonian(params), jumps)
    vec = scipy.linalg.expm(gen * t) @ rho0.astype(complex).flatten(order="F")
    return vec.reshape(rho0.shape, order="F")


def test_unitary_limit_preserves_purity():
    params = ModelParams(gamma=0.0)
    rho0 = initial_density_matrix(params)
    traj = evolve_exact(rho0, params, [0.0, 0.5, 1.0, 2.0])
    for rho in traj:
        purity = np.trace(rho @ rho).real
        assert abs(purity - 1.0) < 1e-8
        assert abs(np.trace(rho).real - 1.0) < 1e-9
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-10


@pytest.mark.parametrize("reading,decay", RATE_READINGS.items())
def test_decoupled_spin_population_decay(reading, decay):
    # lambda = eps = 0: closed-form p_up(t) = exp(-gamma t)
    params = ModelParams(epsilon=0.0, lambda_c=0.0, omega=0.0, gamma=decay)
    rho0 = initial_density_matrix(params)
    grid = [0.2 * k for k in range(11)]
    traj = evolve_exact(rho0, params, grid)
    proj_up = np.zeros((8, 8))
    proj_up[4:, 4:] = np.eye(4)
    for t, rho in zip(grid, traj):
        expected = np.exp(-params.gamma * t)
        assert abs(np.trace(proj_up @ rho).real - expected) < 1e-6


def test_zero_hamiltonian_coherence_decay():
    # H = 0, gamma > 0: off-diagonals decay as exp(-gamma t / 2)
    gamma = 0.8
    h = np.zeros((2, 2), dtype=complex)
    lower = np.array([[0, 1], [0, 0]], dtype=complex)
    gen = liouvillian(h, [(lower, gamma)])
    plus = np.full((2, 2), 0.5, dtype=complex)
    for t in (0.3, 1.5, 4.0):
        rho = (scipy.linalg.expm(gen * t) @ plus.flatten(order="F")).reshape(2, 2, order="F")
        assert abs(rho[0, 1] - 0.5 * np.exp(-gamma * t / 2)) < 1e-12
        assert abs(rho[1, 1] - 0.5 * np.exp(-gamma * t)) < 1e-12


# each distinct rate once: at gamma 0 both readings of the rate are the noiseless model
DISTINCT_RATES = pytest.mark.parametrize(
    "gamma, reading",
    [(0.0, "paper-collision"), (1.0, "paper-collision"), (1.0, "eq2-literal")],
    ids=["0.0-paper-collision", "1.0-paper-collision", "1.0-eq2-literal"],
)


@pytest.mark.parametrize("n_spins", [1, 2])
@DISTINCT_RATES
@pytest.mark.parametrize(
    "grid", [[0.2 * k for k in range(11)], [0.0, 0.5, 1.0, 2.0]], ids=["uniform", "nonuniform"]
)
def test_matches_scipy_expm(n_spins, reading, gamma, grid):
    params = ModelParams(gamma=gamma * RATE_READINGS[reading], n_spins=n_spins)
    rho0 = initial_density_matrix(params)
    traj = evolve_exact(rho0, params, grid)
    assert traj.shape == (len(grid), *rho0.shape)
    for t, rho in zip(grid, traj):
        expected = _expm_reference(rho0, params, t)
        assert np.max(np.abs(rho - expected)) < 1e-12


@pytest.mark.parametrize("n_spins", [1, 2])
@DISTINCT_RATES
def test_snapshots_are_density_matrices(n_spins, reading, gamma):
    params = ModelParams(gamma=gamma * RATE_READINGS[reading], n_spins=n_spins)
    rho0 = initial_density_matrix(params)
    for rho in evolve_exact(rho0, params, [0.2 * k for k in range(11)]):
        assert np.array_equal(rho, rho.conj().T)
        assert abs(np.trace(rho) - 1.0) < 1e-12
        assert np.linalg.eigvalsh(rho).min() >= -1e-12


@pytest.mark.parametrize("n_spins, d_ho", [(2, 16), (1, 32)])
def test_six_qubit_snapshots_are_density_matrices(n_spins, d_ho):
    # the widest register the engine admits, so the widest the oracle is asked for
    params = ModelParams(gamma=1.0, n_spins=n_spins, d_ho=d_ho, omega=6.0 if n_spins == 2 else 4.0)
    assert params.register_width == 6
    rho0 = initial_density_matrix(params)
    traj = evolve_exact(rho0, params, [0.0, 0.05, 0.1])
    assert traj.shape == (3, 64, 64)
    for rho in traj:
        assert np.array_equal(rho, rho.conj().T)
        assert abs(np.trace(rho) - 1.0) < 1e-12
        assert np.linalg.eigvalsh(rho).min() >= -1e-12
    assert np.max(np.abs(traj[-1] - traj[0])) > 1e-3  # the state moved


def test_gamma_sweep_unitary_point_matches_expm(tmp_path):
    # gamma = 0 keeps the reference pure; spurious eigenvalues of an
    # approximate reference are amplified by the square roots in the fidelity
    cfg = make_config(
        "gamma_sweep",
        overrides={"gamma": (0.0,), "xi_list": (0.01,), "out_dir": str(tmp_path)},
    )
    csv_path, _ = run(cfg)
    with open(csv_path) as fh:
        (row,) = csv.DictReader(fh)
    params = cfg.model_params(0.0)
    dt = cfg.dt_grid[0]
    n_steps = round(cfg.t_final / dt)
    circuit = assemble_evolution(params, n_steps, dt, cfg.orders[0], cfg.code)
    model = noise.build_noise_model(cfg.calibration_data, 0.01)
    simulated = sim.simulate(transpile.decompose_native(circuit), noise=model)[0, -1]
    rho0 = initial_density_matrix(params)
    expected = metrics.infidelity(simulated, _expm_reference(rho0, params, n_steps * dt))
    assert abs(float(row["final_infidelity"]) - expected) < 1e-10


@pytest.mark.parametrize(
    "grid, expected",
    [([k * 0.2 for k in range(11)], 1), ([0.0, 0.5, 1.0, 2.0], 2)],
    ids=["uniform", "nonuniform"],
)
def test_one_plan_per_distinct_interval(monkeypatch, grid, expected):
    # the steps of k*0.2 take four float values that differ only by jitter
    norms = []
    plan = oracle._taylor_plan
    monkeypatch.setattr(oracle, "_taylor_plan", lambda x: norms.append(x) or plan(x))
    params = ModelParams(gamma=1.0)
    evolve_exact(initial_density_matrix(params), params, grid)
    assert len(norms) == len(grid) - 1
    plans = [plan(x) for x in norms]
    assert len(set(plans)) == expected
    for norm_h, (m, s) in zip(norms, plans):
        assert norm_h / s <= oracle._THETA[m]
        costs = [k * max(1, math.ceil(norm_h / theta)) for k, theta in oracle._THETA.items()]
        assert m * s == min(costs)


def test_grid_validation():
    params = ModelParams()
    rho0 = initial_density_matrix(params)
    with pytest.raises(ValueError):
        evolve_exact(rho0, params, [0.5, 1.0])
    with pytest.raises(ValueError):
        evolve_exact(rho0, params, [0.0, 0.4, 0.2])


def test_drift_checks_reject_unphysical_states():
    params = ModelParams()
    rho0 = initial_density_matrix(params)
    with pytest.raises(RuntimeError, match="trace drift"):
        evolve_exact(2 * rho0, params, [0.0, 0.1])
    skew = np.zeros_like(rho0)
    skew[0, 1] = 1e-3
    with pytest.raises(RuntimeError, match="Hermiticity drift"):
        evolve_exact(rho0 + skew, params, [0.0, 0.1])


def test_only_the_paper_collision_rate_convention_is_accepted():
    params = ModelParams()
    rho0 = initial_density_matrix(params)
    with pytest.raises(ValueError, match="rate convention must be 'paper-collision', got 'eq2-literal'"):
        evolve_exact(rho0, params, [0.0, 0.1], "eq2-literal")


def test_dimension_mismatch():
    params = ModelParams()
    with pytest.raises(ValueError):
        evolve_exact(np.eye(4) / 4, params, [0.0, 0.1])


def _generator_action(gen, rate, blocks, x):
    """The oracle's L(X) of one Hermitian X under one G and rate, on buffers of its own."""
    x = x[None]
    out, y, scratch = np.empty_like(x), np.empty_like(x), np.empty(x.size // 4, dtype=complex)
    jumps = oracle._jump_views(blocks, x, out, scratch)
    return oracle._generator_action(gen[None], np.full((1, 1, 1, 1, 1), rate), x, out, y, jumps)[0]


@pytest.mark.parametrize("reading", RATE_READINGS)
@pytest.mark.parametrize(
    "params",
    [ModelParams(), ModelParams(gamma=2.5, epsilon=-1.0), ModelParams(n_spins=2, omega=6.0),
     ModelParams(n_spins=2, omega=6.0, d_ho=8)],
)
def test_generator_norm_bound_bounds_the_liouvillian(rng, params, reading):
    # the ||L||_1 the oracle plans from bounds the d x d action it applies, on vec(X)
    params = replace(params, gamma=params.gamma * RATE_READINGS[reading])
    gen, rate, norm = oracle._generator_for(params, GRAY)
    dim = gen.shape[0]
    blocks = [(1, 2**q, 2, dim >> (q + 1), 2**q, 2, dim >> (q + 1)) for q in params.spin_positions]
    for _ in range(5):
        x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        x = x + x.conj().T
        got = _generator_action(gen, rate, blocks, x)
        assert np.abs(got).sum() <= norm * np.abs(x).sum() * (1 + 1e-12)


@pytest.mark.parametrize("reading", RATE_READINGS)
@pytest.mark.parametrize(
    "params",
    [ModelParams(), ModelParams(gamma=2.5, epsilon=-1.0), ModelParams(n_spins=2, omega=6.0),
     ModelParams(n_spins=2, omega=6.0, d_ho=8)],
)
@pytest.mark.parametrize("code", [GRAY, STANDARD_BINARY])
def test_exact_norm_equals_the_dense_generator_norm(params, reading, code):
    params = replace(params, gamma=params.gamma * RATE_READINGS[reading])
    dense = np.linalg.norm(liouvillian(dense_hamiltonian(params, code), lindblad_operators(params)), 1)
    _, _, norm = oracle._generator_for(params, code)
    assert abs(norm - dense) <= 1e-12 * dense


@pytest.mark.parametrize("reading", RATE_READINGS)
@pytest.mark.parametrize("params", [ModelParams(gamma=1.5, epsilon=-1.0), ModelParams(n_spins=2, omega=6.0)])
def test_generator_action_equals_the_dense_generator(rng, params, reading):
    params = replace(params, gamma=params.gamma * RATE_READINGS[reading])
    gen, rate, _ = oracle._generator_for(params, GRAY)
    dim = gen.shape[0]
    x = random_density_matrix(rng, dim)
    blocks = [(1, 2**q, 2, dim >> (q + 1), 2**q, 2, dim >> (q + 1)) for q in params.spin_positions]
    got = _generator_action(gen, rate, blocks, x)
    dense = liouvillian(dense_hamiltonian(params), lindblad_operators(params))
    want = (dense @ x.flatten(order="F")).reshape(dim, dim, order="F")
    assert np.max(np.abs(got - want)) < 1e-12


@pytest.mark.parametrize("reading", RATE_READINGS)
@pytest.mark.parametrize("n_spins", [1, 2])
def test_stacked_member_equals_member_evolved_alone(n_spins, reading):
    members = tuple(ModelParams(gamma=g * RATE_READINGS[reading], n_spins=n_spins, omega=6.0) for g in (0.0, 0.5, 2.5))
    rho0 = initial_density_matrix(members[0])
    grid = [0.0, 0.1, 0.3, 0.7]
    stacked = evolve_exact(rho0, members, grid)
    assert stacked.shape == (3, 4, *rho0.shape)
    for params, got in zip(members, stacked):
        assert np.max(np.abs(got - evolve_exact(rho0, params, grid))) < 1e-12


def test_stacked_models_must_share_one_register():
    params = ModelParams()
    rho0 = initial_density_matrix(params)
    with pytest.raises(ValueError, match="one register"):
        evolve_exact(rho0, (params, ModelParams(d_ho=8)), [0.0, 0.1])
    with pytest.raises(ValueError, match="at least one model"):
        evolve_exact(rho0, (), [0.0, 0.1])


def test_union_grid_reference_equals_the_per_dt_reference():
    # trotter_sweep's five dt grids share one reference per gamma; 3 * 0.1 and 0.3 are one time
    cfg = make_config("trotter_sweep")
    states, rows, index = experiments._references(cfg, experiments._tasks(cfg))
    assert states.shape[:2] == (2, 22)  # 0, 0.1, ..., 2.0, and 2.1 from dt 0.3's seven steps
    for gamma in cfg.gamma:
        params = cfg.model_params(gamma)
        rho0 = initial_density_matrix(params)
        for dt in cfg.dt_grid:
            grid = [k * dt for k in range(experiments.steps_for(cfg.t_final, dt) + 1)]
            alone = evolve_exact(rho0, params, grid)
            assert np.max(np.abs(states[rows[gamma]][index[dt]] - alone)) < 1e-12


def test_substep_cap_rejects_stiff_or_overflowing_models():
    assert not oracle.exceeds_substep_cap(ModelParams(), 0.5)
    for params in (ModelParams(epsilon=1e308), ModelParams(lambda_c=1e308), ModelParams(gamma=1e300)):
        assert oracle.exceeds_substep_cap(params, 0.2)
    # a finite norm of order 1e6 needs about 1e5 substeps per unit interval
    assert oracle.exceeds_substep_cap(ModelParams(omega=1e6), 1.0)


def test_substep_cap_is_judged_from_the_exact_norm():
    # strong coupling at d_ho 8: the plan from the exact ||L||_1 needs about 8000 substeps per
    # interval, the plan from the Pauli-sum bound 2 sum_P |c_P| + 2 sum_k r_k about 11400
    params = ModelParams(d_ho=8, lambda_c=39000.0)
    bound = 2 * sum(abs(t.coefficient) for t in hamiltonian_sum(params, GRAY).terms) + 2 * params.gamma
    norm = oracle._generator_for(params, GRAY)[2]
    assert bound >= norm
    assert oracle._taylor_plan(bound * 0.2)[1] > oracle.MAX_SUBSTEPS >= oracle._taylor_plan(norm * 0.2)[1] > 7000
    assert not oracle.exceeds_substep_cap(params, 0.2)
    assert make_config("noise_sweep", overrides={"d_ho": 8, "lambda_c": 39000.0}).validate() == []
    assert oracle.exceeds_substep_cap(ModelParams(d_ho=8, lambda_c=50000.0), 0.2)
