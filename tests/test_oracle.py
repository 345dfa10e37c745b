"""Exact reference against scipy's expm and closed-form open-system solutions."""

import csv
import math

import numpy as np
import pytest
import scipy.linalg

from sbsim import metrics, noise, oracle, sim, transpile
from sbsim.circuits import assemble_evolution
from sbsim.experiments import make_config, run
from sbsim.encoding import GRAY
from sbsim.model import (
    EQ2_LITERAL,
    PAPER_COLLISION,
    RATE_CONVENTIONS,
    InitialStateSpec,
    ModelParams,
    dense_hamiltonian,
    initial_density_matrix,
    lindblad_operators,
)
from sbsim.oracle import evolve_exact, liouvillian


def _expm_reference(rho0, params, t, convention=PAPER_COLLISION):
    """exp(L t) rho0 from scipy, on an independently built generator."""
    jumps = lindblad_operators(params, convention) if params.gamma > 0 else []
    gen = liouvillian(dense_hamiltonian(params), jumps)
    vec = scipy.linalg.expm(gen * t) @ rho0.astype(complex).flatten(order="F")
    return vec.reshape(rho0.shape, order="F")


def test_unitary_limit_preserves_purity():
    params = ModelParams(gamma=0.0)
    rho0 = initial_density_matrix(InitialStateSpec(), params)
    traj = evolve_exact(rho0, params, [0.0, 0.5, 1.0, 2.0])
    for snap in traj:
        purity = np.trace(snap.rho @ snap.rho).real
        assert abs(purity - 1.0) < 1e-8
        assert abs(np.trace(snap.rho).real - 1.0) < 1e-9
        assert np.max(np.abs(snap.rho - snap.rho.conj().T)) < 1e-10


@pytest.mark.parametrize(
    "convention,decay", [(PAPER_COLLISION, 1.0), (EQ2_LITERAL, 2.0)]
)
def test_decoupled_spin_population_decay(convention, decay):
    # lambda = eps = 0: closed-form p_up(t) = exp(-gamma_eff t)
    params = ModelParams(epsilon=0.0, lambda_c=0.0, omega=0.0, gamma=1.0)
    rho0 = initial_density_matrix(InitialStateSpec(), params)
    grid = [0.2 * k for k in range(11)]
    traj = evolve_exact(rho0, params, grid, convention=convention)
    proj_up = np.zeros((8, 8))
    proj_up[4:, 4:] = np.eye(4)
    for snap in traj:
        expected = np.exp(-decay * params.gamma * snap.t)
        assert abs(np.trace(proj_up @ snap.rho).real - expected) < 1e-6


def test_zero_hamiltonian_coherence_decay():
    # H = 0, gamma > 0: off-diagonals decay as exp(-gamma_eff t / 2)
    gamma = 0.8
    h = np.zeros((2, 2), dtype=complex)
    lower = np.array([[0, 1], [0, 0]], dtype=complex)
    gen = liouvillian(h, [(lower, gamma)])
    plus = np.full((2, 2), 0.5, dtype=complex)
    for t in (0.3, 1.5, 4.0):
        rho = (scipy.linalg.expm(gen * t) @ plus.flatten(order="F")).reshape(2, 2, order="F")
        assert abs(rho[0, 1] - 0.5 * np.exp(-gamma * t / 2)) < 1e-12
        assert abs(rho[1, 1] - 0.5 * np.exp(-gamma * t)) < 1e-12


@pytest.mark.parametrize("n_spins", [1, 2])
@pytest.mark.parametrize("convention", [PAPER_COLLISION, EQ2_LITERAL])
@pytest.mark.parametrize("gamma", [0.0, 1.0])
@pytest.mark.parametrize(
    "grid", [[0.2 * k for k in range(11)], [0.0, 0.5, 1.0, 2.0]], ids=["uniform", "nonuniform"]
)
def test_matches_scipy_expm(n_spins, convention, gamma, grid):
    params = ModelParams(gamma=gamma, n_spins=n_spins)
    spins = ("up",) if n_spins == 1 else ("up", "down")
    rho0 = initial_density_matrix(InitialStateSpec(spins, 0), params)
    traj = evolve_exact(rho0, params, grid, convention)
    assert [snap.t for snap in traj] == grid
    for snap in traj:
        expected = _expm_reference(rho0, params, snap.t, convention)
        assert np.max(np.abs(snap.rho - expected)) < 1e-12


@pytest.mark.parametrize("n_spins", [1, 2])
@pytest.mark.parametrize("convention", [PAPER_COLLISION, EQ2_LITERAL])
@pytest.mark.parametrize("gamma", [0.0, 1.0])
def test_snapshots_are_density_matrices(n_spins, convention, gamma):
    params = ModelParams(gamma=gamma, n_spins=n_spins)
    spins = ("up",) if n_spins == 1 else ("up", "down")
    rho0 = initial_density_matrix(InitialStateSpec(spins, 0), params)
    for snap in evolve_exact(rho0, params, [0.2 * k for k in range(11)], convention):
        assert np.array_equal(snap.rho, snap.rho.conj().T)
        assert abs(np.trace(snap.rho) - 1.0) < 1e-12
        assert np.linalg.eigvalsh(snap.rho).min() >= -1e-12


def test_gamma_sweep_unitary_point_matches_expm(tmp_path):
    # gamma = 0 keeps the reference pure; spurious eigenvalues of an
    # approximate reference are amplified by the square roots in the fidelity
    cfg = make_config(
        "gamma_sweep",
        overrides={"gamma_list": (0.0,), "xi_list": (0.01,), "out_dir": str(tmp_path)},
    )
    csv_path, _ = run(cfg)
    with open(csv_path) as fh:
        (row,) = csv.DictReader(fh)
    params = cfg.model_params(0.0)
    dt = cfg.dt_grid[0]
    n_steps = round(cfg.t_final / dt)
    circuit = assemble_evolution(
        params, cfg.initial_state(), n_steps, dt, cfg.orders[0], cfg.code, cfg.convention
    )
    model = noise.build_noise_model(cfg.calibration_data, 0.01)
    simulated = sim.simulate(transpile.decompose_native(circuit), noise=model).snapshots[-1]
    rho0 = initial_density_matrix(cfg.initial_state(), params)
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
    evolve_exact(initial_density_matrix(InitialStateSpec(), params), params, grid)
    assert len(norms) == len(grid) - 1
    plans = [plan(x) for x in norms]
    assert len(set(plans)) == expected
    for norm_h, (m, s) in zip(norms, plans):
        assert norm_h / s <= oracle._THETA[m]
        costs = [k * max(1, math.ceil(norm_h / theta)) for k, theta in oracle._THETA.items()]
        assert m * s == min(costs)


def test_grid_validation():
    params = ModelParams()
    rho0 = initial_density_matrix(InitialStateSpec(), params)
    with pytest.raises(ValueError):
        evolve_exact(rho0, params, [0.5, 1.0])
    with pytest.raises(ValueError):
        evolve_exact(rho0, params, [0.0, 0.4, 0.2])


def test_drift_checks_reject_unphysical_states():
    params = ModelParams()
    rho0 = initial_density_matrix(InitialStateSpec(), params)
    with pytest.raises(RuntimeError, match="trace drift"):
        evolve_exact(2 * rho0, params, [0.0, 0.1])
    skew = np.zeros_like(rho0)
    skew[0, 1] = 1e-3
    with pytest.raises(RuntimeError, match="Hermiticity drift"):
        evolve_exact(rho0 + skew, params, [0.0, 0.1])


def test_dimension_mismatch():
    params = ModelParams()
    with pytest.raises(ValueError):
        evolve_exact(np.eye(4) / 4, params, [0.0, 0.1])


@pytest.mark.parametrize("convention", RATE_CONVENTIONS)
@pytest.mark.parametrize(
    "params",
    [ModelParams(), ModelParams(gamma=2.5, epsilon=-1.0), ModelParams(n_spins=2, omega=6.0),
     ModelParams(n_spins=2, omega=6.0, d_ho=8)],
)
def test_generator_norm_bound_bounds_the_liouvillian(params, convention):
    gen = oracle._liouvillian_for(params, convention, GRAY)
    assert np.linalg.norm(gen, 1) <= oracle.generator_norm_bound(params, convention, GRAY)


def test_substep_cap_rejects_stiff_or_overflowing_models():
    assert not oracle.exceeds_substep_cap(ModelParams(), 0.5)
    for params in (ModelParams(epsilon=1e308), ModelParams(lambda_c=1e308), ModelParams(gamma=1e300)):
        assert oracle.exceeds_substep_cap(params, 0.2)
    # a finite bound of order 1e6 needs about 1e5 substeps per unit interval
    assert oracle.exceeds_substep_cap(ModelParams(omega=1e6), 1.0)
