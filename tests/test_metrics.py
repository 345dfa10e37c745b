"""Fidelity, averaged infidelity, observables, and correlators."""

import numpy as np
import pytest

from conftest import kron_all, random_density_matrix, random_unitary
from sbsim.metrics import (
    boson_number,
    connected_correlation,
    expectation,
    fidelity,
    infidelity,
    spin_operator,
    sqrtm_psd,
    time_averaged_infidelity,
)
from sbsim.model import InitialStateSpec, ModelParams, initial_density_matrix


def _spin_pair(axis, params):
    return [spin_operator(axis, spin, params) for spin in (0, 1)]


def _pure(vec):
    vec = np.asarray(vec, dtype=complex)
    vec = vec / np.linalg.norm(vec)
    return np.outer(vec, vec.conj())


def test_fidelity_with_itself(rng):
    rho = random_density_matrix(rng, 8)
    assert abs(fidelity(rho, rho) - 1.0) < 1e-10


def test_fidelity_orthogonal_pure_states():
    assert fidelity(_pure([1, 0]), _pure([0, 1])) < 1e-15


def test_fidelity_pure_vs_maximally_mixed():
    assert abs(fidelity(_pure([1, 0]), np.eye(2) / 2) - 0.5) < 1e-12


def test_fidelity_symmetry_and_unitary_invariance(rng):
    for _ in range(10):
        rho = random_density_matrix(rng, 4)
        sigma = random_density_matrix(rng, 4)
        assert abs(fidelity(rho, sigma) - fidelity(sigma, rho)) < 1e-10
        u = random_unitary(rng, 4)
        rotated = fidelity(u @ rho @ u.conj().T, u @ sigma @ u.conj().T)
        assert abs(rotated - fidelity(rho, sigma)) < 1e-10


def test_fidelity_pure_state_cross_check(rng):
    for _ in range(10):
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        rho = _pure(psi)
        sigma = random_density_matrix(rng, 4)
        assert abs(fidelity(rho, sigma) - np.trace(rho @ sigma).real) < 1e-10


def test_fidelity_dimension_mismatch():
    with pytest.raises(ValueError):
        fidelity(np.eye(2) / 2, np.eye(4) / 4)


@pytest.mark.parametrize("dim", [2, 8, 64])
def test_stacked_scores_equal_pair_at_a_time_bit_for_bit(rng, dim):
    rhos = np.array([random_density_matrix(rng, dim) for _ in range(7)])
    sigmas = np.array([random_density_matrix(rng, dim) for _ in range(7)])
    sigmas[2] = _pure(np.eye(dim)[1])  # a rank-one reference, as at t = 0
    alone = [infidelity(rho, sigma) for rho, sigma in zip(rhos, sigmas)]
    assert np.array_equal(infidelity(rhos, sigmas), alone)
    assert np.array_equal(infidelity(rhos, sigmas, sqrtm_psd(sigmas)), alone)
    assert np.array_equal(sqrtm_psd(sigmas), [sqrtm_psd(sigma) for sigma in sigmas])
    op = random_density_matrix(rng, dim)
    assert np.array_equal(expectation(rhos, op), [expectation(rho, op) for rho in rhos])
    assert isinstance(infidelity(rhos[0], sigmas[0]), float)


def test_stacked_correlations_equal_state_at_a_time_bit_for_bit(rng):
    pair = _spin_pair("Z", ModelParams(n_spins=2, omega=6))
    states = np.array([random_density_matrix(rng, 16) for _ in range(5)])
    assert np.array_equal(connected_correlation(states, *pair), [connected_correlation(s, *pair) for s in states])


def test_time_averaged_infidelity_identical_trajectories(rng):
    traj = np.array([random_density_matrix(rng, 4) for _ in range(5)])
    assert time_averaged_infidelity(traj, traj) < 1e-10


def test_time_averaged_infidelity_excludes_t0(rng):
    rho_a = random_density_matrix(rng, 2)
    rho_b = random_density_matrix(rng, 2)
    a = np.array([rho_a, rho_a])
    b = np.array([rho_b, rho_b])
    # only the second (t > 0) snapshot counts; t=0 disagreement is ignored
    assert time_averaged_infidelity(a, a) < 1e-10
    assert abs(time_averaged_infidelity(a, b) - infidelity(rho_a, rho_b)) < 1e-12


def test_time_averaged_infidelity_grid_mismatch(rng):
    rho = random_density_matrix(rng, 2)
    with pytest.raises(ValueError):
        time_averaged_infidelity(np.array([rho, rho]), np.array([rho, rho, rho]))
    with pytest.raises(ValueError, match="no t > 0"):
        time_averaged_infidelity(np.array([rho]), np.array([rho]))


def test_expectations_on_initial_state():
    params = ModelParams()
    rho = initial_density_matrix(InitialStateSpec(("up",), 0), params)
    assert abs(expectation(rho, boson_number(params))) < 1e-12
    assert abs(expectation(rho, spin_operator("Z", 0, params)) - 1.0) < 1e-12
    down = initial_density_matrix(InitialStateSpec(("down",), 0), params)
    assert abs(expectation(down, spin_operator("Z", 0, params)) + 1.0) < 1e-12


def test_expectation_maximally_mixed():
    params = ModelParams()
    rho = np.eye(8, dtype=complex) / 8
    assert abs(expectation(rho, spin_operator("Z", 0, params))) < 1e-12
    assert abs(expectation(rho, spin_operator("X", 0, params))) < 1e-12


def test_expectation_boson_number_counts_levels():
    params = ModelParams()
    rho = initial_density_matrix(InitialStateSpec(("down",), 2), params)
    assert abs(expectation(rho, boson_number(params)) - 2.0) < 1e-12


def test_connected_correlation_product_state_vanishes(rng):
    params = ModelParams(n_spins=2, omega=6)
    rho = initial_density_matrix(InitialStateSpec(("up", "down"), 0), params)
    assert abs(connected_correlation(rho, *_spin_pair("Z", params))) < 1e-10
    assert abs(connected_correlation(rho, *_spin_pair("X", params))) < 1e-10


def test_connected_correlation_bell_state():
    # (|up down> + |down up>)/sqrt(2) on the spins, boson in |00>
    params = ModelParams(n_spins=2, omega=6)
    up_down = np.zeros(16)
    up_down[0b1000] = 1.0
    down_up = np.zeros(16)
    down_up[0b0001] = 1.0
    bell = _pure(up_down + down_up)
    # direct 4x4-subspace evaluation: <Z1 Z2> = -1, <Z1> = <Z2> = 0
    assert abs(connected_correlation(bell, *_spin_pair("Z", params)) + 1.0) < 1e-12


def test_connected_correlation_ancilla_invariance(rng):
    params2 = ModelParams(n_spins=2, omega=6)
    spins = random_density_matrix(rng, 4)
    # spins at register positions 0 and 3: build [s1, b1, b0, s2] from a 2-spin state
    full = np.zeros((16, 16), dtype=complex)
    boson = np.diag([0.7, 0.3]).astype(complex)
    # rho = s1 x (b1) x (b0) x s2 requires reordering; use a product of marginals
    s1 = np.array([[0.6, 0.2j], [-0.2j, 0.4]])
    s2 = np.array([[0.1, 0.05], [0.05, 0.9]])
    full = kron_all([s1, boson, boson, s2])
    value = connected_correlation(full, *_spin_pair("Z", params2))
    assert abs(value) < 1e-10  # product states stay uncorrelated under ancillas


def test_connected_correlation_needs_two_spins():
    # the second spin's operator does not exist on a one-spin register
    with pytest.raises(ValueError, match="spin index 1 out of range"):
        _spin_pair("Z", ModelParams())
