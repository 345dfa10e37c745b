"""Model parameters, dense Hamiltonian, jump operators, and the initial state."""

import numpy as np
import pytest

from conftest import lindblad_operators
from sbsim.model import (
    ModelParams,
    dense_hamiltonian,
    hamiltonian_sum,
    initial_density_matrix,
)


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(gamma=-1)
    with pytest.raises(ValueError):
        ModelParams(n_spins=0)
    with pytest.raises(ValueError):
        ModelParams(d_ho=1)
    with pytest.raises(ValueError):
        ModelParams(omega=float("inf"))


def test_dense_hamiltonian_hermitian():
    h = dense_hamiltonian(ModelParams())
    np.testing.assert_allclose(h, h.conj().T, atol=1e-14)


def test_decoupled_hamiltonian_commutes_with_boson_number():
    params = ModelParams(lambda_c=0.0)
    h = dense_hamiltonian(params)
    from sbsim.metrics import boson_number

    number = boson_number(params)
    np.testing.assert_allclose(h @ number, number @ h, atol=1e-12)


def test_ground_state_energy_matches_eigensolver():
    h = dense_hamiltonian(ModelParams())
    evals = np.linalg.eigvalsh(h)
    assert evals[0] == min(evals)
    assert np.isrealobj(evals)


def test_hamiltonian_sum_shared_object():
    # circuits and the exact reference must consume the same PauliSum
    assert hamiltonian_sum(ModelParams()) is hamiltonian_sum(ModelParams())


def test_single_spin_jump_operator_is_matrix_unit():
    (op, rate), = lindblad_operators(ModelParams(gamma=0.7))
    assert rate == 0.7
    nonzero = np.argwhere(np.abs(op) > 0)
    assert len(nonzero) == 4  # |0><1| on the spin times identity on 2 boson qubits
    assert np.allclose(op[np.abs(op) > 0], 1.0)
    # spin is qubit 0: the operator maps |1 b1 b0> to |0 b1 b0>
    assert op[0, 4] == 1.0


def test_two_spin_jump_operators_disjoint():
    ops = lindblad_operators(ModelParams(n_spins=2, omega=6, gamma=2.0))
    assert len(ops) == 2
    assert all(rate == 2.0 for _, rate in ops)
    supports = []
    for op, _ in ops:
        anti = op.conj().T @ op
        np.testing.assert_allclose(anti, np.diag(np.diag(anti)), atol=1e-14)
        assert set(np.unique(np.diag(anti).real)) == {0.0, 1.0}
        supports.append(np.diag(anti).real)
    # excited-subspace projectors of different spins overlap on half the register
    assert not np.array_equal(supports[0], supports[1])


def test_initial_density_matrix_projector():
    params = ModelParams()
    rho = initial_density_matrix(params)
    assert abs(np.trace(rho) - 1) < 1e-15
    np.testing.assert_allclose(rho @ rho, rho, atol=1e-15)
    # spin up = |1> on qubit 0, bosons |00>: basis index 100 = 4
    assert rho[4, 4] == 1.0


def test_initial_density_matrix_two_spins():
    params = ModelParams(n_spins=2, omega=6)
    rho = initial_density_matrix(params)
    # register [s1, b1, b0, s2], spin 2 down: index 1000 = 8
    assert rho[8, 8] == 1.0
