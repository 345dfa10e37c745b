"""One register layout: ``ModelParams`` places the model qubits and
``initial_bits`` writes the initial basis state, which both the exact
reference (``initial_density_matrix``) and the circuit preparation
(``assemble_evolution``) read."""

import numpy as np
import pytest

from sbsim.circuits import assemble_evolution
from sbsim.encoding import GRAY, STANDARD_BINARY, encode_hamiltonian
from sbsim.model import ModelParams, initial_density_matrix
from sbsim.sim import simulate


@pytest.mark.parametrize(
    "n_spins, d_ho, spins, bosons",
    [(1, 2, (0,), (1,)), (1, 4, (0,), (1, 2)), (2, 3, (0, 3), (1, 2)), (2, 8, (0, 4), (1, 2, 3))],
)
def test_model_params_lay_out_the_register(n_spins, d_ho, spins, bosons):
    params = ModelParams(n_spins=n_spins, d_ho=d_ho)
    assert params.spin_positions == spins
    assert params.boson_positions == bosons
    assert params.n_boson_qubits == len(bosons)
    assert params.register_width == n_spins + len(bosons)


@pytest.mark.parametrize("kind", [GRAY, STANDARD_BINARY])
@pytest.mark.parametrize("d_ho", [3, 4, 8])
@pytest.mark.parametrize("n_spins", [1, 2])
def test_prepared_state_is_the_initial_state(n_spins, d_ho, kind):
    params = ModelParams(n_spins=n_spins, d_ho=d_ho)
    ((snapshot,),) = simulate(assemble_evolution(params, 0, 0.2, code_kind=kind))
    assert np.array_equal(snapshot, initial_density_matrix(params))


@pytest.mark.parametrize(
    "build",
    [
        lambda params, kind: encode_hamiltonian(params, kind),
        lambda params, kind: assemble_evolution(params, 2, 0.2, code_kind=kind),
    ],
    ids=["encode_hamiltonian", "assemble_evolution"],
)
def test_unknown_code_kind_raises(build):
    with pytest.raises(ValueError, match="unknown code kind 'grey'"):
        build(ModelParams(), "grey")
