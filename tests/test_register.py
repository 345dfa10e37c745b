"""One register layout: ``ModelParams`` places the model qubits and
``initial_bits`` writes the initial basis state, which both the exact
reference (``initial_density_matrix``) and the circuit preparation
(``assemble_evolution``) read."""

import itertools

import numpy as np
import pytest

from sbsim.circuits import assemble_evolution
from sbsim.encoding import GRAY, STANDARD_BINARY, encode_hamiltonian
from sbsim.model import InitialStateSpec, ModelParams, initial_bits, initial_density_matrix
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


def test_initial_bits_write_spins_and_the_code_word():
    params = ModelParams(n_spins=2, d_ho=8)
    # gray(5) = 111, binary(5) = 101 on positions 1..3; spins at 0 and 4
    assert initial_bits(InitialStateSpec(("up", "down"), 5), params, GRAY) == (1, 1, 1, 1, 0)
    assert initial_bits(InitialStateSpec(("down", "up"), 5), params, STANDARD_BINARY) == (0, 1, 0, 1, 1)


@pytest.mark.parametrize("kind", [GRAY, STANDARD_BINARY])
@pytest.mark.parametrize("d_ho", [3, 4, 8])
@pytest.mark.parametrize("n_spins", [1, 2])
def test_prepared_state_is_the_initial_state(n_spins, d_ho, kind):
    params = ModelParams(n_spins=n_spins, d_ho=d_ho)
    for flags in itertools.product(("up", "down"), repeat=n_spins):
        for level in range(d_ho):
            spec = InitialStateSpec(flags, level)
            circuit = assemble_evolution(params, spec, 0, 0.2, code_kind=kind)
            ((snapshot,),) = simulate(circuit)
            assert np.array_equal(snapshot, initial_density_matrix(spec, params, kind)), (flags, level)


@pytest.mark.parametrize(
    "build",
    [
        lambda params, kind: encode_hamiltonian(params, kind),
        lambda params, kind: initial_density_matrix(InitialStateSpec(), params, kind),
        lambda params, kind: assemble_evolution(params, InitialStateSpec(), 2, 0.2, code_kind=kind),
    ],
    ids=["encode_hamiltonian", "initial_density_matrix", "assemble_evolution"],
)
def test_unknown_code_kind_raises(build):
    with pytest.raises(ValueError, match="unknown code kind 'grey'"):
        build(ModelParams(), "grey")


@pytest.mark.parametrize(
    "spec, message",
    [(InitialStateSpec(("up", "down")), "one spin state flag per spin"),
     (InitialStateSpec(("up",), 4), "boson level 4 out of range")],
)
def test_preparation_checks_the_initial_state(spec, message):
    with pytest.raises(ValueError, match=message):
        assemble_evolution(ModelParams(), spec, 1, 0.2)
