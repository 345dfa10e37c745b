"""Native decomposition and routing, checked by unitary and distribution oracles."""

import numpy as np
import pytest

from conftest import circuit_of, circuit_unitary
from sbsim.circuits import Circuit, Gate, _collision_gates, assemble_evolution
from sbsim.model import InitialStateSpec, ModelParams
from sbsim.sim import gate_unitary, simulate
from sbsim.transpile import (
    JAKARTA,
    CouplingMap,
    count_gates,
    decompose_native,
    default_layout,
    route,
)


def _phase_equal(a, b, tol=1e-10):
    k = np.unravel_index(np.argmax(np.abs(b)), b.shape)
    phase = a[k] / b[k]
    return abs(abs(phase) - 1) < 1e-9 and np.allclose(a, phase * b, atol=tol)


def test_ry_decomposes_to_native_sequence():
    c = Circuit(1, (Gate("ry", (0,), np.pi / 2),))
    native = decompose_native(c)
    assert all(g.kind in ("rz", "sx") for g in native.gates)
    assert _phase_equal(circuit_unitary(native), gate_unitary("ry", np.pi / 2))


@pytest.mark.parametrize("theta", [-2.3, -0.4, 0.0, 0.7321, 3.0])
def test_ry_decomposition_any_angle(theta):
    native = decompose_native(Circuit(1, (Gate("ry", (0,), theta),)))
    assert _phase_equal(circuit_unitary(native), gate_unitary("ry", theta))


def test_x_stays_native():
    c = Circuit(1, (Gate("x", (0,)),))
    assert decompose_native(c).gates == c.gates


def test_cry_decomposition_shape_and_unitary():
    c = Circuit(2, (Gate("cry", (0, 1), 0.6),))
    native = decompose_native(c)
    counts = count_gates(native)
    assert counts.cx == 2
    assert all(g.kind in ("rz", "sx", "cx") for g in native.gates)
    assert _phase_equal(circuit_unitary(native), gate_unitary("cry", 0.6))


def test_collision_block_decomposes_to_two_cx_plus_singles():
    native = decompose_native(circuit_of(_collision_gates(1.0, 0.2, 0, 1)))
    before_reset = [g for g in native.gates if g.kind != "reset"]
    assert sum(1 for g in before_reset if g.kind == "cx") == 3  # 2 from cry + 1 explicit
    assert all(g.kind in ("rz", "sx", "cx") for g in before_reset)


def test_decompose_preserves_circuit_channel(rng):
    # state-level agreement on the assembled (unitary + reset) circuit
    params = ModelParams()
    c = assemble_evolution(params, InitialStateSpec(), 2, 0.3, order=1)
    native = decompose_native(c)
    rho_ir = simulate(c)[0, -1]  # the circuit ends with a barrier: the final state
    rho_native = simulate(native)[0, -1]
    assert np.max(np.abs(rho_ir - rho_native)) < 1e-10


def test_coupling_map_helpers():
    assert JAKARTA.neighbors(5) == (3, 4, 6)
    assert JAKARTA.are_coupled(1, 3)
    assert not JAKARTA.are_coupled(0, 2)
    assert JAKARTA.shortest_path(0, 2) == [0, 1, 2]
    assert JAKARTA.shortest_path(4, 6) == [4, 5, 6]
    with pytest.raises(ValueError):
        CouplingMap(2, ((0, 1), (1, 2)))


def test_route_conforming_circuit_unchanged():
    c = Circuit(3, (Gate("cx", (0, 1)), Gate("x", (2,)), Gate("cx", (1, 2))))
    line = CouplingMap(3, ((0, 1), (1, 2)))
    routed = route(c, line, layout=(0, 1, 2))
    assert routed.circuit.gates == c.gates
    assert routed.final_layout == (0, 1, 2)


def test_route_distance_two_costs_one_swap():
    # one CX between qubits at graph distance 2 -> 3 swap CX + the gate
    c = Circuit(3, (Gate("cx", (0, 2)),))
    line = CouplingMap(3, ((0, 1), (1, 2)))
    routed = route(c, line, layout=(0, 1, 2))
    assert count_gates(routed.circuit).cx == 4


def test_route_on_jakarta_distance_two():
    c = Circuit(7, (Gate("cx", (0, 2)),))
    routed = route(c, JAKARTA, layout=tuple(range(7)))
    assert count_gates(routed.circuit).cx == 4


def test_route_cx_count_never_decreases():
    params = ModelParams()
    native = decompose_native(assemble_evolution(params, InitialStateSpec(), 3, 0.2))
    before = count_gates(native).cx
    routed = route(native, JAKARTA)
    assert count_gates(routed.circuit).cx >= before


def test_route_tracks_permutation_and_preserves_distribution(rng):
    # noiseless dense simulation: routed outcome distribution, read through the
    # final layout, must match the unrouted circuit's distribution
    gates = []
    for _ in range(12):
        kind = rng.choice(["cx", "sx", "rz", "x"])
        if kind == "cx":
            a, b = rng.choice(4, size=2, replace=False)
            gates.append(Gate("cx", (int(a), int(b))))
        elif kind == "rz":
            gates.append(Gate("rz", (int(rng.integers(4)),), float(rng.normal())))
        else:
            gates.append(Gate(str(kind), (int(rng.integers(4)),)))
    c = Circuit(4, tuple(gates) + (Gate("barrier"),))
    line = CouplingMap(4, ((0, 1), (1, 2), (2, 3)))
    routed = route(c, line, layout=(0, 1, 2, 3))

    probs_plain = np.diag(simulate(c)[0, -1]).real
    probs_routed = np.diag(simulate(routed.circuit)[0, -1]).real

    remapped = np.zeros_like(probs_plain)
    for idx in range(len(probs_routed)):
        bits = [(idx >> (4 - 1 - q)) & 1 for q in range(4)]
        logical = 0
        for lq in range(4):
            logical = (logical << 1) | bits[routed.final_layout[lq]]
        remapped[logical] += probs_routed[idx]
    np.testing.assert_allclose(remapped, probs_plain, atol=1e-10)


def test_default_layouts_are_valid():
    for width in (4, 5, 6, 7):
        layout = default_layout(width, JAKARTA)
        assert len(set(layout)) == width
        assert all(0 <= q < 7 for q in layout)


def test_count_gates_empty():
    counts = count_gates(Circuit(2))
    assert counts.single_qubit == 0 and counts.cx == 0


def test_count_gates_rejects_non_native():
    with pytest.raises(ValueError):
        count_gates(Circuit(2, (Gate("cry", (0, 1), 0.1),)))


def test_route_width_exceeds_device():
    with pytest.raises(ValueError):
        route(Circuit(8, ()), JAKARTA)
