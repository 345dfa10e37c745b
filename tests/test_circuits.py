"""Circuit constructors against dense matrix-product and channel oracles."""

import math

import numpy as np
import pytest
import scipy.linalg

from conftest import circuit_of, circuit_unitary, embed_bruteforce, kron_all, PAULI
from sbsim.circuits import (
    Circuit,
    Gate,
    _collision_gates,
    _pauli_exponential_gates,
    _trotter_gates,
    assemble_evolution,
    collision_angle,
    evolution_layout,
)
from sbsim.model import (
    EQ2_LITERAL,
    PAPER_COLLISION,
    InitialStateSpec,
    ModelParams,
    hamiltonian_sum,
)
from sbsim.pauli import PauliString, PauliSum, canonicalize
from sbsim.transpile import decompose_native


def _string_matrix(term: PauliString) -> np.ndarray:
    return term.to_dense()


def _exponential(term: PauliString, angle: float) -> Circuit:
    """exp(-i angle coeff P), letter k of P on qubit k."""
    return circuit_of(_pauli_exponential_gates(term, angle, range(term.width)), term.width)


def _step(h: PauliSum, dt: float, order: int) -> Circuit:
    """One product-formula step of the Hamiltonian's terms in canonical order, letter k on qubit k."""
    return circuit_of(_trotter_gates(canonicalize(h).terms, dt, order, range(h.width)), h.width)


def test_single_z_is_one_rz():
    frag = _exponential(PauliString("Z"), 0.3)
    assert [g.kind for g in frag.gates] == ["rz"]
    assert frag.gates[0].angle == pytest.approx(0.6)
    np.testing.assert_allclose(
        circuit_unitary(frag), scipy.linalg.expm(-0.3j * PAULI["Z"]), atol=1e-14
    )


def test_zz_staircase_pattern():
    frag = _exponential(PauliString("ZZ"), 0.45)
    assert [g.kind for g in frag.gates] == ["cx", "rz", "cx"]
    np.testing.assert_allclose(
        circuit_unitary(frag),
        scipy.linalg.expm(-0.45j * kron_all([PAULI["Z"], PAULI["Z"]])),
        atol=1e-13,
    )


def test_zero_angle_is_identity():
    frag = _exponential(PauliString("XYZ"), 0.0)
    np.testing.assert_allclose(circuit_unitary(frag), np.eye(8), atol=1e-13)


def test_identity_string_rejected():
    with pytest.raises(ValueError):
        _exponential(PauliString("II"), 0.1)


def test_complex_coefficient_rejected():
    with pytest.raises(ValueError):
        _exponential(PauliString("X", 1j), 0.1)


@pytest.mark.parametrize("letters", ["X", "Y", "XZ", "YY", "XIZ", "IYX", "XYZI"])
def test_exponential_matches_expm_exactly(letters):
    # exact including global phase, per the staircase construction
    coeff = 0.731
    frag = _exponential(PauliString(letters, coeff), 0.37)
    target = scipy.linalg.expm(-1j * 0.37 * coeff * _string_matrix(PauliString(letters)))
    np.testing.assert_allclose(circuit_unitary(frag), target, atol=1e-12)


def test_exponential_random_strings(rng):
    for _ in range(15):
        width = int(rng.integers(1, 5))
        letters = "".join(rng.choice(list("IXYZ"), size=width))
        if set(letters) == {"I"}:
            continue
        coeff = float(rng.normal())
        angle = float(rng.normal())
        frag = _exponential(PauliString(letters, coeff), angle)
        target = scipy.linalg.expm(-1j * angle * coeff * _string_matrix(PauliString(letters)))
        np.testing.assert_allclose(circuit_unitary(frag), target, atol=1e-12)


def test_single_term_orders_agree():
    h = PauliSum((PauliString("XZ", 0.8),))
    u1 = circuit_unitary(_step(h, 0.3, 1))
    u2 = circuit_unitary(_step(h, 0.3, 2))
    np.testing.assert_allclose(u1, u2, atol=1e-13)


def test_second_order_beats_first_order():
    h = hamiltonian_sum(ModelParams())
    exact = scipy.linalg.expm(-0.1j * h.to_dense())
    err1 = np.linalg.norm(circuit_unitary(_step(h, 0.1, 1)) - exact)
    err2 = np.linalg.norm(circuit_unitary(_step(h, 0.1, 2)) - exact)
    assert err2 < err1


def test_two_half_steps_beat_one_full_step():
    h = hamiltonian_sum(ModelParams())
    exact = scipy.linalg.expm(-0.2j * h.to_dense())
    full = circuit_unitary(_step(h, 0.2, 1))
    half = circuit_unitary(_step(h, 0.1, 1))
    assert np.linalg.norm(half @ half - exact) < np.linalg.norm(full - exact)


def test_second_order_is_first_order_with_reversed_half():
    # structural identity: U2(dt) = reversed-order U1(dt/2) times U1(dt/2)
    h = hamiltonian_sum(ModelParams())
    forward = circuit_unitary(_step(h, 0.15, 1))
    terms = canonicalize(h).terms
    reversed_sum = PauliSum(tuple(reversed(terms)))
    backward_gates = []
    for t in reversed_sum.terms:
        backward_gates.extend(_exponential(t, 0.15).gates)
    backward = circuit_unitary(Circuit(h.width, tuple(backward_gates)))
    u2 = circuit_unitary(_step(h, 0.3, 2))
    np.testing.assert_allclose(u2, backward @ forward, atol=1e-12)


def test_unsupported_order():
    with pytest.raises(ValueError):
        _step(PauliSum((PauliString("X", 1.0),)), 0.1, 3)


def test_collision_angles():
    assert collision_angle(0.0, 0.2) == 0.0
    assert collision_angle(1.0, 0.2, PAPER_COLLISION) == pytest.approx(
        math.asin(math.sqrt(1 - math.exp(-0.2))), abs=1e-12
    )
    # frozen from the closed form: arcsin(sqrt(1 - exp(-0.2))), arcsin(sqrt(1 - exp(-0.4)))
    assert collision_angle(1.0, 0.2, PAPER_COLLISION) == pytest.approx(0.4397986259359949, abs=1e-12)
    assert collision_angle(1.0, 0.2, EQ2_LITERAL) == pytest.approx(0.6115993522446161, abs=1e-12)
    with pytest.raises(ValueError):
        collision_angle(-1.0, 0.2)


def _collision_channel_on_spin(gamma, dt, convention):
    """Brute-force channel tomography of the block, aux traced out."""
    from sbsim.sim import gate_unitary

    block = circuit_of(_collision_gates(gamma, dt, 0, 1, convention))

    def apply_block(rho_spin):
        rho = np.kron(rho_spin, np.diag([1.0, 0.0]).astype(complex))
        for g in block.gates:
            if g.kind == "reset":
                k0 = embed_bruteforce(np.array([[1, 0], [0, 0]], dtype=complex), g.qubits, 2)
                k1 = embed_bruteforce(np.array([[0, 1], [0, 0]], dtype=complex), g.qubits, 2)
                rho = k0 @ rho @ k0.conj().T + k1 @ rho @ k1.conj().T
            else:
                u = embed_bruteforce(gate_unitary(g.kind, g.angle), g.qubits, 2)
                rho = u @ rho @ u.conj().T
        return np.einsum(rho.reshape(2, 2, 2, 2), [0, 1, 2, 1], [0, 2])

    choi = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            unit = np.zeros((2, 2), dtype=complex)
            unit[i, j] = 1.0
            out = apply_block(unit)
            choi += np.kron(unit, out)
    return choi


def _amplitude_damping_choi(p):
    k0 = np.array([[1, 0], [0, math.sqrt(1 - p)]], dtype=complex)
    k1 = np.array([[0, math.sqrt(p)], [0, 0]], dtype=complex)
    choi = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            unit = np.zeros((2, 2), dtype=complex)
            unit[i, j] = 1.0
            choi += np.kron(unit, k0 @ unit @ k0.conj().T + k1 @ unit @ k1.conj().T)
    return choi


@pytest.mark.parametrize("convention,scale", [(PAPER_COLLISION, 1.0), (EQ2_LITERAL, 2.0)])
def test_collision_block_is_amplitude_damping(convention, scale):
    gamma, dt = 1.3, 0.17
    choi = _collision_channel_on_spin(gamma, dt, convention)
    expected = _amplitude_damping_choi(1 - math.exp(-scale * gamma * dt))
    assert np.max(np.abs(choi - expected)) < 1e-12


def test_collision_block_gate_order():
    block = circuit_of(_collision_gates(1.0, 0.2, 3, 4, PAPER_COLLISION))
    kinds = [g.kind for g in block.gates]
    assert kinds == ["cry", "cx", "reset"]
    assert block.gates[0].qubits == (3, 4)  # spin controls the aux rotation
    assert block.gates[1].qubits == (4, 3)  # aux controls the spin flip
    assert block.gates[2].qubits == (4,)


def test_collision_gamma_zero_identity_channel():
    choi = _collision_channel_on_spin(0.0, 0.2, PAPER_COLLISION)
    assert np.max(np.abs(choi - _amplitude_damping_choi(0.0))) < 1e-14


def test_assemble_zero_steps():
    c = assemble_evolution(ModelParams(), InitialStateSpec(), 0, 0.2)
    kinds = [g.kind for g in c.gates]
    assert kinds == ["x", "barrier"]
    assert c.aux_qubits == (3,)
    assert c.model_register == (2, 0, 1)


def test_assemble_barriers_and_steps():
    c = assemble_evolution(ModelParams(), InitialStateSpec(), 10, 0.2)
    assert sum(1 for g in c.gates if g.kind == "barrier") == 11
    assert sum(1 for g in c.gates if g.kind == "reset") == 10
    # resets only touch the aux qubit
    assert all(g.qubits == (3,) for g in c.gates if g.kind == "reset")


def test_assemble_two_spins_collisions_per_step():
    params = ModelParams(n_spins=2, omega=6)
    c = assemble_evolution(params, InitialStateSpec(("up", "down")), 3, 0.2)
    assert c.width == 6
    assert c.aux_qubits == (0, 5)
    assert sum(1 for g in c.gates if g.kind == "cry") == 6  # two collisions per step
    assert c.model_register == (1, 2, 3, 4)


def test_assemble_gamma_zero_has_no_collisions():
    c = assemble_evolution(ModelParams(gamma=0.0), InitialStateSpec(), 5, 0.2)
    assert all(g.kind not in ("cry", "reset") for g in c.gates)


def test_assemble_ends_with_the_final_barrier():
    for gamma in (0.0, 1.0):
        c = assemble_evolution(ModelParams(gamma=gamma), InitialStateSpec(), 2, 0.2)
        assert c.gates[-1].kind == "barrier"
        assert c.gates[-2].kind != "barrier"


def test_assemble_boson_level_preparation():
    c = assemble_evolution(ModelParams(), InitialStateSpec(("down",), 3), 0, 0.2)
    x_targets = {g.qubits[0] for g in c.gates if g.kind == "x"}
    assert x_targets == {0}  # gray(3) = 10 on [b hi, b lo]


def test_gate_validation():
    with pytest.raises(ValueError):
        Gate("cx", (1, 1))
    with pytest.raises(ValueError):
        Gate("rz", (0,))
    with pytest.raises(ValueError):
        Gate("x", (0,), 0.5)
    with pytest.raises(ValueError):
        Gate("warp", (0,))
    with pytest.raises(ValueError):
        Circuit(1, (Gate("x", (3,)),))
    with pytest.raises(ValueError, match=r"x needs 1 operand\(s\), got \(0, 1\)"):
        Gate("x", (0, 1))
    with pytest.raises(ValueError, match=r"rz needs 1 operand\(s\), got \(\)"):
        Gate("rz", (), 0.3)
    with pytest.raises(ValueError, match=r"reset needs 1 operand\(s\), got \(0, 1\)"):
        Gate("reset", (0, 1))


def test_angle_tuples_are_checked_when_built():
    with pytest.raises(ValueError, match="non-empty tuple"):
        Gate("rz", (0,), ())
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="needs a finite angle"):
            Gate("cry", (0, 1), (0.1, bad))
    with pytest.raises(ValueError, match=r"angle tuples of lengths \[2, 3\] in one circuit"):
        Circuit(1, (Gate("rz", (0,), (0.1, 0.2)), Gate("ry", (0,), (0.1, 0.2, 0.3))))
    with pytest.raises(ValueError, match="non-empty tuple"):
        assemble_evolution(ModelParams(), InitialStateSpec(("up",)), 1, ())
    assert Circuit(1, (Gate("rz", (0,), (0.1, 0.2)), Gate("rz", (0,), 0.3))).points == 2
    assert Circuit(1, (Gate("rz", (0,), 0.3),)).points is None


def test_gate_hash_is_fixed_at_construction_and_equality_compares_fields():
    import pickle

    gate = Gate("rz", (1,), (0.1, 0.2))
    assert hash(gate) == hash(("rz", (1,), (0.1, 0.2)))
    assert gate == Gate("rz", (1,), (0.1, 0.2)) and gate != Gate("rz", (1,), (0.1, 0.3))
    assert gate != Gate("rz", (1,), 0.1) and Gate("x", (0,)) != Gate("x", (1,))
    copy = pickle.loads(pickle.dumps(gate))
    assert copy == gate and hash(copy) == hash(gate)


def _bits(angle) -> str | None:
    return None if angle is None else float(angle).hex()


@pytest.mark.parametrize("gamma", [0.0, 1.0])
@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("n_spins", [1, 2])
def test_dt_tuple_build_stacks_the_bits_of_each_scalar_build(n_spins, order, gamma):
    # point p of every angle has the bits of the build at dts[p] alone, before and after
    # decomposition; every other gate and the structure are the same
    params = ModelParams(n_spins=n_spins, gamma=gamma)
    spec = InitialStateSpec(("up", "down")[:n_spins])
    dts = (0.3, 0.1, 0.3, 0.25)
    stacked = assemble_evolution(params, spec, 2, dts, order)
    for build in (lambda c: c, decompose_native):
        circuit = build(stacked)
        assert circuit.points == len(dts)
        for p, dt in enumerate(dts):
            alone = build(assemble_evolution(params, spec, 2, dt, order))
            assert alone.points is None
            assert (circuit.width, circuit.model_register) == (alone.width, alone.model_register)
            assert [(g.kind, g.qubits) for g in circuit.gates] == [(g.kind, g.qubits) for g in alone.gates]
            angles = [_bits(g.angle[p] if isinstance(g.angle, tuple) else g.angle) for g in circuit.gates]
            assert angles == [_bits(g.angle) for g in alone.gates]


def test_circuit_invariants():
    with pytest.raises(ValueError, match="unknown gate kind 'measure'"):
        Gate("measure", (0,))
    with pytest.raises(ValueError, match=r"reset on model qubit \(0,\)"):
        Circuit(2, (Gate("reset", (0,)),), model_register=(0,))
    assert Circuit(2, (Gate("reset", (1,)),), model_register=(0,)).aux_qubits == (1,)
    assert Circuit(2, (Gate("reset", (0,)),)).aux_qubits == ()  # no register: every qubit a model qubit


def test_model_register_must_permute_the_non_auxiliary_qubits():
    # the auxiliaries are the qubits outside the register, so a register of distinct
    # qubits inside the circuit permutes the rest; a repeated or outside qubit raises
    for register in ((3, 1, 2), (1, 2), (1, 2, 3, 0), (4, 0, 2, 1, 3), ()):
        c = Circuit(5, model_register=list(register))
        assert c.model_register == register
        assert sorted(register) == [q for q in range(5) if q not in c.aux_qubits]
    for register in ((1, 1, 3), (1, 2, 3, 3), (1, 2, 5), (-1, 2)):
        with pytest.raises(ValueError, match="repeats a qubit or leaves the register of width 5"):
            Circuit(5, model_register=register)


@pytest.mark.parametrize("n_spins", [1, 2])
def test_assembled_auxiliaries_are_the_layout_auxiliaries(n_spins):
    params = ModelParams(n_spins=n_spins)
    c = assemble_evolution(params, InitialStateSpec(("up",) * n_spins), 1, 0.2)
    width, model_register, aux_for_spin = evolution_layout(params)
    assert (c.width, c.model_register) == (width, model_register)
    assert c.aux_qubits == aux_for_spin
