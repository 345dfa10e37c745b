"""Density-matrix engine: gates, channels, snapshots, sampling, mitigation."""

import itertools
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from conftest import (
    circuit_of,
    embed_bruteforce,
    kron_all,
    model_qubits,
    partial_trace,
    random_density_matrix,
    random_unitary,
    simulate_bruteforce,
)
from sbsim.circuits import (
    Circuit,
    Gate,
    _collision_gates,
    _trotter_gates,
    assemble_evolution,
)
from sbsim.metrics import fidelity, time_averaged_infidelity
from sbsim.model import InitialStateSpec, ModelParams, hamiltonian_sum, initial_density_matrix
from sbsim.noise import (
    CalibrationData,
    GateCalibration,
    QubitCalibration,
    build_noise_model,
    jakarta_average_calibration,
    kraus_superop,
)
from sbsim.oracle import evolve_exact
from sbsim.pauli import embed_operator
from sbsim.sim import (
    _compile,
    _runs,
    gate_unitary,
    ground_state,
    mitigate_readout,
    sample_counts,
    simulate,
)
from sbsim.transpile import decompose_native


def test_embed_operator_matches_bruteforce(rng):
    for _ in range(10):
        width = int(rng.integers(2, 5))
        n_q = int(rng.integers(1, 3))
        qubits = tuple(int(q) for q in rng.choice(width, size=n_q, replace=False))
        op = rng.normal(size=(2**n_q, 2**n_q)) + 1j * rng.normal(size=(2**n_q, 2**n_q))
        np.testing.assert_allclose(
            embed_operator(op, qubits, width), embed_bruteforce(op, qubits, width), atol=1e-13
        )
        # a stack places each member on its own
        stack = rng.normal(size=(3, 2, 2**n_q, 2**n_q)) + 1j * rng.normal(size=(3, 2, 2**n_q, 2**n_q))
        placed = embed_operator(stack, qubits, width)
        assert placed.shape == (3, 2, 2**width, 2**width)
        for index in np.ndindex(3, 2):
            alone = embed_bruteforce(stack[index], qubits, width)
            np.testing.assert_allclose(placed[index], alone, atol=1e-13)
        with pytest.raises(ValueError, match="does not match operand count"):
            embed_operator(stack[..., :-1], qubits, width)
    # a superoperator on qubits at of an n-qubit register is an operator on its 2n row-then-column bits
    for width in (2, 3):
        for at in [*itertools.permutations(range(width), 1), *itertools.permutations(range(width), 2)]:
            unitary = random_unitary(rng, 2 ** len(at))
            superop = kraus_superop(unitary[None])
            np.testing.assert_allclose(
                embed_operator(superop, at + tuple(width + p for p in at), 2 * width),
                kraus_superop(embed_bruteforce(unitary, at, width)[None]),
                atol=1e-13,
            )


def test_partial_trace_of_product_state(rng):
    a = random_density_matrix(rng, 2)
    b = random_density_matrix(rng, 2)
    c = random_density_matrix(rng, 2)
    rho = kron_all([a, b, c])
    np.testing.assert_allclose(partial_trace(rho, (0,), 3), a, atol=1e-13)
    np.testing.assert_allclose(partial_trace(rho, (2, 0), 3), kron_all([c, a]), atol=1e-13)


def test_empty_circuit_returns_input():
    rho = np.diag([0.25, 0.75]).astype(complex)
    snapshots = simulate(Circuit(1, (Gate("barrier"),)), rho0=rho)
    assert snapshots.shape == (1, 1, 2, 2)
    np.testing.assert_allclose(snapshots[0, -1], rho)


def test_width_limit():
    # the limit counts state qubits: auxiliaries are not held in the state
    assert simulate(Circuit(6, (Gate("barrier"),))).shape == (1, 1, 64, 64)
    assert simulate(Circuit(7, (Gate("barrier"),), tuple(range(1, 7)))).shape == (1, 1, 64, 64)
    with pytest.raises(ValueError, match="7-qubit state exceeds the dense engine limit 6"):
        simulate(Circuit(7))
    with pytest.raises(ValueError, match="7-qubit state exceeds the dense engine limit 6"):
        simulate(Circuit(8, model_register=tuple(range(1, 8))))


def test_collision_block_on_excited_spin():
    # single collision, gamma=1, dt=0.2: p_up -> exp(-0.2)
    c = circuit_of([Gate("x", (0,)), *_collision_gates(1.0, 0.2, 0, 1), Gate("barrier")])
    rho = simulate(c)[0, -1]
    spin = partial_trace(rho, (0,), 2)
    assert spin[1, 1].real == pytest.approx(math.exp(-0.2), abs=1e-12)


def test_noiseless_circuit_approaches_reference_as_dt_shrinks():
    params = ModelParams()
    rho0 = initial_density_matrix(InitialStateSpec(), params)
    errors = []
    for dt in (0.2, 0.05):
        n = round(1.0 / dt)
        circuit = assemble_evolution(params, InitialStateSpec(), n, dt, order=2)
        snaps = simulate(circuit)[0]
        exact = evolve_exact(rho0, params, [dt * k for k in range(n + 1)])
        errors.append(time_averaged_infidelity(snaps, exact))
    assert errors[1] < errors[0]
    assert errors[1] < 1e-3


def test_one_step_channel_equals_damping_after_trotter_unitary():
    # full channel tomography on the 3-qubit model register: the assembled
    # step must act as [amplitude damping on the spin] after [the trotter
    # unitary], matrix unit by matrix unit
    params = ModelParams()
    dt = 0.25
    circuit = assemble_evolution(params, InitialStateSpec(), 1, dt, order=1)
    from conftest import circuit_unitary

    h = hamiltonian_sum(params)
    # on [spin, b hi, b lo]
    u_model = circuit_unitary(circuit_of(_trotter_gates(h.terms, dt, 1, range(h.width)), h.width))

    p = 1 - math.exp(-params.gamma * dt)
    k0 = np.diag([1.0, math.sqrt(1 - p)]).astype(complex)
    k1 = np.array([[0, math.sqrt(p)], [0, 0]], dtype=complex)
    damp = [embed_bruteforce(k, (0,), 3) for k in (k0, k1)]

    first_barrier = next(i for i, g in enumerate(circuit.gates) if g.kind == "barrier")
    stepped = Circuit(circuit.width, circuit.gates[first_barrier + 1 :], circuit.model_register)
    worst = 0.0
    for i in range(8):
        for j in range(8):
            unit = np.zeros((8, 8), dtype=complex)
            unit[i, j] = 1.0
            expected = u_model @ unit @ u_model.conj().T
            expected = sum(k @ expected @ k.conj().T for k in damp)
            # the engine reads and returns states in model order [s, hi, lo]
            out = simulate(stepped, rho0=unit)
            worst = max(worst, float(np.max(np.abs(out[0, -1] - expected))))
    assert worst < 1e-12


def _native_evolution(n_spins: int, order: int, n_steps: int, d_ho: int = 4, dt=0.2):
    params = ModelParams(n_spins=n_spins, omega=6.0 if n_spins == 2 else 4.0, d_ho=d_ho)
    spec = InitialStateSpec(("up", "down")[:n_spins])
    return decompose_native(assemble_evolution(params, spec, n_steps, dt, order))


def _with_final_barrier(circuit: Circuit) -> Circuit:
    """The circuit with a barrier at its end, so that its last snapshot is the final state."""
    return replace(circuit, gates=circuit.gates + (Gate("barrier"),))


def _assert_matches_bruteforce(circuit, xi, cal=None):
    cal = jakarta_average_calibration() if cal is None else cal
    model = build_noise_model(cal, xi) if xi > 0 else None
    result = simulate(_with_final_barrier(circuit), noise=model)
    snapshots, final = simulate_bruteforce(circuit, noise=model)
    assert result.shape[:2] == (1, len(snapshots) + 1)
    final = partial_trace(final, model_qubits(circuit), circuit.width)
    for got, want in zip(result[0], snapshots + [final]):
        assert np.max(np.abs(got - want)) < 1e-12


@pytest.mark.parametrize("xi", [0.0, 0.1, 1.0])
@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("n_spins", [1, 2])
def test_simulate_matches_bruteforce_engine(n_spins, order, xi):
    _assert_matches_bruteforce(_native_evolution(n_spins, order, 3), xi)


def test_two_spins_at_d_ho_8_match_bruteforce():
    # 7 circuit qubits, 5 of them in the state: the width only the aux-free engine admits
    circuit = _native_evolution(2, 2, 1, d_ho=8)
    assert circuit.width == 7 and len(circuit.aux_qubits) == 2
    _assert_matches_bruteforce(circuit, 0.1)


@pytest.mark.parametrize("xi", [0.0, 0.1])
@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("n_spins", [1, 2])
def test_one_step_replayed_equals_written_out_steps(n_spins, order, xi):
    model = build_noise_model(jakarta_average_calibration(), xi) if xi > 0 else None
    written = simulate(_native_evolution(n_spins, order, 3), noise=model)
    replayed = simulate(_native_evolution(n_spins, order, 1), noise=model, repeat=3)
    assert replayed.shape[:2] == written.shape[:2] == (1, 4)
    assert replayed.ndim == 4  # one (k, n, d, d) array
    assert np.array_equal(replayed, written)  # the last snapshot is the final state


def test_repeat_needs_a_block_between_two_barriers():
    step = _native_evolution(1, 2, 1)
    for repeat in (0, -1):
        with pytest.raises(ValueError, match="repeat must be at least 1"):
            simulate(step, repeat=repeat)
    one_barrier = Circuit(1, (Gate("x", (0,)), Gate("barrier")))
    assert len(simulate(one_barrier)[0]) == 1
    with pytest.raises(ValueError, match="fewer"):
        simulate(one_barrier, repeat=2)


def test_compiled_runs_are_bound_to_one_noise_model():
    circuit = _native_evolution(1, 2, 1)
    cal = jakarta_average_calibration()
    model, other = build_noise_model(cal, 0.1), build_noise_model(cal, 0.1)
    compiled: dict = {}
    first = simulate(circuit, noise=model, compiled=compiled)
    again = simulate(circuit, noise=model, compiled=compiled)
    assert np.array_equal(first, again)
    for wrong in (other, None):  # an equal model is still another model
        with pytest.raises(ValueError, match="another noise model"):
            simulate(circuit, noise=wrong, compiled=compiled)
    stack: dict = {}
    model = build_noise_model(cal, (0.0, 0.1))
    first = simulate(circuit, noise=model, compiled=stack)
    again = simulate(circuit, noise=model, compiled=stack)
    assert np.array_equal(first, again)
    for wrong in (build_noise_model(cal, (0.0, 0.1)), build_noise_model(cal, (0.1, 0.0)),
                  build_noise_model(cal, 0.0), build_noise_model(cal, (0.0, 0.1, 0.1)), None):
        with pytest.raises(ValueError, match="another noise model"):
            simulate(circuit, noise=wrong, compiled=stack)
    noiseless: dict = {}
    simulate(circuit, compiled=noiseless)
    simulate(circuit, compiled=noiseless)
    with pytest.raises(ValueError, match="another noise model"):
        simulate(circuit, noise=model, compiled=noiseless)
    with pytest.raises(ValueError, match="at least one noise factor"):
        build_noise_model(cal, ())


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("n_spins", [1, 2])
def test_model_stack_matches_each_model_alone(n_spins, order):
    # each member of a stacked model runs as its one-xi model alone, bit for bit
    cal = jakarta_average_calibration()
    xis = (0.0, 0.01, 1.0)
    step = _native_evolution(n_spins, order, 1)
    stacked = simulate(step, noise=build_noise_model(cal, xis), repeat=3)
    assert stacked.shape[:2] == (len(xis), 4)
    for j, xi in enumerate(xis):
        alone = simulate(step, noise=build_noise_model(cal, xi), repeat=3)
        assert alone.shape[:2] == (1, 4)
        assert np.array_equal(stacked[j], alone[0])  # the last snapshot is the final state


def test_trace_drift_of_one_stack_member_is_caught():
    # a leaky member, made by scaling one member of the sx stack, is caught at its index
    cal = jakarta_average_calibration()
    step = _native_evolution(1, 2, 1)
    key = ("sx", None)
    for xis, j in (((0.0, 0.01, 0.1), 2), ((0.1, 0.0), 0), ((0.01, 0.1), 1)):
        sound = build_noise_model(cal, xis)
        simulate(step, noise=sound, repeat=2)
        sx = sound.channels[key].copy()
        sx[j] *= 0.9
        leaky = replace(sound, channels={**sound.channels, key: sx})
        message = f"trace drift .* under noise member {j} " + re.escape(f"(xi={xis[j]:g})")
        with pytest.raises(RuntimeError, match=message):
            simulate(step, noise=leaky, repeat=2)


def test_nan_in_one_stack_member_is_caught():
    # NaN fails every comparison, so a check written as drift > tolerance would let it through
    cal = jakarta_average_calibration()
    step = _native_evolution(1, 2, 1)
    key = ("sx", None)
    for xis, j in (((0.0, 0.1), 1), ((0.1, 0.01), 0)):
        sound = build_noise_model(cal, xis)
        sx = sound.channels[key].copy()
        sx[j, 0, 0] = np.nan
        broken = replace(sound, channels={**sound.channels, key: sx})
        message = f"trace drift nan .* under noise member {j} " + re.escape(f"(xi={xis[j]:g})")
        with pytest.raises(RuntimeError, match=message):
            simulate(step, noise=broken, repeat=2)


@pytest.mark.parametrize("xis", [None, (0.1, 1.0), (0.0, 0.01, 0.3)], ids=["noiseless", "xi2", "xi3"])
@pytest.mark.parametrize(
    "dts", [(0.3, 0.1, 0.2), (0.2, 0.2), (0.1, 0.25, 0.1, 0.5)], ids=["unsorted", "repeated", "ragged"]
)
@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("n_spins", [1, 2])
def test_each_point_of_a_stacked_step_equals_that_point_alone(n_spins, order, dts, xis):
    # one call runs every dt of the step, each for its own step count up to t = 0.6
    model = None if xis is None else build_noise_model(jakarta_average_calibration(), xis)
    counts = tuple(max(1, round(0.6 / dt)) for dt in dts)
    repeat = counts[0] if len(set(counts)) == 1 else counts  # equal counts also go as one int
    stacked = simulate(_native_evolution(n_spins, order, 1, dt=dts), noise=model, repeat=repeat)
    assert isinstance(stacked, list) and len(stacked) == len(dts)
    for point, dt, count in zip(stacked, dts, counts):
        alone = simulate(_native_evolution(n_spins, order, 1, dt=dt), noise=model, repeat=count)
        assert point.shape == alone.shape == (1 if xis is None else len(xis), count + 1, *alone.shape[2:])
        assert np.array_equal(point, alone)


def test_bad_repeat_for_a_stacked_step_raises_before_compiling():
    step = _native_evolution(1, 2, 1, dt=(0.1, 0.2))
    compiled: dict = {}
    for repeat, count in (((3,), 1), ((3, 2, 1), 3), ((), 0)):
        with pytest.raises(ValueError, match=f"repeat gives {count} counts for the circuit's 2 points"):
            simulate(step, repeat=repeat, compiled=compiled)
    with pytest.raises(ValueError, match="repeat gives 2 counts for the circuit's 1 points"):
        simulate(_native_evolution(1, 2, 1), repeat=(2, 2), compiled=compiled)
    with pytest.raises(ValueError, match="repeat must be at least 1"):
        simulate(step, repeat=(2, 0), compiled=compiled)
    # a point that finishes early leaves the stack, so nothing may follow the block
    trailing = Circuit(1, (Gate("rz", (0,), (0.1, 0.2)), Gate("barrier"), Gate("rz", (0,), (0.3, 0.4)),
                           Gate("barrier"), Gate("x", (0,))))
    with pytest.raises(ValueError, match="nothing after its last barrier"):
        simulate(trailing, repeat=(2, 1), compiled=compiled)
    assert compiled == {}
    assert [len(s[0]) for s in simulate(trailing, repeat=2)] == [3, 3]  # equal counts may run the tail


def test_trace_drift_in_a_stacked_step_names_its_point():
    # the point with the most steps leads the stack, so its member is the first caught
    cal = jakarta_average_calibration()
    step = _native_evolution(1, 2, 1, dt=(0.2, 0.1, 0.3))
    xis = (0.01, 0.1)
    sound = build_noise_model(cal, xis)
    sx = sound.channels[("sx", None)].copy()
    sx[1] *= 0.9
    leaky = replace(sound, channels={**sound.channels, ("sx", None): sx})
    message = "trace drift .* under noise member 1 " + re.escape("(xi=0.1) at point 1;")
    with pytest.raises(RuntimeError, match=message):
        simulate(step, noise=leaky, repeat=(3, 6, 2))


_COLLISION = (Gate("x", (0,)), Gate("cry", (0, 1), 0.9), Gate("cx", (1, 0)), Gate("reset", (1,)))


@pytest.mark.parametrize("xi", [0.0, 0.1])
def test_qubit_outside_the_model_register_is_an_auxiliary(xi):
    # a one-qubit register on two qubits leaves qubit 1 to the collision as its auxiliary
    circuit = decompose_native(Circuit(2, _COLLISION, (0,)))
    assert circuit.aux_qubits == (1,)
    _assert_matches_bruteforce(circuit, xi)


def test_aux_used_again_after_its_reset_without_reset_is_rejected():
    gates = _COLLISION + (Gate("barrier"), Gate("cx", (0, 1)))
    with pytest.raises(ValueError, match="auxiliary 1 is not reset"):
        simulate(Circuit(2, gates, (0,)))


def test_aux_not_clean_when_its_run_starts_is_rejected():
    # cx(2, 1) would put the run of cry(0, 2) on three qubits, so that run skips it and
    # then the reset; the reset joins the run of cx(2, 1), which would start on a dirty
    # auxiliary, and the run that leaves it dirty is rejected
    gates = (Gate("cry", (0, 2), 0.9), Gate("cx", (2, 1)), Gate("reset", (2,)))
    assert [len(run) for run in _runs(gates)] == [1, 2]
    with pytest.raises(ValueError, match="auxiliary 2 is not reset"):
        simulate(Circuit(3, gates, (0, 1)))


def test_aux_reset_commuted_past_a_gate_on_other_qubits_is_accepted():
    # cx(1, 0) shares no qubit with the reset of 2, so the reset joins its collision's run
    prep = (Gate("x", (0,)), Gate("sx", (1,)), Gate("barrier"))
    collision = (Gate("cry", (0, 2), 0.9), Gate("cx", (2, 0)), Gate("cx", (1, 0)), Gate("reset", (2,)))
    assert list(_runs(collision)) == [collision[:2] + collision[3:], collision[2:3]]
    circuit = Circuit(3, prep + collision + (Gate("barrier"),), (1, 0))
    _assert_matches_bruteforce(circuit, 0.0)


@pytest.mark.parametrize("xis", [None, (0.1, 1.0)])
def test_initial_state_is_read_in_model_order(rng, xis):
    # the 1-spin step's model register (nb, 0, ..., nb-1) is not the identity, so this pins
    # the order rho0 is read in; the first snapshot follows the preparation's X on the spin
    step = _native_evolution(1, 2, 1)
    assert step.model_register != tuple(sorted(step.model_register))
    model = None if xis is None else build_noise_model(jakarta_average_calibration(), xis)
    rho0 = random_density_matrix(rng, 8)
    result = simulate(step, noise=model, rho0=rho0)
    assert result.shape == (1 if xis is None else 2, 2, 8, 8)
    for j, got in enumerate(result):
        snapshots, _ = simulate_bruteforce(step, noise=model, member=j, rho0=rho0)
        assert len(snapshots) == len(got)
        for a, b in zip(got, snapshots):
            assert np.max(np.abs(a - b)) < 1e-12


def test_initial_state_on_the_circuit_register_is_rejected():
    step = _native_evolution(1, 2, 1)  # 4 circuit qubits, 3 of them on the model register
    compiled: dict = {}
    for rho0 in (ground_state(step.width), ground_state(3)[0], ground_state(2)):
        with pytest.raises(ValueError, match=re.escape(f"initial state of shape {rho0.shape} is not (8, 8)")):
            simulate(step, rho0=rho0, compiled=compiled)
    assert len(compiled) == 1  # the noise model it is bound to, and no compiled run


@pytest.mark.parametrize("xi", [0.0, 1.0])
def test_reversed_operands_and_mid_circuit_reset_match_bruteforce(xi):
    gates = (
        Gate("sx", (0,)), Gate("x", (3,)), Gate("sx", (2,)), Gate("cx", (3, 0)),
        Gate("rz", (0,), 0.7), Gate("cx", (2, 1)), Gate("barrier"), Gate("reset", (3,)),
        Gate("sx", (3,)), Gate("cx", (1, 3)), Gate("cx", (0, 2)), Gate("id", (1,)),
        Gate("barrier"),
    )
    _assert_matches_bruteforce(Circuit(4, gates), xi)


def _operand_specific_calibration() -> CalibrationData:
    """Every qubit, every sx and every ordered cx pair calibrated differently."""
    qubits = tuple(
        QubitCalibration(90.0 + 10 * q, (120.0 if q % 3 == 0 else 40.0) + 5 * q, 0.02, 0.03)
        for q in range(6)
    )
    gates = [GateCalibration("sx", (q,), 1e-3 + 2e-4 * q, 30.0 + 5 * q) for q in range(6)]
    gates += [
        GateCalibration("cx", (a, b), 0.02 + 0.002 * (a + 2 * b), 300.0 + 20 * a + 7 * b)
        for a in range(6) for b in range(6) if a != b
    ]
    gates += [
        GateCalibration("x", None, 1e-3, 35.0),
        GateCalibration("id", None, 1e-3, 35.0),
        GateCalibration("rz", None, 0.0, 0.0),
    ]
    return CalibrationData(qubits, tuple(gates))


@pytest.mark.parametrize("xi", [0.1, 1.0])
@pytest.mark.parametrize("n_spins", [1, 2])
def test_operand_specific_noise_matches_bruteforce(n_spins, xi):
    cal = _operand_specific_calibration()
    model = build_noise_model(cal, xi)
    assert model.channel_for("cx", (0, 1)) is not model.channel_for("cx", (1, 0))
    _assert_matches_bruteforce(_native_evolution(n_spins, 2, 2), xi, cal)


def test_runs_stop_at_barriers():
    gates = (
        Gate("sx", (0,)), Gate("barrier"), Gate("cx", (0, 1)), Gate("sx", (1,)), Gate("barrier"),
        Gate("rz", (0,), 0.3),
    )
    bounds = [0, 1, 2, 4, 5, 6]
    assert list(_runs(gates)) == [gates[a:b] for a, b in zip(bounds, bounds[1:])]
    circuit = Circuit(2, gates)
    assert len(simulate(circuit)[0]) == 2
    _assert_matches_bruteforce(circuit, 1.0)


@pytest.mark.parametrize("xi", [0.0, 0.1, 1.0])
@pytest.mark.parametrize("n_spins", [1, 2])
def test_every_compiled_run_is_cptp(n_spins, xi):
    for noise, k in ((build_noise_model(jakarta_average_calibration(), (xi, 0.0)), 2), (None, 1)):
        _assert_compiled_runs_are_cptp(n_spins, noise, k)


def _assert_compiled_runs_are_cptp(n_spins, noise, k):
    for order in (1, 2):
        circuit = _native_evolution(n_spins, order, 1)
        runs = {run for run in _runs(circuit.gates) if run[0].kind != "barrier"}
        reduced = 0
        for run in runs:
            superops, qubits = _compile(run, noise, circuit.aux_qubits, {})
            assert not set(qubits) & set(circuit.aux_qubits)
            assert len(superops) == k
            reduced += any(g.kind == "reset" for g in run)
            for superop in superops:
                d = math.isqrt(superop.shape[0])
                assert d == 2 ** len(qubits)
                identity = np.eye(d).ravel()
                assert np.max(np.abs(identity @ superop - identity)) < 1e-12
                choi = superop.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)
                assert np.max(np.abs(choi - choi.conj().T)) < 1e-12
                assert np.linalg.eigvalsh(choi).min() > -1e-12
        assert reduced == n_spins  # one collision run per spin, each reduced to a channel on it


def test_noisy_simulation_preserves_trace_and_hermiticity():
    model = build_noise_model(jakarta_average_calibration(), (1.0, 0.1))
    for n_spins in (1, 2):
        for snapshots in simulate(_native_evolution(n_spins, 2, 5), noise=model):  # the last is the final state
            for snap in snapshots:
                assert abs(np.trace(snap).real - 1.0) < 1e-10
                assert np.max(np.abs(snap - snap.conj().T)) < 1e-10
                assert np.min(np.linalg.eigvalsh((snap + snap.conj().T) / 2)) > -1e-9


@pytest.mark.parametrize("xis", [None, (0.0, 0.1, 1.0)], ids=["noiseless", "stack"])
@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("n_spins", [1, 2])
def test_every_snapshot_is_a_physical_state(n_spins, order, xis):
    # every snapshot of every point and member of a ragged dt stack is Hermitian, of unit trace and PSD
    model = None if xis is None else build_noise_model(jakarta_average_calibration(), xis)
    dts = (0.1, 0.25, 0.1, 0.5)
    repeat = tuple(max(1, round(0.6 / dt)) for dt in dts)
    for point in simulate(_native_evolution(n_spins, order, 1, dt=dts), noise=model, repeat=repeat):
        for snap in point.reshape(-1, *point.shape[2:]):
            assert np.max(np.abs(snap - snap.conj().T)) <= 1e-12
            assert abs(np.trace(snap) - 1.0) <= 1e-12
            assert np.linalg.eigvalsh((snap + snap.conj().T) / 2).min() >= -1e-12


def test_noise_requires_native_circuit():
    model = build_noise_model(jakarta_average_calibration(), 0.1)
    alone = (Gate("cry", (0, 1), 0.3),)
    mid_run = (Gate("sx", (0,)), Gate("ry", (0,), 0.3), Gate("cx", (0, 1)))
    for gates in (alone, mid_run):
        with pytest.raises(ValueError, match="native circuit"):
            simulate(Circuit(2, gates), noise=model)


def test_xi_zero_model_equals_no_model():
    # a member at xi = 0 is exactly the identity channel, so it equals the noiseless run bit for bit
    params = ModelParams()
    circuit = decompose_native(assemble_evolution(params, InitialStateSpec(), 3, 0.2))
    cal = jakarta_average_calibration()
    plain = simulate(circuit)
    nulled = simulate(circuit, noise=build_noise_model(cal, 0.0))
    assert np.array_equal(plain, nulled)
    assert plain.tobytes() == nulled.tobytes()  # signed zeros included


@pytest.mark.parametrize("n_spins", [1, 2])
def test_xi_zero_member_of_a_noisy_stack_equals_no_model(n_spins):
    step = _native_evolution(n_spins, 2, 1)
    plain = simulate(step, repeat=3)
    stacked = simulate(step, noise=build_noise_model(jakarta_average_calibration(), (0.0, 0.1)), repeat=3)
    assert np.array_equal(stacked[:1], plain)
    assert stacked[0].tobytes() == plain[0].tobytes()
    assert not np.array_equal(stacked[1], plain[0])


def test_transpiled_equals_ir_noiseless():
    params = ModelParams(n_spins=2, omega=6)
    circuit = assemble_evolution(params, InitialStateSpec(("up", "down")), 2, 0.2)
    native = decompose_native(circuit)
    rho_a = simulate(circuit)[0, -1]
    rho_b = simulate(native)[0, -1]
    assert fidelity(rho_a, rho_b) > 1 - 1e-9


def _random_gates(rng, qubits, n_gates):
    """Native gates on ``qubits``: one-qubit gates and cx, with random operands and angles."""
    gates = []
    for _ in range(n_gates):
        kind = str(rng.choice(["sx", "x", "rz", "cx", "cx"] if len(qubits) > 1 else ["sx", "x", "rz"]))
        if kind == "cx":
            a, b = rng.choice(qubits, size=2, replace=False)
            gates.append(Gate("cx", (int(a), int(b))))
        else:
            q = int(rng.choice(qubits))
            gates.append(Gate(kind, (q,), float(rng.uniform(-3, 3)) if kind == "rz" else None))
    return gates


def _random_collision_circuit(rng, n_state: int, n_blocks: int) -> Circuit:
    """State qubits 0..n_state-1, in random model order, then two auxiliaries.

    A block is either random gates on the state qubits or a collision-like
    sequence on one state qubit and one auxiliary, ended by the auxiliary's
    reset, with random gates on the other state qubits woven in.  Barriers
    fall between blocks.
    """
    width = n_state + 2
    state = list(range(n_state))
    gates = _random_gates(rng, state, 2 * n_state)
    for _ in range(n_blocks):
        if rng.random() < 0.3:
            gates.append(Gate("barrier"))
        if rng.random() < 0.5:
            gates += _random_gates(rng, state, int(rng.integers(1, 6)))
            continue
        s, a = int(rng.choice(state)), int(rng.choice([n_state, n_state + 1]))
        block = [Gate("sx", (a,)), Gate("cx", (s, a)), Gate("rz", (a,), float(rng.uniform(-3, 3))),
                 Gate("cx", (a, s)), Gate("sx", (s,))]
        others = [q for q in state if q != s]
        for g in block:
            gates.append(g)
            gates += _random_gates(rng, others, int(rng.integers(0, 3)))
        gates.append(Gate("reset", (a,)))
    gates.append(Gate("barrier"))
    return Circuit(width, tuple(gates), tuple(int(q) for q in rng.permutation(n_state)))


def test_runs_commute_only_disjoint_gates(rng):
    for _ in range(200):
        width = int(rng.integers(2, 6))
        gates = []
        for _ in range(int(rng.integers(0, 30))):
            roll = rng.random()
            if roll < 0.1:
                gates.append(Gate("barrier"))
            elif roll < 0.25:
                gates.append(Gate("reset", (int(rng.integers(width)),)))
            else:
                gates += _random_gates(rng, list(range(width)), 1)
        runs = list(_runs(tuple(gates)))
        where = {id(g): i for i, g in enumerate(gates)}
        order = [where[id(g)] for run in runs for g in run]
        assert sorted(order) == list(range(len(gates)))  # every gate once
        for run in runs:
            if run[0].kind == "barrier":
                assert len(run) == 1
                continue
            assert all(g.kind != "barrier" for g in run)
            assert len({q for g in run for q in g.qubits}) <= 2
            reset: set[int] = set()
            for g in run:
                assert reset.isdisjoint(g.qubits)  # nothing after the run's reset of a qubit
                if g.kind == "reset":
                    reset.update(g.qubits)
        for pos, i in enumerate(order):
            if gates[i].kind == "barrier":
                assert pos == i  # barriers keep their positions
        for a, i in enumerate(order):
            for j in order[a + 1:]:
                if set(gates[i].qubits) & set(gates[j].qubits):
                    assert i < j  # gates that share a qubit keep their order


@pytest.mark.parametrize("n_state, n_models", [(2, 1), (3, 2), (4, 1), (5, 3)])
def test_random_noisy_circuits_with_auxiliaries_match_bruteforce(rng, n_state, n_models):
    model = build_noise_model(jakarta_average_calibration(), (0.3, 0.0, 1.0)[:n_models])
    for _ in range(2 if n_state < 5 else 1):
        circuit = _random_collision_circuit(rng, n_state, 8)
        result = simulate(circuit, noise=model)
        assert len(result) == n_models
        assert circuit.gates[-1].kind == "barrier"  # so the last snapshot is the final state
        for j in range(n_models):
            snapshots, final = simulate_bruteforce(circuit, noise=model, member=j)
            assert len(result[j]) == len(snapshots)
            final = partial_trace(final, circuit.model_register, circuit.width)
            for got, want in zip([*result[j], result[j, -1]], [*snapshots, final]):
                assert np.max(np.abs(got - want)) < 1e-12


def _channel_on_kept(superop: np.ndarray, local: list[int], kept: tuple[int, ...]) -> np.ndarray:
    """The channel on ``kept`` of a superoperator on ``local``: the others enter in |0>, traced out after."""
    n, m = len(local), len(kept)
    positions = tuple(local.index(q) for q in kept)
    index = [sum(((i >> (m - 1 - t)) & 1) << (n - 1 - p) for t, p in enumerate(positions)) for i in range(2**m)]
    columns = []
    for i, j in itertools.product(range(2**m), repeat=2):
        basis = np.zeros((2**n, 2**n), dtype=complex)
        basis[index[i], index[j]] = 1.0
        out = (superop @ basis.ravel()).reshape(2**n, 2**n)
        columns.append(partial_trace(out, positions, n).ravel())
    return np.array(columns).T


@pytest.mark.parametrize("n_state", [2, 3])
def test_chain_merged_compile_matches_gate_by_gate_product(rng, n_state):
    # each gate's superoperator placed by basis-state bookkeeping and multiplied in one at a time
    model = build_noise_model(jakarta_average_calibration(), (0.3, 0.0, 1.0))
    reset = kraus_superop(np.array([[[1, 0], [0, 0]], [[0, 1], [0, 0]]]))
    for _ in range(3):
        circuit = _random_collision_circuit(rng, n_state, 8)
        runs = {run for run in _runs(circuit.gates) if run[0].kind != "barrier"}
        assert any(g.kind == "reset" for run in runs for g in run)
        for run, noise in itertools.product(runs, (model, None)):
            superops, kept = _compile(run, noise, circuit.aux_qubits, {})
            local = list(dict.fromkeys(q for g in run for q in g.qubits))
            n = len(local)
            assert len(superops) == (1 if noise is None else 3)
            for j, got in enumerate(superops):
                product = np.eye(4**n, dtype=complex)
                for g in run:
                    at = tuple(local.index(q) for q in g.qubits)
                    superop = reset if g.kind == "reset" else kraus_superop(gate_unitary(g.kind, g.angle)[None])
                    if noise is not None and g.kind != "reset":
                        superop = noise.channel_for(g.kind, g.qubits)[j] @ superop
                    product = embed_bruteforce(superop, at + tuple(n + p for p in at), 2 * n) @ product
                assert np.max(np.abs(got - _channel_on_kept(product, local, kept))) < 1e-13


def test_six_qubit_stack_is_a_valid_state_and_each_member_runs_alone():
    cal = jakarta_average_calibration()
    xis = (0.0, 0.01, 1.0)
    step = _native_evolution(2, 2, 1, d_ho=16)
    assert step.width - len(step.aux_qubits) == 6
    stacked = simulate(step, noise=build_noise_model(cal, xis), repeat=2)
    for j, xi in enumerate(xis):
        for rho in stacked[j]:
            assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
            assert abs(np.trace(rho).real - 1.0) < 1e-10
            assert np.linalg.eigvalsh(rho).min() > -1e-10
        alone = simulate(step, noise=build_noise_model(cal, xi) if xi > 0 else None, repeat=2)
        assert np.array_equal(stacked[j], alone[0])  # the last snapshot is the final state


def test_sample_counts_pure_state():
    rho = ground_state(2)
    counts = sample_counts(rho, 100, seed=7)
    np.testing.assert_array_equal(counts, [100, 0, 0, 0])


def test_sample_counts_readout_flip_rate():
    rho = ground_state(1)
    flip = np.array([[0.9, 0.1], [0.0, 1.0]])
    counts = sample_counts(rho, 100_000, readout=[flip], seed=11)
    ones = counts[1]
    sigma = math.sqrt(0.1 * 0.9 * 100_000)
    assert abs(ones - 10_000) < 3 * sigma


def test_sample_counts_maximally_mixed():
    rho = np.eye(2, dtype=complex) / 2
    counts = sample_counts(rho, 100_000, seed=3)
    sigma = math.sqrt(0.25 * 100_000)
    assert abs(counts[0] - 50_000) < 3 * sigma


def test_sample_counts_reproducible():
    rho = np.eye(4, dtype=complex) / 4
    a = sample_counts(rho, 1000, seed=42)
    b = sample_counts(rho, 1000, seed=42)
    np.testing.assert_array_equal(a, b)


def test_mitigation_identity_confusion():
    counts = np.array([600, 0, 0, 400])
    quasi = mitigate_readout(counts, [np.eye(2), np.eye(2)])
    np.testing.assert_allclose(quasi, [0.6, 0.0, 0.0, 0.4], atol=1e-12)


def test_mitigation_exactly_inverts_known_confusion():
    # push an exact distribution through known confusion matrices, then invert
    m0 = np.array([[0.95, 0.05], [0.08, 0.92]])
    m1 = np.array([[0.97, 0.03], [0.02, 0.98]])
    truth = np.array([0.5, 0.125, 0.25, 0.125])
    noisy = truth @ np.kron(m0, m1)
    shots = 10**6  # exact distribution scaled to integer counts
    counts = np.round(noisy * shots)
    recovered = mitigate_readout(counts, [m0, m1])
    np.testing.assert_allclose(recovered, truth, atol=1e-12)


def test_mitigation_singular_confusion():
    counts = np.array([1, 0])
    with pytest.raises(np.linalg.LinAlgError):
        mitigate_readout(counts, [np.array([[0.5, 0.5], [0.5, 0.5]])])
