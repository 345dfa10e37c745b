"""Density-matrix engine: gates, channels, snapshots, sampling, mitigation."""

import math

import numpy as np
import pytest

from conftest import embed_bruteforce, kron_all, random_density_matrix, simulate_bruteforce
from sbsim.circuits import (
    ROLE_AUX,
    ROLE_BOSON,
    ROLE_SPIN,
    Circuit,
    Gate,
    assemble_evolution,
    collision_block,
    trotter_step,
)
from sbsim.metrics import fidelity, time_averaged_infidelity
from sbsim.model import InitialStateSpec, ModelParams, hamiltonian_sum, initial_density_matrix
from sbsim.noise import (
    CalibrationData,
    GateCalibration,
    QubitCalibration,
    build_noise_model,
    jakarta_average_calibration,
)
from sbsim.oracle import TrajectorySnapshot, evolve_exact
from sbsim.pauli import embed_operator
from sbsim.sim import (
    CountsTable,
    _compile,
    _runs,
    ground_state,
    mitigate_readout,
    partial_trace,
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


def test_partial_trace_of_product_state(rng):
    a = random_density_matrix(rng, 2)
    b = random_density_matrix(rng, 2)
    c = random_density_matrix(rng, 2)
    rho = kron_all([a, b, c])
    np.testing.assert_allclose(partial_trace(rho, (0,), 3), a, atol=1e-13)
    np.testing.assert_allclose(partial_trace(rho, (2, 0), 3), kron_all([c, a]), atol=1e-13)


def test_empty_circuit_returns_input():
    rho = np.diag([0.25, 0.75]).astype(complex)
    result = simulate(Circuit(1), rho0=rho)
    np.testing.assert_allclose(result.final, rho)


def test_width_limit():
    # the limit counts state qubits: auxiliaries are not held in the state
    assert simulate(Circuit(6)).final.shape == (64, 64)
    assert simulate(Circuit(7, roles=(ROLE_AUX,) + (ROLE_SPIN,) * 6)).final.shape == (128, 128)
    with pytest.raises(ValueError, match="7-qubit state exceeds the dense engine limit 6"):
        simulate(Circuit(7))
    with pytest.raises(ValueError, match="7-qubit state exceeds the dense engine limit 6"):
        simulate(Circuit(8, roles=(ROLE_AUX,) + (ROLE_SPIN,) * 7))


def test_collision_block_on_excited_spin():
    # single collision, paper convention, gamma=1, dt=0.2: p_up -> exp(-0.2)
    c = Circuit(2, tuple([Gate("x", (0,))]) + collision_block(1.0, 0.2, 0, 1).gates)
    rho = simulate(c).final
    spin = partial_trace(rho, (0,), 2)
    assert spin[1, 1].real == pytest.approx(math.exp(-0.2), abs=1e-12)


def test_noiseless_circuit_approaches_reference_as_dt_shrinks():
    params = ModelParams()
    rho0 = initial_density_matrix(InitialStateSpec(), params)
    errors = []
    for dt in (0.2, 0.05):
        n = round(1.0 / dt)
        circuit = assemble_evolution(params, InitialStateSpec(), n, dt, order=2)
        snaps = simulate(circuit).snapshots
        exact = evolve_exact(rho0, params, [dt * k for k in range(n + 1)])
        sim_traj = [TrajectorySnapshot(dt * k, s) for k, s in enumerate(snaps)]
        errors.append(time_averaged_infidelity(sim_traj, exact))
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

    step_unitary_gates = trotter_step(hamiltonian_sum(params), dt, 1)
    u_model = circuit_unitary(step_unitary_gates)  # on [spin, b hi, b lo]

    p = 1 - math.exp(-params.gamma * dt)
    k0 = np.diag([1.0, math.sqrt(1 - p)]).astype(complex)
    k1 = np.array([[0, math.sqrt(p)], [0, 0]], dtype=complex)
    damp = [embed_bruteforce(k, (0,), 3) for k in (k0, k1)]

    body = [g for g in circuit.gates if g.kind not in ("measure",)]
    first_barrier = next(i for i, g in enumerate(body) if g.kind == "barrier")
    stepped = Circuit(
        circuit.width, tuple(body[first_barrier + 1 :]), circuit.roles, circuit.model_register
    )
    worst = 0.0
    for i in range(8):
        for j in range(8):
            unit = np.zeros((8, 8), dtype=complex)
            unit[i, j] = 1.0
            expected = u_model @ unit @ u_model.conj().T
            expected = sum(k @ expected @ k.conj().T for k in damp)
            # model basis unit [s, hi, lo] embedded into circuit order [hi, lo, s, aux]
            unit_circ = kron_all([partial_trace(unit, (1, 2, 0), 3), np.diag([1.0, 0.0])])
            out = simulate(stepped, rho0=unit_circ.astype(complex))
            worst = max(worst, float(np.max(np.abs(out.snapshots[-1] - expected))))
    assert worst < 1e-12


def _native_evolution(n_spins: int, order: int, n_steps: int, d_ho: int = 4):
    params = ModelParams(n_spins=n_spins, omega=6.0 if n_spins == 2 else 4.0, d_ho=d_ho)
    spec = InitialStateSpec(("up", "down")[:n_spins])
    return decompose_native(assemble_evolution(params, spec, n_steps, 0.2, order))


def _assert_matches_bruteforce(circuit, xi, cal=None):
    cal = jakarta_average_calibration() if cal is None else cal
    model = build_noise_model(cal, xi) if xi > 0 else None
    result = simulate(circuit, noise=model)
    snapshots, final = simulate_bruteforce(circuit, noise=model)
    assert len(result.snapshots) == len(snapshots)
    for got, want in zip(result.snapshots + [result.final], snapshots + [final]):
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


_COLLISION = (Gate("x", (0,)), Gate("cry", (0, 1), 0.9), Gate("cx", (1, 0)), Gate("reset", (1,)))


def test_aux_used_again_after_its_reset_without_reset_is_rejected():
    gates = _COLLISION + (Gate("barrier"), Gate("cx", (0, 1)))
    with pytest.raises(ValueError, match="auxiliary 1 is not reset"):
        simulate(Circuit(2, gates, (ROLE_SPIN, ROLE_AUX)))


def test_aux_not_clean_when_its_run_starts_is_rejected():
    # a gate on the boson splits the collision, so its reset would start a run
    # on a dirty auxiliary; the run that leaves the auxiliary dirty is rejected
    gates = (Gate("cry", (0, 2), 0.9), Gate("cx", (2, 0)), Gate("cx", (1, 0)), Gate("reset", (2,)))
    assert [len(run) for run in _runs(gates)] == [2, 1, 1]
    with pytest.raises(ValueError, match="auxiliary 2 is not reset"):
        simulate(Circuit(3, gates, (ROLE_SPIN, ROLE_BOSON, ROLE_AUX)))


def test_initial_state_with_weight_outside_aux_ground_is_rejected():
    circuit = Circuit(2, _COLLISION, (ROLE_SPIN, ROLE_AUX))
    with pytest.raises(ValueError, match="outside auxiliary"):
        simulate(circuit, rho0=np.eye(4, dtype=complex) / 4)
    spin_mixed = kron_all([np.eye(2) / 2, np.diag([1.0, 0.0])]).astype(complex)
    result = simulate(circuit, rho0=spin_mixed)
    np.testing.assert_allclose(partial_trace(result.final, (1,), 2), np.diag([1.0, 0.0]), atol=1e-15)


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
        QubitCalibration(90.0 + 10 * q, (120.0 if q % 3 == 0 else 40.0) + 5 * q, 5.0, 0.02, 0.03)
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


def test_runs_stop_at_barriers_and_measurements():
    gates = (
        Gate("sx", (0,)), Gate("barrier"), Gate("cx", (0, 1)), Gate("sx", (1,)), Gate("barrier"),
        Gate("rz", (0,), 0.3), Gate("measure", (0,)), Gate("measure", (1,)),
    )
    bounds = [0, 1, 2, 4, 5, 6, 7, 8]
    assert list(_runs(gates)) == [gates[a:b] for a, b in zip(bounds, bounds[1:])]
    circuit = Circuit(2, gates)
    assert len(simulate(circuit).snapshots) == 2
    _assert_matches_bruteforce(circuit, 1.0)


@pytest.mark.parametrize("xi", [0.0, 0.1, 1.0])
@pytest.mark.parametrize("n_spins", [1, 2])
def test_every_compiled_run_is_cptp(n_spins, xi):
    model = build_noise_model(jakarta_average_calibration(), xi)
    for order in (1, 2):
        circuit = _native_evolution(n_spins, order, 1)
        runs = {run for run in _runs(circuit.gates) if run[0].kind not in ("barrier", "measure")}
        reduced = 0
        for run in runs:
            superop, qubits = _compile(run, model, circuit.aux_qubits, {})
            assert not set(qubits) & set(circuit.aux_qubits)
            reduced += any(g.kind == "reset" for g in run)
            d = math.isqrt(superop.shape[0])
            assert d == 2 ** len(qubits)
            identity = np.eye(d).ravel()
            assert np.max(np.abs(identity @ superop - identity)) < 1e-12
            choi = superop.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)
            assert np.max(np.abs(choi - choi.conj().T)) < 1e-12
            assert np.linalg.eigvalsh(choi).min() > -1e-12
        assert reduced == n_spins  # one collision run per spin, each reduced to a channel on it


def test_noisy_simulation_preserves_trace_and_hermiticity():
    model = build_noise_model(jakarta_average_calibration(), 1.0)
    for n_spins in (1, 2):
        result = simulate(_native_evolution(n_spins, 2, 5), noise=model)
        assert abs(np.trace(result.final).real - 1.0) < 1e-10
        assert np.max(np.abs(result.final - result.final.conj().T)) < 1e-10
        for snap in result.snapshots:
            assert abs(np.trace(snap).real - 1.0) < 1e-10
            assert np.min(np.linalg.eigvalsh((snap + snap.conj().T) / 2)) > -1e-9


def test_noise_requires_native_circuit():
    model = build_noise_model(jakarta_average_calibration(), 0.1)
    alone = (Gate("cry", (0, 1), 0.3),)
    mid_run = (Gate("sx", (0,)), Gate("ry", (0,), 0.3), Gate("cx", (0, 1)))
    for gates in (alone, mid_run):
        with pytest.raises(ValueError, match="native circuit"):
            simulate(Circuit(2, gates), noise=model)


def test_xi_zero_model_equals_no_model():
    params = ModelParams()
    circuit = decompose_native(assemble_evolution(params, InitialStateSpec(), 3, 0.2))
    plain = simulate(circuit).final
    nulled = simulate(circuit, noise=build_noise_model(jakarta_average_calibration(), 0.0)).final
    assert np.max(np.abs(plain - nulled)) < 1e-10


def test_transpiled_equals_ir_noiseless():
    params = ModelParams(n_spins=2, omega=6)
    circuit = assemble_evolution(params, InitialStateSpec(("up", "down")), 2, 0.2)
    native = decompose_native(circuit)
    rho_a = simulate(circuit).snapshots[-1]
    rho_b = simulate(native).snapshots[-1]
    assert fidelity(rho_a, rho_b) > 1 - 1e-9


def test_sample_counts_pure_state():
    rho = ground_state(2)
    counts = sample_counts(rho, 100, seed=7)
    assert counts.counts == {"00": 100}


def test_sample_counts_readout_flip_rate():
    rho = ground_state(1)
    flip = np.array([[0.9, 0.1], [0.0, 1.0]])
    counts = sample_counts(rho, 100_000, readout=[flip], seed=11)
    ones = counts.counts.get("1", 0)
    sigma = math.sqrt(0.1 * 0.9 * 100_000)
    assert abs(ones - 10_000) < 3 * sigma


def test_sample_counts_maximally_mixed():
    rho = np.eye(2, dtype=complex) / 2
    counts = sample_counts(rho, 100_000, seed=3)
    sigma = math.sqrt(0.25 * 100_000)
    assert abs(counts.counts["0"] - 50_000) < 3 * sigma


def test_sample_counts_reproducible():
    rho = np.eye(4, dtype=complex) / 4
    a = sample_counts(rho, 1000, seed=42)
    b = sample_counts(rho, 1000, seed=42)
    assert a.counts == b.counts


def test_sample_counts_subset_of_qubits():
    params = ModelParams()
    rho = initial_density_matrix(InitialStateSpec(("up",), 0), params)
    counts = sample_counts(rho, 50, qubits=(0,), seed=5)
    assert counts.counts == {"1": 50}


def test_mitigation_identity_confusion():
    counts = CountsTable({"00": 600, "11": 400}, 1000)
    quasi = mitigate_readout(counts, [np.eye(2), np.eye(2)])
    np.testing.assert_allclose(quasi, [0.6, 0.0, 0.0, 0.4], atol=1e-12)


def test_mitigation_exactly_inverts_known_confusion():
    # push an exact distribution through known confusion matrices, then invert
    m0 = np.array([[0.95, 0.05], [0.08, 0.92]])
    m1 = np.array([[0.97, 0.03], [0.02, 0.98]])
    truth = np.array([0.5, 0.125, 0.25, 0.125])
    noisy = truth @ np.kron(m0, m1)
    shots = 10**6  # exact distribution scaled to integer counts
    counts = CountsTable(
        {format(i, "02b"): int(round(p * shots)) for i, p in enumerate(noisy)}, shots
    )
    recovered = mitigate_readout(counts, [m0, m1])
    np.testing.assert_allclose(recovered, truth, atol=1e-12)


def test_mitigation_singular_confusion():
    counts = CountsTable({"0": 1}, 1)
    with pytest.raises(np.linalg.LinAlgError):
        mitigate_readout(counts, [np.array([[0.5, 0.5], [0.5, 0.5]])])


def test_mitigation_simplex_projection():
    counts = CountsTable({"0": 999, "1": 1}, 1000)
    m = np.array([[0.9, 0.1], [0.1, 0.9]])
    quasi = mitigate_readout(counts, [m])
    projected = mitigate_readout(counts, [m], project=True)
    assert quasi.min() < 0
    assert projected.min() >= 0
    assert projected.sum() == pytest.approx(1.0, abs=1e-12)
