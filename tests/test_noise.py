"""Noise channels, calibration identities, and noise-factor scaling."""

import itertools
import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

import sbsim.noise
from conftest import random_density_matrix
from sbsim.noise import (
    CalibrationData,
    GateCalibration,
    QubitCalibration,
    _gate_thermal_channel,
    average_gate_fidelity,
    build_noise_model,
    depolarizing_channel,
    depolarizing_probability,
    is_cptp,
    jakarta_average_calibration,
    kraus_superop,
    load_calibration,
    thermal_relaxation_channel,
)

# processor averages used throughout (microseconds)
T1, T2, T_CX = 139.01, 44.82, 0.454095

_RESET_KRAUS = (np.array([[1, 0], [0, 0]]), np.array([[0, 1], [0, 0]]))


def _apply(channel, rho):
    return (channel @ rho.ravel()).reshape(rho.shape)


def _mixture_superop(t1, t2, t):
    """T2 <= T1 reference: the mixture {identity, phase flip, reset} as sum_k K x conj(K)."""
    p_reset = 1 - math.exp(-t / t1)
    p_z = (1 - p_reset) * (1 - math.exp(-t * (1 / t2 - 1 / t1))) / 2
    kraus = [math.sqrt(1 - p_z - p_reset) * np.eye(2), math.sqrt(p_z) * np.diag([1.0, -1.0])]
    kraus += [math.sqrt(p_reset) * k for k in _RESET_KRAUS]
    return sum(np.kron(k, k.conj()) for k in kraus)


def _closed_form_choi(t1, t2, t):
    """Choi matrix, input factor first (C = sum |i><j| x E(|i><j|)), valid for T2 <= 2 T1."""
    p_reset, coherence = 1 - math.exp(-t / t1), math.exp(-t / t2)
    return np.array(
        [[1, 0, 0, coherence], [0, 0, 0, 0], [0, 0, p_reset, 0], [coherence, 0, 0, 1 - p_reset]]
    )


def _input_first_choi(channel):
    # C[(i, o), (j, p)] = E(|i><j|)[o, p] = S[(o, p), (i, j)]
    return channel.reshape(2, 2, 2, 2).transpose(2, 0, 3, 1).reshape(4, 4)


def test_zero_time_is_identity_channel():
    ch = thermal_relaxation_channel(T1, T2, 0.0)
    np.testing.assert_array_equal(ch, np.eye(4))


def test_equal_times_mean_no_dephasing():
    # T2 = T1: coherences decay exactly as the excited population, no pure dephasing
    ch = thermal_relaxation_channel(100.0, 100.0, 0.5)
    p_reset = 1 - math.exp(-0.5 / 100.0)
    assert ch[3, 3] == pytest.approx(1 - p_reset, abs=1e-15)
    assert ch[1, 1] == pytest.approx(ch[3, 3], abs=1e-15)
    assert ch[2, 2] == pytest.approx(ch[3, 3], abs=1e-15)


def test_thermal_probabilities_at_device_averages():
    # closed form: p_reset = 1 - exp(-t/T1), p_z = (1-p_reset)(1-exp(-t(1/T2-1/T1)))/2
    p_reset = 1 - math.exp(-T_CX / T1)
    p_z = (1 - p_reset) * (1 - math.exp(-T_CX * (1 / T2 - 1 / T1))) / 2
    assert p_reset == pytest.approx(3.2613e-3, abs=1e-7)
    assert p_z == pytest.approx(3.4096e-3, abs=1e-7)
    ch = thermal_relaxation_channel(T1, T2, T_CX)
    assert ch[0, 3] == pytest.approx(p_reset, rel=1e-12)  # |1><1| -> |0><0|
    assert ch[3, 3] == pytest.approx(1 - p_reset, rel=1e-12)
    # coherence of the mixture: p_id - p_z = 1 - p_reset - 2 p_z
    assert ch[1, 1] == pytest.approx(1 - p_reset - 2 * p_z, rel=1e-12)
    assert is_cptp(ch)


def test_thermal_kraus_branch_matches_choi_branch_at_boundary():
    # the mixture just below T1 and the Choi description just above it agree, as does the channel
    t = 0.3
    below = _mixture_superop(100.0, 99.999999, t)
    below_choi = below.reshape(2, 2, 2, 2).transpose(2, 0, 3, 1).reshape(4, 4)
    above_choi = _closed_form_choi(100.0, 100.000001, t)
    assert np.max(np.abs(below_choi - above_choi)) < 1e-9
    at = _input_first_choi(thermal_relaxation_channel(100.0, 100.0, t))
    assert np.max(np.abs(at - above_choi)) < 1e-9


def test_thermal_choi_branch_cptp_and_coherence():
    ch = thermal_relaxation_channel(100.0, 150.0, 0.4)
    assert is_cptp(ch)
    rho = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    out = _apply(ch, rho)
    assert out[0, 1] == pytest.approx(0.5 * math.exp(-0.4 / 150.0), abs=1e-12)


@pytest.mark.parametrize("t1, t2, t", [(T1, T2, T_CX), (100.0, 60.0, 5.0), (100.0, 100.0, 0.7)])
def test_thermal_superop_matches_kraus_mixture(t1, t2, t):
    ch = thermal_relaxation_channel(t1, t2, t)
    assert np.max(np.abs(ch - _mixture_superop(t1, t2, t))) < 1e-14


@pytest.mark.parametrize("t1, t2, t", [(100.0, 150.0, 0.4), (100.0, 199.0, 3.0), (100.0, 200.0, 10.0)])
def test_thermal_superop_matches_closed_form_choi(t1, t2, t):
    ch = thermal_relaxation_channel(t1, t2, t)
    assert np.max(np.abs(_input_first_choi(ch) - _closed_form_choi(t1, t2, t))) < 1e-14


def test_is_cptp_accepts_t2_at_twice_t1():
    for t in (0.0, 0.3, 50.0):
        assert is_cptp(thermal_relaxation_channel(100.0, 200.0, t))


def test_is_cptp_rejects_transpose_map():
    # rho -> rho^T preserves trace and is positive but not completely positive
    transpose = np.eye(4, dtype=complex)[[0, 2, 1, 3]]
    rho = np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]])
    np.testing.assert_allclose(_apply(transpose, rho), rho.T)
    assert not is_cptp(transpose)


def test_stacked_is_cptp_flags_exactly_the_bad_member():
    transpose = np.eye(4, dtype=complex)[[0, 2, 1, 3]]  # positive but not completely positive
    leaky = kraus_superop(np.diag([1.0, 0.5])[None])  # loses trace
    good = thermal_relaxation_channel(T1, T2, np.array([0.0, 0.3, 5.0, 50.0]))
    for bad in (transpose, leaky):
        for at in range(len(good) + 1):
            stack = np.insert(good, at, bad, axis=0)
            assert is_cptp(stack).tolist() == [i != at for i in range(len(stack))]
            assert is_cptp(stack.reshape(1, 5, 4, 4)).shape == (1, 5)
    assert is_cptp(depolarizing_channel(np.array([0.0, 0.2, 1.0]), 2)).tolist() == [True] * 3
    assert is_cptp(good[1]) is True and is_cptp(transpose) is False  # one channel gives a bool


def test_stacked_channel_helpers_match_one_channel_calls():
    times = np.array([0.0, 0.01, 0.1, T_CX])
    stack = thermal_relaxation_channel(T1, T2, times)
    assert stack.shape == (4, 4, 4)
    for t, channel in zip(times, stack):
        assert np.array_equal(channel, thermal_relaxation_channel(T1, T2, float(t)))
    p = depolarizing_probability(np.full(4, 5e-3), stack)
    # a stack's overlaps are one einsum over the stack and a single channel's a 2-d einsum,
    # which may sum in another order and differ in the last bit: hence 1e-15, not equality
    singles = [depolarizing_probability(5e-3, channel) for channel in stack]
    np.testing.assert_allclose(p, singles, rtol=0, atol=1e-15)
    np.testing.assert_allclose(average_gate_fidelity(stack), [average_gate_fidelity(c) for c in stack], atol=1e-15)
    assert np.array_equal(depolarizing_channel(p, 1), np.stack([depolarizing_channel(x, 1) for x in p]))
    with warnings.catch_warnings(record=True) as caught:  # one gate error for the whole stack
        warnings.simplefilter("always")
        assert depolarizing_probability(1e-6, stack[1:]).tolist() == [0.0] * 3
    assert [str(w.message).split(" exceeds")[0] for w in caught] == [
        f"thermal infidelity {1 - average_gate_fidelity(c):.3e}" for c in stack[1:]
    ]
    with pytest.raises(ValueError, match=re.escape("depolarizing probability 1.5 outside [0, 1]")):
        depolarizing_channel(np.array([0.2, 1.5]), 1)
    with pytest.raises(ValueError, match="gate time must be nonnegative"):
        thermal_relaxation_channel(T1, T2, np.array([0.1, -0.1]))


def test_unphysical_t2_rejected():
    with pytest.raises(ValueError):
        thermal_relaxation_channel(100.0, 201.0, 0.1)
    with pytest.raises(ValueError):
        QubitCalibration(100.0, 201.0, 0.01, 0.01)


def test_average_gate_fidelity_identity():
    assert average_gate_fidelity(np.eye(4, dtype=complex)) == pytest.approx(1.0, abs=1e-12)


def test_average_gate_fidelity_completely_depolarizing():
    # closed form for d=2: F_avg = 1/2
    ch = depolarizing_channel(1.0, 1)
    assert average_gate_fidelity(ch) == pytest.approx(0.5, abs=1e-12)


def test_average_gate_fidelity_monte_carlo_cross_check(rng):
    # Haar-sampled state fidelity average vs the Choi formula
    ch = thermal_relaxation_channel(T1, T2, 5.0)
    estimates = []
    for _ in range(4000):
        psi = rng.normal(size=2) + 1j * rng.normal(size=2)
        psi /= np.linalg.norm(psi)
        rho = np.outer(psi, psi.conj())
        estimates.append(np.real(psi.conj() @ _apply(ch, rho) @ psi))
    mc = float(np.mean(estimates))
    exact = average_gate_fidelity(ch)
    assert abs(mc - exact) < 5e-3


def test_thermal_infidelity_linear_in_gate_time():
    base = 1 - average_gate_fidelity(thermal_relaxation_channel(T1, T2, 0.01))
    doubled = 1 - average_gate_fidelity(thermal_relaxation_channel(T1, T2, 0.02))
    assert doubled == pytest.approx(2 * base, rel=1e-3)


def test_non_cptp_rejected():
    bad = kraus_superop(np.diag([1.0, 0.5])[None])  # loses trace
    assert not is_cptp(bad)
    with pytest.raises(ValueError):
        average_gate_fidelity(bad)


def test_depolarizing_probability_zero_when_budget_met():
    thermal = thermal_relaxation_channel(T1, T2, T_CX)
    infid = 1 - average_gate_fidelity(thermal)
    assert depolarizing_probability(infid, thermal) == pytest.approx(0.0, abs=1e-9)


def test_depolarizing_probability_identity_thermal():
    # F_T = 1 reduces the back-solve to p = d I / (d - 1)
    for n_q, d in ((1, 2), (2, 4)):
        p = depolarizing_probability(1e-3, np.eye(d * d, dtype=complex))
        assert p == pytest.approx(d * 1e-3 / (d - 1), rel=1e-9)


def test_depolarizing_probability_clamps_with_warning():
    thermal = thermal_relaxation_channel(T1, T2, T_CX)
    with pytest.warns(UserWarning):
        assert depolarizing_probability(1e-6, thermal) == 0.0


def test_composed_channel_hits_calibrated_infidelity():
    thermal = thermal_relaxation_channel(T1, T2, T_CX)
    target = 5e-3
    p = depolarizing_probability(target, thermal)
    composed = depolarizing_channel(p, 1) @ thermal
    assert 1 - average_gate_fidelity(composed) == pytest.approx(target, abs=1e-9)


def test_noise_factor_endpoints():
    # xi = 1 keeps the calibration's readout; xi = 0 zeroes every gate error, gate time and readout flip
    cal = jakarta_average_calibration()
    model = build_noise_model(cal, (1.0, 0.0))
    assert model.xi == (1.0, 0.0) and model.calibration is cal
    for q, qubit in enumerate(cal.qubits):
        assert np.array_equal(model.readout[0, q], [[1 - qubit.p10, qubit.p10], [qubit.p01, 1 - qubit.p01]])
        assert np.array_equal(model.readout[1, q], np.eye(2))
    for stack in model.channels.values():
        assert np.array_equal(stack[1], np.eye(stack.shape[-1]))
    # T1 and T2 stay unscaled: a half-xi member relaxes as the thermal channel of half the gate time
    entry = cal.gate_entry("sx")
    thermal = thermal_relaxation_channel(cal.mean_qubit.t1_us, cal.mean_qubit.t2_us, 0.5 * entry.time_ns * 1e-3)
    assert np.array_equal(_gate_thermal_channel(cal, entry, np.array([0.5]))[0], thermal)


def test_noise_factor_tenth():
    cal = jakarta_average_calibration()
    model = build_noise_model(cal, 0.1)
    assert 1 - average_gate_fidelity(model.channel_for("cx", (0, 1))[0]) == pytest.approx(1.109e-3, rel=1e-9)
    assert model.readout[0, 0, 0, 1] == pytest.approx(3.349e-3, rel=1e-12)  # qubit 0 p10
    with pytest.raises(ValueError, match=re.escape("noise factor 1.5 outside [0, 1]")):
        build_noise_model(cal, 1.5)


@pytest.mark.parametrize("xi", [0.01, 0.1, 1.0])
def test_noise_model_calibration_identity(xi):
    # defining identity: composed channel fidelity == 1 - xi * I_gate
    cal = jakarta_average_calibration()
    model = build_noise_model(cal, xi)
    for (kind, _), (channel,) in model.channels.items():
        assert is_cptp(channel), kind
        target = 1 - xi * cal.gate_entry(kind).error
        assert average_gate_fidelity(channel) == pytest.approx(target, abs=1e-6), kind


def test_noise_model_monotone_in_xi():
    cal = jakarta_average_calibration()
    fid_01, fid_10 = average_gate_fidelity(build_noise_model(cal, (0.1, 1.0)).channel_for("cx", (0, 1)))
    assert fid_01 >= fid_10


def test_noise_model_zero_is_noiseless():
    model = build_noise_model(jakarta_average_calibration(), 0.0)
    for (channel,) in model.channels.values():
        np.testing.assert_array_equal(channel, np.eye(len(channel)))
    for q in range(7):
        np.testing.assert_array_equal(model.readout[0, q], np.eye(2))


@pytest.mark.parametrize("per_operand", [False, True])
def test_each_member_of_a_stacked_build_equals_its_one_xi_build(per_operand):
    # a one-xi build is a stack of one through the same operations, so each member matches bit for bit
    cal = jakarta_average_calibration()
    if per_operand:  # each qubit its own T1/T2, and cx entries per ordered pair beside the wildcard
        qubits = tuple(replace(q, t1_us=q.t1_us + 10.0 * i, t2_us=q.t2_us + 5.0 * i) for i, q in enumerate(cal.qubits))
        pairs = tuple(
            GateCalibration("cx", (a, b), 1e-2 + 1e-3 * a, 400.0 + 20.0 * b) for a in range(3) for b in range(3) if a != b
        )
        cal = CalibrationData(qubits, cal.gates + pairs)
    xis = (0.01, 0.03, 0.1, 0.3, 1.0, 0.0)
    stacked = build_noise_model(cal, xis)
    assert stacked.xi == xis and stacked.calibration is cal
    assert stacked.readout.shape == (len(xis), len(cal.qubits), 2, 2)
    for j, xi in enumerate(xis):
        alone = build_noise_model(cal, xi)
        assert alone.xi == (xi,) and alone.calibration is cal
        assert stacked.channels.keys() == alone.channels.keys()
        for key, channel in alone.channels.items():
            assert channel.shape[0] == 1 and np.array_equal(stacked.channels[key][j], channel[0]), key
        assert np.array_equal(stacked.readout[j], alone.readout[0])


@pytest.mark.parametrize("xis", [(0.1, 1.5), (-0.2, 0.5, 1.0), (0.3, float("nan"))])
def test_one_xi_outside_the_unit_interval_fails_before_any_channel(monkeypatch, xis):
    built = []
    monkeypatch.setattr(sbsim.noise, "thermal_relaxation_channel", lambda *args: built.append(args))
    with pytest.raises(ValueError, match=re.escape("outside [0, 1]")):
        build_noise_model(jakarta_average_calibration(), xis)
    assert not built


@pytest.mark.parametrize("operands, named", [(None, "sx on any operands"), ((0,), "sx on qubits (0,)")])
def test_clamp_warning_names_the_one_clamped_member(operands, named):
    # thermal infidelity grows slower than linearly in the gate time: at T1 = T2 = 100 us a 30 us
    # gate has infidelity 0.130 at xi = 1 but 0.0015 at xi = 0.01, so an error of 0.14 clamps at
    # xi = 0.01 only
    qubits = (QubitCalibration(100.0, 100.0, 0.01, 0.01),)
    cal = CalibrationData(qubits, (GateCalibration("sx", operands, 0.14, 30000.0),))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        model = build_noise_model(cal, (1.0, 0.5, 0.01))
    assert [str(w.message) for w in caught] == [
        f"{named} at xi=0.01: thermal infidelity 1.498e-03 exceeds gate error 1.400e-03; "
        "depolarizing probability clamped to 0"
    ]
    assert 1 - average_gate_fidelity(model.channels[("sx", operands)][2]) == pytest.approx(1.498e-3, abs=1e-6)


def test_confusion_matrix_rows_sum_to_one():
    model = build_noise_model(jakarta_average_calibration(), 1.0)
    m = model.readout[0, 0]
    np.testing.assert_allclose(model.readout.sum(axis=-1), 1.0, atol=1e-15)
    assert m[0, 1] == pytest.approx(0.03349)


@pytest.mark.parametrize("xi", [0.1, 1.0])
@pytest.mark.parametrize("operand_entry_first", [True, False])
def test_channel_for_takes_the_operand_entry_over_the_wildcard(xi, operand_entry_first):
    wildcard = GateCalibration("sx", None, 1e-3, 35.0)
    on_two = GateCalibration("sx", (2,), 4e-3, 50.0)
    gates = (on_two, wildcard) if operand_entry_first else (wildcard, on_two)
    qubits = (QubitCalibration(100.0, 80.0, 0.01, 0.01),) * 3
    model = build_noise_model(CalibrationData(qubits, gates), xi)
    own, shared = model.channel_for("sx", (2,)), model.channel_for("sx", (0,))
    assert average_gate_fidelity(own[0]) == pytest.approx(1 - xi * on_two.error, abs=1e-9)
    assert average_gate_fidelity(shared[0]) == pytest.approx(1 - xi * wildcard.error, abs=1e-9)
    assert own is model.channels[("sx", (2,))] and shared is model.channels[("sx", None)]


def test_every_operand_list_a_wildcard_serves_reads_its_one_stack():
    # a wildcard entry's stack is shared, never copied per operand list
    model = build_noise_model(jakarta_average_calibration(), (0.0, 0.1, 1.0))
    for (kind, operands), stack in model.channels.items():
        assert operands is None  # the bundled calibration holds wildcard entries only
        for qubits in itertools.permutations(range(7), 2 if kind == "cx" else 1):
            assert model.channel_for(kind, qubits) is stack, (kind, qubits)


def test_two_qubit_thermal_channel_acts_on_each_operand_in_order(rng):
    # distinct T1/T2 per qubit, so a product in the wrong order or on mixed-up bits shows
    qubits = (QubitCalibration(120.0, 40.0, 0.01, 0.01), QubitCalibration(50.0, 90.0, 0.01, 0.01))
    time_ns = 5000.0
    singles = [thermal_relaxation_channel(q.t1_us, q.t2_us, time_ns * 1e-3) for q in qubits]
    states = [random_density_matrix(rng, 2) for _ in qubits]
    for first, second in ((0, 1), (1, 0)):
        entry = GateCalibration("cx", (first, second), 0.0, time_ns)
        channel = _gate_thermal_channel(CalibrationData(qubits, (entry,)), entry)
        out = _apply(channel, np.kron(states[first], states[second]))
        expected = np.kron(_apply(singles[first], states[first]), _apply(singles[second], states[second]))
        np.testing.assert_allclose(out, expected, atol=1e-14)


def test_missing_calibration_entry():
    cal = CalibrationData(
        (QubitCalibration(100.0, 80.0, 0.01, 0.01),),
        (GateCalibration("sx", (0,), 3e-4, 30.0),),
    )
    model = build_noise_model(cal, 1.0)
    with pytest.raises(KeyError):
        model.channel_for("cx", (0, 1))
    with pytest.raises(KeyError):
        cal.gate_entry("cx")


def test_calibration_loader_roundtrip(tmp_path):
    path = tmp_path / "cal.json"
    path.write_text(
        """
        {"qubits": [{"t1_us": 120.0, "t2_us": 60.0, "freq_ghz": 5.0, "p10": 0.02, "p01": 0.03}],
         "gates": [{"kind": "sx", "qubits": [0], "error": 2e-4, "time_ns": 35.0},
                   {"kind": "cx", "qubits": null, "error": 1e-2, "time_ns": 400.0}]}
        """
    )
    cal = load_calibration(path)
    assert cal.qubits == (QubitCalibration(120.0, 60.0, 0.02, 0.03),)  # freq_ghz is read by nothing, so ignored
    assert cal.gate_entry("sx", (0,)).error == 2e-4
    assert cal.gate_entry("cx", (3, 4)).time_ns == 400.0


def test_calibration_loader_rejects_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"qubits": [{"t1_us": 1.0}], "gates": []}')
    with pytest.raises(ValueError):
        load_calibration(path)


@pytest.mark.parametrize(
    "make",
    [
        lambda: QubitCalibration(float("nan"), 40.0, 0.01, 0.01),
        lambda: QubitCalibration(100.0, float("inf"), 0.01, 0.01),
        lambda: QubitCalibration(100.0, 80.0, True, 0.01),
        lambda: GateCalibration("sx", None, 1e-3, float("nan")),
        lambda: GateCalibration("sx", None, 1e-3, float("inf")),
        lambda: GateCalibration("cx", None, True, 300.0),
        lambda: GateCalibration("cx", None, "0.01", 300.0),
    ],
)
def test_calibration_values_must_be_finite_numbers(make):
    with pytest.raises(ValueError, match="must be a finite number"):
        make()


@pytest.mark.parametrize("qubits", [("0", "1"), (True, 1), (0, 1.0), tuple("01")])
def test_gate_operands_must_be_integers(qubits):
    with pytest.raises(ValueError, match="qubits must be a list of integers"):
        GateCalibration("cx", qubits, 1e-2, 300.0)


@pytest.mark.parametrize(
    "kind, operands, other, message",
    [("sx", (2,), None, "two sx entries on qubits (2,)"), ("cx", None, (0, 1), "two cx entries on any operands")],
)
def test_duplicate_gate_entries_are_rejected(kind, operands, other, message):
    # two entries for one lookup would disagree: gate_entry reads the first, the channel table the last
    qubits = (QubitCalibration(100.0, 80.0, 0.01, 0.01),) * 3
    first = GateCalibration(kind, operands, 1e-3, 35.0)
    with pytest.raises(ValueError, match=re.escape(message)):
        CalibrationData(qubits, (first, GateCalibration(kind, operands, 4e-3, 35.0)))
    # the same kind on other operands, or as the wildcard beside an operand entry, is no duplicate
    CalibrationData(qubits, (first, GateCalibration(kind, other, 4e-3, 35.0)))


@pytest.mark.parametrize("kind, limit", [("sx", 0.5), ("x", 0.5), ("cx", 0.75)])
def test_gate_error_is_bounded_by_the_fully_depolarizing_infidelity(kind, limit):
    # at the limit a zero-duration gate needs p_depol = 1; above it, more than 1
    entry = GateCalibration(kind, None, limit, 0.0)
    thermal = np.eye(16 if kind == "cx" else 4, dtype=complex)
    assert depolarizing_probability(entry.error, thermal) == pytest.approx(1.0)
    with pytest.raises(ValueError, match="fully depolarizing limit"):
        GateCalibration(kind, None, limit + 1e-3, 0.0)
