"""Noise channels, calibration identities, and noise-factor scaling."""

import math

import numpy as np
import pytest

from conftest import random_unitary
from sbsim.noise import (
    CalibrationData,
    GateCalibration,
    QuantumChannel,
    QubitCalibration,
    average_gate_fidelity,
    build_noise_model,
    depolarizing_channel,
    depolarizing_probability,
    error_source_ratio,
    identity_channel,
    jakarta_average_calibration,
    kraus_superop,
    load_calibration,
    process_fidelity,
    scale_calibration,
    thermal_relaxation_channel,
)

# processor averages used throughout (microseconds)
T1, T2, T_CX = 139.01, 44.82, 0.454095

_RESET_KRAUS = (np.array([[1, 0], [0, 0]]), np.array([[0, 1], [0, 0]]))


def _apply(channel, rho):
    return (channel.superop @ rho.ravel()).reshape(rho.shape)


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
    return channel.superop.reshape(2, 2, 2, 2).transpose(2, 0, 3, 1).reshape(4, 4)


def test_zero_time_is_identity_channel():
    ch = thermal_relaxation_channel(T1, T2, 0.0)
    np.testing.assert_array_equal(ch.superop, np.eye(4))


def test_equal_times_mean_no_dephasing():
    # T2 = T1: coherences decay exactly as the excited population, no pure dephasing
    ch = thermal_relaxation_channel(100.0, 100.0, 0.5)
    p_reset = 1 - math.exp(-0.5 / 100.0)
    assert ch.superop[3, 3] == pytest.approx(1 - p_reset, abs=1e-15)
    assert ch.superop[1, 1] == pytest.approx(ch.superop[3, 3], abs=1e-15)
    assert ch.superop[2, 2] == pytest.approx(ch.superop[3, 3], abs=1e-15)


def test_thermal_probabilities_at_device_averages():
    # closed form: p_reset = 1 - exp(-t/T1), p_z = (1-p_reset)(1-exp(-t(1/T2-1/T1)))/2
    p_reset = 1 - math.exp(-T_CX / T1)
    p_z = (1 - p_reset) * (1 - math.exp(-T_CX * (1 / T2 - 1 / T1))) / 2
    assert p_reset == pytest.approx(3.2613e-3, abs=1e-7)
    assert p_z == pytest.approx(3.4096e-3, abs=1e-7)
    ch = thermal_relaxation_channel(T1, T2, T_CX)
    assert ch.superop[0, 3] == pytest.approx(p_reset, rel=1e-12)  # |1><1| -> |0><0|
    assert ch.superop[3, 3] == pytest.approx(1 - p_reset, rel=1e-12)
    # coherence of the mixture: p_id - p_z = 1 - p_reset - 2 p_z
    assert ch.superop[1, 1] == pytest.approx(1 - p_reset - 2 * p_z, rel=1e-12)
    assert ch.is_cptp()


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
    assert ch.is_cptp()
    rho = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    out = _apply(ch, rho)
    assert out[0, 1] == pytest.approx(0.5 * math.exp(-0.4 / 150.0), abs=1e-12)


@pytest.mark.parametrize("t1, t2, t", [(T1, T2, T_CX), (100.0, 60.0, 5.0), (100.0, 100.0, 0.7)])
def test_thermal_superop_matches_kraus_mixture(t1, t2, t):
    ch = thermal_relaxation_channel(t1, t2, t)
    assert np.max(np.abs(ch.superop - _mixture_superop(t1, t2, t))) < 1e-14


@pytest.mark.parametrize("t1, t2, t", [(100.0, 150.0, 0.4), (100.0, 199.0, 3.0), (100.0, 200.0, 10.0)])
def test_thermal_superop_matches_closed_form_choi(t1, t2, t):
    ch = thermal_relaxation_channel(t1, t2, t)
    assert np.max(np.abs(_input_first_choi(ch) - _closed_form_choi(t1, t2, t))) < 1e-14


def test_is_cptp_accepts_t2_at_twice_t1():
    for t in (0.0, 0.3, 50.0):
        assert thermal_relaxation_channel(100.0, 200.0, t).is_cptp()


def test_is_cptp_rejects_transpose_map():
    # rho -> rho^T preserves trace and is positive but not completely positive
    transpose = QuantumChannel(np.eye(4)[[0, 2, 1, 3]])
    rho = np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]])
    np.testing.assert_allclose(_apply(transpose, rho), rho.T)
    assert not transpose.is_cptp()


def test_unphysical_t2_rejected():
    with pytest.raises(ValueError):
        thermal_relaxation_channel(100.0, 201.0, 0.1)
    with pytest.raises(ValueError):
        QubitCalibration(100.0, 201.0, 5.0, 0.01, 0.01)


def test_average_gate_fidelity_identity():
    assert average_gate_fidelity(identity_channel(1)) == pytest.approx(1.0, abs=1e-12)


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


def test_average_gate_fidelity_against_unitary_target(rng):
    u = random_unitary(rng, 2)
    ch = QuantumChannel(kraus_superop(u[None]))
    assert average_gate_fidelity(ch, u) == pytest.approx(1.0, abs=1e-10)
    assert process_fidelity(ch, u) == pytest.approx(1.0, abs=1e-10)


def test_thermal_infidelity_linear_in_gate_time():
    base = 1 - average_gate_fidelity(thermal_relaxation_channel(T1, T2, 0.01))
    doubled = 1 - average_gate_fidelity(thermal_relaxation_channel(T1, T2, 0.02))
    assert doubled == pytest.approx(2 * base, rel=1e-3)


def test_non_cptp_rejected():
    bad = QuantumChannel(kraus_superop(np.diag([1.0, 0.5])[None]))  # loses trace
    assert not bad.is_cptp()
    with pytest.raises(ValueError):
        average_gate_fidelity(bad)


def test_depolarizing_probability_zero_when_budget_met():
    thermal = thermal_relaxation_channel(T1, T2, T_CX)
    infid = 1 - average_gate_fidelity(thermal)
    assert depolarizing_probability(infid, thermal) == pytest.approx(0.0, abs=1e-9)


def test_depolarizing_probability_identity_thermal():
    # F_T = 1 reduces the back-solve to p = d I / (d - 1)
    for n_q, d in ((1, 2), (2, 4)):
        p = depolarizing_probability(1e-3, identity_channel(n_q))
        assert p == pytest.approx(d * 1e-3 / (d - 1), rel=1e-9)


def test_depolarizing_probability_clamps_with_warning():
    thermal = thermal_relaxation_channel(T1, T2, T_CX)
    with pytest.warns(UserWarning):
        assert depolarizing_probability(1e-6, thermal) == 0.0


def test_composed_channel_hits_calibrated_infidelity():
    thermal = thermal_relaxation_channel(T1, T2, T_CX)
    target = 5e-3
    p = depolarizing_probability(target, thermal)
    composed = thermal.then(depolarizing_channel(p, 1))
    assert 1 - average_gate_fidelity(composed) == pytest.approx(target, abs=1e-9)


def test_scale_calibration_endpoints():
    cal = jakarta_average_calibration()
    same = scale_calibration(cal, 1.0)
    assert same == cal
    off = scale_calibration(cal, 0.0)
    assert all(g.error == 0 and g.time_ns == 0 for g in off.gates)
    assert all(q.p10 == 0 and q.p01 == 0 for q in off.qubits)
    assert all(q.t1_us == cal.qubits[0].t1_us for q in off.qubits)


def test_scale_calibration_tenth():
    cal = scale_calibration(jakarta_average_calibration(), 0.1)
    assert cal.gate_entry("cx").error == pytest.approx(1.109e-3, rel=1e-12)
    assert cal.qubits[0].p10 == pytest.approx(3.349e-3, rel=1e-12)
    with pytest.raises(ValueError):
        scale_calibration(cal, 1.5)


@pytest.mark.parametrize("xi", [0.01, 0.1, 1.0])
def test_noise_model_calibration_identity(xi):
    # defining identity: composed channel fidelity == 1 - xi * I_gate
    cal = jakarta_average_calibration()
    model = build_noise_model(cal, xi)
    for (kind, _), channel in model.channels.items():
        assert channel.is_cptp(1e-10), kind
        target = 1 - xi * cal.gate_entry(kind).error
        assert average_gate_fidelity(channel) == pytest.approx(target, abs=1e-6), kind


def test_noise_model_monotone_in_xi():
    cal = jakarta_average_calibration()
    fid_01 = average_gate_fidelity(build_noise_model(cal, 0.1).channel_for("cx", (0, 1)))
    fid_10 = average_gate_fidelity(build_noise_model(cal, 1.0).channel_for("cx", (0, 1)))
    assert fid_01 >= fid_10


def test_noise_model_zero_is_noiseless():
    model = build_noise_model(jakarta_average_calibration(), 0.0)
    for channel in model.channels.values():
        np.testing.assert_allclose(channel.superop, identity_channel(channel.n_qubits).superop, atol=1e-12)
    for q in range(7):
        np.testing.assert_allclose(model.confusion_matrix(q), np.eye(2), atol=1e-15)


def test_confusion_matrix_rows_sum_to_one():
    model = build_noise_model(jakarta_average_calibration(), 1.0)
    m = model.confusion_matrix(0)
    np.testing.assert_allclose(m.sum(axis=1), [1.0, 1.0], atol=1e-15)
    assert m[0, 1] == pytest.approx(0.03349)


def test_missing_calibration_entry():
    cal = CalibrationData(
        (QubitCalibration(100.0, 80.0, 5.0, 0.01, 0.01),),
        (GateCalibration("sx", (0,), 3e-4, 30.0),),
    )
    model = build_noise_model(cal, 1.0)
    with pytest.raises(KeyError):
        model.channel_for("cx", (0, 1))
    with pytest.raises(KeyError):
        cal.gate_entry("cx")


def test_error_source_ratio_near_device_estimate():
    # thermal dominates depolarizing by roughly an order of magnitude
    ratio = error_source_ratio(jakarta_average_calibration())
    assert 15.4 * 0.7 <= ratio <= 15.4 * 1.3


def test_error_source_ratio_scale_invariance():
    # uniform scaling leaves the thermal/depolarizing split roughly unchanged
    cal = jakarta_average_calibration()
    r1 = error_source_ratio(cal)
    r01 = error_source_ratio(scale_calibration(cal, 0.1))
    assert r01 == pytest.approx(r1, rel=0.15)


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
    assert cal.qubits[0].t2_us == 60.0
    assert cal.gate_entry("sx", (0,)).error == 2e-4
    assert cal.gate_entry("cx", (3, 4)).time_ns == 400.0


def test_calibration_loader_rejects_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"qubits": [{"t1_us": 1.0}], "gates": []}')
    with pytest.raises(ValueError):
        load_calibration(path)
