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
    load_calibration,
    process_fidelity,
    scale_calibration,
    thermal_relaxation_channel,
)

# processor averages used throughout (microseconds)
T1, T2, T_CX = 139.01, 44.82, 0.454095


def test_zero_time_is_identity_channel():
    ch = thermal_relaxation_channel(T1, T2, 0.0)
    assert len(ch.kraus) == 1
    np.testing.assert_allclose(ch.kraus[0], np.eye(2))


def test_equal_times_mean_no_dephasing():
    # T2 = T1 makes the phase-flip exponent vanish
    ch = thermal_relaxation_channel(100.0, 100.0, 0.5)
    p_reset = 1 - math.exp(-0.5 / 100.0)
    probs = sorted(float(np.trace(k.conj().T @ k).real) for k in ch.kraus)
    assert probs[0] == pytest.approx(0.0, abs=1e-15)  # p_Z = 0
    assert probs[-1] == pytest.approx(2 * (1 - p_reset), abs=1e-12)


def test_thermal_probabilities_at_device_averages():
    # closed form: p_reset = 1 - exp(-t/T1), p_z = (1-p_reset)(1-exp(-t(1/T2-1/T1)))/2
    p_reset = 1 - math.exp(-T_CX / T1)
    p_z = (1 - p_reset) * (1 - math.exp(-T_CX * (1 / T2 - 1 / T1))) / 2
    assert p_reset == pytest.approx(3.2613e-3, abs=1e-7)
    assert p_z == pytest.approx(3.4096e-3, abs=1e-7)
    ch = thermal_relaxation_channel(T1, T2, T_CX)
    traces = sorted(float(np.trace(k.conj().T @ k).real) for k in ch.kraus)
    # weights sorted: the two reset operators carry p_reset each, then 2 p_z, 2 p_id
    assert traces[0] == pytest.approx(p_reset, rel=1e-12)
    assert traces[1] == pytest.approx(p_reset, rel=1e-12)
    assert traces[2] == pytest.approx(2 * p_z, rel=1e-12)
    assert ch.is_cptp()


def test_thermal_kraus_branch_matches_choi_branch_at_boundary():
    # both descriptions are valid at T2 slightly below/above T1 and must agree
    t = 0.3
    below = thermal_relaxation_channel(100.0, 99.999999, t)
    above = thermal_relaxation_channel(100.0, 100.000001, t)
    assert np.max(np.abs(below.choi() - above.choi())) < 1e-9


def test_thermal_choi_branch_cptp_and_coherence():
    ch = thermal_relaxation_channel(100.0, 150.0, 0.4)
    assert ch.is_cptp()
    rho = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    out = ch.apply(rho)
    assert out[0, 1] == pytest.approx(0.5 * math.exp(-0.4 / 150.0), abs=1e-12)


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
        estimates.append(np.real(psi.conj() @ ch.apply(rho) @ psi))
    mc = float(np.mean(estimates))
    exact = average_gate_fidelity(ch)
    assert abs(mc - exact) < 5e-3


def test_average_gate_fidelity_against_unitary_target(rng):
    u = random_unitary(rng, 2)
    ch = QuantumChannel((u,))
    assert average_gate_fidelity(ch, u) == pytest.approx(1.0, abs=1e-10)
    assert process_fidelity(ch, u) == pytest.approx(1.0, abs=1e-10)


def test_thermal_infidelity_linear_in_gate_time():
    base = 1 - average_gate_fidelity(thermal_relaxation_channel(T1, T2, 0.01))
    doubled = 1 - average_gate_fidelity(thermal_relaxation_channel(T1, T2, 0.02))
    assert doubled == pytest.approx(2 * base, rel=1e-3)


def test_non_cptp_rejected():
    bad = QuantumChannel((np.diag([1.0, 0.5]),))
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
    for (kind, _), channel in model.channels.items():
        d = channel.dim
        np.testing.assert_allclose(channel.choi(), identity_channel(channel.n_qubits).choi(), atol=1e-12)
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
