"""Acceptance criteria, one test per criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Hardware-level claims are checked against the emulated noise
model, property-style.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from conftest import RATE_READINGS, circuit_of, code_permutation, partial_trace
from sbsim import metrics, noise, sim, transpile
from sbsim.circuits import Gate, assemble_evolution
from sbsim.encoding import GRAY, encode_hamiltonian
from sbsim.model import InitialStateSpec, ModelParams, initial_density_matrix
from sbsim.oracle import evolve_exact

SQRT2, SQRT3 = math.sqrt(2), math.sqrt(3)


def report(number: int, message: str) -> None:
    print(f"\n[criterion {number:2d}] PASS — {message}")


# -- shared pipeline helpers -------------------------------------------------


def _run_circuit_traj(params, dt, n_steps, order, xi):
    circuit = assemble_evolution(params, _init_for(params), n_steps, dt, order, GRAY)
    circuit = transpile.decompose_native(circuit)
    model = noise.build_noise_model(noise.jakarta_average_calibration(), xi) if xi > 0 else None
    return sim.simulate(circuit, noise=model)[0]


def _init_for(params):
    return InitialStateSpec(("up",) if params.n_spins == 1 else ("up", "down"), 0)


def _exact_traj(params, dt, n_steps):
    rho0 = initial_density_matrix(_init_for(params), params)
    return evolve_exact(rho0, params, [k * dt for k in range(n_steps + 1)])


def _avg_final_infidelity(params, dt, order, xi, t_final=2.0):
    n = max(1, round(t_final / dt))
    simulated = _run_circuit_traj(params, dt, n, order, xi)
    exact = _exact_traj(params, dt, n)
    avg = metrics.time_averaged_infidelity(simulated, exact)
    final = metrics.infidelity(simulated[-1], exact[-1])
    return avg, final


# -- criteria ----------------------------------------------------------------


def test_c01_collision_channel_exactness():
    """Collision block equals analytic amplitude damping to 1e-12 (Choi distance)."""
    rng = np.random.default_rng(20260810)
    worst = 0.0
    for _ in range(20):
        gamma = float(rng.uniform(0.05, 3.0))
        dt = float(rng.uniform(0.02, 0.8))
        for scale in RATE_READINGS.values():
            # the gates on the auxiliary of an assembled one-step circuit, moved to (spin, aux) = (0, 1)
            params = ModelParams(gamma=gamma * scale)
            circuit = assemble_evolution(params, _init_for(params), 1, dt, 1, GRAY)
            (aux,) = circuit.aux_qubits
            spin = circuit.model_register[0]
            block = [g for g in circuit.gates if aux in g.qubits]
            assert [g.kind for g in block] == ["cry", "cx", "reset"]
            assert {q for g in block for q in g.qubits} == {spin, aux}
            moved = [Gate(g.kind, tuple({spin: 0, aux: 1}[q] for q in g.qubits), g.angle) for g in block]
            marked = circuit_of([*moved, Gate("barrier")])  # its one snapshot is the final state
            p = 1 - math.exp(-params.gamma * dt)
            k0 = np.diag([1.0, math.sqrt(1 - p)]).astype(complex)
            k1 = np.array([[0.0, math.sqrt(p)], [0.0, 0.0]], dtype=complex)
            choi_block = np.zeros((4, 4), dtype=complex)
            choi_exact = np.zeros((4, 4), dtype=complex)
            for i in range(2):
                for j in range(2):
                    unit = np.zeros((2, 2), dtype=complex)
                    unit[i, j] = 1.0
                    rho_in = np.kron(unit, np.diag([1.0, 0.0])).astype(complex)
                    (out_full,) = sim.simulate(marked, rho0=rho_in)[0]  # no model register: both qubits are held
                    out = partial_trace(out_full, (0,), 2)
                    choi_block += np.kron(unit, out)
                    choi_exact += np.kron(unit, k0 @ unit @ k0.conj().T + k1 @ unit @ k1.conj().T)
            worst = max(worst, float(np.max(np.abs(choi_block - choi_exact))))
    assert worst < 1e-12
    report(1, f"collision channel == amplitude damping, worst Choi distance {worst:.2e}")


@pytest.mark.parametrize("reading", RATE_READINGS)
def test_c02_oracle_decoupled_decay(reading):
    """Decoupled spin decays as exp(-gamma t) to 1e-6; drift below 1e-9."""
    params = ModelParams(epsilon=0.0, lambda_c=0.0, omega=0.0, gamma=RATE_READINGS[reading])
    rate = params.gamma
    grid = [0.1 * k for k in range(21)]
    rho0 = initial_density_matrix(InitialStateSpec(), params)
    traj = evolve_exact(rho0, params, grid)
    proj_up = np.zeros((8, 8))
    proj_up[4:, 4:] = np.eye(4)
    worst_pop, worst_trace, worst_herm = 0.0, 0.0, 0.0
    for t, rho in zip(grid, traj):
        pop = float(np.trace(proj_up @ rho).real)
        worst_pop = max(worst_pop, abs(pop - math.exp(-rate * t)))
        worst_trace = max(worst_trace, abs(np.trace(rho).real - 1.0))
        worst_herm = max(worst_herm, float(np.max(np.abs(rho - rho.conj().T))))
    assert worst_pop < 1e-6
    assert worst_trace < 1e-9
    assert worst_herm < 1e-9
    report(2, f"gamma {rate:g}: max population error {worst_pop:.2e}, drift "
              f"{max(worst_trace, worst_herm):.2e}")


def test_c03_encoding_ground_truth():
    """Published encoded Hamiltonians reproduced term by term; dense form exact."""
    one = encode_hamiltonian(ModelParams(epsilon=0.5, omega=4, lambda_c=2, n_spins=1, d_ho=4))
    expected_one = {
        "XXZ": -SQRT2, "XXI": SQRT2, "XZX": 1 - SQRT3, "XIX": 1 + SQRT3,
        "XII": 0.25, "ZII": -0.5, "IZZ": -2.0, "IZI": -4.0,
    }
    assert len(one.terms) == 8
    for t in one.terms:
        assert abs(t.coefficient - expected_one[t.letters]) < 1e-12

    two = encode_hamiltonian(ModelParams(epsilon=0.5, omega=6, lambda_c=2, n_spins=2, d_ho=4))
    expected_two = {
        "XXZI": -SQRT2, "XXII": SQRT2, "XZXI": 1 - SQRT3, "XIXI": 1 + SQRT3, "XIII": 0.25,
        "IXZX": -SQRT2, "IXIX": SQRT2, "IZXX": 1 - SQRT3, "IIXX": 1 + SQRT3, "IIIX": 0.25,
        "ZIII": -0.5, "IZZI": -3.0, "IZII": -6.0, "IIIZ": -0.5,
    }
    assert len(two.terms) == 14
    for t in two.terms:
        assert abs(t.coefficient - expected_two[t.letters]) < 1e-12

    # dense realization equals permutation-conjugated truncated H plus identity offset
    params = ModelParams(epsilon=0.5, omega=4, lambda_c=2, n_spins=1, d_ho=4)
    dense = encode_hamiltonian(params).to_dense()
    d = params.d_ho
    a = np.diag(np.sqrt(np.arange(1, d, dtype=float)), 1)
    h_trunc = (
        params.omega * np.kron(np.eye(2), np.diag(np.arange(d, dtype=float)))
        + np.kron(np.diag([-0.5, 0.5]) + 0.25 * np.array([[0, 1], [1, 0]]), np.eye(d))
        + params.lambda_c * np.kron(np.array([[0, 1], [1, 0]]), a + a.T)
    )
    perm = np.kron(np.eye(2), code_permutation(GRAY, 2))
    permuted = perm @ h_trunc @ perm.T
    offset = np.trace(permuted - dense).real / 8
    assert np.max(np.abs(dense + offset * np.eye(8) - permuted)) < 1e-12
    report(3, "encoded Hamiltonians match the published 8- and 14-term forms exactly")


def test_c04_noiseless_sweep_qualitative():
    """Averaged infidelity grows with dt; order 2 beats order 1; damping helps order 1."""
    dts = (0.1, 0.2, 0.3, 0.4, 0.5)
    table = {}
    for order in (1, 2):
        for gamma in (0.0, 1.0):
            table[(order, gamma)] = [
                _avg_final_infidelity(ModelParams(gamma=gamma), dt, order, 0.0)[0] for dt in dts
            ]
    for series in table.values():
        assert all(a <= b + 1e-12 for a, b in zip(series, series[1:])), series
    for gamma in (0.0, 1.0):
        assert all(
            i2 < i1 for i1, i2 in zip(table[(1, gamma)], table[(2, gamma)])
        )
    for k, dt in enumerate(dts):
        if dt >= 0.3:
            assert table[(1, 0.0)][k] > table[(1, 1.0)][k]
    report(4, "monotone in dt, order 2 < order 1 everywhere, gamma=1 beats gamma=0 "
              "for order 1 at dt >= 0.3")


def test_c05_trotter_convergence_with_goldens():
    """Order-2 averaged infidelity below 1e-2 at dt=0.1 and strictly halving-improved."""
    avg_01, _ = _avg_final_infidelity(ModelParams(), 0.1, 2, 0.0)
    avg_005, _ = _avg_final_infidelity(ModelParams(), 0.05, 2, 0.0)
    assert avg_01 < 1e-2
    assert avg_005 < avg_01
    # golden values generated by this pipeline against the reference integrator
    assert avg_01 == pytest.approx(2.042047578155e-03, rel=1e-6)
    assert avg_005 == pytest.approx(3.824290443223e-04, rel=1e-6)
    report(5, f"avg infidelity {avg_01:.3e} at dt=0.1, {avg_005:.3e} at dt=0.05")


def test_c06_noise_model_calibration_identity():
    """Composed channels hit 1 - xi * I_gate to 1e-6 and are CPTP to 1e-10."""
    cal = noise.jakarta_average_calibration()
    xis = np.array([0.01, 0.1, 1.0])
    worst = 0.0
    model = noise.build_noise_model(cal, tuple(xis))
    assert noise.CPTP_TOL <= 1e-10  # the tolerance is_cptp checks to
    for (kind, _), stack in model.channels.items():
        assert np.all(noise.is_cptp(stack))
        target = 1 - xis * cal.gate_entry(kind).error
        worst = max(worst, float(np.max(np.abs(noise.average_gate_fidelity(stack) - target))))
    assert worst < 1e-6
    report(6, f"per-gate average fidelity matches 1 - xi*I_gate, worst gap {worst:.2e}")


def test_c07_noise_sweep_monotone():
    """Averaged and final infidelity strictly increase across xi in {0.01, 0.1, 1}."""
    params = ModelParams(gamma=1.0)
    avgs, finals = [], []
    for xi in (0.01, 0.1, 1.0):
        avg, final = _avg_final_infidelity(params, 0.2, 2, xi)
        avgs.append(avg)
        finals.append(final)
    assert avgs[0] < avgs[1] < avgs[2]
    assert finals[0] < finals[1] < finals[2]
    report(7, "averaged " + " < ".join(f"{v:.3f}" for v in avgs)
              + " and final infidelity strictly increase with xi")


def test_c08_xi_zero_continuity():
    """xi=0 noisy simulation matches the noiseless path to 1e-10 state distance."""
    params = ModelParams(gamma=1.0)
    circuit = transpile.decompose_native(
        assemble_evolution(params, InitialStateSpec(), 10, 0.2, 2)
    )
    plain = sim.simulate(circuit)
    zeroed = sim.simulate(
        circuit, noise=noise.build_noise_model(noise.jakarta_average_calibration(), 0.0)
    )
    distance = float(np.max(np.abs(plain - zeroed)))
    assert distance < 1e-10
    report(8, f"xi=0 equals noiseless, state distance {distance:.2e}")


def test_c09_gamma_sweep_minimum():
    """Noiseless infidelity grows with gamma; xi=0.01 attains an interior minimum."""
    gammas = (0.0, 0.5, 1.0, 1.5, 2.0, 2.5)
    noiseless = [
        _avg_final_infidelity(ModelParams(gamma=g), 0.2, 2, 0.0)[0] for g in gammas
    ]
    assert all(a < b for a, b in zip(noiseless, noiseless[1:])), noiseless
    noisy = [
        _avg_final_infidelity(ModelParams(gamma=g), 0.2, 2, 0.01)[0] for g in gammas
    ]
    k_min = int(np.argmin(noisy))
    assert 0 < k_min < len(gammas) - 1, noisy
    report(9, f"noiseless monotone; xi=0.01 minimum at interior gamma = {gammas[k_min]}")


def test_c10_two_spin_correlations():
    """Reference C^ZZ dips negative near t=0.4; xi=0.1 circuit reproduces the sign."""
    params = ModelParams(epsilon=0.5, omega=6.0, lambda_c=2.0, gamma=1.0, n_spins=2)
    fine = _exact_traj(params, 0.05, 40)
    zz = [metrics.spin_operator("Z", spin, params) for spin in (0, 1)]
    czz = metrics.connected_correlation(fine, *zz)
    k_min = int(np.argmin(czz))
    t_min = k_min * 0.05
    assert czz[k_min] < 0
    assert 0.25 <= t_min <= 0.55

    dt = 0.2
    simulated = _run_circuit_traj(params, dt, 10, 1, 0.1)
    k_near = int(round(t_min / dt))
    noisy_czz = metrics.connected_correlation(simulated[k_near], *zz)
    assert noisy_czz < 0
    report(10, f"reference C^ZZ minimum {czz[k_min]:.3f} at t={t_min:.2f}; "
               f"xi=0.1 circuit gives {noisy_czz:.3f} there")


def test_c11_readout_mitigation():
    """Exact-distribution mitigation is exact; sampled mitigation beats raw 2x."""
    rng = np.random.default_rng(11)
    m0 = np.array([[0.96, 0.04], [0.07, 0.93]])
    m1 = np.array([[0.95, 0.05], [0.03, 0.97]])
    confusions = [m0, m1]
    truth = np.array([0.4, 0.1, 0.3, 0.2])
    noisy = truth @ np.kron(m0, m1)

    # infinite-shot limit: exact counts, exact recovery
    scale = 10**9
    counts = np.array([round(p * scale) for p in noisy])
    recovered = sim.mitigate_readout(counts, confusions)
    exact_err = float(np.max(np.abs(recovered - truth)))
    assert exact_err < 1e-12

    # 8192-shot statistics over 100 seeds
    tv_raw, tv_mitigated = [], []
    for seed in range(100):
        gen = np.random.default_rng(seed)
        drawn = gen.multinomial(8192, noisy) / 8192
        tv_raw.append(0.5 * np.sum(np.abs(drawn - truth)))
        table = gen.multinomial(8192, noisy)
        quasi = sim.mitigate_readout(table, confusions)
        tv_mitigated.append(0.5 * np.sum(np.abs(quasi - truth)))
    assert np.mean(tv_mitigated) < 2 * np.mean(tv_raw)
    report(11, f"exact recovery to {exact_err:.1e}; mean TV mitigated "
               f"{np.mean(tv_mitigated):.4f} vs raw {np.mean(tv_raw):.4f}")


def test_c12_gate_counts_within_factor_two(tmp_path):
    """All 8 Gray rows within 2x of the published counts; CSV has the table shape."""
    from sbsim.experiments import make_config, run

    published_gray = {
        (1, 4, 1): (94, 43), (1, 4, 2): (75, 28),
        (1, 8, 1): (122, 60), (1, 8, 2): (191, 107),
        (2, 4, 1): (122, 36), (2, 4, 2): (168, 74),
        (2, 8, 1): (200, 156), (2, 8, 2): (409, 255),
    }
    cfg = make_config("gate_counts", overrides={"out_dir": str(tmp_path)})
    csv_path, _ = run(cfg)
    lines = Path(csv_path).read_text().splitlines()
    assert lines[0] == "n_spins,d_ho,order,code,single_qubit,cx"
    assert len(lines) == 17
    checked = 0
    for line in lines[1:]:
        ns, d, order, code, single, cx = line.split(",")
        if code != "gray":
            continue
        ref_single, ref_cx = published_gray[(int(ns), int(d), int(order))]
        assert ref_single / 2 <= int(single) <= ref_single * 2, line
        assert ref_cx / 2 <= int(cx) <= ref_cx * 2, line
        checked += 1
    assert checked == 8
    report(12, "all 8 Gray-code rows within a factor of 2 of the published counts")
