"""Density-matrix execution engine.

Applies every gate, noisy gate and reset as a local superoperator on its
operands (no full-register operators), plus measurement sampling and readout
mitigation, on registers of up to six qubits.  States marked by barriers are
reduced to the spin+boson register (auxiliaries traced out) whenever the
circuit carries a model-register map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuits import Circuit, Gate
from .pauli import kron_all

MAX_SIM_WIDTH = 6
_TRACE_TOL = 1e-9

_SX = 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]])
_RESET_KRAUS = (
    np.array([[1, 0], [0, 0]], dtype=complex),
    np.array([[0, 1], [0, 0]], dtype=complex),
)


def _ry(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _rz(theta: float) -> np.ndarray:
    return np.diag([np.exp(-0.5j * theta), np.exp(0.5j * theta)])


def _controlled(op: np.ndarray) -> np.ndarray:
    out = np.eye(4, dtype=complex)
    out[2:, 2:] = op
    return out


def gate_unitary(kind: str, angle: float | None = None) -> np.ndarray:
    """Matrix of a unitary gate kind; control is the first operand of 2q gates."""
    if kind == "x":
        return np.array([[0, 1], [1, 0]], dtype=complex)
    if kind == "sx":
        return _SX.copy()
    if kind == "id":
        return np.eye(2, dtype=complex)
    if kind == "rz":
        return _rz(angle)
    if kind == "ry":
        return _ry(angle)
    if kind == "cx":
        return _controlled(np.array([[0, 1], [1, 0]], dtype=complex))
    if kind == "cry":
        return _controlled(_ry(angle))
    raise ValueError(f"gate kind {kind!r} has no unitary")


def partial_trace(rho: np.ndarray, keep: tuple[int, ...], width: int) -> np.ndarray:
    """Reduced state on ``keep``, reordered to the order given there."""
    tensor = rho.reshape((2,) * (2 * width))
    kept = set(keep)
    in_sub = list(range(width)) + [width + q if q in kept else q for q in range(width)]
    out_sub = [q for q in keep] + [width + q for q in keep]
    reduced = np.einsum(tensor, in_sub, out_sub)
    dim = 2 ** len(keep)
    return reduced.reshape(dim, dim)


def ground_state(width: int) -> np.ndarray:
    rho = np.zeros((2**width, 2**width), dtype=complex)
    rho[0, 0] = 1.0
    return rho


@dataclass
class SimulationResult:
    """States at each barrier (model register if mapped) and the final full state."""

    snapshots: list[np.ndarray]
    final: np.ndarray


def simulate(circuit: Circuit, noise=None, rho0: np.ndarray | None = None) -> SimulationResult:
    """Run the circuit, applying the noise model's channel after each native gate.

    With a noise model the circuit must be native (no ry/cry); channels are
    applied on the gate operands right after the ideal unitary, and resets
    stay ideal.  Barriers record snapshots.
    """
    width = circuit.width
    if width > MAX_SIM_WIDTH:
        raise ValueError(f"register width {width} exceeds the dense engine limit {MAX_SIM_WIDTH}")
    rho = ground_state(width) if rho0 is None else rho0.astype(complex).copy()
    if rho.shape != (2**width, 2**width):
        raise ValueError("initial state does not match the register")

    compiled: dict[Gate, tuple[np.ndarray, np.ndarray]] = {}
    snapshots: list[np.ndarray] = []
    for g in circuit.gates:
        if g.kind == "barrier":
            snapshots.append(_snapshot(rho, circuit))
            continue
        if g.kind == "measure":
            continue
        if g not in compiled:
            compiled[g] = _compile(g, noise, width)
        superop, idx = compiled[g]
        out = np.empty(rho.size, dtype=complex)
        out[idx] = superop @ rho.ravel()[idx]
        rho = out.reshape(rho.shape)
        if noise is not None:
            drift = abs(np.trace(rho).real - 1.0)
            if drift > _TRACE_TOL:
                raise RuntimeError(f"trace drift {drift:.2e} after {g.kind}; engine invariant broken")
    return SimulationResult(snapshots, rho)


def _compile(gate: Gate, noise, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Superoperator sum_k (K_k U) x conj(K_k U) of a gate, and its index array.

    Row l of the index array lists the flat entries of rho whose operand row
    and column bits, read as one 2k-bit word, equal l.
    """
    if gate.kind == "reset":
        kraus = _RESET_KRAUS
    else:
        if noise is not None and gate.kind in ("ry", "cry"):
            raise ValueError("noisy simulation requires a native circuit; transpile first")
        u = gate_unitary(gate.kind, gate.angle)
        kraus = [u]
        if noise is not None:
            kraus = [k @ u for k in noise.channel_for(gate.kind, gate.qubits).kraus]
    superop = sum(np.kron(k, k.conj()) for k in kraus)
    operand_axes = list(gate.qubits) + [width + q for q in gate.qubits]
    axes = operand_axes + [a for a in range(2 * width) if a not in operand_axes]
    idx = np.arange(4**width).reshape((2,) * (2 * width)).transpose(axes)
    return superop, idx.reshape(superop.shape[0], -1)


def _snapshot(rho: np.ndarray, circuit: Circuit) -> np.ndarray:
    if circuit.model_register is None:
        return rho.copy()
    return partial_trace(rho, circuit.model_register, circuit.width)


@dataclass
class CountsTable:
    counts: dict[str, int]
    shots: int

    def vector(self, n_bits: int) -> np.ndarray:
        out = np.zeros(2**n_bits)
        for key, n in self.counts.items():
            out[int(key, 2)] = n
        return out


def sample_counts(
    rho: np.ndarray,
    shots: int,
    readout: list[np.ndarray] | None = None,
    seed: int | None = None,
    qubits: tuple[int, ...] | None = None,
) -> CountsTable:
    """Multinomial sampling from diag(rho), optionally through per-qubit confusion matrices.

    ``readout`` matrices are row-stochastic, M[m, n] = P(record n | true m),
    one per measured qubit in the order of ``qubits``.
    """
    if shots < 1:
        raise ValueError("need at least one shot")
    width = int(round(math.log2(rho.shape[0])))
    if qubits is None:
        qubits = tuple(range(width))
    marginal = rho if qubits == tuple(range(width)) else partial_trace(rho, qubits, width)
    probs = np.clip(np.diag(marginal).real, 0.0, None)
    probs = probs / probs.sum()
    if readout is not None:
        probs = probs @ kron_all(readout)
    rng = np.random.default_rng(seed)
    drawn = rng.multinomial(shots, probs)
    n_bits = len(qubits)
    counts = {format(i, f"0{n_bits}b"): int(c) for i, c in enumerate(drawn) if c > 0}
    return CountsTable(counts, shots)


def mitigate_readout(
    counts: CountsTable, confusions: list[np.ndarray], project: bool = False
) -> np.ndarray:
    """Invert the tensor-product confusion matrix on the empirical distribution.

    Returns a quasi-probability vector (entries may be slightly negative);
    with ``project`` the result is replaced by its nearest point on the
    probability simplex.
    """
    n_bits = len(confusions)
    freq = counts.vector(n_bits) / counts.shots
    joint = kron_all(confusions)
    quasi = np.linalg.solve(joint.T, freq)
    return _project_simplex(quasi) if project else quasi


def _project_simplex(v: np.ndarray) -> np.ndarray:
    u = np.sort(v)[::-1]
    cumulative = np.cumsum(u)
    idx = np.arange(1, len(v) + 1)
    feasible = u + (1.0 - cumulative) / idx > 0
    rho_idx = int(np.nonzero(feasible)[0][-1])
    tau = (1.0 - cumulative[rho_idx]) / (rho_idx + 1)
    return np.clip(v + tau, 0.0, None)
