"""Shared brute-force oracles for the test suite.

These helpers deliberately avoid the package's own embedding/conjugation
code paths: operators are expanded by enumerating basis states, so circuit
unitaries and channels are checked against an independent construction.
"""

import numpy as np
import pytest

from sbsim.sim import gate_unitary, partial_trace

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI = {"I": I2, "X": X, "Y": Y, "Z": Z}


def kron_all(mats):
    out = np.array([[1.0 + 0j]])
    for m in mats:
        out = np.kron(out, m)
    return out


def embed_bruteforce(op: np.ndarray, qubits, width: int) -> np.ndarray:
    """Expand op onto the full register by explicit basis-state bookkeeping."""
    dim = 2**width
    k = len(qubits)
    full = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        bits = [(col >> (width - 1 - q)) & 1 for q in range(width)]
        sub_in = 0
        for q in qubits:
            sub_in = (sub_in << 1) | bits[q]
        for sub_out in range(2**k):
            amp = op[sub_out, sub_in]
            if amp == 0:
                continue
            out_bits = list(bits)
            for i, q in enumerate(qubits):
                out_bits[q] = (sub_out >> (k - 1 - i)) & 1
            row = 0
            for b in out_bits:
                row = (row << 1) | b
            full[row, col] += amp
    return full


def circuit_unitary(circuit) -> np.ndarray:
    """Gate-by-gate matrix product of a purely unitary circuit."""
    dim = 2**circuit.width
    total = np.eye(dim, dtype=complex)
    for g in circuit.gates:
        if g.kind in ("barrier", "measure"):
            continue
        if g.kind == "reset":
            raise ValueError("circuit is not unitary")
        total = embed_bruteforce(gate_unitary(g.kind, g.angle), g.qubits, circuit.width) @ total
    return total


def kraus_operators(channel, floor: float = 1e-14) -> list[np.ndarray]:
    """Kraus operators of a channel from the eigendecomposition of its Choi matrix.

    The Choi matrix C[(a, b), (c, d)] = S[(a, c), (b, d)] is sum_k vec(K_k)
    vec(K_k)^dag, so each eigenvector of weight above ``floor`` is one
    Kraus operator, reshaped.
    """
    d = channel.dim
    choi = channel.superop.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)
    vals, vecs = np.linalg.eigh(choi)
    return [np.sqrt(v) * vec.reshape(d, d) for v, vec in zip(vals, vecs.T) if v > floor]


def simulate_bruteforce(circuit, noise=None):
    """Full-width reference engine: (snapshots, final state) of the circuit.

    Each gate embeds its unitary, then each Kraus operator of its noise
    channel (from ``kraus_operators``), onto the whole register; resets stay
    ideal and barriers record the state, reduced to the model register when
    the circuit maps one.
    """
    width = circuit.width
    rho = np.zeros((2**width, 2**width), dtype=complex)
    rho[0, 0] = 1.0
    embedded = {}

    def full(op, qubits):
        key = (op.tobytes(), qubits)
        if key not in embedded:
            embedded[key] = embed_bruteforce(op, qubits, width)
        return embedded[key]

    def apply(ops, qubits):
        return sum(full(k, qubits) @ rho @ full(k, qubits).conj().T for k in ops)

    snapshots = []
    for g in circuit.gates:
        if g.kind == "barrier":
            reduce = circuit.model_register is not None
            snapshots.append(partial_trace(rho, circuit.model_register, width) if reduce else rho)
        elif g.kind == "reset":
            rho = apply([np.diag([1.0, 0.0]), np.array([[0.0, 1.0], [0.0, 0.0]])], g.qubits)
        elif g.kind != "measure":
            rho = apply([gate_unitary(g.kind, g.angle)], g.qubits)
            if noise is not None:
                rho = apply(kraus_operators(noise.channel_for(g.kind, g.qubits)), g.qubits)
    return snapshots, rho


def random_density_matrix(rng: np.random.Generator, dim: int) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
