"""Shared brute-force oracles and reference constructions for the test suite.

These helpers deliberately avoid the package's own embedding/conjugation
code paths: operators are expanded by enumerating basis states, so circuit
unitaries and channels are checked against an independent construction.
The code permutation and the jump operators are references that the
package itself never builds.
"""

import math

import numpy as np
import pytest

from sbsim.circuits import Circuit
from sbsim.encoding import code_bits
from sbsim.model import PAPER_COLLISION, gamma_eff
from sbsim.sim import gate_unitary

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


def partial_trace(rho: np.ndarray, keep: tuple[int, ...], width: int) -> np.ndarray:
    """Reduced state on ``keep``, reordered to the order given there."""
    tensor = rho.reshape((2,) * (2 * width))
    kept = set(keep)
    in_sub = list(range(width)) + [width + q if q in kept else q for q in range(width)]
    out_sub = [q for q in keep] + [width + q for q in keep]
    reduced = np.einsum(tensor, in_sub, out_sub)
    dim = 2 ** len(keep)
    return reduced.reshape(dim, dim)


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
        if g.kind == "barrier":
            continue
        if g.kind == "reset":
            raise ValueError("circuit is not unitary")
        total = embed_bruteforce(gate_unitary(g.kind, g.angle), g.qubits, circuit.width) @ total
    return total


def circuit_of(gates, width: int | None = None) -> Circuit:
    """A circuit of the gates that a private builder of ``sbsim.circuits`` returns, every qubit a model qubit.

    ``width`` defaults to one past the highest operand.
    """
    gates = tuple(gates)
    return Circuit(1 + max(q for g in gates for q in g.qubits) if width is None else width, gates)


def code_permutation(kind: str, width: int) -> np.ndarray:
    """Permutation matrix P with P|i> = |code word of i>."""
    dim = 2**width
    perm = np.zeros((dim, dim))
    for i in range(dim):
        word = int("".join(map(str, code_bits(i, kind, width))), 2)
        perm[word, i] = 1
    return perm


_LOWER = np.array([[0, 1], [0, 0]], dtype=complex)  # |down><up| = |0><1|


def lindblad_operators(params, convention: str = PAPER_COLLISION) -> list[tuple[np.ndarray, float]]:
    """One lowering operator per spin on the full register, with its rate."""
    rate = gamma_eff(params.gamma, convention)
    width = params.register_width
    return [(embed_bruteforce(_LOWER, (sq,), width), rate) for sq in params.spin_positions]


def kraus_operators(channel, floor: float = 1e-14) -> list[np.ndarray]:
    """Kraus operators of a channel from the eigendecomposition of its Choi matrix.

    The Choi matrix C[(a, b), (c, d)] = S[(a, c), (b, d)] is sum_k vec(K_k)
    vec(K_k)^dag, so each eigenvector of weight above ``floor`` is one
    Kraus operator, reshaped.
    """
    d = math.isqrt(len(channel))
    choi = channel.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)
    vals, vecs = np.linalg.eigh(choi)
    return [np.sqrt(v) * vec.reshape(d, d) for v, vec in zip(vals, vecs.T) if v > floor]


def model_qubits(circuit) -> tuple[int, ...]:
    """The circuit qubits of the model register, in model order: every qubit if none is mapped."""
    if circuit.model_register is not None:
        return circuit.model_register
    return tuple(range(circuit.width))


def simulate_bruteforce(circuit, noise=None, member=0, rho0=None):
    """Full-width reference engine: (snapshots, final state) of the circuit under one noise member.

    The register starts with ``rho0`` (a state on the model register, in
    model order) on the model qubits and every other qubit in |0>, or all
    in |0> without it.  Each gate embeds its unitary, then each Kraus
    operator of its channel in member ``member`` of the noise model's stack
    (from ``kraus_operators``), onto the whole register; resets stay ideal
    and barriers record the state reduced to the model register.  The
    final state spans the whole register.
    """
    width = circuit.width
    model = model_qubits(circuit)
    rho = np.zeros((2**width, 2**width), dtype=complex)
    rho[0, 0] = 1.0
    if rho0 is not None:
        # kron(rho0, |0><0| on the other qubits) has its qubits in the order model + others
        others = [q for q in range(width) if q not in model]
        ground = np.zeros((2 ** len(others),) * 2)
        ground[0, 0] = 1.0
        order = list(model) + others
        axes = [order.index(q) for q in range(width)]
        tensor = np.kron(rho0, ground).reshape((2,) * (2 * width))
        rho = tensor.transpose(axes + [width + a for a in axes]).reshape(rho.shape).astype(complex)
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
            snapshots.append(partial_trace(rho, model, width))
        elif g.kind == "reset":
            rho = apply([np.diag([1.0, 0.0]), np.array([[0.0, 1.0], [0.0, 0.0]])], g.qubits)
        else:
            rho = apply([gate_unitary(g.kind, g.angle)], g.qubits)
            if noise is not None:
                rho = apply(kraus_operators(noise.channel_for(g.kind, g.qubits)[member]), g.qubits)
    return snapshots, rho


def liouvillian(h: np.ndarray, jump_ops: list[tuple[np.ndarray, float]]) -> np.ndarray:
    """Dense column-stacked generator of drho/dt = -i[H,rho] + sum_k r_k D[L_k](rho).

    The d^2 x d^2 matrix, built from Kronecker products: the independent
    reference for the oracle's d x d action and its ||L||_1.
    """
    dim = h.shape[0]
    eye = np.eye(dim, dtype=complex)
    gen = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
    for op, rate in jump_ops:
        anti = op.conj().T @ op
        gen += rate * (
            np.kron(op.conj(), op)
            - 0.5 * np.kron(eye, anti)
            - 0.5 * np.kron(anti.T, eye)
        )
    return gen


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
