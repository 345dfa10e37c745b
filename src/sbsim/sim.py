"""Density-matrix execution engine.

Splits each circuit into runs of consecutive gates (unitary, noisy or
reset) whose operands together cover at most two qubits, the width of the
widest native gate; barriers and measurements end a run.  Each distinct run
is compiled into one local superoperator on its qubits (no full-register
operators) and applied by one gather, matrix product and scatter.  Compiled
runs live in a dict bound to one noise model, which a caller may keep and
pass to every circuit it simulates under that model.

A circuit whose time steps repeat one block is simulated from one step: the
last barrier-delimited block is replayed ``repeat`` times, which gives
exactly the state of the circuit with that block written out ``repeat``
times.

Auxiliary qubits (``Circuit.aux_qubits``) are never held in the state.
Every run that touches one starts with it in |0> and ends by resetting it,
so the run is exactly a channel on its other qubits (a collision, in the
language of collision models); the run compiles to that channel.  The state
thus holds only the non-auxiliary qubits, at most ``MAX_SIM_WIDTH`` of
them, and snapshots reorder it into the model register.  Also measurement
sampling and readout mitigation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuits import Circuit, Gate
from .noise import kraus_superop
from .pauli import kron_all

MAX_SIM_WIDTH = 6  # state qubits, auxiliaries not counted
_AUX_TOL = 1e-12
_TRACE_TOL = 1e-9
_BOUND_MODEL = "noise model"  # key under which a compiled-run dict holds its model

_SX = 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]])
_RESET_KRAUS = np.array([[[1, 0], [0, 0]], [[0, 1], [0, 0]]], dtype=complex)


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
    """States at each barrier (model register if mapped) and the final full-register state."""

    snapshots: list[np.ndarray]
    final: np.ndarray


def simulate(
    circuit: Circuit,
    noise=None,
    rho0: np.ndarray | None = None,
    repeat: int = 1,
    compiled: dict | None = None,
) -> SimulationResult:
    """Run the circuit, applying the noise model's channel after each native gate.

    With a noise model the circuit must be native (no ry/cry); channels are
    applied on the gate operands right after the ideal unitary, and resets
    stay ideal.  Barriers record snapshots.

    Consecutive gates whose operands together cover at most two qubits form
    a run, and barriers and measurements end one.  Each distinct run is
    compiled once into one local superoperator and applied to the state by
    one gather, matrix product and scatter.  Compiled runs, keyed by the
    run and the qubits the state holds, are kept in ``compiled`` together
    with the gate superoperators placed for them.  That dict is bound to
    ``noise`` on first use, and passing it again with another noise model
    raises; without one, a fresh dict serves this call.

    ``repeat`` applies the circuit's last barrier-delimited block (the gates
    after the second-to-last barrier through the last one) that many times,
    one snapshot per pass: the result equals, bit for bit, that of the
    circuit with the block written out ``repeat`` times.  So one time step
    of an evolution circuit, with ``repeat=n_steps``, gives the n-step run.

    The state holds only the non-auxiliary qubits, and ``MAX_SIM_WIDTH``
    counts those.  ``rho0`` and ``final`` span the full register: ``rho0``
    must hold every auxiliary in |0>, and ``final`` re-embeds each auxiliary
    as |0><0|, which is exact because every run that touches an auxiliary
    ends by resetting it.
    """
    if repeat < 1:
        raise ValueError(f"repeat must be at least 1, got {repeat}")
    compiled = {} if compiled is None else compiled
    if compiled.setdefault(_BOUND_MODEL, noise) is not noise:
        raise ValueError("compiled runs were built under another noise model")
    width, aux = circuit.width, circuit.aux_qubits
    kept = tuple(q for q in range(width) if q not in aux)
    n = len(kept)
    if n > MAX_SIM_WIDTH:
        raise ValueError(f"{n}-qubit state exceeds the dense engine limit {MAX_SIM_WIDTH}")
    aux_zero = tuple(0 if a % width in aux else slice(None) for a in range(2 * width))
    if rho0 is None:
        rho = ground_state(n)
    else:
        if rho0.shape != (2**width, 2**width):
            raise ValueError("initial state does not match the register")
        full = rho0.astype(complex).reshape((2,) * (2 * width))
        rho = full[aux_zero].reshape(2**n, 2**n)
        if np.abs(full).sum() - np.abs(rho).sum() > _AUX_TOL:
            raise ValueError("initial state has weight outside auxiliary |0>")

    # one entry per run: None records a snapshot, else (superop, index, run)
    program = []
    for run in _runs(circuit.gates):
        if run[0].kind == "barrier":
            program.append(None)
        elif run[0].kind != "measure":
            entry = compiled.get((run, kept))
            if entry is None:
                superop, qubits = _compile(run, noise, aux, compiled)
                index = _operand_index(tuple(kept.index(q) for q in qubits), n)
                entry = compiled[run, kept] = superop, index
            program.append((*entry, run))
    start = stop = 0
    if repeat > 1:
        marks = [i for i, op in enumerate(program) if op is None]
        if len(marks) < 2:
            raise ValueError("repeat needs a block between two barriers; the circuit has fewer")
        start, stop = marks[-2] + 1, marks[-1] + 1

    order = None
    if circuit.model_register is not None:
        order = tuple(kept.index(q) for q in circuit.model_register)
    dim = 2**n
    vec = rho.ravel()
    snapshots: list[np.ndarray] = []
    for op in program[:start] + program[start:stop] * repeat + program[stop:]:
        if op is None:
            rho = vec.reshape(dim, dim)
            snapshots.append(rho.copy() if order is None else partial_trace(rho, order, n))
            continue
        superop, index, run = op
        vec = _apply(superop, index, vec)
        if noise is not None:
            drift = abs(vec[:: dim + 1].sum().real - 1.0)
            if drift > _TRACE_TOL:
                kinds = "/".join(g.kind for g in run)
                raise RuntimeError(f"trace drift {drift:.2e} after {kinds}; engine invariant broken")
    final = np.zeros((2,) * (2 * width), dtype=complex)
    final[aux_zero] = vec.reshape((2,) * (2 * n))
    return SimulationResult(snapshots, final.reshape(2**width, 2**width))


def _runs(gates: tuple[Gate, ...]):
    """Maximal runs of consecutive gates on at most two qubits; markers stand alone."""
    run: list[Gate] = []
    covered: set[int] = set()
    for g in gates:
        marker = g.kind in ("barrier", "measure")
        if run and (marker or len(covered.union(g.qubits)) > 2):
            yield tuple(run)
            run, covered = [], set()
        if marker:
            yield (g,)
        else:
            run.append(g)
            covered.update(g.qubits)
    if run:
        yield tuple(run)


def _operand_index(qubits: tuple[int, ...], width: int) -> np.ndarray:
    """Flat entries of a width-qubit rho, grouped by their operand bits.

    Block l of the result (of ``4**len(qubits)`` equal blocks) lists the
    entries whose operand row and column bits, read as one 2k-bit word,
    equal l.
    """
    operand_axes = list(qubits) + [width + q for q in qubits]
    axes = operand_axes + [a for a in range(2 * width) if a not in operand_axes]
    return np.arange(4**width).reshape((2,) * (2 * width)).transpose(axes).ravel()


def _apply(superop: np.ndarray, idx: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Apply a local superoperator to flat density matrices stacked along axis 0."""
    out = np.empty_like(vecs)
    out[idx] = (superop @ vecs[idx].reshape(superop.shape[0], -1)).reshape(vecs.shape)
    return out


def _compile(
    run: tuple[Gate, ...], noise, aux: tuple[int, ...], embedded: dict
) -> tuple[np.ndarray, tuple[int, ...]]:
    """One superoperator for a run, and the qubits it acts on, in its order.

    The run's local register orders its qubits by first appearance.  Each
    gate's superoperator is placed on that register once (cached in
    ``embedded``), and the run's superoperator is their product.  Each
    auxiliary of the run is then removed: it enters in |0> (input row =
    column = 0) and is traced out of the output.  That is exact only if the
    run's last operation on it is a reset, so anything else is rejected;
    with the initial state's auxiliaries in |0>, every auxiliary is then
    clean whenever a run starts.
    """
    local: list[int] = []
    for g in run:
        local += [q for q in g.qubits if q not in local]
    n = len(local)
    superop = np.eye(4**n, dtype=complex)
    for g in run:
        key = (g, tuple(local.index(q) for q in g.qubits), n)
        if key not in embedded:
            identity = np.eye(4**n, dtype=complex)
            embedded[key] = _apply(_gate_superop(g, noise), _operand_index(key[1], n), identity)
        superop = embedded[key] @ superop
    dropped = [i for i, q in enumerate(local) if q in aux]
    for i in dropped:
        last = next(g for g in reversed(run) if local[i] in g.qubits)
        if last.kind != "reset":
            raise ValueError(
                f"auxiliary {local[i]} is not reset by its run's last operation on it; "
                "an auxiliary must enter each run in |0> and leave it reset"
            )
    if dropped:
        superop = _drop_aux(superop, n, dropped)
    return superop, tuple(q for q in local if q not in aux)


def _drop_aux(superop: np.ndarray, n: int, dropped: list[int]) -> np.ndarray:
    """Superoperator on the other local qubits: auxiliaries in |0>, traced out after."""
    kept = [p for p in range(n) if p not in dropped]
    m = len(kept)
    # axes: output row and column bits, then input row and column bits, n each
    tensor = superop.reshape((2,) * (4 * n))
    tensor = tensor[tuple(0 if a >= 2 * n and a % n in dropped else slice(None) for a in range(4 * n))]
    in_sub = list(range(n)) + [n + p if p in kept else p for p in range(n)]
    out_sub = kept + [n + p for p in kept] + list(range(2 * n, 2 * n + 2 * m))
    return np.einsum(tensor, in_sub + out_sub[2 * m:], out_sub).reshape(4**m, 4**m)


def _gate_superop(gate: Gate, noise) -> np.ndarray:
    """Superoperator of one gate on its operands: U x conj(U), then its noise channel's."""
    if gate.kind == "reset":
        return kraus_superop(_RESET_KRAUS)
    if noise is not None and gate.kind in ("ry", "cry"):
        raise ValueError("noisy simulation requires a native circuit; transpile first")
    superop = kraus_superop(gate_unitary(gate.kind, gate.angle)[None])
    if noise is not None:
        superop = noise.channel_for(gate.kind, gate.qubits).superop @ superop
    return superop


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
