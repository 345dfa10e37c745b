"""Density-matrix execution engine.

Splits each circuit into runs of gates (unitary, noisy or reset) whose
operands together cover at most two qubits, the width of the widest native
gate.  A run takes later gates on its qubits past gates on other qubits,
which commute with them exactly; nothing crosses a barrier.  Each
distinct run is compiled into one local superoperator on its qubits (no
full-register operators), the product of its gates' superoperators.  Its
one-qubit gates are multiplied at their own width: each chain of
consecutive one-qubit gates on one qubit, ended by a two-qubit gate on
that qubit or by a reset, is one 4x4 product.  Each
distinct chain product and two-qubit gate is placed once by
``pauli.embed_operator`` on the row and column bits of the run's qubits,
and reused by every run that holds it.

The state is held in the layout of the last applied run: grouped by member,
then by that run's operand bits.  Applying the next run is then one gather
into its layout and one matrix product, with no scatter back; each
snapshot is one gather out of the current layout.

One call simulates a circuit under every member of one noise model, one
member per noise factor xi, and at every point of a stacked circuit (one
per dt of a grid, whose dt-dependent angles hold one value per point).
The state is a stack of density matrices, one per point and member, held
as one flat vector, and every compiled run a stack of superoperators, one
per member, or one per point and member for a run with per-point angles:
the circuit is split, compiled, replayed and checked once for all its
points and noise levels.  Compiled runs live in a dict,
which a caller may keep and pass to every circuit it simulates under the
same model; it also holds one stack of superoperators per one-qubit gate
and each placed factor.

A circuit whose time steps repeat one block is simulated from one step: the
last barrier-delimited block is replayed ``repeat`` times, which gives
exactly the state of the circuit with that block written out ``repeat``
times.

Auxiliary qubits (``Circuit.aux_qubits``) are never held in the state.
Every run that touches one starts with it in |0> and ends by resetting it,
so the run is exactly a channel on its other qubits (a collision, in the
language of collision models); the run compiles to that channel.  The state
thus holds only the model qubits, at most ``MAX_SIM_WIDTH`` of them.  The
engine takes its initial state and returns its snapshots on the model
register, in model order.

Also measurement sampling and readout mitigation on plain arrays: counts
are one multinomial count per basis state of the sampled register, and
readout error is one 2x2 confusion matrix per qubit of it, in order.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .circuits import Circuit, Gate
from .noise import kraus_superop
from .pauli import embed_operator, kron_all

MAX_SIM_WIDTH = 6  # state qubits, auxiliaries not counted
_TRACE_TOL = 1e-9
_BOUND_MODEL = "noise model"  # key under which a compiled-run dict holds its noise model

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


def ground_state(width: int) -> np.ndarray:
    rho = np.zeros((2**width, 2**width), dtype=complex)
    rho[0, 0] = 1.0
    return rho


def simulate(
    circuit: Circuit,
    noise=None,
    rho0: np.ndarray | None = None,
    repeat: int | tuple[int, ...] = 1,
    compiled: dict | None = None,
):
    """Run the circuit, applying the noise model's channel after each native gate.

    ``noise`` is a noise model, whose k members (one per xi) all run in
    this one call from the same ``rho0``, or ``None`` for one noiseless
    member.  Each member's states equal, bit for bit, those of a model of
    that member alone; a member at xi = 0 equals the noiseless run.

    A stacked circuit (``Circuit.points``) runs every point in this call
    too, each under every member, and each point's states equal, bit for
    bit, those of the circuit built at that point alone.

    With a noise model the circuit must be native (no ry/cry); channels are
    applied on the gate operands right after the ideal unitary, and resets
    stay ideal.  Barriers record snapshots.  With a noise model, the trace
    of every member's state is checked against 1 after each run.

    Gates are grouped into runs on at most two qubits (``_runs``): a run
    also takes later gates on its qubits that commute past the gates they
    jump, and barriers end every run.  Each distinct run is
    compiled once into a stack of local superoperators, one per member, and
    a run with per-point angles into one per point and member, point-major.
    The stacked state stays in the layout of the last applied run, so each
    run is one gather into its own layout and one stacked matrix product;
    each snapshot is one gather into the model register's order.  Compiled
    runs, keyed by the run and the qubits the state holds, are kept in
    ``compiled`` together with the gate superoperators they were built
    from.  That dict serves the noise model (or ``None``) it first served,
    and passing it with any other raises; without one, a fresh dict serves
    this call.

    ``repeat`` applies the circuit's last barrier-delimited block (the gates
    after the second-to-last barrier through the last one) that many times,
    one snapshot per pass: the result equals, bit for bit, that of the
    circuit with the block written out ``repeat`` times.  So one time step
    of an evolution circuit, with ``repeat=n_steps``, gives the n-step run.
    It is one count for every point, or a tuple with one count per point
    (a circuit without per-point angles has one point).  The block is
    replayed for every point still running: points are held in decreasing
    order of their count, and one that has finished leaves the end of the
    stack.  Counts that differ need a circuit with nothing after its last
    barrier.

    ``rho0`` (default: all qubits in |0>) is on the model register in model
    order (``Circuit.model_register``, else every qubit), as for
    ``oracle.evolve_exact``, and so are the states at the barriers: one
    (k, n_snapshots, d, d) array, or for a stacked circuit a list with one
    such array per point, in point order.  The state holds only the model
    qubits, and ``MAX_SIM_WIDTH`` counts those.
    """
    n_points = circuit.points or 1
    repeats = repeat if isinstance(repeat, tuple) else (repeat,) * n_points
    if len(repeats) != n_points:
        raise ValueError(f"repeat gives {len(repeats)} counts for the circuit's {n_points} points")
    if min(repeats) < 1:
        raise ValueError(f"repeat must be at least 1, got {repeat}")
    if len(set(repeats)) > 1 and circuit.gates and circuit.gates[-1].kind != "barrier":
        raise ValueError("repeat counts that differ need a circuit with nothing after its last barrier")
    compiled = {} if compiled is None else compiled
    if compiled.setdefault(_BOUND_MODEL, noise) is not noise:
        raise ValueError("compiled runs were built under another noise model")
    width, aux = circuit.width, circuit.aux_qubits
    kept = tuple(q for q in range(width) if q not in aux)
    n, k = len(kept), 1 if noise is None else len(noise.xi)
    if n > MAX_SIM_WIDTH:
        raise ValueError(f"{n}-qubit state exceeds the dense engine limit {MAX_SIM_WIDTH}")
    dim = 2**n
    if rho0 is None:
        rho0 = ground_state(n)
    elif rho0.shape != (dim, dim):
        raise ValueError(f"initial state of shape {rho0.shape} is not ({dim}, {dim}), the model register's")
    # the stack holds the points in decreasing order of their counts, so finished ones leave its end
    order = sorted(range(n_points), key=lambda p: -repeats[p])
    reordered = order != sorted(order)

    # one entry per run: None records a snapshot, else (superops, operands, run)
    program = []
    for run in _runs(circuit.gates):
        if run[0].kind == "barrier":
            program.append(None)
        else:
            entry = compiled.get((run, kept))
            if entry is None:
                superops, qubits = _compile(run, noise, aux, compiled)
                entry = compiled[run, kept] = superops, tuple(kept.index(q) for q in qubits)
            if reordered and entry[0].ndim == 4:
                entry = entry[0][order], entry[1]
            program.append((*entry, run))
    start = stop = 0
    if max(repeats) > 1:
        marks = [i for i, op in enumerate(program) if op is None]
        if len(marks) < 2:
            raise ValueError("repeat needs a block between two barriers; the circuit has fewer")
        start, stop = marks[-2] + 1, marks[-1] + 1
    # ops: runs, None for a snapshot, and after a pass of the block an int, the points still running
    counts = [repeats[p] for p in order]
    ops = program[:start]
    for done in range(1, counts[0] + 1):
        ops += program[start:stop]
        running = sum(c > done for c in counts)
        if 0 < running < n_points:
            ops.append(running)
    ops += program[stop:]

    register = tuple(range(n)) if circuit.model_register is None else tuple(
        kept.index(q) for q in circuit.model_register
    )
    moves: dict[tuple, np.ndarray] = {}  # (layout, next layout) -> the gather between them, for every point
    # vec is held in the layout of the last applied run's operands, rho0 in the model register's
    vec, layout, active = np.tile(rho0.astype(complex).ravel(), n_points * k), register, n_points
    per_pass, fixed = program[start:stop].count(None), program[:start].count(None) + program[stop:].count(None)
    lengths = [fixed + c * per_pass for c in counts]  # snapshots of each point, in stack order
    snapshots = np.empty((n_points, k, lengths[0], dim, dim), dtype=complex)
    taken = 0
    for op in ops:
        if isinstance(op, int):
            active = op
            vec = vec[: active * k * dim * dim]
            continue
        nxt = register if op is None else op[1]
        move = moves.get((layout, nxt))
        if move is None:
            move = moves[layout, nxt] = _layout(layout, n, n_points * k).inverse[_layout(nxt, n, n_points * k).index]
        if active < n_points:
            move = move[: vec.size]
        if op is None:
            snapshots[:active, :, taken] = vec[move].reshape(active, k, dim, dim)
            taken += 1
            continue
        superops, layout, run = op
        if superops.ndim == 4 and active < n_points:
            superops = superops[:active]
        vec = (superops @ vec[move].reshape(active, k, superops.shape[-1], -1)).reshape(-1)
        if noise is not None:
            # real parts of every member's trace: one product with the layout's diagonal mask
            traces = (vec.view(float).reshape(active * k, -1) @ _layout(layout, n, n_points * k).diagonal).tolist()
            for j, trace in enumerate(traces):
                if not abs(trace - 1.0) <= _TRACE_TOL:  # NaN fails too
                    kinds = "/".join(g.kind for g in run)
                    at = "" if circuit.points is None else f" at point {order[j // k]}"
                    raise RuntimeError(
                        f"trace drift {abs(trace - 1.0):.2e} after {kinds} under noise member {j % k} "
                        f"(xi={noise.xi[j % k]:g}){at}; engine invariant broken"
                    )
    if circuit.points is None:
        return snapshots[0]
    return [snapshots[i, :, : lengths[i]] for i in map(order.index, range(n_points))]


def _runs(gates: tuple[Gate, ...]):
    """Runs of gates on at most two qubits, commuted together; barriers stand alone.

    Between barriers, a run starts at the first gate not yet taken and takes
    each later gate that shares a qubit with it, keeps it on at most two
    qubits, and shares no qubit with a gate it skips or with a reset it has
    taken.  A taken gate thus commutes exactly past every gate it jumps
    (disjoint operands, and each channel acts on its gate's operands only),
    so the runs, one after another, equal the gates in their order.
    """
    segment: list[Gate] = []
    for g in gates:
        if g.kind == "barrier":
            yield from _split(segment)
            segment = []
            yield (g,)
        else:
            segment.append(g)
    yield from _split(segment)


def _split(pending: list[Gate]) -> list[tuple[Gate, ...]]:
    """The runs of one barrier-free gate list, in the order of their first gates.

    Each gate joins the first open run that takes it, closes its qubits in
    every open run before that, and starts a run if none takes it.
    """
    runs: list[list[Gate]] = []
    # open runs as (gates, covered qubits, closed qubits); closed are those of
    # the gates the run refused and of its resets, which no later gate of it may touch
    live: list[tuple[list[Gate], set[int], set[int]]] = []
    for g in pending:
        for run, covered, closed in live:
            joins = not covered.isdisjoint(g.qubits) and closed.isdisjoint(g.qubits)
            if joins and len(covered.union(g.qubits)) <= 2:
                run.append(g)
                covered.update(g.qubits)
                if g.kind == "reset":
                    closed.update(g.qubits)
                break
            closed.update(g.qubits)
        else:
            runs.append([g])
            live.append((runs[-1], set(g.qubits), set(g.qubits) if g.kind == "reset" else set()))
        live = [entry for entry in live if not entry[1] <= entry[2]]  # a run closed on all its qubits is done
    return [tuple(run) for run in runs]


class _Layout(NamedTuple):
    index: np.ndarray  # flat natural-order entry held at each position of the layout
    inverse: np.ndarray  # position in the layout of each flat natural-order entry
    diagonal: np.ndarray  # on the float view of the first rho: 1 at the real part of a diagonal entry


@lru_cache(maxsize=64)
def _layout(operands: tuple[int, ...], width: int, k: int) -> _Layout:
    """The layout of a stack of k width-qubit rhos grouped by member, then by these operands' bits.

    Its ``index`` splits into k equal parts, one per stacked rho in order,
    and block l of each part (of ``4**len(operands)`` equal blocks) lists
    the flat entries whose operand row and column bits, read as one 2a-bit
    word, equal l.  No operands give the natural order; all of them, in
    some order, give each rho with its qubits in that order.
    """
    operand_axes = [1 + q for q in operands] + [1 + width + q for q in operands]
    axes = [0] + operand_axes + [a for a in range(1, 2 * width + 1) if a not in operand_axes]
    index = np.arange(k * 4**width).reshape((k,) + (2,) * (2 * width)).transpose(axes).ravel()
    inverse = np.empty_like(index)
    inverse[index] = np.arange(index.size)
    dim = 2**width
    first = index[: dim * dim]
    diagonal = np.zeros(2 * dim * dim)
    diagonal[::2] = first // dim == first % dim
    for array in (index, inverse, diagonal):
        array.flags.writeable = False
    return _Layout(index, inverse, diagonal)


def _compile(
    run: tuple[Gate, ...], noise, aux: tuple[int, ...], compiled: dict
) -> tuple[np.ndarray, tuple[int, ...]]:
    """A run's superoperators, one per noise member, and the qubits they act on, in order.

    A run with per-point angles has one per point and member, point-major:
    each factor's stack broadcasts over the points of the others.

    The run's local register orders its qubits by first appearance.  The
    run's one-qubit gates are multiplied together at their own width: each
    chain of consecutive one-qubit gates on one qubit is one stacked
    (k, 4, 4) product, which a two-qubit gate on that qubit ends, and so
    does a reset, always its qubit's last gate in the run.  Each chain
    product and each two-qubit gate is then placed on the run's register
    by ``embed_operator``, as an operator on its row bits then column bits,
    and the run's superoperator under each member is the product of those
    placed factors.  Each placed factor and each one-qubit gate's
    superoperators are cached in ``compiled``, keyed by the gates and where
    they sit, so a chain that recurs in another run is neither multiplied
    nor placed again.

    Each auxiliary of the run is then removed: it enters in |0> (input row
    = column = 0) and is traced out of the output.  That is exact only if
    the run's last operation on it is a reset, so anything else is
    rejected; as every auxiliary starts in |0>, it is then clean whenever a
    run starts.
    """
    local: list[int] = []
    for g in run:
        local += [q for q in g.qubits if q not in local]
    n = len(local)
    factors = []  # (gates, local operands) of each placed factor, in order of application
    chains: dict[int, list[Gate]] = {}  # local qubit -> the gates of its open chain
    for g in run:
        at = tuple(local.index(q) for q in g.qubits)
        if len(at) == 1:
            chains.setdefault(at[0], []).append(g)
        else:
            factors += [(tuple(chains.pop(p)), (p,)) for p in at if p in chains]
            factors.append(((g,), at))
    factors += [(tuple(chain), (p,)) for p, chain in chains.items()]
    superops = None
    for gates, at in factors:
        placed = compiled.get((gates, at, n))
        if placed is None:
            product = None
            for g in gates:
                superop = compiled.get(g)
                if superop is None:
                    superop = _gate_superop(g, noise)
                    if len(g.qubits) == 1:  # a two-qubit gate is a placed factor of its own, cached as that
                        compiled[g] = superop
                product = superop if product is None else superop @ product
            placed = compiled[gates, at, n] = embed_operator(product, at + tuple(n + p for p in at), 2 * n)
        superops = placed if superops is None else placed @ superops
    dropped = [i for i, q in enumerate(local) if q in aux]
    for i in dropped:
        last = next(g for g in reversed(run) if local[i] in g.qubits)
        if last.kind != "reset":
            raise ValueError(
                f"auxiliary {local[i]} is not reset by its run's last operation on it; "
                "an auxiliary must enter each run in |0> and leave it reset"
            )
    if dropped:
        superops = _drop_aux(superops, n, dropped)
    return superops, tuple(q for q in local if q not in aux)


def _drop_aux(superops: np.ndarray, n: int, dropped: list[int]) -> np.ndarray:
    """Stacked superoperators on the other local qubits: auxiliaries in |0>, traced out after."""
    kept = [p for p in range(n) if p not in dropped]
    m = len(kept)
    # axes: the stack, then output row and column bits, then input row and column bits, n each
    tensor = superops.reshape(superops.shape[:-2] + (2,) * (4 * n))
    zero_in = (0 if a >= 2 * n and a % n in dropped else slice(None) for a in range(4 * n))
    tensor = tensor[(..., *zero_in)]
    in_sub = list(range(n)) + [n + p if p in kept else p for p in range(n)]
    out_sub = kept + [n + p for p in kept] + list(range(2 * n, 2 * n + 2 * m))
    traced = np.einsum(tensor, [..., *in_sub, *out_sub[2 * m:]], [..., *out_sub])
    return traced.reshape(superops.shape[:-2] + (4**m, 4**m))


def _gate_superop(gate: Gate, noise) -> np.ndarray:
    """Superoperators of one gate on its operands, one per noise member: U x conj(U), then its channel's.

    A gate with per-point angles gives a (points, members, ...) stack, its
    one-point slices the same bits as the gate at that point's angle.
    """
    k = 1 if noise is None else len(noise.xi)
    if gate.kind == "reset":
        return np.stack([kraus_superop(_RESET_KRAUS)] * k)
    if gate.kind in ("ry", "cry") and noise is not None:
        raise ValueError("noisy simulation requires a native circuit; transpile first")
    if isinstance(gate.angle, tuple):
        ideal = np.stack([kraus_superop(gate_unitary(gate.kind, a)[None]) for a in gate.angle])[:, None]
    else:
        ideal = kraus_superop(gate_unitary(gate.kind, gate.angle)[None])[None]
    return ideal if noise is None else noise.channel_for(gate.kind, gate.qubits) @ ideal


def sample_counts(
    rho: np.ndarray,
    shots: int,
    readout: list[np.ndarray] | None = None,
    seed: int | None = None,
) -> np.ndarray:
    """Multinomial counts of each basis state, drawn from diag(rho).

    ``readout`` matrices, if given, are row-stochastic, M[m, n] =
    P(record n | true m), one per qubit of the register in order; the
    counts are then of the recorded outcomes.
    """
    if shots < 1:
        raise ValueError("need at least one shot")
    probs = np.clip(np.diag(rho).real, 0.0, None)
    probs = probs / probs.sum()
    if readout is not None:
        probs = probs @ kron_all(readout)
    return np.random.default_rng(seed).multinomial(shots, probs)


def mitigate_readout(counts: np.ndarray, confusions: list[np.ndarray]) -> np.ndarray:
    """Invert the tensor-product confusion matrix on the empirical distribution.

    Returns a quasi-probability vector (entries may be slightly negative).
    """
    return np.linalg.solve(kron_all(confusions).T, counts / counts.sum())
