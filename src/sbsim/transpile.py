"""Native-gate decomposition, routing onto a coupling map, and gate counting.

The native set is {cx, id, rz, sx, x}.  Routing is a deterministic greedy
scheme: every two-qubit gate on non-adjacent physical qubits walks one
endpoint along the lexicographically smallest shortest path, each hop a
SWAP spelled as three CX.  Reproducibility is preferred over optimality at
these widths.  Gate counts leave out barriers and resets; a circuit holds
no measurement.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

from .circuits import Circuit, Gate, per_point

NATIVE_KINDS = ("cx", "id", "rz", "sx", "x")


@dataclass(frozen=True)
class CouplingMap:
    n_qubits: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        norm = tuple(sorted(tuple(sorted(e)) for e in self.edges))
        object.__setattr__(self, "edges", norm)
        for a, b in norm:
            if not (0 <= a < self.n_qubits and 0 <= b < self.n_qubits) or a == b:
                raise ValueError(f"bad edge ({a}, {b})")

    def neighbors(self, q: int) -> tuple[int, ...]:
        out = [b if a == q else a for a, b in self.edges if q in (a, b)]
        return tuple(sorted(out))

    def are_coupled(self, a: int, b: int) -> bool:
        return tuple(sorted((a, b))) in self.edges

    def shortest_path(self, src: int, dst: int) -> list[int]:
        """BFS path; ties broken toward lower qubit indices."""
        dist = {dst: 0}
        frontier = deque([dst])
        while frontier:
            q = frontier.popleft()
            for nb in self.neighbors(q):
                if nb not in dist:
                    dist[nb] = dist[q] + 1
                    frontier.append(nb)
        if src not in dist:
            raise ValueError(f"qubits {src} and {dst} are not connected")
        path = [src]
        while path[-1] != dst:
            here = path[-1]
            path.append(min(nb for nb in self.neighbors(here) if dist.get(nb, 1 << 30) == dist[here] - 1))
        return path


#: 7-qubit device connectivity used for the gate-count study.
JAKARTA = CouplingMap(7, ((0, 1), (1, 2), (1, 3), (3, 5), (4, 5), (5, 6)))


@dataclass(frozen=True)
class GateCount:
    single_qubit: int
    cx: int


def _ry_native(q: int, theta) -> list[Gate]:
    # RY(t) = RZ(pi) SX RZ(t+pi) SX up to a global phase.
    return [
        Gate("sx", (q,)),
        Gate("rz", (q,), per_point(lambda t: t + math.pi, theta)),
        Gate("sx", (q,)),
        Gate("rz", (q,), math.pi),
    ]


def _cry_native(control: int, target: int, theta) -> list[Gate]:
    gates = _ry_native(target, per_point(lambda t: t / 2, theta))
    gates.append(Gate("cx", (control, target)))
    gates.extend(_ry_native(target, per_point(lambda t: -t / 2, theta)))
    gates.append(Gate("cx", (control, target)))
    return gates


def decompose_native(circuit: Circuit) -> Circuit:
    """Rewrite ry/cry in terms of the native set; everything else passes through.

    A gate with per-point angles becomes gates with per-point angles, each
    point's the same bits as the rewrite of that point's angle alone.
    """
    gates: list[Gate] = []
    for g in circuit.gates:
        if g.kind == "ry":
            gates.extend(_ry_native(g.qubits[0], g.angle))
        elif g.kind == "cry":
            gates.extend(_cry_native(g.qubits[0], g.qubits[1], g.angle))
        else:
            gates.append(g)
    return Circuit(circuit.width, tuple(gates), circuit.model_register)


@dataclass(frozen=True)
class RoutedCircuit:
    """Routed circuit plus the logical->physical maps before and after."""

    circuit: Circuit
    initial_layout: tuple[int, ...]
    final_layout: tuple[int, ...]


def default_layout(width: int, cmap: CouplingMap) -> tuple[int, ...]:
    """Hand-picked chains on the 7-qubit map; identity elsewhere."""
    if cmap == JAKARTA and width <= 7:
        chains = {
            4: (0, 1, 3, 5),
            5: (0, 1, 3, 5, 4),
            6: (0, 1, 3, 5, 6, 4),
            7: (0, 1, 3, 5, 6, 4, 2),
        }
        if width in chains:
            return chains[width]
    return tuple(range(width))


def route(
    circuit: Circuit, cmap: CouplingMap, layout: tuple[int, ...] | None = None
) -> RoutedCircuit:
    """Insert SWAPs (3 CX each) so every two-qubit gate acts on a coupled pair."""
    if circuit.width > cmap.n_qubits:
        raise ValueError(f"circuit width {circuit.width} exceeds device size {cmap.n_qubits}")
    if layout is None:
        layout = default_layout(circuit.width, cmap)
    if sorted(set(layout)) != sorted(layout) or len(layout) != circuit.width:
        raise ValueError("layout must assign a distinct physical qubit per logical qubit")

    l2p = list(layout)
    gates: list[Gate] = []

    def emit_swap(a: int, b: int) -> None:
        gates.append(Gate("cx", (a, b)))
        gates.append(Gate("cx", (b, a)))
        gates.append(Gate("cx", (a, b)))
        for lq, pq in enumerate(l2p):
            if pq == a:
                l2p[lq] = b
            elif pq == b:
                l2p[lq] = a

    for g in circuit.gates:
        if g.kind == "barrier":
            gates.append(g)
            continue
        phys = tuple(l2p[q] for q in g.qubits)
        if len(phys) == 2 and not cmap.are_coupled(*phys):
            path = cmap.shortest_path(phys[0], phys[1])
            for hop in path[1:-1]:
                emit_swap(l2p[g.qubits[0]], hop)
            phys = tuple(l2p[q] for q in g.qubits)
        gates.append(Gate(g.kind, phys, g.angle))

    # The model register names logical qubits; after swaps they have no fixed
    # physical home, so the routed circuit carries none.  The layouts on the
    # result map logical to physical at entry and exit.
    routed = Circuit(cmap.n_qubits, tuple(gates))
    return RoutedCircuit(routed, tuple(layout), tuple(l2p))


def count_gates(circuit: Circuit) -> GateCount:
    """Single-qubit and CX totals; barriers and resets excluded."""
    single = 0
    cx = 0
    for g in circuit.gates:
        if g.kind in ("reset", "barrier"):
            continue
        if g.kind not in NATIVE_KINDS:
            raise ValueError(f"non-native gate {g.kind!r}; decompose first")
        if g.kind == "cx":
            cx += 1
        else:
            single += 1
    return GateCount(single, cx)
