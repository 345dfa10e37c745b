"""Gate-level IR and circuit constructors.

Builds the full evolution circuit: first/second-order product-formula
steps of Pauli-exponential staircases, each followed by one collision per
spin (a two-qubit block realizing amplitude damping), with a barrier
marking every time step.  A circuit holds no measurement: what is read
out is its model register.

The model register (which model position holds which spin or boson bit)
is ``ModelParams``'s; ``evolution_layout`` only places those positions on
circuit qubits, and every gate is built directly on its circuit qubit.  A
circuit's ``model_register`` is all it says about its qubits: it lists the
model qubits in model order, and every other qubit is an auxiliary.

Angle convention (pinned by the gate set): RY(t) = exp(-i t Y / 2) and
RZ(t) = exp(-i t Z / 2), i.e. the gate argument is twice the rotation
angle.  The collision block therefore carries CRY(2*theta) with
theta = arcsin(sqrt(1 - exp(-gamma_eff dt))).

A stacked circuit holds several points of one gate structure: each angle
that differs between them is a tuple with one float per point, and the
circuit's ``points`` is their common length.  ``assemble_evolution`` given
a tuple of dt values builds one, each point's floats the same bits as the
build at that dt alone.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

from .encoding import GRAY
from .model import (
    PAPER_COLLISION,
    InitialStateSpec,
    ModelParams,
    gamma_eff,
    hamiltonian_sum,
    initial_bits,
)
from .pauli import PauliString

UNITARY_KINDS = ("x", "sx", "rz", "ry", "cx", "cry", "id")
MARKER_KINDS = ("reset", "barrier")
ANGLED_KINDS = ("rz", "ry", "cry")
TWO_QUBIT_KINDS = ("cx", "cry")


@dataclass(frozen=True)
class Gate:
    """A gate kind on its operands, with its angle if the kind takes one.

    ``angle`` is a float, or a tuple with one float per point of a stacked
    circuit.  The hash of (kind, qubits, angle) is computed once, here;
    equality compares the three fields.
    """

    kind: str
    qubits: tuple[int, ...] = ()
    angle: float | tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in UNITARY_KINDS + MARKER_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        object.__setattr__(self, "qubits", tuple(self.qubits))
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"repeated operands {self.qubits}")
        operands = 2 if self.kind in TWO_QUBIT_KINDS else 1
        if self.kind != "barrier" and len(self.qubits) != operands:
            raise ValueError(f"{self.kind} needs {operands} operand(s), got {self.qubits}")
        if self.kind in ANGLED_KINDS:
            angles = self.angle if isinstance(self.angle, tuple) else (self.angle,)
            if not angles or any(a is None or not math.isfinite(a) for a in angles):
                raise ValueError(f"{self.kind} needs a finite angle or a non-empty tuple of them, got {self.angle}")
        elif self.angle is not None:
            raise ValueError(f"{self.kind} takes no angle")
        object.__setattr__(self, "_hash", hash((self.kind, self.qubits, self.angle)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # rebuilt, not copied: a string's hash differs between processes
        return Gate, (self.kind, self.qubits, self.angle)


def per_point(fn, angle):
    """``fn`` of a float angle, or the tuple of ``fn`` of each point's angle."""
    return tuple(map(fn, angle)) if isinstance(angle, tuple) else fn(angle)


@dataclass(frozen=True)
class Circuit:
    """Ordered gate list over a register of model and auxiliary qubits.

    ``model_register`` lists, in spin+boson register order, the circuit
    index of each model qubit; every other qubit is an auxiliary, and only
    an auxiliary may be reset.  Without it every qubit is a model qubit, in
    circuit order, and any qubit may be reset.

    Its angle tuples, if any, share one length: ``points``, the number of
    points the circuit stacks.
    """

    width: int
    gates: tuple[Gate, ...] = field(default_factory=tuple)
    model_register: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "gates", tuple(self.gates))
        if self.model_register is not None:
            object.__setattr__(self, "model_register", tuple(self.model_register))
            if len(set(self.model_register)) != len(self.model_register) or any(
                q >= self.width or q < 0 for q in self.model_register
            ):
                raise ValueError(
                    f"model register {self.model_register} repeats a qubit or leaves the "
                    f"register of width {self.width}"
                )
        lengths = {len(g.angle) for g in self.gates if isinstance(g.angle, tuple)}
        if len(lengths) > 1:
            raise ValueError(f"angle tuples of lengths {sorted(lengths)} in one circuit; all must have one per point")
        object.__setattr__(self, "_points", lengths.pop() if lengths else None)
        for g in self.gates:
            if any(q >= self.width or q < 0 for q in g.qubits):
                raise ValueError(f"gate {g} outside register of width {self.width}")
            if (
                g.kind == "reset"
                and self.model_register is not None
                and any(q in self.model_register for q in g.qubits)
            ):
                raise ValueError(f"reset on model qubit {g.qubits}")

    @property
    def points(self) -> int | None:
        """The length of every angle tuple of the circuit; None when every angle is a float."""
        return self._points

    @property
    def aux_qubits(self) -> tuple[int, ...]:
        """The qubits outside ``model_register``, in circuit order."""
        if self.model_register is None:
            return ()
        return tuple(q for q in range(self.width) if q not in self.model_register)


# Basis changes V with V P V' = Z, as (pre, post) gate lists; the
# exponential then conjugates a single RZ: exp(-i a P) = V' RZ(2a) V.
# SX RZ(pi/2) SX equals the Hadamard exactly (no global phase), so both
# conjugations below are exact inverse pairs built from native gates only.
def _basis_change(letter: str, q: int) -> tuple[list[Gate], list[Gate]]:
    half = math.pi / 2
    hadamard = [Gate("sx", (q,)), Gate("rz", (q,), half), Gate("sx", (q,))]
    if letter == "Z":
        return [], []
    if letter == "X":
        return hadamard, list(hadamard)
    # Y: V = H Sdg, realized as RZ(-pi/2) followed by the Hadamard triple.
    return (
        [Gate("rz", (q,), -half)] + hadamard,
        hadamard + [Gate("rz", (q,), half)],
    )


def _pauli_exponential_gates(term: PauliString, angle, qubits: Sequence[int]) -> list[Gate]:
    """Gates of exp(-i angle coeff P), letter k of P acting on circuit qubit ``qubits[k]``.

    ``angle`` is a float or a tuple of per-point floats.
    """
    if abs(term.coefficient.imag) > 1e-12:
        raise ValueError(f"coefficient {term.coefficient} is not real")
    active = [(qubits[k], c) for k, c in enumerate(term.letters) if c != "I"]
    if not active:
        raise ValueError("identity string exponentiates to a global phase; fold it out")
    pre: list[Gate] = []
    post: list[Gate] = []
    for q, c in active:
        p, u = _basis_change(c, q)
        pre.extend(p)
        post = u + post
    qs = [q for q, _ in active]
    stair = [Gate("cx", (qs[i], qs[i + 1])) for i in range(len(qs) - 1)]
    coefficient = term.coefficient.real
    rz = Gate("rz", (qs[-1],), per_point(lambda a: 2.0 * a * coefficient, angle))
    return pre + stair + [rz] + stair[::-1] + post


def _trotter_gates(terms: tuple[PauliString, ...], dt, order: int, qubits: Sequence[int]) -> list[Gate]:
    gates: list[Gate] = []
    if order == 1:
        for t in terms:
            gates.extend(_pauli_exponential_gates(t, dt, qubits))
    elif order == 2:
        # Half-angle sweep forward, then reverse; the doubled turning-point
        # exponential is merged into a single full-angle one.
        half = per_point(lambda d: d / 2, dt)
        for t in terms[:-1]:
            gates.extend(_pauli_exponential_gates(t, half, qubits))
        gates.extend(_pauli_exponential_gates(terms[-1], dt, qubits))
        for t in terms[-2::-1]:
            gates.extend(_pauli_exponential_gates(t, half, qubits))
    else:
        raise ValueError(f"unsupported product-formula order {order}")
    return gates


def collision_angle(gamma: float, dt: float, convention: str = PAPER_COLLISION) -> float:
    """theta = arcsin(sqrt(1 - exp(-gamma_eff dt)))."""
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
    return math.asin(math.sqrt(1.0 - math.exp(-gamma_eff(gamma, convention) * dt)))


def _collision_gates(gamma: float, dt, spin_q: int, aux_q: int, convention: str) -> list[Gate]:
    angle = per_point(lambda d: 2.0 * collision_angle(gamma, d, convention), dt)
    return [
        Gate("cry", (spin_q, aux_q), angle),
        Gate("cx", (aux_q, spin_q)),
        Gate("reset", (aux_q,)),
    ]


def evolution_layout(params: ModelParams) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """Width, model->circuit map, and per-spin aux indices for the assembled circuit.

    One spin: [bosons..., spin, aux]; two spins: [aux1, spin1, bosons...,
    spin2, aux2], i.e. auxiliaries sit at the circuit edges next to their
    spins.
    """
    nb = params.n_boson_qubits
    if params.n_spins == 1:
        model_register = (nb,) + tuple(range(nb))
        aux_for_spin = (nb + 1,)
    elif params.n_spins == 2:
        model_register = (1,) + tuple(range(2, 2 + nb)) + (2 + nb,)
        aux_for_spin = (0, 3 + nb)
    else:
        raise ValueError("assembled circuits support one or two spins")
    return len(model_register) + len(aux_for_spin), model_register, aux_for_spin


def assemble_evolution(
    params: ModelParams,
    spec: InitialStateSpec,
    n_steps: int,
    dt: float | tuple[float, ...],
    order: int = 2,
    code_kind: str = GRAY,
    convention: str = PAPER_COLLISION,
) -> Circuit:
    """Full evolution circuit: preparation, then n_steps of [unitary; collisions].

    Collisions are omitted entirely for gamma = 0, where the run is a plain
    Hamiltonian simulation.  A barrier follows the preparation and every
    step, so the marked states align with the reference grid t = k dt, and
    the last one ends the circuit.

    ``dt`` is one time step, or a tuple of them: the circuit then stacks
    one point per dt (``Circuit.points``), every dt-dependent angle a tuple
    whose entry p has the same bits as that angle in the build at ``dt[p]``
    alone, and every other gate the same.
    """
    if n_steps < 0:
        raise ValueError("n_steps must be nonnegative")
    width, model_register, aux_for_spin = evolution_layout(params)

    # State preparation: X on every 1-bit of the initial basis state.
    bits = initial_bits(spec, params, code_kind)
    gates = [Gate("x", (model_register[p],)) for p, bit in enumerate(bits) if bit]
    gates.append(Gate("barrier"))

    if n_steps > 0:
        # the encoded Hamiltonian is already canonical
        step_gates = _trotter_gates(hamiltonian_sum(params, code_kind).terms, dt, order, model_register)
        for _ in range(n_steps):
            gates.extend(step_gates)
            if params.gamma > 0:
                for model_pos, aux_q in zip(params.spin_positions, aux_for_spin):
                    gates.extend(
                        _collision_gates(
                            params.gamma, dt, model_register[model_pos], aux_q, convention
                        )
                    )
            gates.append(Gate("barrier"))
    return Circuit(width, tuple(gates), model_register)
