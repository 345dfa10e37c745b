"""Model parameters, the register layout, dense Hamiltonian, and initial states.

``ModelParams`` owns the model register: spin 1 at position 0, the boson
code bits after it, the other spins after the bosons.  ``initial_bits`` is
the one place that writes the initial product state onto that register;
the exact reference projects onto it and the circuit prepares it.

Spin basis convention: the excited spin state |up> is the computational
|1>, matching the -Z/2 term of the encoded Hamiltonian (h = 1), so the jump
operator of each spin is |0><1| and state preparation is an X gate.

Rate: gamma is the decay rate of an excited spin, exp(-gamma t), in both
pipelines: the collision angle is theta = arcsin(sqrt(1 - exp(-gamma t))) and
the reference dissipator is gamma * (L rho L' - {L'L, rho}/2).  The paper's
eq. 2 writes the dissipator as gamma * sum(2 L rho L' - {L'L, rho}), so its
gamma is half of this one: its rate G is gamma 2G here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import encoding
from .encoding import GRAY
from .pauli import PauliSum

SPIN_UP = "up"
SPIN_DOWN = "down"


@dataclass(frozen=True)
class ModelParams:
    """Spin-boson model parameters (units hbar = h = 1)."""

    epsilon: float = 0.5
    omega: float = 4.0
    lambda_c: float = 2.0
    gamma: float = 1.0
    n_spins: int = 1
    d_ho: int = 4

    def __post_init__(self) -> None:
        for name in ("epsilon", "omega", "lambda_c", "gamma"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.gamma < 0:
            raise ValueError("gamma must be nonnegative")
        if self.n_spins < 1:
            raise ValueError("need at least one spin")
        if self.d_ho < 2:
            raise ValueError("need at least two oscillator levels")

    @property
    def n_boson_qubits(self) -> int:
        return encoding.boson_qubit_count(self.d_ho)

    @property
    def register_width(self) -> int:
        """Width of the spin+boson register (no auxiliaries)."""
        return self.n_spins + self.n_boson_qubits

    @property
    def spin_positions(self) -> tuple[int, ...]:
        """Register positions of the spins: spin 1 first, the rest after the bosons."""
        return (0,) + tuple(range(1 + self.n_boson_qubits, self.register_width))

    @property
    def boson_positions(self) -> tuple[int, ...]:
        return tuple(range(1, 1 + self.n_boson_qubits))


@dataclass(frozen=True)
class InitialStateSpec:
    """Pure product initial state: one flag per spin plus an oscillator level."""

    spin_states: tuple[str, ...] = (SPIN_UP,)
    boson_level: int = 0

    def __post_init__(self) -> None:
        if any(s not in (SPIN_UP, SPIN_DOWN) for s in self.spin_states):
            raise ValueError("spin states must be 'up' or 'down'")
        if self.boson_level < 0:
            raise ValueError("boson level must be nonnegative")


@lru_cache(maxsize=64)
def hamiltonian_sum(params: ModelParams, code_kind: str = GRAY) -> PauliSum:
    """Encoded Hamiltonian, cached so circuits and the exact reference share one object."""
    return encoding.encode_hamiltonian(params, code_kind)


def dense_hamiltonian(params: ModelParams, code_kind: str = GRAY) -> np.ndarray:
    return hamiltonian_sum(params, code_kind).to_dense()


def initial_bits(spec: InitialStateSpec, params: ModelParams, code_kind: str = GRAY) -> tuple[int, ...]:
    """Bits of the initial product state on the spin+boson register.

    An excited spin is a 1; the oscillator level is written as its code word.
    """
    if len(spec.spin_states) != params.n_spins:
        raise ValueError("one spin state flag per spin required")
    if spec.boson_level >= params.d_ho:
        raise ValueError(f"boson level {spec.boson_level} out of range")
    bits = [0] * params.register_width
    for flag, sq in zip(spec.spin_states, params.spin_positions):
        bits[sq] = int(flag == SPIN_UP)
    word = encoding.code_bits(spec.boson_level, code_kind, params.n_boson_qubits)
    for bit, bq in zip(word, params.boson_positions):
        bits[bq] = bit
    return tuple(bits)


def initial_density_matrix(
    spec: InitialStateSpec, params: ModelParams, code_kind: str = GRAY
) -> np.ndarray:
    """Rank-one projector onto the product state, on the spin+boson register."""
    index = int("".join(map(str, initial_bits(spec, params, code_kind))), 2)
    dim = 2**params.register_width
    rho = np.zeros((dim, dim), dtype=complex)
    rho[index, index] = 1.0
    return rho
