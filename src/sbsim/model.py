"""Model parameters, dense Hamiltonian, jump operators, and initial states.

Spin basis convention: the excited spin state |up> is the computational
|1>, matching the -h/2 Z term of the encoded Hamiltonian, so the jump
operator of each spin is |0><1| and state preparation is an X gate.

Rate convention: the collision angle theta = arcsin(sqrt(1 - exp(-gamma t)))
produces excited-population decay exp(-gamma t), whereas the master equation
written with gamma * sum(2 L rho L' - {L'L, rho}) decays as exp(-2 gamma t).
Both pipelines here share a single effective rate so they are mutually
consistent by construction:

* ``"paper-collision"`` (default): gamma_eff = gamma, i.e. the reference
  evolution uses dissipator gamma * (L rho L' - {L'L, rho}/2) and the
  collision angle formula holds verbatim;
* ``"eq2-literal"``: gamma_eff = 2 * gamma, keeping the doubled dissipator
  and using theta = arcsin(sqrt(1 - exp(-2 gamma t))) in the circuits.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import encoding
from .encoding import GRAY, BitCode, TruncationSpec
from .pauli import PauliSum, embed_operator

PAPER_COLLISION = "paper-collision"
EQ2_LITERAL = "eq2-literal"
RATE_CONVENTIONS = (PAPER_COLLISION, EQ2_LITERAL)

SPIN_UP = "up"
SPIN_DOWN = "down"

_LOWER = np.array([[0, 1], [0, 0]], dtype=complex)  # |down><up| = |0><1|


def gamma_eff(gamma: float, convention: str = PAPER_COLLISION) -> float:
    """Effective damping rate of the standard-form dissipator."""
    if convention not in RATE_CONVENTIONS:
        raise ValueError(f"unknown rate convention {convention!r}")
    return gamma if convention == PAPER_COLLISION else 2.0 * gamma


@dataclass(frozen=True)
class ModelParams:
    """Spin-boson model parameters (units hbar = h = 1)."""

    epsilon: float = 0.5
    omega: float = 4.0
    lambda_c: float = 2.0
    gamma: float = 1.0
    n_spins: int = 1
    d_ho: int = 4
    h: float = 1.0

    def __post_init__(self) -> None:
        for name in ("h", "epsilon", "omega", "lambda_c", "gamma"):
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
        return encoding.register_width(self.n_spins, self.n_boson_qubits)

    @property
    def spin_positions(self) -> tuple[int, ...]:
        return encoding.spin_positions(self.n_spins, self.n_boson_qubits)

    @property
    def boson_positions(self) -> tuple[int, ...]:
        return encoding.boson_positions(self.n_spins, self.n_boson_qubits)


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


def lindblad_operators(
    params: ModelParams, convention: str = PAPER_COLLISION
) -> list[tuple[np.ndarray, float]]:
    """One lowering operator per spin on the full register, with its rate."""
    rate = gamma_eff(params.gamma, convention)
    width = params.register_width
    return [(embed_operator(_LOWER, (sq,), width), rate) for sq in params.spin_positions]


def initial_density_matrix(
    spec: InitialStateSpec, params: ModelParams, code_kind: str = GRAY
) -> np.ndarray:
    """Rank-one projector onto the product state, on the spin+boson register."""
    if len(spec.spin_states) != params.n_spins:
        raise ValueError("one spin state flag per spin required")
    if spec.boson_level >= params.d_ho:
        raise ValueError(f"boson level {spec.boson_level} out of range")
    width = params.register_width
    bits = [0] * width
    for flag, sq in zip(spec.spin_states, params.spin_positions):
        bits[sq] = 1 if flag == SPIN_UP else 0
    code = BitCode(code_kind, TruncationSpec(params.d_ho).n_qubits)
    for bit, bq in zip(encoding.code_bits(spec.boson_level, code), params.boson_positions):
        bits[bq] = bit
    index = 0
    for b in bits:
        index = (index << 1) | b
    rho = np.zeros((2**width, 2**width), dtype=complex)
    rho[index, index] = 1.0
    return rho
