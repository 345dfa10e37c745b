"""Weighted Pauli strings and their sums on a fixed-width qubit register.

Conventions used throughout the package:

* qubit 0 is the *leftmost* tensor factor, so ``to_dense`` of ``"XZ"``
  is ``kron(X, Z)``;
* a :class:`PauliSum` in canonical form has no duplicate letter patterns,
  no terms with ``|coefficient| < COEFF_TOL``, and its terms sorted
  lexicographically by letters;
* ``embed_operator`` alone places local operators on a larger register:
  observables, jump operators, gate superoperators and two-qubit channels.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

#: Coefficients below this magnitude are treated as zero when canonicalizing.
COEFF_TOL = 1e-12

LETTERS = "IXYZ"

PAULI_MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


@dataclass(frozen=True)
class PauliString:
    """A single Pauli word with a complex weight, e.g. ``-2 * XZI``."""

    letters: str
    coefficient: complex = 1.0 + 0j

    def __post_init__(self) -> None:
        if not self.letters or any(c not in LETTERS for c in self.letters):
            raise ValueError(f"invalid Pauli letters {self.letters!r}")
        object.__setattr__(self, "coefficient", complex(self.coefficient))

    @property
    def width(self) -> int:
        return len(self.letters)

    @property
    def weight(self) -> int:
        """Number of non-identity letters."""
        return sum(1 for c in self.letters if c != "I")

    def to_dense(self) -> np.ndarray:
        return self.coefficient * kron_all(PAULI_MATRICES[c] for c in self.letters)


@dataclass(frozen=True)
class PauliSum:
    """Sum of :class:`PauliString` terms over one register."""

    terms: tuple[PauliString, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "terms", tuple(self.terms))
        widths = {t.width for t in self.terms}
        if len(widths) > 1:
            raise ValueError(f"mixed register widths {sorted(widths)}")

    @property
    def width(self) -> int:
        if not self.terms:
            raise ValueError("empty sum has no width")
        return self.terms[0].width

    def scaled(self, factor: complex) -> "PauliSum":
        return PauliSum(tuple(PauliString(t.letters, factor * t.coefficient) for t in self.terms))

    def __add__(self, other: "PauliSum") -> "PauliSum":
        return PauliSum(self.terms + other.terms)

    def to_dense(self) -> np.ndarray:
        """Dense matrix of the sum; qubit 0 is the leftmost tensor factor."""
        if self.width > 8:
            raise ValueError(f"register width {self.width} too large for dense realization")
        out = np.zeros((2**self.width, 2**self.width), dtype=complex)
        for t in self.terms:
            out += t.to_dense()
        return out

    def drop_identity(self) -> tuple["PauliSum", complex]:
        """Split off the identity-only term (a global energy offset)."""
        offset = 0.0 + 0j
        kept = []
        for t in self.terms:
            if t.weight == 0:
                offset += t.coefficient
            else:
                kept.append(t)
        return PauliSum(tuple(kept)), offset


def canonicalize(s: PauliSum) -> PauliSum:
    """Merge duplicate patterns, drop negligible terms, sort by letters."""
    merged: dict[str, complex] = {}
    for t in s.terms:
        merged[t.letters] = merged.get(t.letters, 0j) + t.coefficient
    kept = [PauliString(p, c) for p, c in sorted(merged.items()) if abs(c) >= COEFF_TOL]
    return PauliSum(tuple(kept))


def kron_all(mats) -> np.ndarray:
    """Kronecker product of the matrices in order (the first is leftmost)."""
    out = np.ones((1, 1))
    for m in mats:
        out = np.kron(out, m)
    return out


def embed_operator(op: np.ndarray, qubits: tuple[int, ...], width: int) -> np.ndarray:
    """Place each (2^k, 2^k) operator of a (..., 2^k, 2^k) stack on ``qubits`` of the register.

    Its i-th qubit lands on ``qubits[i]`` (qubit 0 leftmost); the result is
    complex.  A superoperator on qubits ``at`` of an n-qubit register, in
    ``kraus_superop``'s row-major convention, is an operator on the 2n-bit
    (row bits, then column bits) register at ``at + tuple(n + p for p in at)``.
    """
    k = len(qubits)
    if op.shape[-2:] != (2**k, 2**k):
        raise ValueError("operator shape does not match operand count")
    if tuple(qubits) == tuple(range(width)):  # already in place: a copy, as complex
        return op.astype(complex)
    order = list(qubits) + [q for q in range(width) if q not in qubits]
    perm = [1 + order.index(q) for q in range(width)]
    # op x identity by broadcasting, on axes (stack, op row, rest row, op column, rest column)
    full = op.reshape(-1, 2**k, 1, 2**k, 1) * np.eye(2 ** (width - k), dtype=complex)[:, None, :]
    tensor = full.reshape((-1,) + (2,) * (2 * width)).transpose([0] + perm + [width + p for p in perm])
    return tensor.reshape(op.shape[:-2] + (2**width, 2**width))

