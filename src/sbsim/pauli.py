"""Weighted Pauli-string algebra on a fixed-width qubit register.

Conventions used throughout the package:

* qubit 0 is the *leftmost* tensor factor, so ``to_dense`` of ``"XZ"``
  is ``kron(X, Z)``;
* a :class:`PauliSum` in canonical form has no duplicate letter patterns,
  no terms with ``|coefficient| < COEFF_TOL``, and its terms sorted
  lexicographically by letters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

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

# Single-qubit products a*b -> (phase, letter), e.g. X*Y = i Z.
_PRODUCT: dict[tuple[str, str], tuple[complex, str]] = {}
for _a in LETTERS:
    _PRODUCT[("I", _a)] = (1, _a)
    _PRODUCT[(_a, "I")] = (1, _a)
    _PRODUCT[(_a, _a)] = (1, "I")
for _a, _b, _c in (("X", "Y", "Z"), ("Y", "Z", "X"), ("Z", "X", "Y")):
    _PRODUCT[(_a, _b)] = (1j, _c)
    _PRODUCT[(_b, _a)] = (-1j, _c)


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

    def dagger(self) -> "PauliString":
        return PauliString(self.letters, self.coefficient.conjugate())

    def to_dense(self) -> np.ndarray:
        return self.coefficient * kron_all(PAULI_MATRICES[c] for c in self.letters)

    def __mul__(self, other: "PauliString") -> "PauliString":
        return multiply(self, other)

    def __str__(self) -> str:
        return f"{_fmt_coeff(self.coefficient)} {self.letters}"


def multiply(a: PauliString, b: PauliString) -> PauliString:
    """Product of two Pauli strings with the accumulated phase in the coefficient."""
    if a.width != b.width:
        raise ValueError(f"width mismatch: {a.width} vs {b.width}")
    phase = a.coefficient * b.coefficient
    letters = []
    for ca, cb in zip(a.letters, b.letters):
        p, c = _PRODUCT[(ca, cb)]
        phase *= p
        letters.append(c)
    return PauliString("".join(letters), phase)


@dataclass(frozen=True)
class PauliSum:
    """Sum of :class:`PauliString` terms over one register."""

    terms: tuple[PauliString, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "terms", tuple(self.terms))
        widths = {t.width for t in self.terms}
        if len(widths) > 1:
            raise ValueError(f"mixed register widths {sorted(widths)}")

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[str, complex]]) -> "PauliSum":
        return cls(tuple(PauliString(p, c) for p, c in pairs))

    @property
    def width(self) -> int:
        if not self.terms:
            raise ValueError("empty sum has no width")
        return self.terms[0].width

    def canonicalize(self, tol: float = COEFF_TOL) -> "PauliSum":
        return canonicalize(self, tol)

    def is_hermitian(self, tol: float = COEFF_TOL) -> bool:
        return all(abs(t.coefficient.imag) <= tol for t in canonicalize(self).terms)

    def dagger(self) -> "PauliSum":
        return PauliSum(tuple(t.dagger() for t in self.terms))

    def scaled(self, factor: complex) -> "PauliSum":
        return PauliSum(tuple(PauliString(t.letters, factor * t.coefficient) for t in self.terms))

    def __add__(self, other: "PauliSum") -> "PauliSum":
        return PauliSum(self.terms + other.terms)

    def to_dense(self) -> np.ndarray:
        return to_dense(self)

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

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = [str(t) for t in self.terms]
        return " + ".join(parts).replace("+ -", "- ")


def canonicalize(s: PauliSum, tol: float = COEFF_TOL) -> PauliSum:
    """Merge duplicate patterns, drop negligible terms, sort by letters."""
    merged: dict[str, complex] = {}
    for t in s.terms:
        merged[t.letters] = merged.get(t.letters, 0j) + t.coefficient
    kept = [
        PauliString(p, c) for p, c in sorted(merged.items()) if abs(c) >= tol
    ]
    return PauliSum(tuple(kept))


def to_dense(s: PauliSum, max_width: int = 8) -> np.ndarray:
    """Dense matrix of the sum; qubit 0 is the leftmost tensor factor."""
    width = s.width
    if width > max_width:
        raise ValueError(f"register width {width} too large for dense realization")
    dim = 2**width
    out = np.zeros((dim, dim), dtype=complex)
    for t in s.terms:
        out += t.to_dense()
    return out


def kron_all(mats) -> np.ndarray:
    """Kronecker product of the matrices in order (the first is leftmost)."""
    out = np.ones((1, 1))
    for m in mats:
        out = np.kron(out, m)
    return out


def embed_operator(op: np.ndarray, qubits: tuple[int, ...], width: int) -> np.ndarray:
    """Expand a k-qubit operator to the full register (qubit 0 leftmost)."""
    k = len(qubits)
    if op.shape != (2**k, 2**k):
        raise ValueError("operator shape does not match operand count")
    rest = [q for q in range(width) if q not in qubits]
    full = np.kron(op, np.eye(2 ** (width - k), dtype=complex))
    order = list(qubits) + rest
    perm = [order.index(q) for q in range(width)]
    tensor = full.reshape((2,) * (2 * width))
    tensor = tensor.transpose(perm + [width + p for p in perm])
    return np.ascontiguousarray(tensor.reshape(2**width, 2**width))


def _fmt_coeff(c: complex) -> str:
    if abs(c.imag) <= COEFF_TOL:
        return f"{c.real:g}"
    if abs(c.real) <= COEFF_TOL:
        return f"{c.imag:g}j"
    return f"({c.real:g}{c.imag:+g}j)"
