"""Mapping of the truncated oscillator and the spin-boson Hamiltonian onto qubits.

The oscillator is truncated at ``d_ho`` levels, each level is assigned an
integer, the integer is written out with an integer-to-bit code (reflected
Gray or standard binary), and every level transition ``|l><l'|`` becomes a
product of the single-qubit operators

    |0><0| = (I + Z)/2      |0><1| = (X + iY)/2
    |1><1| = (I - Z)/2      |1><0| = (X - iY)/2

so that any truncated operator turns into a Pauli sum.  A code is its kind
string plus a width in bits.  The register layout (which qubit holds which
spin or boson bit) is decided by ``ModelParams``; ``encode_hamiltonian``
reads the positions from there.  With the register laid out as
``[spin 1, boson qubits, spin 2, ...]`` the encoded Hamiltonian
for one spin at (eps=0.5, omega=4, lambda=2, d_ho=4, Gray) has exactly
the eight non-identity terms

    -sqrt(2) X0X1Z2 + sqrt(2) X0X1 + (1-sqrt(3)) X0Z1X2 + (1+sqrt(3)) X0X2
    + 1/4 X0 - 1/2 Z0 - 2 Z1Z2 - 4 Z1

which the test suite pins down coefficient by coefficient.  The spin-z term
enters as -Z/2 (h = 1), i.e. the excited spin state is the computational |1>.
"""

from __future__ import annotations

import itertools
import math

from .pauli import PauliString, PauliSum, canonicalize

GRAY = "gray"
STANDARD_BINARY = "binary"
CODE_KINDS = (GRAY, STANDARD_BINARY)

# |b><b'| in terms of (phase, letter) pairs; each entry is a two-term sum.
_BIT_PAIR_OPS = {
    (0, 0): ((0.5, "I"), (0.5, "Z")),
    (1, 1): ((0.5, "I"), (-0.5, "Z")),
    (0, 1): ((0.5, "X"), (0.5j, "Y")),
    (1, 0): ((0.5, "X"), (-0.5j, "Y")),
}


def boson_qubit_count(d_ho: int) -> int:
    """Qubits needed for d_ho levels: ceil(log2 d_ho)."""
    if d_ho < 2:
        raise ValueError("need at least two oscillator levels")
    return math.ceil(math.log2(d_ho))


def code_bits(i: int, kind: str, width: int) -> tuple[int, ...]:
    """Code word of integer ``i`` in the ``kind`` code of ``width`` bits, most significant bit first."""
    if kind not in CODE_KINDS:
        raise ValueError(f"unknown code kind {kind!r}")
    if not 0 <= i < 2**width:
        raise ValueError(f"index {i} out of range for width {width}")
    word = i ^ (i >> 1) if kind == GRAY else i
    return tuple((word >> (width - 1 - k)) & 1 for k in range(width))


def encode_transition(l: int, lp: int, kind: str, width: int, d_ho: int | None = None) -> PauliSum:
    """Pauli sum whose dense matrix is exactly ``|code(l)><code(lp)|``."""
    limit = d_ho if d_ho is not None else 2**width
    if not (0 <= l < limit and 0 <= lp < limit):
        raise ValueError(f"levels ({l}, {lp}) out of range for d_ho={limit}")
    row = code_bits(l, kind, width)
    col = code_bits(lp, kind, width)
    terms = []
    for combo in itertools.product(*(_BIT_PAIR_OPS[pair] for pair in zip(row, col))):
        coeff = 1.0 + 0j
        letters = []
        for c, letter in combo:
            coeff *= c
            letters.append(letter)
        terms.append(PauliString("".join(letters), coeff))
    return canonicalize(PauliSum(tuple(terms)))


def encode_boson_operator(which: str, d_ho: int, kind: str) -> PauliSum:
    """Encoded lowering, raising or number operator of the truncated oscillator.

    ``which`` is one of ``"a"``, ``"a_dagger"``, ``"number"``; matrix
    elements are a_{l,l+1} = sqrt(l+1), its transpose, and n_{l,l} = l.
    """
    width = boson_qubit_count(d_ho)
    terms: list[PauliString] = []
    for l in range(d_ho):
        for lp in range(d_ho):
            if which == "a":
                elem = math.sqrt(lp) if lp == l + 1 else 0.0
            elif which == "a_dagger":
                elem = math.sqrt(l) if l == lp + 1 else 0.0
            elif which == "number":
                elem = float(l) if l == lp else 0.0
            else:
                raise ValueError(f"unknown boson operator {which!r}")
            if elem:
                terms.extend(encode_transition(l, lp, kind, width, d_ho).scaled(elem).terms)
    return canonicalize(PauliSum(tuple(terms)))


def _embed(pattern: str, positions: tuple[int, ...], width: int) -> str:
    letters = ["I"] * width
    for q, c in zip(positions, pattern):
        letters[q] = c
    return "".join(letters)


def encode_hamiltonian(params, kind: str = GRAY) -> PauliSum:
    """Encoded spin-boson Hamiltonian on the register ``params`` lays out.

    Per spin the terms are ``-Z/2 + eps/2 X + lambda X (a + a')`` with the
    encoded oscillator operators, plus ``omega`` times the encoded number
    operator; identity-only terms (a global phase) are dropped.
    """
    width = params.register_width
    if width > 8:
        raise ValueError(f"register width {width} exceeds the dense-oracle limit")
    bosons = params.boson_positions

    number = encode_boson_operator("number", params.d_ho, kind)
    position = canonicalize(
        encode_boson_operator("a", params.d_ho, kind) + encode_boson_operator("a_dagger", params.d_ho, kind)
    )

    terms: list[PauliString] = []
    for t in number.terms:
        terms.append(PauliString(_embed(t.letters, bosons, width), params.omega * t.coefficient))
    for sq in params.spin_positions:
        terms.append(PauliString(_embed("Z", (sq,), width), -0.5))
        terms.append(PauliString(_embed("X", (sq,), width), params.epsilon / 2))
        for t in position.terms:
            pattern = _embed("X" + t.letters, (sq,) + bosons, width)
            terms.append(PauliString(pattern, params.lambda_c * t.coefficient))

    encoded, _ = canonicalize(PauliSum(tuple(terms))).drop_identity()
    return encoded
