"""Integer-to-bit codes and the boson/Hamiltonian encodings.

The published encoded Hamiltonians pin the conventions: register
[spin1, boson hi, boson lo(, spin2)], Gray code on the oscillator, and the
-h/2 Z spin term.
"""

import math

import numpy as np
import pytest

from conftest import code_permutation, kron_all, PAULI
from sbsim.encoding import (
    GRAY,
    STANDARD_BINARY,
    boson_qubit_count,
    code_bits,
    encode_boson_operator,
    encode_hamiltonian,
    encode_transition,
)
from sbsim.model import ModelParams, hamiltonian_sum
from sbsim.pauli import PauliString, PauliSum, canonicalize

SQRT2, SQRT3 = math.sqrt(2), math.sqrt(3)


def test_gray_code_width_two():
    assert [code_bits(i, GRAY, 2) for i in range(4)] == [(0, 0), (0, 1), (1, 1), (1, 0)]


def test_standard_binary_width_two():
    assert code_bits(2, STANDARD_BINARY, 2) == (1, 0)


def test_gray_code_width_three():
    # reflected binary: 5 -> 5 ^ 2 = 7 -> 111
    assert code_bits(5, GRAY, 3) == (1, 1, 1)


def test_code_bits_out_of_range():
    with pytest.raises(ValueError):
        code_bits(4, GRAY, 2)


def test_gray_adjacent_words_differ_in_one_bit():
    for i in range(7):
        a, b = code_bits(i, GRAY, 3), code_bits(i + 1, GRAY, 3)
        assert sum(x != y for x, y in zip(a, b)) == 1


@pytest.mark.parametrize("kind", [GRAY, STANDARD_BINARY])
def test_code_bits_is_one_to_one(kind):
    words = {code_bits(i, kind, 3) for i in range(8)}
    assert len(words) == 8
    assert all(len(w) == 3 and set(w) <= {0, 1} for w in words)


def test_qubit_count():
    assert [boson_qubit_count(d) for d in (2, 3, 4, 5, 8)] == [1, 2, 2, 3, 3]
    with pytest.raises(ValueError, match="at least two oscillator levels"):
        encode_boson_operator("number", 1, GRAY)


def test_transition_ground_projector():
    s = encode_transition(0, 0, GRAY, 1)
    assert {(t.letters, t.coefficient) for t in s.terms} == {("I", 0.5), ("Z", 0.5)}


def test_transition_raising_component():
    s = encode_transition(0, 1, GRAY, 1)
    assert {(t.letters, t.coefficient) for t in s.terms} == {("X", 0.5), ("Y", 0.5j)}


def test_transition_dense_is_matrix_unit_in_code_basis():
    dense = encode_transition(2, 3, GRAY, 2).to_dense()
    expected = np.zeros((4, 4))
    expected[0b11, 0b10] = 1.0  # gray(2)=11, gray(3)=10
    np.testing.assert_allclose(dense, expected, atol=1e-15)


def test_transition_level_out_of_range():
    with pytest.raises(ValueError):
        encode_transition(0, 3, GRAY, 2, d_ho=3)


def test_number_operator_gray_d4():
    s = encode_boson_operator("number", 4, GRAY)
    coeffs = {t.letters: t.coefficient for t in s.terms}
    assert coeffs == {"II": 1.5, "ZI": -1.0, "ZZ": -0.5}


def test_position_operator_gray_d4():
    s = canonicalize(encode_boson_operator("a", 4, GRAY) + encode_boson_operator("a_dagger", 4, GRAY))
    coeffs = {t.letters: t.coefficient for t in s.terms}
    assert coeffs == pytest.approx(
        {"IX": (1 + SQRT3) / 2, "ZX": (1 - SQRT3) / 2, "XI": SQRT2 / 2, "XZ": -SQRT2 / 2}
    )
    assert all("Y" not in t.letters for t in s.terms)


def test_lowering_operator_two_levels():
    s = encode_boson_operator("a", 2, GRAY)
    assert {(t.letters, t.coefficient) for t in s.terms} == {("X", 0.5), ("Y", 0.5j)}


@pytest.mark.parametrize("kind", [GRAY, STANDARD_BINARY])
@pytest.mark.parametrize("d_ho", [2, 4, 8])
@pytest.mark.parametrize("which", ["a", "a_dagger", "number"])
def test_encoded_operator_equals_permuted_truncated_matrix(kind, d_ho, which):
    truncated = np.zeros((d_ho, d_ho))
    for l in range(d_ho - 1):
        truncated[l, l + 1] = math.sqrt(l + 1)
    if which == "a_dagger":
        truncated = truncated.T.copy()
    elif which == "number":
        truncated = np.diag(np.arange(d_ho, dtype=float))
    perm = code_permutation(kind, boson_qubit_count(d_ho))
    np.testing.assert_allclose(
        encode_boson_operator(which, d_ho, kind).to_dense(),
        perm @ truncated @ perm.T,
        atol=1e-12,
    )


@pytest.mark.parametrize("kind", [GRAY, STANDARD_BINARY])
def test_raising_is_adjoint_of_lowering(kind):
    lowering = encode_boson_operator("a", 4, kind)
    raising = encode_boson_operator("a_dagger", 4, kind)
    adjoint = PauliSum(tuple(PauliString(t.letters, t.coefficient.conjugate()) for t in lowering.terms))
    assert canonicalize(adjoint) == raising


def test_single_spin_hamiltonian_matches_published_terms():
    h = encode_hamiltonian(ModelParams(epsilon=0.5, omega=4, lambda_c=2, n_spins=1, d_ho=4))
    expected = {
        "XXZ": -SQRT2, "XXI": SQRT2, "XZX": 1 - SQRT3, "XIX": 1 + SQRT3,
        "XII": 0.25, "ZII": -0.5, "IZZ": -2.0, "IZI": -4.0,
    }
    assert len(h.terms) == 8
    for t in h.terms:
        assert abs(t.coefficient - expected[t.letters]) < 1e-12


def test_two_spin_hamiltonian_matches_published_terms():
    h = encode_hamiltonian(ModelParams(epsilon=0.5, omega=6, lambda_c=2, n_spins=2, d_ho=4))
    expected = {
        "XXZI": -SQRT2, "XXII": SQRT2, "XZXI": 1 - SQRT3, "XIXI": 1 + SQRT3, "XIII": 0.25,
        "IXZX": -SQRT2, "IXIX": SQRT2, "IZXX": 1 - SQRT3, "IIXX": 1 + SQRT3, "IIIX": 0.25,
        "ZIII": -0.5, "IZZI": -3.0, "IZII": -6.0, "IIIZ": -0.5,
    }
    assert len(h.terms) == 14
    for t in h.terms:
        assert abs(t.coefficient - expected[t.letters]) < 1e-12


def test_decoupled_limit_is_pure_spin_z():
    h = encode_hamiltonian(ModelParams(epsilon=0.0, omega=0.0, lambda_c=0.0, n_spins=1, d_ho=4))
    assert {t.letters for t in h.terms} == {"ZII"}


def test_hamiltonian_dense_equals_permuted_truncated_hamiltonian():
    # dense(encoded) must equal P H_trunc P' + c I with c the dropped identity offset
    params = ModelParams(epsilon=0.5, omega=4, lambda_c=2, n_spins=1, d_ho=4)
    dense = encode_hamiltonian(params, GRAY).to_dense()

    d = params.d_ho
    a = np.zeros((d, d))
    for l in range(d - 1):
        a[l, l + 1] = math.sqrt(l + 1)
    number = np.diag(np.arange(d, dtype=float))
    h_spin = 0.5 * (-PAULI["Z"])  # excited state is |1>
    h_trunc = (
        params.omega * np.kron(np.eye(2), number)
        + np.kron(h_spin + params.epsilon / 2 * PAULI["X"], np.eye(d))
        + params.lambda_c * np.kron(PAULI["X"], a + a.T)
    )
    perm = kron_all([np.eye(2), code_permutation(GRAY, 2)])
    permuted = perm @ h_trunc @ perm.T
    offset = np.trace(permuted - dense) / permuted.shape[0]
    np.testing.assert_allclose(dense + offset * np.eye(8), permuted, atol=1e-12)
    assert abs(offset - params.omega * 1.5) < 1e-12


@pytest.mark.parametrize("kind", [GRAY, STANDARD_BINARY])
@pytest.mark.parametrize("d_ho", [4, 8, 16])
@pytest.mark.parametrize("n_spins", [1, 2])
def test_hamiltonian_sum_is_canonical(n_spins, d_ho, kind):
    # assemble_evolution steps through these terms as they are, without canonicalizing them again
    h = hamiltonian_sum(ModelParams(n_spins=n_spins, d_ho=d_ho), kind)
    assert h.terms and canonicalize(h) == h
    assert [t.letters for t in h.terms] == sorted({t.letters for t in h.terms})
