"""Pauli strings and sums against a dense matrix oracle."""

import numpy as np
import pytest

from conftest import PAULI, kron_all
from sbsim.pauli import PauliString, PauliSum, canonicalize


def test_canonicalize_cancellation():
    s = PauliSum((PauliString("X", 1.0), PauliString("X", -1.0)))
    assert canonicalize(s).terms == ()


def test_canonicalize_merge():
    s = canonicalize(PauliSum((PauliString("Z", 0.5), PauliString("Z", 0.5))))
    assert len(s.terms) == 1
    assert s.terms[0].letters == "Z"
    assert s.terms[0].coefficient == 1.0


def test_canonicalize_idempotent_and_sorted(rng):
    for _ in range(20):
        terms = [
            PauliString("".join(rng.choice(list("IXYZ"), size=3)), complex(rng.normal(), rng.normal()))
            for _ in range(10)
        ]
        once = canonicalize(PauliSum(tuple(terms)))
        twice = canonicalize(once)
        assert once == twice
        letters = [t.letters for t in once.terms]
        assert letters == sorted(letters)


def test_canonicalize_drops_tiny_terms():
    s = canonicalize(PauliSum((PauliString("X", 1e-13), PauliString("Y", 1.0))))
    assert [t.letters for t in s.terms] == ["Y"]


def test_to_dense_identity_and_z():
    np.testing.assert_allclose(PauliSum((PauliString("I", 1.0),)).to_dense(), np.eye(2))
    np.testing.assert_allclose(PauliSum((PauliString("Z", 1.0),)).to_dense(), np.diag([1.0, -1.0]))


def test_to_dense_qubit_zero_is_leftmost_factor():
    np.testing.assert_allclose(
        PauliSum((PauliString("XZ", 1.0),)).to_dense(), kron_all([PAULI["X"], PAULI["Z"]])
    )


def test_to_dense_linear_in_coefficients(rng):
    s = PauliSum((PauliString("XY", 0.7), PauliString("ZI", -0.3)))
    np.testing.assert_allclose(s.scaled(2.5).to_dense(), 2.5 * s.to_dense(), atol=1e-12)


def test_to_dense_width_limit():
    with pytest.raises(ValueError):
        PauliSum((PauliString("I" * 9, 1.0),)).to_dense()


def test_mixed_width_rejected():
    with pytest.raises(ValueError):
        PauliSum((PauliString("X", 1.0), PauliString("XX", 1.0)))
