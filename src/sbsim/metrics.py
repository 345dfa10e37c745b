"""State fidelity, time-averaged infidelity, observables, and spin-spin correlations."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import encoding
from .encoding import GRAY, BitCode, TruncationSpec
from .pauli import embed_operator

BOSON_NUMBER = "boson_number"
SIGMA_Z = "sigma_z"
SIGMA_X = "sigma_x"
CZZ = "czz"
CXX = "cxx"

_X = np.array([[0, 1], [1, 0]], dtype=complex)
# Physical spin-z: +1 on the excited state, which is the computational |1>.
_SZ_PHYS = np.array([[-1, 0], [0, 1]], dtype=complex)


@dataclass(frozen=True)
class ObservableSpec:
    kind: str
    spin: int = 0


# Eigenvalues below this are treated as numerical zeros; taking the square
# root of eigensolver noise would inject sqrt(eps) ~ 1e-8 artifacts.
_EIG_ZERO = 1e-14


def _sqrtm_psd(rho: np.ndarray) -> np.ndarray:
    """Hermitian square root with near-zero eigenvalues clamped to zero."""
    vals, vecs = np.linalg.eigh((rho + rho.conj().T) / 2)
    vals = np.where(vals < _EIG_ZERO, 0.0, vals)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Uhlmann fidelity F = (tr sqrt(sqrt(rho) sigma sqrt(rho)))^2.

    Evaluated as the squared trace norm of sqrt(sigma) sqrt(rho); singular
    values carry full absolute precision near zero, unlike the square roots
    of near-zero eigenvalues in the textbook expression.
    """
    if rho.shape != sigma.shape:
        raise ValueError(f"dimension mismatch {rho.shape} vs {sigma.shape}")
    singular = np.linalg.svd(_sqrtm_psd(sigma) @ _sqrtm_psd(rho), compute_uv=False)
    return float(min(1.0, np.sum(singular) ** 2))


def infidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    return 1.0 - fidelity(rho, sigma)


def time_averaged_infidelity(traj_sim, traj_exact, grid_tol: float = 1e-9) -> float:
    """Mean infidelity over the common time grid, excluding the t=0 point."""
    if len(traj_sim) != len(traj_exact):
        raise ValueError("trajectory lengths differ")
    values = []
    for a, b in zip(traj_sim, traj_exact):
        if abs(a.t - b.t) > grid_tol:
            raise ValueError(f"time grids differ at t={a.t} vs {b.t}")
        if a.t > grid_tol:
            values.append(infidelity(a.rho, b.rho))
    if not values:
        raise ValueError("no t > 0 snapshots to average")
    return float(np.mean(values))


def observable_matrix(obs: ObservableSpec, params, code_kind: str = GRAY) -> np.ndarray:
    """Dense observable on the spin+boson register."""
    width = params.register_width
    if obs.kind == BOSON_NUMBER:
        spec = TruncationSpec(params.d_ho)
        code = BitCode(code_kind, spec.n_qubits)
        number = encoding.encode_boson_operator("number", spec, code).to_dense()
        return embed_operator(number, params.boson_positions, width)
    if obs.kind in (SIGMA_Z, SIGMA_X):
        if not 0 <= obs.spin < params.n_spins:
            raise ValueError(f"spin index {obs.spin} out of range")
        op = _SZ_PHYS if obs.kind == SIGMA_Z else _X
        return embed_operator(op, (params.spin_positions[obs.spin],), width)
    raise ValueError(f"no single-operator realization for {obs.kind!r}")


def expectation(
    rho: np.ndarray,
    obs: ObservableSpec,
    params,
    code_kind: str = GRAY,
    matrix: np.ndarray | None = None,
) -> float:
    """Tr(rho O); correlator kinds delegate to connected_correlation.

    ``matrix`` is ``observable_matrix(obs, params, code_kind)`` when the
    caller has built it once for many states.
    """
    if obs.kind in (CZZ, CXX):
        return connected_correlation(rho, "ZZ" if obs.kind == CZZ else "XX", params)
    if matrix is None:
        matrix = observable_matrix(obs, params, code_kind)
    value = np.trace(rho @ matrix)
    if abs(value.imag) > 1e-9:
        raise ValueError(f"expectation has imaginary part {value.imag:.2e}")
    return float(value.real)


def spin_pair_operators(pair: str, params) -> tuple[np.ndarray, np.ndarray]:
    """The two spins' operators of a correlator pair in {"ZZ", "XX"}, on the model register."""
    if params.n_spins != 2:
        raise ValueError("connected correlations need exactly two spins")
    if pair not in ("ZZ", "XX"):
        raise ValueError(f"unknown correlator pair {pair!r}")
    op = _SZ_PHYS if pair == "ZZ" else _X
    return tuple(embed_operator(op, (p,), params.register_width) for p in params.spin_positions)


def connected_correlation(
    rho: np.ndarray,
    pair: str,
    params,
    operators: tuple[np.ndarray, np.ndarray] | None = None,
) -> float:
    """Covariance <s1 s2> - <s1><s2> of the two spins, pair in {"ZZ", "XX"}.

    ``operators`` is ``spin_pair_operators(pair, params)`` when the caller
    has built it once for many states.
    """
    o1, o2 = spin_pair_operators(pair, params) if operators is None else operators
    e1 = float(np.trace(rho @ o1).real)
    e2 = float(np.trace(rho @ o2).real)
    e12 = float(np.trace(rho @ (o1 @ o2)).real)
    value = e12 - e1 * e2
    if abs(value) > 1.0 + 1e-9:
        raise ValueError(f"correlator {value} outside the Cauchy-Schwarz bound")
    return value
