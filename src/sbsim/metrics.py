"""State fidelity, time-averaged infidelity, observables, and spin-spin correlations.

Observables are plain dense operators on the model register:
``boson_number`` and ``spin_operator`` build them once, and ``expectation``
and ``connected_correlation`` take them as matrices.
"""

from __future__ import annotations

import numpy as np

from . import encoding
from .encoding import GRAY
from .pauli import embed_operator

_X = np.array([[0, 1], [1, 0]], dtype=complex)
# Physical spin-z: +1 on the excited state, which is the computational |1>.
_SZ_PHYS = np.array([[-1, 0], [0, 1]], dtype=complex)


# Eigenvalues below this are treated as numerical zeros; taking the square
# root of eigensolver noise would inject sqrt(eps) ~ 1e-8 artifacts.
_EIG_ZERO = 1e-14


def sqrtm_psd(rho: np.ndarray) -> np.ndarray:
    """Hermitian square root with near-zero eigenvalues clamped to zero."""
    vals, vecs = np.linalg.eigh((rho + rho.conj().T) / 2)
    vals = np.where(vals < _EIG_ZERO, 0.0, vals)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def fidelity(rho: np.ndarray, sigma: np.ndarray, sigma_sqrt: np.ndarray | None = None) -> float:
    """Uhlmann fidelity F = (tr sqrt(sqrt(rho) sigma sqrt(rho)))^2.

    Evaluated as the squared trace norm of sqrt(sigma) sqrt(rho); singular
    values carry full absolute precision near zero, unlike the square roots
    of near-zero eigenvalues in the textbook expression.  ``sigma_sqrt`` is
    ``sqrtm_psd(sigma)`` when the caller has computed it once for many
    states compared with sigma.
    """
    if rho.shape != sigma.shape:
        raise ValueError(f"dimension mismatch {rho.shape} vs {sigma.shape}")
    if sigma_sqrt is None:
        sigma_sqrt = sqrtm_psd(sigma)
    singular = np.linalg.svd(sigma_sqrt @ sqrtm_psd(rho), compute_uv=False)
    return float(min(1.0, np.sum(singular) ** 2))


def infidelity(rho: np.ndarray, sigma: np.ndarray, sigma_sqrt: np.ndarray | None = None) -> float:
    return 1.0 - fidelity(rho, sigma, sigma_sqrt)


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


def boson_number(params, code_kind: str = GRAY) -> np.ndarray:
    """The encoded boson number operator, on the spin+boson register."""
    number = encoding.encode_boson_operator("number", params.d_ho, code_kind).to_dense()
    return embed_operator(number, params.boson_positions, params.register_width)


def spin_operator(axis: str, spin: int, params) -> np.ndarray:
    """Physical sigma_z ("Z") or sigma_x ("X") of one spin, on the spin+boson register."""
    if not 0 <= spin < params.n_spins:
        raise ValueError(f"spin index {spin} out of range")
    op = {"Z": _SZ_PHYS, "X": _X}[axis]
    return embed_operator(op, (params.spin_positions[spin],), params.register_width)


def expectation(rho: np.ndarray, operator: np.ndarray) -> float:
    """Tr(rho O)."""
    value = np.trace(rho @ operator)
    if abs(value.imag) > 1e-9:
        raise ValueError(f"expectation has imaginary part {value.imag:.2e}")
    return float(value.real)


def connected_correlation(rho: np.ndarray, o1: np.ndarray, o2: np.ndarray) -> float:
    """Covariance <o1 o2> - <o1><o2> of two operators on distinct spins."""
    e1 = float(np.trace(rho @ o1).real)
    e2 = float(np.trace(rho @ o2).real)
    e12 = float(np.trace(rho @ (o1 @ o2)).real)
    value = e12 - e1 * e2
    if abs(value) > 1.0 + 1e-9:
        raise ValueError(f"correlator {value} outside the Cauchy-Schwarz bound")
    return value
