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


def _dagger(a: np.ndarray) -> np.ndarray:
    return a.conj().swapaxes(-1, -2)


def _scalar_or_stack(value: np.ndarray):
    """A float for one matrix's value, the array of values for a stack."""
    return float(value) if np.ndim(value) == 0 else value


def sqrtm_psd(rho: np.ndarray) -> np.ndarray:
    """Hermitian square root with near-zero eigenvalues clamped to zero.

    ``rho`` is one matrix or a stack of them (..., d, d), taken with one
    stacked ``eigh``.
    """
    vals, vecs = np.linalg.eigh((rho + _dagger(rho)) / 2)
    vals = np.where(vals < _EIG_ZERO, 0.0, vals)
    return (vecs * np.sqrt(vals)[..., None, :]) @ _dagger(vecs)


def fidelity(rho: np.ndarray, sigma: np.ndarray, sigma_sqrt: np.ndarray | None = None):
    """Uhlmann fidelity F = (tr sqrt(sqrt(rho) sigma sqrt(rho)))^2.

    Evaluated as the squared trace norm of sqrt(sigma) sqrt(rho); singular
    values carry full absolute precision near zero, unlike the square roots
    of near-zero eigenvalues in the textbook expression.  ``sigma_sqrt`` is
    ``sqrtm_psd(sigma)`` when the caller has computed it once for many
    states compared with sigma; sigma is then not read and may be None.

    Stacks of states (..., d, d) are compared pairwise, with one stacked
    ``eigh`` per side and one stacked ``svd``, and give an array of values;
    each equals, bit for bit, the float that pair gives alone.
    """
    reference = sigma if sigma_sqrt is None else sigma_sqrt
    if rho.shape != reference.shape:
        raise ValueError(f"dimension mismatch {rho.shape} vs {reference.shape}")
    if sigma_sqrt is None:
        sigma_sqrt = sqrtm_psd(sigma)
    singular = np.linalg.svd(sigma_sqrt @ sqrtm_psd(rho), compute_uv=False)
    return _scalar_or_stack(np.minimum(1.0, np.sum(singular, axis=-1) ** 2))


def infidelity(rho: np.ndarray, sigma: np.ndarray, sigma_sqrt: np.ndarray | None = None):
    return 1.0 - fidelity(rho, sigma, sigma_sqrt)


# No sbsim caller: benchmarks/child.py traces it by name; it goes with that tracing (ROADMAP item 1).
def time_averaged_infidelity(traj_sim: np.ndarray, traj_exact: np.ndarray) -> float:
    """Mean infidelity of two (n, d, d) trajectories on one time grid, its first time (t = 0) excluded."""
    if traj_sim.shape != traj_exact.shape:
        raise ValueError(f"trajectory shapes differ: {traj_sim.shape} vs {traj_exact.shape}")
    if len(traj_sim) < 2:
        raise ValueError("no t > 0 snapshots to average")
    return float(np.mean(infidelity(traj_sim[1:], traj_exact[1:])))


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


def _trace_of_product(rho: np.ndarray, operator: np.ndarray) -> np.ndarray:
    return np.trace(rho @ operator, axis1=-2, axis2=-1)


def expectation(rho: np.ndarray, operator: np.ndarray):
    """Tr(rho O), of one state or of each state of a stack."""
    value = _trace_of_product(rho, operator)
    imag = np.max(np.abs(value.imag))
    if imag > 1e-9:
        raise ValueError(f"expectation has imaginary part {imag:.2e}")
    return _scalar_or_stack(value.real)


def connected_correlation(rho: np.ndarray, o1: np.ndarray, o2: np.ndarray):
    """Covariance <o1 o2> - <o1><o2> of two operators on distinct spins, of one state or a stack."""
    e1 = _trace_of_product(rho, o1).real
    e2 = _trace_of_product(rho, o2).real
    e12 = _trace_of_product(rho, o1 @ o2).real
    value = e12 - e1 * e2
    if np.max(np.abs(value)) > 1.0 + 1e-9:
        raise ValueError(f"correlator {np.max(np.abs(value))} outside the Cauchy-Schwarz bound")
    return _scalar_or_stack(value)
