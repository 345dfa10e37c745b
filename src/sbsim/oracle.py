"""Exact reference evolution of the Markovian master equation.

The generator is time independent, so each reference state is
exp(L h) applied to the previous one, with L the vectorized
(column-stacked) Liouvillian and h the grid interval.  The propagator is
never formed: exp(L h) acts on the state through s substeps of an m-term
Taylor series, one matrix-vector product per term, with (m, s) chosen
from ||L||_1 h by the backward-error bounds of Al-Mohy and Higham,
"Computing the action of the matrix exponential", SIAM J. Sci. Comput.
33, 488 (2011).  ``ExperimentConfig.validate`` rejects model registers
wider than ``MAX_REGISTER_WIDTH`` = 5 qubits, so the generator is at most
1024 x 1024 (two spins at d_ho 8): about 0.6 s per ten-step reference
there, milliseconds at the default widths.  It also rejects models whose
plan would need more than ``MAX_SUBSTEPS`` substeps per interval, judged
from a bound on ||L||_1 (``generator_norm_bound``) before L is built.
Trace and Hermiticity drift of every propagated state is checked against
hard tolerances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .encoding import GRAY
from .model import PAPER_COLLISION, ModelParams, dense_hamiltonian, hamiltonian_sum, lindblad_operators

MAX_REGISTER_WIDTH = 5
MAX_SUBSTEPS = 10**4  # per interval; the default configs need 1 or 2
TRACE_TOL = 1e-6
HERM_TOL = 1e-8


@dataclass(frozen=True)
class TrajectorySnapshot:
    t: float
    rho: np.ndarray


def liouvillian(h: np.ndarray, jump_ops: list[tuple[np.ndarray, float]]) -> np.ndarray:
    """Column-stacked generator of drho/dt = -i[H,rho] + sum_k r_k D[L_k](rho)."""
    dim = h.shape[0]
    eye = np.eye(dim, dtype=complex)
    gen = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
    for op, rate in jump_ops:
        anti = op.conj().T @ op
        gen += rate * (
            np.kron(op.conj(), op)
            - 0.5 * np.kron(eye, anti)
            - 0.5 * np.kron(anti.T, eye)
        )
    return gen


@lru_cache(maxsize=32)
def _liouvillian_for(params: ModelParams, convention: str, code_kind: str) -> np.ndarray:
    h = dense_hamiltonian(params, code_kind)
    jumps = lindblad_operators(params, convention) if params.gamma > 0 else []
    return liouvillian(h, jumps)


# theta_m of Al-Mohy and Higham (2011), Table 3.1: the largest 1-norm of A for
# which m Taylor terms give exp(A) v to double-precision backward error
_THETA = {
    5: 2.4e-3, 10: 0.144, 15: 0.641, 20: 1.44, 25: 2.43, 30: 3.54,
    35: 4.7, 40: 6.0, 45: 7.2, 50: 8.5, 55: 9.9,
}


def _taylor_plan(norm: float) -> tuple[int, int]:
    """Degree m and substep count s for exp(A) v, given ||A||_1 = norm.

    The plan minimises the matrix-vector products m*s subject to
    norm / s <= theta_m.
    """
    return min(
        ((m, max(1, math.ceil(norm / theta))) for m, theta in _THETA.items()),
        key=lambda plan: plan[0] * plan[1],
    )


def generator_norm_bound(
    params: ModelParams, convention: str = PAPER_COLLISION, code_kind: str = GRAY
) -> float:
    """2 sum_P |c_P| + 2 sum_k r_k >= ||L||_1, without building L.

    The commutator with the encoded H = sum_P c_P P adds at most
    2 sum_P |c_P|, and each one-qubit jump operator at rate r_k at most 2 r_k.
    """
    rates = sum(rate for _, rate in lindblad_operators(params, convention))
    return 2 * sum(abs(t.coefficient) for t in hamiltonian_sum(params, code_kind).terms) + 2 * rates


def exceeds_substep_cap(
    params: ModelParams, h: float, convention: str = PAPER_COLLISION, code_kind: str = GRAY
) -> bool:
    """Whether the plan for one interval h may need more than ``MAX_SUBSTEPS`` substeps.

    Past max(theta_m) * MAX_SUBSTEPS, an infinite or NaN bound included, every plan does.
    """
    norm = generator_norm_bound(params, convention, code_kind) * h
    return not norm <= max(_THETA.values()) * MAX_SUBSTEPS or _taylor_plan(norm)[1] > MAX_SUBSTEPS


def _expm_action(gen: np.ndarray, norm: float, h: float, vec: np.ndarray) -> np.ndarray:
    """exp(gen h) vec by s substeps of an m-term Taylor series (m, s from ``_taylor_plan``).

    ``norm`` is ||gen||_1.  The plan is the stopping rule: every substep sums
    all m terms, so the number of products depends on norm * h alone.
    """
    m, s = _taylor_plan(norm * h)
    tau = h / s
    for _ in range(s):
        term = vec
        for k in range(1, m + 1):
            term = (gen @ term) * (tau / k)
            vec = vec + term
    return vec


def evolve_exact(
    rho0: np.ndarray,
    params: ModelParams,
    t_grid,
    convention: str = PAPER_COLLISION,
    code_kind: str = GRAY,
) -> list[TrajectorySnapshot]:
    """Reference states rho(t) on the given ascending time grid (t_grid[0] = 0)."""
    t_grid = [float(t) for t in t_grid]
    if t_grid[0] != 0.0 or any(b <= a for a, b in zip(t_grid[:-1], t_grid[1:])):
        raise ValueError("time grid must be ascending and start at 0")
    gen = _liouvillian_for(params, convention, code_kind)
    if gen.shape[0] != rho0.size:
        raise ValueError("initial state dimension does not match the model register")

    dim = rho0.shape[0]
    norm = np.linalg.norm(gen, 1)
    rho = rho0.astype(complex)
    states = [rho]
    for t0, t1 in zip(t_grid[:-1], t_grid[1:]):
        vec = _expm_action(gen, norm, t1 - t0, rho.flatten(order="F"))
        mat = vec.reshape((dim, dim), order="F")
        herm_drift = np.max(np.abs(mat - mat.conj().T))
        if herm_drift > HERM_TOL:
            raise RuntimeError(f"Hermiticity drift {herm_drift:.2e} exceeds {HERM_TOL}")
        rho = (mat + mat.conj().T) / 2
        trace_drift = abs(np.trace(rho).real - 1.0)
        if trace_drift > TRACE_TOL:
            raise RuntimeError(f"trace drift {trace_drift:.2e} exceeds {TRACE_TOL}")
        states.append(rho)
    return [TrajectorySnapshot(t, s) for t, s in zip(t_grid, states)]
