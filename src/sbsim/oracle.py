"""Exact reference evolution of the Markovian master equation.

The generator is time independent, so each reference state is
exp(L h) applied to the previous one, with L the vectorized
(column-stacked) Liouvillian and h the grid interval.  The propagator is
computed by scaling and squaring a Taylor series (Moler and Van Loan,
SIAM Rev. 45, 2003) once per distinct interval of a call; intervals that
agree to 12 significant digits, such as the float-jittered steps of a grid
k*dt, share one propagator.  ``ExperimentConfig.validate`` rejects model
registers wider than ``MAX_REGISTER_WIDTH`` = 5 qubits, so the generator is
at most 1024 x 1024: about 3.6 s per propagator there, milliseconds at the
default widths.
Trace and Hermiticity drift of every propagated state is checked against
hard tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .encoding import GRAY
from .model import PAPER_COLLISION, ModelParams, dense_hamiltonian, lindblad_operators

MAX_REGISTER_WIDTH = 5
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


def _expm(a: np.ndarray) -> np.ndarray:
    """exp(a) by scaling and squaring a Taylor series.

    a is scaled by 2^-s so its 1-norm is at most 1; the series is then
    summed until a term no longer changes the result in double precision,
    and the sum is squared s times.
    """
    norm = np.linalg.norm(a, 1)
    squarings = int(np.ceil(np.log2(norm))) if norm > 1 else 0
    a = a / 2.0**squarings
    term = np.eye(a.shape[0], dtype=a.dtype)
    out = term.copy()
    for k in range(1, 40):
        term = term @ a / k
        out += term
        if np.linalg.norm(term, 1) <= np.finfo(float).eps * np.linalg.norm(out, 1):
            break
    for _ in range(squarings):
        out = out @ out
    return out


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
    rho = rho0.astype(complex)
    states = [rho]
    propagators: dict[float, np.ndarray] = {}
    for t0, t1 in zip(t_grid[:-1], t_grid[1:]):
        step = t1 - t0
        key = float(f"{step:.12g}")  # grids k*dt jitter in the last digits of t1 - t0
        if key not in propagators:
            propagators[key] = _expm(gen * step)
        mat = (propagators[key] @ rho.flatten(order="F")).reshape((dim, dim), order="F")
        herm_drift = np.max(np.abs(mat - mat.conj().T))
        if herm_drift > HERM_TOL:
            raise RuntimeError(f"Hermiticity drift {herm_drift:.2e} exceeds {HERM_TOL}")
        rho = (mat + mat.conj().T) / 2
        trace_drift = abs(np.trace(rho).real - 1.0)
        if trace_drift > TRACE_TOL:
            raise RuntimeError(f"trace drift {trace_drift:.2e} exceeds {TRACE_TOL}")
        states.append(rho)
    return [TrajectorySnapshot(t, s) for t, s in zip(t_grid, states)]
