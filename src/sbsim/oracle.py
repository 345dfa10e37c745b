"""Exact reference evolution of the Markovian master equation.

The generator is time independent, so each reference state is exp(L h)
applied to the previous one, with h the grid interval.  L acts on a d x d
state X in its own form,

    L(X) = Y + Y^dag + sum_k r_k J_k X J_k^dag,  Y = G X,
    G = -iH - 1/2 sum_k r_k J_k^dag J_k,

which is exact for every Hermitian X: L preserves Hermiticity, so every
Taylor term of a Hermitian state is Hermitian, and X G^dag = (G X)^dag.
Each J_k is |0><1| on spin k's qubit, so J_k^dag J_k is diagonal and
J_k X J_k^dag adds r_k times X's bit-1/bit-1 block of that qubit into its
bit-0/bit-0 block: one slice add, no product.  Neither the propagator nor
the d^2 x d^2 generator is formed: exp(L h) acts on the state through s
substeps of an m-term Taylor series, with (m, s) chosen from ||L||_1 h by
the backward-error bounds of Al-Mohy and Higham, "Computing the action of
the matrix exponential", SIAM J. Sci. Comput. 33, 488 (2011).  ||L||_1 is
exact, taken from G and the rates in O(d^2) work.  The Taylor terms
alternate between two buffers allocated once per call, and each spin's
jump blocks of those buffers are viewed once, so a generator application
allocates nothing.

One call evolves one model, or a tuple of models on one register (the
gammas of a run) as one (B, d, d) stack, each member under its own G and
rate, with one plan per interval from the largest member's norm.
``ExperimentConfig.validate`` holds model registers to the engine's
``MAX_SIM_WIDTH`` = 6 qubits (d = 64).  It also rejects models whose plan
would need more than ``MAX_SUBSTEPS`` substeps per interval, judged from the
same exact ||L||_1 the run plans from (``exceeds_substep_cap``); G is built
then and cached, so the run reuses it.  The Hermiticity and trace drift of
every member is checked against hard tolerances, at the start and after
every interval.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .encoding import GRAY
from .model import ModelParams, dense_hamiltonian

MAX_SUBSTEPS = 10**4  # per interval; the default configs need 1 or 2
TRACE_TOL = 1e-6
HERM_TOL = 1e-8


@lru_cache(maxsize=32)
def _generator_for(params: ModelParams, code_kind: str) -> tuple[np.ndarray, float, float]:
    """G = -iH - 1/2 sum_k r J_k^dag J_k, the jump rate r, and the exact ||L||_1.

    Column (a, b) of L, the image of |a><b|, sums to
    c_a + c_b - |G_aa| - |G_bb| + |G_aa + conj(G_bb)| + r * #{k : bit_k(a) = bit_k(b) = 1},
    with c the absolute column sums of G: the entries of G|a><b| and |a><b|G^dag
    meet only at (a, b), and each jump moves |a><b| to its own entry.
    """
    rate = params.gamma
    width = params.register_width
    # excited[k, a] = bit_k(a): 1 where spin k is excited in basis state a
    excited = np.array([(np.arange(2**width) >> (width - 1 - q)) & 1 for q in params.spin_positions])
    gen = -1j * dense_hamiltonian(params, code_kind) - np.diag(0.5 * rate * excited.sum(axis=0))
    gen.flags.writeable = False
    col = np.abs(gen).sum(axis=0)
    diag = np.diag(gen)
    sums = (
        (col - np.abs(diag))[:, None] + (col - np.abs(diag))[None, :]
        + np.abs(diag[:, None] + diag.conj()[None, :])
        + rate * (excited.T @ excited)
    )
    return gen, rate, float(sums.max())


# theta_m of Al-Mohy and Higham (2011), Table 3.1: the largest 1-norm of A for
# which m Taylor terms give exp(A) v to double-precision backward error
_THETA = {
    5: 2.4e-3, 10: 0.144, 15: 0.641, 20: 1.44, 25: 2.43, 30: 3.54,
    35: 4.7, 40: 6.0, 45: 7.2, 50: 8.5, 55: 9.9,
}


def _taylor_plan(norm: float) -> tuple[int, int]:
    """Degree m and substep count s for exp(A) v, given ||A||_1 = norm.

    The plan minimises the generator applications m*s subject to
    norm / s <= theta_m.
    """
    return min(
        ((m, max(1, math.ceil(norm / theta))) for m, theta in _THETA.items()),
        key=lambda plan: plan[0] * plan[1],
    )


def exceeds_substep_cap(params: ModelParams, h: float, code_kind: str = GRAY) -> bool:
    """Whether the plan for one interval h needs more than ``MAX_SUBSTEPS`` substeps.

    Judged from the exact ||L||_1 that ``evolve_exact`` plans from.  Past
    max(theta_m) * MAX_SUBSTEPS, an infinite or NaN norm included, every
    plan does.
    """
    with np.errstate(all="ignore"):  # parameters near overflow give an infinite or NaN norm
        norm = _generator_for(params, code_kind)[2] * h
    return not norm <= max(_THETA.values()) * MAX_SUBSTEPS or _taylor_plan(norm)[1] > MAX_SUBSTEPS


def _jump_views(blocks: list[tuple], x: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> list[tuple]:
    """Per spin: X's bit-1/bit-1 block of the spin's qubit, ``out``'s bit-0/bit-0 block, and ``scratch`` in their shape.

    ``blocks`` holds one shape per spin that splits each row and column
    index around the spin's bit; ``scratch`` is flat, of at least a
    quarter of X's size.
    """
    return [(x.reshape(shape)[:, :, 1, :, :, 1], out.reshape(shape)[:, :, 0, :, :, 0],
             scratch[: x.size // 4].reshape(shape[:2] + shape[3:5] + shape[6:])) for shape in blocks]


def _generator_action(gen: np.ndarray, rates: np.ndarray, x: np.ndarray, out: np.ndarray, y: np.ndarray,
                      jumps: list[tuple]) -> np.ndarray:
    """L(X) into ``out`` for a stack of Hermitian X, one G and one rate per member; ``y`` is scratch.

    ``jumps`` are ``_jump_views`` of X and ``out``; ``rates`` broadcasts
    against them.
    """
    np.matmul(gen, x, out=y)
    np.conjugate(y.swapaxes(-1, -2), out=out)
    np.add(y, out, out=out)
    for excited, ground, scratch in jumps:
        np.multiply(rates, excited, out=scratch)
        ground += scratch
    return out


def _check_drift(rho: np.ndarray) -> None:
    """Raise if any member of the stack has left the Hermitian, unit-trace states."""
    herm_drift = np.max(np.abs(rho - rho.conj().swapaxes(-1, -2)))
    if herm_drift > HERM_TOL:
        raise RuntimeError(f"Hermiticity drift {herm_drift:.2e} exceeds {HERM_TOL}")
    trace_drift = np.max(np.abs(np.trace(rho, axis1=-2, axis2=-1).real - 1.0))
    if trace_drift > TRACE_TOL:
        raise RuntimeError(f"trace drift {trace_drift:.2e} exceeds {TRACE_TOL}")


def evolve_exact(
    rho0: np.ndarray,
    params: ModelParams | tuple[ModelParams, ...],
    t_grid,
    # Only "paper-collision": benchmarks/child.py reads it by name; it goes with that tracing (ROADMAP item 1).
    convention: str = "paper-collision",
    code_kind: str = GRAY,
) -> np.ndarray:
    """Reference states rho(t) on the given ascending time grid (t_grid[0] = 0).

    One ``ModelParams`` gives an (n, d, d) array, one state per time.  A
    tuple of them, on one register, gives a (B, n, d, d) array: every member
    evolved from ``rho0`` in one stacked pass, each interval under one Taylor
    plan, the one for the largest member's ||L||_1.  Each member agrees with
    its model evolved alone to rounding.
    """
    t_grid = np.array([float(t) for t in t_grid])
    steps = np.diff(t_grid)
    if t_grid[0] != 0.0 or (steps <= 0).any():
        raise ValueError("time grid must be ascending and start at 0")
    if convention != "paper-collision":
        raise ValueError(f"rate convention must be 'paper-collision', got {convention!r}")
    members = params if isinstance(params, tuple) else (params,)
    if not members:
        raise ValueError("need at least one model")
    if len({(p.n_spins, p.register_width) for p in members}) != 1:
        raise ValueError("stacked models must share one register")
    width = members[0].register_width
    dim = 2**width
    if rho0.shape != (dim, dim):
        raise ValueError("initial state dimension does not match the model register")

    gens, rates, norms = zip(*(_generator_for(p, code_kind) for p in members))
    gen = np.stack(gens)
    rates = np.array(rates).reshape(-1, 1, 1, 1, 1)
    norm = max(norms)
    blocks = []
    for q in members[0].spin_positions:
        half = (2**q, 2, dim >> (q + 1))
        blocks.append((len(members), *half, *half))

    rho = np.repeat(rho0.astype(complex)[None], len(members), axis=0)
    _check_drift(rho)
    rho = (rho + rho.conj().swapaxes(-1, -2)) / 2  # the d x d form needs a Hermitian state
    states = np.empty((len(members), len(t_grid), dim, dim), dtype=complex)
    states[:, 0] = rho
    # Taylor terms alternate between two buffers, the first read from rho: one (input, output, jump views) per move
    terms, y = (np.empty_like(rho), np.empty_like(rho)), np.empty_like(rho)
    scratch = np.empty(rho.size // 4, dtype=complex)
    moves = [(x, out, _jump_views(blocks, x, out, scratch))
             for x, out in ((rho, terms[0]), (terms[0], terms[1]), (terms[1], terms[0]))]
    for i, h in enumerate(steps, start=1):
        m, s = _taylor_plan(norm * h)
        tau = h / s
        for _ in range(s):
            for k in range(1, m + 1):
                x, out, jumps = moves[0 if k == 1 else 1 + k % 2]
                term = _generator_action(gen, rates, x, out, y, jumps)
                term *= tau / k
                rho += term  # rho is this loop's own array; states holds copies
        _check_drift(rho)
        states[:, i] = rho
    return states if isinstance(params, tuple) else states[0]
