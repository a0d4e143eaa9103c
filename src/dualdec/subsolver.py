"""Exact solves of the agents' box-constrained local QPs.

The inner problem at every iteration is

    minimize_{lo <= u <= hi}  1/2 u' Q u + c' u + a' u,

where ``a`` collects the multiplier pressure from every block that
involves this agent.  Diagonal Q admits a componentwise closed form;
general Q falls back to an accelerated projected-gradient loop with the
gradient-based adaptive restart of O'Donoghue & Candes (2015), driven to
a fixed-point residual of 1e-12.

That loop runs in lock step over an ``AgentStack`` of same-dimension
agents: per agent it keeps its own momentum ``t``, restart test and
residual, and an agent leaves the active set once its residual meets the
tolerance.  Each stacked product is a ``matmul`` over ``(k, d, d)`` and
``(k, d, 1)`` operands, which makes the same per-item BLAS/LAPACK calls
(``gesv``, ``gemv``, ``dot``) as one agent's ``(d, d)`` and ``(d,)``
operands, so a stack gives every agent the bits it would get alone.
Stacks are never padded to a common dimension: that guarantee would not
hold.  A lone dense agent runs as its cached stack of one, and p
pressures on one stack run as the stack repeated p times
(``AgentStack.repeat``).
"""

from __future__ import annotations

import numpy as np
from numpy.linalg import _umath_linalg

from .model import AgentSpec, AgentStack

__all__ = ["solve_local"]

FIXED_POINT_TOL = 1e-12
MAX_INNER_ITERS = 100_000


def solve_local(agent: AgentSpec | AgentStack, a: np.ndarray, *,
                max_iters: int = MAX_INNER_ITERS) -> np.ndarray:
    """Unique minimizer of 1/2 u'Qu + (c+a)'u over the box, per agent.

    ``agent`` is one agent with ``a`` of shape (dim,), or a stack of k
    agents of dimension d with ``a`` of shape (k, d); the result has the
    shape of ``a``.  A single agent whose Q was declared diagonal takes
    the closed form; everything else runs projected gradient.  Raises
    ValidationError when a dense Q is not positive definite, and
    RuntimeError naming every agent whose first step leaves a non-finite
    residual (a non-finite pressure), or that fails to reach
    ``FIXED_POINT_TOL`` within ``max_iters``.
    """
    a = np.asarray(a, dtype=float)
    if isinstance(agent, AgentStack):
        if a.shape != agent.c.shape:
            raise ValueError(f"a has shape {a.shape}, expected {agent.c.shape}")
        return _solve_pgd(agent, a, max_iters)
    if a.shape != (agent.dim,):
        raise ValueError(f"a has shape {a.shape}, expected ({agent.dim},)")
    if agent.is_diagonal:
        return np.clip(-(agent.c + a) / agent.diag, agent.lo, agent.hi)
    return _solve_pgd(agent.stack, a[None, :], max_iters)[0]


def _clip(x, lo, hi):
    # np.clip's exact twin at half its call cost
    return np.minimum(np.maximum(x, lo), hi)


def _lapack_solve(Q, rhs):
    """``np.linalg.solve(Q, rhs)`` for float (k, d, d) and (k, d, 1) stacks:
    the LAPACK gufunc it calls, so the same bits, without its Python-level
    checks.  A singular Q gives NaN here rather than LinAlgError."""
    return _umath_linalg.solve(Q, rhs, signature="dd->d")


def _dot(x, y):
    """Row-wise dot products of two (k, d) stacks."""
    return (x[:, None, :] @ y[:, :, None])[:, 0, 0]


def _solve_pgd(st: AgentStack, a: np.ndarray, max_iters: int) -> np.ndarray:
    """Accelerated projected gradient with adaptive restart, in lock step."""
    Q, lo, hi, L = st.Q, st.lo, st.hi, st.L
    b = st.c + a
    # warm start from the clipped unconstrained minimizer (st.L has checked Q)
    x = _clip(_lapack_solve(Q, -b[:, :, None])[:, :, 0], lo, hi)
    y, t, resid = x, 1.0, np.inf  # t becomes a (k, 1) column after the first step
    rows = out = None  # stack rows still iterating, once some are done
    for it in range(max_iters):
        x_new = _clip(y - ((Q @ y[:, :, None])[:, :, 0] + b) / L, lo, hi)
        step = x_new - _clip(x_new - ((Q @ x_new[:, :, None])[:, :, 0] + b) / L, lo, hi)
        resid = np.sqrt(_dot(step, step))
        done = resid <= FIXED_POINT_TOL
        n_done = np.count_nonzero(done)
        if n_done == len(done):
            if rows is None:
                return x_new
            out[rows] = x_new
            return out
        if it == 0 and not np.isfinite(resid).all():  # a non-finite pressure never settles
            raise RuntimeError("; ".join(
                f"agent {st.ids[r]}: local QP solve has a non-finite fixed-point residual "
                f"({res}) at its first step; its pressure is not finite or overflows"
                for r, res in enumerate(resid) if not np.isfinite(res)))
        t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        # momentum points uphill: restart
        restart = (_dot(y - x_new, x_new - x) > 0.0)[:, None]
        y = np.where(restart, x_new, x_new + ((t - 1.0) / t_new) * (x_new - x))
        x, t = x_new, np.where(restart, 1.0, t_new)
        if n_done:  # these agents leave with x; their momentum update is dropped
            if rows is None:
                rows, out = np.arange(len(b)), np.empty_like(b)
            out[rows[done]] = x[done]
            keep = ~done
            rows, Q, lo, hi, L, b = rows[keep], Q[keep], lo[keep], hi[keep], L[keep], b[keep]
            x, y, t, resid = x[keep], y[keep], t[keep], resid[keep]
    rows = np.arange(len(b)) if rows is None else rows
    raise RuntimeError("; ".join(
        f"agent {st.ids[r]}: local QP solve stalled at fixed-point residual {res:.3e} "
        f"after {max_iters} iterations (tol {FIXED_POINT_TOL:.1e})"
        for r, res in zip(rows, np.broadcast_to(resid, rows.shape))))
