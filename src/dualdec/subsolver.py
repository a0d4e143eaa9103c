"""Exact solves of the agents' box-constrained local QPs.

The inner problem at every iteration is

    minimize_{lo <= u <= hi}  1/2 u' Q u + c' u + a' u,

where ``a`` collects the multiplier pressure from every block that
involves this agent.  Diagonal Q admits a componentwise closed form;
general Q falls back to an accelerated projected-gradient loop with the
gradient-based adaptive restart of O'Donoghue & Candes (2015), driven to
a fixed-point residual of 1e-12.

That loop runs in lock step over an ``AgentStack`` of dense agents of any
dimensions: per agent it keeps its own momentum ``t``, restart test and
residual.  Once an agent's residual meets the tolerance, its result is
fixed at that step's iterate; the stack keeps stepping until every agent
is done, and the agent's later arithmetic is ignored.  The elementwise
steps (bias, clips, gradient and fixed-point steps, momentum) run once
over the flat (N,) coordinates of the whole stack, with per-agent values
broadcast to their coordinates.  Only the products
run per group of same-dimension agents: ``matmul`` over ``(k, d, d)``
and ``(k, d, 1)`` operands and the ``gesv`` gufunc, writing through views
of the stack's own work buffers.  They make the same per-item
BLAS/LAPACK calls (``gesv``, ``gemv``, ``dot``) as one agent's ``(d, d)``
and ``(d,)`` operands, and elementwise IEEE arithmetic does not depend on
layout, so a stack gives every agent the bits it would get alone.
Groups are never padded to a common dimension: that guarantee would not
hold.  A lone dense agent runs as its cached stack of one, and p
pressures on one stack run as the stack repeated p times
(``AgentStack.repeat``, which keeps the last repeat built: a logged
run's pass asks for one width, a replicate batch for ever fewer rows).
"""

from __future__ import annotations

import numpy as np
from numpy.linalg import _umath_linalg

from .model import AgentSpec, AgentStack

__all__ = ["solve_local"]

FIXED_POINT_TOL = 1e-12
MAX_INNER_ITERS = 100_000
_ALL_DONE = (FIXED_POINT_TOL / 4.0) ** 2  # a whole stack's squared step that finishes it


def solve_local(agent: AgentSpec | AgentStack, a: np.ndarray) -> np.ndarray:
    """Unique minimizer of 1/2 u'Qu + (c+a)'u over the box, per agent.

    ``agent`` is one agent with ``a`` of shape (dim,), or a stack with
    ``a`` of shape (N,), its agents' coordinates laid end to end; the
    result is a fresh array of the shape of ``a``.  A single agent whose
    Q was declared diagonal takes the closed form; everything else runs
    projected gradient.  Raises ValidationError when a dense Q is not
    positive definite, and RuntimeError naming every agent whose first
    step leaves a non-finite residual (a non-finite pressure), or that
    fails to reach ``FIXED_POINT_TOL`` within ``MAX_INNER_ITERS`` steps.
    """
    a = np.asarray(a, dtype=float)
    if isinstance(agent, AgentStack):
        if a.shape != agent.cols.shape:
            raise ValueError(f"a has shape {a.shape}, expected {agent.cols.shape}")
        return _solve_pgd(agent, a)
    if a.shape != (agent.dim,):
        raise ValueError(f"a has shape {a.shape}, expected ({agent.dim},)")
    if agent.is_diagonal:
        return np.clip(-(agent.c + a) / agent.diag, agent.lo, agent.hi)
    return _solve_pgd(agent.stack, a)


def _clip(x, lo, hi, out=None):
    # np.clip's exact twin at half its call cost
    return np.minimum(np.maximum(x, lo), hi, out=out)


def _lapack_solve(Q, rhs, out=None):
    """``np.linalg.solve(Q, rhs)`` for float (k, d, d) and (k, d, 1) stacks:
    the LAPACK gufunc (and its float loop) it calls, so the same bits,
    without its Python-level checks.  A singular Q gives NaN here rather than
    LinAlgError."""
    return _umath_linalg.solve(Q, rhs, out=out)


def _solve_pgd(st: AgentStack, a: np.ndarray) -> np.ndarray:
    """Accelerated projected gradient with adaptive restart, in lock step."""
    groups, agent_of, lo, hi = st.groups, st.agent_of, st.lo, st.hi
    L = st.L  # checks every Q first
    Y, P, S, *X = st.work("y", "product", "step", "x0", "x1")
    b = st.c + a
    # warm start from the clipped unconstrained minimizer
    np.negative(b, out=Y.flat)
    for (_, _, Q), rhs, prod in zip(groups, Y.cols, P.outs):
        _lapack_solve(Q, rhs, out=prod)
    x = y = _clip(P.flat, lo, hi, out=Y.flat)
    t, resid = 1.0, np.inf
    out = fixed = None  # the result and its agents that are done, once some are
    for it in range(MAX_INNER_ITERS):  # read at call time
        for (_, _, Q), col, prod in zip(groups, Y.cols, P.outs):
            np.matmul(Q, col, out=prod)
        g = P.flat + b
        g /= L
        # x_new's buffer alternates, so x (in the other one, or in Y at the start) survives
        x_new = _clip(np.subtract(y, g, out=g), lo, hi, out=X[it & 1].flat)
        for (_, _, Q), col, prod in zip(groups, X[it & 1].cols, P.outs):
            np.matmul(Q, col, out=prod)
        g = P.flat + b
        g /= L
        step = np.subtract(x_new, _clip(np.subtract(x_new, g, out=g), lo, hi, out=g), out=S.flat)
        # the squared step of the whole stack bounds each agent's: this far
        # below the tolerance, every agent is done whatever the rounding
        if step.dot(step) <= _ALL_DONE:
            if out is None:
                return x_new.copy()
            np.copyto(out, x_new, where=~fixed[agent_of])
            return out
        (R,) = st.work("resid", per_agent=True)
        for row, col, rr in zip(S.rows, S.cols, R.outs):
            np.matmul(row, col, out=rr)
        resid = np.sqrt(R.flat)
        done = resid <= FIXED_POINT_TOL
        if done.any():  # these agents' results are fixed at x_new; later steps are ignored
            if out is None:
                out, fixed = np.empty(len(b)), np.zeros(len(done), dtype=bool)
            np.copyto(out, x_new, where=(done & ~fixed)[agent_of])
            fixed |= done
            if fixed.all():
                return out
        if it == 0:
            if not np.isfinite(resid).all():  # a non-finite pressure never settles
                raise RuntimeError("; ".join(
                    f"agent {st.ids[r]}: local QP solve has a non-finite fixed-point residual "
                    f"({res}) at its first step; its pressure is not finite or overflows"
                    for r, res in enumerate(resid) if not np.isfinite(res)))
            t = np.ones(len(resid))  # each agent's own momentum from here on
        t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        # momentum points uphill: restart
        (D, E), (U,) = st.work("y-x_new", "x_new-x"), st.work("uphill", per_agent=True)
        np.subtract(y, x_new, out=D.flat)
        np.subtract(x_new, x, out=E.flat)
        for row, col, uphill in zip(D.rows, E.cols, U.outs):
            np.matmul(row, col, out=uphill)
        restart = U.flat > 0.0
        y = np.multiply(((t - 1.0) / t_new)[agent_of], E.flat, out=Y.flat)
        np.add(x_new, y, out=y)
        np.copyto(y, x_new, where=restart[agent_of])
        x, t = x_new, np.where(restart, 1.0, t_new)
    resid = np.broadcast_to(resid, len(st.ids))
    raise RuntimeError("; ".join(
        f"agent {st.ids[r]}: local QP solve stalled at fixed-point residual {resid[r]:.3e} "
        f"after {MAX_INNER_ITERS} iterations (tol {FIXED_POINT_TOL:.1e})"
        for r in range(len(st.ids)) if fixed is None or not fixed[r]))
