"""Exact solves of one agent's box-constrained local QP.

The inner problem at every iteration is

    minimize_{lo <= u <= hi}  1/2 u' Q u + c' u + a' u,

where ``a`` collects the multiplier pressure from every block that
involves this agent.  Diagonal Q admits a componentwise closed form;
general Q falls back to an accelerated projected-gradient loop driven to
a fixed-point residual of 1e-12.
"""

from __future__ import annotations

import numpy as np

from .model import AgentSpec

__all__ = ["solve_local"]

FIXED_POINT_TOL = 1e-12
MAX_INNER_ITERS = 100_000


def solve_local(agent: AgentSpec, a: np.ndarray, *,
                max_iters: int = MAX_INNER_ITERS) -> np.ndarray:
    """Unique minimizer of 1/2 u'Qu + (c+a)'u over the agent's box.

    Closed form when Q was declared diagonal, else projected gradient.
    Raises RuntimeError if the iterative path fails to reach
    ``FIXED_POINT_TOL`` within ``max_iters``.
    """
    a = np.asarray(a, dtype=float)
    if a.shape != (agent.dim,):
        raise ValueError(f"a has shape {a.shape}, expected ({agent.dim},)")
    if agent.is_diagonal:
        return np.clip(-(agent.c + a) / agent.diag, agent.lo, agent.hi)
    return _solve_pgd(agent, a, max_iters)


def _solve_pgd(agent: AgentSpec, a: np.ndarray, max_iters: int) -> np.ndarray:
    """Accelerated projected gradient with adaptive restart."""
    Q, lo, hi = agent.Q, agent.lo, agent.hi
    b = agent.c + a
    L = agent.eig_max
    # warm start from the clipped unconstrained minimizer
    x = np.clip(np.linalg.solve(Q, -b), lo, hi)
    y = x
    t = 1.0
    resid = np.inf
    for _ in range(max_iters):
        x_new = np.clip(y - (Q @ y + b) / L, lo, hi)
        step = x_new - np.clip(x_new - (Q @ x_new + b) / L, lo, hi)
        resid = float(np.linalg.norm(step))
        if resid <= FIXED_POINT_TOL:
            return x_new
        t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        if float(np.dot(y - x_new, x_new - x)) > 0.0:
            # momentum points uphill: restart
            t_new = 1.0
            y = x_new
        else:
            y = x_new + ((t - 1.0) / t_new) * (x_new - x)
        x, t = x_new, t_new
    raise RuntimeError(
        f"agent {agent.id}: local QP solve stalled at fixed-point residual {resid:.3e} "
        f"after {max_iters} iterations (tol {FIXED_POINT_TOL:.1e})"
    )
