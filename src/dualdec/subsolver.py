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

from .model import AgentSpec, ProblemInstance

__all__ = ["solve_local", "solve_local_batch", "dual_value_term"]

FIXED_POINT_TOL = 1e-12
MAX_INNER_ITERS = 100_000


def solve_local(agent: AgentSpec, a: np.ndarray, *, tol: float = FIXED_POINT_TOL,
                max_iters: int = MAX_INNER_ITERS, method: str = "auto") -> np.ndarray:
    """Unique minimizer of 1/2 u'Qu + (c+a)'u over the agent's box.

    ``method`` is "auto" (closed form when Q is diagonal), "closed" or
    "pgd" (force the projected-gradient path, useful for cross-checks).
    Raises RuntimeError if the iterative path fails to reach ``tol``.
    """
    a = np.asarray(a, dtype=float)
    if a.shape != (agent.dim,):
        raise ValueError(f"a has shape {a.shape}, expected ({agent.dim},)")
    if method not in ("auto", "closed", "pgd"):
        raise ValueError(f"unknown method {method!r}")
    if method == "closed" or (method == "auto" and agent.is_diagonal):
        if not agent.is_diagonal:
            raise ValueError("closed form requires a diagonal Q")
        return np.clip(-(agent.c + a) / agent.diag, agent.lo, agent.hi)
    return _solve_pgd(agent, a, tol, max_iters)


def _solve_pgd(agent: AgentSpec, a: np.ndarray, tol: float, max_iters: int) -> np.ndarray:
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
        if resid <= tol:
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
        f"after {max_iters} iterations (tol {tol:.1e})"
    )


def solve_local_batch(agent: AgentSpec, A: np.ndarray) -> np.ndarray:
    """Closed-form minimizers for many pressure vectors at once.

    ``A`` has one column per sample; requires a diagonal Q.
    """
    if not agent.is_diagonal:
        raise ValueError("batch solve requires a diagonal Q")
    A = np.asarray(A, dtype=float)
    return np.clip(-(agent.c[:, None] + A) / agent.diag[:, None],
                   agent.lo[:, None], agent.hi[:, None])


def dual_value_term(instance: ProblemInstance, agent_id: int, lam: np.ndarray,
                    u: np.ndarray) -> float:
    """Agent's contribution to the dual value at the stacked multiplier ``lam``:

        f_i(u) - <lam_i, g_i> + sum_{j in M_i} <G_j^i' lam_j, u>.
    """
    agent = instance.agent(agent_id)
    lam = np.asarray(lam, dtype=float)
    if lam.shape != (instance.m_total,):
        raise ValueError(f"lam has shape {lam.shape}, expected ({instance.m_total},)")
    u = np.asarray(u, dtype=float)
    lam_out = np.concatenate(
        [lam[instance.lam_slice(j)] for j, _ in instance.out_slices(agent_id)]
    ) if instance.out_slices(agent_id) else np.zeros(0)
    a = instance.out_stack(agent_id).T @ lam_out
    lam_own = lam[instance.lam_slice(agent_id)]
    return agent.cost(u) - float(np.dot(lam_own, agent.g)) + float(np.dot(a, u))
