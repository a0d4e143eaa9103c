"""Ground-truth solutions for small instances, independent of the engine.

Two routes:

* ``solve_kkt`` eliminates variables pinned by a degenerate box
  (lo == hi), solves the dense equality-constrained KKT system and
  verifies the remaining variables are strictly interior.  If any box
  turns out active at the solution it falls back to the second route.
* ``solve_active_set`` runs plain projected dual ascent (no momentum,
  no trackers, deliberately small steps eta_i / 10) until the coupling
  residual drops below 1e-10.  Slow but sturdy, and a code path fully
  separate from the accelerated drivers it is used to validate.

``certify_feasible`` decides whether the coupling equations intersect
the boxes at all, via a per-row interval bound plus a bounded
least-squares solve.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
from scipy.linalg import block_diag
from scipy.optimize import lsq_linear

from .model import ProblemInstance, primal_cost
from .stepsize import build_stepsizes
from .subsolver import solve_local

__all__ = ["OracleError", "InfeasibleError", "OracleSolution",
           "solve_kkt", "solve_active_set", "certify_feasible"]

ASCENT_TOL = 1e-10
ASCENT_MAX_ITERS = 1_000_000
FEASIBLE_TOL = 1e-8  # relative coupling gap that still counts as reachable


class OracleError(RuntimeError):
    """The oracle could not produce a trustworthy solution."""


class InfeasibleError(OracleError):
    """The coupling equations do not intersect the boxes."""


class OracleSolution(NamedTuple):
    u: np.ndarray
    lam: np.ndarray
    q: float
    method: str


def solve_kkt(instance: ProblemInstance) -> OracleSolution:
    """Exact minimizer and multiplier via the dense KKT system.

    Variables with lo == hi are fixed beforehand and the system solved
    for the rest; if the result is not strictly interior the active-set
    route takes over.  Raises OracleError on a singular KKT matrix.
    """
    A = instance.coupling_matrix
    Q = block_diag(*(a.Q for a in instance.agents))
    lo, hi, c, g = instance.lo_vec, instance.hi_vec, instance.c_vec, instance.g_vec
    pinned = lo == hi
    free = ~pinned
    u_p = lo[pinned]
    nf, m = int(free.sum()), instance.m_total

    K = np.zeros((nf + m, nf + m))
    K[:nf, :nf] = Q[np.ix_(free, free)]
    K[:nf, nf:] = A[:, free].T
    K[nf:, :nf] = A[:, free]
    rhs = np.concatenate([
        -c[free] - Q[np.ix_(free, pinned)] @ u_p,
        g - A[:, pinned] @ u_p,
    ])
    try:
        sol = np.linalg.solve(K, rhs)
    except np.linalg.LinAlgError as exc:
        raise OracleError("singular KKT system (redundant or inconsistent coupling rows)") from exc
    if not np.all(np.isfinite(sol)) or \
            float(np.linalg.norm(K @ sol - rhs)) > 1e-8 * (1.0 + float(np.linalg.norm(rhs))):
        raise OracleError("ill-conditioned KKT system")
    u_f, lam = sol[:nf], sol[nf:]

    margin = 1e-9 * (1.0 + np.abs(u_f))
    if nf and not (np.all(u_f > lo[free] + margin) and np.all(u_f < hi[free] - margin)):
        return solve_active_set(instance)

    u = np.empty(instance.n_total)
    u[pinned] = u_p
    u[free] = u_f
    return OracleSolution(u=u, lam=lam, q=primal_cost(instance, u), method="kkt")


def _interval_infeasible(instance: ProblemInstance) -> bool:
    """Necessary per-row check: g_r must lie between the box extremes of row r."""
    A, g = instance.coupling_matrix, instance.g_vec
    lo, hi = instance.lo_vec, instance.hi_vec
    low = np.minimum(A * lo, A * hi).sum(axis=1)
    high = np.maximum(A * lo, A * hi).sum(axis=1)
    pad = 1e-12 * (1.0 + np.abs(g))
    return bool(np.any(g < low - pad) or np.any(g > high + pad))


def certify_feasible(instance: ProblemInstance) -> bool:
    """True iff some point in the boxes satisfies every coupling equation."""
    if instance.m_total == 0:
        return True
    if _interval_infeasible(instance):
        return False
    A, g = instance.coupling_matrix, instance.g_vec
    lo, hi = instance.lo_vec.copy(), instance.hi_vec.copy()
    pinned = lo == hi
    free = ~pinned
    target = g - A[:, pinned] @ lo[pinned]
    if not free.any():
        return float(np.linalg.norm(target)) <= FEASIBLE_TOL * (1.0 + float(np.linalg.norm(g)))
    res = lsq_linear(A[:, free], target, bounds=(lo[free], hi[free]),
                     method="trf", tol=1e-14, max_iter=500)
    gap = float(np.linalg.norm(A[:, free] @ res.x - target))
    return gap <= FEASIBLE_TOL * (1.0 + float(np.linalg.norm(g)))


def solve_active_set(instance: ProblemInstance) -> OracleSolution:
    """Box-aware exact solve by long-run plain dual ascent.

    Intended for small instances (sum of dims <= ~50).  Certifies
    feasibility first and raises InfeasibleError otherwise; raises
    OracleError if the residual fails to reach ``ASCENT_TOL`` within
    ``ASCENT_MAX_ITERS`` iterations.
    """
    if not certify_feasible(instance):
        raise InfeasibleError("infeasible: coupling equations unreachable within the boxes")
    table = build_stepsizes(instance)
    eta_rows = 0.1 * table.eta_rows(instance)
    A, g = instance.coupling_matrix, instance.g_vec
    c, lo, hi = instance.c_vec, instance.lo_vec, instance.hi_vec
    d = instance.qdiag_vec
    lam = np.zeros(instance.m_total)
    res_norm = np.inf
    for _ in range(ASCENT_MAX_ITERS):
        a = A.T @ lam
        if d is not None:
            u = np.clip(-(c + a) / d, lo, hi)
        else:
            u = np.empty(instance.n_total)
            for ag in instance.agents:
                sl = instance.u_slice(ag.id)
                u[sl] = solve_local(ag, a[sl])
        res = A @ u - g
        res_norm = float(np.linalg.norm(res))
        if res_norm <= ASCENT_TOL:
            return OracleSolution(u=u, lam=lam, q=primal_cost(instance, u), method="active_set")
        lam = lam + eta_rows * res
    raise OracleError(
        f"dual ascent did not reach tol {ASCENT_TOL:.1e} in {ASCENT_MAX_ITERS} iterations "
        f"(residual {res_norm:.3e})"
    )
