"""Ground-truth solutions, by a route that shares no code with the engine.

Both routes rest on one sparse Schur-complement solve of the
equality-constrained QP

    minimize 1/2 u'Qu + c'u   subject to   A u = g,   u_P = p,

where P is a set of pinned entries.  With M = [A; E_P] (E_P the identity
rows of P) and b = (g, p), the multipliers y = (lam, mu) solve

    H y = -(b + M Q^-1 c),      H = M Q^-1 M',

and u = -Q^-1 (c + M'y).  Q^-1 is block diagonal (1/d for diagonal
agents, one inverse per dense stack) and is assembled as CSR arrays; H
has one row per coupling row and pinned entry, is sparse, and is
factored by ``scipy.sparse.linalg.splu``.  No dense KKT matrix or dense
Q is formed, and no route densifies the coupling matrix except the
feasibility check's deciding solve (below).

* ``solve_kkt`` pins the entries with lo == hi.  If every other entry
  lands strictly inside its box the answer is route ``"kkt"``; otherwise
  the box route takes over.
* ``solve_active_set`` finds a point of the boxes that meets the coupling
  equations, then runs the primal active-set method (Nocedal & Wright,
  Algorithm 16.3) from it.  Each step moves toward the Schur solve with
  the working set of bounds pinned; one bound enters the set (the first
  the step meets) or leaves it (the worst-signed multiplier
  nu = Qu + c + A'lam) until every multiplier has the right sign.
  Because a bound enters only along a step that keeps the coupling rows,
  the pinned rows never over-constrain them.

Coupling rows that are linearly dependent make H singular on every
route, so they raise OracleError("singular KKT system ...") from
``solve_active_set`` as well as from ``solve_kkt``.

Every answer must pass an explicit KKT certificate (``kkt_residual``):
coupling feasibility, bounds, nu = 0 off the bounds (stationarity and
complementarity), nu >= 0 at a lower and nu <= 0 at an upper bound.  An
answer that fails it raises OracleError rather than being returned.

``certify_feasible`` decides whether the coupling equations intersect
the boxes at all, via a per-row interval bound plus a bounded
least-squares solve: a sparse one first, and a dense one to confirm a
miss.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.optimize import lsq_linear
from scipy.sparse.linalg import splu

from .model import ProblemInstance, primal_cost

__all__ = ["OracleError", "InfeasibleError", "OracleSolution",
           "solve_kkt", "solve_active_set", "certify_feasible", "kkt_residual"]

FEASIBLE_TOL = 1e-8  # relative coupling gap that still counts as reachable
SOLVE_TOL = 1e-8     # relative residual one Schur solve may leave
CERT_TOL = 1e-8      # scaled KKT violation an answer may have
MAX_SWEEPS = 100     # active-set re-solves before giving up


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
    """Exact minimizer and multiplier, with the entries lo == hi pinned.

    If the other entries are not strictly interior the active-set route
    takes over.  Raises OracleError on a singular or ill-conditioned
    system, or an answer that fails the KKT certificate.
    """
    Q, Qinv = _block_diag(instance, False), _block_diag(instance, True)
    lo, hi = instance.lo_vec, instance.hi_vec
    u, lam = _schur_solve(instance, Q, Qinv, lo == hi, lo)
    free = lo != hi
    margin = 1e-9 * (1.0 + np.abs(u[free]))
    if not ((u[free] > lo[free] + margin).all() and (u[free] < hi[free] - margin).all()):
        return _solve_boxes(instance, Q, Qinv, (u, lam))
    return _certified(instance, Q, u, lam, "kkt")


def solve_active_set(instance: ProblemInstance) -> OracleSolution:
    """Box-aware exact solve by the primal active-set method.

    Raises InfeasibleError when no point of the boxes meets the coupling
    equations, and OracleError when the steps do not reach an answer that
    passes the KKT certificate, or when the coupling rows are linearly
    dependent (a singular KKT system).
    """
    Q, Qinv = _block_diag(instance, False), _block_diag(instance, True)
    return _solve_boxes(instance, Q, Qinv, None)


def _solve_boxes(instance, Q, Qinv, start) -> OracleSolution:
    """Primal active-set steps from a feasible point; ``start`` = (u, lam)
    solves the system with only lo == hi pinned (None: solve it here)."""
    x = _feasible_point(instance)
    if x is None:
        raise InfeasibleError("infeasible: coupling equations unreachable within the boxes")
    if start is None:
        lo = instance.lo_vec
        start = _schur_solve(instance, Q, Qinv, lo == instance.hi_vec, lo)
    return _primal_active_set(instance, Q, Qinv, x, start)


def _primal_active_set(instance, Q, Qinv, x, start) -> OracleSolution:
    """Primal active-set method (Nocedal & Wright, Algorithm 16.3) from ``x``.

    ``x`` lies in the boxes and meets the coupling equations; ``start``
    solves the system with only lo == hi pinned.  Each step moves toward
    the solve with the working set pinned, and one bound enters (the
    first one the step meets) or leaves (the worst-signed multiplier) the
    set.  A bound enters only along a step that keeps the coupling rows,
    so the pinned rows stay independent of them.
    """
    lo, hi, c = instance.lo_vec, instance.hi_vec, instance.c_vec
    A = instance.coupling_csr
    fixed = lo == hi
    work, upper = fixed.copy(), np.zeros_like(fixed)
    u, (u_bar, lam) = np.clip(x, lo, hi), start
    tol = CERT_TOL * _scale(instance)
    for _ in range(MAX_SWEEPS + 2 * len(u)):
        p = u_bar - u
        moving = (p != 0) & ~work
        room = np.full(len(u), np.inf)
        room[moving] = np.where(p < 0, lo - u, hi - u)[moving] / p[moving]
        j = int(np.argmin(room))
        if room[j] < 1.0:
            u = u + max(room[j], 0.0) * p
            upper[j] = p[j] > 0
            u[j] = hi[j] if upper[j] else lo[j]
            work[j] = True
        else:
            u = u_bar
            nu = Q @ u + c + A.T @ lam
            wrong = np.where(work & ~fixed, np.where(upper, nu, -nu), -np.inf)
            i = int(np.argmax(wrong))
            if wrong[i] <= tol:
                return _certified(instance, Q, u, lam, "active_set")
            work[i] = upper[i] = False
        u_bar, lam = _schur_solve(instance, Q, Qinv, work, np.where(upper, hi, lo))
    raise OracleError(f"primal active-set steps did not settle in {MAX_SWEEPS + 2 * len(u)}")


def _block_diag(instance: ProblemInstance, invert: bool) -> sp.csr_array:
    """Q (or its inverse) assembled straight into CSR arrays.

    Diagonal agents give one entry per row; each group of the dense
    stack, (k, d, d) blocks, gives d entries per row, in ascending columns.
    """
    n = instance.n_total
    cols, d = instance.diag_columns
    rows, idx, vals = [cols], [cols], [1.0 / d if invert else d]
    st = instance.dense_stack
    for _, es, Q in () if st is None else st.groups:
        B = np.linalg.inv(Q) if invert else Q
        dim, gcols = B.shape[-1], st.cols[es]
        rows.append(np.repeat(gcols, dim))
        idx.append(np.repeat(gcols.reshape(-1, dim), dim, axis=0).ravel())
        vals.append(B.ravel())
    rows = np.concatenate(rows)
    order = np.argsort(rows, kind="stable")
    indptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return sp.csr_array((np.concatenate(vals)[order], np.concatenate(idx)[order], indptr),
                        shape=(n, n))


def _schur_solve(instance: ProblemInstance, Q, Qinv, pinned: np.ndarray, at: np.ndarray):
    """Minimizer u and coupling multiplier lam with ``u[pinned] = at[pinned]``.

    Raises OracleError when H is exactly singular, or when the solve
    leaves a non-finite answer or a relative residual above ``SOLVE_TOL``.
    """
    A, g, c = instance.coupling_csr, instance.g_vec, instance.c_vec
    m, n = A.shape
    pin = np.flatnonzero(pinned)
    p = at[pin]
    M = sp.csr_array((np.concatenate([A.data, np.ones(len(pin))]),
                      np.concatenate([A.indices, pin]),
                      np.concatenate([A.indptr, A.indptr[-1] + np.arange(1, len(pin) + 1)])),
                     shape=(m + len(pin), n))
    MT = M.T
    b = np.concatenate([g, p])
    y = np.zeros(M.shape[0])
    if len(y):
        H = (M @ Qinv @ MT).tocsc()
        try:
            y = splu(H).solve(-(b + M @ (Qinv @ c)))
        except RuntimeError as exc:
            raise OracleError("singular KKT system (redundant or inconsistent coupling rows)") \
                from exc
    u = -(Qinv @ (c + MT @ y))
    u[pin] = p
    res = np.concatenate([Q @ u + c + MT @ y, M @ u - b])
    rhs = np.concatenate([c, b])
    if not (np.isfinite(y).all() and np.isfinite(u).all()) or \
            float(np.linalg.norm(res)) > SOLVE_TOL * (1.0 + float(np.linalg.norm(rhs))):
        raise OracleError("ill-conditioned KKT system")
    return u, y[:m]


def kkt_residual(instance: ProblemInstance, u: np.ndarray, lam: np.ndarray) -> float:
    """Largest violation of the KKT conditions at (u, lam), over 1 + max(|c|, |g|).

    With nu = Qu + c + A'lam it covers coupling feasibility A u = g, the
    bounds, nu = 0 at entries strictly inside their box (stationarity and
    complementarity), nu >= 0 at a lower bound and nu <= 0 at an upper
    bound.  An entry with lo == hi may carry either sign.
    """
    return _violation(instance, _block_diag(instance, False), u, lam)


def _violation(instance: ProblemInstance, Q, u: np.ndarray, lam: np.ndarray) -> float:
    A, g, c = instance.coupling_csr, instance.g_vec, instance.c_vec
    lo, hi = instance.lo_vec, instance.hi_vec
    nu = Q @ u + c + A.T @ lam
    lower, upper = u <= lo, u >= hi
    inside = ~(lower | upper)
    viol = np.concatenate([np.abs(A @ u - g), lo - u, u - hi, np.abs(nu[inside]),
                           -nu[lower & ~upper], nu[upper & ~lower]])
    return float(np.max(viol, initial=0.0)) / _scale(instance)


def _scale(instance: ProblemInstance) -> float:
    return 1.0 + float(np.max(np.abs(np.concatenate([instance.c_vec, instance.g_vec]))))


def _certified(instance: ProblemInstance, Q, u: np.ndarray, lam: np.ndarray,
               method: str) -> OracleSolution:
    """The answer, once it passes the KKT certificate."""
    r = _violation(instance, Q, u, lam)
    if not r <= CERT_TOL:
        raise OracleError(f"{method} answer fails its KKT certificate "
                          f"(scaled violation {r:.3e} > {CERT_TOL:.0e})")
    return OracleSolution(u=u, lam=lam, q=primal_cost(instance, u), method=method)


def _interval_infeasible(instance: ProblemInstance) -> bool:
    """Necessary per-row check: g_r must lie between the box extremes of row r."""
    A, g = instance.coupling_csr, instance.g_vec
    lo, hi = instance.lo_vec, instance.hi_vec
    pos, neg = A.maximum(0.0), A.minimum(0.0)
    low, high = pos @ lo + neg @ hi, pos @ hi + neg @ lo
    pad = 1e-12 * (1.0 + np.abs(g))
    return bool((g < low - pad).any() or (g > high + pad).any())


def certify_feasible(instance: ProblemInstance) -> bool:
    """True iff some point in the boxes satisfies every coupling equation."""
    return _feasible_point(instance) is not None


def _feasible_point(instance: ProblemInstance) -> np.ndarray | None:
    """A point of the boxes that meets the coupling equations to
    ``FEASIBLE_TOL`` (relative), or None when there is none.

    The bounded least-squares solve runs on the sparse free columns; a
    dense solve decides only when that leaves the gap above tolerance, as
    the sparse one's iterative inner solves may stop short.
    """
    lo, hi = instance.lo_vec, instance.hi_vec
    if instance.m_total == 0:
        return lo.copy()
    if _interval_infeasible(instance):
        return None
    A, g = instance.coupling_csr, instance.g_vec
    pinned = lo == hi
    free = np.flatnonzero(~pinned)
    x = lo.copy()
    target = g - A @ np.where(pinned, lo, 0.0)
    tol = FEASIBLE_TOL * (1.0 + float(np.linalg.norm(g)))
    if not len(free):
        return x if float(np.linalg.norm(target)) <= tol else None
    A_free = A[:, free]

    def reaches(B) -> bool:
        x[free] = lsq_linear(B, target, bounds=(lo[free], hi[free]), method="trf",
                             tol=1e-14, max_iter=500, lsmr_tol="auto").x
        return float(np.linalg.norm(A_free @ x[free] - target)) <= tol

    return x if reaches(A_free) or reaches(A_free.toarray()) else None
