"""Accelerated distributed dual ascent, with and without link failures.

``run_alg1`` is the full-information driver: every iteration each agent
solves its local QP at the interpolated multipliers, takes a gradient
step on its own block, and applies the momentum update

    theta(k+1) = (1 + sqrt(1 + 4 theta(k)^2)) / 2,
    hat_lam(k+1) = lam(k) + ((theta(k)-1)/theta(k+1)) (lam(k) - lam(k-1)).

``run_alg2`` runs the identical scheme on top of per-neighbor multiplier
trackers.  Agent i keeps a copy of lam_j for every j in M_i; copies are
refreshed only over links that are up at that iteration, and the gradient
step on lam_i is *held* whenever any in-neighbor link is down.  With no
failures the two drivers produce the same trajectory bit for bit.

``run_unaccelerated`` is the momentum-free baseline (theta pinned to 1).

All three run one kernel over flat arrays (see ``_Plan``): ``run_alg1``
is the tracked scheme on a network whose links are always up, and
``run_unaccelerated`` pins theta to 1.  The loop resolves ``solve_local``
and ``eval_dual`` through this module's globals at call time.

All drivers log, per iteration, the dual value and gradient norm at the
shared multiplier lam(k) (agents' own blocks re-solved jointly), plus the
optional distance diagnostics when the optimal multiplier is supplied.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .model import ProblemInstance, ValidationError, blocks_to_csr, primal_cost
from .netsim import NetworkModel, activation_matrix
from .stepsize import StepsizeTable
from .subsolver import solve_local

__all__ = [
    "DualEval", "RunTrace", "theta_next", "eval_dual", "eval_dual_batch",
    "run_alg1", "run_alg2", "run_unaccelerated",
    "check_lyapunov_step", "check_quadratic_model",
]

DEFAULT_EPS = 1e-6
TRACE_HEADER = "k,q,residual,gap,V,updates"
LINK_BLOCK = 64  # iterations of link states drawn per activation_matrix call


def theta_next(theta: float) -> float:
    """Momentum recursion theta+ = (1 + sqrt(1 + 4 theta^2)) / 2."""
    if theta < 1.0:
        raise ValueError(f"theta must be >= 1, got {theta}")
    return 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * theta * theta))


class DualEval(NamedTuple):
    q: float
    grad: np.ndarray
    u: np.ndarray


def _local_argmin(instance: ProblemInstance, a: np.ndarray) -> np.ndarray:
    """Every agent's local minimizer at the stacked pressure ``a``: one
    vectorized clip for diagonal costs, else ``solve_local`` per agent."""
    d = instance.qdiag_vec
    if d is not None:
        return np.clip(-(instance.c_vec + a) / d, instance.lo_vec, instance.hi_vec)
    u = np.empty(instance.n_total)
    for ag in instance.agents:
        sl = instance.u_slice(ag.id)
        u[sl] = solve_local(ag, a[sl])
    return u


def eval_dual(instance: ProblemInstance, lam: np.ndarray) -> DualEval:
    """Dual value, dual gradient and local minimizers at a shared multiplier.

    The gradient block of agent i is its coupling residual
    G_i^i u_i + sum_j G_i^j u_j - g_i at the jointly re-solved u(lam).
    """
    lam = np.asarray(lam, dtype=float)
    if lam.shape != (instance.m_total,):
        raise ValueError(f"lam has shape {lam.shape}, expected ({instance.m_total},)")
    a = instance.coupling_csr_T @ lam
    u = _local_argmin(instance, a)
    q = primal_cost(instance, u) - float(np.dot(lam, instance.g_vec)) + float(np.dot(a, u))
    grad = instance.coupling_csr @ u - instance.g_vec
    return DualEval(q=q, grad=grad, u=u)


def eval_dual_batch(instance: ProblemInstance, lams: np.ndarray):
    """Vectorized ``eval_dual`` over the columns of ``lams`` (m x S)."""
    lams = np.asarray(lams, dtype=float)
    a = instance.coupling_csr_T @ lams
    d = instance.qdiag_vec
    if d is not None:
        u = np.clip(-(instance.c_vec[:, None] + a) / d[:, None],
                    instance.lo_vec[:, None], instance.hi_vec[:, None])
        fvals = 0.5 * np.einsum("is,is->s", u, d[:, None] * u) + instance.c_vec @ u
    else:
        u = np.empty((instance.n_total, lams.shape[1]))
        for s in range(lams.shape[1]):
            u[:, s] = eval_dual(instance, lams[:, s]).u
        fvals = np.array([primal_cost(instance, u[:, s]) for s in range(lams.shape[1])])
    q = fvals - instance.g_vec @ lams + np.einsum("is,is->s", a, u)
    grad = instance.coupling_csr @ u - instance.g_vec[:, None]
    return q, grad, u


@dataclass
class RunTrace:
    """Per-iteration log of one run.

    ``lam[k-1]`` is the stacked multiplier after iteration k; ``q`` and
    ``residual`` are evaluated at that shared multiplier.  ``gap`` and
    ``V`` are populated only when the run was given the optimal
    multiplier; ``updates[k-1, p]`` says whether agent p (ascending id)
    took its gradient step at iteration k.
    """

    algo: str
    instance: ProblemInstance = field(repr=False)
    eta: np.ndarray
    alpha: np.ndarray
    eps: float
    converged: bool
    iters: int
    theta: np.ndarray
    q: np.ndarray
    residual: np.ndarray
    updates: np.ndarray
    lam: np.ndarray
    gap: np.ndarray | None = None
    V: np.ndarray | None = None
    q_star: float | None = None
    lambda_star: np.ndarray | None = None
    u_final: np.ndarray | None = None

    def lam_at(self, k: int) -> np.ndarray:
        """lam(k), with lam(0) = 0."""
        if k == 0:
            return np.zeros(self.instance.m_total)
        return self.lam[k - 1]

    def theta_at(self, k: int) -> float:
        return float(self.theta[k - 1])

    def omega(self, k: int, lambda_star: np.ndarray | None = None) -> np.ndarray:
        """Stacked momentum-corrected distance theta(k) lam(k) - (theta(k)-1) lam(k-1) - lam*."""
        ls = self.lambda_star if lambda_star is None else np.asarray(lambda_star, float)
        if ls is None:
            raise ValueError("omega needs the optimal multiplier")
        th = self.theta_at(k)
        return th * self.lam_at(k) - (th - 1.0) * self.lam_at(k - 1) - ls

    def to_csv(self, path) -> None:
        """Write ``k,q,residual,gap,V,updates`` rows; floats via repr."""
        lines = [TRACE_HEADER]
        for k in range(1, self.iters + 1):
            gap = repr(float(self.gap[k - 1])) if self.gap is not None else ""
            V = repr(float(self.V[k - 1])) if self.V is not None else ""
            bits = "".join("1" if b else "0" for b in self.updates[k - 1])
            lines.append(f"{k},{float(self.q[k-1])!r},{float(self.residual[k-1])!r},{gap},{V},{bits}")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")


class _Plan(NamedTuple):
    """Flat layout of one run, built once before the iteration loop.

    Tracker rows: for each agent i (ascending) and each j in M_i
    (ascending), agent i's copy of lam_j.  Contribution rows: for each
    agent i with m_i > 0, the blocks G_i^i u_i, then G_i^j u_j for j in
    N_i ascending.  Every row names the link slot that carries it; the
    last slot is always up and carries an agent's own copies (and every
    row when there is no network).
    """

    P: sp.csr_array           # n_total x trackers: local pressure a_i = sum_j G_j^i' lam_j
    C: sp.csr_array           # contributions x n_total: one G_i^j block per row block
    S: sp.csr_array           # m_total x contributions: sums each owner's blocks, own first
    gather: np.ndarray        # tracker row -> lam row it copies
    row_link: np.ndarray      # tracker row -> link slot
    c_link: np.ndarray        # contribution row -> link slot
    own: np.ndarray           # lam row -> tracker row of its owner's own copy
    row_agent: np.ndarray     # lam row -> owner position
    in_agent: np.ndarray      # in-edge -> owner position
    in_link: np.ndarray       # in-edge -> link slot
    starts: np.ndarray        # first lam row of every agent with m_i > 0
    eta_rows: np.ndarray
    n_links: int


def _plan(instance: ProblemInstance, stepsizes: StepsizeTable,
          network: NetworkModel | None) -> _Plan:
    n_links = 0 if network is None else len(network.edges)

    def link(i, j):
        if i == j or network is None:
            return n_links
        return network.edge_index[(min(i, j), max(i, j))]

    graph = instance.graph
    P_blocks, C_blocks, S_blocks = [], [], []
    gather, row_link, c_link, in_agent, in_link = [], [], [], [], []
    own = np.empty(instance.m_total, dtype=np.intp)
    t = r = 0
    for p, a in enumerate(instance.agents):
        i = a.id
        for j in graph.out_neighbors[i]:
            sl = instance.lam_slice(j)
            mj = sl.stop - sl.start
            if j == i:
                own[sl] = np.arange(t, t + mj)
            if mj:
                P_blocks.append((instance.u_slice(i).start, t, instance.agent(j).blocks[i].T))
            gather.extend(range(sl.start, sl.stop))
            row_link += [link(i, j)] * mj
            t += mj
        if a.m:
            eye = np.eye(a.m)
            for j in (i,) + graph.in_neighbors[i]:
                C_blocks.append((r, instance.u_slice(j).start, a.blocks[j]))
                S_blocks.append((instance.lam_slice(i).start, r, eye))
                c_link += [link(i, j)] * a.m
                r += a.m
        for j in graph.in_neighbors[i]:
            in_agent.append(p)
            in_link.append(link(i, j))
    def idx(v):
        return np.array(v, dtype=np.intp)

    return _Plan(
        P=blocks_to_csr((instance.n_total, t), P_blocks),
        C=blocks_to_csr((r, instance.n_total), C_blocks),
        S=blocks_to_csr((instance.m_total, r), S_blocks),
        gather=idx(gather), row_link=idx(row_link), c_link=idx(c_link), own=own,
        row_agent=np.repeat(np.arange(len(instance.agents)), [a.m for a in instance.agents]),
        in_agent=idx(in_agent), in_link=idx(in_link),
        starts=idx([instance.lam_slice(a.id).start for a in instance.agents if a.m]),
        eta_rows=stepsizes.eta_rows(instance), n_links=n_links,
    )


def _checked_inputs(instance, eps, lam0, lambda_star):
    """Validate a run's tolerance and optional multipliers at the API boundary."""
    eps = float(eps)
    if not (math.isfinite(eps) and eps >= 0.0):
        raise ValidationError(f"eps must be finite and >= 0, got {eps!r}")
    out = []
    for name, v in (("lam0", lam0), ("lambda_star", lambda_star)):
        if v is not None:
            v = np.array(v, dtype=float)
            if v.shape != (instance.m_total,):
                raise ValidationError(
                    f"{name} has shape {v.shape}, expected ({instance.m_total},)")
            if not np.all(np.isfinite(v)):
                raise ValidationError(f"{name} has non-finite entries")
        out.append(v)
    return eps, out[0], out[1]


def _run(instance, stepsizes, network, max_iters, eps, accelerate, lambda_star, lam0, algo):
    """The one iteration loop: every driver is this kernel with a network
    (or none, i.e. every link always up) and momentum on or off."""
    eps, lam0, lambda_star = _checked_inputs(instance, eps, lam0, lambda_star)
    plan = _plan(instance, stepsizes, network)
    n_agents = len(instance.agents)
    eta_arr = np.array([stepsizes.eta[i] for i in instance.ids])
    alpha_arr = np.array([1.0 if network is None else network.alpha[i] for i in instance.ids])
    q_star = None
    if lambda_star is not None:
        q_star = eval_dual(instance, lambda_star).q
        v_weight = 1.0 / (2.0 * np.repeat(alpha_arr * eta_arr, [a.m for a in instance.agents]))
    g = instance.g_vec

    lam = np.zeros(instance.m_total) if lam0 is None else lam0
    prev = hat = lam[plan.gather]          # trackers: last refresh and its interpolant
    recv = np.zeros(plan.C.shape[0])       # cached contributions, zero until received
    up = np.ones(plan.n_links + 1, dtype=bool)
    log_q, log_res, log_lam, log_upd, log_theta, log_gap, log_V = [], [], [], [], [], [], []
    theta, converged, iters, ev = 1.0, False, 0, None

    for k in range(1, max_iters + 1):
        if network is not None:
            if (k - 1) % LINK_BLOCK == 0:
                draws = activation_matrix(network, range(k, min(k + LINK_BLOCK, max_iters + 1)))
            up[:-1] = draws[(k - 1) % LINK_BLOCK]
        # local solves at the tracked interpolated multipliers
        u = _local_argmin(instance, plan.P @ hat)
        # primal exchange: a contribution is refreshed only over a link that is up
        recv = np.where(up[plan.c_link], plan.C @ u, recv)
        s = plan.S @ recv - g
        # gradient step, held unless every in-neighbor link is up
        fired = np.bincount(plan.in_agent[~up[plan.in_link]], minlength=n_agents) == 0
        base = hat[plan.own]
        lam_new = np.where(fired[plan.row_agent], base + plan.eta_rows * s, base)
        # stop once every agent's own residual norm is below eps (a NaN norm never is)
        ok = bool(np.all(np.sqrt(np.add.reduceat(s * s, plan.starts)) < eps))
        # multiplier exchange and tracker refresh
        theta_new = theta_next(theta) if accelerate else 1.0
        coef = (theta - 1.0) / theta_new
        cur = np.where(up[plan.row_link], lam_new[plan.gather], hat)
        hat = cur + coef * (cur - prev)
        prev = cur
        # log at the shared multiplier
        ev = eval_dual(instance, lam_new)
        log_q.append(ev.q)
        log_res.append(float(np.linalg.norm(ev.grad)))
        log_lam.append(lam_new)
        log_upd.append(fired)
        log_theta.append(theta)
        if lambda_star is not None:
            log_gap.append(q_star - ev.q)
            omega = theta * lam_new - (theta - 1.0) * lam - lambda_star
            log_V.append(float(np.dot(omega * omega, v_weight)))
        lam, theta, iters = lam_new, theta_new, k
        if ok:
            converged = True
            break

    m = instance.m_total
    return RunTrace(
        algo=algo, instance=instance, eta=eta_arr, alpha=alpha_arr,
        eps=eps, converged=converged, iters=iters,
        theta=np.array(log_theta), q=np.array(log_q), residual=np.array(log_res),
        updates=(np.array(log_upd, dtype=bool).reshape(iters, n_agents)
                 if iters else np.zeros((0, n_agents), dtype=bool)),
        lam=(np.array(log_lam).reshape(iters, m) if iters else np.zeros((0, m))),
        gap=np.array(log_gap) if lambda_star is not None else None,
        V=np.array(log_V) if lambda_star is not None else None,
        q_star=q_star, lambda_star=lambda_star, u_final=None if ev is None else ev.u,
    )


def run_alg1(instance: ProblemInstance, stepsizes: StepsizeTable, max_iters: int,
             eps: float = DEFAULT_EPS, *, lambda_star: np.ndarray | None = None,
             lam0: np.ndarray | None = None) -> RunTrace:
    """Full-information accelerated dual ascent: the kernel with every link up.

    Stops at the first iteration where every agent's own residual norm
    (at that iteration's local solutions) drops below ``eps``.
    Non-convergence within ``max_iters`` is reported on the trace, not
    raised.  ``lam0`` warm-starts lam(0) (default zero).
    """
    return _run(instance, stepsizes, None, max_iters, eps, True, lambda_star, lam0, "alg1")


def run_alg2(instance: ProblemInstance, stepsizes: StepsizeTable, network: NetworkModel,
             max_iters: int, eps: float = DEFAULT_EPS, *,
             lambda_star: np.ndarray | None = None,
             lam0: np.ndarray | None = None) -> RunTrace:
    """Tracker-based accelerated dual ascent over an unreliable network.

    Stopping uses each agent's most recently received neighbor
    contributions (zero before anything arrives over a link); the trace
    additionally records the true residual at the shared multiplier.
    """
    return _run(instance, stepsizes, network, max_iters, eps, True, lambda_star, lam0, "alg2")


def run_unaccelerated(instance: ProblemInstance, stepsizes: StepsizeTable,
                      network: NetworkModel, max_iters: int, eps: float = DEFAULT_EPS, *,
                      lambda_star: np.ndarray | None = None,
                      lam0: np.ndarray | None = None) -> RunTrace:
    """Momentum-free baseline: theta pinned to 1, trackers equal their interpolants."""
    return _run(instance, stepsizes, network, max_iters, eps, False, lambda_star, lam0,
                "unaccel")


def check_lyapunov_step(trace: RunTrace, k: int,
                        lambda_star: np.ndarray | None = None) -> bool:
    """One-step decrease certificate of the scaled distance sequence.

    Verifies, at iteration k of a full-information run,

        sum_i (||omega_i(k+1)||^2 - ||omega_i(k)||^2) / (2 eta_i)
            <= theta(k)^2 (q* - q(lam(k))) - theta(k+1)^2 (q* - q(lam(k+1)))

    with slack 1e-9 (1 + |q*|).  Requires 1 <= k < trace.iters.
    """
    if not (1 <= k < trace.iters):
        raise ValueError(f"need 1 <= k < {trace.iters}, got {k}")
    inst = trace.instance
    ls = trace.lambda_star if lambda_star is None else np.asarray(lambda_star, float)
    if ls is None:
        raise ValueError("check_lyapunov_step needs the optimal multiplier")
    q_star = trace.q_star if (lambda_star is None and trace.q_star is not None) \
        else eval_dual(inst, ls).q
    w_k = trace.omega(k, ls)
    w_k1 = trace.omega(k + 1, ls)
    lhs = 0.0
    for p, i in enumerate(inst.ids):
        sl = inst.lam_slice(i)
        if sl.stop > sl.start:
            a, b = w_k1[sl], w_k[sl]
            lhs += (float(np.dot(a, a)) - float(np.dot(b, b))) / (2.0 * trace.eta[p])
    th_k, th_k1 = trace.theta_at(k), trace.theta_at(k + 1)
    rhs = th_k ** 2 * (q_star - trace.q[k - 1]) - th_k1 ** 2 * (q_star - trace.q[k])
    return lhs <= rhs + 1e-9 * (1.0 + abs(q_star))


def check_quadratic_model(instance: ProblemInstance, stepsizes: StepsizeTable,
                          xi: np.ndarray, mu: np.ndarray, slack: float = 1e-9) -> bool:
    """Lower bound on the progress of one proximal gradient step.

    With lam(xi) = xi + diag(eta) grad q(xi) blockwise, verifies

        q(lam(xi)) - q(mu) >= sum_i <xi_i - mu_i, lam_i(xi) - xi_i> / eta_i
                              + sum_i ||lam_i(xi) - xi_i||^2 / (2 eta_i)

    within ``slack`` for arbitrary multipliers xi, mu.
    """
    xi = np.asarray(xi, dtype=float)
    mu = np.asarray(mu, dtype=float)
    eta_rows = stepsizes.eta_rows(instance)
    grad = eval_dual(instance, xi).grad
    step = eta_rows * grad
    lam_xi = xi + step
    q_lam = eval_dual(instance, lam_xi).q
    q_mu = eval_dual(instance, mu).q
    rhs = float(np.sum((xi - mu) * grad + 0.5 * eta_rows * grad * grad))
    return q_lam - q_mu >= rhs - slack
