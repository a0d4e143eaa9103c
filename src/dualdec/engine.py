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

All three run one kernel over flat arrays (see ``_Plan``), each on a
network: ``run_alg1`` is the lossy scheme on a gamma-0 network, whose
links are always up, and ``run_unaccelerated`` pins theta to 1.  The
kernel keeps one copy of each multiplier, which is the tracker protocol
exactly: each holder i of a copy of lam_j is an in-neighbor of j, so
when a refresh of that copy is lost, j held its step and its new lam_j
is the interpolant the copy already holds (``tests/test_engine.py``
checks this against a per-agent reference that keeps every tracker).  A
contribution that comes over a down link keeps its last received value,
and a held agent's stop test still reads it.  The local pressures
a_i = sum_j G_j^i' lam_j are the transposed coupling matrix applied to
the interpolants.  The loop resolves ``solve_local`` and ``eval_dual``
through this module's globals.
The stop test compares squared residual norms with a threshold T fixed
per run (``_stop_threshold``), which gives the same booleans as comparing
their square roots with eps.

The kernel's state is a block of replicate columns: ``run_batch`` runs
one column per network, and the lone drivers are the one-column case.
Every vector is a (rows, S) block, theta stays one scalar, and a column
leaves the block once it converges or turns non-finite (a column that
runs out of budget ends with the rest); its ``iters``,
``stop``, ``theta`` and ``updates`` are its lone run's bit for bit.  The
local solve takes its pressures as rows, so the kernel hands it the
transposed (S, n) block and transposes the minimizers back.

A lone driver's run logs, per iteration, the dual value and gradient
norm at the shared multiplier lam(k) (agents' own blocks re-solved
jointly), plus the optional distance diagnostics when the optimal
multiplier is supplied; the columns of a ``run_batch`` are not logged.
The loop only keeps lam(k), which the trace records anyway, and never
reads the log.  The log is one pass after the loop over blocks of
``LINK_BLOCK`` multipliers, the last padded with copies of lam(iters):
one product with the transposed coupling matrix and one local solve per
block (the dense stack repeated at that one width; every row keeps the
bits of its own solve, and a copy settles when its source does), then
one ``eval_dual(instance, lam(k), u=u(k))`` per iteration up to iters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools

from .model import (ProblemInstance, ValidationError, _field, _int, _real, blocks_to_csr,
                    primal_cost)
from .netsim import NetworkModel, _edge_key, activation_matrix, build_network, links
from .stepsize import StepsizeTable
from .subsolver import solve_local

__all__ = [
    "DualEval", "RunTrace", "theta_next", "eval_dual",
    "run_alg1", "run_alg2", "run_unaccelerated", "run_batch",
    "check_lyapunov_step", "check_quadratic_model",
]

DEFAULT_EPS = 1e-6
MODEL_SLACK = 1e-9  # absolute slack of check_quadratic_model
TRACE_HEADER = "k,q,residual,gap,V,updates"
LINK_BLOCK = 64  # iterations of link states (and the masks from them) made at once


def theta_next(theta: float) -> float:
    """Momentum recursion theta+ = (1 + sqrt(1 + 4 theta^2)) / 2."""
    if not theta >= 1.0:  # NaN too
        raise ValueError(f"theta must be >= 1, got {theta}")
    return 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * theta * theta))


class DualEval(NamedTuple):
    q: float
    grad: np.ndarray
    u: np.ndarray


def _matvec(A: sp.csr_array, x: np.ndarray) -> np.ndarray:
    """``A @ x`` for a float CSR matrix and a float vector or (n, S) block,
    without scipy's dispatch: the same C routines into the same zeroed
    buffer, so the same bits.  A block takes ``csr_matvecs``, which gives
    every column the bits of ``csr_matvec`` on that column; a vector or one
    column takes ``csr_matvec``, which costs about half as much."""
    m, n = A.shape
    y = np.zeros((m,) + x.shape[1:])
    if x.size == n:  # both routines read and write C-ordered buffers, whatever their shape
        _sparsetools.csr_matvec(m, n, A.indptr, A.indices, A.data, x, y)
    else:
        _sparsetools.csr_matvecs(m, n, x.shape[1], A.indptr, A.indices, A.data, x, y)
    return y


def _local_argmin(instance: ProblemInstance, a: np.ndarray) -> np.ndarray:
    """Every agent's local minimizer at the stacked pressure ``a``, of shape
    (n,), or at p pressures given as the rows of a (p, n) array; the result
    has the shape of ``a``.  Diagonal costs take one clip, its (n,)
    constants broadcast along the rows; the dense agents take one
    ``solve_local`` call over all p pressures, as the instance's dense stack
    repeated p times over the pressures laid end to end, which gives every
    row the bits of its own solve."""
    st = instance.dense_stack
    cols, diag = instance.diag_columns
    c, lo, hi = instance.c_vec, instance.lo_vec, instance.hi_vec
    if st is None:
        # np.clip's exact twin (signed zeros, NaN, inf) at half its call cost
        return np.minimum(np.maximum(-(c + a) / diag, lo), hi)
    u = np.empty(a.shape)
    rep = st.repeat(a.size // len(c), len(c))
    u.ravel()[rep.cols] = solve_local(rep, a.ravel()[rep.cols])
    if len(cols):
        u[..., cols] = np.minimum(np.maximum(-(c[cols] + a[..., cols]) / diag, lo[cols]),
                                  hi[cols])
    return u


def _vector(x, size: int, name: str) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (size,):
        raise ValidationError(f"{name} has shape {x.shape}, expected ({size},)")
    return x


def eval_dual(instance: ProblemInstance, lam: np.ndarray,
              u: np.ndarray | None = None) -> DualEval:
    """Dual value, dual gradient and local minimizers at a shared multiplier.

    The gradient block of agent i is its coupling residual
    G_i^i u_i + sum_j G_i^j u_j - g_i at the jointly re-solved u(lam).
    A given ``u`` is taken as those minimizers, not solved again: the
    run's logging pass solves a block of multipliers in one call.
    """
    lam = _vector(lam, instance.m_total, "lam")
    a = _matvec(instance.coupling_csr_T, lam)
    u = _local_argmin(instance, a) if u is None else _vector(u, instance.n_total, "u")
    q = primal_cost(instance, u) - float(np.dot(lam, instance.g_vec)) + float(np.dot(a, u))
    grad = _matvec(instance.coupling_csr, u) - instance.g_vec
    return DualEval(q=q, grad=grad, u=u)


@dataclass
class RunTrace:
    """Per-iteration log of one run.

    ``lam[k-1]`` is the stacked multiplier after iteration k; ``q`` and
    ``residual`` are evaluated at that shared multiplier.  ``stop`` says
    why the run ended: ``"converged"`` (the stop test passed),
    ``"budget"`` (``max_iters`` ran out) or ``"nonfinite"`` (iteration
    ``iters + 1`` made a multiplier or its interpolant inf or NaN; that
    iteration is not recorded).  ``gap`` and
    ``V`` are populated only when the run was given the optimal
    multiplier; ``updates[k-1, p]`` says whether agent p (ascending id)
    took its gradient step at iteration k.  A column of a ``run_batch``
    is not logged: it leaves ``q``, ``residual``, ``lam`` and ``u_final``
    as None.
    """

    algo: str
    instance: ProblemInstance = field(repr=False)
    eta: np.ndarray
    alpha: np.ndarray
    eps: float
    stop: str
    iters: int
    theta: np.ndarray
    q: np.ndarray | None
    residual: np.ndarray | None
    updates: np.ndarray
    lam: np.ndarray | None
    gap: np.ndarray | None = None
    V: np.ndarray | None = None
    q_star: float | None = None
    lambda_star: np.ndarray | None = None
    u_final: np.ndarray | None = None

    @property
    def converged(self) -> bool:
        return self.stop == "converged"

    def lam_at(self, k: int) -> np.ndarray:
        """lam(k) for 0 <= k <= iters, with lam(0) = 0."""
        if self.lam is None:
            raise ValueError("the run did not record its multipliers")
        k = _int(k, "k")
        if not 0 <= k <= self.iters:
            raise ValueError(f"lam_at needs 0 <= k <= {self.iters}, got {k}")
        if k == 0:
            return np.zeros(self.instance.m_total)
        return self.lam[k - 1]

    def theta_at(self, k: int) -> float:
        """theta(k) for 1 <= k <= iters."""
        k = _int(k, "k")
        if not 1 <= k <= self.iters:
            raise ValueError(f"theta_at needs 1 <= k <= {self.iters}, got {k}")
        return float(self.theta[k - 1])

    def omega(self, k: int) -> np.ndarray:
        """Stacked momentum-corrected distance theta(k) lam(k) - (theta(k)-1) lam(k-1) - lam*,
        for 1 <= k <= iters, at the run's own optimal multiplier."""
        if self.lambda_star is None:
            raise ValueError("omega needs the optimal multiplier")
        th = self.theta_at(k)
        return th * self.lam_at(k) - (th - 1.0) * self.lam_at(k - 1) - self.lambda_star

    def to_csv(self, path) -> None:
        """Write ``k,q,residual,gap,V,updates`` rows; floats via repr."""
        if self.q is None:
            raise ValueError("the run did not log q and residual (a column of a run_batch)")
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

    Contribution rows: for each agent i with m_i > 0, the blocks
    G_i^i u_i, then G_i^j u_j for j in N_i ascending.  Every row names
    the link slot that carries it: a link of the network, or the last
    slot, which is always up and carries an agent's own block.
    """

    C: sp.csr_array           # contributions x n_total: one G_i^j block per row block
    S: sp.csr_array           # m_total x contributions: sums each owner's blocks, own first
    c_link: np.ndarray        # contribution row -> link slot
    row_agent: np.ndarray     # lam row -> owner position
    in_link: np.ndarray       # in-edge -> link slot, owner after owner
    in_owner: np.ndarray      # position of every agent with in-edges
    in_start: np.ndarray      # its first in-edge
    starts: np.ndarray        # first lam row of every agent with m_i > 0
    n_links: int


def _plan(instance: ProblemInstance, network: NetworkModel) -> _Plan:
    n_links = len(network.edges)

    def link(i, j):
        return n_links if i == j else network.edge_index[_edge_key(i, j)]

    graph = instance.graph
    C_blocks, S_blocks = [], []
    c_link, in_link, in_owner, in_start = [], [], [], []
    r = 0
    for p, a in enumerate(instance.agents):
        i = a.id
        if a.m:
            eye = np.eye(a.m)
            for j in (i,) + graph.in_neighbors[i]:
                C_blocks.append((r, instance.u_slice(j).start, a.blocks[j]))
                S_blocks.append((instance.lam_slice(i).start, r, eye))
                c_link += [link(i, j)] * a.m
                r += a.m
        if graph.in_neighbors[i]:
            in_owner.append(p)
            in_start.append(len(in_link))
            in_link += [link(i, j) for j in graph.in_neighbors[i]]

    def idx(v):
        return np.array(v, dtype=np.intp)

    return _Plan(
        C=blocks_to_csr((r, instance.n_total), C_blocks),
        S=blocks_to_csr((instance.m_total, r), S_blocks),
        c_link=idx(c_link),
        row_agent=np.repeat(np.arange(len(instance.agents)), [a.m for a in instance.agents]),
        in_link=idx(in_link), in_owner=idx(in_owner), in_start=idx(in_start),
        starts=idx([instance.lam_slice(a.id).start for a in instance.agents if a.m]),
        n_links=n_links,
    )


def _link_block(plan: _Plan, networks, ks: range, n_agents: int):
    """Link states of iterations ``ks`` for every replicate column (one per
    network, drawn in one pass), as the up flag of every contribution row
    and whether each agent's in-links are all up: (rows, len(ks), columns)
    and (agents, len(ks), columns).  Row-major gathers (``take`` along the
    first axis) copy whole runs of iterations, several times faster than
    gathering the middle axis."""
    up = np.ones((plan.n_links + 1, len(ks), len(networks)), dtype=bool)
    up[:-1] = activation_matrix(networks, ks).reshape(len(ks), len(networks), plan.n_links) \
        .transpose(2, 0, 1)
    fired = np.ones((n_agents, len(ks), len(networks)), dtype=bool)
    fired[plan.in_owner] = np.logical_and.reduceat(up.take(plan.in_link, axis=0),
                                                   plan.in_start, axis=0)
    return up.take(plan.c_link, axis=0), fired


def _stop_threshold(eps: float) -> float:
    """The smallest double T >= 0 with sqrt(T) >= eps.  sqrt is correctly
    rounded and monotone, so for every x >= 0, sqrt(x) < eps exactly when x < T."""
    t = eps * eps
    while math.sqrt(t) < eps:
        t = math.nextafter(t, math.inf)
    while t > 0.0 and math.sqrt(math.nextafter(t, 0.0)) >= eps:
        t = math.nextafter(t, 0.0)
    return t


def _checked_inputs(instance, stepsizes, networks, max_iters, eps, lambda_star):
    """Validate a run's step table, networks (each built over the
    instance's links), budget, tolerance and optional optimal multiplier
    at the API boundary."""
    ids = set(instance.ids)
    if stepsizes.eta.keys() != ids:
        raise ValidationError("the step table's agent ids are not the instance's")
    edges = links(instance)
    for net in networks:
        if not (isinstance(net, NetworkModel) and net.edges == edges
                and net.alpha.keys() == ids):
            raise ValidationError(f"{type(net).__name__} is not a NetworkModel built "
                                  "over the instance's links")
    max_iters = _int(max_iters, "max_iters")
    if max_iters < 0:
        raise ValidationError(f"max_iters must be >= 0, got {max_iters!r}")
    eps = _real(eps, "eps")
    if not (math.isfinite(eps) and eps >= 0.0):
        raise ValidationError(f"eps must be finite and >= 0, got {eps!r}")
    if lambda_star is not None:
        lambda_star = _field(lambda_star, "lambda_star", (instance.m_total,))
    return max_iters, eps, lambda_star


def _run(instance, stepsizes, networks, max_iters, eps, lambda_star, algo, log):
    """The one iteration loop over a block of replicate columns, one per
    network, with momentum unless ``algo`` is "unaccel"; one trace per
    column, labelled ``algo``.  Only a lone driver's one-column run is
    logged (``log``), in one pass after the loop."""
    max_iters, eps, lambda_star = _checked_inputs(instance, stepsizes, networks, max_iters,
                                                  eps, lambda_star)
    accelerate = algo != "unaccel"
    plan = _plan(instance, networks[0])
    n_agents = len(instance.agents)
    eta_arr = np.array([stepsizes.eta[i] for i in instance.ids])
    alphas = [np.array([net.alpha[i] for i in instance.ids]) for net in networks]
    q_star = None
    if lambda_star is not None:
        q_star = eval_dual(instance, lambda_star).q
        v_weight = 1.0 / (2.0 * (alphas[0] * eta_arr)[plan.row_agent])
    g, eta_rows = instance.g_vec[:, None], eta_arr[plan.row_agent][:, None]  # over columns
    A_T = instance.coupling_csr_T
    n_blocks = len(plan.starts)
    T = _stop_threshold(eps)

    lam = np.zeros((instance.m_total, len(networks)))
    hat = lam                                          # interpolated multipliers
    recv = np.zeros((plan.C.shape[0], len(networks)))  # cached contributions, zero until received
    theta, log_lam, log_upd, log_theta = 1.0, [], [], []
    zero = np.zeros(lam.size)
    live, nets = np.arange(len(networks)), networks    # the running columns
    stops, ends = ["budget"] * len(networks), [max_iters] * len(networks)

    for k in range(1, max_iters + 1):
        b = (k - 1) % LINK_BLOCK
        if b == 0:
            ks = range(k, min(k + LINK_BLOCK, max_iters + 1))
            c_up, fired_blk = _link_block(plan, nets, ks, n_agents)
            row_held = ~fired_blk.take(plan.row_agent, axis=0)
            log_upd.append((fired_blk, live))  # cut to iters at the end
        # local solves at the interpolated multipliers
        u = _local_argmin(instance, _matvec(A_T, hat).T).T
        # primal exchange: a contribution is refreshed only over a link that
        # is up (in place: recv is this loop's own array)
        np.copyto(recv, _matvec(plan.C, u), where=c_up[:, b])
        s = _matvec(plan.S, recv)
        s -= g
        # gradient step, held unless every in-neighbor link is up
        lam_new = eta_rows * s
        lam_new += hat
        np.copyto(lam_new, hat, where=row_held[:, b])
        # momentum interpolation (every tracker copy of lam_j equals lam_j):
        # hat = lam_new + coef (lam_new - lam), with fewer temporaries
        theta_new = theta_next(theta) if accelerate else 1.0
        coef = (theta - 1.0) / theta_new
        hat = lam_new - lam
        hat *= coef
        hat += lam_new
        log_theta.append(theta)  # cut to iters at the end
        if log:
            log_lam.append(lam_new)  # likewise
        # a column stops once each agent's residual from its cached blocks is
        # below eps (NaN never is): sqrt(x) < eps exactly when x < T, and a
        # block's sum of squares is never below its largest term, so the
        # columns' largest terms decide first.  One scalar probe, no array,
        # finds a non-finite hat: 0 * inf and 0 * nan are nan, so the probe
        # is 0 exactly when every column's hat (and lam_new) is finite
        ss = s * s
        if (n_blocks == 0 or np.fmin.reduce(np.maximum.reduce(ss)) < T
                or not hat.reshape(-1).dot(zero) == 0.0):
            bad = ~np.isfinite(hat).all(axis=0)   # ends at k - 1, unlogged
            ok = ~bad
            if n_blocks:  # each column's block sums are its lone sums bit for bit
                ok &= (np.add.reduceat(ss, plan.starts) < T).all(axis=0)
            out = bad | ok
            if out.any():
                for j, nonfinite in zip(live[out], bad[out]):
                    stops[j], ends[j] = ("nonfinite", k - 1) if nonfinite else ("converged", k)
                if out.all():
                    break
                keep = ~out
                live, nets = live[keep], [networks[j] for j in live[keep]]
                lam_new, hat, recv = lam_new[:, keep], hat[:, keep], recv[:, keep]
                c_up, row_held = c_up[..., keep], row_held[..., keep]
                zero = zero[:hat.size]
        lam, theta = lam_new, theta_new

    # every column's update flags, column after column, in one array: each
    # link block's flags go to the rows of its live columns in one assignment
    lengths = np.array(ends, dtype=np.intp)
    first = np.cumsum(lengths) - lengths
    updates = np.empty((int(lengths.sum()), n_agents), dtype=bool)
    k0 = 0
    for f, at in log_upd:
        t = np.arange(f.shape[1])
        within = t < (lengths[at] - k0)[:, None]
        updates[((first[at] + k0)[:, None] + t)[within]] = f.transpose(2, 1, 0)[within]
        k0 += f.shape[1]
    thetas = np.array(log_theta)
    logged = dict(q=None, residual=None, lam=None)
    if log:  # a lone run: the dual at lam(1..iters), a block of iterations at a time
        iters, m = ends[0], instance.m_total
        lam_log = np.array(log_lam[:iters]).reshape(iters, m)
        del log_lam  # lam_log is the trace's; the blocks below add little to the peak
        q, res, V, ev, prev = [], [], [], None, np.zeros(m)
        for k0 in range(0, iters, LINK_BLOCK):  # the last block padded with lam(iters)
            blk = lam_log[np.minimum(np.arange(k0, k0 + LINK_BLOCK), iters - 1)]
            us = _local_argmin(instance, _matvec(A_T, np.ascontiguousarray(blk.T)).T)
            for th, lam_k, u_k in zip(thetas[k0:iters], blk, us):
                # a diagonal-cost block's rows are strided, and np.dot sums a
                # strided vector in another order than a contiguous one
                ev = eval_dual(instance, lam_k, u=u_k.copy())
                q.append(ev.q)
                # what np.linalg.norm computes for a 1-D float vector, without its dispatch
                res.append(math.sqrt(ev.grad.dot(ev.grad)))
                if lambda_star is not None:
                    omega = th * lam_k - (th - 1.0) * prev - lambda_star
                    V.append(np.dot(omega * omega, v_weight))
                prev = lam_k
        logged = dict(q=np.array(q), residual=np.array(res), lam=lam_log,
                      u_final=None if ev is None else ev.u)
        if lambda_star is not None:
            logged.update(gap=q_star - logged["q"], V=np.array(V))

    def trace(j):
        stop, iters = stops[j], ends[j]
        return RunTrace(
            algo=algo, instance=instance, eta=eta_arr, alpha=alphas[j],
            eps=eps, stop=stop, iters=iters, theta=thetas[:iters].copy(),
            updates=updates[first[j]:first[j] + iters], q_star=q_star,
            lambda_star=lambda_star, **logged,
        )

    return [trace(j) for j in range(len(networks))]


def run_alg1(instance: ProblemInstance, stepsizes: StepsizeTable, max_iters: int,
             eps: float = DEFAULT_EPS, *, lambda_star: np.ndarray | None = None) -> RunTrace:
    """Full-information accelerated dual ascent: the kernel on a network
    whose links are always up (gamma 0), which is ``run_alg2`` on that
    network bit for bit, with every ``alpha`` 1.

    Stops at the first iteration where every agent's own residual norm
    (at that iteration's local solutions) drops below ``eps``.
    Non-convergence within ``max_iters``, or a multiplier that overflows
    to inf or NaN, is reported on the trace (``stop``), not raised.
    """
    return _run(instance, stepsizes, [build_network(instance, 0.0)], max_iters, eps,
                lambda_star, "alg1", True)[0]


def run_alg2(instance: ProblemInstance, stepsizes: StepsizeTable, network: NetworkModel,
             max_iters: int, eps: float = DEFAULT_EPS, *,
             lambda_star: np.ndarray | None = None) -> RunTrace:
    """Tracker-based accelerated dual ascent over an unreliable network.

    Stopping uses each agent's most recently received neighbor
    contributions (zero before anything arrives over a link); the trace
    additionally records the true residual at the shared multiplier.
    """
    return _run(instance, stepsizes, [network], max_iters, eps, lambda_star, "alg2", True)[0]


def run_batch(instance: ProblemInstance, stepsizes: StepsizeTable,
              networks: list[NetworkModel], max_iters: int,
              eps: float = DEFAULT_EPS) -> list[RunTrace]:
    """``run_alg2`` once per network, as the replicate columns of one kernel pass.

    Every network must be built over the instance's links (say, the
    instance at several seeds).  Each returned trace's ``iters``, ``stop``,
    ``theta`` and ``updates`` are those of the lone run bit for bit; the
    runs are not logged (``q``, ``residual``, ``lam`` and ``u_final`` are
    None), whatever the number of networks.
    """
    if isinstance(networks, NetworkModel):
        raise ValidationError("run_batch takes a list of networks, not one NetworkModel")
    networks = list(networks)
    if not networks:
        raise ValidationError("run_batch needs at least one network")
    return _run(instance, stepsizes, networks, max_iters, eps, None, "alg2", False)


def run_unaccelerated(instance: ProblemInstance, stepsizes: StepsizeTable,
                      network: NetworkModel, max_iters: int, eps: float = DEFAULT_EPS, *,
                      lambda_star: np.ndarray | None = None) -> RunTrace:
    """Momentum-free baseline: theta pinned to 1, so the interpolant is lam itself."""
    return _run(instance, stepsizes, [network], max_iters, eps, lambda_star, "unaccel",
                True)[0]


def check_lyapunov_step(trace: RunTrace, k: int) -> bool:
    """One-step decrease certificate of the scaled distance sequence.

    Verifies, at iteration k of a full-information run,

        sum_i (||omega_i(k+1)||^2 - ||omega_i(k)||^2) / (2 eta_i)
            <= theta(k)^2 (q* - q(lam(k))) - theta(k+1)^2 (q* - q(lam(k+1)))

    with slack 1e-9 (1 + |q*|), at the run's own optimal multiplier.
    Requires 1 <= k < trace.iters.
    """
    k = _int(k, "k")
    if not (1 <= k < trace.iters):
        raise ValueError(f"need 1 <= k < {trace.iters}, got {k}")
    inst = trace.instance
    if trace.lambda_star is None:
        raise ValueError("check_lyapunov_step needs the optimal multiplier")
    q_star = trace.q_star
    w_k = trace.omega(k)
    w_k1 = trace.omega(k + 1)
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
                          xi: np.ndarray, mu: np.ndarray) -> bool:
    """Lower bound on the progress of one proximal gradient step.

    With lam(xi) = xi + diag(eta) grad q(xi) blockwise, verifies

        q(lam(xi)) - q(mu) >= sum_i <xi_i - mu_i, lam_i(xi) - xi_i> / eta_i
                              + sum_i ||lam_i(xi) - xi_i||^2 / (2 eta_i)

    within ``MODEL_SLACK`` for arbitrary multipliers xi, mu.
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
    return q_lam - q_mu >= rhs - MODEL_SLACK
