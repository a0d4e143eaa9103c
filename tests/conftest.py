"""Shared fixtures: the bundled case files and a tiny hand-checkable builder."""

import dataclasses
import functools
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from dualdec import OracleSolution, build_stepsizes, load_instance, primal_cost, solve_local
from dualdec.model import AgentSpec, ProblemInstance

CASES = Path(__file__).resolve().parent.parent / "cases"
GRID_PY = CASES.parent / "perfbench" / "grid.py"


def make_pair(hi1: float = 10.0, g: float = 2.0) -> ProblemInstance:
    """Two scalar agents with one shared coupling row  u1 + u2 = g.

    Costs are (1/2) u^2 each, boxes [-10, hi1] x [-10, 10].  With the
    default arguments the minimizer is u = (1, 1) at multiplier -1.
    """
    a1 = AgentSpec(id=1, dim=1, Q=np.empty(0), diag=[1.0], c=[0.0], lo=[-10.0],
                   hi=[hi1], m=1, g=[g], blocks={1: [[1.0]], 2: [[1.0]]})
    a2 = AgentSpec(id=2, dim=1, Q=np.empty(0), diag=[1.0], c=[0.0], lo=[-10.0],
                   hi=[10.0], m=0, g=[], blocks={})
    return ProblemInstance(agents=(a1, a2))


def mixed_twin(inst: ProblemInstance) -> ProblemInstance:
    """``inst`` with the odd ids' costs declared diagonal (their Q's diagonal)."""
    return ProblemInstance(agents=tuple(
        dataclasses.replace(a, diag=np.diag(a.Q)) if a.id % 2 else a for a in inst.agents))


def solve_pgd_reference(agent: AgentSpec, a: np.ndarray, max_iters: int = 100_000,
                        counts: dict | None = None) -> np.ndarray:
    """One dense agent's local solve as a loop of its own: the per-agent
    accelerated projected gradient that the stacked solver replaced.

    ``counts``, when given, receives the inner iterations and restarts.
    """
    tol = 1e-12  # subsolver.FIXED_POINT_TOL
    Q, lo, hi = agent.Q, agent.lo, agent.hi
    b = agent.c + a
    L = agent.eig_max
    x = np.clip(np.linalg.solve(Q, -b), lo, hi)
    y = x
    t = 1.0
    resid = np.inf
    for it in range(max_iters):
        x_new = np.clip(y - (Q @ y + b) / L, lo, hi)
        step = x_new - np.clip(x_new - (Q @ x_new + b) / L, lo, hi)
        resid = float(np.linalg.norm(step))
        if resid <= tol:
            if counts is not None:
                counts["iters"] = counts.get("iters", 0) + it + 1
            return x_new
        t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        if float(np.dot(y - x_new, x_new - x)) > 0.0:
            t_new = 1.0
            y = x_new
            if counts is not None:
                counts["restarts"] = counts.get("restarts", 0) + 1
        else:
            y = x_new + ((t - 1.0) / t_new) * (x_new - x)
        x, t = x_new, t_new
    raise RuntimeError(f"agent {agent.id}: local QP solve stalled at fixed-point residual "
                       f"{resid:.3e} after {max_iters} iterations")


def solve_kkt_dense_reference(instance: ProblemInstance) -> OracleSolution:
    """The dense KKT route the sparse oracle replaced, as an independent check.

    Entries with lo == hi are eliminated and the (n_f + m)^2 KKT matrix,
    built from a dense block-diagonal Q and the dense coupling matrix, is
    solved by numpy.  The free entries must come out strictly inside
    their boxes.
    """
    from scipy.linalg import block_diag

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
    rhs = np.concatenate([-c[free] - Q[np.ix_(free, pinned)] @ u_p, g - A[:, pinned] @ u_p])
    sol = np.linalg.solve(K, rhs)
    assert np.linalg.norm(K @ sol - rhs) <= 1e-8 * (1.0 + np.linalg.norm(rhs))
    u_f, lam = sol[:nf], sol[nf:]
    margin = 1e-9 * (1.0 + np.abs(u_f))
    assert np.all(u_f > lo[free] + margin) and np.all(u_f < hi[free] - margin)
    u = np.empty(instance.n_total)
    u[pinned] = u_p
    u[free] = u_f
    return OracleSolution(u=u, lam=lam, q=primal_cost(instance, u), method="kkt")


def solve_ascent_reference(instance: ProblemInstance, tol: float = 1e-10,
                           max_iters: int = 1_000_000) -> OracleSolution:
    """Box-aware reference by long-run plain projected dual ascent.

    No momentum and deliberately small steps eta_i / 10, run until the
    coupling residual drops below ``tol``: slow but sturdy, and apart
    from both the oracle and the accelerated drivers.  For small
    instances only.
    """
    eta_rows = 0.1 * build_stepsizes(instance).eta_rows(instance)
    A, g = instance.coupling_matrix, instance.g_vec
    c, lo, hi = instance.c_vec, instance.lo_vec, instance.hi_vec
    d = instance.diag_columns[1]
    lam = np.zeros(instance.m_total)
    for _ in range(max_iters):
        a = A.T @ lam
        if instance.dense_stack is None:
            u = np.clip(-(c + a) / d, lo, hi)
        else:
            u = np.empty(instance.n_total)
            for ag in instance.agents:
                sl = instance.u_slice(ag.id)
                u[sl] = solve_local(ag, a[sl])
        res = A @ u - g
        if np.linalg.norm(res) <= tol:
            return OracleSolution(u=u, lam=lam, q=primal_cost(instance, u), method="ascent")
        lam = lam + eta_rows * res
    raise AssertionError(f"dual ascent did not reach tol {tol:.1e} in {max_iters} iterations")


def load_grid_module():
    """perfbench/grid.py, loaded by path."""
    spec = importlib.util.spec_from_file_location("perfbench_grid", GRID_PY)
    grid = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(grid)
    return grid


@functools.cache
def mesh_grid(rows: int = 6, cols: int = 6, h: int = 24) -> ProblemInstance:
    """The benchmark's seeded mesh-grid DC-OPF instance (seed 0), from perfbench/grid.py."""
    from dualdec import build_opf_instance

    return build_opf_instance(load_grid_module().mesh_case(rows, cols, h, seed=0))


@pytest.fixture(scope="session")
def cases_dir() -> Path:
    return CASES


@pytest.fixture()
def instance_a():
    return load_instance(CASES / "instance_a.json")


@pytest.fixture()
def chain3():
    return load_instance(CASES / "chain3.json")
