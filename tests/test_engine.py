"""Solver loops: momentum sequence, dual evaluation, both algorithms, checks."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CASES, mesh_grid, mixed_twin, solve_pgd_reference
from dualdec import (ValidationError, build_network, build_opf_instance, build_stepsizes,
                     check_lyapunov_step, check_quadratic_model, engine, eval_dual, load_case,
                     load_instance, random_instance, run_alg1, run_alg2, run_batch,
                     run_unaccelerated, solve_kkt, solve_local, theta_next)
from dualdec.engine import TRACE_HEADER, _local_argmin, _matvec, _plan, _stop_threshold
from dualdec.model import AgentSpec, AgentStack, ProblemInstance
from dualdec.netsim import activation_matrix
from dualdec.stepsize import StepsizeTable

CHAIN = load_instance(CASES / "chain3.json")
CHAIN_TAB = build_stepsizes(CHAIN)
CHAIN_STAR = solve_kkt(CHAIN)
RAND5 = random_instance(5, seed=0)


def corrupt(table: StepsizeTable, factor: float) -> StepsizeTable:
    """Step sizes factor / L_i; factor > 1 goes past the safe bound 1/L_i."""
    return StepsizeTable(sigma=table.sigma, out_norm=table.out_norm, L=table.L,
                         eta={i: factor / table.L[i] for i in table.L})


# -------------------------------------------------------------- theta


def test_theta_sequence_start():
    th = [1.0]
    for _ in range(5):
        th.append(theta_next(th[-1]))
    assert th[0] == 1.0
    assert th[1] == pytest.approx((1 + np.sqrt(5)) / 2)
    assert all(b > a for a, b in zip(th, th[1:]))


@settings(deadline=None, max_examples=50)
@given(st.floats(1.0, 1e8))
def test_theta_recurrence(theta):
    nxt = theta_next(theta)
    assert nxt ** 2 - nxt == pytest.approx(theta ** 2, rel=1e-12)


def test_theta_rejects_below_one():
    with pytest.raises(ValueError):
        theta_next(0.5)
    # nan < 1.0 is false, so a test written that way let nan through
    with pytest.raises(ValueError, match="theta must be >= 1"):
        theta_next(float("nan"))


def test_theta_growth_floor():
    th = 1.0
    for k in range(1, 10_001):
        assert th >= (k + 1) / 2
        th = theta_next(th)


# ---------------------------------------------------------- dual eval


def test_eval_dual_pair_anchors(instance_a):
    ev = eval_dual(instance_a, np.array([0.0]))
    assert (ev.q, ev.grad[0]) == (0.0, -2.0)
    np.testing.assert_array_equal(ev.u, [0.0, 0.0])
    ev = eval_dual(instance_a, np.array([-1.0]))
    assert (ev.q, ev.grad[0]) == (1.0, 0.0)
    np.testing.assert_array_equal(ev.u, [1.0, 1.0])
    ev = eval_dual(instance_a, np.array([1.0]))
    assert (ev.q, ev.grad[0]) == (-3.0, -4.0)


def test_gradient_matches_central_differences(chain3):
    rng = np.random.default_rng(11)
    h = 1e-6
    for _ in range(20):
        lam = rng.normal(size=3) * 2
        grad = eval_dual(chain3, lam).grad
        fd = np.empty(3)
        for r in range(3):
            e = np.zeros(3)
            e[r] = h
            fd[r] = (eval_dual(chain3, lam + e).q - eval_dual(chain3, lam - e).q) / (2 * h)
        np.testing.assert_allclose(fd, grad, rtol=1e-5, atol=1e-7)


@settings(deadline=None, max_examples=60)
@given(st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3),
       st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3),
       st.floats(0.0, 1.0))
def test_dual_is_concave(lam, mu, t):
    lam, mu = np.array(lam), np.array(mu)
    mid = eval_dual(CHAIN, t * lam + (1 - t) * mu).q
    ends = t * eval_dual(CHAIN, lam).q + (1 - t) * eval_dual(CHAIN, mu).q
    assert mid >= ends - 1e-10


# -------------------------------------------------------- algorithm 1


def test_alg1_pair_exact(instance_a):
    tab = build_stepsizes(instance_a)
    star = solve_kkt(instance_a)
    tr = run_alg1(instance_a, tab, 50, 1e-8, lambda_star=star.lam)
    assert tr.converged and tr.iters == 2
    assert tr.lam[0, 0] == -1.0  # eta_1 = 1/2 lands the first step exactly
    assert tr.algo == "alg1"
    assert tr.q_star == pytest.approx(1.0)
    assert tr.gap[-1] <= 1e-12
    assert tr.updates.all()
    np.testing.assert_array_equal(tr.u_final, [1.0, 1.0])


def test_alg1_chain_converges_to_oracle():
    tr = run_alg1(CHAIN, CHAIN_TAB, 1000, 1e-10, lambda_star=CHAIN_STAR.lam)
    assert tr.converged
    np.testing.assert_allclose(tr.lam[-1], [-0.5, -0.5, -1.0], atol=1e-8)
    np.testing.assert_allclose(tr.u_final, [1.0, 1.0, 1.0], atol=1e-8)
    assert tr.gap[-1] < 1e-15
    assert tr.residual[-1] < 1e-9


def test_alg1_empty_run(instance_a):
    tab = build_stepsizes(instance_a)
    tr = run_alg1(instance_a, tab, 0, 1e-8)
    assert tr.iters == 0 and not tr.converged
    assert tr.lam.shape == (0, 1)


def test_alg1_nonconvergence_reported():
    tr = run_alg1(CHAIN, CHAIN_TAB, 3, 1e-12)
    assert not tr.converged and tr.iters == 3


def test_theta_trace_consistent():
    tr = run_alg1(CHAIN, CHAIN_TAB, 50, 0.0)
    assert tr.theta[0] == 1.0
    for k in range(1, 50):
        assert tr.theta[k] == pytest.approx(theta_next(tr.theta[k - 1]), rel=1e-15)


# -------------------------------------------------------- algorithm 2


def test_alg2_gamma_zero_identical_to_alg1():
    inst = random_instance(5, seed=42)
    tab = build_stepsizes(inst)
    net = build_network(inst, 0.0, seed=0)
    t1 = run_alg1(inst, tab, 200, 0.0)
    t2 = run_alg2(inst, tab, net, 200, 0.0)
    assert np.max(np.abs(t1.lam - t2.lam)) <= 1e-12
    np.testing.assert_array_equal(t1.updates, t2.updates)


ALG1_CASES = ("chain3", "rand5", "dense10", "mixed10", "ieee14", "uncoupled")


@pytest.mark.parametrize("net_seed", [0, 123])
@pytest.mark.parametrize("name", ALG1_CASES)
def test_alg1_is_alg2_on_an_always_up_network(name, net_seed, tmp_path):
    # alg1 runs the kernel on a gamma-0 network; any always-up network,
    # whatever its seed, gives alg2 the same run bit for bit
    inst = {"chain3": CHAIN, "rand5": RAND5, "dense10": DENSE10, "mixed10": MIXED10,
            "ieee14": IEEE14, "uncoupled": UNCOUPLED}[name]
    tab = UNCOUPLED_TAB if name == "uncoupled" else build_stepsizes(inst)
    star = solve_kkt(inst).lam
    t1 = run_alg1(inst, tab, 300, 1e-8, lambda_star=star)
    t2 = run_alg2(inst, tab, build_network(inst, 0.0, seed=net_seed), 300, 1e-8,
                  lambda_star=star)
    assert (t1.algo, t2.algo) == ("alg1", "alg2")
    assert (t1.iters, t1.stop) == (t2.iters, t2.stop)
    assert (t1.alpha == 1.0).all()
    for f in ("theta", "updates", "alpha", "lam", "q", "residual", "gap", "V", "u_final"):
        assert getattr(t1, f).tobytes() == getattr(t2, f).tobytes(), f
    t1.to_csv(tmp_path / "alg1.csv")
    t2.to_csv(tmp_path / "alg2.csv")
    assert (tmp_path / "alg1.csv").read_bytes() == (tmp_path / "alg2.csv").read_bytes()


def test_alg2_pair_seeded_anchor(instance_a):
    tab = build_stepsizes(instance_a)
    star = solve_kkt(instance_a)
    net = build_network(instance_a, 0.5, seed=7)
    tr = run_alg2(instance_a, tab, net, 50, 1e-8, lambda_star=star.lam)
    assert tr.converged and tr.iters == 4
    assert tr.updates[:, 0].tolist() == [True, False, False, True]
    assert tr.updates[:, 1].all()  # agent 2 has no in-links, never blocked
    assert tr.lam[-1, 0] == pytest.approx(-1.0, abs=1e-12)


def test_alg2_lossy_still_converges():
    net = build_network(CHAIN, 0.5, seed=3)
    tr = run_alg2(CHAIN, CHAIN_TAB, net, 5000, 1e-8, lambda_star=CHAIN_STAR.lam)
    assert tr.converged and tr.iters == 332
    assert tr.residual[-1] < 1e-7  # true residual, not just the stale one
    np.testing.assert_allclose(tr.lam[-1], CHAIN_STAR.lam, atol=1e-7)


def test_alg2_deterministic_given_seed():
    net = build_network(CHAIN, 0.3, seed=21)
    a = run_alg2(CHAIN, CHAIN_TAB, net, 300, 0.0)
    b = run_alg2(CHAIN, CHAIN_TAB, net, 300, 0.0)
    np.testing.assert_array_equal(a.lam, b.lam)
    np.testing.assert_array_equal(a.updates, b.updates)
    np.testing.assert_array_equal(a.q, b.q)


def test_alg2_held_update_freezes_omega():
    # an agent that skips its gradient step keeps omega_i unchanged
    net = build_network(CHAIN, 0.4, seed=17)
    tr = run_alg2(CHAIN, CHAIN_TAB, net, 400, 0.0, lambda_star=CHAIN_STAR.lam)
    held = 0
    for k in range(1, tr.iters):
        w_now = tr.omega(k)
        w_next = tr.omega(k + 1)
        for pos, i in enumerate(CHAIN.ids):
            if not tr.updates[k, pos]:  # skipped at iteration k+1
                sl = CHAIN.lam_slice(i)
                np.testing.assert_allclose(w_next[sl], w_now[sl], atol=1e-9)
                held += 1
    assert held > 50  # gamma=0.4 must actually exercise the held branch


def test_update_flags_follow_link_draws():
    net = build_network(CHAIN, 0.5, seed=29)
    tr = run_alg2(CHAIN, CHAIN_TAB, net, 100, 0.0)
    up = activation_matrix([net], range(1, 101))
    for pos, i in enumerate(CHAIN.ids):
        want = np.ones(100, dtype=bool)  # every in-neighbor link is up
        for j in CHAIN.graph.in_neighbors[i]:
            want &= up[:, net.edge_index[(min(i, j), max(i, j))]]
        np.testing.assert_array_equal(tr.updates[:, pos], want)


def test_unaccelerated_closed_form(instance_a):
    # eta_1 = 1/4 makes the fixed-point iteration lam -> lam/2 - 1/2,
    # i.e. lam(k) = -1 + 2^-k, exactly representable in binary floats
    tab = corrupt(build_stepsizes(instance_a), 0.5)
    net = build_network(instance_a, 0.0)
    tr = run_unaccelerated(instance_a, tab, net, 30, 1e-12)
    assert tr.algo == "unaccel"
    np.testing.assert_array_equal(tr.lam[:, 0], -1.0 + 0.5 ** np.arange(1, 31))
    assert (tr.theta == 1.0).all()


def test_unaccelerated_slower_than_accelerated():
    net = build_network(CHAIN, 0.2, seed=1)
    fast = run_alg2(CHAIN, CHAIN_TAB, net, 20_000, 1e-6)
    slow = run_unaccelerated(CHAIN, CHAIN_TAB, net, 20_000, 1e-6)
    assert fast.converged and slow.converged
    assert fast.iters < slow.iters


def reference_alg2(inst, table, net, iters):
    """The tracker protocol agent by agent, from its description.

    Agent i keeps a copy of lam_j and its interpolant for every j in M_i,
    and the last contribution G_i^j u_j received from every j in N_i.
    Returns the stacked lam history and the per-agent step flags.  Checks
    at every iteration that each copy equals its owner's own copy: the
    invariant that lets the kernel keep one copy per multiplier.
    """
    g = inst.graph
    agent = inst.agent
    lam = {i: np.zeros(agent(i).m) for i in inst.ids}
    prev = {i: {j: lam[j].copy() for j in g.out_neighbors[i]} for i in inst.ids}
    hat = {i: {j: lam[j].copy() for j in g.out_neighbors[i]} for i in inst.ids}
    recv = {i: {j: np.zeros(agent(i).m) for j in g.in_neighbors[i]} for i in inst.ids}
    theta, lams, fired = 1.0, [], []
    for k in range(1, iters + 1):
        link_up = activation_matrix([net], [k])[0]

        def up(i, j):
            return j == i or link_up[net.edge_index[(min(i, j), max(i, j))]]

        u = {}
        for i in inst.ids:
            a = np.zeros(agent(i).dim)
            for j in g.out_neighbors[i]:
                if agent(j).m:
                    a = a + agent(j).blocks[i].T @ hat[i][j]
            u[i] = solve_local(agent(i), a)
        new, row = {}, []
        for i in inst.ids:
            ag = agent(i)
            for j in g.in_neighbors[i]:
                if up(i, j):
                    recv[i][j] = ag.blocks[j] @ u[j]
            step = all(up(i, j) for j in g.in_neighbors[i])
            row.append(step)
            if ag.m == 0:
                new[i] = lam[i]
                continue
            s = ag.blocks[i] @ u[i]
            for j in g.in_neighbors[i]:
                s = s + recv[i][j]
            s = s - ag.g
            new[i] = hat[i][i] + table.eta[i] * s if step else hat[i][i]
        theta_new = theta_next(theta)
        coef = (theta - 1.0) / theta_new
        for i in inst.ids:
            for j in g.out_neighbors[i]:
                cur = new[j] if up(i, j) else hat[i][j]
                hat[i][j] = cur + coef * (cur - prev[i][j])
                prev[i][j] = cur
        for i in inst.ids:
            for j in g.out_neighbors[i]:
                assert np.array_equal(hat[i][j], hat[j][j]), (k, i, j)
        lam, theta = new, theta_new
        lams.append(np.concatenate([lam[i] for i in inst.ids]))
        fired.append(row)
    return np.array(lams), np.array(fired)


@pytest.mark.parametrize("inst,gamma", [
    (CHAIN, 0.3), (random_instance(5, seed=0), 0.3),
    (CHAIN, 0.7), (random_instance(5, seed=0), 0.7),
], ids=["chain3", "rand5", "chain3-gamma0.7", "rand5-gamma0.7"])
def test_alg2_matches_per_agent_reference(inst, gamma):
    tab = build_stepsizes(inst)
    net = build_network(inst, gamma, seed=4)
    tr = run_alg2(inst, tab, net, 200, 0.0)
    lams, fired = reference_alg2(inst, tab, net, 200)
    assert tr.iters == 200 and not fired.all()
    np.testing.assert_allclose(tr.lam, lams, rtol=0, atol=1e-12)
    np.testing.assert_array_equal(tr.updates, fired)


def dense_twin(inst):
    """The same instance with every cost declared dense, so no closed form applies."""
    return ProblemInstance(agents=tuple(dataclasses.replace(a, diag=None) for a in inst.agents))


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 8), st.integers(0, 2 ** 32), st.sampled_from(["diag", "dense", "twin"]),
       st.lists(st.floats(0.0, 0.9, exclude_max=True), min_size=3, max_size=3),
       st.integers(0, 2 ** 64 - 1), st.integers(1, 150))
def test_kernel_matches_reference_on_random_instances(n, seed, kind, gammas, net_seed, budget):
    # differential fuzz: one agent (no links) up to eight, diagonal, dense and
    # dense-declared diagonal costs, any failure rate below 0.9 and any seed
    inst = random_instance(n, seed=seed, diagonal=kind != "dense")
    if kind == "twin":
        inst = dense_twin(inst)
    tab = build_stepsizes(inst)
    nets = [build_network(inst, g, seed=(net_seed + d) % 2 ** 64) for d, g in enumerate(gammas)]
    tr = run_alg2(inst, tab, nets[0], budget, 0.0)
    assert tr.stop == "budget" and tr.iters == budget
    lams, fired = reference_alg2(inst, tab, nets[0], budget)
    np.testing.assert_allclose(tr.lam, lams, rtol=0, atol=1e-12)
    np.testing.assert_array_equal(tr.updates, fired)
    # every column of a batch is its lone run; columns may stop at different k
    for col, net in zip(run_batch(inst, tab, nets, budget, 1e-4), nets):
        run = run_alg2(inst, tab, net, budget, 1e-4)
        assert (col.iters, col.stop) == (run.iters, run.stop)
        for f in ("theta", "updates", "alpha"):
            assert getattr(col, f).tobytes() == getattr(run, f).tobytes(), f
    t1 = run_alg1(inst, tab, budget, 1e-4)
    t2 = run_alg2(inst, tab, build_network(inst, 0.0, seed=net_seed), budget, 1e-4)
    assert (t1.iters, t1.stop) == (t2.iters, t2.stop)
    for f in ("theta", "updates", "lam", "q", "residual", "u_final"):
        assert getattr(t1, f).tobytes() == getattr(t2, f).tobytes(), f


IEEE14 = build_opf_instance(load_case(CASES / "ieee14.json"))


@pytest.mark.parametrize("gamma", [0.0, 0.3])
@pytest.mark.parametrize("inst", [CHAIN, random_instance(5, seed=0), IEEE14],
                         ids=["chain3", "rand5", "ieee14"])
def test_local_solve_branches_agree(inst, gamma):
    # the kernel's vectorized clip against its per-agent solve_local branch
    twin = dense_twin(inst)
    assert inst.dense_stack is None and twin.dense_stack is not None
    assert len(twin.diag_columns[0]) == 0
    tab = build_stepsizes(inst)
    a = run_alg2(inst, tab, build_network(inst, gamma, seed=4), 200, 0.0)
    b = run_alg2(twin, tab, build_network(twin, gamma, seed=4), 200, 0.0)
    assert a.iters == b.iters == 200
    np.testing.assert_array_equal(a.updates, b.updates)
    np.testing.assert_allclose(a.lam, b.lam, rtol=0, atol=1e-10)


DENSE10 = random_instance(10, seed=0, diagonal=False)
MIXED10 = mixed_twin(DENSE10)  # clip columns and a dense stack in one instance
# boxes of +-0.9: the oracle takes its active-set route, and a few local
# solves take several projected-gradient steps
BOXED10 = ProblemInstance(agents=tuple(
    dataclasses.replace(a, lo=np.full(a.dim, -0.9), hi=np.full(a.dim, 0.9))
    for a in DENSE10.agents))


def per_agent_argmin(instance, a):
    """Every agent's local minimizer, one agent and one pressure at a time;
    ``a`` is one pressure or p of them as rows, like the kernel's."""
    if a.ndim == 2:
        return np.array([per_agent_argmin(instance, x) for x in a])
    u = np.empty(instance.n_total)
    for ag in instance.agents:
        sl = instance.u_slice(ag.id)
        u[sl] = (np.clip(-(ag.c + a[sl]) / ag.diag, ag.lo, ag.hi) if ag.is_diagonal
                 else solve_pgd_reference(ag, a[sl]))
    return u


def per_agent_cost(instance, u):
    return sum(a.cost(u[instance.u_slice(a.id)]) for a in instance.agents)


@pytest.mark.parametrize("gamma", [0.0, 0.3])
@pytest.mark.parametrize("name", ["mixed10", "dense10", "boxed10"])
def test_stacked_kernel_is_per_agent_solves_bit_for_bit(name, gamma, monkeypatch):
    inst = {"mixed10": MIXED10, "dense10": DENSE10, "boxed10": BOXED10}[name]
    assert len(inst.dense_stack.groups) > 1
    tab = build_stepsizes(inst)
    net = build_network(inst, gamma, seed=4)
    star = solve_kkt(inst).lam
    stacked = run_alg2(inst, tab, net, 150, 0.0, lambda_star=star)
    monkeypatch.setattr(engine, "_local_argmin", per_agent_argmin)
    monkeypatch.setattr(engine, "primal_cost", per_agent_cost)
    alone = run_alg2(inst, tab, net, 150, 0.0, lambda_star=star)
    for f in ("lam", "q", "residual", "gap", "V", "updates", "u_final", "theta"):
        assert getattr(stacked, f).tobytes() == getattr(alone, f).tobytes(), f


@pytest.mark.parametrize("name", ["rand5", "dense10", "mixed10", "chain3"])
def test_eval_dual_at_its_own_u_is_the_same_bits(name):
    inst = {"rand5": random_instance(5, seed=0), "dense10": DENSE10, "mixed10": MIXED10,
            "chain3": CHAIN}[name]
    rng = np.random.default_rng(8)
    for scale in (0.1, 1.0, 10.0):  # the larger pressures pin box coordinates
        lam = rng.normal(size=inst.m_total) * scale
        alone = eval_dual(inst, lam)
        given = eval_dual(inst, lam, u=alone.u)
        assert given.q == alone.q
        assert given.grad.tobytes() == alone.grad.tobytes()
        assert given.u.tobytes() == alone.u.tobytes()
    for bad in (alone.u[:-1], np.append(alone.u, 0.0), alone.u[None]):
        with pytest.raises(ValidationError, match="u has shape"):
            eval_dual(inst, lam, u=bad)


KERNEL_CASES = {"chain3": CHAIN, "rand5": random_instance(5, seed=0), "ieee14": IEEE14,
                "dense10": DENSE10}


@pytest.mark.parametrize("gamma", [0.0, 0.3, 0.5])
@pytest.mark.parametrize("name", KERNEL_CASES)
def test_record_none_matches_full(name, gamma):
    # run_batch's columns skip the logging re-solve, however many there are,
    # and keep the lone run's stop state and steps
    inst = KERNEL_CASES[name]
    tab = build_stepsizes(inst)
    net = build_network(inst, gamma, seed=4)
    full = run_alg2(inst, tab, net, 400, 1e-4)
    [one] = run_batch(inst, tab, [net], 400, 1e-4)
    bare, _ = run_batch(inst, tab, [net, build_network(inst, gamma, seed=5)], 400, 1e-4)
    for tr in (one, bare):
        assert (tr.iters, tr.converged) == (full.iters, full.converged)
        np.testing.assert_array_equal(tr.updates, full.updates)
        np.testing.assert_array_equal(tr.theta, full.theta)
        assert tr.q is tr.residual is tr.lam is tr.u_final is None


def test_unrecorded_trace_has_no_csv(tmp_path):
    tr, _ = run_batch(CHAIN, CHAIN_TAB, [build_network(CHAIN, 0.3, seed=s) for s in (1, 2)], 10)
    with pytest.raises(ValueError, match="did not log"):
        tr.to_csv(tmp_path / "t.csv")
    assert not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize("name", list(KERNEL_CASES) + ["grid6"])
def test_matvec_is_scipy_matvec_bit_for_bit(name):
    # _matvec calls scipy's csr_matvec directly; a later scipy must still agree with A @ x
    inst = mesh_grid() if name == "grid6" else KERNEL_CASES[name]
    plan = _plan(inst, build_network(inst, 0.3, seed=1))
    rng = np.random.default_rng(0)
    for A in (inst.coupling_csr, inst.coupling_csr_T, plan.C, plan.S):
        x = rng.standard_normal(A.shape[1])
        x[::3], x[1::5] = 0.0, -0.0
        for v in (x, np.zeros(A.shape[1]), -np.zeros(A.shape[1])):
            assert _matvec(A, v).tobytes() == (A @ v).tobytes()
        # a block's columns, and a block of one column: each column of the
        # product is that column's _matvec
        X = rng.standard_normal((A.shape[1], 7)) * np.logspace(-8, 8, 7)
        X[::3, 2], X[1::5, 4] = 0.0, -0.0
        for B in (X, X[:, 2:3], X[:, 4:5].copy()):
            Y = _matvec(A, B)
            assert Y.shape == (A.shape[0], B.shape[1])
            for j in range(B.shape[1]):
                assert Y[:, j].tobytes() == _matvec(A, B[:, j].copy()).tobytes()


def test_local_argmin_is_np_clip_bit_for_bit():
    # bounds with signed zeros and equal ends; pressures with signed zeros, NaN, inf, bounds
    lo = np.array([-10.0, -0.0, 0.0, 0.0, 2.0, -1.0, -0.0])
    hi = np.array([10.0, 0.0, 0.0, 1.0, 2.0, -1.0, -0.0])
    inst = ProblemInstance(agents=(AgentSpec(
        id=1, dim=7, Q=np.empty(0), diag=np.ones(7), c=np.zeros(7), lo=lo, hi=hi, m=1,
        g=[0.0], blocks={1: np.ones((1, 7))}),))
    for val in (0.0, -0.0, np.nan, np.inf, -np.inf, 10.0, -10.0, -2.0, 1.0, 1e308, 5e-324):
        a = np.full(7, val)
        want = np.clip(-(inst.c_vec + a) / inst.diag_columns[1], lo, hi)
        assert _local_argmin(inst, a).tobytes() == want.tobytes(), val
        # two pressures as rows: each row clipped on its own
        back = np.clip(-(inst.c_vec + -a) / inst.diag_columns[1], lo, hi)
        got = _local_argmin(inst, np.array((a, -a)))
        assert got.shape == (2, 7), val
        assert got[0].tobytes() == want.tobytes() and got[1].tobytes() == back.tobytes(), val


@pytest.mark.parametrize("name", ["rand5", "dense10", "mixed10"])
def test_local_argmin_rows_are_lone_calls_bit_for_bit(name):
    # p pressures as the rows of a (p, n) block, C-ordered or the
    # Fortran-ordered transpose of an (n, p) block as the kernel passes it
    inst = {"rand5": RAND5, "dense10": DENSE10, "mixed10": MIXED10}[name]
    rng = np.random.default_rng(3)
    for p in (1, 2, 3):
        cols = rng.standard_normal((inst.n_total, p)) * np.logspace(-1, 1, p)
        cols[::4, 0] = -0.0
        for a in (np.ascontiguousarray(cols.T), cols.T):
            u = _local_argmin(inst, a)
            assert u.shape == (p, inst.n_total), (p, a.flags.f_contiguous)
            for r in range(p):
                lone = _local_argmin(inst, a[r].copy())
                assert lone.shape == (inst.n_total,)
                assert u[r].tobytes() == lone.tobytes(), (p, r, a.flags.f_contiguous)


def test_logging_pass_solves_a_block_of_iterations_at_once(monkeypatch):
    # the loop solves the dense stack (three groups on DENSE10) once per
    # iteration; a logged run's pass after the loop solves it once more per
    # 64 logged iterations, repeated 64 times (the last block is padded).
    # Count the agents solved and the calls
    calls, stack_calls = [], []
    orig = engine.solve_local

    def counted(s, p):
        calls.extend(s.ids)
        stack_calls.append(s)
        return orig(s, p)

    monkeypatch.setattr(engine, "solve_local", counted)
    assert len(DENSE10.dense_stack.groups) == 3
    net = build_network(DENSE10, 0.3, seed=1)
    tab = build_stepsizes(DENSE10)
    for driver in (run_unaccelerated, run_alg2):
        tr = driver(DENSE10, tab, net, 20, 0.0)
        assert len(calls) == 10 * (tr.iters + 64) == 840  # one block, padded to 64 rows
        assert len(stack_calls) == tr.iters + 1
        calls.clear()
        stack_calls.clear()
    tr = run_alg2(DENSE10, tab, net, 20_000, 1e-6)  # stopped by eps
    assert tr.converged and tr.iters == 1082
    assert len(calls) == 10 * (tr.iters + 17 * 64) == 21_700
    assert len(stack_calls) == tr.iters + 17  # 16 full blocks and one of 58, padded to 64
    calls.clear()
    stack_calls.clear()
    run_batch(DENSE10, tab, [net, build_network(DENSE10, 0.3, seed=2)], 20, 0.0)
    assert len(calls) == 2 * 10 * 20 and len(stack_calls) == 20


def test_logged_runs_keep_one_repeated_stack(monkeypatch):
    # every block of the logging pass is LINK_BLOCK rows, whatever the run's
    # length, so a dense stack is repeated at one width, built once
    inst = random_instance(10, seed=0, diagonal=False)
    tab, net = build_stepsizes(inst), build_network(inst, 0.3, seed=1)
    lengths = (150, 1082, 20)  # a last block of 22, 58 and 20 rows
    for n in lengths:
        assert run_alg2(inst, tab, net, n, 0.0).iters == n
        assert list(inst.dense_stack._repeats) == [(engine.LINK_BLOCK, inst.n_total)]
    built = []
    orig = AgentStack.__post_init__

    def counted(self):
        built.append(len(self.agents))
        orig(self)

    monkeypatch.setattr(AgentStack, "__post_init__", counted)
    for n in lengths:
        assert run_unaccelerated(inst, tab, net, n, 0.0).iters == n
    assert built == []


@pytest.mark.parametrize("algo", ["alg2", "unaccel"])
@pytest.mark.parametrize("gamma", [0.0, 0.3])
@pytest.mark.parametrize("name", ["rand5", "dense10", "mixed10"])
def test_logging_pass_is_lone_dual_evaluations_bit_for_bit(name, gamma, algo):
    # 150 iterations span three blocks of the pass; each logged value is a
    # 1-D eval_dual at that iteration's multiplier
    inst = {"rand5": RAND5, "dense10": DENSE10, "mixed10": MIXED10}[name]
    tab = build_stepsizes(inst)
    driver = run_alg2 if algo == "alg2" else run_unaccelerated
    star = solve_kkt(inst)
    tr = driver(inst, tab, build_network(inst, gamma, seed=2), 150, 0.0, lambda_star=star.lam)
    assert tr.iters == 150 and tr.lam.shape == (150, inst.m_total)
    weight = 1.0 / (2.0 * np.repeat(tr.alpha * tr.eta, [a.m for a in inst.agents]))
    for k in range(1, tr.iters + 1):
        ev = eval_dual(inst, tr.lam_at(k))
        assert tr.q[k - 1] == ev.q, k
        assert tr.residual[k - 1] == math.sqrt(ev.grad.dot(ev.grad)), k
        assert tr.gap[k - 1] == tr.q_star - ev.q, k
        omega = tr.omega(k)
        assert tr.V[k - 1] == np.dot(omega * omega, weight), k
    assert tr.q_star == eval_dual(inst, star.lam).q
    assert tr.u_final.tobytes() == ev.u.tobytes() and tr.u_final.base is None


# dense10 with perfbench's seed-1 cost shift (its denseq-pgd instance)
DENSEQ = ProblemInstance(agents=tuple(
    dataclasses.replace(a, c=a.c + 0.1 * np.random.default_rng(1).uniform(-1.0, 1.0, a.dim))
    for a in DENSE10.agents))
BATCH_CASES = {"rand5": lambda: RAND5, "chain3": lambda: CHAIN, "denseq": lambda: DENSEQ,
               "mixed10": lambda: MIXED10, "grid6": mesh_grid}
# (case, gamma, step factor or None, max_iters, eps): at gamma 0.1 the budgets
# and tolerances end some columns by convergence and some by the budget (the
# grid's all by the budget); the oversized steps overflow columns to inf at
# different k, and leave some to the budget
BATCH_RUNS = ([(name, gamma, None, iters, eps)
               for name, iters, eps in (("rand5", 500, 1e-6), ("chain3", 80, 1e-6),
                                        ("denseq", 220, 1e-4), ("mixed10", 200, 1e-4),
                                        ("grid6", 60, 1e-2))
               for gamma in (0.1, 0.5, 0.7)]
              + [("chain3", 0.7, 1e306, 400, 1e-6), ("rand5", 0.5, 1e306, 400, 1e-6),
                 ("mixed10", 0.7, 1e305, 400, 1e-6),
                 ("rand5", 0.3, None, 0, 1e-6), ("denseq", 0.3, None, 1, 1e-6)])


@pytest.mark.parametrize("name, gamma, factor, max_iters, eps", BATCH_RUNS,
                         ids=lambda v: repr(v) if isinstance(v, float) else str(v))
def test_batch_columns_are_single_runs_bit_for_bit(name, gamma, factor, max_iters, eps):
    inst = BATCH_CASES[name]()
    tab = build_stepsizes(inst)
    if factor is not None:
        tab = corrupt(tab, factor)
    nets = [build_network(inst, gamma, seed=s) for s in range(7, 27)]
    with np.errstate(over="ignore", invalid="ignore"):
        alone = [run_alg2(inst, tab, net, max_iters, eps) for net in nets]
        for S in (1, 2, 7, 20):
            batch = run_batch(inst, tab, nets[:S], max_iters, eps)
            assert len(batch) == S
            for col, run in zip(batch, alone):
                assert (col.algo, col.iters, col.stop) == (run.algo, run.iters, run.stop)
                for f in ("theta", "updates", "alpha", "eta"):
                    a, b = getattr(col, f), getattr(run, f)
                    assert a.shape == b.shape and a.tobytes() == b.tobytes(), f
                assert col.q is col.residual is col.lam is col.u_final is None
    stops = [run.stop for run in alone]
    if factor is not None:  # columns go non-finite at different k
        assert len({run.iters for run in alone if run.stop == "nonfinite"}) > 1
    elif gamma == 0.1 and name != "grid6":
        assert {"converged", "budget"} <= set(stops), stops


@pytest.mark.parametrize("name, max_iters, eps", [("rand5", 500, 1e-6), ("denseq", 220, 1e-4)])
def test_batch_of_mixed_gammas_is_single_runs_bit_for_bit(name, max_iters, eps):
    # networks of several failure rates, interleaved, as the columns of one block
    inst = BATCH_CASES[name]()
    tab = build_stepsizes(inst)
    nets = [build_network(inst, gamma, seed=s) for s in range(7, 13) for gamma in (0.1, 0.3, 0.5)]
    batch = run_batch(inst, tab, nets, max_iters, eps)
    stops = set()
    for col, net in zip(batch, nets):
        run = run_alg2(inst, tab, net, max_iters, eps)
        assert (col.iters, col.stop) == (run.iters, run.stop)
        for f in ("theta", "updates", "alpha"):
            a, b = getattr(col, f), getattr(run, f)
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), f
        stops.add(col.stop)
    assert stops == {"converged", "budget"}


def test_batch_rejects_networks_of_other_links():
    nets = [build_network(CHAIN, 0.3, seed=1), build_network(RAND5, 0.3, seed=1)]
    with pytest.raises(ValidationError, match="instance's links"):
        run_batch(CHAIN, CHAIN_TAB, nets, 10)
    with pytest.raises(ValidationError, match="at least one network"):
        run_batch(CHAIN, CHAIN_TAB, [], 10)


def test_batch_takes_a_list_of_networks():
    with pytest.raises(ValidationError, match="list of networks, not one NetworkModel"):
        run_batch(CHAIN, CHAIN_TAB, build_network(CHAIN, 0.3, seed=1), 10)


def test_ieee14_iteration_counts_pinned():
    inst = build_opf_instance(load_case(CASES / "ieee14.json"))
    tab = build_stepsizes(inst)
    net = build_network(inst, 0.1, seed=1)
    assert run_alg1(inst, tab, 10_000, 2e-5).iters == 2369
    assert run_alg2(inst, tab, net, 10_000, 2e-5).iters == 3165
    assert run_unaccelerated(inst, tab, net, 10_000, 2e-5).iters == 5364


# ---------------------------------------------------------- run inputs


@pytest.mark.parametrize("eps", [float("nan"), float("inf"), -1e-6])
def test_bad_eps_rejected(eps):
    net = build_network(CHAIN, 0.0)
    with pytest.raises(ValidationError, match="eps"):
        run_alg1(CHAIN, CHAIN_TAB, 10, eps)
    with pytest.raises(ValidationError, match="eps"):
        run_alg2(CHAIN, CHAIN_TAB, net, 10, eps)


def test_negative_max_iters_rejected():
    net = build_network(CHAIN, 0.0)
    for run in (run_alg2, run_unaccelerated):
        with pytest.raises(ValidationError, match="max_iters must be >= 0"):
            run(CHAIN, CHAIN_TAB, net, -5, 1e-6)
        assert run(CHAIN, CHAIN_TAB, net, 0, 1e-6).iters == 0
    with pytest.raises(ValidationError, match="max_iters must be >= 0"):
        run_alg1(CHAIN, CHAIN_TAB, -1, 1e-6)


@pytest.mark.parametrize("max_iters", [10.5, True, "5", None])
def test_max_iters_must_be_an_integer(max_iters):
    net = build_network(CHAIN, 0.3, seed=1)
    for call in (lambda: run_alg1(CHAIN, CHAIN_TAB, max_iters),
                 lambda: run_alg2(CHAIN, CHAIN_TAB, net, max_iters),
                 lambda: run_unaccelerated(CHAIN, CHAIN_TAB, net, max_iters),
                 lambda: run_batch(CHAIN, CHAIN_TAB, [net], max_iters)):
        with pytest.raises(ValidationError, match="max_iters"):
            call()
    assert run_alg1(CHAIN, CHAIN_TAB, np.int64(3)).iters == 3


@pytest.mark.parametrize("eps", ["1e-3", True, None, [1e-3]])
def test_eps_must_be_a_number(eps):
    net = build_network(CHAIN, 0.3, seed=1)
    with pytest.raises(ValidationError, match="eps"):
        run_alg1(CHAIN, CHAIN_TAB, 10, eps)
    with pytest.raises(ValidationError, match="eps"):
        run_batch(CHAIN, CHAIN_TAB, [net], 10, eps)
    assert run_alg1(CHAIN, CHAIN_TAB, 3, np.float32(1e-3)).eps == float(np.float32(1e-3))


RAND6 = random_instance(6, seed=1)


def test_foreign_or_missing_network_rejected():
    # rand6's links include some of rand5's pairs; its network used to end in
    # a raw KeyError, and run_alg2 on no network ran alg1 under the label alg2
    tab = build_stepsizes(RAND5)
    foreign = build_network(RAND6, 0.3, seed=1)
    own = build_network(RAND5, 0.3, seed=1)
    for call in (lambda: run_alg2(RAND5, tab, foreign, 10),
                 lambda: run_unaccelerated(RAND5, tab, foreign, 10),
                 lambda: run_batch(RAND5, tab, [own, foreign], 10),
                 lambda: run_batch(RAND5, tab, [foreign], 10)):
        with pytest.raises(ValidationError, match="instance's links"):
            call()
    for call in (lambda: run_alg2(RAND5, tab, None, 10),
                 lambda: run_unaccelerated(RAND5, tab, None, 10),
                 lambda: run_batch(RAND5, tab, [None], 10),
                 lambda: run_batch(RAND5, tab, [own, None], 10)):
        with pytest.raises(ValidationError, match="NoneType is not a NetworkModel"):
            call()


def test_step_table_of_another_instance_rejected():
    # rand6's table holds every rand5 id, so its steps used to be taken silently
    other = build_stepsizes(RAND6)
    assert set(build_stepsizes(RAND5).eta) < set(other.eta)
    net = build_network(RAND5, 0.3, seed=1)
    for call in (lambda: run_alg1(RAND5, other, 10),
                 lambda: run_alg2(RAND5, other, net, 10),
                 lambda: run_batch(RAND5, other, [net], 10)):
        with pytest.raises(ValidationError, match="step table"):
            call()


@pytest.mark.parametrize("bad", [np.zeros(2), np.zeros((3, 1)), np.array([0.0, np.inf, 0.0])])
def test_bad_lambda_star_rejected(bad):
    with pytest.raises(ValidationError, match="lambda_star"):
        run_alg2(CHAIN, CHAIN_TAB, build_network(CHAIN, 0.1), 10, 1e-6, lambda_star=bad)


def test_stop_test_is_nan_safe():
    # steps this large overflow to inf at k=2 and then to NaN; a NaN residual
    # used to pass the stop test and report convergence at k=4, and a
    # non-finite multiplier now ends the run before that iteration is logged
    bad = corrupt(CHAIN_TAB, 1e308)
    with np.errstate(over="ignore", invalid="ignore"):
        tr = run_alg1(CHAIN, bad, 50, 1e-6)
    assert not tr.converged and tr.stop == "nonfinite" and tr.iters == 1
    assert np.isfinite(tr.lam).all() and tr.updates.shape == (1, 3)


STOP_EPS = [0.0, 5e-324, 1e-300, 1e-12, 1e-6, 1e-4, 0.3, 1e200]


@pytest.mark.parametrize("eps", STOP_EPS)
def test_stop_threshold_is_exact(eps):
    # the kernel tests x < T in place of sqrt(x) < eps; they must agree at
    # T itself, at its neighbours and at the square of eps
    T = _stop_threshold(eps)
    near = [T, math.nextafter(T, 0.0), math.nextafter(T, math.inf), eps * eps, 0.0]
    for x in near + [math.nextafter(x, d) for x in near for d in (0.0, math.inf)]:
        assert (math.sqrt(x) < eps) == (x < T), x
    assert T == 0.0 or math.sqrt(math.nextafter(T, 0.0)) < eps <= math.sqrt(T)


@settings(deadline=None, max_examples=300)
@given(st.floats(0.0, allow_infinity=True), st.sampled_from(STOP_EPS) | st.floats(0.0, 1e300))
def test_stop_threshold_matches_sqrt(x, eps):
    assert (math.sqrt(x) < eps) == (x < _stop_threshold(eps))


UNCOUPLED = ProblemInstance(agents=tuple(
    AgentSpec(id=i, dim=1, Q=np.empty(0), diag=[1.0], c=[1.0], lo=[-1.0], hi=[1.0], m=0, g=[],
              blocks={}) for i in (1, 2)))
UNCOUPLED_TAB = StepsizeTable(sigma={1: 1.0, 2: 1.0}, out_norm={1: 0.0, 2: 0.0},
                              L={1: 0.0, 2: 0.0}, eta={1: 1.0, 2: 1.0})


@pytest.mark.parametrize("eps", [0.0, 1e-6])
def test_uncoupled_instance_converges_at_once(eps):
    # with every m = 0 there is no residual block, so the stop test passes
    # vacuously at k = 1 (and must not reduce an empty array)
    inst, tab = UNCOUPLED, UNCOUPLED_TAB
    net = build_network(inst, 0.3, seed=1)
    for tr in (run_alg1(inst, tab, 10, eps), run_alg2(inst, tab, net, 10, eps),
               run_unaccelerated(inst, tab, net, 10, eps)):
        assert (tr.stop, tr.iters) == ("converged", 1)
        assert tr.updates.tolist() == [[True, True]] and tr.u_final.tolist() == [-1.0, -1.0]


def test_stop_reasons():
    net = build_network(CHAIN, 0.3, seed=1)
    done = run_alg2(CHAIN, CHAIN_TAB, net, 10_000, 1e-6)
    short = run_alg2(CHAIN, CHAIN_TAB, net, 5, 1e-6)
    empty = run_alg2(CHAIN, CHAIN_TAB, net, 0, 1e-6)
    assert (done.stop, done.converged) == ("converged", True) and done.iters < 10_000
    assert (short.stop, short.converged, short.iters) == ("budget", False, 5)
    assert (empty.stop, empty.iters) == ("budget", 0)
    bare, _ = run_batch(CHAIN, CHAIN_TAB, [net, build_network(CHAIN, 0.3, seed=2)],
                        10_000, 1e-6)
    assert (bare.stop, bare.iters) == ("converged", done.iters)


def test_nonfinite_multiplier_ends_a_dense_run_at_once():
    # a local solve at an inf pressure would spin the projected gradient to
    # its 100000-step budget; the run must stop before it gets there
    tab = build_stepsizes(DENSE10)
    net = build_network(DENSE10, 0.2, seed=1)
    with np.errstate(over="ignore", invalid="ignore"):
        for run in (run_alg2, run_unaccelerated):
            tr = run(DENSE10, corrupt(tab, 1e308), net, 50, 1e-6)
            assert tr.stop == "nonfinite" and not tr.converged and tr.iters < 5
            assert np.isfinite(tr.lam).all()


# ------------------------------------------------------------- checks


def test_lyapunov_holds_with_safe_steps():
    tr = run_alg1(CHAIN, CHAIN_TAB, 200, 0.0, lambda_star=CHAIN_STAR.lam)
    assert all(check_lyapunov_step(tr, k) for k in range(1, tr.iters))


def test_lyapunov_detects_oversized_steps():
    bad = corrupt(CHAIN_TAB, 10.0)
    tr = run_alg1(CHAIN, bad, 60, 0.0, lambda_star=CHAIN_STAR.lam)
    assert not all(check_lyapunov_step(tr, k) for k in range(1, tr.iters))


def test_lyapunov_k_range_validated():
    tr = run_alg1(CHAIN, CHAIN_TAB, 10, 0.0, lambda_star=CHAIN_STAR.lam)
    with pytest.raises(ValueError):
        check_lyapunov_step(tr, 0)
    with pytest.raises(ValueError):
        check_lyapunov_step(tr, tr.iters)


@pytest.mark.parametrize("call, msg", [
    (lambda: run_batch(CHAIN, CHAIN_TAB, [build_network(CHAIN, 0.3, seed=s) for s in (1, 2)],
                       5)[0].lam_at(1), "did not record its multipliers"),
    (lambda: check_lyapunov_step(run_alg1(CHAIN, CHAIN_TAB, 5, 0.0), 1),
     "needs the optimal multiplier"),
], ids=["lam-of-a-batch-column", "lyapunov-without-optimum"])
def test_trace_checks_name_what_the_run_lacks(call, msg):
    with pytest.raises(ValueError, match=msg):
        call()


def test_quadratic_model_holds_with_safe_steps():
    rng = np.random.default_rng(0)
    for _ in range(200):
        xi, mu = rng.normal(size=3) * 3, rng.normal(size=3) * 3
        assert check_quadratic_model(CHAIN, CHAIN_TAB, xi, mu)


def test_quadratic_model_detects_oversized_steps():
    bad = corrupt(CHAIN_TAB, 25.0)
    rng = np.random.default_rng(1)
    hits = sum(not check_quadratic_model(CHAIN, bad, rng.normal(size=3) * 3,
                                         rng.normal(size=3) * 3)
               for _ in range(100))
    assert hits > 90


def test_omega_requires_optimum():
    tr = run_alg1(CHAIN, CHAIN_TAB, 5, 0.0)
    with pytest.raises(ValueError, match="optimal multiplier"):
        tr.omega(1)
    np.testing.assert_array_equal(tr.lam_at(0), np.zeros(3))


RAND5_RUN = run_alg1(RAND5, build_stepsizes(RAND5), 5, 0.0, lambda_star=solve_kkt(RAND5).lam)


@pytest.mark.parametrize("call, k", [
    ("lam_at", -1), ("lam_at", 6), ("theta_at", 0), ("theta_at", 6), ("omega", 0), ("omega", 6),
])
def test_trace_index_outside_the_run_rejected(call, k):
    # these used to wrap around: theta_at(0) gave the last theta, lam_at(-1) lam[-2]
    tr = RAND5_RUN
    assert tr.iters == 5
    with pytest.raises(ValueError, match=f"<= k <= 5, got {k}"):
        getattr(tr, call)(k)
    np.testing.assert_array_equal(tr.lam_at(5), tr.lam[4])
    assert tr.theta_at(1) == 1.0 and tr.omega(5).shape == (RAND5.m_total,)
    # a numpy integer is an index too
    i = np.int64(2)
    assert tr.lam_at(i).tobytes() == tr.lam_at(2).tobytes() and tr.theta_at(i) == tr.theta_at(2)
    assert tr.omega(i).tobytes() == tr.omega(2).tobytes()
    assert check_lyapunov_step(tr, i) == check_lyapunov_step(tr, 2)


@pytest.mark.parametrize("k", [True, 2.0, 1.5, np.float64(2.0), "2"],
                         ids=["bool", "float", "fraction", "np-float", "str"])
@pytest.mark.parametrize("call", ["lam_at", "theta_at", "omega", "lyapunov"])
def test_trace_index_must_be_an_integer(call, k):
    # True used to index as a numpy mask (lam_at(True) read k = 1, and
    # check_lyapunov_step returned an array); a float raised a raw IndexError
    tr = RAND5_RUN
    get = (lambda k: check_lyapunov_step(tr, k)) if call == "lyapunov" else getattr(tr, call)
    with pytest.raises(ValidationError, match="is not an integer"):
        get(k)


# ---------------------------------------------------------- trace CSV


def test_trace_csv_format(tmp_path):
    net = build_network(CHAIN, 0.3, seed=2)
    tr = run_alg2(CHAIN, CHAIN_TAB, net, 20, 0.0, lambda_star=CHAIN_STAR.lam)
    p = tmp_path / "trace.csv"
    tr.to_csv(p)
    lines = p.read_text().splitlines()
    assert lines[0] == TRACE_HEADER == "k,q,residual,gap,V,updates"
    assert len(lines) == 21
    k, q, res, gap, V, upd = lines[3].split(",")
    assert int(k) == 3
    assert float(q) == tr.q[2]          # repr round-trips exactly
    assert float(res) == tr.residual[2]
    assert float(gap) == tr.gap[2]
    assert float(V) == tr.V[2]
    assert len(upd) == 3 and set(upd) <= {"0", "1"}
    assert upd == "".join("1" if b else "0" for b in tr.updates[2])


def test_trace_csv_without_optimum_leaves_gaps_blank(tmp_path):
    tr = run_alg1(CHAIN, CHAIN_TAB, 5, 0.0)
    p = tmp_path / "trace.csv"
    tr.to_csv(p)
    row = p.read_text().splitlines()[1].split(",")
    assert row[3] == "" and row[4] == ""


def test_trace_csv_empty_run(tmp_path):
    tr = run_alg1(CHAIN, CHAIN_TAB, 0, 1e-6)
    p = tmp_path / "empty.csv"
    tr.to_csv(p)
    assert p.read_text() == TRACE_HEADER + "\n"
