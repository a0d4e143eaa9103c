"""Solver loops: momentum sequence, dual evaluation, both algorithms, checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CASES
from dualdec import (ValidationError, build_network, build_opf_instance, build_stepsizes,
                     check_lyapunov_step, check_quadratic_model, draw_links, eval_dual,
                     load_case, load_instance, neighbors_active, random_instance, run_alg1,
                     run_alg2, run_unaccelerated, solve_kkt, solve_local, theta_next)
from dualdec.engine import TRACE_HEADER, eval_dual_batch
from dualdec.stepsize import StepsizeTable

CHAIN = load_instance(CASES / "chain3.json")
CHAIN_TAB = build_stepsizes(CHAIN)
CHAIN_STAR = solve_kkt(CHAIN)


def corrupt(table: StepsizeTable, factor: float) -> StepsizeTable:
    """Step sizes scaled past the 1/L_i safety bound, dodging validation."""
    return StepsizeTable(sigma=table.sigma, out_norm=table.out_norm, L=table.L,
                         eta={i: factor / table.L[i] for i in table.L},
                         safety=1.0)


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


def test_eval_dual_batch_matches_loop(chain3):
    rng = np.random.default_rng(3)
    lams = rng.normal(size=(3, 32)) * 2  # one multiplier per column
    qs, grads, us = eval_dual_batch(chain3, lams)
    for s in range(32):
        ev = eval_dual(chain3, lams[:, s])
        assert qs[s] == pytest.approx(ev.q, abs=1e-12)
        np.testing.assert_allclose(grads[:, s], ev.grad, atol=1e-12)
        np.testing.assert_allclose(us[:, s], ev.u, atol=1e-12)


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


def test_alg1_warm_start(instance_a):
    tab = build_stepsizes(instance_a)
    tr = run_alg1(instance_a, tab, 50, 1e-8, lam0=np.array([-1.0]))
    assert tr.converged and tr.iters == 1


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
    for k in range(1, 101):
        draw = draw_links(net, k)
        for pos, i in enumerate(CHAIN.ids):
            want = neighbors_active(draw, i, CHAIN.graph.in_neighbors[i])
            assert tr.updates[k - 1, pos] == want


def test_unaccelerated_closed_form(instance_a):
    # eta_1 = 1/4 makes the fixed-point iteration lam -> lam/2 - 1/2,
    # i.e. lam(k) = -1 + 2^-k, exactly representable in binary floats
    tab = build_stepsizes(instance_a, safety=0.5)
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
    Returns the stacked lam history and the per-agent step flags.
    """
    g = inst.graph
    agent = inst.agent
    lam = {i: np.zeros(agent(i).m) for i in inst.ids}
    prev = {i: {j: lam[j].copy() for j in g.out_neighbors[i]} for i in inst.ids}
    hat = {i: {j: lam[j].copy() for j in g.out_neighbors[i]} for i in inst.ids}
    recv = {i: {j: np.zeros(agent(i).m) for j in g.in_neighbors[i]} for i in inst.ids}
    theta, lams, fired = 1.0, [], []
    for k in range(1, iters + 1):
        draw = draw_links(net, k)

        def up(i, j):
            return j == i or neighbors_active(draw, i, [j])

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
        lam, theta = new, theta_new
        lams.append(np.concatenate([lam[i] for i in inst.ids]))
        fired.append(row)
    return np.array(lams), np.array(fired)


@pytest.mark.parametrize("inst", [CHAIN, random_instance(5, seed=0)], ids=["chain3", "rand5"])
def test_alg2_matches_per_agent_reference(inst):
    tab = build_stepsizes(inst)
    net = build_network(inst, 0.3, seed=4)
    tr = run_alg2(inst, tab, net, 200, 0.0)
    lams, fired = reference_alg2(inst, tab, net, 200)
    assert tr.iters == 200 and not fired.all()
    np.testing.assert_allclose(tr.lam, lams, rtol=0, atol=1e-12)
    np.testing.assert_array_equal(tr.updates, fired)


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


def test_nan_lam0_rejected():
    # before validation, an all-NaN start reported convergence at k=1
    with pytest.raises(ValidationError, match="lam0 has non-finite"):
        run_alg1(CHAIN, CHAIN_TAB, 10, 1e-6, lam0=np.full(3, np.nan))
    with pytest.raises(ValidationError, match="lam0 has non-finite"):
        run_unaccelerated(CHAIN, CHAIN_TAB, build_network(CHAIN, 0.2), 10, 1e-6,
                          lam0=np.full(3, np.nan))


def test_wrong_length_lam0_rejected():
    with pytest.raises(ValidationError, match=r"lam0 has shape \(7,\)"):
        run_alg1(CHAIN, CHAIN_TAB, 10, 1e-6, lam0=np.zeros(7))


@pytest.mark.parametrize("bad", [np.zeros(2), np.zeros((3, 1)), np.array([0.0, np.inf, 0.0])])
def test_bad_lambda_star_rejected(bad):
    with pytest.raises(ValidationError, match="lambda_star"):
        run_alg2(CHAIN, CHAIN_TAB, build_network(CHAIN, 0.1), 10, 1e-6, lambda_star=bad)


def test_stop_test_is_nan_safe():
    # steps this large overflow to inf and then NaN by k=3; a NaN residual
    # used to pass the stop test and report convergence at k=4
    bad = corrupt(CHAIN_TAB, 1e308)
    with np.errstate(over="ignore", invalid="ignore"):
        tr = run_alg1(CHAIN, bad, 50, 1e-6)
    assert np.isnan(tr.lam[-1]).all()
    assert not tr.converged and tr.iters == 50


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
