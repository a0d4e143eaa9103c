"""Local box-constrained QP solves: closed form and accelerated PGD."""

import dataclasses
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import mixed_twin, solve_pgd_reference
from dualdec import ValidationError, eval_dual, primal_cost, random_instance, solve_local
from dualdec import subsolver
from dualdec.model import AgentSpec, AgentStack, ProblemInstance
from dualdec.subsolver import _lapack_solve

RNG = np.random.default_rng(1234)


def diag_agent(diag, c, lo, hi, **kw):
    n = len(diag)
    kw.setdefault("m", 0)
    kw.setdefault("g", [])
    kw.setdefault("blocks", {})
    return AgentSpec(id=1, dim=n, Q=np.empty(0), diag=diag, c=c, lo=lo, hi=hi, **kw)


def dense_agent(Q, c, lo, hi):
    return AgentSpec(id=1, dim=len(c), Q=np.asarray(Q, float), c=c, lo=lo, hi=hi,
                     m=0, g=[], blocks={})


def local_objective(agent, a, u):
    return agent.cost(u) + float(np.dot(a, u))


@pytest.mark.parametrize("agent, a, msg", [
    (diag_agent([1.0, 2.0], [0.0, 0.0], [-1.0, -1.0], [1.0, 1.0]), np.zeros(3),
     r"a has shape \(3,\), expected \(2,\)"),
    (random_instance(4, seed=0, diagonal=False).dense_stack, np.zeros(2),
     r"a has shape \(2,\), expected \(\d+,\)"),
], ids=["one-agent", "stack"])
def test_pressure_of_the_wrong_shape_rejected(agent, a, msg):
    with pytest.raises(ValueError, match=msg):
        solve_local(agent, a)


def test_closed_form_matches_hand_values():
    ag = diag_agent([1.0], [0.0], [-10.0], [10.0])
    assert solve_local(ag, np.array([-1.0]))[0] == 1.0
    assert solve_local(ag, np.array([3.0]))[0] == -3.0
    assert solve_local(ag, np.array([100.0]))[0] == -10.0  # clipped at lo
    assert solve_local(ag, np.array([-100.0]))[0] == 10.0  # clipped at hi


def test_closed_form_general_diagonal():
    ag = diag_agent([2.0, 4.0], [1.0, -2.0], [-1.0, -1.0], [1.0, 1.0])
    u = solve_local(ag, np.array([0.5, 0.0]))
    np.testing.assert_allclose(u, [-0.75, 0.5])


def test_pgd_equals_closed_form():
    d = [2.0, 0.5, 1.0]
    ag = diag_agent(d, [0.3, -1.0, 2.0], [-2.0, -2.0, -2.0], [2.0, 2.0, 2.0])
    # the same cost declared dense takes the projected-gradient path
    twin = dense_agent(np.diag(d), ag.c, ag.lo, ag.hi)
    assert ag.is_diagonal and not twin.is_diagonal
    for trial in range(50):
        a = RNG.normal(size=3) * 3
        u_closed = solve_local(ag, a)
        u_pgd = solve_local(twin, a)
        np.testing.assert_allclose(u_pgd, u_closed, atol=1e-9)


def test_dense_optimality_condition():
    # fixed point of the projected gradient map certifies the minimizer
    Q = np.array([[3.0, 1.0, 0.0], [1.0, 2.0, 0.5], [0.0, 0.5, 1.5]])
    ag = dense_agent(Q, [0.5, -1.0, 0.0], [-1.0] * 3, [1.0] * 3)
    step = 1.0 / np.linalg.norm(Q, 2)
    for trial in range(200):
        a = RNG.normal(size=3) * 2
        u = solve_local(ag, a)
        fp = np.clip(u - step * (Q @ u + ag.c + a), ag.lo, ag.hi)
        np.testing.assert_allclose(fp, u, atol=1e-10)


def test_dense_beats_random_feasible_points():
    Q = np.array([[2.0, 0.8], [0.8, 1.0]])
    ag = dense_agent(Q, [0.0, 0.3], [-1.0, -1.0], [1.0, 1.0])
    a = np.array([0.7, -0.2])
    u = solve_local(ag, a)
    best = local_objective(ag, a, u)
    pts = RNG.uniform(-1.0, 1.0, size=(1000, 2))
    vals = 0.5 * np.einsum("ki,ij,kj->k", pts, Q, pts) + pts @ (ag.c + a)
    assert best <= vals.min() + 1e-12


def test_dense_matches_grid_bruteforce():
    Q = np.array([[1.5, -0.4], [-0.4, 1.0]])
    ag = dense_agent(Q, [0.2, -0.5], [-1.0, -1.0], [1.0, 1.0])
    a = np.array([-0.9, 0.1])
    grid = np.linspace(-1.0, 1.0, 401)
    X, Y = np.meshgrid(grid, grid, indexing="ij")
    pts = np.stack([X.ravel(), Y.ravel()], axis=1)
    vals = 0.5 * np.einsum("ki,ij,kj->k", pts, Q, pts) + pts @ (ag.c + a)
    u_grid = pts[vals.argmin()]
    u = solve_local(ag, a)
    np.testing.assert_allclose(u, u_grid, atol=2 * (grid[1] - grid[0]))


@settings(deadline=None, max_examples=60)
@given(st.lists(st.floats(-4.0, 4.0), min_size=2, max_size=2),
       st.lists(st.floats(-4.0, 4.0), min_size=2, max_size=2))
def test_solution_map_is_nonexpansive_over_sigma(a1, a2):
    # |u(a) - u(a')| <= |a - a'| / sigma  (strong convexity of the local cost)
    ag = diag_agent([2.0, 3.0], [0.1, -0.1], [-1.0, -1.0], [1.0, 1.0])
    u1 = solve_local(ag, np.array(a1))
    u2 = solve_local(ag, np.array(a2))
    lhs = np.linalg.norm(u1 - u2)
    assert lhs <= np.linalg.norm(np.array(a1) - np.array(a2)) / ag.sigma + 1e-12


def test_pgd_raises_when_starved(monkeypatch):
    Q = np.array([[2.0, 0.9], [0.9, 1.0]])
    ag = dense_agent(Q, [1.0, 1.0], [-5.0, -5.0], [5.0, 5.0])
    monkeypatch.setattr(subsolver, "MAX_INNER_ITERS", 2)
    with pytest.raises(RuntimeError, match="local QP solve stalled .* after 2 iterations"):
        solve_local(ag, np.array([4.0, -3.0]))


def test_dual_value_terms_sum_to_dual(chain3):
    lam = np.array([0.3, -1.2, 0.7])
    ev = eval_dual(chain3, lam)
    # agent i's term: f_i(u_i) - <lam_i, g_i> + <sum_{j in M_i} G_j^i' lam_j, u_i>
    a = chain3.coupling_csr_T @ lam
    total = 0.0
    for ag in chain3.agents:
        sl = chain3.u_slice(ag.id)
        total += (ag.cost(ev.u[sl]) - float(np.dot(lam[chain3.lam_slice(ag.id)], ag.g))
                  + float(np.dot(a[sl], ev.u[sl])))
    assert total == pytest.approx(ev.q, abs=1e-12)


# ------------------------------------------------------- stacked solves


def random_dense_agents(rng, k, d, *, wide=False, equal_bounds=False):
    """k dense agents of dimension d (ids 10, 11, ...); ``wide`` boxes are +-1e6."""
    agents = []
    for i in range(k):
        A = rng.normal(size=(d, d))
        lo, hi = -rng.uniform(0.1, 2.0, d), rng.uniform(0.1, 2.0, d)
        if wide:
            lo, hi = np.full(d, -1e6), np.full(d, 1e6)
        if equal_bounds:
            pinned = rng.random(d) < 0.3
            hi[pinned] = lo[pinned]
        agents.append(AgentSpec(id=10 + i, dim=d, Q=A.T @ A / d + 0.3 * np.eye(d),
                                c=rng.normal(size=d), lo=lo, hi=hi, m=0, g=[], blocks={}))
    return agents


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("pressure", ["inactive", "active", "equal-bounds"])
def test_stacked_solve_is_per_agent_reference_bit_for_bit(d, pressure):
    # small pressures leave the box inactive; large ones pin coordinates and
    # take several restarted inner steps; lo == hi pins some coordinates outright
    rng = np.random.default_rng(100 * d + len(pressure))
    counts = {}
    for trial in range(40):
        k = int(rng.integers(1, 7))
        agents = random_dense_agents(rng, k, d, wide=pressure == "inactive",
                                     equal_bounds=pressure == "equal-bounds")
        scale = 0.01 if pressure == "inactive" else 5.0
        a = rng.normal(size=(k, d)) * scale
        st = AgentStack(agents, np.arange(k * d), np.arange(k))
        got = solve_local(st, a.ravel())
        assert got.shape == (k * d,)
        for r, ag in enumerate(agents):
            want = solve_pgd_reference(ag, a[r], counts=counts)
            assert got[r * d:(r + 1) * d].tobytes() == want.tobytes()
            assert solve_local(ag, a[r]).tobytes() == want.tobytes()
    if pressure == "active" and d > 1:
        assert counts["iters"] > 40 * 3 and counts["restarts"] > 0


def test_stack_names_the_agent_that_stalls(monkeypatch):
    rng = np.random.default_rng(7)
    easy = random_dense_agents(rng, 2, 2, wide=True)
    slow = AgentSpec(id=77, dim=2, Q=np.array([[2.0, 0.9], [0.9, 1.0]]), c=[1.0, 1.0],
                     lo=[-5.0, -5.0], hi=[5.0, 5.0], m=0, g=[], blocks={})
    agents = [easy[0], slow, easy[1]]
    a = np.array([[0.01, 0.02], [4.0, -3.0], [0.0, -0.01]])
    for ag, row in zip(agents, a):
        counts = {}
        solve_pgd_reference(ag, row, counts=counts)
        assert (counts["iters"] > 2) == (ag is slow)
    monkeypatch.setattr(subsolver, "MAX_INNER_ITERS", 2)
    with pytest.raises(RuntimeError, match="local QP solve stalled") as info:
        solve_local(AgentStack(agents, np.arange(6), np.arange(3)), a.ravel())
    msg = str(info.value)
    assert msg.startswith("agent 77:") and "agent 10" not in msg and "agent 11" not in msg


def test_repeated_stack_rows_are_single_point_solves_bit_for_bit():
    # two pressures per agent in one lock-step call; the slow agent's second
    # row holds an active box and needs many restarted steps, the rest settle fast
    rng = np.random.default_rng(11)
    easy = random_dense_agents(rng, 2, 2, wide=True)
    slow = AgentSpec(id=77, dim=2, Q=np.array([[1.0, 0.9], [0.9, 1.0]]), c=[1.0, 1.0],
                     lo=[-5.0, -5.0], hi=[5.0, 5.0], m=0, g=[], blocks={})
    st = AgentStack([easy[0], slow, easy[1]], np.arange(6), np.arange(3))
    rep = st.repeat(2, 6)
    assert st.repeat(1, 6) is st and st.repeat(2, 6) is rep
    assert rep.ids == st.ids * 2 and len(rep.groups) == 1
    assert rep.groups[0][2].tobytes() == np.concatenate([st.groups[0][2]] * 2).tobytes()
    assert rep.cols.tolist() == list(range(12))
    assert st.repeat(2, 10).cols.tolist() == list(range(6)) + list(range(10, 16))
    # a batch asks for one repeat per number of live columns: only the last stays cached
    last = [st.repeat(p, 6) for p in range(3, 12)][-1]
    assert list(st._repeats) == [(11, 6)]
    assert st.repeat(11, 6) is last
    a = np.array([[0.01, 0.02], [0.3, -0.2], [0.0, -0.01],
                  [-0.02, 0.01], [8.0, 2.0], [0.05, 0.0]])
    got = solve_local(rep, a.ravel()).reshape(6, 2)
    each = np.concatenate([solve_local(st, a[:3].ravel()), solve_local(st, a[3:].ravel())])
    each = each.reshape(6, 2)
    for r, row in enumerate(a):
        ag = rep.agents[r]
        counts = {}
        want = solve_pgd_reference(ag, row, counts=counts)
        assert (counts["iters"] > 30 and counts.get("restarts", 0) > 3) == (r == 4), r
        assert got[r].tobytes() == want.tobytes() == solve_local(ag, row).tobytes()
        assert got[r].tobytes() == each[r].tobytes()


def mixed_stack(rng, dims, **kw):
    """A stack of dense agents of the given dimensions (ascending), ids 10, 11, ..."""
    agents = [dataclasses.replace(random_dense_agents(rng, 1, d, **kw)[0], id=10 + i)
              for i, d in enumerate(dims)]
    n = sum(dims)
    return AgentStack(agents, np.arange(n), np.arange(len(dims)))


def per_agent_reference(st, a, counts=None):
    """``solve_pgd_reference`` agent by agent over a stack's flat pressure."""
    ends = np.cumsum([0] + [ag.dim for ag in st.agents])
    return [solve_pgd_reference(ag, a[e0:e1], counts=counts)
            for ag, e0, e1 in zip(st.agents, ends[:-1], ends[1:])]


@pytest.mark.parametrize("pressure", ["inactive", "active", "equal-bounds"])
def test_mixed_dimension_stack_is_per_agent_reference_bit_for_bit(pressure):
    # one stack of dimensions 1-5: the elementwise steps run over all of it,
    # the products per group, and each agent keeps its own restarts and exit
    rng = np.random.default_rng(500 + len(pressure))
    counts = {}
    for trial in range(30):
        dims = sorted(rng.integers(1, 6, size=int(rng.integers(2, 9))).tolist())
        st = mixed_stack(rng, dims, wide=pressure == "inactive",
                         equal_bounds=pressure == "equal-bounds")
        assert [Q.shape[-1] for *_, Q in st.groups] == sorted(set(dims))
        a = rng.normal(size=sum(dims)) * (0.01 if pressure == "inactive" else 5.0)
        got = solve_local(st, a)
        assert got.shape == a.shape
        want = np.concatenate(per_agent_reference(st, a, counts))
        assert got.tobytes() == want.tobytes()
    if pressure == "active":
        assert counts["iters"] > 30 * 3 and counts["restarts"] > 0


def test_solve_builds_no_stack(monkeypatch):
    # agents that finish at different steps keep their result from that step,
    # and the solve runs on the stack it was given: no smaller stack is built
    rng = np.random.default_rng(31)
    built = []
    init = AgentStack.__post_init__

    def counted(self):
        built.append(self)
        init(self)

    finish = set()
    for trial in range(20):
        dims = sorted(rng.integers(1, 6, size=6).tolist())
        st = mixed_stack(rng, dims, equal_bounds=trial % 2 == 1)
        a = rng.normal(size=sum(dims)) * 5.0
        with monkeypatch.context() as m:
            m.setattr(AgentStack, "__post_init__", counted)
            got = solve_local(st, a)
        assert built == []
        counts = [{} for _ in dims]
        ends = np.cumsum([0] + dims)
        want = [solve_pgd_reference(ag, a[e0:e1], counts=c)
                for ag, e0, e1, c in zip(st.agents, ends[:-1], ends[1:], counts)]
        assert got.tobytes() == np.concatenate(want).tobytes()
        finish.add(len({c["iters"] for c in counts}))
    assert max(finish) > 2  # some solves have agents finishing at three or more steps


def test_repeated_mixed_stack_rows_are_single_point_solves_bit_for_bit():
    # a stack of dimensions 1, 2, 2 and 3 at two pressures; the slow agent's
    # second row needs 30+ restarted steps while every other row settles at once
    rng = np.random.default_rng(11)
    one, three = mixed_stack(rng, [1, 3], wide=True).agents
    easy = dataclasses.replace(random_dense_agents(rng, 1, 2, wide=True)[0], id=12)
    slow = AgentSpec(id=77, dim=2, Q=np.array([[1.0, 0.9], [0.9, 1.0]]), c=[1.0, 1.0],
                     lo=[-5.0, -5.0], hi=[5.0, 5.0], m=0, g=[], blocks={})
    st = AgentStack([one, easy, slow, three], np.arange(8), np.arange(4))
    rep = st.repeat(2, 8)
    # group-major: each dimension's rows stay one group over both pressures
    assert rep.ids == (10, 10, 12, 77, 12, 77, 11, 11)
    assert [Q.shape[:2] for *_, Q in rep.groups] == [(2, 1), (4, 2), (2, 3)]
    assert rep.cols.tolist() == [0, 8, 1, 2, 3, 4, 9, 10, 11, 12, 5, 6, 7, 13, 14, 15]
    a = np.array([0.01, 0.02, -0.01, 0.3, -0.2, 0.0, -0.01, 0.02,
                  -0.02, 0.01, 0.03, 8.0, 2.0, 0.05, 0.0, -0.03])
    got = np.empty(16)
    got[rep.cols] = solve_local(rep, a[rep.cols])
    counts = [{}, {}]
    for p, c in enumerate(counts):
        x = a[8 * p:8 * (p + 1)]
        want = np.concatenate(per_agent_reference(st, x, c))
        assert got[8 * p:8 * (p + 1)].tobytes() == want.tobytes() == solve_local(st, x).tobytes()
    assert counts[0]["iters"] == 4 and counts[1]["iters"] > 30 + 3
    assert counts[1]["restarts"] > 3


@pytest.mark.parametrize("slow", [False, True], ids=["one-step", "multi-step"])
def test_result_is_the_callers_own(slow):
    # the result is a fresh array: a second call on the same stack, which
    # rewrites the stack's work buffers, leaves the first result alone
    rng = np.random.default_rng(21)
    st = mixed_stack(rng, [1, 2, 2, 3], wide=not slow)
    a = rng.normal(size=8) * (5.0 if slow else 0.01)
    first = solve_local(st, a)
    keep = first.copy()
    counts = {}
    per_agent_reference(st, a, counts)
    assert (counts["iters"] > len(st.agents)) == slow
    second = solve_local(st, -a)
    assert first.tobytes() == keep.tobytes() and not np.shares_memory(first, second)
    assert solve_local(st, a).tobytes() == keep.tobytes()


def test_messages_name_agents_across_dimensions(monkeypatch):
    rng = np.random.default_rng(7)
    one, three = mixed_stack(rng, [1, 3], wide=True).agents
    slow = AgentSpec(id=77, dim=2, Q=np.array([[2.0, 0.9], [0.9, 1.0]]), c=[1.0, 1.0],
                     lo=[-5.0, -5.0], hi=[5.0, 5.0], m=0, g=[], blocks={})
    slow3 = AgentSpec(id=78, dim=3, Q=[[1.0, 0.9, 0.8], [0.9, 1.0, 0.9], [0.8, 0.9, 1.0]],
                      c=[1.0] * 3, lo=[-5.0] * 3, hi=[5.0] * 3, m=0, g=[], blocks={})
    st = AgentStack([one, slow, three, slow3], np.arange(9), np.arange(4))
    a = np.array([0.01, 4.0, -3.0, 0.0, 0.01, -0.01, 4.0, -3.0, 2.0])
    for ag, x, want in zip(st.agents, np.split(a, [1, 3, 6]), [False, True, False, True]):
        counts = {}
        solve_pgd_reference(ag, x, counts=counts)
        assert (counts["iters"] > 2) == want, ag.id
    monkeypatch.setattr(subsolver, "MAX_INNER_ITERS", 2)
    with pytest.raises(RuntimeError, match="local QP solve stalled") as info:
        solve_local(st, a)
    msg = str(info.value)
    assert msg.startswith("agent 77:") and "; agent 78:" in msg
    assert "agent 10" not in msg and "agent 11" not in msg
    a[[0, 7]] = np.nan, np.inf
    with pytest.raises(RuntimeError, match="non-finite fixed-point residual") as info:
        solve_local(st, a)
    msg = str(info.value)
    assert msg.startswith("agent 10:") and "; agent 78:" in msg
    assert "agent 77" not in msg and "agent 11" not in msg


def cost_shifted(inst, seed=1, scale=0.1):
    """``inst`` with every linear cost shifted by a seeded uniform draw (perfbench's denseq)."""
    rng = np.random.default_rng(seed)
    return ProblemInstance(agents=tuple(
        dataclasses.replace(a, c=a.c + scale * rng.uniform(-1.0, 1.0, a.dim))
        for a in inst.agents))


def warm_start_stacks(name):
    if name == "random":
        rng = np.random.default_rng(9)
        return [AgentStack(agents, np.arange(k * d), np.arange(k))
                for d in range(1, 7) for k in (1, 3, 6)
                for agents in [random_dense_agents(rng, k, d)]]
    inst = random_instance(10, seed=0, diagonal=False)
    inst = {"dense10": inst, "denseq": cost_shifted(inst), "mixed10": mixed_twin(inst)}[name]
    return [inst.dense_stack]


@pytest.mark.parametrize("name", ["dense10", "denseq", "mixed10", "random"])
def test_warm_start_is_np_linalg_solve_bit_for_bit(name):
    rng = np.random.default_rng(4)
    for st in warm_start_stacks(name):
        for _, es, Q in st.groups:
            c = st.c[es].reshape(len(Q), -1)
            for scale in (0.0, 0.01, 1.0, 100.0):
                rhs = -(c + scale * rng.normal(size=c.shape))[:, :, None]
                assert _lapack_solve(Q, rhs).tobytes() == np.linalg.solve(Q, rhs).tobytes()


@pytest.mark.parametrize("Q", [[[1.0, 1.0], [1.0, 1.0]], [[1.0, 0.0], [0.0, -1.0]]],
                         ids=["singular", "indefinite"])
def test_non_positive_definite_q_raises_validation_error(Q):
    bad = dense_agent(Q, [1.0, 1.0], [-5.0, -5.0], [5.0, 5.0])
    with pytest.raises(ValidationError, match="not positive definite"):
        solve_local(bad, np.array([0.5, -0.5]))
    good = random_dense_agents(np.random.default_rng(2), 1, 2)[0]
    with pytest.raises(ValidationError, match="not positive definite"):
        solve_local(AgentStack([good, bad], np.arange(4), np.arange(2)), np.zeros(4))


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_nonfinite_pressure_fails_at_once(value):
    # a NaN residual never meets the tolerance: without the first-step check
    # each call would spin all MAX_INNER_ITERS steps before raising
    inst = random_instance(10, seed=0, diagonal=False)
    t0 = time.perf_counter()
    with pytest.raises(RuntimeError, match="non-finite fixed-point residual") as info:
        eval_dual(inst, np.full(inst.m_total, value))
    assert "stalled" not in str(info.value)
    ag = inst.agents[0]
    with pytest.raises(RuntimeError, match=f"agent {ag.id}: local QP solve has a non-finite"):
        solve_local(ag, np.full(ag.dim, value))
    assert time.perf_counter() - t0 < 0.1


@pytest.mark.parametrize("mixed", [False, True], ids=["dense10", "mixed10"])
def test_stacked_primal_cost_is_per_agent_sum(mixed):
    inst = random_instance(10, seed=0, diagonal=False)
    if mixed:
        inst = mixed_twin(inst)
        assert inst.dense_stack is not None and len(inst.diag_columns[0]) > 0
    assert len(inst.dense_stack.groups) > 1
    rng = np.random.default_rng(3)
    for trial in range(50):
        u = rng.normal(size=inst.n_total) * 10.0 ** rng.integers(-3, 4)
        want = sum(a.cost(u[inst.u_slice(a.id)]) for a in inst.agents)
        assert primal_cost(inst, u) == want


def test_work_buffers_are_one_pool_per_length():
    st = random_instance(10, seed=0, diagonal=False).dense_stack
    pool, agents = st.work(7), st.work(2, per_agent=True)
    assert len({id(w.flat) for w in pool + agents}) == 9
    assert [len(w.flat) for w in pool] == [len(st.cols)] * 7
    assert [len(w.flat) for w in agents] == [len(st.agents)] * 2
    # the same objects on every call, and a shorter call takes a prefix
    assert all(w is v for w, v in zip(st.work(7), pool, strict=True))
    assert all(w is v for w, v in zip(st.work(2), pool[:2], strict=True))
    assert all(w is v for w, v in zip(st.work(1, per_agent=True), agents[:1], strict=True))


@pytest.mark.parametrize("mixed", [False, True], ids=["dense10", "mixed10"])
def test_shared_work_buffers_leave_no_trace_between_calls(mixed):
    # the solver and primal_cost share the stack's pool: a solve after a
    # cost evaluation gives the bits of a fresh instance's solve
    def build():
        inst = random_instance(10, seed=0, diagonal=False)
        return mixed_twin(inst) if mixed else inst
    used, fresh = build(), build()
    rng = np.random.default_rng(12)
    lam1, lam2 = (rng.normal(size=used.m_total) * 10.0 for _ in range(2))
    first = eval_dual(used, lam1)
    cost = primal_cost(used, rng.normal(size=used.n_total) * 10.0)
    again, alone = eval_dual(used, lam2), eval_dual(fresh, lam2)
    assert again.u.tobytes() == alone.u.tobytes() and again.q == alone.q
    assert eval_dual(used, lam1).u.tobytes() == first.u.tobytes()
    assert primal_cost(fresh, first.u) == primal_cost(used, first.u) and np.isfinite(cost)
