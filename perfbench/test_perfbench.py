"""Smoke checks of the benchmark's own code at tiny sizes.

    python3 -m pytest perfbench -q

Covers workload generation, the output checks and the span self-time
arithmetic; it does not time anything.
"""

import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import dualdec.engine  # noqa: E402
from dualdec import build_opf_instance, solve_kkt  # noqa: E402

import grid  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def test_mesh_case_is_seeded_and_takes_the_kkt_route():
    a, b, c = grid.mesh_case(seed=3), grid.mesh_case(seed=3), grid.mesh_case(seed=4)
    assert all(np.array_equal(x.demand, y.demand) for x, y in zip(a.buses, b.buses))
    assert not all(np.array_equal(x.demand, y.demand) for x, y in zip(a.buses, c.buses))
    assert a.branches == c.branches and a.generators == c.generators
    assert len(a.buses) == 36 and len(a.branches) == 60 and len(a.generators) == 9
    inst = build_opf_instance(a)
    assert (inst.n_total, inst.m_total) == (1080, 864)
    assert solve_kkt(inst).method == "kkt"


def test_check_sweep_flags_each_defect():
    gammas, seeds = (0.0, 0.5), [4, 5]
    rows = [(0.0, 4, 10, 1), (0.0, 5, 10, 1), (0.5, 4, 30, 0), (0.5, 5, 20, 1)]
    summary = {0.0: 10, 0.5: 20}
    assert workloads.check_sweep(rows, summary, gammas, seeds) == []
    assert workloads.check_sweep(rows[:-1], summary, gammas, seeds)
    bad_zero = [(0.0, 4, 10, 1), (0.0, 5, 11, 1)] + rows[2:]
    assert workloads.check_sweep(bad_zero, summary, gammas, seeds)
    assert workloads.check_sweep(rows, {0.0: 10, 0.5: 9}, gammas, seeds)


def _trace(algo, iters, converged, u):
    return SimpleNamespace(algo=algo, iters=iters, converged=converged, u_final=np.array(u))


def test_check_dispatch_and_denseq():
    u = np.zeros(2)
    ok = [_trace("alg1", 5, True, [0.0, 1e-4]), _trace("alg2", 9, True, [0.0, -1e-4])]
    assert workloads.check_dispatch(ok, u, "kkt", 1e-3) == []
    assert workloads.check_dispatch(ok, u, "active_set", 1e-3)
    assert workloads.check_dispatch([_trace("alg2", 9, False, [0, 0])], u, "kkt", 1e-3)
    assert workloads.check_dispatch([_trace("alg2", 9, True, [0, 2e-3])], u, "kkt", 1e-3)
    fast, slow = _trace("alg2", 5, True, [0, 0]), _trace("unaccel", 8, True, [0, 0])
    assert workloads.check_denseq([(1, fast, slow)], u, 1e-4) == []
    assert workloads.check_denseq([(1, slow, fast)], u, 1e-4)
    tie = _trace("unaccel", 5, True, [0, 0])
    assert workloads.check_denseq([(1, fast, tie)], u, 1e-4)


def test_self_time_is_duration_minus_direct_children():
    ticks = iter([0.0, 1.0, 2.0, 4.0, 5.0, 10.0])  # outer[0,10] > mid[1,5] > leaf[2,4]
    tr = spans.Tracer(clock=lambda: next(ticks))
    leaf = tr.wrap("leaf", lambda: None)
    mid = tr.wrap("mid", lambda: leaf())
    outer = tr.wrap("outer", lambda: mid())
    outer()
    assert list(tr.parent) == [-1, 0, 1]
    t = tr.totals()
    assert t["outer"] == {"calls": 1, "total_s": 10.0, "self_s": 6.0}
    assert t["mid"] == {"calls": 1, "total_s": 4.0, "self_s": 2.0}
    assert t["leaf"] == {"calls": 1, "total_s": 2.0, "self_s": 2.0}
    assert tr.totals(1, 3)["outer"]["calls"] == 0


def test_tiny_workloads_pass_and_tracing_leaves_rounds_alone(tmp_path):
    original = dualdec.engine.run_alg2
    cases = [workloads.SweepRand5(runs=2, max_iters=60),
             workloads.DispatchGrid(rows=2, cols=2, h=2)]
    for wl in cases:
        st = wl.setup(1, tmp_path)
        plain = wl.check(st, wl.solve(st))
        assert plain.errors == [] and plain.rounds > 0
        tr = spans.Tracer()
        tr.install()
        try:
            traced = wl.check(st, wl.solve(st))
        finally:
            tr.uninstall()
        assert traced.rounds == plain.rounds
        m = run.layer_metrics(tr, 0, len(tr))
        assert m["engine.run_s"] > 0 and m["subsolver.calls"] == 0
        assert m["netsim.link_draws"] > 0
    assert dualdec.engine.run_alg2 is original
    assert m["engine.log_calls"] == plain.rounds + plain.runs  # one q* eval per run


def test_denseq_seed_moves_costs_only(tmp_path):
    wl = workloads.DenseqPgd(n_agents=3, net_seeds=(1,))
    a, b, c = wl.setup(2, tmp_path), wl.setup(2, tmp_path), wl.setup(3, tmp_path)
    ca, cb, cc = (s.instance.c_vec for s in (a, b, c))
    assert np.array_equal(ca, cb) and not np.array_equal(ca, cc)
    assert np.array_equal(a.instance.coupling_matrix, c.instance.coupling_matrix)
    out = wl.check(a, wl.solve(a))
    assert out.runs == 2 and out.rounds > 0
    tr = spans.Tracer()
    tr.install()
    try:
        wl.solve(a)
    finally:
        tr.uninstall()
    assert run.layer_metrics(tr, 0, len(tr))["subsolver.calls"] > 0

