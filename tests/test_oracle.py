"""Centralized reference solvers kept deliberately apart from the engine."""

import dataclasses
import time

import numpy as np
import pytest

from conftest import (CASES, load_grid_module, make_pair, mesh_grid, mixed_twin,
                      solve_ascent_reference, solve_kkt_dense_reference)
from dualdec import (InfeasibleError, OracleError, certify_feasible, eval_dual,
                     load_case, build_opf_instance, load_instance, oracle, primal_cost,
                     random_instance, solve_active_set, solve_kkt)
from dualdec.model import AgentSpec, ProblemInstance


def boxed(inst: ProblemInstance, b: float) -> ProblemInstance:
    """``inst`` with every box tightened to [-b, b]."""
    return ProblemInstance(agents=tuple(
        dataclasses.replace(a, lo=np.full(a.dim, -b), hi=np.full(a.dim, b))
        for a in inst.agents))


def assert_close(sol, ref, rtol):
    """u, lam and q agree to ``rtol`` times max(1, the reference's largest entry)."""
    for got, want in ((sol.u, ref.u), (sol.lam, ref.lam), (np.array([sol.q]), np.array([ref.q]))):
        np.testing.assert_allclose(got, want, rtol=rtol,
                                   atol=rtol * float(np.max(np.abs(want), initial=1.0)))


def count_calls(monkeypatch, name):
    """Calls of ``oracle.<name>`` from now on."""
    calls = []
    real = getattr(oracle, name)

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(oracle, name, spy)
    return calls


SCHUR_CASES = {
    **{f"rand5-s{s}": (lambda s=s: random_instance(5, seed=s)) for s in range(20)},
    "dense10": lambda: random_instance(10, seed=0, diagonal=False),
    "mixed": lambda: mixed_twin(random_instance(10, seed=0, diagonal=False)),
    "chain3": lambda: load_instance(CASES / "chain3.json"),
    "ieee14": lambda: build_opf_instance(load_case(CASES / "ieee14.json")),
    "opf_2bus": lambda: build_opf_instance(load_case(CASES / "opf_2bus.json")),
    "grid6": mesh_grid,
}


@pytest.mark.parametrize("name", list(SCHUR_CASES))
def test_schur_route_matches_dense_reference(name):
    inst = SCHUR_CASES[name]()
    sol = solve_kkt(inst)
    assert sol.method == "kkt"
    assert_close(sol, solve_kkt_dense_reference(inst), 1e-10)
    pinned = inst.lo_vec == inst.hi_vec
    assert np.array_equal(sol.u[pinned], inst.lo_vec[pinned])
    assert oracle.kkt_residual(inst, sol.u, sol.lam) <= oracle.CERT_TOL


def test_active_set_matches_ascent_reference(monkeypatch):
    solves = count_calls(monkeypatch, "_schur_solve")
    cases = {"pair": make_pair(hi1=0.5)}
    for seed in range(16):
        inst = boxed(random_instance(4, seed=seed), 0.8)
        if certify_feasible(inst):
            cases[f"rand4-s{seed}"] = inst
        else:
            with pytest.raises(InfeasibleError):
                solve_active_set(inst)
    assert len(cases) == 9
    sweeps = {}
    for name, inst in cases.items():
        solves.clear()
        sol = solve_active_set(inst)
        sweeps[name] = len(solves) - 1  # re-solves after the one with only lo == hi pinned
        assert sol.method == "active_set"
        assert_close(sol, solve_ascent_reference(inst), 1e-8)
    assert sweeps["pair"] == 1 and max(sweeps.values()) >= 2
    assert sum(v > 0 for v in sweeps.values()) >= 6  # most cases hold an active box


def test_active_set_never_over_constrains_the_coupling_rows():
    # pinning u_0 and u_4 together, as a primal-dual active-set sweep does,
    # leaves three coupling rows on two free columns and a singular system;
    # only u_4 is active at the solution, and bounds enter one at a time
    inst = boxed(random_instance(4, seed=8), 0.8)
    sol = solve_kkt(inst)
    assert sol.method == "active_set"
    assert_close(sol, solve_ascent_reference(inst), 1e-8)
    at_bound = np.flatnonzero((sol.u <= inst.lo_vec) | (sol.u >= inst.hi_vec))
    assert at_bound.tolist() == [4]


def test_capacity_cut_grid_takes_the_active_set_route():
    grid = load_grid_module()
    case = grid.mesh_case(6, 6, 24, seed=0)
    gens = list(case.generators)
    gens[0] = dataclasses.replace(gens[0], pmax=0.3)  # below its interior output
    inst = build_opf_instance(dataclasses.replace(case, generators=tuple(gens)))
    t0 = time.perf_counter()
    sol = solve_kkt(inst)
    assert time.perf_counter() - t0 < 5.0
    assert sol.method == "active_set"
    gen = inst.u_slice(gens[0].bus)
    p = sol.u[gen][:case.h]
    assert np.count_nonzero(p == 0.3) > 0 and np.all(p <= 0.3)
    assert oracle.kkt_residual(inst, sol.u, sol.lam) <= oracle.CERT_TOL


def test_active_set_bound_leaves_the_working_set(monkeypatch):
    # min 1/2 |u|^2 + c'u over [0, 1]^3 with u1 + u2 + u3 = 1 projects -c onto
    # the capped simplex: (0.62, 0.38, 0).  From (1, 0, 0) the upper bound on
    # u1 enters the working set, then leaves it when its multiplier has the
    # wrong sign.
    a = AgentSpec(id=1, dim=3, Q=None, diag=[1.0, 1.0, 1.0], c=[-1.19, -0.95, 1.0],
                  lo=np.zeros(3), hi=np.ones(3), m=1, g=[1.0], blocks={1: [[1.0, 1.0, 1.0]]})
    inst = ProblemInstance(agents=(a,))
    Q, Qinv = oracle._block_diag(inst, False), oracle._block_diag(inst, True)
    start = oracle._schur_solve(inst, Q, Qinv, np.zeros(3, dtype=bool), inst.lo_vec)
    sets, real = [], oracle._schur_solve

    def record(instance, Q, Qinv, pinned, at):
        sets.append(pinned.copy())  # the caller edits its working set in place
        return real(instance, Q, Qinv, pinned, at)

    monkeypatch.setattr(oracle, "_schur_solve", record)
    sol = oracle._primal_active_set(inst, Q, Qinv, np.array([1.0, 0.0, 0.0]), start)
    assert any((before & ~after).any() for before, after in zip(sets, sets[1:]))
    np.testing.assert_allclose(sol.u, [0.62, 0.38, 0.0], rtol=0.0, atol=1e-12)
    assert sol.method == "active_set"
    assert oracle.kkt_residual(inst, sol.u, sol.lam) <= oracle.CERT_TOL


def test_kkt_residual_checks_each_condition():
    # u1 + u2 = 2 at costs u^2/2: optimum (1, 1) at lam -1; scale 1 + max(|c|, |g|) = 3
    def r(inst, u, lam):
        return oracle.kkt_residual(inst, np.array(u, float), np.array([lam], float))

    inst = make_pair()
    assert r(inst, [1.0, 1.0], -1.0) == 0.0
    assert r(inst, [1.0, 1.0], -1.5) == pytest.approx(0.5 / 3)    # not stationary
    assert r(inst, [1.5, 1.5], -1.5) == pytest.approx(1.0 / 3)    # off the coupling row
    assert r(inst, [10.0, -8.0], 8.0) == pytest.approx(18.0 / 3)  # nu_1 > 0 at its upper bound
    capped = make_pair(hi1=0.5)
    assert r(capped, [0.5, 1.5], -1.5) == 0.0
    assert r(capped, [0.75, 1.25], -1.25) == pytest.approx(0.25 / 3)  # above its box


def test_answer_failing_the_certificate_is_refused(monkeypatch, chain3):
    real = oracle._schur_solve

    def off(*args):
        u, lam = real(*args)
        return u, lam + 1e-6  # no longer stationary

    monkeypatch.setattr(oracle, "_schur_solve", off)
    with pytest.raises(OracleError, match="kkt answer fails its KKT certificate"):
        solve_kkt(chain3)
    with pytest.raises(OracleError, match="fails its KKT certificate"):
        solve_kkt(make_pair(hi1=0.5))


def test_kkt_pair(instance_a):
    sol = solve_kkt(instance_a)
    assert sol.method == "kkt"
    np.testing.assert_allclose(sol.u, [1.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(sol.lam, [-1.0], atol=1e-12)
    assert sol.q == pytest.approx(1.0, abs=1e-12)


def test_kkt_chain(chain3):
    sol = solve_kkt(chain3)
    np.testing.assert_allclose(sol.u, [1.0, 1.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(sol.lam, [-0.5, -0.5, -1.0], atol=1e-12)
    assert sol.q == pytest.approx(1.5, abs=1e-12)


def test_strong_duality(chain3):
    sol = solve_kkt(chain3)
    assert primal_cost(chain3, sol.u) == pytest.approx(sol.q, abs=1e-10)
    assert eval_dual(chain3, sol.lam).q == pytest.approx(sol.q, abs=1e-10)
    # lam* is a maximizer of the dual
    rng = np.random.default_rng(4)
    for _ in range(100):
        assert eval_dual(chain3, sol.lam + rng.normal(size=3)).q <= sol.q + 1e-12


def test_box_active_falls_back_to_active_set():
    boxed = make_pair(hi1=0.5)
    sol = solve_kkt(boxed)
    assert sol.method == "active_set"
    np.testing.assert_allclose(sol.u, [0.5, 1.5], atol=1e-8)
    np.testing.assert_allclose(sol.lam, [-1.5], atol=1e-8)
    assert sol.q == pytest.approx(1.25, abs=1e-8)


def test_active_set_agrees_with_kkt_on_interior(chain3):
    a = solve_ascent_reference(chain3)
    b = solve_active_set(chain3)
    assert b.method == "active_set"
    np.testing.assert_allclose(b.u, a.u, atol=1e-6)
    np.testing.assert_allclose(b.lam, a.lam, atol=1e-6)


def test_random_instances_two_routes_agree():
    for seed in range(6):
        inst = random_instance(4, seed=seed)
        a = solve_kkt(inst)
        b = solve_ascent_reference(inst)
        assert a.q == pytest.approx(b.q, abs=1e-6)
        np.testing.assert_allclose(a.u, b.u, atol=1e-5)


def test_singular_kkt_rejected():
    # two identical coupling rows make the KKT matrix rank deficient
    a1 = AgentSpec(id=1, dim=1, Q=np.empty(0), diag=[1.0], c=[0.0], lo=[-10.0],
                   hi=[10.0], m=2, g=[2.0, 2.0],
                   blocks={1: [[1.0], [1.0]], 2: [[1.0], [1.0]]})
    a2 = AgentSpec(id=2, dim=1, Q=np.empty(0), diag=[1.0], c=[0.0], lo=[-10.0],
                   hi=[10.0], m=0, g=[], blocks={})
    inst = ProblemInstance(agents=(a1, a2))
    with pytest.raises(OracleError, match="singular KKT system"):
        solve_kkt(inst)
    with pytest.raises(OracleError, match="singular KKT system"):
        solve_active_set(inst)  # the box route solves the same Schur system


def test_interval_infeasibility_detected():
    hopeless = make_pair(g=100.0)  # u1 + u2 <= 20 on the boxes
    assert not certify_feasible(hopeless)
    with pytest.raises(InfeasibleError, match="unreachable within the boxes"):
        solve_active_set(hopeless)


def test_geometric_infeasibility_detected():
    # each row is achievable alone, but the pair is contradictory:
    # u1 + u2 = 2 owned by agent 1, u1 + u2 = 5 owned by agent 2
    a1 = AgentSpec(id=1, dim=1, Q=np.empty(0), diag=[1.0], c=[0.0], lo=[-2.0],
                   hi=[2.0], m=1, g=[2.0], blocks={1: [[1.0]], 2: [[1.0]]})
    a2 = AgentSpec(id=2, dim=1, Q=np.empty(0), diag=[1.0], c=[0.0], lo=[-2.0],
                   hi=[2.0], m=1, g=[5.0], blocks={2: [[1.0]], 1: [[1.0]]})
    inst = ProblemInstance(agents=(a1, a2))
    assert not certify_feasible(inst)
    with pytest.raises(InfeasibleError):
        solve_active_set(inst)


def test_feasibility_verdicts_on_boxed_draws_and_the_grid():
    # the infeasible seeds pass the interval check but for seed 0, so the
    # least-squares solves decide them
    verdicts = [certify_feasible(boxed(random_instance(4, seed=s), 0.8)) for s in range(16)]
    assert [s for s, ok in enumerate(verdicts) if ok] == [1, 3, 4, 7, 8, 11, 12, 15]
    grid = mesh_grid()
    x = oracle._feasible_point(grid)
    assert ((grid.lo_vec <= x) & (x <= grid.hi_vec)).all()
    assert np.linalg.norm(grid.coupling_csr @ x - grid.g_vec) <= 1e-6


def test_certify_feasible_on_bundled_cases(cases_dir):
    from dualdec import load_instance
    for name in ("instance_a.json", "chain3.json"):
        assert certify_feasible(load_instance(cases_dir / name))
    for name in ("opf_2bus.json", "ieee14.json"):
        assert certify_feasible(build_opf_instance(load_case(cases_dir / name)))


def test_pinned_variables_solved_exactly(cases_dir):
    # the reference bus angle is boxed to a point; KKT must pin it, not fail
    inst = build_opf_instance(load_case(cases_dir / "opf_2bus.json"))
    sol = solve_kkt(inst)
    assert sol.method == "kkt"
    assert sol.u[inst.u_slice(2)][0] == 0.0
    np.testing.assert_allclose(sol.u, [1.0, 1.0, 0.0], atol=1e-9)
    np.testing.assert_allclose(sol.lam, [-1.0, -1.002], atol=1e-9)
    assert sol.q == pytest.approx(0.501, abs=1e-12)


def test_oracle_feasibility_of_solution():
    for seed in (3, 8, 13):
        inst = random_instance(5, seed=seed)
        sol = solve_kkt(inst)
        res = inst.coupling_matrix @ sol.u - inst.g_vec
        assert np.linalg.norm(res) < 1e-8
        assert np.all(sol.u >= inst.lo_vec - 1e-12)
        assert np.all(sol.u <= inst.hi_vec + 1e-12)
