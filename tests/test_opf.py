"""DC power flow cases: translation into the coupled form, plus the 14-bus data."""

import dataclasses
import json

import numpy as np
import pytest

from dualdec import (ValidationError, build_opf_instance, load_case, solve_kkt)
from dualdec.model import save_instance, load_instance, instance_to_dict
from dualdec.opf import Branch, Bus, Generator, OpfCase


def two_bus(**overrides) -> OpfCase:
    base = dict(
        buses=(Bus(id=1, demand=[0.0]), Bus(id=2, demand=[1.0])),
        branches=(Branch(i=1, j=2, b=1.0),),
        generators=(Generator(bus=1, a=0.5, b=0.0, pmax=10.0),),
        h=1, ref_bus=2, eps_psi=1e-3, psi_max=np.pi,
    )
    base.update(overrides)
    return OpfCase(**base)


# ---------------------------------------------------------- translation


def test_two_bus_blocks(cases_dir):
    inst = build_opf_instance(load_case(cases_dir / "opf_2bus.json"))
    a1, a2 = inst.agent(1), inst.agent(2)
    # generator bus: u = (P, psi); load bus: u = (psi,)
    assert (a1.dim, a2.dim) == (2, 1)
    np.testing.assert_array_equal(a1.blocks[1], [[1.0, -1.0]])
    np.testing.assert_array_equal(a1.blocks[2], [[1.0]])
    np.testing.assert_array_equal(a2.blocks[2], [[-1.0]])
    np.testing.assert_array_equal(a2.blocks[1], [[0.0, 1.0]])
    np.testing.assert_array_equal(inst.g_vec, [0.0, 1.0])
    np.testing.assert_array_equal(a1.diag, [1.0, 0.002])
    np.testing.assert_array_equal(a2.diag, [0.002])


def test_generation_box_and_pinned_reference():
    inst = build_opf_instance(two_bus())
    a1, a2 = inst.agent(1), inst.agent(2)
    np.testing.assert_array_equal(a1.lo, [0.0, -np.pi])
    np.testing.assert_array_equal(a1.hi, [10.0, np.pi])
    # reference bus angle is boxed to exactly zero
    assert a2.lo[0] == a2.hi[0] == 0.0


def test_linear_generation_cost_lands_in_c():
    case = two_bus(generators=(Generator(bus=1, a=0.5, b=2.5, pmax=10.0),))
    inst = build_opf_instance(case)
    np.testing.assert_array_equal(inst.agent(1).c, [2.5, 0.0])
    np.testing.assert_array_equal(inst.agent(2).c, [0.0])


def test_parallel_branches_accumulate():
    case = two_bus(branches=(Branch(i=1, j=2, b=1.0), Branch(i=2, j=1, b=0.5)))
    inst = build_opf_instance(case)
    np.testing.assert_array_equal(inst.agent(1).blocks[1], [[1.0, -1.5]])
    np.testing.assert_array_equal(inst.agent(1).blocks[2], [[1.5]])


def test_zero_demand_idles_the_generator():
    case = two_bus(buses=(Bus(id=1, demand=[0.0]), Bus(id=2, demand=[0.0])))
    sol = solve_kkt(build_opf_instance(case))
    np.testing.assert_allclose(sol.u, 0.0, atol=1e-9)
    assert sol.q == pytest.approx(0.0, abs=1e-12)


def test_hours_decouple():
    case2 = two_bus(h=2, buses=(Bus(id=1, demand=[0.0, 0.0]),
                                Bus(id=2, demand=[1.0, 2.0])))
    sol2 = solve_kkt(build_opf_instance(case2))
    for t, demand in enumerate([1.0, 2.0]):
        case1 = two_bus(buses=(Bus(id=1, demand=[0.0]), Bus(id=2, demand=[demand])))
        sol1 = solve_kkt(build_opf_instance(case1))
        inst2 = build_opf_instance(case2)
        u1 = sol2.u[inst2.u_slice(1)]  # (P_1, P_2, psi_1, psi_2)
        assert u1[t] == pytest.approx(sol1.u[0], abs=1e-9)
        assert u1[2 + t] == pytest.approx(sol1.u[1], abs=1e-9)


def test_balance_rows_sum_to_zero_over_angles(cases_dir):
    # every coupling row is a power balance: its angle coefficients cancel
    inst = build_opf_instance(load_case(cases_dir / "ieee14.json"))
    case = load_case(cases_dir / "ieee14.json")
    gen_buses = {g.bus for g in case.generators}
    h = case.h
    for a in inst.agents:
        psi0 = {j: (h if j in gen_buses else 0) for j in a.blocks}
        for t in range(h):
            angle_sum = sum(B[t, psi0[j]:].sum() for j, B in a.blocks.items())
            assert angle_sum == pytest.approx(0.0, abs=1e-9)


def test_opf_instance_round_trips_as_json(tmp_path):
    inst = build_opf_instance(two_bus())
    p = tmp_path / "opf.json"
    save_instance(inst, p)
    again = load_instance(p)
    assert instance_to_dict(again) == instance_to_dict(inst)


# ----------------------------------------------------------- validation


@pytest.mark.parametrize("overrides, msg", [
    (dict(h=0), "horizon"),
    (dict(ref_bus=9), "reference bus 9"),
    (dict(eps_psi=0.0), "eps_psi"),
    (dict(psi_max=-1.0), "psi_max"),
    (dict(branches=(Branch(i=1, j=1, b=1.0),)), "self-loop"),
    (dict(branches=(Branch(i=1, j=9, b=1.0),)), "unknown bus"),
    (dict(branches=(Branch(i=1, j=2, b=0.0),)), "zero susceptance"),
    (dict(branches=()), "disconnected"),
    (dict(generators=(Generator(bus=9, a=1.0, b=0.0, pmax=1.0),)),
     "unknown bus 9"),
    (dict(generators=(Generator(bus=1, a=-1.0, b=0.0, pmax=1.0),)), "a > 0"),
    (dict(generators=(Generator(bus=1, a=1.0, b=0.0, pmax=0.0),)), "pmax > 0"),
    (dict(generators=(Generator(bus=1, a=1.0, b=0.0, pmax=1.0),
                      Generator(bus=1, a=2.0, b=0.0, pmax=1.0))),
     "aggregate them into one"),
    (dict(buses=(Bus(id=1, demand=[0.0]), Bus(id=1, demand=[1.0]))),
     "duplicate bus ids"),
    (dict(buses=(Bus(id=1, demand=[0.0, 0.0]), Bus(id=2, demand=[1.0]))),
     "demand has length"),
    (dict(buses=(Bus(id=1, demand=[0.0]), Bus(id=2, demand=[-1.0]))),
     "nonnegative"),
])
def test_case_validation(overrides, msg):
    with pytest.raises(ValidationError, match=msg):
        build_opf_instance(two_bus(**overrides))


def load_text(tmp_path, text):
    p = tmp_path / "c.json"
    p.write_text(text)
    return load_case(p)


@pytest.mark.parametrize("build, msg", [
    (lambda tmp: two_bus(buses=()), "case has no buses"),
    (lambda tmp: Generator(bus=1, a=[0.5], b=0.0, pmax=1.0), "generator a: not a number"),
    (lambda tmp: two_bus(eps_psi=[1e-3, 1e-3]), "case eps_psi: not a number"),
    (lambda tmp: load_text(tmp, "{nope"), "invalid JSON"),
    (lambda tmp: load_text(tmp, "[1, 2]"), "case file is not an object"),
    (lambda tmp: Bus(id=1, demand=[[0.0]]), r"bus 1: demand has shape \(1, 1\), expected \(n,\)"),
    (lambda tmp: Bus(id=1, demand=[np.nan]), "bus 1: demand has non-finite entries"),
], ids=["no-buses", "generator-list", "case-list", "invalid-json", "not-object",
        "demand-2d", "demand-nan"])
def test_case_input_checks_name_the_fault(build, msg, tmp_path):
    with pytest.raises(ValidationError, match=msg):
        build(tmp_path)


def test_load_case_strict_schema(tmp_path, cases_dir):
    data = json.loads((cases_dir / "opf_2bus.json").read_text())
    del data["ref_bus"]
    p = tmp_path / "c.json"
    p.write_text(json.dumps(data))
    with pytest.raises(ValidationError, match="missing fields.*ref_bus"):
        load_case(p)
    data["ref_bus"] = 2
    data["comment"] = "hi"
    p.write_text(json.dumps(data))
    with pytest.raises(ValidationError, match="unknown fields.*comment"):
        load_case(p)


def test_load_case_malformed_entry(tmp_path, cases_dir):
    data = json.loads((cases_dir / "opf_2bus.json").read_text())
    del data["branches"][0]["b"]
    p = tmp_path / "c.json"
    p.write_text(json.dumps(data))
    with pytest.raises(ValidationError, match="malformed case entry"):
        load_case(p)


def edited_two_bus(tmp_path, cases_dir, edit):
    data = json.loads((cases_dir / "opf_2bus.json").read_text())
    edit(data)
    p = tmp_path / "c.json"
    p.write_text(json.dumps(data))
    return p


@pytest.mark.parametrize("edit, msg", [
    (lambda d: d["buses"][1].update(note="slack"),
     r"case entry buses\[1\] has unknown fields: \['note'\]"),
    (lambda d: d["generators"][0].update(typo_pmax=5.0),
     r"case entry generators\[0\] has unknown fields: \['typo_pmax'\]"),
    (lambda d: d.update(branches=[7]), r"case entry branches\[0\] is not an object"),
    (lambda d: d.update(buses=5), "case file field 'buses' is not a list"),
    (lambda d: d.update(generators={"bus": 1}), "case file field 'generators' is not a list"),
    (lambda d: d["branches"][0].update(b=None), "branch b None is not a number"),
    (lambda d: d["generators"][0].update(a=None), "generator a None is not a number"),
    (lambda d: d.update(eps_psi=None), "case eps_psi None is not a number"),
    (lambda d: d.update(psi_max=None), "case psi_max None is not a number"),
], ids=["bus-extra", "generator-extra", "branch-not-object", "buses-int",
        "generators-object", "branch-b-null", "generator-a-null", "eps_psi-null",
        "psi_max-null"])
def test_load_case_checks_each_entry_and_scalar(edit, msg, tmp_path, cases_dir):
    # each entry is checked as agent entries are, and a JSON null is not read as NaN
    with pytest.raises(ValidationError, match=msg):
        load_case(edited_two_bus(tmp_path, cases_dir, edit))


# ------------------------------------------------------------ 14 buses


def test_ieee14_shape(cases_dir):
    case = load_case(cases_dir / "ieee14.json")
    assert len(case.buses) == 14
    assert len(case.branches) == 20
    assert sorted(g.bus for g in case.generators) == [1, 2, 3, 6, 8]
    assert case.h == 6 and case.ref_bus == 1
    inst = build_opf_instance(case)
    assert inst.n_total == 5 * 12 + 9 * 6 == 114
    assert inst.m_total == 14 * 6 == 84


def test_ieee14_oracle_dispatch(cases_dir):
    case = load_case(cases_dir / "ieee14.json")
    inst = build_opf_instance(case)
    sol = solve_kkt(inst)
    assert sol.method == "kkt"
    demand = np.sum([b.demand for b in case.buses], axis=0)
    total = np.zeros(case.h)
    for g in case.generators:
        p = sol.u[inst.u_slice(g.bus)][:case.h]
        assert np.all(p >= -1e-9) and np.all(p <= g.pmax + 1e-9)
        total += p
    np.testing.assert_allclose(total, demand, atol=1e-8)
    # peak-hour profile: hour 4 (index 3) is the maximum demand hour
    assert int(np.argmax(total)) == 3
