"""Problem container: validation, graph derivation, stacking, JSON round trip."""

import dataclasses
import json
import re

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CASES, make_pair, mesh_grid
from dualdec import (ValidationError, build_network, build_opf_instance, engine, load_case,
                     primal_cost, random_instance)
from dualdec.model import (AgentSpec, ProblemInstance, blocks_to_csr, instance_from_dict,
                           instance_to_dict, load_instance, save_instance)


def scalar_agent(i, *, m=1, g=(0.0,), blocks=None, Q=((1.0,),), lo=-10.0, hi=10.0):
    blocks = {i: [[1.0]]} if blocks is None else blocks
    return AgentSpec(id=i, dim=1, Q=np.array(Q), c=[0.0], lo=[lo], hi=[hi],
                     m=m, g=list(g), blocks=blocks)


# ---------------------------------------------------------------- graph


def test_graph_pair(instance_a):
    # the graph is derived from the agents, which are the instance's only field
    assert [f.name for f in dataclasses.fields(ProblemInstance)] == ["agents"]
    g = instance_a.graph
    assert g.in_neighbors == {1: (2,), 2: ()}
    assert g.out_neighbors == {1: (1,), 2: (1, 2)}


def test_graph_chain(chain3):
    g = chain3.graph
    assert g.in_neighbors == {1: (2,), 2: (), 3: (1,)}
    assert g.out_neighbors == {1: (1, 3), 2: (1, 2), 3: (3,)}


def test_out_stack_order(chain3):
    # stacks for u_1: agent 1's own block above agent 3's (ascending owner id)
    np.testing.assert_array_equal(chain3.out_stack(1), [[1.0], [0.5]])
    np.testing.assert_array_equal(chain3.out_stack(2), [[1.0], [1.0]])


# ----------------------------------------------------------- validation


@pytest.mark.parametrize("mutate, msg", [
    (dict(Q=((0.0,),)), "not positive definite"),
    (dict(Q=((-1.0,),)), "not positive definite"),
    (dict(lo=5.0, hi=-5.0), "lo > hi"),
    (dict(hi=np.inf), "agent 1: hi has non-finite entries"),
    (dict(m=1, g=(1.0, 2.0)), "g has shape"),
    (dict(m=1, blocks={2: [[1.0]]}), "missing diagonal block"),
    (dict(m=1, blocks={1: [[0.0]]}), "zero diagonal block"),
    (dict(m=1, blocks={1: [[1.0]], 2: [[0.0]]}), "zero coupling block"),
    (dict(m=0, g=(), blocks={1: np.zeros((0, 1))}), "m=0 but blocks declared"),
    (dict(m=1, blocks={1: [[1.0], [1.0]]}), "block for 1 has shape"),
])
def test_agent_rejects(mutate, msg):
    base = dict(m=1, g=(1.0,), blocks={1: [[1.0]]})
    base.update(mutate)
    with pytest.raises(ValidationError, match=msg):
        scalar_agent(1, **base).sigma  # sigma forces the definiteness check


def dense_agent(**kw):
    base = dict(id=1, dim=2, Q=np.eye(2), c=[0.0, 0.0], lo=[-1.0, -1.0], hi=[1.0, 1.0],
                m=1, g=[0.0], blocks={1: [[1.0, 1.0]]})
    return AgentSpec(**{**base, **kw})


def with_agent_field(name, value):
    d = instance_to_dict(load_instance(CASES / "instance_a.json"))
    d["agents"][0][name] = value
    return instance_from_dict(d)


@pytest.mark.parametrize("build, msg", [
    (lambda: dense_agent(id=-1), "agent -1: negative ids are not supported"),
    (lambda: dense_agent(dim=0), "dim must be a positive integer"),
    (lambda: dense_agent(diag=[1.0, 1.0, 1.0]), r"Q diag has shape \(3,\), expected \(2,\)"),
    (lambda: dense_agent(Q=np.eye(3)), r"Q has shape \(3, 3\), expected \(2, 2\)"),
    (lambda: dense_agent(Q=[[1.0, 0.0], [0.0, np.nan]]), "Q has non-finite entries"),
    (lambda: dense_agent(c=[0.0]), r"c has shape \(1,\), expected \(2,\)"),
    (lambda: dense_agent(lo=[-1.0] * 3), r"lo has shape \(3,\), expected \(2,\)"),
    (lambda: dense_agent(hi=[[1.0, 1.0]]), r"hi has shape \(1, 2\), expected \(2,\)"),
    (lambda: dense_agent(c=[0.0, np.inf]), "c has non-finite entries"),
    (lambda: dense_agent(m=-1, g=[], blocks={}), "m must be a non-negative integer"),
    (lambda: dense_agent(g=[np.nan]), "g has non-finite entries"),
    (lambda: dense_agent(blocks={1: [[1.0, np.inf]]}), "block for 1 has non-finite entries"),
    (lambda: dense_agent(blocks={1: [[1.0, 1.0, 1.0]]}),
     "diagonal block has 3 columns, expected 2"),
    (lambda: dense_agent(c=[0.0, [1.0, 2.0]]), "agent 1: c: not numeric"),  # ragged
    (lambda: ProblemInstance(agents=()), "instance has no agents"),
    (lambda: primal_cost(load_instance(CASES / "chain3.json"), np.zeros(2)),
     r"u has shape \(2,\), expected \(3,\)"),
    (lambda: instance_from_dict({"agents": [1]}), "agent entry is not an object"),
    (lambda: with_agent_field("blocks", [[1.0]]), "agent 1: blocks must be an object"),
    (lambda: dense_agent(diag=[1.0, np.nan]), "agent 1: Q diag has non-finite entries"),
    (lambda: dense_agent(blocks={1: [[1.0, 1.0]] * 2}),
     r"agent 1: block for 1 has shape \(2, 2\), expected \(1, n\)"),
], ids=["negative-id", "dim-0", "diag-shape", "Q-shape", "Q-nan", "c-shape", "lo-shape",
        "hi-shape", "c-inf", "m-negative", "g-nan", "block-inf", "own-block-columns",
        "ragged", "no-agents", "u-shape", "entry-not-object", "blocks-not-object",
        "diag-nan", "block-rows"])
def test_input_checks_name_the_fault(build, msg):
    with pytest.raises(ValidationError, match=msg):
        build()


@pytest.mark.parametrize("field, value", [
    ("c", [True, 0.0]), ("c", ["1.0", 0.0]), ("c", np.array([True, False])),
    ("c", np.array(["1.0", "0.0"])), ("c", np.array([1.0, "x"], dtype=object)),
    ("lo", (np.bool_(False), -1.0)), ("g", [b"1"]), ("blocks", {1: [[1.0, True]]}),
    ("g", [None]), ("c", np.array([1.0, None], dtype=object)),  # JSON null, not NaN
])
def test_agent_rejects_bool_and_text_numbers(field, value):
    spec = dict(id=1, dim=2, Q=np.eye(2), c=[0.0, 0.0], lo=[-1.0, -1.0], hi=[1.0, 1.0],
                m=1, g=[1.0], blocks={1: [[1.0, 1.0]]})
    spec[field] = value
    with pytest.raises(ValidationError, match="not numeric"):
        AgentSpec(**spec)


def test_agent_loads_numeric_arrays_from_code():
    # numpy arrays of any int or float dtype, and numpy scalars, load as floats
    a = AgentSpec(id=1, dim=2, Q=np.eye(2, dtype=np.int32), c=np.zeros(2, np.float32),
                  lo=(np.float64(-1.0), -1), hi=np.array([1, 1], dtype=np.uint8), m=1,
                  g=np.array([1.0]), blocks={1: np.array([[1.0, 2.0]], dtype=object)})
    assert all(v.dtype == float for v in (a.Q, a.c, a.lo, a.hi, a.g, a.blocks[1]))
    np.testing.assert_array_equal(a.hi, [1.0, 1.0])


def test_agent_rejects_asymmetric_q():
    with pytest.raises(ValidationError, match="not symmetric"):
        AgentSpec(id=1, dim=2, Q=np.array([[1.0, 0.3], [0.2, 1.0]]), c=[0.0, 0.0],
                  lo=[-1.0, -1.0], hi=[1.0, 1.0], m=1, g=[1.0],
                  blocks={1: [[1.0, 1.0]]})


def test_instance_rejects_duplicate_ids():
    with pytest.raises(ValidationError, match="duplicate agent ids"):
        ProblemInstance(agents=(scalar_agent(1), scalar_agent(1)))


def test_instance_rejects_unknown_block_target():
    a = scalar_agent(1, blocks={1: [[1.0]], 9: [[1.0]]})
    with pytest.raises(ValidationError, match="unknown agent 9"):
        ProblemInstance(agents=(a,))


def test_instance_rejects_column_mismatch():
    a1 = AgentSpec(id=1, dim=1, Q=np.eye(1), c=[0.0], lo=[-1.0], hi=[1.0],
                   m=1, g=[0.0], blocks={1: [[1.0]], 2: [[1.0]]})  # agent 2 has dim 2
    a2 = AgentSpec(id=2, dim=2, Q=np.eye(2), c=[0.0, 0.0], lo=[-1.0, -1.0],
                   hi=[1.0, 1.0], m=0, g=[], blocks={})
    with pytest.raises(ValidationError, match="block for 2 has 1 columns, expected 2"):
        ProblemInstance(agents=(a1, a2))


def test_sigma_is_min_eigenvalue():
    a = AgentSpec(id=1, dim=2, Q=np.array([[2.0, 1.0], [1.0, 2.0]]), c=[0.0, 0.0],
                  lo=[-1.0, -1.0], hi=[1.0, 1.0], m=1, g=[0.0],
                  blocks={1: [[1.0, 0.0]]})
    assert a.sigma == pytest.approx(1.0)
    assert a.eig_max == pytest.approx(3.0)
    assert not a.is_diagonal


# ------------------------------------------------------------- stacking


def test_coupling_matrix_chain(chain3):
    np.testing.assert_array_equal(
        chain3.coupling_matrix,
        [[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.5, 0.0, 1.0]],
    )
    np.testing.assert_array_equal(chain3.g_vec, [2.0, 1.0, 1.5])
    assert chain3.n_total == 3 and chain3.m_total == 3
    assert chain3.u_slice(2) == slice(1, 2)
    assert chain3.lam_slice(3) == slice(2, 3)


@pytest.mark.parametrize("inst", [make_pair(), random_instance(8, seed=3, diagonal=False)],
                         ids=["pair", "rand8"])
def test_coupling_csr_matches_dense(inst):
    # reference built here, block by block, independent of the CSR path
    A = np.zeros((inst.m_total, inst.n_total))
    for a in inst.agents:
        for j, B in a.blocks.items():
            A[inst.lam_slice(a.id), inst.u_slice(j)] = B
    assert np.array_equal(inst.coupling_csr.toarray(), A)
    assert np.array_equal(inst.coupling_csr_T.toarray(), A.T)
    assert np.array_equal(inst.coupling_matrix, A)
    assert inst.coupling_csr.nnz == np.count_nonzero(A)


def blocks_to_csr_reference(shape, blocks):
    """The per-block construction: each block's nonzeros, then one COO -> CSR conversion."""
    rows, cols, vals = [np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=np.intp)], [np.zeros(0)]
    for r0, c0, B in blocks:
        r, c = np.nonzero(B)
        rows.append(r + r0)
        cols.append(c + c0)
        vals.append(B[r, c])
    return sp.csr_array((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                        shape=shape)


def _transposed(blocks):
    """The blocks of the transposed matrix: block (r0, c0, B) moves to (c0, r0, B.T)."""
    return [(c0, r0, B.T) for r0, c0, B in blocks]


def _block_sets(inst, monkeypatch):
    """The coupling block lists of ``inst``, transposed too, and the lists
    ``engine._plan`` builds from it."""
    blocks = list(inst._coupling_blocks())
    sets = [((inst.m_total, inst.n_total), blocks),
            ((inst.n_total, inst.m_total), _transposed(blocks))]

    def record(shape, blocks):
        sets.append((shape, list(blocks)))
        return blocks_to_csr(*sets[-1])

    monkeypatch.setattr(engine, "blocks_to_csr", record)
    engine._plan(inst, build_network(inst, 0.3, seed=1))
    return sets


def _instances(name):
    if name == "rand":
        return [random_instance(n, seed=s, diagonal=s % 2 == 0)
                for n in (4, 5, 10) for s in range(4)]
    if name == "opf":
        return [build_opf_instance(load_case(CASES / f)) for f in ("ieee14.json",
                                                                   "opf_2bus.json")] + [mesh_grid()]
    return []


@pytest.mark.parametrize("name", ["rand", "opf", "empty"])
def test_blocks_to_csr_matches_per_block_reference(name, monkeypatch):
    sets = [s for inst in _instances(name) for s in _block_sets(inst, monkeypatch)]
    sets.append(((3, 4), []))
    sets.append(((2, 5), [(0, 1, np.zeros((2, 2))), (1, 3, np.array([[0.0, -0.0]]))]))
    for shape, blocks in sets:
        got, want = blocks_to_csr(shape, blocks), blocks_to_csr_reference(shape, blocks)
        assert got.shape == want.shape
        for field in ("indptr", "indices", "data"):
            a, b = getattr(got, field), getattr(want, field)
            assert np.array_equal(a, b) and a.dtype == b.dtype, field


@pytest.mark.parametrize("name", ["rand", "opf"])
def test_transpose_equals_the_transposed_blocks(name):
    # coupling_csr_T is derived from the CSR; the sums of every product with
    # it follow its entry order, so pin its bytes to the block-built transpose
    insts = _instances(name) + ([random_instance(10, seed=0, diagonal=False)]
                                if name == "rand" else [])
    for inst in insts:
        got = inst.coupling_csr_T
        want = blocks_to_csr((inst.n_total, inst.m_total), _transposed(inst._coupling_blocks()))
        assert got.shape == want.shape
        for field in ("indptr", "indices", "data"):
            a, b = getattr(got, field), getattr(want, field)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field


def test_agents_sorted_by_id():
    inst = ProblemInstance(agents=(scalar_agent(7), scalar_agent(2)))
    assert inst.ids == (2, 7)
    assert inst.u_slice(2) == slice(0, 1)


def test_cost_and_residual(chain3):
    u = np.array([1.0, 1.0, 1.0])
    assert primal_cost(chain3, u) == pytest.approx(1.5)


@pytest.mark.parametrize("kwargs", [{"n_agents": True}, {"n_agents": 2.0}, {"seed": True},
                                    {"seed": 1.7}, {"seed": "1"}])
def test_random_instance_rejects_non_integers(kwargs):
    with pytest.raises(ValidationError, match="is not an integer"):
        random_instance(**kwargs)


def test_random_instance_needs_an_agent():
    with pytest.raises(ValidationError, match="need at least one agent"):
        random_instance(0)


def test_random_instance_takes_numpy_integers():
    got = random_instance(np.int64(3), seed=np.int64(2))
    assert instance_to_dict(got) == instance_to_dict(random_instance(3, seed=2))


def test_diag_columns(chain3):
    # every cost diagonal: no dense stack, and the diagonal of every column in order
    assert chain3.dense_stack is None
    cols, d = chain3.diag_columns
    np.testing.assert_array_equal(cols, [0, 1, 2])
    np.testing.assert_array_equal(d, [1.0, 1.0, 1.0])
    dense = random_instance(3, seed=5, diagonal=False)
    assert dense.dense_stack is not None and len(dense.diag_columns[0]) == 0


# ------------------------------------------------------------ JSON i/o


def test_load_matches_builder(instance_a):
    built = make_pair()
    assert instance_to_dict(instance_a) == instance_to_dict(built)


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 10_000), diagonal=st.booleans())
def test_roundtrip_through_dict(seed, diagonal):
    inst = random_instance(4, seed=seed, diagonal=diagonal)
    again = instance_from_dict(instance_to_dict(inst))
    assert instance_to_dict(again) == instance_to_dict(inst)
    np.testing.assert_array_equal(again.coupling_matrix, inst.coupling_matrix)
    np.testing.assert_array_equal(again.g_vec, inst.g_vec)


def test_roundtrip_through_file(tmp_path, chain3):
    p = tmp_path / "x.json"
    save_instance(chain3, p)
    again = load_instance(p)
    assert instance_to_dict(again) == instance_to_dict(chain3)


@pytest.mark.parametrize("data, msg", [
    ([1, 2], "top level"),
    ({"agents": [], "extra": 1}, "top level"),
    ({"agents": []}, "non-empty list"),
    ({"agents": [{"id": 1}]}, "missing fields"),
])
def test_schema_rejects(data, msg):
    with pytest.raises(ValidationError, match=msg):
        instance_from_dict(data)


def test_schema_rejects_unknown_field(instance_a):
    d = instance_to_dict(instance_a)
    d["agents"][0]["note"] = "hi"
    with pytest.raises(ValidationError, match="unknown fields: \\['note'\\]"):
        instance_from_dict(d)


def test_schema_rejects_bad_q_object(instance_a):
    d = instance_to_dict(instance_a)
    d["agents"][0]["Q"] = {"dense": [[1.0]]}
    with pytest.raises(ValidationError, match="exactly the key 'diag'"):
        instance_from_dict(d)


def test_schema_rejects_bad_block_key(instance_a):
    d = instance_to_dict(instance_a)
    d["agents"][0]["blocks"] = {"x": [[1.0]]}
    with pytest.raises(ValidationError, match="block key 'x'"):
        instance_from_dict(d)


@pytest.mark.parametrize("key", ["02", " 2", "+2", "2_0", "2.0", "-0"])
def test_schema_rejects_a_block_key_that_is_not_an_agent_id(instance_a, key):
    # int() reads each of these as an agent id: "02" would replace the "2"
    # block, and "2_0" would be agent 20
    d = instance_to_dict(instance_a)
    d["agents"][0]["blocks"][key] = [[5.0]]
    with pytest.raises(ValidationError, match=re.escape(f"agent 1: block key {key!r} is not an agent id")):
        instance_from_dict(d)


def test_block_keys_from_code_may_be_integers(instance_a):
    d = instance_to_dict(instance_a)
    d["agents"][0]["blocks"] = {1: [[1.0]], np.int64(2): [[1.0]]}
    assert instance_from_dict(d).agent(1).blocks.keys() == {1, 2}


@pytest.mark.parametrize("old, new, key", [
    ('"c": [0.0],', '"c": [0.0], "c": [9.0],', "c"),
    ('"1": [[1.0]],', '"1": [[1.0]], "1": [[3.0]],', "1"),
    ('"agents": [', '"agents": [], "agents": [', "agents"),
])
def test_load_rejects_a_repeated_key(tmp_path, old, new, key):
    # json.loads keeps the last of two equal keys: c would load as 9
    text = (CASES / "instance_a.json").read_text()
    assert old in text
    p = tmp_path / "twice.json"
    p.write_text(text.replace(old, new, 1))
    with pytest.raises(ValidationError, match=f"an object repeats the key '{key}'"):
        load_instance(p)


def test_load_rejects_invalid_json(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{nope")
    with pytest.raises(ValidationError, match="invalid JSON"):
        load_instance(p)


def test_diag_q_serializes_compactly(instance_a):
    d = instance_to_dict(instance_a)
    assert d["agents"][0]["Q"] == {"diag": [1.0]}
    assert json.dumps(d)  # serializable as-is
