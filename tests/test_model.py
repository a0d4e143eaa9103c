"""Problem container: validation, graph derivation, stacking, JSON round trip."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_pair
from dualdec import ValidationError, constraint_residual, primal_cost, random_instance
from dualdec.model import (AgentSpec, ProblemInstance, instance_from_dict,
                           instance_to_dict, load_instance, save_instance)


def scalar_agent(i, *, m=1, g=(0.0,), blocks=None, Q=((1.0,),), lo=-10.0, hi=10.0):
    blocks = {i: [[1.0]]} if blocks is None else blocks
    return AgentSpec(id=i, dim=1, Q=np.array(Q), c=[0.0], lo=[lo], hi=[hi],
                     m=m, g=list(g), blocks=blocks)


# ---------------------------------------------------------------- graph


def test_graph_pair(instance_a):
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
    assert chain3.out_slices(1) == [(1, slice(0, 1)), (3, slice(1, 2))]
    np.testing.assert_array_equal(chain3.out_stack(2), [[1.0], [1.0]])


# ----------------------------------------------------------- validation


@pytest.mark.parametrize("mutate, msg", [
    (dict(Q=((0.0,),)), "not positive definite"),
    (dict(Q=((-1.0,),)), "not positive definite"),
    (dict(lo=5.0, hi=-5.0), "lo > hi"),
    (dict(hi=np.inf), "must be finite"),
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
    A = inst.coupling_matrix
    np.testing.assert_array_equal(inst.coupling_csr.toarray(), A)
    np.testing.assert_array_equal(inst.coupling_csr_T.toarray(), A.T)
    assert inst.coupling_csr.nnz == np.count_nonzero(A)


def test_agents_sorted_by_id():
    inst = ProblemInstance(agents=(scalar_agent(7), scalar_agent(2)))
    assert inst.ids == (2, 7)
    assert inst.u_slice(2) == slice(0, 1)


def test_cost_and_residual(chain3):
    u = np.array([1.0, 1.0, 1.0])
    assert primal_cost(chain3, u) == pytest.approx(1.5)
    vec, nrm = constraint_residual(chain3, u)
    np.testing.assert_allclose(vec, 0.0, atol=1e-15)
    assert nrm == 0.0
    vec, nrm = constraint_residual(chain3, np.zeros(3))
    np.testing.assert_array_equal(vec, [-2.0, -1.0, -1.5])
    assert nrm == pytest.approx(np.sqrt(4 + 1 + 2.25))


def test_qdiag_vec(chain3):
    np.testing.assert_array_equal(chain3.qdiag_vec, [1.0, 1.0, 1.0])
    dense = random_instance(3, seed=5, diagonal=False)
    assert dense.qdiag_vec is None


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


def test_load_rejects_invalid_json(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{nope")
    with pytest.raises(ValidationError, match="invalid JSON"):
        load_instance(p)


def test_diag_q_serializes_compactly(instance_a):
    d = instance_to_dict(instance_a)
    assert d["agents"][0]["Q"] == {"diag": [1.0]}
    assert json.dumps(d)  # serializable as-is
