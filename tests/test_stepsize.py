"""Out-stack norms, Lipschitz constants and the safe step-size table."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualdec import ValidationError, build_stepsizes, random_instance
from dualdec.model import AgentSpec, ProblemInstance, instance_to_dict, instance_from_dict


def test_pair_table(instance_a):
    t = build_stepsizes(instance_a)
    assert t.out_norm == {1: 1.0, 2: 1.0}
    assert t.L == {1: 2.0, 2: 1.0}
    assert t.eta == {1: 0.5, 2: 1.0}


def test_chain_table(chain3):
    t = build_stepsizes(chain3)
    # ||G^1|| stacks [1; 0.5], ||G^2|| stacks [1; 1], ||G^3|| = [1]
    assert t.out_norm[1] == pytest.approx(np.sqrt(1.25))
    assert t.out_norm[2] == pytest.approx(np.sqrt(2.0))
    assert t.out_norm[3] == pytest.approx(1.0)
    assert t.L[1] == pytest.approx(1.25 + 2.0)   # hood {1, 2}
    assert t.L[2] == pytest.approx(2.0)          # hood {2}
    assert t.L[3] == pytest.approx(1.25 + 1.0)   # hood {1, 3}
    np.testing.assert_allclose(t.eta_rows(chain3),
                               [1 / 3.25, 1 / 2.0, 1 / 2.25])


def test_locality(chain3):
    # stiffening agent 2's cost must not change L_3: 2 is outside N_3 + {3}
    d = instance_to_dict(chain3)
    d["agents"][1]["Q"] = {"diag": [5.0]}
    stiff = instance_from_dict(d)
    base = build_stepsizes(chain3)
    mod = build_stepsizes(stiff)
    assert mod.L[3] == base.L[3]
    assert mod.L[1] != base.L[1]
    assert mod.L[2] != base.L[2]



def test_rejects_agent_without_any_coupling():
    a1 = AgentSpec(id=1, dim=1, Q=np.empty(0), diag=[1.0], c=[0.0], lo=[-1.0],
                   hi=[1.0], m=1, g=[0.0], blocks={1: [[1.0]]})
    a2 = AgentSpec(id=2, dim=1, Q=np.empty(0), diag=[1.0], c=[0.0], lo=[-1.0],
                   hi=[1.0], m=0, g=[], blocks={})
    inst = ProblemInstance(agents=(a1, a2))
    with pytest.raises(ValidationError, match="L_i = 0"):
        build_stepsizes(inst)


@settings(deadline=None, max_examples=20)
@given(st.integers(0, 10_000))
def test_eta_is_inverse_lipschitz(seed):
    inst = random_instance(4, seed=seed)
    t = build_stepsizes(inst)
    for i in inst.ids:
        assert t.eta[i] == pytest.approx(1.0 / t.L[i])
        hood = set(inst.graph.in_neighbors[i]) | {i}
        manual = sum(np.linalg.norm(inst.out_stack(j), 2) ** 2 / inst.agent(j).sigma
                     for j in hood if inst.out_stack(j).shape[0])
        assert t.L[i] == pytest.approx(manual, rel=1e-9)
