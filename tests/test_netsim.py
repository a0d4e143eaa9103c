"""Link-failure simulator: determinism, marginals, independence, alpha."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CASES
from dualdec import (ValidationError, build_network, build_opf_instance, load_case,
                     load_instance, random_instance)
from dualdec.netsim import activation_matrix

CHAIN = load_instance(CASES / "chain3.json")
IEEE14 = build_opf_instance(load_case(CASES / "ieee14.json"))
MASK = (1 << 64) - 1


def _mix(z: int) -> int:
    """splitmix64 finalizer on a 64-bit integer: the scalar reference."""
    z &= MASK
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & MASK
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & MASK
    z ^= z >> 31
    return z


def test_edges_derived_from_coupling(instance_a, chain3):
    assert build_network(instance_a, 0.0).edges == ((1, 2),)
    assert build_network(chain3, 0.0).edges == ((1, 2), (1, 3))


@pytest.mark.parametrize("gamma", [-0.1, 1.0, 1.5])
def test_gamma_range(instance_a, gamma):
    with pytest.raises(ValidationError, match="gamma"):
        build_network(instance_a, gamma)


@pytest.mark.parametrize("gamma", ["0.1", None, [0.1], 0.1 + 0j, True])
def test_gamma_must_be_a_number(instance_a, gamma):
    with pytest.raises(ValidationError, match=r"gamma .* is not a number"):
        build_network(instance_a, gamma)


def test_numpy_float_gamma_is_its_float64_value(chain3):
    # 1.0 - float32(0.1) taken in float32 is 0.9f, not 1 - 0.10000000149011612
    g32 = np.float32(0.1)
    np.testing.assert_array_equal(build_network(chain3, g32).beta, 1.0 - float(g32))
    assert build_network(chain3, np.float64(0.3)).beta.tobytes() == \
        build_network(chain3, 0.3).beta.tobytes()


def test_gamma_zero_every_link_always_up(chain3):
    net = build_network(chain3, 0.0, seed=99)
    assert net.edges == ((1, 2), (1, 3))
    assert activation_matrix([net], range(1, 200)).all()


def test_alpha_products(chain3):
    net = build_network(chain3, 0.2)
    # alpha_i multiplies beta over i's in-neighbor links only
    assert net.alpha == pytest.approx({1: 0.8, 2: 1.0, 3: 0.8})


def test_same_seed_same_draws(chain3):
    a = build_network(chain3, 0.3, seed=7)
    b = build_network(chain3, 0.3, seed=7)
    ks = range(1, 500)
    np.testing.assert_array_equal(activation_matrix([a], ks), activation_matrix([b], ks))


def test_different_seeds_differ(chain3):
    a = build_network(chain3, 0.3, seed=7)
    b = build_network(chain3, 0.3, seed=8)
    ks = range(1, 500)
    assert not np.array_equal(activation_matrix([a], ks), activation_matrix([b], ks))


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 2**63 - 1), st.integers(1, 10_000))
def test_draw_is_pure_in_seed_and_k(seed, k):
    # a row depends on k alone: not on the other iterations drawn with it, nor on the build
    net = build_network(CHAIN, 0.35, seed=seed)
    row = activation_matrix([net], [k])[0]
    np.testing.assert_array_equal(activation_matrix([net], [k + 1, k, 1])[1], row)
    again = build_network(CHAIN, 0.35, seed=seed)
    np.testing.assert_array_equal(activation_matrix([again], [k])[0], row)
    # nor on other networks drawn with it: a sequence lays their links end to end
    other = build_network(CHAIN, 0.6, seed=seed + 1)
    np.testing.assert_array_equal(activation_matrix([other, net], [k + 1, k]),
                                  np.hstack([activation_matrix([other], [k + 1, k]),
                                             activation_matrix([net], [k + 1, k])]))


def test_marginal_frequencies(chain3):
    gamma = 0.3
    n = 100_000
    net = build_network(chain3, gamma, seed=12)
    act = activation_matrix([net], range(1, n + 1))
    p = 1.0 - gamma
    sigma = np.sqrt(p * (1 - p) / n)
    for col in range(act.shape[1]):
        assert abs(act[:, col].mean() - p) < 3 * sigma


def test_lag1_autocorrelation_small(chain3):
    net = build_network(chain3, 0.5, seed=5)
    act = activation_matrix([net], range(1, 100_001)).astype(float)
    for col in range(act.shape[1]):
        x = act[:, col] - act[:, col].mean()
        rho = np.dot(x[:-1], x[1:]) / np.dot(x, x)
        assert abs(rho) < 0.02


def test_cross_edge_independence(chain3):
    net = build_network(chain3, 0.4, seed=6)
    act = activation_matrix([net], range(1, 100_001)).astype(float)
    x = act[:, 0] - act[:, 0].mean()
    y = act[:, 1] - act[:, 1].mean()
    rho = np.dot(x, y) / np.sqrt(np.dot(x, x) * np.dot(y, y))
    assert abs(rho) < 0.02


def test_per_agent_update_fraction(chain3):
    # fraction of iterations where ALL of agent 1's in-links are up ~ alpha_1
    gamma = 0.25
    net = build_network(chain3, gamma, seed=9)
    n = 100_000
    hits = activation_matrix([net], range(1, n + 1))[:, net.edge_index[(1, 2)]].sum()
    alpha = net.alpha[1]
    sigma = np.sqrt(alpha * (1 - alpha) / n)
    assert abs(hits / n - alpha) < 3 * sigma


def test_vectorized_matches_scalar_path(chain3):
    # reference: the scalar splitmix64 finalizer, one link and one k at a time
    net = build_network(chain3, 0.45, seed=11)
    ks = list(range(1, 300))
    mat = activation_matrix([net], ks)
    base = [int(b) for b in net._base]
    rows = [[(_mix(b ^ _mix(k)) >> 11) * 2.0 ** -53 < p for b, p in zip(base, net.beta)]
            for k in ks]
    np.testing.assert_array_equal(mat, np.array(rows))


@pytest.mark.parametrize("seed", [1.7, 1.0, True, "1", None])
def test_seed_must_be_an_integer(chain3, seed):
    with pytest.raises(ValidationError, match="seed .* is not an integer"):
        build_network(chain3, 0.3, seed=seed)


def test_numpy_integer_seed_is_that_seed(chain3):
    net, want = build_network(chain3, 0.3, seed=np.int64(5)), build_network(chain3, 0.3, seed=5)
    assert type(net.seed) is int and net.seed == 5
    assert net._base.tobytes() == want._base.tobytes()


@pytest.mark.parametrize("seed", [0, 11, -1, 2**64 - 1, 10**30])
def test_link_hash_base_matches_scalar_reference(seed):
    # each link's base is the scalar finalizer of the seed mixed with its key
    for inst in (CHAIN, random_instance(5, seed=0), IEEE14):
        net = build_network(inst, 0.45, seed=seed)
        want = [_mix(_mix(seed & MASK) ^ _mix((i << 32) | j)) for i, j in net.edges]
        assert [int(b) for b in net._base] == want
