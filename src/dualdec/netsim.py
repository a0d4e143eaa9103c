"""Simulated unreliable communication network.

An undirected link {i,j} exists for every pair of agents that must talk
(j influences i's block or vice versa).  At iteration k each link is up
independently with probability beta_{ij}; draws are independent across
iterations and links.  The default is a uniform failure rate gamma, i.e.
beta = 1 - gamma, with per-link overrides available.

Link states come from a counter-based generator: the draw for link
{i,j} at iteration k is a pure function of (seed, {i,j}, k), so traces
are reproducible regardless of evaluation order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import ProblemInstance, ValidationError

__all__ = ["NetworkModel", "LinkDraw", "build_network", "draw_links",
           "neighbors_active", "activation_matrix"]

_MASK = (1 << 64) - 1
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB


def _mix(z: int) -> int:
    """splitmix64 finalizer on a 64-bit integer."""
    z &= _MASK
    z ^= z >> 30
    z = (z * _M1) & _MASK
    z ^= z >> 27
    z = (z * _M2) & _MASK
    z ^= z >> 31
    return z


def _mix_np(z: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer (uint64 wraps mod 2^64)."""
    z = z.astype(np.uint64, copy=True)
    z ^= z >> np.uint64(30)
    z *= np.uint64(_M1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_M2)
    z ^= z >> np.uint64(31)
    return z


@dataclass(frozen=True)
class NetworkModel:
    """Immutable link model: edge list, per-link up-probabilities, seed."""

    edges: tuple[tuple[int, int], ...]
    beta: np.ndarray
    seed: int
    alpha: dict[int, float]
    edge_index: dict[tuple[int, int], int] = field(repr=False)
    _base: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class LinkDraw:
    """Set of links that are up at one iteration."""

    k: int
    active: frozenset[tuple[int, int]]


def _edge_key(i: int, j: int) -> tuple[int, int]:
    return (i, j) if i < j else (j, i)


def build_network(instance: ProblemInstance, gamma: float, seed: int = 0,
                  beta_overrides: dict | None = None) -> NetworkModel:
    """Uniform-failure network over the instance's communication links.

    ``gamma`` in [0, 1) is the per-link failure probability (beta = 1-gamma).
    ``beta_overrides`` maps (i, j) pairs to link-specific probabilities
    in (0, 1], taking precedence over the uniform value.
    """
    if not (0.0 <= gamma < 1.0):
        raise ValidationError(f"gamma must lie in [0, 1), got {gamma}")
    g = instance.graph
    edges = set()
    for i in instance.ids:
        for j in set(g.in_neighbors[i]) | set(g.out_neighbors[i]):
            if j != i:
                edges.add(_edge_key(i, j))
    edge_list = tuple(sorted(edges))
    index = {e: p for p, e in enumerate(edge_list)}
    beta = np.full(len(edge_list), 1.0 - gamma)
    if beta_overrides:
        for key, p in beta_overrides.items():
            e = _edge_key(*key)
            if e not in index:
                raise ValidationError(f"beta override for non-existent link {key}")
            if not (0.0 < p <= 1.0):
                raise ValidationError(f"beta for link {key} must lie in (0, 1], got {p}")
            beta[index[e]] = p
    beta.setflags(write=False)
    alpha = {}
    for i in instance.ids:
        prod = 1.0
        for j in g.in_neighbors[i]:
            prod *= float(beta[index[_edge_key(i, j)]])
        alpha[i] = prod
    s0 = _mix(int(seed) & _MASK)
    base = np.array(
        [_mix(s0 ^ _mix(((i & 0xFFFFFFFF) << 32) | (j & 0xFFFFFFFF))) for i, j in edge_list],
        dtype=np.uint64,
    )
    base.setflags(write=False)
    return NetworkModel(edges=edge_list, beta=beta, seed=int(seed), alpha=alpha,
                        edge_index=index, _base=base)


def draw_links(model: NetworkModel, k: int) -> LinkDraw:
    """Links that are up at iteration k."""
    act = activation_matrix(model, [k])[0]
    return LinkDraw(k=int(k), active=frozenset(e for e, up in zip(model.edges, act) if up))


def neighbors_active(draw: LinkDraw, i: int, required) -> bool:
    """True iff every link {i, j}, j in ``required``, is up in this draw."""
    return all(_edge_key(i, j) in draw.active for j in required)


def activation_matrix(model: NetworkModel, ks) -> np.ndarray:
    """Boolean matrix of link states, rows = iterations in ``ks``, cols = edges."""
    kmix = _mix_np(np.asarray(list(ks), dtype=np.uint64))
    h = _mix_np(model._base[None, :] ^ kmix[:, None])
    return (h >> np.uint64(11)) * 2.0 ** -53 < model.beta[None, :]
