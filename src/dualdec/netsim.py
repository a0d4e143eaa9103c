"""Simulated unreliable communication network.

An undirected link {i,j} exists for every pair of agents that must talk
(j influences i's block or vice versa).  At iteration k each link is up
independently with probability beta_{ij}; draws are independent across
iterations and links.  Every link has the same failure rate gamma, i.e.
beta = 1 - gamma.

Link states come from a counter-based generator: the draw for link
{i,j} at iteration k is a pure function of (seed, {i,j}, k), so traces
are reproducible regardless of evaluation order.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .model import ProblemInstance, ValidationError, _int, _real

__all__ = ["NetworkModel", "links", "build_network", "activation_matrix"]

_MASK = (1 << 64) - 1
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_S27, _S30, _S31 = np.uint64(27), np.uint64(30), np.uint64(31)


def _mix_np(z: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer (uint64 wraps mod 2^64)."""
    z = z.astype(np.uint64, copy=True)
    z ^= z >> _S30
    z *= _M1
    z ^= z >> _S27
    z *= _M2
    z ^= z >> _S31
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


def _edge_key(i: int, j: int) -> tuple[int, int]:
    return (i, j) if i < j else (j, i)


def links(instance: ProblemInstance) -> tuple[tuple[int, int], ...]:
    """The instance's communication links: every pair (i, j), i < j, where
    one agent is the other's in-neighbor, in ascending order."""
    n_in = instance.graph.in_neighbors
    return tuple(sorted({_edge_key(i, j) for i in instance.ids for j in n_in[i]}))


def build_network(instance: ProblemInstance, gamma: float, seed: int = 0) -> NetworkModel:
    """Uniform-failure network over the instance's communication links.

    ``gamma`` in [0, 1) is the per-link failure probability (beta = 1-gamma).
    An integer ``seed`` is read mod 2^64; any other seed or gamma raises
    ValidationError.
    """
    seed = _int(seed, "seed")
    gamma = _real(gamma, "gamma")
    if not (0.0 <= gamma < 1.0):
        raise ValidationError(f"gamma must lie in [0, 1), got {gamma}")
    edge_list = links(instance)
    beta = np.full(len(edge_list), 1.0 - gamma)
    beta.setflags(write=False)
    n_in = instance.graph.in_neighbors
    alpha = {i: math.prod([1.0 - gamma] * len(n_in[i]), start=1.0) for i in instance.ids}
    # one pass mixes the seed (first) and every link's key
    mixed = _mix_np(np.array([seed & _MASK] + [
        ((i & 0xFFFFFFFF) << 32) | (j & 0xFFFFFFFF) for i, j in edge_list], dtype=np.uint64))
    base = _mix_np(mixed[:1] ^ mixed[1:])
    base.setflags(write=False)
    return NetworkModel(edges=edge_list, beta=beta, seed=seed, alpha=alpha,
                        edge_index={e: p for p, e in enumerate(edge_list)}, _base=base)


def activation_matrix(models: Sequence[NetworkModel], ks) -> np.ndarray:
    """Boolean matrix of link states, rows = iterations in ``ks``, columns =
    every model's edges, model after model, drawn in one pass."""
    base = np.concatenate([m._base for m in models])
    beta = np.concatenate([m.beta for m in models])
    kmix = _mix_np(np.asarray(list(ks), dtype=np.uint64))
    h = _mix_np(base[None, :] ^ kmix[:, None])
    return (h >> np.uint64(11)) * 2.0 ** -53 < beta[None, :]
