"""Seeded random instance generator for experiments and tests.

Instances are built feasible by construction: the right-hand sides are
the coupling map evaluated at a random interior point.  Diagonal blocks
get an identity boost so the stacked coupling map stays well
conditioned and the optimal multiplier stays moderate.  Draws whose
stacked coupling matrix is row-rank deficient (possible when an agent
owns more rows than its neighborhood has columns) are rejected and
redrawn deterministically, so the optimal multiplier is always unique.
"""

from __future__ import annotations

import numpy as np

from .model import AgentSpec, ProblemInstance, ValidationError, _int

__all__ = ["random_instance"]

MAX_DIM = 3  # variables per agent: 1..MAX_DIM
MAX_M = 2    # coupling rows per agent: 1..MAX_M
MAX_IN = 2   # in-neighbors per agent: 0..MAX_IN
BOX = 50.0   # every box is [-BOX, BOX]


def random_instance(n_agents: int = 5, *, seed: int = 0,
                    diagonal: bool = True) -> ProblemInstance:
    """Random coupled instance with ``n_agents`` agents.

    Each agent gets 1..MAX_DIM variables, 1..MAX_M coupling rows, and up
    to ``MAX_IN`` in-neighbors.  ``diagonal`` switches the local costs
    between diagonal and dense symmetric positive definite.  Boxes are
    [-BOX, BOX]; feasibility is guaranteed by construction.  A non-integer
    ``n_agents`` or ``seed``, or fewer than one agent, raises ValidationError.
    """
    seed = _int(seed, "seed")
    if _int(n_agents, "n_agents") < 1:
        raise ValidationError("need at least one agent")
    for attempt in range(100):
        rng = np.random.default_rng(seed if attempt == 0 else (seed, attempt))
        inst = _draw(rng, n_agents, diagonal)
        G = inst.coupling_matrix
        if G.shape[0] <= G.shape[1]:
            svals = np.linalg.svd(G, compute_uv=False)
            if svals[-1] > 1e-6 * svals[0]:
                return inst
    raise RuntimeError(f"no well-posed instance found for seed {seed}")


def _draw(rng, n_agents, diagonal) -> ProblemInstance:
    ids = list(range(1, n_agents + 1))
    dims = {i: int(rng.integers(1, MAX_DIM + 1)) for i in ids}
    ms = {i: int(rng.integers(1, MAX_M + 1)) for i in ids}
    u0 = {i: rng.uniform(-1.0, 1.0, dims[i]) for i in ids}

    agents = []
    for i in ids:
        n, m = dims[i], ms[i]
        others = [j for j in ids if j != i]
        k = int(rng.integers(0, min(MAX_IN, len(others)) + 1)) if others else 0
        nbrs = sorted(rng.choice(others, size=k, replace=False).tolist()) if k else []
        blocks = {i: rng.uniform(-1.0, 1.0, (m, n)) + 1.5 * np.eye(m, n)}
        for j in nbrs:
            blocks[j] = rng.uniform(-1.0, 1.0, (m, dims[j]))
        g = blocks[i] @ u0[i]
        for j in nbrs:
            g = g + blocks[j] @ u0[j]
        if diagonal:
            diag, Q = rng.uniform(0.5, 2.0, n), None
        else:
            A = rng.normal(size=(n, n))
            diag, Q = None, A.T @ A / n + 0.5 * np.eye(n)
        agents.append(AgentSpec(
            id=i, dim=n, Q=Q, c=rng.uniform(-1.0, 1.0, n),
            lo=np.full(n, -BOX), hi=np.full(n, BOX),
            m=m, g=g, blocks=blocks, diag=diag,
        ))
    return ProblemInstance(agents=tuple(agents))
