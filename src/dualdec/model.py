"""Problem data model: agents, coupling blocks, influence graph.

Everything in this package operates on one problem shape,

    minimize    sum_i  1/2 u_i' Q_i u_i + c_i' u_i
    subject to  G_i^i u_i + sum_{j in N_i} G_i^j u_j = g_i     for each agent i
                lo_i <= u_i <= hi_i,

where every coupling block of equations is owned by exactly one agent.
Agent j enters agent i's block through the matrix ``G_i^j``; the induced
directed structure (who shows up in whose block) is what the rest of the
code calls the influence graph.  ``N_i`` are the in-neighbors of agent i
(their decisions enter i's block) and ``M_i`` the out-neighborhood
(the agents whose blocks contain u_i, always including i itself).

Instances are immutable after construction.  Feasibility of the coupling
equations is *not* validated here; use the oracle module for that.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np
import scipy.sparse as sp

__all__ = [
    "ValidationError",
    "AgentSpec",
    "InfluenceGraph",
    "ProblemInstance",
    "derive_graph",
    "load_instance",
    "save_instance",
    "instance_from_dict",
    "instance_to_dict",
    "primal_cost",
    "constraint_residual",
    "blocks_to_csr",
]

_SYM_TOL = 1e-12
_PD_TOL = 1e-12

_AGENT_KEYS = {"id", "dim", "Q", "c", "lo", "hi", "m", "g", "blocks"}


class ValidationError(ValueError):
    """A problem file or instance violates the schema or an invariant."""


def blocks_to_csr(shape: tuple[int, int], blocks) -> sp.csr_array:
    """CSR matrix holding the nonzeros of dense ``(row, col, B)`` blocks at those offsets."""
    # the empty first parts make a matrix with no blocks an all-zero one
    rows, cols, vals = [np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=np.intp)], [np.zeros(0)]
    for r0, c0, B in blocks:
        r, c = np.nonzero(B)
        rows.append(r + r0)
        cols.append(c + c0)
        vals.append(B[r, c])
    return sp.csr_array((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                        shape=shape)


def _farray(x, name: str) -> np.ndarray:
    try:
        arr = np.array(x, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name}: not numeric") from exc
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class AgentSpec:
    """One agent: local cost, box, and the coupling block it owns.

    ``Q`` is always stored dense; ``diag`` keeps the diagonal when the
    cost was declared diagonal, which unlocks closed-form local solves.
    ``blocks`` maps an agent id j to the matrix G_i^j (shape m x n_j);
    the key equal to ``id`` is the agent's own block G_i^i.
    """

    id: int
    dim: int
    Q: np.ndarray
    c: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    m: int
    g: np.ndarray
    blocks: dict[int, np.ndarray] = field(default_factory=dict)
    diag: np.ndarray | None = None

    def __post_init__(self):
        if not isinstance(self.id, (int, np.integer)) or isinstance(self.id, bool):
            raise ValidationError(f"agent id {self.id!r} is not an integer")
        if self.id < 0:
            raise ValidationError(f"agent {self.id}: negative ids are not supported")
        if not isinstance(self.dim, (int, np.integer)) or self.dim < 1:
            raise ValidationError(f"agent {self.id}: dim must be a positive integer")
        object.__setattr__(self, "id", int(self.id))
        object.__setattr__(self, "dim", int(self.dim))
        n = self.dim

        if self.diag is not None:
            d = _farray(self.diag, f"agent {self.id}: Q diag")
            if d.shape != (n,):
                raise ValidationError(f"agent {self.id}: Q diag has shape {d.shape}, expected ({n},)")
            object.__setattr__(self, "diag", d)
            Q = np.diag(d)
            Q.setflags(write=False)
            object.__setattr__(self, "Q", Q)
        else:
            Q = _farray(self.Q, f"agent {self.id}: Q")
            if Q.shape != (n, n):
                raise ValidationError(f"agent {self.id}: Q has shape {Q.shape}, expected ({n}, {n})")
            object.__setattr__(self, "Q", Q)
        if not np.all(np.isfinite(self.Q)):
            raise ValidationError(f"agent {self.id}: Q has non-finite entries")
        scale = 1.0 + float(np.abs(self.Q).max())
        if float(np.abs(self.Q - self.Q.T).max()) > _SYM_TOL * scale:
            raise ValidationError(f"agent {self.id}: Q is not symmetric")

        for name in ("c", "lo", "hi"):
            v = _farray(getattr(self, name), f"agent {self.id}: {name}")
            if v.shape != (n,):
                raise ValidationError(f"agent {self.id}: {name} has shape {v.shape}, expected ({n},)")
            object.__setattr__(self, name, v)
        if not np.all(np.isfinite(self.c)):
            raise ValidationError(f"agent {self.id}: c has non-finite entries")
        if not (np.all(np.isfinite(self.lo)) and np.all(np.isfinite(self.hi))):
            raise ValidationError(f"agent {self.id}: box bounds must be finite")
        if np.any(self.lo > self.hi):
            raise ValidationError(f"agent {self.id}: lo > hi somewhere")

        if not isinstance(self.m, (int, np.integer)) or self.m < 0:
            raise ValidationError(f"agent {self.id}: m must be a non-negative integer")
        object.__setattr__(self, "m", int(self.m))
        g = _farray(self.g, f"agent {self.id}: g")
        if g.shape != (self.m,):
            raise ValidationError(f"agent {self.id}: g has shape {g.shape}, expected ({self.m},)")
        if not np.all(np.isfinite(g)):
            raise ValidationError(f"agent {self.id}: g has non-finite entries")
        object.__setattr__(self, "g", g)

        blocks = {}
        for j, B in dict(self.blocks).items():
            if not isinstance(j, (int, np.integer)) or isinstance(j, bool):
                raise ValidationError(f"agent {self.id}: block key {j!r} is not an integer")
            B = _farray(B, f"agent {self.id}: block for {j}")
            if B.ndim != 2 or B.shape[0] != self.m:
                raise ValidationError(
                    f"agent {self.id}: block for {j} has shape {B.shape}, expected ({self.m}, n_{j})"
                )
            if not np.all(np.isfinite(B)):
                raise ValidationError(f"agent {self.id}: block for {j} has non-finite entries")
            blocks[int(j)] = B
        object.__setattr__(self, "blocks", blocks)

        if self.m > 0:
            if self.id not in blocks:
                raise ValidationError(f"agent {self.id}: missing diagonal block G_i^i")
            own = blocks[self.id]
            if own.shape[1] != n:
                raise ValidationError(
                    f"agent {self.id}: diagonal block has {own.shape[1]} columns, expected {n}"
                )
            if not np.any(own):
                raise ValidationError(f"agent {self.id}: zero diagonal block")
            for j, B in blocks.items():
                if j != self.id and not np.any(B):
                    raise ValidationError(f"agent {self.id}: zero coupling block for agent {j}")
        elif blocks:
            raise ValidationError(f"agent {self.id}: m=0 but blocks declared")

    @cached_property
    def sigma(self) -> float:
        """Strong-convexity modulus: the smallest eigenvalue of Q."""
        if self.diag is not None:
            s = float(self.diag.min())
        else:
            s = float(np.linalg.eigvalsh(self.Q)[0])
        if s <= _PD_TOL:
            raise ValidationError(f"agent {self.id}: Q is not positive definite (min eig {s:.3e})")
        return s

    @property
    def is_diagonal(self) -> bool:
        return self.diag is not None

    def cost(self, u: np.ndarray) -> float:
        u = np.asarray(u, dtype=float)
        if self.diag is not None:
            quad = 0.5 * float(np.dot(u, self.diag * u))
        else:
            quad = 0.5 * float(u @ self.Q @ u)
        return quad + float(np.dot(self.c, u))

    def grad_cost(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        if self.diag is not None:
            return self.diag * u + self.c
        return self.Q @ u + self.c


@dataclass(frozen=True)
class InfluenceGraph:
    """Directed neighbor sets derived from the block maps.

    ``in_neighbors[i]``  = N_i, agents whose decisions enter i's block.
    ``out_neighbors[i]`` = M_i = {i} union {j : i in N_j}.
    """

    in_neighbors: dict[int, tuple[int, ...]]
    out_neighbors: dict[int, tuple[int, ...]]


def derive_graph(agents) -> InfluenceGraph:
    """Read N_i off each agent's block keys and invert for M_i."""
    ids = sorted(a.id for a in agents)
    n_in = {a.id: tuple(sorted(j for j in a.blocks if j != a.id)) for a in agents}
    out = {i: {i} for i in ids}
    for i, nbrs in n_in.items():
        for j in nbrs:
            out[j].add(i)
    return InfluenceGraph(
        in_neighbors=n_in,
        out_neighbors={i: tuple(sorted(s)) for i, s in out.items()},
    )


@dataclass(frozen=True)
class ProblemInstance:
    """A validated, immutable collection of agents plus the derived graph."""

    agents: tuple[AgentSpec, ...]
    graph: InfluenceGraph = field(default=None, repr=False)

    def __post_init__(self):
        agents = tuple(sorted(self.agents, key=lambda a: a.id))
        if not agents:
            raise ValidationError("instance has no agents")
        ids = [a.id for a in agents]
        if len(set(ids)) != len(ids):
            raise ValidationError("duplicate agent ids")
        dims = {a.id: a.dim for a in agents}
        for a in agents:
            for j, B in a.blocks.items():
                if j not in dims:
                    raise ValidationError(f"agent {a.id}: block references unknown agent {j}")
                if B.shape[1] != dims[j]:
                    raise ValidationError(
                        f"agent {a.id}: block for {j} has {B.shape[1]} columns, expected {dims[j]}"
                    )
        object.__setattr__(self, "agents", agents)
        object.__setattr__(self, "graph", derive_graph(agents))
        for a in agents:
            a.sigma  # force the PD check at load time

    # -- indexing ---------------------------------------------------------

    @cached_property
    def ids(self) -> tuple[int, ...]:
        return tuple(a.id for a in self.agents)

    @cached_property
    def _by_id(self) -> dict[int, AgentSpec]:
        return {a.id: a for a in self.agents}

    def agent(self, i: int) -> AgentSpec:
        return self._by_id[i]

    @cached_property
    def n_total(self) -> int:
        return sum(a.dim for a in self.agents)

    @cached_property
    def m_total(self) -> int:
        return sum(a.m for a in self.agents)

    @cached_property
    def _u_offsets(self) -> dict[int, slice]:
        out, pos = {}, 0
        for a in self.agents:
            out[a.id] = slice(pos, pos + a.dim)
            pos += a.dim
        return out

    @cached_property
    def _m_offsets(self) -> dict[int, slice]:
        out, pos = {}, 0
        for a in self.agents:
            out[a.id] = slice(pos, pos + a.m)
            pos += a.m
        return out

    def u_slice(self, i: int) -> slice:
        """Columns of agent i inside a stacked decision vector."""
        return self._u_offsets[i]

    def lam_slice(self, i: int) -> slice:
        """Rows of agent i's block inside a stacked multiplier vector."""
        return self._m_offsets[i]

    # -- stacked views ----------------------------------------------------

    @cached_property
    def coupling_matrix(self) -> np.ndarray:
        """Full coupling matrix: row block i holds G_i^j in j's columns."""
        A = np.zeros((self.m_total, self.n_total))
        for a in self.agents:
            rows = self._m_offsets[a.id]
            for j, B in a.blocks.items():
                A[rows, self._u_offsets[j]] = B
        A.setflags(write=False)
        return A

    def _coupling_blocks(self, transpose: bool):
        for a in self.agents:
            r0 = self._m_offsets[a.id].start
            for j, B in a.blocks.items():
                c0 = self._u_offsets[j].start
                yield (c0, r0, B.T) if transpose else (r0, c0, B)

    @cached_property
    def coupling_csr(self) -> sp.csr_array:
        """``coupling_matrix`` in CSR form, built from the blocks."""
        return blocks_to_csr((self.m_total, self.n_total), self._coupling_blocks(False))

    @cached_property
    def coupling_csr_T(self) -> sp.csr_array:
        """Transpose of ``coupling_csr``, held as its own CSR matrix."""
        return blocks_to_csr((self.n_total, self.m_total), self._coupling_blocks(True))

    @cached_property
    def g_vec(self) -> np.ndarray:
        v = np.concatenate([a.g for a in self.agents]) if self.m_total else np.zeros(0)
        v.setflags(write=False)
        return v

    @cached_property
    def c_vec(self) -> np.ndarray:
        v = np.concatenate([a.c for a in self.agents])
        v.setflags(write=False)
        return v

    @cached_property
    def lo_vec(self) -> np.ndarray:
        v = np.concatenate([a.lo for a in self.agents])
        v.setflags(write=False)
        return v

    @cached_property
    def hi_vec(self) -> np.ndarray:
        v = np.concatenate([a.hi for a in self.agents])
        v.setflags(write=False)
        return v

    @cached_property
    def qdiag_vec(self) -> np.ndarray | None:
        """Stacked cost diagonal, or None when any agent has a dense Q."""
        if all(a.is_diagonal for a in self.agents):
            v = np.concatenate([a.diag for a in self.agents])
            v.setflags(write=False)
            return v
        return None

    @cached_property
    def _out_stacks(self) -> dict[int, np.ndarray]:
        out = {}
        for a in self.agents:
            rows = [self.agent(j).blocks[a.id] for j in self.graph.out_neighbors[a.id]
                    if self.agent(j).m > 0]
            S = np.vstack(rows) if rows else np.zeros((0, a.dim))
            S.setflags(write=False)
            out[a.id] = S
        return out

    def out_stack(self, i: int) -> np.ndarray:
        """col{G_j^i : j in M_i ascending}: every row that touches u_i."""
        return self._out_stacks[i]

    @cached_property
    def _out_slices(self) -> dict[int, list[tuple[int, slice]]]:
        out = {}
        for a in self.agents:
            entries, pos = [], 0
            for j in self.graph.out_neighbors[a.id]:
                mj = self.agent(j).m
                entries.append((j, slice(pos, pos + mj)))
                pos += mj
            out[a.id] = entries
        return out

    def out_slices(self, i: int) -> list[tuple[int, slice]]:
        """Row ranges of ``out_stack(i)`` per out-neighbor, ascending id."""
        return self._out_slices[i]


def primal_cost(instance: ProblemInstance, u: np.ndarray) -> float:
    """Total separable cost sum_i 1/2 u_i' Q_i u_i + c_i' u_i."""
    u = np.asarray(u, dtype=float)
    if u.shape != (instance.n_total,):
        raise ValidationError(f"u has shape {u.shape}, expected ({instance.n_total},)")
    d = instance.qdiag_vec
    if d is not None:
        return 0.5 * float(np.dot(u, d * u)) + float(np.dot(instance.c_vec, u))
    return sum(a.cost(u[instance.u_slice(a.id)]) for a in instance.agents)


def constraint_residual(instance: ProblemInstance, u: np.ndarray):
    """Stacked coupling residual and its Euclidean norm.

    Block i of the returned vector is G_i^i u_i + sum_j G_i^j u_j - g_i.
    """
    u = np.asarray(u, dtype=float)
    if u.shape != (instance.n_total,):
        raise ValidationError(f"u has shape {u.shape}, expected ({instance.n_total},)")
    res = instance.coupling_matrix @ u - instance.g_vec
    return res, float(np.linalg.norm(res))


# -- JSON round trip -------------------------------------------------------

def _agent_from_dict(d: dict) -> AgentSpec:
    if not isinstance(d, dict):
        raise ValidationError("agent entry is not an object")
    missing = _AGENT_KEYS - set(d)
    if missing:
        raise ValidationError(f"agent entry missing fields: {sorted(missing)}")
    extra = set(d) - _AGENT_KEYS
    if extra:
        raise ValidationError(f"agent entry has unknown fields: {sorted(extra)}")
    q = d["Q"]
    diag = None
    if isinstance(q, dict):
        if set(q) != {"diag"}:
            raise ValidationError(f"agent {d['id']}: Q object must have exactly the key 'diag'")
        diag = q["diag"]
        q = None
    blocks = {}
    if not isinstance(d["blocks"], dict):
        raise ValidationError(f"agent {d['id']}: blocks must be an object")
    for key, B in d["blocks"].items():
        try:
            j = int(key)
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"agent {d['id']}: block key {key!r} is not an integer") from exc
        blocks[j] = B
    return AgentSpec(
        id=d["id"], dim=d["dim"], Q=q if q is not None else np.zeros((0, 0)),
        c=d["c"], lo=d["lo"], hi=d["hi"], m=d["m"], g=d["g"],
        blocks=blocks, diag=diag,
    )


def instance_from_dict(data: dict) -> ProblemInstance:
    if not isinstance(data, dict) or set(data) != {"agents"}:
        raise ValidationError("top level must be an object with exactly the key 'agents'")
    if not isinstance(data["agents"], list) or not data["agents"]:
        raise ValidationError("'agents' must be a non-empty list")
    return ProblemInstance(agents=tuple(_agent_from_dict(d) for d in data["agents"]))


def load_instance(path) -> ProblemInstance:
    """Parse and validate a problem JSON file."""
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: invalid JSON ({exc})") from exc
    return instance_from_dict(data)


def instance_to_dict(instance: ProblemInstance) -> dict:
    agents = []
    for a in instance.agents:
        q = {"diag": a.diag.tolist()} if a.is_diagonal else a.Q.tolist()
        agents.append({
            "id": a.id, "dim": a.dim, "Q": q, "c": a.c.tolist(),
            "lo": a.lo.tolist(), "hi": a.hi.tolist(), "m": a.m, "g": a.g.tolist(),
            "blocks": {str(j): B.tolist() for j, B in sorted(a.blocks.items())},
        })
    return {"agents": agents}


def save_instance(instance: ProblemInstance, path) -> None:
    Path(path).write_text(json.dumps(instance_to_dict(instance), indent=1) + "\n")
