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

import itertools
import json
import numbers
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

__all__ = [
    "ValidationError",
    "AgentSpec",
    "AgentStack",
    "StackWork",
    "InfluenceGraph",
    "ProblemInstance",
    "load_instance",
    "save_instance",
    "instance_from_dict",
    "instance_to_dict",
    "primal_cost",
    "blocks_to_csr",
]

_SYM_TOL = 1e-12
_PD_TOL = 1e-12

_AGENT_KEYS = {"id", "dim", "Q", "c", "lo", "hi", "m", "g", "blocks"}


class ValidationError(ValueError):
    """A problem file or instance violates the schema or an invariant."""


def blocks_to_csr(shape: tuple[int, int], blocks) -> sp.csr_array:
    """CSR matrix holding the nonzeros of dense ``(row, col, B)`` blocks at those offsets.

    The blocks must not overlap.  All blocks are flattened into one
    vector, so their nonzeros are found, placed and sorted in a few
    array passes rather than per block.
    """
    blocks = list(blocks)
    flat = np.concatenate([np.zeros(0)] + [np.ravel(B) for _, _, B in blocks])
    r0, c0, width, size = np.array([(r, c, B.shape[1], B.size) for r, c, B in blocks],
                                   dtype=np.intp).reshape(-1, 4).T
    end = np.cumsum(size)
    nz = np.flatnonzero(flat)
    blk = np.searchsorted(end, nz, side="right")  # the block holding each nonzero
    off = nz - (end[blk] - size[blk])
    rows = r0[blk] + off // width[blk]
    cols = c0[blk] + off % width[blk]
    order = np.lexsort((cols, rows))
    indptr = np.zeros(shape[0] + 1, dtype=np.intp)
    np.cumsum(np.bincount(rows, minlength=shape[0]), out=indptr[1:])
    return sp.csr_array((flat[nz[order]], cols[order], indptr), shape=shape)


def _int(x, name: str) -> int:
    """``x`` as an int; a bool or anything else that is not an integer is rejected."""
    if isinstance(x, bool) or not isinstance(x, (int, np.integer)):
        raise ValidationError(f"{name} {x!r} is not an integer")
    return int(x)


def _real(x, name: str) -> float:
    """``x`` as a float; a bool or anything else that is not a real number is rejected."""
    if isinstance(x, bool) or not isinstance(x, numbers.Real):
        raise ValidationError(f"{name} {x!r} is not a number")
    return float(x)


def _non_numeric(x) -> bool:
    """Whether ``x`` is, or holds at any depth, a bool, a string or a None."""
    if isinstance(x, np.ndarray):
        return x.dtype.kind in "bSU" or (x.dtype.kind == "O" and any(map(_non_numeric, x.flat)))
    if isinstance(x, (list, tuple)):
        return any(map(_non_numeric, x))
    return x is None or isinstance(x, (bool, np.bool_, str, bytes))


def _farray(x, name: str) -> np.ndarray:
    """``x`` as a read-only float array; a bool, a string or a None anywhere
    in it (JSON's ``true``, ``"0.5"`` or ``null``) is rejected, not read as a
    number.  A lone None is read as NaN, for the caller to name."""
    if x is not None and _non_numeric(x):
        raise ValidationError(f"{name}: not numeric")
    try:
        arr = np.array(x, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name}: not numeric") from exc
    arr.setflags(write=False)
    return arr


def _field(x, name: str, shape: tuple[int, ...]) -> np.ndarray:
    """``_farray(x, name)`` of shape ``shape`` with every entry finite; a
    last entry -1 in ``shape`` takes any number of columns."""
    arr = _farray(x, name)
    if arr.shape != shape and (shape[-1] != -1 or arr.ndim != len(shape)
                               or arr.shape[:-1] != shape[:-1]):
        raise ValidationError(f"{name} has shape {arr.shape}, "
                              f"expected {str(shape).replace('-1', 'n')}")
    if not np.isfinite(arr).all():
        raise ValidationError(f"{name} has non-finite entries")
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
        object.__setattr__(self, "id", _int(self.id, "agent id"))
        if self.id < 0:
            raise ValidationError(f"agent {self.id}: negative ids are not supported")
        n = _int(self.dim, f"agent {self.id}: dim")
        if n < 1:
            raise ValidationError(f"agent {self.id}: dim must be a positive integer")
        object.__setattr__(self, "dim", n)

        if self.diag is not None:
            object.__setattr__(self, "diag", _field(self.diag, f"agent {self.id}: Q diag", (n,)))
            Q = np.diag(self.diag)
            Q.setflags(write=False)
            object.__setattr__(self, "Q", Q)
        else:
            object.__setattr__(self, "Q", _field(self.Q, f"agent {self.id}: Q", (n, n)))
        scale = 1.0 + float(np.abs(self.Q).max())
        if float(np.abs(self.Q - self.Q.T).max()) > _SYM_TOL * scale:
            raise ValidationError(f"agent {self.id}: Q is not symmetric")

        for name in ("c", "lo", "hi"):
            object.__setattr__(self, name, _field(getattr(self, name), f"agent {self.id}: {name}",
                                                  (n,)))
        if (self.lo > self.hi).any():
            raise ValidationError(f"agent {self.id}: lo > hi somewhere")

        object.__setattr__(self, "m", _int(self.m, f"agent {self.id}: m"))
        if self.m < 0:
            raise ValidationError(f"agent {self.id}: m must be a non-negative integer")
        object.__setattr__(self, "g", _field(self.g, f"agent {self.id}: g", (self.m,)))

        blocks = {}
        for j, B in dict(self.blocks).items():
            j = _int(j, f"agent {self.id}: block key")
            blocks[j] = _field(B, f"agent {self.id}: block for {j}", (self.m, -1))
        object.__setattr__(self, "blocks", blocks)

        if self.m > 0:
            if self.id not in blocks:
                raise ValidationError(f"agent {self.id}: missing diagonal block G_i^i")
            own = blocks[self.id]
            if own.shape[1] != n:
                raise ValidationError(
                    f"agent {self.id}: diagonal block has {own.shape[1]} columns, expected {n}"
                )
            if not own.any():
                raise ValidationError(f"agent {self.id}: zero diagonal block")
            for j, B in blocks.items():
                if j != self.id and not B.any():
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

    @cached_property
    def eig_max(self) -> float:
        """Largest eigenvalue of Q: the Lipschitz constant of the local gradient."""
        return float(np.linalg.eigvalsh(self.Q)[-1])

    @property
    def is_diagonal(self) -> bool:
        return self.diag is not None

    @cached_property
    def stack(self) -> AgentStack:
        """This agent alone as a stack of one, for the lock-step local solve."""
        return AgentStack((self,), np.arange(self.dim), [0])

    def cost(self, u: np.ndarray) -> float:
        u = np.asarray(u, dtype=float)
        if self.diag is not None:
            quad = 0.5 * float(np.dot(u, self.diag * u))
        else:
            quad = 0.5 * float(u @ self.Q @ u)
        return quad + float(np.dot(self.c, u))


def _stacked(rows) -> np.ndarray:
    x = np.array(list(rows), dtype=float)
    x.setflags(write=False)
    return x


def _flat(parts) -> np.ndarray:
    x = np.concatenate([np.zeros(0)] + list(parts))
    x.setflags(write=False)
    return x


class StackWork(NamedTuple):
    """One of a stack's work buffers: ``flat`` and, per group, views of it.

    ``cols`` and ``rows`` are the (k_d, d, 1) and (k_d, 1, d) operands a
    (k_d, d) array gives as ``x[:, :, None]`` and ``x[:, None, :]``;
    ``outs`` are (k_d, d, 1) product outputs laid out as a fresh array's.
    A buffer with one entry per agent has d = 1.
    """

    flat: np.ndarray
    cols: tuple[np.ndarray, ...]
    rows: tuple[np.ndarray, ...]
    outs: tuple[np.ndarray, ...]


@dataclass(frozen=True, eq=False)
class AgentStack:
    """Dense agents stacked for a lock-step local solve, whatever their dimensions.

    Agents of one dimension sit next to each other: each such run is a
    *group*, and ``groups`` gives per group the agents' slice, their
    elements' slice and their ``Q`` (k_d, d, d).  Per-agent arrays have
    one entry per agent (K,); per-element arrays hold the agents'
    coordinates agent after agent (N,).  ``cols`` (N,) lists those
    coordinates' columns in the instance's decision vector, and ``pos``
    (K,) the agents' positions in ``instance.agents``.  Each stacked
    array is built on first use, so evaluating costs does not pay for the
    eigenvalues that only the solver needs.
    """

    agents: tuple[AgentSpec, ...]
    cols: np.ndarray  # (N,)
    pos: np.ndarray   # (K,)

    def __post_init__(self):
        object.__setattr__(self, "agents", tuple(self.agents))
        for name in ("cols", "pos"):
            v = np.array(getattr(self, name), dtype=np.intp)
            v.setflags(write=False)
            object.__setattr__(self, name, v)

    @cached_property
    def ids(self) -> tuple[int, ...]:
        return tuple(a.id for a in self.agents)

    @cached_property
    def groups(self) -> tuple[tuple[slice, slice, np.ndarray], ...]:
        """(agent slice, element slice, Q (k_d, d, d)) per group."""
        groups, k0, e0 = [], 0, 0
        for d, run in itertools.groupby(a.dim for a in self.agents):
            k = len(list(run))
            groups.append((slice(k0, k0 + k), slice(e0, e0 + k * d),
                           _stacked(a.Q for a in self.agents[k0:k0 + k])))
            k0, e0 = k0 + k, e0 + k * d
        return tuple(groups)

    @cached_property
    def agent_of(self) -> np.ndarray:
        """(N,): the agent each element belongs to."""
        v = np.repeat(np.arange(len(self.agents)), [a.dim for a in self.agents])
        v.setflags(write=False)
        return v

    @cached_property
    def c(self) -> np.ndarray:
        """(N,)"""
        return _flat(a.c for a in self.agents)

    @cached_property
    def lo(self) -> np.ndarray:
        """(N,)"""
        return _flat(a.lo for a in self.agents)

    @cached_property
    def hi(self) -> np.ndarray:
        """(N,)"""
        return _flat(a.hi for a in self.agents)

    @cached_property
    def L(self) -> np.ndarray:
        """(N,): each agent's eig_max, the Lipschitz constant of its local
        gradient, over its coordinates.

        Reads every agent's ``sigma`` first, so a Q that is not positive
        definite raises ValidationError before any solve uses the stack.
        """
        for a in self.agents:
            a.sigma
        return _flat(np.full(a.dim, a.eig_max) for a in self.agents)

    def work(self, *names: str, per_agent: bool = False) -> tuple[StackWork, ...]:
        """The stack's work buffers of these names, of length N, or K when
        ``per_agent``.  Each is built once, written in place by its users,
        and never handed out as a result."""
        got = self._work.get((names, per_agent))
        if got is None:
            got = self._work[names, per_agent] = tuple(
                self._buffer(name, per_agent) for name in names)
        return got

    def _buffer(self, name: str, per_agent: bool) -> StackWork:
        w = self._work.get((name, per_agent))
        if w is None:
            flat = np.zeros(len(self.agents) if per_agent else len(self.cols))
            views = [flat[ks].reshape(-1, 1) if per_agent else flat[es].reshape(-1, Q.shape[-1])
                     for ks, es, Q in self.groups]
            w = self._work[name, per_agent] = StackWork(
                flat, tuple(v[:, :, None] for v in views), tuple(v[:, None, :] for v in views),
                tuple(v.reshape(*v.shape, 1) for v in views))
        return w

    @cached_property
    def _work(self) -> dict:
        """Work buffers by (name, per_agent), and tuples of them by (names, per_agent)."""
        return {}

    @cached_property
    def _c_rows(self) -> tuple[np.ndarray, ...]:
        """``c`` per group as (k_d, 1, d) rows."""
        return tuple(self.c[es].reshape(-1, Q.shape[-1])[:, None, :] for _, es, Q in self.groups)

    def repeat(self, p: int, n: int) -> AgentStack:
        """This stack p times over, for p decision vectors of length n laid
        end to end: group by group, row r * k_d + i of a group belongs to
        its agent i, at that agent's columns shifted by r * n, so each
        group stays one group.  One lock-step solve of it solves the stack
        at p pressures.  Only the last repeat built is kept: a logged run's
        pass asks for one width, and a batch of replicate columns for ever
        fewer, so no earlier width is asked for again."""
        if p == 1:
            return self
        rep = self._repeats.get((p, n))
        if rep is None:
            shift = n * np.arange(p)[:, None]
            idx = np.concatenate([np.tile(np.arange(ks.start, ks.stop), p)
                                  for ks, _, _ in self.groups])
            cols = np.concatenate([(self.cols[es] + shift).ravel() for _, es, _ in self.groups])
            self._repeats.clear()
            rep = self._repeats[p, n] = AgentStack([self.agents[i] for i in idx], cols,
                                                   self.pos[idx])
        return rep

    @cached_property
    def _repeats(self) -> dict[tuple[int, int], AgentStack]:
        return {}


@dataclass(frozen=True)
class InfluenceGraph:
    """Directed neighbor sets derived from the block maps.

    ``in_neighbors[i]``  = N_i, agents whose decisions enter i's block.
    ``out_neighbors[i]`` = M_i = {i} union {j : i in N_j}.
    """

    in_neighbors: dict[int, tuple[int, ...]]
    out_neighbors: dict[int, tuple[int, ...]]


def _slices(agents, sizes) -> dict[int, slice]:
    """Each agent's slice of a vector that holds ``sizes`` entries per agent, agent after agent."""
    ends = list(itertools.accumulate(sizes, initial=0))
    return {a.id: slice(s, e) for a, s, e in zip(agents, ends, ends[1:])}


@dataclass(frozen=True)
class ProblemInstance:
    """A validated, immutable collection of agents; everything else is derived."""

    agents: tuple[AgentSpec, ...]

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
        for a in agents:
            a.sigma  # force the PD check at load time

    @cached_property
    def graph(self) -> InfluenceGraph:
        """N_i read off each agent's block keys, and inverted for M_i."""
        n_in = {a.id: tuple(sorted(j for j in a.blocks if j != a.id)) for a in self.agents}
        out = {i: {i} for i in self.ids}
        for i, nbrs in n_in.items():
            for j in nbrs:
                out[j].add(i)
        return InfluenceGraph(in_neighbors=n_in,
                              out_neighbors={i: tuple(sorted(s)) for i, s in out.items()})

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
        return _slices(self.agents, (a.dim for a in self.agents))

    @cached_property
    def _m_offsets(self) -> dict[int, slice]:
        return _slices(self.agents, (a.m for a in self.agents))

    def u_slice(self, i: int) -> slice:
        """Columns of agent i inside a stacked decision vector."""
        return self._u_offsets[i]

    def lam_slice(self, i: int) -> slice:
        """Rows of agent i's block inside a stacked multiplier vector."""
        return self._m_offsets[i]

    # -- stacked views ----------------------------------------------------

    @cached_property
    def coupling_matrix(self) -> np.ndarray:
        """Full coupling matrix: row block i holds G_i^j in j's columns.

        Written from the same block list as ``coupling_csr``.  Densifying
        the CSR instead costs a sparse build, which ``random_instance``
        would pay on every draw it rejects.
        """
        A = np.zeros((self.m_total, self.n_total))
        for r0, c0, B in self._coupling_blocks():
            A[r0:r0 + B.shape[0], c0:c0 + B.shape[1]] = B
        A.setflags(write=False)
        return A

    def _coupling_blocks(self):
        for a in self.agents:
            r0 = self._m_offsets[a.id].start
            for j, B in a.blocks.items():
                yield r0, self._u_offsets[j].start, B

    @cached_property
    def coupling_csr(self) -> sp.csr_array:
        """``coupling_matrix`` in CSR form, built from the blocks."""
        return blocks_to_csr((self.m_total, self.n_total), self._coupling_blocks())

    @cached_property
    def coupling_csr_T(self) -> sp.csr_array:
        """Transpose of ``coupling_csr``, held as its own CSR matrix."""
        return self.coupling_csr.T.tocsr()

    @cached_property
    def g_vec(self) -> np.ndarray:
        return _flat(a.g for a in self.agents)

    @cached_property
    def c_vec(self) -> np.ndarray:
        return _flat(a.c for a in self.agents)

    @cached_property
    def lo_vec(self) -> np.ndarray:
        return _flat(a.lo for a in self.agents)

    @cached_property
    def hi_vec(self) -> np.ndarray:
        return _flat(a.hi for a in self.agents)

    def _columns(self, agents) -> np.ndarray:
        """The agents' columns in a stacked decision vector, agent after agent."""
        return np.concatenate([np.zeros(0, dtype=np.intp)] + [
            np.arange(self._u_offsets[a.id].start, self._u_offsets[a.id].stop)
            for a in agents])

    @cached_property
    def dense_stack(self) -> AgentStack | None:
        """The agents with a dense cost as one stack ordered by (dim, id),
        or None when every cost is diagonal."""
        dense = sorted((p for p, a in enumerate(self.agents) if not a.is_diagonal),
                       key=lambda p: self.agents[p].dim)
        if not dense:
            return None
        agents = [self.agents[p] for p in dense]
        return AgentStack(agents, self._columns(agents), dense)

    @cached_property
    def diag_columns(self) -> tuple[np.ndarray, np.ndarray]:
        """Columns of the agents with a diagonal cost, and their cost diagonal
        (the whole stacked diagonal when ``dense_stack`` is None)."""
        diag = [a for a in self.agents if a.is_diagonal]
        cols = self._columns(diag)
        cols.setflags(write=False)
        return cols, _flat(a.diag for a in diag)

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


def primal_cost(instance: ProblemInstance, u: np.ndarray) -> float:
    """Total separable cost sum_i 1/2 u_i' Q_i u_i + c_i' u_i.

    Dense costs are evaluated a group of the dense stack at a time with
    the same per-agent BLAS products as ``AgentSpec.cost`` and summed over
    agents in id order, so the total equals the per-agent sum bit for bit.
    """
    u = np.asarray(u, dtype=float)
    if u.shape != (instance.n_total,):
        raise ValidationError(f"u has shape {u.shape}, expected ({instance.n_total},)")
    st = instance.dense_stack
    if st is None:
        d = instance.diag_columns[1]  # every cost is diagonal: all columns, in order
        return 0.5 * float(np.dot(u, d * u)) + float(np.dot(instance.c_vec, u))
    cost = np.empty(len(instance.agents))
    (x,), (quad, lin) = st.work("x"), st.work("quad", "lin", per_agent=True)
    u.take(st.cols, out=x.flat)
    for (_, _, Q), row, col, c, q, ln in zip(st.groups, x.rows, x.cols, st._c_rows,
                                             quad.outs, lin.outs):
        np.matmul(row @ Q, col, out=q)
        np.matmul(c, col, out=ln)
    cost[st.pos] = 0.5 * quad.flat + lin.flat
    if len(instance.diag_columns[0]):
        for p, a in enumerate(instance.agents):
            if a.is_diagonal:
                cost[p] = a.cost(u[instance.u_slice(a.id)])
    return sum(cost.tolist())


# -- JSON round trip -------------------------------------------------------

def _read_json(path):
    """The JSON value in the file at ``path``; invalid JSON, or an object
    that repeats a key (``json.loads`` would keep the last), raises
    ValidationError."""
    def unique(pairs):
        d = dict(pairs)
        if len(d) < len(pairs):
            key = next(k for i, (k, _) in enumerate(pairs) if k in dict(pairs[:i]))
            raise ValidationError(f"{path}: an object repeats the key {key!r}")
        return d

    try:
        return json.loads(Path(path).read_text(), object_pairs_hook=unique)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: invalid JSON ({exc})") from exc


def _check_fields(d, keys: set[str], what: str) -> None:
    """Reject ``d`` unless it is a JSON object with exactly the fields ``keys``."""
    if not isinstance(d, dict):
        raise ValidationError(f"{what} is not an object")
    missing = keys - set(d)
    if missing:
        raise ValidationError(f"{what} missing fields: {sorted(missing)}")
    extra = set(d) - keys
    if extra:
        raise ValidationError(f"{what} has unknown fields: {sorted(extra)}")


def _agent_from_dict(d: dict) -> AgentSpec:
    _check_fields(d, _AGENT_KEYS, "agent entry")
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
        # one spelling per agent id: int() would read "02", " 2" and "+2" as 2
        if not (str(key).removeprefix("-").isdecimal() and str(int(key)) == str(key)):
            raise ValidationError(f"agent {d['id']}: block key {key!r} is not an agent id")
        blocks[int(key)] = B
    return AgentSpec(
        id=d["id"], dim=d["dim"], Q=q if q is not None else np.zeros((0, 0)),
        c=d["c"], lo=d["lo"], hi=d["hi"], m=d["m"], g=d["g"],
        blocks=blocks, diag=diag,
    )


def instance_from_dict(data: dict) -> ProblemInstance:
    _check_fields(data, {"agents"}, "top level")
    if not isinstance(data["agents"], list) or not data["agents"]:
        raise ValidationError("'agents' must be a non-empty list")
    return ProblemInstance(agents=tuple(_agent_from_dict(d) for d in data["agents"]))


def load_instance(path) -> ProblemInstance:
    """Parse and validate a problem JSON file."""
    return instance_from_dict(_read_json(path))


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
