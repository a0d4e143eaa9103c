"""Multi-period DC optimal power flow as a coupled instance.

Every bus becomes one agent.  Over a horizon of h steps, a generating
bus owns decision variables (P_1..P_h, psi_1..psi_h) and a load-only bus
just its voltage angles (psi_1..psi_h).  The nodal balance at bus i and
step t,

    P_i,t - sum_{j ~ i} B_ij (psi_i,t - psi_j,t) = demand_i,t,

is the coupling block owned by bus i, so a bus's in/out-neighbors are
exactly its electrical neighbors.  Generation cost is quadratic
(a P^2 + b P, a > 0); a small quadratic angle regularization eps_psi
keeps every local cost strongly convex.  The reference bus has its
angles pinned to zero through a degenerate box.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (AgentSpec, ProblemInstance, ValidationError, _check_fields, _farray, _field,
                    _int, _read_json, _real)

__all__ = ["Bus", "Branch", "Generator", "OpfCase", "load_case", "build_opf_instance"]

_ENTRY_KEYS = {"buses": {"id", "demand"}, "branches": {"from", "to", "b"},
               "generators": {"bus", "a", "b", "pmax"}}
_CASE_KEYS = {"h", "ref_bus", "eps_psi", "psi_max"} | _ENTRY_KEYS.keys()


def _coerce(record, what: str, ints=(), floats=()) -> None:
    """Store a frozen record's integer and float fields as int and float."""
    for name in ints:
        object.__setattr__(record, name, _int(getattr(record, name), f"{what} {name}"))
    for name in floats:
        # _farray rejects a bool or a string, and _real what is left that is
        # no real number, such as None (JSON null), which _farray reads as NaN
        x = getattr(record, name)
        if _farray(x, f"{what} {name}").ndim:
            raise ValidationError(f"{what} {name}: not a number")
        object.__setattr__(record, name, _real(x, f"{what} {name}"))


@dataclass(frozen=True)
class Bus:
    id: int
    demand: np.ndarray  # length h, nonnegative

    def __post_init__(self):
        _coerce(self, "bus", ints=("id",))
        object.__setattr__(self, "demand", _field(self.demand, f"bus {self.id}: demand", (-1,)))


@dataclass(frozen=True)
class Branch:
    i: int
    j: int
    b: float  # susceptance

    def __post_init__(self):
        _coerce(self, "branch", ints=("i", "j"), floats=("b",))


@dataclass(frozen=True)
class Generator:
    bus: int
    a: float
    b: float
    pmax: float

    def __post_init__(self):
        _coerce(self, "generator", ints=("bus",), floats=("a", "b", "pmax"))


@dataclass(frozen=True)
class OpfCase:
    """A dispatch case, validated on construction."""

    buses: tuple[Bus, ...]
    branches: tuple[Branch, ...]
    generators: tuple[Generator, ...]
    h: int
    ref_bus: int
    eps_psi: float
    psi_max: float

    def __post_init__(self):
        _coerce(self, "case", ints=("h", "ref_bus"), floats=("eps_psi", "psi_max"))
        if self.h < 1:
            raise ValidationError(f"horizon must be >= 1, got {self.h}")
        ids = [b.id for b in self.buses]
        if not ids:
            raise ValidationError("case has no buses")
        if len(set(ids)) != len(ids):
            raise ValidationError("duplicate bus ids")
        id_set = set(ids)
        for b in self.buses:
            if len(b.demand) != self.h:
                raise ValidationError(f"bus {b.id}: demand has length {len(b.demand)}, "
                                      f"expected {self.h}")
            if np.any(b.demand < 0):
                raise ValidationError(f"bus {b.id}: demand must be nonnegative")
        for br in self.branches:
            if br.i not in id_set or br.j not in id_set:
                raise ValidationError(f"branch ({br.i}, {br.j}) references an unknown bus")
            if br.i == br.j:
                raise ValidationError(f"branch ({br.i}, {br.j}) is a self-loop")
            if br.b == 0 or not np.isfinite(br.b):
                raise ValidationError(f"branch ({br.i}, {br.j}): zero susceptance")
        seen = set()
        for gen in self.generators:
            if gen.bus not in id_set:
                raise ValidationError(f"generator references unknown bus {gen.bus}")
            if gen.bus in seen:
                raise ValidationError(
                    f"bus {gen.bus} has more than one generator; aggregate them into one"
                )
            seen.add(gen.bus)
            if not (gen.a > 0 and np.isfinite(gen.a) and np.isfinite(gen.b)):
                raise ValidationError(f"generator at bus {gen.bus}: need a > 0 and finite cost")
            if not (gen.pmax > 0 and np.isfinite(gen.pmax)):
                raise ValidationError(f"generator at bus {gen.bus}: need pmax > 0")
        if self.ref_bus not in id_set:
            raise ValidationError(f"reference bus {self.ref_bus} not in the case")
        if not (self.eps_psi > 0 and np.isfinite(self.eps_psi)):
            raise ValidationError("eps_psi must be positive")
        if not (self.psi_max > 0 and np.isfinite(self.psi_max)):
            raise ValidationError("psi_max must be positive")
        # connectivity over the branch graph
        adj = {i: set() for i in ids}
        for br in self.branches:
            adj[br.i].add(br.j)
            adj[br.j].add(br.i)
        stack, seen_b = [ids[0]], {ids[0]}
        while stack:
            for j in adj[stack.pop()]:
                if j not in seen_b:
                    seen_b.add(j)
                    stack.append(j)
        if seen_b != id_set:
            raise ValidationError(
                f"network graph is disconnected (unreached buses: {sorted(id_set - seen_b)})"
            )


def load_case(path) -> OpfCase:
    """Parse and validate an OPF case JSON file."""
    data = _read_json(path)
    _check_fields(data, _CASE_KEYS, "case file")
    for name, keys in _ENTRY_KEYS.items():
        if not isinstance(data[name], list):
            raise ValidationError(f"case file field {name!r} is not a list")
        for n, entry in enumerate(data[name]):
            _check_fields(entry, keys, f"malformed case entry {name}[{n}]")
    buses = tuple(Bus(id=b["id"], demand=b["demand"]) for b in data["buses"])
    branches = tuple(Branch(i=br["from"], j=br["to"], b=br["b"]) for br in data["branches"])
    gens = tuple(Generator(bus=g["bus"], a=g["a"], b=g["b"], pmax=g["pmax"])
                 for g in data["generators"])
    return OpfCase(buses=buses, branches=branches, generators=gens,
                   h=data["h"], ref_bus=data["ref_bus"],
                   eps_psi=data["eps_psi"], psi_max=data["psi_max"])


def build_opf_instance(case: OpfCase) -> ProblemInstance:
    """Translate a case into the coupled quadratic form, one agent per bus."""
    h, t = case.h, np.arange(case.h)
    gen_at = {g.bus: g for g in case.generators}
    # accumulated susceptance between bus pairs (parallel branches add up)
    nbrs = {b.id: {} for b in case.buses}
    for br in case.branches:
        nbrs[br.i][br.j] = nbrs[br.j][br.i] = nbrs[br.i].get(br.j, 0.0) + br.b
    psi0 = {b.id: (h if b.id in gen_at else 0) for b in case.buses}  # first angle column of u_i

    agents = []
    for bus in case.buses:
        i, gen = bus.id, gen_at.get(bus.id)
        own = np.zeros((h, psi0[i] + h))
        own[t, psi0[i] + t] = -sum(nbrs[i].values())
        blocks = {i: own}
        for j, b in nbrs[i].items():
            blocks[j] = np.zeros((h, psi0[j] + h))
            blocks[j][t, psi0[j] + t] = b
        # the angle columns, which a generating bus's power columns precede
        diag, c = np.full(h, 2.0 * case.eps_psi), np.zeros(h)
        lo, hi = np.full(h, -case.psi_max), np.full(h, case.psi_max)
        if i == case.ref_bus:  # its angles are pinned to zero
            lo[:] = hi[:] = 0.0
        if gen:
            own[t, t] = 1.0
            diag = np.concatenate([np.full(h, 2.0 * gen.a), diag])
            c = np.concatenate([np.full(h, gen.b), c])
            lo = np.concatenate([np.zeros(h), lo])
            hi = np.concatenate([np.full(h, gen.pmax), hi])
        agents.append(AgentSpec(id=i, dim=psi0[i] + h, Q=None, c=c, lo=lo, hi=hi,
                                m=h, g=bus.demand.copy(), blocks=blocks, diag=diag))
    return ProblemInstance(agents=tuple(agents))
