"""In-memory spans around the calls into dualdec's modules.

``Tracer.install`` replaces the public functions below at the module
attributes where their callers look them up, so every call made through
them (by the benchmark, or inside dualdec through a module-level name)
records a span: name, start, end and the enclosing span.  Spans stay in
flat arrays until ``write`` saves them; ``uninstall`` puts the original
functions back, so untraced runs execute the program unchanged.

Observers attached to the solver drivers also read counts off each
returned ``RunTrace`` (rounds, steps fired, link draws, trace bytes),
because the drivers keep those inside their own loops.
"""

from __future__ import annotations

import importlib
import json
import time
from array import array

import numpy as np

# (module, attribute, span name).  ``engine.solve_local`` and
# ``engine.eval_dual`` are the names the drivers' loops resolve at call
# time, so wrapping them catches every local solve and logging re-solve
# made by the engine and none made by the oracle.
TARGETS = (
    ("dualdec.cli", "main", "cli.main"),
    ("dualdec.engine", "run_alg1", "engine.run_alg1"),
    ("dualdec.engine", "run_alg2", "engine.run_alg2"),
    ("dualdec.engine", "run_unaccelerated", "engine.run_unaccelerated"),
    ("dualdec.engine", "eval_dual", "engine.eval_dual"),
    ("dualdec.engine", "solve_local", "subsolver.solve_local"),
    ("dualdec.netsim", "build_network", "netsim.build_network"),
    ("dualdec.stepsize", "build_stepsizes", "stepsize.build_stepsizes"),
    ("dualdec.oracle", "solve_kkt", "oracle.solve_kkt"),
    ("dualdec.opf", "build_opf_instance", "opf.build_opf_instance"),
    ("dualdec.synth", "random_instance", "synth.random_instance"),
)

RUN_SPANS = ("engine.run_alg1", "engine.run_alg2", "engine.run_unaccelerated")


def run_counts(args, trace) -> dict:
    """Counts read off one driver call: its arguments and returned RunTrace."""
    # run_alg2 / run_unaccelerated take the network third; run_alg1 has none
    network = args[2] if len(args) > 2 and hasattr(args[2], "edges") else None
    inst = trace.instance
    arrays = (trace.theta, trace.q, trace.residual, trace.updates, trace.lam,
              trace.gap, trace.V, trace.u_final)
    return {
        "rounds": trace.iters,
        "fired": int(trace.updates.sum()),
        "agent_iters": int(trace.updates.size),
        "alpha_iters": float(trace.iters * trace.alpha.sum()),
        "link_draws": trace.iters * (len(network.edges) if network is not None else 0),
        "trace_bytes": sum(a.nbytes for a in arrays if a is not None),
        "coupling_bytes": inst.m_total * inst.n_total * 8,
    }


class Tracer:
    """Span recorder; ``clock`` is injectable so tests can script the times."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[int, dict] = {}  # span index -> run_counts of that driver call
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.name)

    def wrap(self, span_name: str, fn, observe=None):
        if span_name not in self._name_id:
            self._name_id[span_name] = len(self.names)
            self.names.append(span_name)
        nid = self._name_id[span_name]

        def traced(*args, **kwargs):
            idx = len(self.name)
            self.name.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.start.append(0.0)
            self.end.append(0.0)
            self._stack.append(idx)
            t0 = self.clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = self.clock()
                self._stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if observe is not None:
                self.counts[idx] = observe(args, out)
            return out

        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for mod_name, attr, span_name in TARGETS:
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self.wrap(span_name, fn,
                                         run_counts if span_name in RUN_SPANS else None))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def self_times(self) -> np.ndarray:
        """Duration of each span minus the durations of its direct children.

        Spans come from one thread and nest, so the children of a span
        cover disjoint parts of its interval.
        """
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return dur - child

    def totals(self, lo: int = 0, hi: int | None = None) -> dict[str, dict]:
        """Per span name over spans lo..hi-1: calls, total seconds, self seconds."""
        hi = len(self) if hi is None else hi
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        selft = self.self_times()
        out = {n: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for n in self.names}
        for idx in range(lo, hi):
            row = out[self.names[self.name[idx]]]
            row["calls"] += 1
            row["total_s"] += float(dur[idx])
            row["self_s"] += float(selft[idx])
        return out

    def run_counts_in(self, lo: int, hi: int) -> list[dict]:
        return [c for idx, c in sorted(self.counts.items()) if lo <= idx < hi]

    def write(self, path, extra: dict) -> None:
        """Save every span as columns: name, parent index, start, end, self time."""
        data = dict(extra)
        data["names"] = self.names
        data["spans"] = {
            "name": self.name.tolist(),
            "parent": self.parent.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "self": self.self_times().tolist(),
        }
        data["run_counts"] = {str(k): v for k, v in sorted(self.counts.items())}
        with open(path, "w") as fh:
            json.dump(data, fh)
