"""The benchmark's three workloads: inputs from a seed, solver calls, output checks.

Each workload has ``setup(seed, workdir) -> state`` (inputs, step sizes,
networks, oracle reference), ``solve(state) -> result`` (the timed solver
calls, one closed loop in this process) and ``check(state, result) ->
Outcome``.  Every call into dualdec goes through a module attribute
(``engine.run_alg2``, ``synth.random_instance``, ...) so that the traced
run's wrappers see it.  See README.md for why each workload was chosen.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from dualdec import cli, engine, model, netsim, opf, oracle, stepsize, synth
from dualdec.model import ProblemInstance

import grid


@dataclass
class Outcome:
    """What one pass of a workload did: iterations, runs, converged runs, failed checks."""

    rounds: int
    runs: int
    converged: int
    errors: list[str] = field(default_factory=list)


# -- sweep-rand5 ------------------------------------------------------------

def check_sweep(rows, summary, gammas, seeds) -> list[str]:
    """Output checks on a montecarlo sweep.

    ``rows`` are (gamma, seed, iters, converged) from the per-run CSV and
    ``summary`` maps gamma -> median from the summary CSV.  Every
    (gamma, seed) row must be present once, every gamma=0 run must take
    the same number of iterations (no link ever fails), and the median
    must not decrease as gamma grows.
    """
    errors = []
    want = sorted((g, s) for g in gammas for s in seeds)
    got = sorted((g, s) for g, s, _, _ in rows)
    if got != want:
        errors.append(f"sweep rows: expected {len(want)} (gamma, seed) pairs, got {len(got)}"
                      " or a different set")
    zero = {it for g, _, it, _ in rows if g == 0.0}
    if len(zero) > 1:
        errors.append(f"gamma=0 runs disagree on the iteration count: {sorted(zero)}")
    if sorted(summary) != sorted(gammas):
        errors.append(f"summary gammas {sorted(summary)} != {sorted(gammas)}")
    else:
        med = [summary[g] for g in sorted(gammas)]
        if any(b < a for a, b in zip(med, med[1:])):
            errors.append(f"median iterations decrease as gamma grows: {med}")
    return errors


@dataclass
class SweepState:
    problem: Path
    out: Path
    seeds: list[int]


class SweepRand5:
    """Criterion 9's Monte Carlo failure-rate sweep through ``cli.main``.

    The benchmark's ``--seed s`` picks the replicate network seeds 20s .. 20s+19;
    the instance is always ``random_instance(5, seed=0)``.
    """

    name = "sweep-rand5"
    gammas = (0.0, 0.1, 0.3, 0.5)
    eps = 1e-6

    def __init__(self, runs: int = 20, max_iters: int = 1000):
        self.runs = runs
        self.max_iters = max_iters

    def setup(self, seed: int, workdir: Path) -> SweepState:
        inst = synth.random_instance(5, seed=0)
        problem = workdir / "rand5.json"
        model.save_instance(inst, problem)
        base = seed * self.runs
        return SweepState(problem=problem, out=workdir / "runs.csv",
                          seeds=list(range(base, base + self.runs)))

    def solve(self, st: SweepState) -> int:
        argv = ["montecarlo", "--problem", str(st.problem),
                "--gammas", ",".join(repr(g) for g in self.gammas),
                "--runs", str(self.runs), "--seed", str(st.seeds[0]),
                "--eps", repr(self.eps), "--max-iters", str(self.max_iters),
                "--out", str(st.out)]
        with contextlib.redirect_stdout(io.StringIO()):  # the summary table
            return cli.main(argv)

    def check(self, st: SweepState, rc: int) -> Outcome:
        if rc != 0:
            return Outcome(0, 0, 0, [f"montecarlo exited with code {rc}"])
        with open(st.out) as fh:
            rows = [(float(r["gamma"]), int(r["seed"]), int(r["iters"]), int(r["converged"]))
                    for r in csv.DictReader(fh)]
        with open(st.out.with_name(st.out.stem + ".summary.csv")) as fh:
            summary = {float(r["gamma"]): int(r["median"]) for r in csv.DictReader(fh)}
        errors = check_sweep(rows, summary, self.gammas, st.seeds)
        return Outcome(rounds=sum(r[2] for r in rows), runs=len(rows),
                       converged=sum(r[3] for r in rows), errors=errors)


# -- dispatch-grid ----------------------------------------------------------

def check_dispatch(traces, u_star, method, tol) -> list[str]:
    """Every run converged, max|u - u*| <= tol, and the oracle took the KKT route."""
    errors = []
    if method != "kkt":
        errors.append(f"solve_kkt took the {method!r} route, expected 'kkt'")
    for tr in traces:
        if not tr.converged:
            errors.append(f"{tr.algo} did not converge in {tr.iters} iterations")
        err = float(np.max(np.abs(tr.u_final - u_star)))
        if not err <= tol:
            errors.append(f"{tr.algo}: max|u - u*| = {err:.3e} > {tol:g}")
    return errors


@dataclass
class DispatchState:
    instance: ProblemInstance
    table: object
    network: object
    star: object


class DispatchGrid:
    """alg1, then alg2 at gamma 0.1 (network seed 1), on a seeded mesh-grid DC-OPF case."""

    name = "dispatch-grid"
    eps = 1e-4
    gamma = 0.1
    net_seed = 1
    max_iters = 10_000
    u_tol = 1e-3

    def __init__(self, rows: int = 6, cols: int = 6, h: int = 24):
        self.rows, self.cols, self.h = rows, cols, h

    def setup(self, seed: int, workdir: Path) -> DispatchState:
        inst = opf.build_opf_instance(grid.mesh_case(self.rows, self.cols, self.h, seed=seed))
        table = stepsize.build_stepsizes(inst)
        net = netsim.build_network(inst, self.gamma, seed=self.net_seed)
        star = oracle.solve_kkt(inst)
        return DispatchState(inst, table, net, star)

    def solve(self, st: DispatchState):
        lam = st.star.lam
        full = engine.run_alg1(st.instance, st.table, self.max_iters, self.eps, lambda_star=lam)
        lossy = engine.run_alg2(st.instance, st.table, st.network, self.max_iters, self.eps,
                                lambda_star=lam)
        return full, lossy

    def check(self, st: DispatchState, traces) -> Outcome:
        errors = check_dispatch(traces, st.star.u, st.star.method, self.u_tol)
        return Outcome(rounds=sum(t.iters for t in traces), runs=len(traces),
                       converged=sum(t.converged for t in traces), errors=errors)


# -- denseq-pgd -------------------------------------------------------------

def check_denseq(pairs, u_star, tol) -> list[str]:
    """Per network seed: both runs converge, momentum takes strictly fewer
    rounds than the baseline, and both match the oracle to ``tol``."""
    errors = []
    for seed, fast, slow in pairs:
        for tr in (fast, slow):
            if not tr.converged:
                errors.append(f"seed {seed}: {tr.algo} did not converge in {tr.iters} iterations")
            err = float(np.max(np.abs(tr.u_final - u_star)))
            if not err <= tol:
                errors.append(f"seed {seed}: {tr.algo} max|u - u*| = {err:.3e} > {tol:g}")
        if not fast.iters < slow.iters:
            errors.append(f"seed {seed}: alg2 took {fast.iters} rounds, "
                          f"not fewer than unaccel's {slow.iters}")
    return errors


@dataclass
class DenseState:
    instance: ProblemInstance
    table: object
    networks: list
    star: object


def perturb_costs(inst: ProblemInstance, seed: int, scale: float) -> ProblemInstance:
    """Copy of ``inst`` with each linear cost c_i shifted by scale * U(-1, 1) from ``seed``."""
    rng = np.random.default_rng(seed)
    return ProblemInstance(agents=tuple(
        dataclasses.replace(a, c=a.c + scale * rng.uniform(-1.0, 1.0, a.dim))
        for a in inst.agents))


class DenseqPgd:
    """Criterion 10's comparison on dense-Q agents: alg2 vs unaccel at gamma 0.2.

    The instance is ``random_instance(10, seed=0, diagonal=False)`` with
    its linear costs shifted by 0.1 * U(-1, 1) drawn from the benchmark's
    ``--seed``; the network seeds are always 1-3.
    """

    name = "denseq-pgd"
    gamma = 0.2
    eps = 1e-6
    max_iters = 5000
    cost_shift = 0.1
    u_tol = 1e-4

    def __init__(self, n_agents: int = 10, net_seeds=(1, 2, 3)):
        self.n_agents = n_agents
        self.net_seeds = tuple(net_seeds)

    def setup(self, seed: int, workdir: Path) -> DenseState:
        base = synth.random_instance(self.n_agents, seed=0, diagonal=False)
        inst = perturb_costs(base, seed, self.cost_shift)
        table = stepsize.build_stepsizes(inst)
        nets = [netsim.build_network(inst, self.gamma, seed=s) for s in self.net_seeds]
        star = oracle.solve_kkt(inst)
        return DenseState(inst, table, nets, star)

    def solve(self, st: DenseState):
        pairs = []
        for net in st.networks:
            fast = engine.run_alg2(st.instance, st.table, net, self.max_iters, self.eps)
            slow = engine.run_unaccelerated(st.instance, st.table, net, self.max_iters, self.eps)
            pairs.append((net.seed, fast, slow))
        return pairs

    def check(self, st: DenseState, pairs) -> Outcome:
        errors = check_denseq(pairs, st.star.u, self.u_tol)
        runs = [tr for _, f, s in pairs for tr in (f, s)]
        return Outcome(rounds=sum(t.iters for t in runs), runs=len(runs),
                       converged=sum(t.converged for t in runs), errors=errors)


WORKLOADS = {w.name: w for w in (SweepRand5, DispatchGrid, DenseqPgd)}
