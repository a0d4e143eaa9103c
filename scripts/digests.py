#!/usr/bin/env python3
"""Print sha256 digests of the solver's outputs, to show a change is bit for bit.

    python3 scripts/digests.py [--tree CHECKOUT] [NAME_PREFIX ...]
    python3 scripts/digests.py --against OTHER_CHECKOUT [NAME_PREFIX ...]

The set covers these instances: rand5 (seeds 0 and 42), dense10
(``random_instance(10, seed=0, diagonal=False)``), denseq (dense10 with
the benchmark's seed-1 cost shift), boxed10 (dense10 with every box
clipped to +-0.9, so ``solve_kkt`` takes the active-set route and some
local solves take several projected-gradient steps), ieee14, chain3, the
6x6x24 mesh grid from ``perfbench/grid.py``, dense twins of rand5, chain3
and ieee14 (every cost declared dense), mixed (dense10 with the odd ids
declared diagonal), and solo (``random_instance(1, seed=0)``: one agent,
no links, so every network is empty).  Per instance it hashes the step
table, ``eval_dual`` at a fixed multiplier, ``solve_kkt`` (``u``,
``lam``, ``q`` and ``method``, as ``NAME/oracle``) and eight runs: alg1; alg2 and unaccel at gamma 0, 0.3
and 0.5 (network seed 3, eps 0, 1500 iterations, 600 on the grid,
``lambda_star`` given); and alg2 at gamma 0.1 stopped by eps 1e-4.  Each
run gets two digests.  ``NAME/RUN`` covers the iterates: ``iters``,
``converged``, ``theta``, ``updates``, ``lam``, ``q``, ``residual`` and
``u_final``.  ``NAME/RUN/oracle-side`` covers what depends on the
oracle's answer: ``gap``, ``V`` and the trace CSV bytes.  A change to the
oracle alone thus moves only ``oracle`` and ``oracle-side`` digests.
``NAME/batch`` covers the replicate columns of one ``run_batch`` over
three networks at gamma 0.3 (seeds 3, 4 and 5, eps 1e-4, the same
budgets): every column's ``iters``, ``stop``, ``theta`` and ``updates``.
The ``montecarlo`` CSV and summary bytes are hashed on rand5 (the
sweep-rand5 settings, and a short budget that ends some replicates
unconverged), chain3, and denseq (a dense stack in every batch).

Each checkout is imported from its own ``src`` in a fresh process, so
``--against`` compares two trees (say, a change and its parent) with
this script's definitions, and exits 1 if any digest differs.  Name
prefixes (``chain3``, ``dense10/alg2``) select a subset.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import hashlib
import importlib.util
import io
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
ITERS = 1500
GRID_ITERS = 600
NET_SEED = 3
BOX = 0.9  # boxed10's bound
GAMMAS = (0.0, 0.3, 0.5)
BATCH_SEEDS = (NET_SEED, NET_SEED + 1, NET_SEED + 2)
RUNS = (["alg1"] + [f"{algo}-g{g}" for g in GAMMAS for algo in ("alg2", "unaccel")]
        + ["alg2-g0.1-eps1e-4"])


def load_grid(tree: Path = ROOT):
    """``tree``'s ``perfbench/grid.py``, loaded by path."""
    spec = importlib.util.spec_from_file_location("perfbench_grid",
                                                  tree / "perfbench" / "grid.py")
    grid = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(grid)
    return grid


def _instances(tree: Path) -> dict:
    """Name -> function building the instance with ``tree``'s dualdec."""
    from dualdec import build_opf_instance, load_case, load_instance, random_instance
    from dualdec.model import ProblemInstance

    def twin(inst, diagonal_ids=()):
        """``inst`` with the costs of ``diagonal_ids`` declared diagonal, the rest dense."""
        return ProblemInstance(agents=tuple(
            dataclasses.replace(a, diag=np.diag(a.Q)) if a.id in diagonal_ids else
            dataclasses.replace(a, diag=None) for a in inst.agents))

    def rand5():
        return random_instance(5, seed=0)

    def dense10():
        return random_instance(10, seed=0, diagonal=False)

    def denseq():
        # perfbench's perturb_costs(dense10, seed 1, scale 0.1)
        rng = np.random.default_rng(1)
        return ProblemInstance(agents=tuple(
            dataclasses.replace(a, c=a.c + 0.1 * rng.uniform(-1.0, 1.0, a.dim))
            for a in dense10().agents))

    def boxed10():
        return ProblemInstance(agents=tuple(
            dataclasses.replace(a, lo=np.full(a.dim, -BOX), hi=np.full(a.dim, BOX))
            for a in dense10().agents))

    def chain3():
        return load_instance(tree / "cases" / "chain3.json")

    def ieee14():
        return build_opf_instance(load_case(tree / "cases" / "ieee14.json"))

    def grid6():
        return build_opf_instance(load_grid(tree).mesh_case(6, 6, 24, seed=0))

    return {
        "rand5": rand5,
        "rand5s42": functools.partial(random_instance, 5, seed=42),
        "dense10": dense10,
        "denseq": denseq,
        "boxed10": boxed10,
        "ieee14": ieee14,
        "chain3": chain3,
        "grid6": grid6,
        "rand5-dense": lambda: twin(rand5()),
        "chain3-dense": lambda: twin(chain3()),
        "ieee14-dense": lambda: twin(ieee14()),
        "mixed": lambda: twin(dense10(), diagonal_ids=range(1, 11, 2)),
        "solo": functools.partial(random_instance, 1, seed=0),
    }


def _run(key: str, inst, tab, star, iters: int):
    """The run named ``key`` in ``RUNS``."""
    from dualdec import build_network, run_alg1, run_alg2, run_unaccelerated

    if key == "alg1":
        return run_alg1(inst, tab, iters, 0.0, lambda_star=star)
    if key == "alg2-g0.1-eps1e-4":
        return run_alg2(inst, tab, build_network(inst, 0.1, seed=NET_SEED), iters, 1e-4)
    algo, gamma = key.split("-g")
    run = run_alg2 if algo == "alg2" else run_unaccelerated
    net = build_network(inst, float(gamma), seed=NET_SEED)
    return run(inst, tab, net, iters, 0.0, lambda_star=star)


def _batch_digest(inst, tab, iters: int) -> str:
    """Digest of the columns of a ``run_batch`` over the ``BATCH_SEEDS`` networks."""
    from dualdec import build_network, run_batch

    nets = [build_network(inst, 0.3, seed=s) for s in BATCH_SEEDS]
    cols = run_batch(inst, tab, nets, iters, 1e-4)
    return _sha(*(part for tr in cols for part in (np.array([tr.iters]), tr.stop.encode(),
                                                    tr.theta, tr.updates)))


def _sha(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        if p is None:
            h.update(b"none")
        elif isinstance(p, bytes):
            h.update(p)
        else:
            a = np.ascontiguousarray(p)
            h.update(f"{a.dtype}{a.shape}".encode())
            h.update(a.tobytes())
    return h.hexdigest()


def _run_digests(tr, tmp: Path) -> tuple[str, str]:
    """Digests of a run's iterates and of its values that depend on ``lambda_star``."""
    csv = b""
    if tr.q is not None:
        tr.to_csv(tmp / "trace.csv")
        csv = (tmp / "trace.csv").read_bytes()
    return (_sha(np.array([tr.iters, tr.converged]), tr.theta, tr.updates, tr.lam, tr.q,
                 tr.residual, tr.u_final),
            _sha(tr.gap, tr.V, csv))


def _montecarlo_digest(problem: Path, argv: list[str], tmp: Path) -> str:
    from dualdec import cli

    out = tmp / "mc.csv"
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["montecarlo", "--problem", str(problem), "--out", str(out), *argv])
    return _sha(np.array([rc]), out.read_bytes(),
                out.with_name("mc.summary.csv").read_bytes())


def compute(tree: Path, prefixes: list[str]) -> dict[str, str]:
    """Digest name -> sha256 for ``tree``; ``dualdec`` must come from ``tree/src``."""
    from dualdec import build_stepsizes, eval_dual, random_instance, save_instance, solve_kkt

    def wanted(name):
        return not prefixes or any(name.startswith(p) for p in prefixes)

    out = {}
    with tempfile.TemporaryDirectory() as td:
        tmp = Path(td)
        for name, build in _instances(tree).items():
            runs = [r for r in RUNS if wanted(f"{name}/{r}") or wanted(f"{name}/{r}/oracle-side")]
            if not (runs or any(wanted(f"{name}/{d}")
                                for d in ("steps", "eval_dual", "oracle", "batch"))):
                continue
            inst = build()
            tab = build_stepsizes(inst)
            if wanted(f"{name}/steps"):
                out[f"{name}/steps"] = _sha(*(np.array([getattr(tab, f)[i] for i in inst.ids])
                                              for f in ("eta", "L", "out_norm", "sigma")))
            if wanted(f"{name}/eval_dual"):
                ev = eval_dual(inst, np.linspace(-1.0, 1.0, inst.m_total))
                out[f"{name}/eval_dual"] = _sha(np.array([ev.q]), ev.grad, ev.u)
            star = solve_kkt(inst) if runs or wanted(f"{name}/oracle") else None
            if wanted(f"{name}/oracle"):
                out[f"{name}/oracle"] = _sha(star.u, star.lam, np.array([star.q]),
                                             star.method.encode())
            iters = GRID_ITERS if name == "grid6" else ITERS
            if wanted(f"{name}/batch"):
                out[f"{name}/batch"] = _batch_digest(inst, tab, iters)
            for r in runs:
                iterates, oracle_side = _run_digests(_run(r, inst, tab, star.lam, iters), tmp)
                for key, digest in ((f"{name}/{r}", iterates),
                                    (f"{name}/{r}/oracle-side", oracle_side)):
                    if wanted(key):
                        out[key] = digest
        if wanted("montecarlo/rand5"):
            save_instance(random_instance(5, seed=0), tmp / "rand5.json")
            out["montecarlo/rand5"] = _montecarlo_digest(
                tmp / "rand5.json", ["--gammas", "0.0,0.1,0.3,0.5", "--runs", "20",
                                     "--seed", "20", "--eps", "1e-06", "--max-iters", "1000"],
                tmp)
        if wanted("montecarlo/rand5-mixed-stops"):
            # the budget ends some gamma-0.1 replicates and convergence the others
            save_instance(random_instance(5, seed=0), tmp / "rand5.json")
            out["montecarlo/rand5-mixed-stops"] = _montecarlo_digest(
                tmp / "rand5.json", ["--gammas", "0.1,0.3", "--runs", "20", "--seed", "40",
                                     "--eps", "1e-06", "--max-iters", "560"], tmp)
        if wanted("montecarlo/denseq"):
            save_instance(_instances(tree)["denseq"](), tmp / "denseq.json")
            out["montecarlo/denseq"] = _montecarlo_digest(
                tmp / "denseq.json", ["--gammas", "0,0.1,0.3", "--runs", "8", "--eps", "1e-4",
                                      "--max-iters", "250"], tmp)
        if wanted("montecarlo/chain3"):
            out["montecarlo/chain3"] = _montecarlo_digest(
                tree / "cases" / "chain3.json", ["--gammas", "0,0.3,0.6", "--runs", "5",
                                                 "--max-iters", "3000"], tmp)
    return out


def _child(tree: Path, prefixes: list[str]) -> dict[str, str]:
    """Digests of ``tree``, computed by this script in a fresh process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--tree", str(tree), *prefixes]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"digests: {' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return dict(reversed(ln.split()) for ln in proc.stdout.splitlines() if ln)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("prefixes", nargs="*", help="only digests whose names start with these")
    ap.add_argument("--tree", type=Path, default=ROOT, help="checkout to digest")
    ap.add_argument("--against", type=Path, help="another checkout to compare with")
    args = ap.parse_args(argv)
    for tree in filter(None, (args.tree, args.against)):
        if not (tree / "src" / "dualdec").is_dir():
            ap.error(f"{tree} has no src/dualdec")

    if args.against is None:
        sys.path.insert(0, str(args.tree.resolve() / "src"))
        for name, digest in compute(args.tree.resolve(), args.prefixes).items():
            print(f"{digest}  {name}", flush=True)
        return 0

    mine = _child(args.tree.resolve(), args.prefixes)
    theirs = _child(args.against.resolve(), args.prefixes)
    differ = 0
    for name in sorted(set(mine) | set(theirs)):
        a, b = mine.get(name), theirs.get(name)
        same = a == b
        differ += not same
        print(f"{'same' if same else 'DIFF'}  {name}  {a or '-'}  {b or '-'}")
    print(f"{len(mine)} digests, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
