"""Command line front end: validate, run, montecarlo.

Exit codes: 0 success, 1 bad flags, 2 validation/load failure,
3 the run stopped unconverged (iteration budget exhausted, or a
non-finite multiplier); ``run`` prints the stop reason.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import engine, netsim, opf, stepsize
from .model import ValidationError, load_instance

__all__ = ["main", "app"]

_ALGOS = ("alg1", "alg2", "unaccel")
_BATCH = 256  # montecarlo replicates per kernel pass, which bounds its memory


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags by default; this tool reserves 2 for
    # validation failures, so remap usage errors to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="dualdec", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("validate", help="load a problem or case and print the derived tables")
    v.add_argument("--problem", type=Path, help="problem JSON file")
    v.add_argument("--case", type=Path, help="OPF case JSON file")

    r = sub.add_parser("run", help="run one solver on a problem or case")
    r.add_argument("--problem", type=Path)
    r.add_argument("--case", type=Path)
    r.add_argument("--algo", choices=_ALGOS, required=True)
    r.add_argument("--gamma", type=float, default=None,
                   help="link failure probability (alg2/unaccel only)")
    r.add_argument("--seed", type=int, default=0)
    r.add_argument("--eps", type=float, default=engine.DEFAULT_EPS)
    r.add_argument("--max-iters", type=int, default=10_000)
    r.add_argument("--out", type=Path, help="write the per-iteration trace CSV here")

    m = sub.add_parser("montecarlo", help="sweep gamma with repeated seeded runs")
    m.add_argument("--problem", type=Path)
    m.add_argument("--case", type=Path)
    m.add_argument("--gammas", type=str, required=True, help="comma-separated list, e.g. 0,0.1,0.3")
    m.add_argument("--runs", type=int, required=True)
    m.add_argument("--seed", type=int, default=0, help="base seed; replicate r uses seed+r")
    m.add_argument("--eps", type=float, default=engine.DEFAULT_EPS)
    m.add_argument("--max-iters", type=int, default=10_000)
    m.add_argument("--out", type=Path, required=True)
    return p


def _load(args, parser):
    if (args.problem is None) == (args.case is None):
        parser.error("exactly one of --problem or --case is required")
    if args.problem is not None:
        return load_instance(args.problem)
    return opf.build_opf_instance(opf.load_case(args.case))


def _instance_and_steps(args, parser):
    """Check --max-iters and --eps, then load the instance and build its step table."""
    if args.max_iters < 0:
        parser.error("--max-iters must be >= 0")
    if not (math.isfinite(args.eps) and args.eps >= 0.0):
        parser.error(f"--eps must be a finite number >= 0, got {args.eps!r}")
    instance = _load(args, parser)
    return instance, stepsize.build_stepsizes(instance)


def _cmd_validate(args, parser) -> int:
    instance = _load(args, parser)
    table = stepsize.build_stepsizes(instance)
    g = instance.graph
    print(f"agents: {len(instance.ids)}   variables: {instance.n_total}   "
          f"coupling rows: {instance.m_total}")
    print("id  dim  m  in-neighbors      out-neighbors     sigma        L            eta")
    for a in instance.agents:
        nin = ",".join(str(j) for j in g.in_neighbors[a.id]) or "-"
        nout = ",".join(str(j) for j in g.out_neighbors[a.id])
        print(f"{a.id:<3d} {a.dim:<4d} {a.m:<2d} {nin:<17s} {nout:<17s} "
              f"{table.sigma[a.id]:<12.6g} {table.L[a.id]:<12.6g} {table.eta[a.id]:.6g}")
    return 0


def _cmd_run(args, parser) -> int:
    if args.algo == "alg1" and args.gamma is not None:
        parser.error("--gamma applies only to alg2/unaccel")
    instance, table = _instance_and_steps(args, parser)
    if args.algo == "alg1":
        trace = engine.run_alg1(instance, table, args.max_iters, args.eps)
    else:
        gamma = 0.0 if args.gamma is None else args.gamma
        net = netsim.build_network(instance, gamma, seed=args.seed)
        run = engine.run_alg2 if args.algo == "alg2" else engine.run_unaccelerated
        trace = run(instance, table, net, args.max_iters, args.eps)
    if args.out is not None:
        trace.to_csv(args.out)
    if trace.iters:
        print(f"k={trace.iters} q={float(trace.q[-1])!r} "
              f"residual={float(trace.residual[-1])!r} converged={trace.converged} "
              f"stop={trace.stop}")
    else:
        print(f"k=0 (empty run) stop={trace.stop}")
    return 0 if trace.converged else 3


def _percentile(sorted_vals, p: float):
    """Nearest-rank percentile: smallest value with cumulative share >= p."""
    n = len(sorted_vals)
    rank = max(1, math.ceil(p / 100.0 * n))
    return sorted_vals[rank - 1]


def _cmd_montecarlo(args, parser) -> int:
    try:
        gammas = [float(s) for s in args.gammas.split(",") if s.strip() != ""]
    except ValueError:
        parser.error(f"cannot parse --gammas {args.gammas!r}")
    if not gammas:
        parser.error("--gammas is empty")
    if len(set(gammas)) != len(gammas):  # numerically equal, e.g. 0.1 and 1e-1
        parser.error(f"--gammas repeats a value: {args.gammas!r}")
    if args.runs < 1:
        parser.error("--runs must be >= 1")
    instance, table = _instance_and_steps(args, parser)

    # every gamma's first network is built, and so checked, before any run
    seeds = range(args.seed, args.seed + args.runs)
    firsts = {gamma: netsim.build_network(instance, gamma, seed=seeds[0])
              for gamma in sorted(gammas)}
    traces, lossy = {}, []  # (gamma, seed) -> its run; ((gamma, seed), network) to run
    for gamma, first in firsts.items():
        if (first.beta == 1.0).all():
            # every link draw is up whatever the seed: each replicate is this one run
            tr = engine.run_alg2(instance, table, first, args.max_iters, args.eps)
            traces.update(((gamma, s), tr) for s in seeds)
        else:
            lossy += [((gamma, seeds[0]), first)] + [
                ((gamma, s), netsim.build_network(instance, gamma, seed=s)) for s in seeds[1:]]
    # every lossy replicate, gamma after gamma, as the columns of one kernel
    # pass, _BATCH at a time: a column is its lone run whatever the others' gamma
    for i in range(0, len(lossy), _BATCH):
        keys, nets = zip(*lossy[i:i + _BATCH])
        traces.update(zip(keys, engine.run_batch(instance, table, nets, args.max_iters,
                                                 args.eps)))
    rows = [(gamma, seed, tr.iters, 1 if tr.converged else 0)
            for (gamma, seed), tr in sorted(traces.items())]
    out = Path(args.out)
    with open(out, "w") as fh:
        fh.write("gamma,seed,iters,converged\n")
        for gamma, seed, iters, conv in rows:
            fh.write(f"{gamma!r},{seed},{iters},{conv}\n")

    summary_path = out.with_name(out.stem + ".summary.csv")
    lines = ["gamma,runs,min,p25,median,p75,max"]
    print("gamma  runs  min  p25  median  p75  max")
    for gamma in sorted(gammas):
        iters = sorted(it for g, _, it, _ in rows if g == gamma)
        stats = (iters[0], _percentile(iters, 25), _percentile(iters, 50),
                 _percentile(iters, 75), iters[-1])
        lines.append(f"{gamma!r},{len(iters)}," + ",".join(str(s) for s in stats))
        print(f"{gamma:<6g} {len(iters):<5d} " + "  ".join(str(s) for s in stats))
    with open(summary_path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "validate":
            return _cmd_validate(args, parser)
        if args.command == "run":
            return _cmd_run(args, parser)
        return _cmd_montecarlo(args, parser)
    except SystemExit as exc:  # parser.error inside a command
        return int(exc.code or 0)
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def app():
    raise SystemExit(main())
