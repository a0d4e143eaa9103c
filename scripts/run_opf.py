#!/usr/bin/env python3
"""Solve a multi-period DC optimal power flow case with the distributed solver.

Runs the tracker-based method over a lossy network, checks the dispatch
against the centralized oracle, and prints hourly generation totals.
"""

import argparse
import math
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from dualdec import (build_network, build_opf_instance, build_stepsizes,
                     load_case, run_alg2, solve_kkt)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--case", type=Path,
                    default=Path(__file__).resolve().parent.parent / "cases" / "ieee14.json")
    ap.add_argument("--gamma", type=float, default=0.1)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--eps", type=float, default=2e-5)
    ap.add_argument("--max-iters", type=int, default=40_000)
    ap.add_argument("--trace", type=Path, help="write the per-iteration trace CSV here")
    args = ap.parse_args()
    if not 0.0 <= args.gamma < 1.0:
        ap.error(f"--gamma must lie in [0, 1), got {args.gamma!r}")
    if args.max_iters < 0:
        ap.error(f"--max-iters must be >= 0, got {args.max_iters}")
    if not (math.isfinite(args.eps) and args.eps >= 0.0):
        ap.error(f"--eps must be finite and >= 0, got {args.eps!r}")

    case = load_case(args.case)
    inst = build_opf_instance(case)
    star = solve_kkt(inst)
    print(f"{len(case.buses)} buses, {len(case.branches)} branches, h={case.h}, "
          f"oracle cost {star.q:.6f} ({star.method})")

    net = build_network(inst, args.gamma, seed=args.seed)
    tr = run_alg2(inst, build_stepsizes(inst), net, args.max_iters, args.eps,
                  lambda_star=star.lam)
    if tr.iters:
        print(f"gamma={args.gamma}: k={tr.iters} converged={tr.converged} "
              f"residual={tr.residual[-1]:.3e} gap={tr.gap[-1]:.3e}")
    else:
        print(f"gamma={args.gamma}: k=0 (empty run) stop={tr.stop}")
    if args.trace is not None:
        tr.to_csv(args.trace)
        print(f"wrote {args.trace}")
    if not tr.iters:  # no dispatch to show
        return 0

    gen_buses = sorted(g.bus for g in case.generators)
    demand = np.sum([b.demand for b in case.buses], axis=0)
    total = np.zeros(case.h)
    print("hourly dispatch (per unit):")
    for bus in gen_buses:
        p = tr.u_final[inst.u_slice(bus)][:case.h]
        total += p
        print(f"  bus {bus:>2d}: " + " ".join(f"{v:7.4f}" for v in p))
    print(f"  total : " + " ".join(f"{v:7.4f}" for v in total))
    print(f"  demand: " + " ".join(f"{v:7.4f}" for v in demand))
    print(f"  worst hourly imbalance: {np.abs(total - demand).max():.2e}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
