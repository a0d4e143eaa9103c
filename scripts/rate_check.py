#!/usr/bin/env python3
"""Empirical check of the O(1/k^2) dual rate, deterministic and stochastic.

Runs the full-information method once (the gap must sit below the
deterministic envelope at every k) and then averages lossy runs over
many network seeds, comparing the seed-mean gap against the envelope
built from the empirical mean of V(1) + gap(1).  Output is one CSV row
per iteration:

    k,det_gap,det_bound,mean_gap,stoch_bound
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from dualdec import (build_network, build_stepsizes, random_instance, run_alg1,
                     run_alg2, solve_kkt)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--agents", type=int, default=5)
    ap.add_argument("--instance-seed", type=int, default=0)
    ap.add_argument("--gamma", type=float, default=0.2)
    ap.add_argument("--runs", type=int, default=32)
    ap.add_argument("--seed", type=int, default=1, help="base network seed; run r uses seed+r")
    ap.add_argument("--iters", type=int, default=500)
    ap.add_argument("--out", type=Path, default=Path("rate_check.csv"))
    args = ap.parse_args()
    if args.iters < 1:
        ap.error("--iters must be >= 1")

    inst = random_instance(args.agents, seed=args.instance_seed)
    table = build_stepsizes(inst)
    star = solve_kkt(inst)
    k = np.arange(1, args.iters + 1, dtype=float)

    det = run_alg1(inst, table, args.iters, 0.0, lambda_star=star.lam)
    det_bound = 4.0 * (det.V[0] + det.gap[0]) / (k + 1.0) ** 2
    holds = bool(np.all(det.gap <= det_bound + 1e-12))
    print(f"deterministic envelope holds at every k: {holds}")

    gaps = np.empty((args.runs, args.iters))
    v1g1 = np.empty(args.runs)
    for r in range(args.runs):
        net = build_network(inst, args.gamma, seed=args.seed + r)
        tr = run_alg2(inst, table, net, args.iters, 0.0, lambda_star=star.lam)
        gaps[r] = tr.gap
        v1g1[r] = tr.V[0] + tr.gap[0]
    mean_gap = gaps.mean(axis=0)
    stoch_bound = 4.0 * float(v1g1.mean()) / (k + 1.0) ** 2
    for kk in sorted({kk for kk in (50, 100, 200, args.iters) if kk <= args.iters}):
        print(f"k={kk:<5d} mean gap {mean_gap[kk-1]:.3e}  envelope {stoch_bound[kk-1]:.3e}")

    with open(args.out, "w") as fh:
        fh.write("k,det_gap,det_bound,mean_gap,stoch_bound\n")
        for i in range(args.iters):
            vals = (det.gap[i], det_bound[i], mean_gap[i], stoch_bound[i])
            fh.write(f"{i+1}," + ",".join(repr(float(v)) for v in vals) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
