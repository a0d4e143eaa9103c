#!/usr/bin/env python3
"""Empirical check of the O(1/k^2) dual rate, deterministic and stochastic.

Runs the full-information method once (the gap must sit below the
deterministic envelope at every k) and then, for each link failure
probability gamma, averages lossy runs over many network seeds, comparing
the seed-mean gap against the envelope built from the empirical mean of
V(1) + gap(1).  Output is one CSV row per iteration, with two columns per
gamma in ascending order:

    k,det_gap,det_bound,mean_gap@<gamma>,stoch_bound@<gamma>,...

Per-run iteration counts come from ``dualdec montecarlo``.
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
    ap.add_argument("--gammas", type=str, default="0.2",
                    help="comma-separated link failure probabilities in [0, 1)")
    ap.add_argument("--runs", type=int, default=32)
    ap.add_argument("--seed", type=int, default=1, help="base network seed; run r uses seed+r")
    ap.add_argument("--iters", type=int, default=500)
    ap.add_argument("--out", type=Path, default=Path("rate_check.csv"))
    args = ap.parse_args()
    if args.agents < 1:
        ap.error("--agents must be >= 1")
    if args.instance_seed < 0:
        ap.error("--instance-seed must be >= 0")
    if args.iters < 1:
        ap.error("--iters must be >= 1")
    if args.runs < 1:
        ap.error("--runs must be >= 1")
    try:
        gammas = sorted(float(s) for s in args.gammas.split(","))
    except ValueError:
        ap.error(f"cannot parse --gammas {args.gammas!r}")
    if len(set(gammas)) != len(gammas) or not all(0.0 <= g < 1.0 for g in gammas):
        ap.error(f"--gammas must be distinct values in [0, 1), got {args.gammas!r}")

    inst = random_instance(args.agents, seed=args.instance_seed)
    table = build_stepsizes(inst)
    star = solve_kkt(inst)
    k = np.arange(1, args.iters + 1, dtype=float)

    det = run_alg1(inst, table, args.iters, 0.0, lambda_star=star.lam)
    det_bound = 4.0 * (det.V[0] + det.gap[0]) / (k + 1.0) ** 2
    holds = bool(np.all(det.gap <= det_bound + 1e-12))
    print(f"deterministic envelope holds at every k: {holds}")

    names, cols = ["det_gap", "det_bound"], [det.gap, det_bound]
    for gamma in gammas:
        gaps = np.empty((args.runs, args.iters))
        v1g1 = np.empty(args.runs)
        for r in range(args.runs):
            net = build_network(inst, gamma, seed=args.seed + r)
            tr = run_alg2(inst, table, net, args.iters, 0.0, lambda_star=star.lam)
            gaps[r] = tr.gap
            v1g1[r] = tr.V[0] + tr.gap[0]
        mean_gap = gaps.mean(axis=0)
        stoch_bound = 4.0 * float(v1g1.mean()) / (k + 1.0) ** 2
        for kk in sorted({kk for kk in (50, 100, 200, args.iters) if kk <= args.iters}):
            print(f"k={kk:<5d} gamma={gamma:<4g} mean gap {mean_gap[kk-1]:.3e}  "
                  f"envelope {stoch_bound[kk-1]:.3e}")
        names += [f"mean_gap@{gamma!r}", f"stoch_bound@{gamma!r}"]
        cols += [mean_gap, stoch_bound]

    with open(args.out, "w") as fh:
        fh.write("k," + ",".join(names) + "\n")
        for i in range(args.iters):
            fh.write(f"{i+1}," + ",".join(repr(float(c[i])) for c in cols) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
