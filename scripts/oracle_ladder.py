#!/usr/bin/env python3
"""Time the exact oracle on a ladder of r x r mesh grids over 24 hours.

    python3 scripts/oracle_ladder.py [--sizes 6,12,20,30]

Each grid is ``perfbench/grid.py``'s ``mesh_case(r, r, 24, seed=0)``,
loaded by path once (``digests.load_grid``) and compiled with
``build_opf_instance``.  Per size it prints the decision and coupling
sizes n and m, the route ``solve_kkt`` took, the seconds of that one
call on the fresh instance (the coupling CSR is built inside it), and
``kkt_residual`` of the answer.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from dualdec import build_opf_instance, solve_kkt  # noqa: E402
from dualdec.oracle import kkt_residual  # noqa: E402
from digests import load_grid  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--sizes", default="6,12,20,30",
                    help="comma-separated grid sides r (default 6,12,20,30)")
    args = ap.parse_args(argv)
    try:
        sizes = [int(s) for s in args.sizes.split(",")]
    except ValueError:
        ap.error(f"--sizes: not a list of integers: {args.sizes!r}")
    if not sizes or min(sizes) < 1:
        ap.error("--sizes: every side must be a positive integer")

    grid = load_grid()
    print(f"{'grid':>10} {'n':>7} {'m':>7} {'route':>10} {'seconds':>9} {'kkt_residual':>12}")
    for r in sizes:
        inst = build_opf_instance(grid.mesh_case(r, r, 24, seed=0))
        t0 = time.perf_counter()
        sol = solve_kkt(inst)
        dt = time.perf_counter() - t0
        res = kkt_residual(inst, sol.u, sol.lam)
        print(f"{f'{r}x{r}x24':>10} {inst.n_total:>7} {inst.m_total:>7} {sol.method:>10} "
              f"{dt:>9.4f} {res:>12.2e}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
