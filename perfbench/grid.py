"""Seeded rows x cols mesh-grid DC-OPF case for the dispatch workload.

Built from the public ``dualdec.opf`` types with the conventions of
``scripts/make_ieee14_case.py``: per-unit demands shaped by an hourly
profile, susceptances B_SCALE / x, quadratic generator costs, bus 1 as
the angle reference, eps_psi 0.5 and psi_max pi.

The topology, reactances and generator data are fixed; the seed draws
only the bus demands.  Iteration counts depend on the network's
conditioning, not on the load level, so the seed changes the case's
optimum without moving the round count (seeded reactances or costs
moved it by 5-10 %).  Generators sit on every bus whose row and column
are both odd, away from the reference corner, with near-equal linear
costs and a capacity equal to the largest system demand a draw can
reach.  Every generator then runs strictly inside its limits (the
lowest output over seeds 0-59 is 0.16 p.u.), so ``solve_kkt`` stays on
its dense KKT route.
"""

from __future__ import annotations

import math

import numpy as np

from dualdec.opf import Branch, Bus, Generator, OpfCase

# hourly demand shape over a day, evening peak
PROFILE = (0.62, 0.58, 0.56, 0.55, 0.57, 0.63, 0.74, 0.86, 0.95, 0.99, 1.00, 1.00,
           0.98, 0.97, 0.96, 0.97, 1.00, 1.05, 1.08, 1.06, 0.99, 0.89, 0.78, 0.68)
X_ROW, X_COL = 0.12, 0.18  # reactance of branches along a row / along a column (p.u.)
COSTS = ((0.5, 1.0), (0.8, 1.05), (1.0, 1.0), (0.7, 1.05))  # (a, b), cycled over generators
B_SCALE = 0.1


def mesh_case(rows: int = 6, cols: int = 6, h: int = 24, seed: int = 0) -> OpfCase:
    """Mesh of rows x cols buses over an h-step horizon, demands drawn from ``seed``."""
    if not (1 <= h <= len(PROFILE)):
        raise ValueError(f"horizon must lie in [1, {len(PROFILE)}], got {h}")
    rng = np.random.default_rng(seed)
    profile = np.array(PROFILE[:h])
    ids = [r * cols + c + 1 for r in range(rows) for c in range(cols)]
    base = rng.uniform(0.05, 0.30, len(ids))  # p.u. demand at the profile's 1.0
    jitter = rng.uniform(0.95, 1.05, (len(ids), h))
    buses = tuple(Bus(id=i, demand=np.round(base[k] * profile * jitter[k], 6))
                  for k, i in enumerate(ids))
    branches = []
    for r in range(rows):
        for c in range(cols):
            i = r * cols + c + 1
            if c + 1 < cols:
                branches.append(Branch(i=i, j=i + 1, b=round(B_SCALE / X_ROW, 6)))
            if r + 1 < rows:
                branches.append(Branch(i=i, j=i + cols, b=round(B_SCALE / X_COL, 6)))
    pmax = round(0.30 * 1.05 * max(profile) * len(ids), 6)  # the largest demand a draw can reach
    gen_buses = [r * cols + c + 1 for r in range(1, rows, 2) for c in range(1, cols, 2)]
    generators = tuple(
        Generator(bus=bus, a=COSTS[k % len(COSTS)][0], b=COSTS[k % len(COSTS)][1],
                  pmax=pmax)
        for k, bus in enumerate(gen_buses))
    return OpfCase(buses=buses, branches=tuple(branches), generators=generators,
                   h=h, ref_bus=1, eps_psi=0.5, psi_max=math.pi)
