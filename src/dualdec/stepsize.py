"""Per-agent dual gradient Lipschitz constants and safe step sizes.

The dual gradient block of agent i is Lipschitz with constant

    L_i = sum_{j in N_i + {i}}  ||G^j||^2 / sigma_j,

where G^j stacks every block that multiplies u_j (ascending owner id)
and sigma_j is the strong-convexity modulus of agent j's cost.  Any
eta_i in (0, 1/L_i] is a safe ascent step; ``build_stepsizes`` returns
the largest, eta_i = 1 / L_i.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ProblemInstance, ValidationError

__all__ = ["StepsizeTable", "build_stepsizes"]


@dataclass(frozen=True)
class StepsizeTable:
    """sigma_i, ||G^i||, L_i and eta_i keyed by agent id."""

    sigma: dict[int, float]
    out_norm: dict[int, float]
    L: dict[int, float]
    eta: dict[int, float]

    def eta_rows(self, instance: ProblemInstance) -> np.ndarray:
        """eta_i repeated over agent i's coupling rows, stacked ascending."""
        return np.concatenate([np.full(a.m, self.eta[a.id]) for a in instance.agents])


def build_stepsizes(instance: ProblemInstance) -> StepsizeTable:
    """Compute L_i from the coupling structure and set eta_i = 1 / L_i."""
    sigma = {a.id: a.sigma for a in instance.agents}
    out_norm = {}
    for a in instance.agents:
        S = instance.out_stack(a.id)
        # exact (SVD), not an estimate from below, which would make eta_i unsafe
        out_norm[a.id] = float(np.linalg.norm(S, 2)) if S.shape[0] > 0 else 0.0
    L, eta = {}, {}
    for a in instance.agents:
        hood = set(instance.graph.in_neighbors[a.id]) | {a.id}
        Li = sum(out_norm[j] ** 2 / sigma[j] for j in sorted(hood))
        if Li <= 0.0:
            raise ValidationError(
                f"agent {a.id}: no coupling anywhere in its in-neighborhood (L_i = 0)"
            )
        L[a.id] = Li
        eta[a.id] = 1.0 / Li
    return StepsizeTable(sigma=sigma, out_norm=out_norm, L=L, eta=eta)
