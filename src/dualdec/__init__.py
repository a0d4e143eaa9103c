"""Accelerated dual decomposition for box-constrained coupled QPs
executed over simulated unreliable communication networks."""

from .model import (AgentSpec, InfluenceGraph, ProblemInstance, ValidationError,
                    load_instance, primal_cost, save_instance)
from .subsolver import solve_local
from .stepsize import StepsizeTable, build_stepsizes
from .netsim import NetworkModel, build_network
from .engine import (RunTrace, check_lyapunov_step, check_quadratic_model, eval_dual,
                     run_alg1, run_alg2, run_batch, run_unaccelerated, theta_next)
from .oracle import (InfeasibleError, OracleError, OracleSolution, certify_feasible,
                     solve_active_set, solve_kkt)
from .opf import OpfCase, build_opf_instance, load_case
from .synth import random_instance

__version__ = "0.1.0"

__all__ = [
    "AgentSpec", "InfluenceGraph", "ProblemInstance", "ValidationError",
    "load_instance", "primal_cost", "save_instance",
    "solve_local",
    "StepsizeTable", "build_stepsizes",
    "NetworkModel", "build_network",
    "RunTrace", "check_lyapunov_step", "check_quadratic_model", "eval_dual",
    "run_alg1", "run_alg2", "run_batch", "run_unaccelerated", "theta_next",
    "InfeasibleError", "OracleError", "OracleSolution", "certify_feasible",
    "solve_active_set", "solve_kkt",
    "OpfCase", "build_opf_instance", "load_case",
    "random_instance",
]
