"""Sparse static state feedback for uncertain linear-quadratic plants.

The package synthesizes a static gain K for dx/dt = A x + B2 u + B1 w
with u = -K x, trading closed-loop quadratic cost against the number of
nonzero gain entries.  A convex lift replaces K by a symmetric parameter
matrix whose trailing block carries the sparsity; a two-timescale
primal-dual splitting drives the lifted problem through an inner
coordinate solver on the explicit dual.  The penalty is one Penalty,
weighted l1 or piecewise quadratic, which the splitting reaches through
its prox; the cardinality regime solves a sequence of anchored weighted
l1 problems.  Solutions come back certified: feasibility of the lift,
per-vertex stability margins, and a cost upper bound.

Typical use:

    plant = validate_plant(PlantData(A, B2, B1, C, D))
    lifted = lift_plant(plant)
    sol = solve_relaxed(lifted, regime_l1(gamma=10.0))
    sol.K, sol.J_upper, sol.pattern

regime_l1 and regime_pq return a Penalty; solve_l0(lifted, gamma) runs
the cardinality regime.
"""

from .analysis import (Solution, build_solution, certify, feasibility_report,
                       h2_cost, simulate_impulse, solve_lyapunov,
                       sparsity_report, stability_check)
from .errors import (InvalidInput, MaxSweepsExceeded, NotConverged, NotHurwitz,
                     SingularW1, SparseLQError)
from .l0 import ContinuationOptions, solve_l0
from .model import LiftedProblem, PlantData, ValidatedPlant, lift_plant, validate_plant
from .outer import SolverOptions, regime_l1, regime_pq, solve_relaxed
from .penalties import Penalty, prox_piecewise_quadratic, prox_weighted_l1

__version__ = "0.1.0"

__all__ = [
    "ContinuationOptions", "InvalidInput", "LiftedProblem",
    "MaxSweepsExceeded", "NotConverged", "NotHurwitz", "Penalty",
    "PlantData", "SingularW1", "Solution", "SolverOptions", "SparseLQError",
    "ValidatedPlant", "build_solution", "certify", "feasibility_report",
    "h2_cost", "lift_plant", "prox_piecewise_quadratic", "prox_weighted_l1",
    "regime_l1", "regime_pq", "simulate_impulse", "solve_l0",
    "solve_lyapunov", "solve_relaxed", "sparsity_report", "stability_check",
    "validate_plant",
]
