"""Sparse static state feedback for uncertain linear-quadratic plants.

The package synthesizes a static gain K for dx/dt = A x + B2 u + B1 w
with u = -K x, trading closed-loop quadratic cost against the number of
nonzero gain entries.  A convex lift replaces K by a symmetric parameter
matrix whose trailing block carries the sparsity; a two-timescale
primal-dual splitting drives the lifted problem through an inner
coordinate solver on the explicit dual.  Weighted l1, piecewise
quadratic, and continuation-to-cardinality penalties share the same
machinery.  Solutions come back certified: feasibility of the lift,
per-vertex stability margins, and a cost upper bound.

Typical use:

    plant = validate_plant(PlantData(A, B2, B1, C, D))
    lifted = lift_plant(plant)
    sol = solve_relaxed(lifted, regime_l1(gamma=10.0))
    sol.K, sol.J_upper, sol.pattern
"""

from .analysis import (Solution, build_solution, feasibility_report, h2_cost,
                       recover_gain, riccati_oracle, simulate_impulse,
                       solve_lyapunov, sparsity_report, stability_check)
from .errors import (AssumptionViolated, DimensionMismatch,
                     ForcedZeroOutOfRange, InvalidPqParams,
                     K0NotStabilizing, MaxSweepsExceeded, NoConvergence,
                     NotConverged, NotHurwitz, ParseError, SingularW1,
                     SparseLQError, UnknownKey)
from .l0 import ContinuationOptions, solve_l0
from .model import LiftedProblem, PlantData, ValidatedPlant, lift_plant, validate_plant
from .outer import (RegimeSpec, SolverOptions, regime_anchored, regime_l1,
                    regime_pq, solve_relaxed)
from .penalties import (PenaltyConfig, penalty_value,
                        prox_piecewise_quadratic, prox_weighted_l1)

__version__ = "0.1.0"

__all__ = [
    "AssumptionViolated", "ContinuationOptions", "DimensionMismatch",
    "ForcedZeroOutOfRange", "InvalidPqParams",
    "K0NotStabilizing", "LiftedProblem", "MaxSweepsExceeded",
    "NoConvergence", "NotConverged", "NotHurwitz", "ParseError",
    "PenaltyConfig", "PlantData", "RegimeSpec", "SingularW1", "Solution",
    "SolverOptions", "SparseLQError", "UnknownKey", "ValidatedPlant",
    "build_solution", "feasibility_report", "h2_cost", "lift_plant",
    "penalty_value", "prox_piecewise_quadratic", "prox_weighted_l1",
    "recover_gain", "regime_anchored", "regime_l1", "regime_pq",
    "riccati_oracle", "simulate_impulse", "solve_l0", "solve_lyapunov",
    "solve_relaxed", "sparsity_report", "stability_check", "validate_plant",
]
