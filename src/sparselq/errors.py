"""Exception types shared across the package.

Every error derives from SparseLQError, and the command line maps each
type to one exit code:

    InvalidInput       2  a file, flag, option or plant that fails its
                          checks; the message names the field.  It is
                          also a ValueError.
    NotConverged       3  the outer loop ran out of iterations; solve
                          still writes the best-effort solution.
    EigFailure,        2  a numerical failure inside solve or verify (as
    SingularW1,           is numpy's LinAlgError); in a sweep, as for any
    NotHurwitz            SparseLQError or LinAlgError raised while
                          solving one gamma, 3 with an error row.
                          SingularW1 comes only from a solve out of
                          budget; a converged stop never raises it.
    MaxSweepsExceeded  -  caught by the outer loop, which accepts the
                          capped inner solve.

verify exits 4 when it reads the file but rejects the solution.

Scalar inputs pass one rule per kind of value; a numpy scalar passes
wherever a Python number does, a bool or a string never does:

    is_number            a number: pq_params, JSON numbers, sigma_decay
    is_integer           an integer: lift_plant's forced-zero indices
    require_positive     finite and > 0: SolverOptions eps1 and eps2,
                         ContinuationOptions sigma0, sigma_min and
                         prox_weight, the prox maps' rho, sigma in
                         surrogate_weights, dt in simulate_impulse
    require_nonnegative  finite and >= 0: gamma (Penalty, the prox maps,
                         the CLI), horizon in simulate_impulse
    require_count        an integer >= 1: max_outer, max_sweeps
"""

import math
import numbers


class SparseLQError(Exception):
    """Base class for all package errors."""


class InvalidInput(SparseLQError, ValueError):
    """An input fails validation; the message names the field."""


# ------------------------------------------------------ linear algebra

class EigFailure(SparseLQError):
    """Symmetric eigendecomposition failed to converge."""


class SingularW1(SparseLQError):
    """The leading block of the recovered parameter matrix is singular."""


class NotHurwitz(SparseLQError):
    """A matrix required to be Hurwitz has spectral abscissa >= 0."""


# ------------------------------------------------------------- solvers

class MaxSweepsExceeded(SparseLQError):
    """Inner solver hit its sweep cap.

    Carries the last sweep output (never an extrapolated point, so it
    lies in the cones) so the caller may accept it with a warning.

    Attributes
    ----------
    v : ndarray
        Vectorized primal recovered from that multiplier state.
    residual : float
        Dual residual at that state.
    state : DualState
        The multiplier state itself (usable as a warm start).
    sweeps : int
        Number of sweeps performed.
    """

    def __init__(self, v, residual, state, sweeps):
        self.v = v
        self.residual = residual
        self.state = state
        self.sweeps = sweeps
        super().__init__(
            f"inner solver: residual {residual:.3e} after {sweeps} sweeps")


class NotConverged(SparseLQError):
    """Outer loop exhausted its iteration budget (for solve_l0, that of
    the last subproblem).

    Attributes
    ----------
    solution : Solution
        Best-effort certified solution at the final iterate.
    primal_res, dual_res : float
        Residuals at the final iterate.
    """

    def __init__(self, solution, primal_res, dual_res):
        self.solution = solution
        self.primal_res = primal_res
        self.dual_res = dual_res
        super().__init__(
            "outer loop not converged: primal residual "
            f"{primal_res:.3e}, dual residual {dual_res:.3e}")


# ---------------------------------------------------------- validation

def is_number(value):
    """Whether value is a real number (numbers.Real, numpy's included): a
    bool is not one here, nor is a string, which float() would take.  A
    float answers before the slower abstract-class test."""
    return isinstance(value, float) or (isinstance(value, numbers.Real)
                                        and not isinstance(value, bool))


def is_integer(value):
    """Whether value is an integer (numbers.Integral, numpy's included); a
    bool is not one here."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def require_positive(value, name):
    """Raise InvalidInput naming name unless value is a number (see
    is_number), finite and > 0."""
    if not (is_number(value) and 0 < value < math.inf):
        raise InvalidInput(f"need a finite {name} > 0, got {value!r}")


def require_nonnegative(value, name):
    """Raise InvalidInput naming name unless value is a number (see
    is_number), finite and >= 0."""
    if not (is_number(value) and 0 <= value < math.inf):
        raise InvalidInput(f"need a finite {name} >= 0, got {value!r}")


def require_count(value, name):
    """Raise InvalidInput naming name unless value is an integer (see
    is_integer) >= 1."""
    if not (is_integer(value) and value >= 1):
        raise InvalidInput(f"need an integer {name} >= 1, got {value!r}")
