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
"""

import math


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

def require_positive(options, *names):
    """Raise InvalidInput unless each named field is finite and > 0;
    a bool is not a number here."""
    for name in names:
        value = getattr(options, name)
        if isinstance(value, bool) or not (value > 0 and math.isfinite(value)):
            raise InvalidInput(f"{name} must be finite and > 0, "
                               f"got {value!r}")


def require_count(options, least, *names):
    """Raise InvalidInput unless each named field is an integer >= least;
    a bool is not a count here."""
    for name in names:
        value = getattr(options, name)
        if not (type(value) is int and value >= least):
            raise InvalidInput(f"{name} must be an integer >= {least}, "
                               f"got {value!r}")
