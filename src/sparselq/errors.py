"""Exception types shared across the package.

All solver errors derive from SparseLQError so callers (and the command
line front end) can map failures to coarse categories: input validation,
non-convergence, certification.
"""


class SparseLQError(Exception):
    """Base class for all package errors."""


# ---------------------------------------------------------------- inputs

class DimensionMismatch(SparseLQError):
    """Matrix shapes are mutually inconsistent."""


class AssumptionViolated(SparseLQError):
    """A structural assumption on the plant fails.

    Parameters
    ----------
    which : str
        Name of the violated assumption, e.g. "CtD", "DtD", "B1B1t".
    """

    def __init__(self, which, message=None):
        self.which = which
        super().__init__(message or f"plant assumption violated: {which}")


class ForcedZeroOutOfRange(SparseLQError):
    """A forced-zero index pair lies outside the gain dimensions."""


class InvalidPqParams(SparseLQError):
    """Piecewise-quadratic parameters must satisfy a1, a2 > 0 and b1 < 0 < b2."""


class NonPositiveRho(SparseLQError):
    """Proximal parameter rho must be strictly positive."""


class NonPositiveSigma(SparseLQError):
    """Surrogate scale sigma must be strictly positive."""


# ------------------------------------------------------ linear algebra

class EigFailure(SparseLQError):
    """Symmetric eigendecomposition failed to converge."""


class SingularW1(SparseLQError):
    """The leading block of the recovered parameter matrix is singular."""


class NotHurwitz(SparseLQError):
    """A matrix required to be Hurwitz has spectral abscissa >= 0."""


class TooLarge(SparseLQError):
    """Problem dimension exceeds the supported desk scale."""


# ------------------------------------------------------------- solvers

class MaxSweepsExceeded(SparseLQError):
    """Inner solver hit its sweep cap.

    Carries the best iterate so the caller may accept it with a warning.

    Attributes
    ----------
    v : ndarray
        Vectorized primal recovered from the best multiplier state.
    residual : float
        Dual residual at the best state.
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
    """Outer loop exhausted its iteration budget.

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


class K0NotStabilizing(SparseLQError):
    """The initial gain handed to the Riccati iteration does not stabilize."""


class NoConvergence(SparseLQError):
    """The Riccati iteration failed to converge within its cap."""


# ----------------------------------------------------------------- cli

class ParseError(SparseLQError):
    """Problem or solution file is malformed."""


class UnknownKey(ParseError):
    """Problem file contains an unrecognized key."""
