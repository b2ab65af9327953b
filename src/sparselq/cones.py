"""Cone and linear-algebra kernels shared by the solvers."""

from scipy.linalg.lapack import dpptrf, dsyevd

from .errors import EigFailure


def sym_eigh(S):
    """np.linalg.eigh(S) without its per-call checks, which cost more than
    LAPACK dsyevd on the small blocks of the inner solver.  Reads the
    lower triangle; a failure raises EigFailure."""
    # compute_v, lower by position: f2py keywords cost about 0.5 us
    w, V, info = dsyevd(S, 1, 1)
    if info != 0:
        raise EigFailure(f"eigenvalues did not converge (LAPACK info {info})")
    return w, V


def positive_definite(ap, d):
    """Whether the order-d matrix with packed lower triangle ap is
    positive definite: Cholesky by LAPACK dpptrf, about 0.7 us at order
    3 against 5 us for sym_eigh.  It need not stop at a NaN, but a NaN
    reaches the last pivot, which must be positive."""
    c, info = dpptrf(d, ap, 1)
    return info == 0 and c[-1] > 0.0


def max_eigenvalue(S):
    """Largest eigenvalue of the symmetric part of S, from LAPACK dsyevd
    without eigenvectors; a failure raises EigFailure."""
    w, _, info = dsyevd(0.5 * (S + S.T), compute_v=0, lower=1)
    if info != 0:
        raise EigFailure(f"eigenvalues did not converge (LAPACK info {info})")
    return float(w[-1])
