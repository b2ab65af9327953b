"""Cone and linear-algebra kernels shared by the solvers."""

import numpy as np
from scipy.linalg.lapack import dsyevd

from .errors import EigFailure


def sym_eigh(S):
    """np.linalg.eigh(S) without its per-call checks, which cost more than
    LAPACK dsyevd on the small blocks of the inner solver.  Reads the
    lower triangle; a failed decomposition goes to np.linalg.eigh, which
    raises LinAlgError."""
    w, V, info = dsyevd(S, lower=1)
    if info != 0:
        return np.linalg.eigh(S)
    return w, V


def project_psd(S):
    """Project a symmetric matrix onto the PSD cone (eigenvalue clamp).

    The input is symmetrized first.
    """
    S = 0.5 * (S + S.T)
    try:
        w, V = np.linalg.eigh(S)
    except np.linalg.LinAlgError as exc:
        raise EigFailure(str(exc)) from exc
    P = (V * np.maximum(w, 0.0)) @ V.T
    return 0.5 * (P + P.T)


def _eigvalsh(S):
    try:
        return np.linalg.eigvalsh(0.5 * (S + S.T))
    except np.linalg.LinAlgError as exc:
        raise EigFailure(str(exc)) from exc


def max_eigenvalue(S):
    """Largest eigenvalue of a symmetric matrix."""
    return float(_eigvalsh(S)[-1])


def min_eigenvalue(S):
    """Smallest eigenvalue of a symmetric matrix."""
    return float(_eigvalsh(S)[0])
