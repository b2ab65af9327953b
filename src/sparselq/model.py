"""Plant description, validation, and lifting to the convex parameterization.

The plant is the linear system

    dx/dt = A x + B2 u + B1 w,      z = C x + D u,

optionally with polytopic uncertainty: (A, B2) ranges over the convex hull
of given vertex pairs.  Under C^T D = 0, D^T D > 0, and B1 B1^T > 0 the
quadratic cost of the static feedback u = -K x equals
Tr((C - D K) Wc (C - D K)^T) with Wc the closed-loop controllability
Gramian.

Lifting replaces the gain by a symmetric parameter matrix
W = [[W1, W2], [W2^T, W3]] of order p = n + m with W1 diagonal, subject to

    W >= 0   and   V2 (F_i W + W F_i^T + Q) V2^T <= 0  for every vertex,

where F_i = [[A_i, -B2_i], [0, 0]], Q = blkdiag(B1 B1^T, 0), and
R = blkdiag(C^T C, D^T D).  The recovered gain is K = W2^T W1^{-1}; the
minus sign in F_i makes the constraint block equal
(A_i - B2_i K) W1 + W1 (A_i - B2_i K)^T + B1 B1^T, so feasibility
certifies that u = -K x stabilizes every vertex and that <R, W> upper
bounds every vertex cost.
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import AssumptionViolated, DimensionMismatch
from . import vectorize


@dataclass(frozen=True)
class PlantData:
    """Raw system matrices plus optional uncertainty vertices.

    Parameters
    ----------
    A : (n, n) ndarray
    B2 : (n, m) ndarray
        Control input matrix.
    B1 : (n, l) ndarray
        Disturbance input matrix.
    C : (q, n) ndarray
    D : (q, m) ndarray
    vertices : list of (A_i, B2_i) pairs, optional
        Extreme matrices of the uncertainty polytope.  Defaults to the
        single pair (A, B2).
    """

    A: np.ndarray
    B2: np.ndarray
    B1: np.ndarray
    C: np.ndarray
    D: np.ndarray
    vertices: tuple = None

    def __post_init__(self):
        for name in ("A", "B2", "B1", "C", "D"):
            object.__setattr__(self, name,
                               np.atleast_2d(np.asarray(getattr(self, name), dtype=float)))
        if self.vertices is None:
            object.__setattr__(self, "vertices", ((self.A, self.B2),))
        else:
            vs = tuple((np.atleast_2d(np.asarray(Av, dtype=float)),
                        np.atleast_2d(np.asarray(Bv, dtype=float)))
                       for Av, Bv in self.vertices)
            object.__setattr__(self, "vertices", vs)

    @property
    def n(self):
        return self.A.shape[0]

    @property
    def m(self):
        return self.B2.shape[1]

    @property
    def l(self):
        return self.B1.shape[1]

    @property
    def q(self):
        return self.C.shape[0]


@dataclass(frozen=True)
class ValidatedPlant:
    """A plant that passed validate_plant, with symmetrized products cached."""

    plant: PlantData
    CtC: np.ndarray
    DtD: np.ndarray
    B1B1t: np.ndarray


def validate_plant(plant):
    """Check dimensions and the structural assumptions of the cost.

    Raises DimensionMismatch for inconsistent shapes and
    AssumptionViolated for a non-finite entry, C^T D != 0, singular
    D^T D, or singular B1 B1^T.  Stabilizability is not checked here; it
    is certified a posteriori from the solved parameter matrix.
    """
    A, B2, B1, C, D = plant.A, plant.B2, plant.B1, plant.C, plant.D
    n = A.shape[0]
    if A.shape != (n, n):
        raise DimensionMismatch(f"A must be square, got {A.shape}")
    if n < 1 or B2.shape[1] < 1:
        raise DimensionMismatch("need n >= 1 and m >= 1")
    if B2.shape[0] != n:
        raise DimensionMismatch(f"B2 rows {B2.shape[0]} != n {n}")
    if B1.shape[0] != n:
        raise DimensionMismatch(f"B1 rows {B1.shape[0]} != n {n}")
    if C.shape[1] != n:
        raise DimensionMismatch(f"C cols {C.shape[1]} != n {n}")
    if D.shape != (C.shape[0], B2.shape[1]):
        raise DimensionMismatch(f"D shape {D.shape} != (q, m)")
    for k, (Av, Bv) in enumerate(plant.vertices):
        if Av.shape != A.shape or Bv.shape != B2.shape:
            raise DimensionMismatch(f"vertex {k} shapes {Av.shape}, {Bv.shape}")
    mats = [A, B2, B1, C, D] + [M for pair in plant.vertices for M in pair]
    if not all(np.isfinite(M).all() for M in mats):
        raise AssumptionViolated("finite", "plant entries must be finite")

    # Dimensionless tolerance: scale with the largest entry across inputs.
    scale = max(1.0, max(float(np.max(np.abs(M))) if M.size else 0.0
                         for M in (A, B2, B1, C, D)))
    tol = 1e-12 * scale

    CtD = C.T @ D
    if CtD.size and float(np.max(np.abs(CtD))) > tol:
        raise AssumptionViolated("CtD", "C^T D must vanish entrywise")

    DtD = 0.5 * (D.T @ D + (D.T @ D).T)
    if float(np.linalg.eigvalsh(DtD)[0]) <= tol:
        raise AssumptionViolated("DtD", "D^T D must be positive definite")

    B1B1t = 0.5 * (B1 @ B1.T + (B1 @ B1.T).T)
    if float(np.linalg.eigvalsh(B1B1t)[0]) <= tol:
        raise AssumptionViolated("B1B1t", "B1 B1^T must be positive definite")

    CtC = 0.5 * (C.T @ C + (C.T @ C).T)
    return ValidatedPlant(plant=plant, CtC=CtC, DtD=DtD, B1B1t=B1B1t)


@dataclass(frozen=True)
class LiftedProblem:
    """All derived operators of the convex parameterization.

    Beyond the block matrices (F_list, Q, R), this carries the
    vectorization maps, the equality operator, and the
    isometric-coordinate coupling data used by the inner solver:
    gram_diag is the diagonal of (A D)^T (A D), A the equality operator
    and D the order-p duplication map (the Gram matrix is diagonal, see
    lift_plant), J_list the per-vertex maps sending svec(W) to svec of
    the constraint block, and kappa_q the constant block contribution
    of Q.
    """

    plant: ValidatedPlant
    n: int
    m: int
    p: int
    F_list: tuple
    Q: np.ndarray
    R: np.ndarray
    svec_p: vectorize.SvecMaps
    svec_n: vectorize.SvecMaps
    op: vectorize.ConstraintOperator
    gram_diag: np.ndarray = field(repr=False)
    J_list: tuple = field(repr=False)
    kappa_q: np.ndarray = field(repr=False)

    @property
    def forced_zeros(self):
        return self.op.forced_zeros

    @property
    def n_vertices(self):
        return len(self.F_list)

    def vec_R(self):
        return self.R.reshape(-1, order="F")

    def gain_part(self, W_vec):
        """The bottom-left m x n block of W, vectorized column-major."""
        off = self.op.n_diag
        return W_vec[self.op.A_cols[off:off + self.op.n_gain]]

    def unvec(self, W_vec):
        return W_vec.reshape(self.p, self.p, order="F")

    def theta_block(self, W, i):
        """V2 (F_i W + W F_i^T + Q) V2^T for vertex i."""
        F = self.F_list[i]
        M = F @ W
        return (M + M.T + self.Q)[:self.n, :self.n]

    def psi_block(self, W, i):
        return -self.theta_block(W, i)


def lift_plant(vplant, forced_zeros=()):
    """Build the LiftedProblem for a validated plant."""
    plant = vplant.plant
    n, m = plant.n, plant.m
    p = n + m

    F_list = []
    for Av, Bv in plant.vertices:
        F = np.zeros((p, p))
        F[:n, :n] = Av
        F[:n, n:] = -Bv  # sign fixed by the u = -K x convention, see module doc
        F_list.append(F)

    Q = np.zeros((p, p))
    Q[:n, :n] = vplant.B1B1t
    R = np.zeros((p, p))
    R[:n, :n] = vplant.CtC
    R[n:, n:] = vplant.DtD

    svec_p = vectorize.build_svec_maps(p)
    svec_n = vectorize.build_svec_maps(n)
    op = vectorize.assemble_constraint_operator(n, m, forced_zeros)

    # Row k of A D is row A_cols[k] of D: one entry, 1/sqrt(2), in the
    # column of the coordinate it reads.  The Gram matrix is therefore
    # diagonal, and its diagonal sums those squared entries per column.
    AD = svec_p.D_iso[op.A_cols]
    gram_diag = np.asarray(AD.multiply(AD).sum(axis=0)).ravel()

    # svec(W) -> svec of the symmetric block V2 (F_i W + W F_i^T) V2^T,
    # both in isometric coordinates; V2 = [I 0] selects the leading block.
    V2 = np.eye(n, p)
    J_list = []
    for F in F_list:
        V2F = V2 @ F
        coupling = (np.kron(V2, V2F) + np.kron(V2F, V2))
        J = svec_n.D_iso.T @ coupling @ svec_p.D_iso
        J_list.append(np.asarray(J.todense()) if hasattr(J, "todense") else np.asarray(J))
    kappa_q = np.asarray(svec_n.D_iso.T @ np.kron(V2, V2) @ Q.reshape(-1, order="F")).ravel()

    return LiftedProblem(plant=vplant, n=n, m=m, p=p,
                         F_list=tuple(F_list), Q=Q, R=R,
                         svec_p=svec_p, svec_n=svec_n, op=op,
                         gram_diag=gram_diag,
                         J_list=tuple(J_list), kappa_q=kappa_q)
