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

import numpy as np

from .errors import InvalidInput
from . import vectorize

# Largest plant order the package takes: analysis.solve_lyapunov's dense
# operator has order**4 entries, 20 MB here.
MAX_LYAPUNOV_ORDER = 40


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


@dataclass(frozen=True)
class ValidatedPlant:
    """A plant that passed validate_plant, with symmetrized products cached."""

    plant: PlantData
    CtC: np.ndarray
    DtD: np.ndarray
    B1B1t: np.ndarray


def validate_plant(plant):
    """Check dimensions and the structural assumptions of the cost.

    Raises InvalidInput for inconsistent shapes, an order above
    MAX_LYAPUNOV_ORDER, a non-finite entry, C^T D != 0, singular D^T D,
    or singular B1 B1^T, the last three to 1e-12 relative.
    Stabilizability is not checked here; it is certified a posteriori
    from the solved parameter matrix.
    """
    A, B2, B1, C, D = plant.A, plant.B2, plant.B1, plant.C, plant.D
    n = A.shape[0]
    if A.shape != (n, n):
        raise InvalidInput(f"A must be square, got {A.shape}")
    if n < 1 or B2.shape[1] < 1:
        raise InvalidInput("need n >= 1 and m >= 1")
    if n > MAX_LYAPUNOV_ORDER:
        raise InvalidInput(f"n = {n} exceeds the supported order "
                           f"{MAX_LYAPUNOV_ORDER}")
    if B2.shape[0] != n:
        raise InvalidInput(f"B2 rows {B2.shape[0]} != n {n}")
    if B1.shape[0] != n:
        raise InvalidInput(f"B1 rows {B1.shape[0]} != n {n}")
    if C.shape[1] != n:
        raise InvalidInput(f"C cols {C.shape[1]} != n {n}")
    if D.shape != (C.shape[0], B2.shape[1]):
        raise InvalidInput(f"D shape {D.shape} != (q, m)")
    for k, (Av, Bv) in enumerate(plant.vertices):
        if Av.shape != A.shape or Bv.shape != B2.shape:
            raise InvalidInput(f"vertex {k} shapes {Av.shape}, {Bv.shape}")
    mats = [A, B2, B1, C, D] + [M for pair in plant.vertices for M in pair]
    if not all(np.isfinite(M).all() for M in mats):
        raise InvalidInput("plant entries must be finite")

    # Each condition is judged on the scale of the matrices it involves:
    # |C^T D| against ||C||_F ||D||_F, which bounds every entry, and each
    # Gramian's smallest eigenvalue against its largest.
    CtD = C.T @ D
    if np.max(np.abs(CtD)) > 1e-12 * np.linalg.norm(C) * np.linalg.norm(D):
        raise InvalidInput("C^T D must vanish entrywise")
    DtD = 0.5 * (D.T @ D + (D.T @ D).T)
    B1B1t = 0.5 * (B1 @ B1.T + (B1 @ B1.T).T)
    for name, S in (("D^T D", DtD), ("B1 B1^T", B1B1t)):
        w = np.linalg.eigvalsh(S)
        if w[0] <= 1e-12 * w[-1]:
            raise InvalidInput(f"{name} must be positive definite")

    CtC = 0.5 * (C.T @ C + (C.T @ C).T)
    return ValidatedPlant(plant=plant, CtC=CtC, DtD=DtD, B1B1t=B1B1t)


@dataclass(frozen=True)
class LiftedProblem:
    """All derived operators of the convex parameterization.

    Beyond the block matrices (F_list, R), this carries the
    vectorization maps, the equality operator, the forced zeros (0-based
    (i, j) gain entries pinned to 0) and the data of the inner solver in
    isometric coordinates: held lists the svec coordinates of W the
    inner solve keeps at zero, W1's off-diagonal entries and the entry
    W[n + i, j] of each forced zero; gain_coords lists the svec
    coordinate of the entry W[n + i, j] of each gain entry (i, j), in the
    column-major order of the gain; gram_diag is the diagonal of the
    Gram matrix of A unsvec (A the equality operator; each row reads one
    entry of W2, so the Gram matrix is diagonal), J_list the per-vertex
    maps sending svec(W) to svec of V2 (F_i W + W F_i^T) V2^T, and
    kappa_q = svec(B1 B1^T), the constant part of the constraint block.
    """

    plant: ValidatedPlant
    n: int
    m: int
    p: int
    F_list: tuple
    R: np.ndarray
    svec_p: vectorize.SvecMaps
    svec_n: vectorize.SvecMaps
    op: vectorize.ConstraintOperator
    forced_zeros: tuple
    held: np.ndarray = field(repr=False)
    gain_coords: np.ndarray = field(repr=False)
    gram_diag: np.ndarray = field(repr=False)
    J_list: tuple = field(repr=False)
    kappa_q: np.ndarray = field(repr=False)

    @property
    def n_vertices(self):
        return len(self.F_list)

    def vec_R(self):
        return self.R.reshape(-1, order="F")

    def unvec(self, W_vec):
        return W_vec.reshape(self.p, self.p, order="F")

    def theta_block(self, W, i):
        """V2 (F_i W + W F_i^T + Q) V2^T for vertex i."""
        return _vertex_block(self.F_list[i], W, self.n) + self.plant.B1B1t


def _vertex_block(F, W, n):
    """V2 (F W + W F^T) V2^T, for one W or a stack of them."""
    M = F @ W
    return (M + M.swapaxes(-1, -2))[..., :n, :n]


def lift_plant(vplant, forced_zeros=()):
    """Build the LiftedProblem for a validated plant.

    forced_zeros is an iterable of 0-based (i, j) pairs in the gain index
    set {0..m-1} x {0..n-1}; a pair outside it raises InvalidInput.
    """
    plant = vplant.plant
    n, m = plant.n, plant.m
    p = n + m
    fz = tuple((int(i), int(j)) for i, j in forced_zeros)
    for i, j in fz:
        if not (0 <= i < m and 0 <= j < n):
            raise InvalidInput(
                f"forced_zeros: ({i}, {j}) lies outside the {m} x {n} gain")

    F_list = []
    for Av, Bv in plant.vertices:
        F = np.zeros((p, p))
        F[:n, :n] = Av
        F[:n, n:] = -Bv  # sign fixed by the u = -K x convention, see module doc
        F_list.append(F)

    R = np.zeros((p, p))
    R[:n, :n] = vplant.CtC
    R[n:, n:] = vplant.DtD

    svec_p = vectorize.build_svec_maps(p)
    svec_n = vectorize.build_svec_maps(n)
    op = vectorize.assemble_constraint_operator(n, m)
    held = np.array([*svec_p.coord[np.triu_indices(n, 1)],
                     *(svec_p.coord[n + i, j] for i, j in fz)], dtype=np.int64)

    # Row k of A unsvec reads gain coordinate coord[A_cols[k]] at
    # plain_scale, and no two rows read the same one, so the Gram matrix
    # is diagonal: plain_scale^2 on the gain coordinates, 0 elsewhere.
    gain = svec_p.coord[n:, :n].ravel(order="F")
    gram_diag = np.zeros(svec_p.size)
    gram_diag[gain] = svec_p.plain_scale[gain] ** 2

    # Column r of J_i is svec of the vertex block of unsvec(e_r); the
    # transpose of the stacked rows is Fortran-ordered, as the sweep reads it.
    basis = (np.eye(svec_p.size) * svec_p.plain_scale)[:, svec_p.coord]
    J_list = []
    for F in F_list:
        blocks = _vertex_block(F, basis, n).reshape(svec_p.size, n * n)
        J_list.append((blocks.take(svec_n.lower, axis=1) * svec_n.iso_scale).T)
    kappa_q = vectorize.svec(vplant.B1B1t, svec_n)

    return LiftedProblem(plant=vplant, n=n, m=m, p=p,
                         F_list=tuple(F_list), R=R,
                         svec_p=svec_p, svec_n=svec_n, op=op,
                         forced_zeros=fz, held=held, gain_coords=gain,
                         gram_diag=gram_diag,
                         J_list=tuple(J_list), kappa_q=kappa_q)
