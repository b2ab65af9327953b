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

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .cones import sym_eigh
from .errors import InvalidInput, is_integer
from . import vectorize

# Largest plant order the package takes: analysis.solve_lyapunov's dense
# operator has order**4 entries, 20 MB here.
MAX_LYAPUNOV_ORDER = 40
# A guard on _congruence's scaling loop, which stops on its own once
# rounding stalls it: after 41 to 216 steps on the plants measured, up to
# n = 40.  It could bind only on a plant that no congruence scales.
MAX_SCALING_STEPS = 1000


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
        def matrix(M):
            return np.atleast_2d(np.asarray(M, dtype=float))
        for name in ("A", "B2", "B1", "C", "D"):
            object.__setattr__(self, name, matrix(getattr(self, name)))
        vs = ((self.A, self.B2),) if self.vertices is None else tuple(
            (matrix(Av), matrix(Bv)) for Av, Bv in self.vertices)
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

    Raises InvalidInput for inconsistent shapes, an empty vertex list, an
    order above MAX_LYAPUNOV_ORDER, a non-finite entry, C^T D != 0,
    singular D^T D, or singular B1 B1^T, the last three to 1e-12
    relative.
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
    if not plant.vertices:
        raise InvalidInput("vertices must be a nonempty list")
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
    DtD, B1B1t, CtC = (0.5 * (S + S.T)
                       for S in (D.T @ D, B1 @ B1.T, C.T @ C))
    for name, S in (("D^T D", DtD), ("B1 B1^T", B1B1t)):
        w = np.linalg.eigvalsh(S)
        if w[0] <= 1e-12 * w[-1]:
            raise InvalidInput(f"{name} must be positive definite")
    return ValidatedPlant(plant=plant, CtC=CtC, DtD=DtD, B1B1t=B1B1t)


@dataclass(frozen=True)
class LiftedProblem:
    """All derived operators of the convex parameterization.

    Beyond the block matrices (F_list, R), this carries the vectorization
    maps, the equality constraint, the forced zeros (0-based (i, j) gain
    entries pinned to 0) and the data of the inner solver in isometric
    coordinates.  The equality constraint A vec(W) + B P = 0 is W[n + i, j]
    = P[i, j] for each gain entry (i, j), so B = -I and A vec(W) is the
    gather vec(W)[gain_cols]: gain_cols lists the vec index of W[n + i, j]
    and gain_coords its svec coordinate, both in the column-major order of
    the gain, and the multiplier lambda has P's shape.  Neither W1's
    diagonal structure nor a forced zero adds a row: held lists the svec
    coordinates of W the inner solve keeps at zero instead, W1's
    off-diagonal entries and the entry W[n + i, j] of each forced zero;
    gram_diag is the diagonal of the Gram matrix of A unsvec (each row of A
    reads one entry of W2, so the Gram matrix is diagonal).

    The inner solve reads each vertex constraint Theta_i(W) <= 0 in the
    congruent form S_i Theta_i(W) S_i^T <= 0, which holds exactly when
    Theta_i(W) <= 0 does, since S_i (S_list[i]) is invertible.  J_list[i]
    sends svec(W) to svec of S_i V2 (F_i W + W F_i^T) V2^T S_i^T, and row
    i of kappa_q is svec(S_i B1 B1^T S_i^T), the constant part of that
    block.  S_i conditions the block curvature G_i = J_i diag(free) J_i^T
    (free is 0 on held), see _congruence, and is scaled so that G_i keeps
    its Frobenius norm at S_i = I; the inner sweep's step constants come
    from these better conditioned blocks.  A multiplier Y_i of the
    conditioned block is the multiplier X_i = S_i^T Y_i S_i of
    Theta_i(W) <= 0.  The three are built on first use, so a lift that
    only certifies (as sparselq verify does) does not build them.
    F_list, R and theta_block stay in the plant's units, and the
    certificate reads those.

    curvature is the inner solver's memo of the sigma-dependent dual
    curvature, one entry per (sigma1, sigma2) pair, which depends on the
    lift and the pair alone; inner.assemble_dual_data fills it and keeps
    it within inner.CURVATURE_CACHE_BYTES.  Every solve on the lift
    shares it; it is no init field, since an entry is keyed by the pair
    alone, so a copy made by dataclasses.replace starts empty.
    """

    plant: ValidatedPlant
    n: int
    m: int
    p: int
    F_list: tuple
    R: np.ndarray
    svec_p: vectorize.SvecMaps
    svec_n: vectorize.SvecMaps
    forced_zeros: tuple
    held: np.ndarray = field(repr=False)
    gain_cols: np.ndarray = field(repr=False)
    gain_coords: np.ndarray = field(repr=False)
    gram_diag: np.ndarray = field(repr=False)
    curvature: dict = field(default_factory=dict, init=False, repr=False,
                            compare=False)

    @functools.cached_property
    def _vertex_maps(self):
        """(J_list, kappa_q, S_list), see the class docstring."""
        n, svec_p, svec_n = self.n, self.svec_p, self.svec_n
        free = np.ones(svec_p.size, dtype=bool)
        free[self.held] = False
        # block r is the vertex block of the basis matrix unsvec(e_r)
        basis = (np.eye(svec_p.size) * svec_p.plain_scale)[:, svec_p.coord]
        J_list, kappa_q, S_list = [], [], []
        for F in self.F_list:
            blocks = _vertex_block(F, basis, n)
            M = blocks[free]
            S = _congruence(M)
            # the transpose of the stacked rows is Fortran-ordered, as the
            # sweep reads it
            J = ((S @ blocks @ S.T).reshape(svec_p.size, n * n)
                 .take(svec_n.lower, axis=1) * svec_n.iso_scale).T
            # ||G_i||_F before and after, from the Gram matrices of the
            # free columns; both are 0 where every free column is
            M = M.reshape(len(M), n * n)
            norms = (np.linalg.norm(M.dot(M.T)),
                     np.linalg.norm(J[:, free].T.dot(J[:, free])))
            scale = math.sqrt(norms[0] / norms[1]) if norms[1] > 0 else 1.0
            J_list.append(J * scale)
            kappa_q.append(vectorize.svec(S @ self.plant.B1B1t @ S.T, svec_n)
                           * scale)
            S_list.append(S * math.sqrt(scale))
        return tuple(J_list), np.array(kappa_q), tuple(S_list)

    @property
    def J_list(self):
        return self._vertex_maps[0]

    @property
    def kappa_q(self):
        return self._vertex_maps[1]

    @property
    def S_list(self):
        return self._vertex_maps[2]

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


def _congruence(M):
    """The congruence S that conditions G = sum_r svec(M_r) svec(M_r)^T,
    for the stack M of symmetric blocks, or the identity where G has no
    positive definite Kronecker factor.

    Rearranged (Van Loan & Pitsianis 1993), G is the map
    V -> sum_r M_r V M_r, and its image of the identity, C = sum_r M_r^2,
    is a Kronecker factor of G: exact, C0 times tr(C0), where G is
    C0 (x) C0.  S scales the map as Gurvits' operator scaling does: it
    repeats S <- C~^(-1/4) S, C~ = sum_r (S M_r S^T)^2, the factor of the
    conditioned G, while the spread of C~'s eigenvalues falls, so that
    it ends with C~ a multiple of the identity to rounding.  One step
    from S = I is S = C^(-1/4); the fixed point conditions G further.
    (The nearest Kronecker factor, the map's top eigenvector, picks the
    heaviest of G's Kronecker terms instead, and conditioned G worse on
    half the plants tried.)
    """
    n = M.shape[-1]
    flat = M.reshape(len(M), -1)
    # R[(i, k), (j, l)] = sum_r M_r[i, j] M_r[k, l] maps vec(V) to
    # vec(sum_r M_r V M_r), row-major
    R = flat.T.dot(flat).reshape(n, n, n, n).transpose(0, 2, 1, 3)
    R = R.reshape(n * n, n * n)
    S, spread = np.eye(n), math.inf
    for _ in range(MAX_SCALING_STEPS):
        C = S.dot(R.dot(S.T.dot(S).ravel()).reshape(n, n)).dot(S.T)
        w, U = sym_eigh(C)
        if not (w[0] > 0.0 and w[-1] < spread * w[0]):
            break
        spread = w[-1] / w[0]
        S = (U * w ** -0.25).dot(U.T).dot(S)
    return S


def lift_plant(vplant, forced_zeros=()):
    """Build the LiftedProblem for a validated plant.

    forced_zeros is an iterable of 0-based (i, j) pairs in the gain index
    set {0..m-1} x {0..n-1}; an entry that is not a pair, a pair outside
    the set, or one with an index that is not an integer (errors.is_integer:
    a numpy integer is one, a bool, a string or a float is not), raises
    InvalidInput.
    """
    plant = vplant.plant
    n, m = plant.n, plant.m
    p = n + m
    try:
        fz = tuple(map(tuple, forced_zeros))
    except TypeError:
        raise InvalidInput(f"forced_zeros: {forced_zeros!r} is not a list "
                           f"of pairs") from None
    for z in fz:
        if not (len(z) == 2 and all(map(is_integer, z))
                and 0 <= z[0] < m and 0 <= z[1] < n):
            raise InvalidInput(f"forced_zeros: {z!r} is not an integer pair "
                               f"inside the {m} x {n} gain")

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
    held = np.array([*svec_p.coord[np.triu_indices(n, 1)],
                     *(svec_p.coord[n + i, j] for i, j in fz)], dtype=np.int64)

    # vec index of the bottom-left m x n block, column-major
    gain_cols = (np.arange(n, p) + p * np.arange(n)[:, None]).ravel()
    # Row k of A unsvec reads gain coordinate gain[k] at plain_scale, and
    # no two rows read the same one, so the Gram matrix is diagonal:
    # plain_scale^2 on the gain coordinates, 0 elsewhere.
    gain = svec_p.coord[n:, :n].ravel(order="F")
    gram_diag = np.zeros(svec_p.size)
    gram_diag[gain] = svec_p.plain_scale[gain] ** 2

    return LiftedProblem(plant=vplant, n=n, m=m, p=p,
                         F_list=tuple(F_list), R=R,
                         svec_p=svec_p, svec_n=svec_n,
                         forced_zeros=fz, held=held, gain_cols=gain_cols,
                         gain_coords=gain,
                         gram_diag=gram_diag)
