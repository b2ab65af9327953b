"""Vectorization bookkeeping for symmetric matrices and the equality operator.

Symmetric matrices are half-vectorized in one convention, the isometric
one: off-diagonal coordinates are scaled by sqrt(2), so the Euclidean
norm of the coordinate vector equals the Frobenius norm of the matrix
and inner products carry over unchanged.  Cone projections and proximal
terms rely on this.

Coordinate ordering is lower-triangular column-major: coordinate r walks
(i, j) with i >= j, j ascending, and i ascending within each column.  Full
vectorization ``vec`` is always column-major.

The equality operator of the lift only selects entries of vec(W), so it
is stored as the column index each row reads and applied as a gather.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import ForcedZeroOutOfRange

_SQRT2 = np.sqrt(2.0)


@dataclass(frozen=True)
class SvecMaps:
    """Half-vectorization data for symmetric matrices of order d.

    idx_i, idx_j give the (row, column) of each coordinate and iso_scale
    holds 1 on diagonal coordinates and sqrt(2) off it; coord[i, j] is
    the coordinate that holds S[i, j] and S[j, i].  svec/unsvec run as
    fancy indexing.  D_iso (d^2 x t) is the duplication map:
    D_iso @ svec(S) = vec(S), and D_iso^T vec(G) = svec of the
    symmetric part of G.
    """

    dim: int
    D_iso: sp.csr_matrix
    idx_i: np.ndarray = field(repr=False)
    idx_j: np.ndarray = field(repr=False)
    iso_scale: np.ndarray = field(repr=False)
    coord: np.ndarray = field(repr=False)

    @property
    def size(self):
        return self.dim * (self.dim + 1) // 2


def build_svec_maps(d):
    """Build the maps for symmetric matrices of order d >= 1."""
    if d < 1:
        raise ValueError("matrix order must be >= 1")
    t = d * (d + 1) // 2
    # (row, column) of each coordinate, in the order of the module
    # docstring: the upper-triangle pairs (j, i) come out row-major.
    idx_j, idx_i = np.triu_indices(d)
    iso_scale = np.where(idx_i == idx_j, 1.0, _SQRT2)
    coord = np.empty((d, d), dtype=np.int64)
    coord[idx_i, idx_j] = coord[idx_j, idx_i] = np.arange(t)

    # Row i + j*d of D (the vec entry S[i, j]) reads coordinate
    # coord[i, j] and undoes its scale.
    cols = coord.ravel(order="F")
    D_iso = sp.csr_matrix((1.0 / iso_scale[cols], (np.arange(d * d), cols)),
                          shape=(d * d, t))

    return SvecMaps(dim=d, D_iso=D_iso,
                    idx_i=idx_i, idx_j=idx_j, iso_scale=iso_scale,
                    coord=coord)


def svec(S, maps):
    """Half-vectorize a symmetric matrix in isometric coordinates."""
    return S[maps.idx_i, maps.idx_j] * maps.iso_scale


def unsvec(s, maps):
    """Rebuild the symmetric matrix from its isometric half-vectorization."""
    return (s / maps.iso_scale)[maps.coord]


@dataclass(frozen=True)
class ConstraintOperator:
    """The stacked equality operator A vec(W) + B P = 0 as a gather.

    Row layout: N = n(n-1)/2 diagonal-constraint rows (the strict upper
    triangle W[i, j], i < j, of the leading n x n block, row-major), then
    m*n gain-extraction rows equal to vec of the bottom-left block, then
    one row per forced-zero entry.  Every row of A has a single unit
    entry, in column A_cols[row] of vec(W); B is zero except for -I on
    the gain rows.
    """

    n: int
    m: int
    p: int
    A_cols: np.ndarray
    n_diag: int
    n_gain: int
    n_forced: int
    forced_zeros: tuple

    @property
    def n_rows(self):
        return self.n_diag + self.n_gain + self.n_forced

    def apply_A(self, x):
        return x[self.A_cols]

    def apply_At(self, lam):
        out = np.zeros(self.p * self.p)
        np.add.at(out, self.A_cols, lam)
        return out

    def apply_B(self, w):
        out = np.zeros(self.n_rows)
        out[self.n_diag:self.n_diag + self.n_gain] = -w
        return out

    def apply_Bt(self, lam):
        return -lam[self.n_diag:self.n_diag + self.n_gain]


def assemble_constraint_operator(n, m, forced_zeros=()):
    """Assemble the equality operator for gain shape m x n, order p = n + m.

    forced_zeros is an iterable of 0-based (i, j) pairs in the gain index
    set {0..m-1} x {0..n-1}; each adds a row pinning that gain entry to 0.
    """
    p = n + m
    fz = []
    for pair in forced_zeros:
        i, j = int(pair[0]), int(pair[1])
        if not (0 <= i < m and 0 <= j < n):
            raise ForcedZeroOutOfRange(
                f"forced zero ({i}, {j}) outside gain shape {m} x {n}")
        fz.append((i, j))

    cols = []
    # Diagonal-constraint rows: W[i, j], i < j, within the leading block.
    for i in range(n):
        for j in range(i + 1, n):
            cols.append(i + j * p)
    n_diag = len(cols)
    # Gain rows: vec of the bottom-left m x n block, column-major.
    for j in range(n):
        for i in range(m):
            cols.append((n + i) + j * p)
    # Forced-zero rows repeat the matching gain row.
    for (i, j) in fz:
        cols.append((n + i) + j * p)

    return ConstraintOperator(n=n, m=m, p=p,
                              A_cols=np.asarray(cols, dtype=np.int64),
                              n_diag=n_diag, n_gain=m * n,
                              n_forced=len(fz), forced_zeros=tuple(fz))
