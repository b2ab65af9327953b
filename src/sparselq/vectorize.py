"""Vectorization bookkeeping for symmetric matrices and the equality operator.

Symmetric matrices are half-vectorized in one convention, the isometric
one: off-diagonal coordinates are scaled by sqrt(2), so the Euclidean
norm of the coordinate vector equals the Frobenius norm of the matrix
and inner products carry over unchanged.  Cone projections and proximal
terms rely on this.

Coordinate ordering is lower-triangular column-major: coordinate r walks
(i, j) with i >= j, j ascending, and i ascending within each column.  Full
vectorization ``vec`` is always column-major.  Every map between the two
is applied through the index arrays of SvecMaps: svec gathers the lower
triangle, unsvec gathers through coord, and sym_svec, the adjoint of
unsvec, sums the two triangles.

The equality operator of the lift only selects entries of vec(W), so it
is stored as the column index each row reads and applied as a gather.
Its row layout, which is also the layout of the splitting's multiplier
lambda, is kept here alone: m*n gain rows, then one row per forced
zero.  Every other module reaches lambda's rows through
ConstraintOperator.  W1's diagonal structure has no rows: the inner
solve holds W1's off-diagonal coordinates at zero (see inner).
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInput

_SQRT2 = np.sqrt(2.0)


@dataclass(frozen=True)
class SvecMaps:
    """Half-vectorization data for symmetric matrices of order d.

    Coordinate r holds S[i, j] and S[j, i], i >= j, at row-major flat
    index lower[r] and upper[r]; coord[i, j] is the coordinate of S[i, j].
    iso_scale is 1 on diagonal coordinates and sqrt(2) off it, and
    s * plain_scale (= s / iso_scale) holds the plain entries S[i, j].
    """

    dim: int
    lower: np.ndarray = field(repr=False)
    upper: np.ndarray = field(repr=False)
    iso_scale: np.ndarray = field(repr=False)
    coord: np.ndarray = field(repr=False)
    plain_scale: np.ndarray = field(repr=False)

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
    return SvecMaps(dim=d, lower=idx_i * d + idx_j, upper=idx_j * d + idx_i,
                    iso_scale=iso_scale, coord=coord,
                    plain_scale=1.0 / iso_scale)


def svec(S, maps):
    """Half-vectorize a symmetric matrix (its lower triangle)."""
    return S.take(maps.lower) * maps.iso_scale


def unsvec(s, maps):
    """Rebuild the symmetric matrix from its isometric half-vectorization."""
    return (s * maps.plain_scale)[maps.coord]


def sym_svec(v, maps):
    """svec of the symmetric part of G, vec(G) = v, in which G[i, j] and
    G[j, i] sit at upper[r] and lower[r] of column-major v."""
    return (v[maps.upper] + v[maps.lower]) * (0.5 * maps.iso_scale)


@dataclass(frozen=True)
class ConstraintOperator:
    """The stacked equality operator A vec(W) + B P = 0 as a gather.

    Row layout: m*n gain-extraction rows equal to vec of the bottom-left
    block, then one row per forced-zero entry.  Every row of A has a
    single unit entry, in column A_cols[row] of vec(W), and p is the
    order of W; B is zero except for -I on the gain rows.
    """

    p: int
    A_cols: np.ndarray
    n_gain: int
    forced_zeros: tuple

    @property
    def n_rows(self):
        return self.A_cols.size

    def apply_A(self, x):
        return x[self.A_cols]

    def apply_At(self, lam):
        return np.bincount(self.A_cols, weights=lam,
                           minlength=self.p * self.p)

    def apply_Bt(self, lam):
        return -lam[:self.n_gain]

    def residual(self, x, w):
        """A x + B w, formed from one gather."""
        out = x[self.A_cols]
        out[:self.n_gain] -= w
        return out


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
            raise InvalidInput(
                f"forced_zeros: ({i}, {j}) lies outside the {m} x {n} gain")
        fz.append((i, j))

    cols = []
    # Gain rows: vec of the bottom-left m x n block, column-major.
    for j in range(n):
        for i in range(m):
            cols.append((n + i) + j * p)
    # Forced-zero rows repeat the matching gain row.
    for (i, j) in fz:
        cols.append((n + i) + j * p)

    return ConstraintOperator(p=p,
                              A_cols=np.asarray(cols, dtype=np.int64),
                              n_gain=m * n,
                              forced_zeros=tuple(fz))
