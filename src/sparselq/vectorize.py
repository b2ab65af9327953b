"""Vectorization bookkeeping for symmetric matrices.

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
"""

from dataclasses import dataclass, field

import numpy as np

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
