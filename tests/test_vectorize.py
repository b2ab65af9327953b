import subprocess
import sys

import numpy as np
import pytest

from sparselq import vectorize

from conftest import dense_duplication, source_env


def random_sym(rng, d):
    S = rng.standard_normal((d, d))
    return 0.5 * (S + S.T)


@pytest.mark.parametrize("d", [1, 2, 3, 5, 8])
def test_svec_roundtrip_both_conventions(d):
    # svec is isometric; dividing out iso_scale gives the plain
    # lower-triangle entries in the documented coordinate order.
    rng = np.random.default_rng(d)
    maps = vectorize.build_svec_maps(d)
    S = random_sym(rng, d)
    s = vectorize.svec(S, maps)
    assert s.shape == (d * (d + 1) // 2,)
    np.testing.assert_allclose(vectorize.unsvec(s, maps), S, atol=1e-14)
    plain = [S[i, j] for j in range(d) for i in range(j, d)]
    np.testing.assert_allclose(s / maps.iso_scale, plain, atol=1e-14)


@pytest.mark.parametrize("d", [2, 3, 6])
def test_iso_coordinates_preserve_norms(d):
    rng = np.random.default_rng(10 + d)
    maps = vectorize.build_svec_maps(d)
    S = random_sym(rng, d)
    T = random_sym(rng, d)
    s, t = (vectorize.svec(M, maps) for M in (S, T))
    assert np.isclose(s @ t, np.sum(S * T), atol=1e-12)
    assert np.isclose(np.linalg.norm(s), np.linalg.norm(S, "fro"), atol=1e-12)


def test_maps_match_fancy_indexing():
    # The index maps apply the duplication map D of the documented
    # coordinate order: unsvec(s) = D s as a matrix, and
    # svec(S) = sym_svec(vec(S)) = D^T vec(S) for symmetric S.
    d = 4
    rng = np.random.default_rng(3)
    maps = vectorize.build_svec_maps(d)
    D = dense_duplication(d)
    S = random_sym(rng, d)
    v = S.reshape(-1, order="F")
    s = vectorize.svec(S, maps)
    np.testing.assert_allclose(D @ s, v, atol=1e-14)
    np.testing.assert_allclose(D.T @ v, s, atol=1e-14)
    np.testing.assert_allclose(vectorize.sym_svec(v, maps), s, atol=1e-14)
    t = rng.standard_normal(maps.size)
    np.testing.assert_allclose(
        vectorize.unsvec(t, maps).reshape(-1, order="F"), D @ t, atol=1e-14)


def test_duplication_is_isometry_adjoint():
    # sym_svec is the adjoint of unsvec: sym_svec(vec(G)) = D^T vec(G) is
    # the iso coordinates of the symmetrized G, and
    # <unsvec(t), G> = <t, sym_svec(vec(G))>.
    d = 5
    rng = np.random.default_rng(4)
    maps = vectorize.build_svec_maps(d)
    G = rng.standard_normal((d, d))
    v = G.reshape(-1, order="F")
    lhs = vectorize.sym_svec(v, maps)
    rhs = vectorize.svec(0.5 * (G + G.T), maps)
    np.testing.assert_allclose(lhs, rhs, atol=1e-14)
    np.testing.assert_allclose(lhs, dense_duplication(d).T @ v, atol=1e-14)
    t = rng.standard_normal(maps.size)
    assert np.isclose(np.sum(vectorize.unsvec(t, maps) * G), t @ lhs,
                      atol=1e-12)


def test_import_leaves_scipy_sparse_unloaded():
    # every map is an index array, and the LAPACK kernels come from
    # numpy: the package and its command line load no scipy module
    code = ("import sys, sparselq, sparselq.cli; "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=source_env(), check=True)
    assert res.stdout.strip() == "[]"


def test_bad_order_rejected():
    with pytest.raises(ValueError):
        vectorize.build_svec_maps(0)
