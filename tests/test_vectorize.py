import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sparselq import vectorize
from sparselq.errors import InvalidInput

from conftest import dense_duplication, dense_equality_operator, source_env


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


def test_diag_constraint_pairs_pick_strict_upper():
    # The diagonal-constraint rows of apply_A read the strict upper
    # triangle of the leading block, row-major.
    n, m = 3, 2
    p = n + m
    op = vectorize.assemble_constraint_operator(n, m)
    assert op.n_diag == n * (n - 1) // 2
    rng = np.random.default_rng(5)
    W = rng.standard_normal((p, p))
    seen = op.apply_A(W.reshape(-1, order="F"))[:op.n_diag]
    expected = [W[i, j] for i in range(n) for j in range(i + 1, n)]
    np.testing.assert_array_equal(seen, expected)


class TestConstraintOperator:
    def setup_method(self):
        self.op = vectorize.assemble_constraint_operator(3, 2,
                                                         forced_zeros=((1, 2),))

    def test_row_counts(self):
        op = self.op
        assert (op.n_diag, op.n_gain, op.n_forced) == (3, 6, 1)
        assert op.n_rows == 10

    def test_fast_paths_match_matrices(self):
        op = self.op
        A, B = dense_equality_operator(op, 3, 2)
        rng = np.random.default_rng(6)
        x = rng.standard_normal(25)
        lam = rng.standard_normal(op.n_rows)
        w = rng.standard_normal(6)
        np.testing.assert_allclose(op.apply_A(x), A @ x)
        np.testing.assert_allclose(op.apply_At(lam), A.T @ lam)
        np.testing.assert_allclose(op.apply_B(w), B @ w)
        np.testing.assert_allclose(op.apply_Bt(lam), B.T @ lam)
        np.testing.assert_allclose(op.residual(x, w), A @ x + B @ w)
        np.testing.assert_array_equal(op.residual(x, w),
                                      op.apply_A(x) + op.apply_B(w))

    def test_gain_rows_extract_lower_left_block(self):
        op = self.op
        rng = np.random.default_rng(7)
        W = rng.standard_normal((5, 5))
        x = W.reshape(-1, order="F")
        rows = op.apply_A(x)
        gain = rows[op.n_diag:op.n_diag + op.n_gain]
        np.testing.assert_allclose(gain, W[3:, :3].reshape(-1, order="F"))

    def test_forced_row_repeats_gain_entry(self):
        op = self.op
        rng = np.random.default_rng(8)
        W = rng.standard_normal((5, 5))
        rows = op.apply_A(W.reshape(-1, order="F"))
        assert rows[-1] == W[3 + 1, 2]

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_adjoint_identity(self, seed):
        op = self.op
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(25)
        lam = rng.standard_normal(op.n_rows)
        assert np.isclose(op.apply_A(x) @ lam, x @ op.apply_At(lam),
                          atol=1e-10)

    def test_norm_B_is_exact(self):
        # the outer step takes ||B||_2 = 1, with or without forced zeros
        for op in (self.op, vectorize.assemble_constraint_operator(3, 2)):
            dense = np.column_stack([op.apply_B(e)
                                     for e in np.eye(op.n_gain)])
            assert np.isclose(np.linalg.norm(dense, 2), 1.0)


def test_forced_zero_out_of_range():
    with pytest.raises(InvalidInput, match=r"forced_zeros: \(2, 0\)"):
        vectorize.assemble_constraint_operator(3, 2, forced_zeros=((2, 0),))
    with pytest.raises(InvalidInput, match=r"forced_zeros: \(0, 3\)"):
        vectorize.assemble_constraint_operator(3, 2, forced_zeros=((0, 3),))


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
