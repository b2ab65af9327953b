import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sparselq import cones
from sparselq.errors import EigFailure

from conftest import min_eigenvalue, project_psd


def random_sym(rng, d):
    S = rng.standard_normal((d, d))
    return 0.5 * (S + S.T)


def test_factor_symmetrizes_input():
    # project_psd factors the symmetric part of its input.
    G = np.array([[1.0, 4.0], [0.0, 2.0]])
    np.testing.assert_allclose(project_psd(G),
                               project_psd(0.5 * (G + G.T)), atol=1e-14)
    # a nonsymmetric input whose symmetric part is PSD projects onto it
    np.testing.assert_allclose(
        project_psd(np.array([[2.0, 2.0], [0.0, 2.0]])),
        [[2.0, 1.0], [1.0, 2.0]], atol=1e-14)


class TestProjectPsd:
    def test_clamps_negative_modes(self):
        S = np.diag([3.0, -1.0, 0.0])
        np.testing.assert_allclose(project_psd(S),
                                   np.diag([3.0, 0.0, 0.0]), atol=1e-14)

    def test_fixed_point_on_psd(self):
        rng = np.random.default_rng(1)
        G = rng.standard_normal((5, 5))
        S = G @ G.T
        np.testing.assert_allclose(project_psd(S), S, atol=1e-11)

    def test_idempotent(self):
        rng = np.random.default_rng(2)
        S = random_sym(rng, 7)
        P = project_psd(S)
        np.testing.assert_allclose(project_psd(P), P, atol=1e-11)
        assert min_eigenvalue(P) >= -1e-12

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_variational_inequality(self, seed):
        # P = project(S) must satisfy <S - P, Z - P> <= 0 for all PSD Z,
        # the defining property of the metric projection onto a convex set.
        rng = np.random.default_rng(seed)
        S = random_sym(rng, 4)
        P = project_psd(S)
        for _ in range(5):
            G = rng.standard_normal((4, 4))
            Z = G @ G.T
            assert np.sum((S - P) * (Z - P)) <= 1e-9 * max(
                1.0, np.linalg.norm(S) * np.linalg.norm(Z))

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_closest_among_samples(self, seed):
        rng = np.random.default_rng(seed)
        S = random_sym(rng, 3)
        P = project_psd(S)
        d0 = np.linalg.norm(S - P, "fro")
        for _ in range(5):
            G = rng.standard_normal((3, 3))
            Z = G @ G.T
            assert d0 <= np.linalg.norm(S - Z, "fro") + 1e-10


def test_extreme_eigenvalues():
    # sym_eigh returns the eigenvalues in ascending order, so the dual
    # assembly reads rho_i off w[-1] and the conditioning off w[0]
    w, _ = cones.sym_eigh(np.diag([-2.0, 5.0, 1.0]))
    assert w[-1] == pytest.approx(5.0)
    assert w[0] == pytest.approx(-2.0)



def cholesky_succeeds(S):
    try:
        np.linalg.cholesky(S)
    except np.linalg.LinAlgError:
        return False
    return True


def test_positive_definite():
    # the full block, read through its lower triangle; a failed
    # factorization is silent inside the errstate the sweep holds
    rng = np.random.default_rng(7)
    with np.errstate(invalid="ignore"):
        for d in (1, 3, 5):
            G = rng.standard_normal((d, d))
            S = G @ G.T + 0.1 * np.eye(d)
            assert cones.positive_definite(S)
            # only the lower triangle is read
            assert cones.positive_definite(S + 9.0 * np.triu(S, 1))
            w, V = np.linalg.eigh(S)
            for shift in (1.001 * w[0], 0.5 * (w[0] + w[-1]), w[-1] + 1.0):
                assert not cones.positive_definite(S - shift * np.eye(d))
            for i, j in ((0, 0), (d - 1, 0), (d - 1, d - 1)):
                T = S.copy()
                T[i, j] = T[j, i] = np.nan
                assert not cones.positive_definite(T)


class TestGufuncContract:
    """The kernels call numpy's private LAPACK gufuncs; these tests fail
    first if a numpy release renames them or changes what they return."""

    def test_private_gufuncs_exist(self):
        from numpy.linalg import _umath_linalg
        for name in ("eigh_lo", "cholesky_lo"):
            assert callable(getattr(_umath_linalg, name, None)), name

    @pytest.mark.parametrize("d", range(1, 7))
    def test_sym_eigh_is_numpy_eigh_bit_for_bit(self, d):
        rng = np.random.default_rng(100 + d)
        for _ in range(50):
            S = random_sym(rng, d)
            w, V = cones.sym_eigh(S)
            w_np, V_np = np.linalg.eigh(S)
            np.testing.assert_array_equal(w, w_np)
            np.testing.assert_array_equal(V, V_np)

    @pytest.mark.parametrize("d", range(1, 7))
    def test_positive_definite_is_cholesky_success(self, d):
        rng = np.random.default_rng(200 + d)
        seen = set()
        with np.errstate(invalid="ignore"):
            for _ in range(100):
                G = rng.standard_normal((d, d))
                S = G @ G.T - rng.uniform(0.0, 0.5 * d) * np.eye(d)
                expected = cholesky_succeeds(S)
                assert cones.positive_definite(S) == expected
                seen.add(expected)
        assert seen == {True, False}

    def test_failure_inside_an_ignoring_errstate(self):
        # the sweep's errstate silences the invalid flag, yet an all-NaN
        # block still raises EigFailure and a NaN pair still gives NaN
        S = np.array([[1.0, np.nan], [np.nan, 2.0]])
        with warnings.catch_warnings(), np.errstate(invalid="ignore"):
            warnings.simplefilter("error")
            with pytest.raises(EigFailure):
                cones.sym_eigh(np.full((3, 3), np.nan))
            w, V = cones.sym_eigh(S)
            assert np.isnan(w).all() and np.isnan(V).all()
            assert not cones.positive_definite(np.full((3, 3), np.nan))


class TestSymEigh:
    @pytest.mark.parametrize("d", [1, 2, 3, 5, 6])
    def test_matches_numpy(self, d):
        rng = np.random.default_rng(d)
        for _ in range(50):
            S = random_sym(rng, d)
            w, V = cones.sym_eigh(S)
            np.testing.assert_allclose(w, np.linalg.eigvalsh(S),
                                       rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose((V * w) @ V.T, S, atol=1e-12)
            np.testing.assert_allclose(V.T @ V, np.eye(d), atol=1e-12)

    def test_reads_lower_triangle(self):
        S = np.array([[1.0, 9.0], [2.0, 3.0]])
        np.testing.assert_array_equal(cones.sym_eigh(S)[0],
                                      np.linalg.eigh(S)[0])

    def test_non_finite_input_like_numpy(self):
        # LAPACK fails on an all-NaN matrix, as inside numpy; sym_eigh
        # raises the package's EigFailure where numpy raises LinAlgError
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.eigh(np.full((3, 3), np.nan))
        with pytest.raises(EigFailure):
            cones.sym_eigh(np.full((3, 3), np.nan))
        # it returns NaN factors for a single NaN pair, as numpy does
        S = np.array([[1.0, np.nan], [np.nan, 2.0]])
        assert np.isnan(cones.sym_eigh(S)[0]).all()
        assert np.isnan(np.linalg.eigh(S)[0]).all()

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 6])
    def test_extreme_eigenvalues_match_numpy(self, d):
        # a block curvature J diag(m) J' is symmetric only up to rounding;
        # read through its lower triangle it has the extreme eigenvalues
        # of its symmetric part
        rng = np.random.default_rng(d)
        for _ in range(50):
            J = rng.standard_normal((d, d + 2))
            H = (J * rng.uniform(1e-3, 1e3, d + 2)) @ J.T
            w_sym = np.linalg.eigvalsh(0.5 * (H + H.T))
            w, _ = cones.sym_eigh(H)
            scale = abs(w_sym).max()
            assert w[-1] == pytest.approx(w_sym[-1], rel=1e-12)
            assert w[0] == pytest.approx(w_sym[0], abs=1e-12 * scale)
