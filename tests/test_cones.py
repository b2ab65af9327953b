import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sparselq import cones


def random_sym(rng, d):
    S = rng.standard_normal((d, d))
    return 0.5 * (S + S.T)


def test_factor_symmetrizes_input():
    # project_psd factors the symmetric part of its input.
    G = np.array([[1.0, 4.0], [0.0, 2.0]])
    np.testing.assert_allclose(cones.project_psd(G),
                               cones.project_psd(0.5 * (G + G.T)), atol=1e-14)
    # a nonsymmetric input whose symmetric part is PSD projects onto it
    np.testing.assert_allclose(
        cones.project_psd(np.array([[2.0, 2.0], [0.0, 2.0]])),
        [[2.0, 1.0], [1.0, 2.0]], atol=1e-14)


class TestProjectPsd:
    def test_clamps_negative_modes(self):
        S = np.diag([3.0, -1.0, 0.0])
        np.testing.assert_allclose(cones.project_psd(S),
                                   np.diag([3.0, 0.0, 0.0]), atol=1e-14)

    def test_fixed_point_on_psd(self):
        rng = np.random.default_rng(1)
        G = rng.standard_normal((5, 5))
        S = G @ G.T
        np.testing.assert_allclose(cones.project_psd(S), S, atol=1e-11)

    def test_idempotent(self):
        rng = np.random.default_rng(2)
        S = random_sym(rng, 7)
        P = cones.project_psd(S)
        np.testing.assert_allclose(cones.project_psd(P), P, atol=1e-11)
        assert cones.min_eigenvalue(P) >= -1e-12

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_variational_inequality(self, seed):
        # P = project(S) must satisfy <S - P, Z - P> <= 0 for all PSD Z,
        # the defining property of the metric projection onto a convex set.
        rng = np.random.default_rng(seed)
        S = random_sym(rng, 4)
        P = cones.project_psd(S)
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
        P = cones.project_psd(S)
        d0 = np.linalg.norm(S - P, "fro")
        for _ in range(5):
            G = rng.standard_normal((3, 3))
            Z = G @ G.T
            assert d0 <= np.linalg.norm(S - Z, "fro") + 1e-10


def test_extreme_eigenvalues():
    S = np.diag([-2.0, 5.0, 1.0])
    assert cones.max_eigenvalue(S) == pytest.approx(5.0)
    assert cones.min_eigenvalue(S) == pytest.approx(-2.0)



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
        # LAPACK fails on an all-NaN matrix: LinAlgError, as from numpy
        with pytest.raises(np.linalg.LinAlgError):
            cones.sym_eigh(np.full((3, 3), np.nan))
        # it returns NaN factors for a single NaN pair, as numpy does
        S = np.array([[1.0, np.nan], [np.nan, 2.0]])
        assert np.isnan(cones.sym_eigh(S)[0]).all()
        assert np.isnan(np.linalg.eigh(S)[0]).all()
