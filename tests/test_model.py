import numpy as np
import pytest

from sparselq import analysis, model, vectorize
from sparselq.errors import InvalidInput

from conftest import (dense_duplication, dense_equality_operator,
                      ex1_matrices, ex2_matrices, lift)


def unit_cost(n, m):
    C = np.vstack([np.eye(n), np.zeros((m, n))])
    D = np.vstack([np.zeros((n, m)), np.eye(m)])
    return C, D


TWO_VERTEX_A = np.array([[0.0, 1.0], [-1.0, -0.5]])
TWO_VERTEX_B2 = np.array([[0.0], [1.0]])
TWO_VERTICES = ((TWO_VERTEX_A, TWO_VERTEX_B2),
                (TWO_VERTEX_A + 0.1 * np.eye(2), 2.0 * TWO_VERTEX_B2))


def two_vertex_lifted():
    C, D = unit_cost(2, 1)
    return model.lift_plant(model.validate_plant(model.PlantData(
        A=TWO_VERTEX_A, B2=TWO_VERTEX_B2, B1=np.eye(2), C=C, D=D,
        vertices=TWO_VERTICES)))


class TestValidatePlant:
    def test_accepts_well_posed_plant(self, ex1_lifted):
        vp = ex1_lifted.plant
        np.testing.assert_allclose(vp.CtC, vp.plant.C.T @ vp.plant.C)
        np.testing.assert_allclose(vp.DtD, vp.plant.D.T @ vp.plant.D)
        np.testing.assert_allclose(vp.B1B1t, vp.plant.B1 @ vp.plant.B1.T)
        assert vp.plant.n == 3 and vp.plant.m == 2
        with pytest.raises(AttributeError):
            vp.no_such_field
        # no passthrough: the raw plant's fields are read from vp.plant
        with pytest.raises(AttributeError):
            vp.A

    def test_rejects_nonsquare_A(self):
        with pytest.raises(InvalidInput):
            model.validate_plant(model.PlantData(
                A=np.zeros((2, 3)), B2=np.zeros((2, 1)), B1=np.eye(2),
                C=np.zeros((3, 2)), D=np.zeros((3, 1))))

    def test_rejects_mismatched_B2(self):
        C, D = unit_cost(2, 1)
        with pytest.raises(InvalidInput):
            model.validate_plant(model.PlantData(
                A=np.eye(2), B2=np.zeros((3, 1)), B1=np.eye(2), C=C, D=D))

    def test_rejects_mismatched_vertex(self):
        C, D = unit_cost(2, 1)
        with pytest.raises(InvalidInput):
            model.validate_plant(model.PlantData(
                A=np.eye(2), B2=np.ones((2, 1)), B1=np.eye(2), C=C, D=D,
                vertices=((np.eye(3), np.ones((2, 1))),)))

    def test_rejects_cross_term(self):
        n, m = 2, 1
        C = np.vstack([np.eye(n), np.zeros((m, n))])
        D = np.vstack([np.zeros((n, m)), np.eye(m)])
        D[0, 0] = 0.5  # couples C and D columns
        with pytest.raises(InvalidInput, match=r"C\^T D"):
            model.validate_plant(model.PlantData(
                A=np.eye(2), B2=np.ones((2, 1)), B1=np.eye(2), C=C, D=D))

    def test_rejects_singular_control_weight(self):
        C = np.eye(2)
        D = np.zeros((2, 1))
        with pytest.raises(InvalidInput, match=r"D\^T D"):
            model.validate_plant(model.PlantData(
                A=np.eye(2), B2=np.ones((2, 1)), B1=np.eye(2), C=C, D=D))

    def test_rejects_degenerate_noise(self):
        C, D = unit_cost(2, 1)
        B1 = np.array([[1.0], [0.0]])  # rank 1, B1 B1^T singular
        with pytest.raises(InvalidInput, match=r"B1 B1\^T"):
            model.validate_plant(model.PlantData(
                A=np.eye(2), B2=np.ones((2, 1)), B1=B1, C=C, D=D))

    @pytest.mark.parametrize("a_scale,d_scale", [(1.0, 1e-6), (1e4, 1e-5)])
    def test_judges_each_condition_on_its_own_scale(self, a_scale, d_scale):
        # D^T D = d_scale^2 I is positive definite however small d_scale
        # is, and the size of A has no bearing on it
        A, B2, B1, C, D = ex1_matrices()
        vp = model.validate_plant(model.PlantData(
            A=a_scale * A, B2=B2, B1=B1, C=C, D=d_scale * D))
        np.testing.assert_allclose(vp.DtD, d_scale ** 2 * np.eye(2))

    def test_rejects_an_order_above_the_lyapunov_bound(self):
        # the certificate could not solve its Lyapunov equations, so the
        # plant fails at validation, not after the solve
        n = model.MAX_LYAPUNOV_ORDER + 1
        C, D = unit_cost(n, 1)
        with pytest.raises(InvalidInput, match=f"n = {n}"):
            model.validate_plant(model.PlantData(
                A=-np.eye(n), B2=np.ones((n, 1)), B1=np.eye(n), C=C, D=D))
        C, D = unit_cost(n - 1, 1)
        model.validate_plant(model.PlantData(
            A=-np.eye(n - 1), B2=np.ones((n - 1, 1)), B1=np.eye(n - 1),
            C=C, D=D))

    def test_rejects_non_finite_entries(self):
        C, D = unit_cost(2, 1)
        A = np.eye(2)
        A[0, 1] = np.nan
        with pytest.raises(InvalidInput, match=r"finite"):
            model.validate_plant(model.PlantData(
                A=A, B2=np.ones((2, 1)), B1=np.eye(2), C=C, D=D))
        vertex = (np.eye(2), np.array([[np.inf], [1.0]]))
        with pytest.raises(InvalidInput, match=r"finite"):
            model.validate_plant(model.PlantData(
                A=np.eye(2), B2=np.ones((2, 1)), B1=np.eye(2), C=C, D=D,
                vertices=((np.eye(2), np.ones((2, 1))), vertex)))

    def test_default_vertex_is_nominal(self):
        C, D = unit_cost(2, 1)
        vp = model.validate_plant(model.PlantData(
            A=np.eye(2), B2=np.ones((2, 1)), B1=np.eye(2), C=C, D=D))
        assert len(vp.plant.vertices) == 1
        np.testing.assert_array_equal(vp.plant.vertices[0][0], np.eye(2))


class TestLiftedStructure:
    def test_block_layout(self, ex1_lifted):
        lp = ex1_lifted
        n, m, p = lp.n, lp.m, lp.p
        assert p == n + m
        A = lp.plant.plant.A
        B2 = lp.plant.plant.B2
        F = lp.F_list[0]
        np.testing.assert_array_equal(F[:n, :n], A)
        np.testing.assert_array_equal(F[:n, n:], -B2)
        np.testing.assert_array_equal(F[n:, :], 0.0)
        # the constant part of the constraint block is B1 B1^T
        np.testing.assert_array_equal(lp.theta_block(np.zeros((p, p)), 0),
                                      lp.plant.B1B1t)
        np.testing.assert_array_equal(lp.R[:n, :n], lp.plant.CtC)
        np.testing.assert_array_equal(lp.R[n:, n:], lp.plant.DtD)
        np.testing.assert_array_equal(lp.R[:n, n:], 0.0)

    def test_selectors(self, ex1_lifted):
        # The constraint block is the leading n x n block of
        # F W + W F^T + Q, Q = blkdiag(B1 B1^T, 0); the gain block is
        # checked in test_gain_part_and_unvec.
        lp = ex1_lifted
        n = lp.n
        rng = np.random.default_rng(0)
        W = rng.standard_normal((lp.p, lp.p))
        F = lp.F_list[0]
        Q = np.zeros((lp.p, lp.p))
        Q[:n, :n] = lp.plant.B1B1t
        np.testing.assert_array_equal(lp.theta_block(W, 0),
                                      (F @ W + (F @ W).T + Q)[:n, :n])

    def test_theta_block_matches_closed_loop(self, ex1_lifted):
        # For W built from a gain K and diagonal W1, the constraint block
        # must equal A_cl W1 + W1 A_cl^T + B1 B1^T with A_cl = A - B2 K.
        lp = ex1_lifted
        rng = np.random.default_rng(1)
        n, m = lp.n, lp.m
        W1 = np.diag(1.0 + rng.random(n))
        K = rng.standard_normal((m, n))
        W = np.zeros((lp.p, lp.p))
        W[:n, :n] = W1
        W[:n, n:] = W1 @ K.T
        W[n:, :n] = K @ W1
        W[n:, n:] = K @ W1 @ K.T + np.eye(m)
        A_cl = lp.plant.plant.A - lp.plant.plant.B2 @ K
        expected = A_cl @ W1 + W1 @ A_cl.T + lp.plant.B1B1t
        np.testing.assert_allclose(lp.theta_block(W, 0), expected,
                                   atol=1e-12)
        # the certificate reads the negated block, Psi = -Theta
        rep = analysis.feasibility_report(lp, W, W[n:, :n])
        assert rep["min_eig_psi"] == pytest.approx(
            np.linalg.eigvalsh(-expected)[0], abs=1e-12)

    def test_vertex_maps_in_iso_coordinates(self, ex2_lifted):
        # J_list[i] @ svec(W) must be svec of V2 (F_i W + W F_i^T) V2^T,
        # and adding kappa_q = svec(B1 B1^T) gives the certificate's block,
        # on ex2 and on every vertex of a two-vertex plant.
        rng = np.random.default_rng(2)
        for lp in (ex2_lifted, two_vertex_lifted()):
            S = rng.standard_normal((lp.p, lp.p))
            W = 0.5 * (S + S.T)
            s = vectorize.svec(W, lp.svec_p)
            B1 = lp.plant.plant.B1
            np.testing.assert_allclose(
                vectorize.unsvec(lp.kappa_q, lp.svec_n), B1 @ B1.T,
                atol=1e-14)
            for i, F in enumerate(lp.F_list):
                blk = (F @ W + W @ F.T)[:lp.n, :lp.n]
                np.testing.assert_allclose(
                    lp.J_list[i] @ s,
                    vectorize.svec(blk, lp.svec_n), atol=1e-12)
                np.testing.assert_allclose(
                    lp.J_list[i] @ s + lp.kappa_q,
                    vectorize.svec(lp.theta_block(W, i), lp.svec_n),
                    atol=1e-12)

    def test_two_vertex_lift(self, ex1_lifted):
        assert ex1_lifted.n_vertices == 1
        lp = two_vertex_lifted()
        assert lp.n_vertices == 2
        for (Av, Bv), F in zip(TWO_VERTICES, lp.F_list):
            np.testing.assert_array_equal(F[:2, :2], Av)
            np.testing.assert_array_equal(F[:2, 2:], -Bv)
            np.testing.assert_array_equal(F[2:, :], 0.0)
        assert len(lp.J_list) == 2

    def test_objective_vector(self, ex1_lifted):
        lp = ex1_lifted
        rng = np.random.default_rng(3)
        S = rng.standard_normal((lp.p, lp.p))
        W = 0.5 * (S + S.T)
        assert lp.vec_R() @ W.reshape(-1, order="F") == pytest.approx(
            np.sum(lp.R * W))

    def test_gain_part_and_unvec(self, ex1_lifted):
        # the gain rows of the equality operator read the bottom-left
        # m x n block of W
        lp, op = ex1_lifted, ex1_lifted.op
        rng = np.random.default_rng(4)
        W = rng.standard_normal((lp.p, lp.p))
        v = W.reshape(-1, order="F")
        np.testing.assert_array_equal(lp.unvec(v), W)
        np.testing.assert_array_equal(
            op.apply_A(v)[op.n_diag:op.n_diag + op.n_gain],
            W[lp.n:, :lp.n].reshape(-1, order="F"))

    def test_gram_consistency(self):
        # Each equality row reads one entry of W, so the Gram matrix of
        # A D (D the isometric duplication map) is exactly diagonal, and
        # gram_diag is its diagonal, with and without forced zeros.
        cases = [(ex1_matrices(), ()), (ex1_matrices(), ((0, 1), (1, 2))),
                 (ex2_matrices(), ((1, 3),))]
        for mats, forced in cases:
            lp = lift(mats, forced)
            A, _ = dense_equality_operator(lp.op, lp.n, lp.m)
            AD = A @ dense_duplication(lp.p)
            gram = AD.T @ AD
            np.testing.assert_array_equal(gram - np.diag(np.diag(gram)), 0.0)
            np.testing.assert_array_equal(np.diag(gram), lp.gram_diag)
            assert set(np.round(lp.gram_diag, 12)) <= {0.0, 0.5, 1.0}

    def test_forced_zeros_threaded(self):
        C, D = unit_cost(2, 1)
        vp = model.validate_plant(model.PlantData(
            A=np.eye(2), B2=np.ones((2, 1)), B1=np.eye(2), C=C, D=D))
        lp = model.lift_plant(vp, forced_zeros=((0, 1),))
        assert lp.forced_zeros == ((0, 1),)
        assert lp.op.n_forced == 1
