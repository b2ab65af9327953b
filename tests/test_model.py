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

    def test_rejects_an_empty_vertex_list(self):
        # it would lift, then fail inside the first feasibility report
        C, D = unit_cost(2, 1)
        with pytest.raises(InvalidInput, match=r"vertices"):
            model.validate_plant(model.PlantData(
                A=np.eye(2), B2=np.ones((2, 1)), B1=np.eye(2), C=C, D=D,
                vertices=[]))

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
        # Vertex i enters conditioned: J_list[i] @ svec(W) + kappa_q[i] is
        # svec of S_i Theta_i(W) S_i^T, the certificate's block under the
        # congruence S_i, on ex2 and on every vertex of a two-vertex
        # plant; S_i is invertible, so the conditioned block is negative
        # semidefinite exactly when Theta_i(W) is.
        rng = np.random.default_rng(2)
        for lp in (ex2_lifted, two_vertex_lifted()):
            X = rng.standard_normal((lp.p, lp.p))
            W = 0.5 * (X + X.T)
            s = vectorize.svec(W, lp.svec_p)
            assert lp.kappa_q.shape == (lp.n_vertices, lp.svec_n.size)
            assert len(lp.S_list) == lp.n_vertices
            for i, S in enumerate(lp.S_list):
                assert np.linalg.cond(S) < 1e6
                expected = vectorize.svec(S @ lp.theta_block(W, i) @ S.T,
                                          lp.svec_n)
                np.testing.assert_allclose(
                    lp.J_list[i] @ s + lp.kappa_q[i], expected,
                    atol=1e-12 * max(1.0, np.abs(expected).max()))
                np.testing.assert_allclose(
                    vectorize.unsvec(lp.kappa_q[i], lp.svec_n),
                    S @ lp.plant.B1B1t @ S.T, atol=1e-12)

    def test_congruence_conditions_the_block_curvature(self, ex2_lifted,
                                                       ladder_lifted):
        # G_i = J_i diag(free) J_i^T, free = 0 on held, before and after
        # the congruence: the Frobenius norm is kept and the condition
        # number on G_i's range does not rise.  G_i before is built from
        # its definition, column r the vertex block of the basis matrix
        # E_r; ex2's G_i is singular, so the ratio is taken over the
        # nonzero eigenvalues, which must keep their number.
        for lp in (ex2_lifted, ladder_lifted):
            free = np.ones(lp.svec_p.size, dtype=bool)
            free[lp.held] = False
            basis = [vectorize.unsvec(e, lp.svec_p)
                     for e in np.eye(lp.svec_p.size)[free]]
            for i, J in enumerate(lp.J_list):
                J0 = np.stack([vectorize.svec(
                    lp.theta_block(E, i) - lp.plant.B1B1t, lp.svec_n)
                    for E in basis], axis=1)
                G0, G = J0 @ J0.T, J[:, free] @ J[:, free].T
                assert np.linalg.norm(G) == pytest.approx(
                    np.linalg.norm(G0), rel=1e-12)
                conds = []
                for H in (G0, G):
                    w = np.linalg.eigvalsh(H)
                    w = w[w > 1e-10 * w[-1]]
                    conds.append((w.size, w[-1] / w[0]))
                assert conds[1][0] == conds[0][0]
                assert conds[1][1] <= conds[0][1]

    def test_congruence_falls_back_to_the_identity(self):
        # A = 0 and B2 = 0 give a zero curvature, which has no positive
        # definite Kronecker factor: the block stays as lifted, with no
        # NaN from the Frobenius scaling
        C, D = unit_cost(2, 1)
        lp = model.lift_plant(model.validate_plant(model.PlantData(
            A=np.zeros((2, 2)), B2=np.zeros((2, 1)), B1=np.eye(2), C=C,
            D=D)))
        np.testing.assert_array_equal(lp.S_list[0], np.eye(2))
        np.testing.assert_array_equal(lp.J_list[0], 0.0)
        np.testing.assert_array_equal(
            lp.kappa_q[0], vectorize.svec(np.eye(2), lp.svec_n))

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
        # the equality operator's rows read the bottom-left m x n block
        # of W, one row per gain entry
        lp = ex1_lifted
        rng = np.random.default_rng(4)
        W = rng.standard_normal((lp.p, lp.p))
        v = W.reshape(-1, order="F")
        np.testing.assert_array_equal(lp.unvec(v), W)
        np.testing.assert_array_equal(
            v[lp.gain_cols], W[lp.n:, :lp.n].reshape(-1, order="F"))

    def test_gain_indexes_agree(self, ladder_lifted):
        # outer gathers vec(W) at gain_cols and inner reads svec(W) at
        # gain_coords: entry k of both names W[n + i, j] for the gain
        # entry (i, j) at column-major index k, so every row reads the
        # gain block; a forced zero adds no row
        forced = lift(ex1_matrices(), ((0, 1), (1, 2)))
        for lp in (lift(ex1_matrices()), forced, ladder_lifted):
            assert lp.gain_cols.size == lp.gain_coords.size == lp.m * lp.n
            r, c = np.unravel_index(lp.gain_cols, (lp.p, lp.p), order="F")
            assert np.all(r >= lp.n) and np.all(c < lp.n)
            np.testing.assert_array_equal((r - lp.n) + lp.m * c,
                                          np.arange(lp.m * lp.n))
            np.testing.assert_array_equal(lp.svec_p.coord[r, c],
                                          lp.gain_coords)

    def test_gram_consistency(self):
        # Each equality row reads one entry of W, so the Gram matrix of
        # A D (D the isometric duplication map) is exactly diagonal, and
        # gram_diag is its diagonal: 1/2 on the m*n gain coordinates, 0
        # elsewhere.  Forced zeros add no rows, so they leave it as it is.
        for mats, forced in [(ex1_matrices(), ((0, 1), (1, 2))),
                             (ex2_matrices(), ((1, 3),))]:
            lp, plain = lift(mats, forced), lift(mats)
            A, _ = dense_equality_operator(lp.n, lp.m)
            AD = A @ dense_duplication(lp.p)
            gram = AD.T @ AD
            np.testing.assert_array_equal(gram - np.diag(np.diag(gram)), 0.0)
            np.testing.assert_array_equal(np.diag(gram), lp.gram_diag)
            np.testing.assert_array_equal(lp.gram_diag, plain.gram_diag)
            assert np.count_nonzero(lp.gram_diag) == lp.m * lp.n
            assert set(np.round(lp.gram_diag, 12)) == {0.0, 0.5}

    def test_forced_zeros_threaded(self):
        # a forced zero adds no row; its W entry joins W1's off-diagonal
        # coordinates in the set the inner solve holds at zero
        C, D = unit_cost(2, 1)
        vp = model.validate_plant(model.PlantData(
            A=np.eye(2), B2=np.ones((2, 1)), B1=np.eye(2), C=C, D=D))
        lp = model.lift_plant(vp, forced_zeros=((0, 1),))
        assert lp.forced_zeros == ((0, 1),)
        assert lp.gain_cols.size == 2
        np.testing.assert_array_equal(
            lp.held, [lp.svec_p.coord[0, 1], lp.svec_p.coord[2, 1]])


def test_forced_zero_out_of_range():
    with pytest.raises(InvalidInput, match=r"forced_zeros: \(2, 0\)"):
        lift(ex1_matrices(), forced_zeros=((2, 0),))
    with pytest.raises(InvalidInput, match=r"forced_zeros: \(0, 3\)"):
        lift(ex1_matrices(), forced_zeros=((0, 3),))
    # an index that is not an integer is rejected, not truncated by int()
    for pair in ((0.9, 1), ("1", "2"), (True, 0), (1, 1.0)):
        with pytest.raises(InvalidInput, match=r"forced_zeros: .* not an "
                           r"integer pair"):
            lift(ex1_matrices(), forced_zeros=(pair,))
    # an entry that is not a pair, or forced zeros that are no list of
    # pairs, is rejected, not left to unpacking or to tuple()
    for bad in ([(0, 1, 2)], [(0,)], [5], [None], None, 5):
        with pytest.raises(InvalidInput, match=r"forced_zeros: .* not a"):
            lift(ex1_matrices(), forced_zeros=bad)
    # a numpy integer, as np.argwhere gives, is an integer
    lp = lift(ex1_matrices(), forced_zeros=(tuple(np.array([1, 2])),))
    assert lp.forced_zeros == ((1, 2),)
