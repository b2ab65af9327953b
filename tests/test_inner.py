import numpy as np
import pytest

from sparselq import analysis, inner, model
from sparselq.errors import EigFailure, MaxSweepsExceeded

from conftest import (dense_duplication, dense_equality_operator,
                      dual_objective, dual_state, ex1_matrices,
                      feasible_instance, lift, make_inner_instance,
                      pg_dual_oracle, primal_objective, subproblem_terms)


def assemble(rng_seed):
    rng = np.random.default_rng(rng_seed)
    lifted, d_k, w_k, v_tilde, alpha, theta, eta_f = make_inner_instance(rng)
    data, _ = inner.assemble_dual_data(lifted, d_k, w_k, v_tilde,
                                       alpha, theta, eta_f)
    return lifted, data, (d_k, w_k, v_tilde, alpha, theta, eta_f)


class TestDualData:
    def test_sigma_values(self):
        # q = -2 sigma1 (AD)' B w + 2 sigma2 D' v_tilde at
        # sigma1 = alpha/(2 theta) and sigma2 = eta_f/(2 alpha), with A, B
        # and the duplication map D taken dense from their layouts
        lifted, data, (_, w_k, v_tilde, alpha, theta, eta_f) = assemble(0)
        A, B = dense_equality_operator(lifted.n, lifted.m)
        D = dense_duplication(lifted.p)
        q = (-2 * (alpha / (2 * theta)) * D.T @ (A.T @ (B @ w_k))
             + 2 * (eta_f / (2 * alpha)) * D.T @ v_tilde)
        np.testing.assert_allclose(data.q_k, q, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("forced_zeros", [(), ((0, 1), (1, 2))],
                             ids=["unforced", "forced"])
    def test_q_equals_the_dense_formula_bit_for_bit(self, forced_zeros):
        # q = -2 sigma1 sym_svec(A' B w) + 2 sigma2 sym_svec(v_tilde) with
        # A and B dense from their layout: a forced zero adds no row, and
        # its coordinate of q is formed as any other (minv holds s at 0)
        lifted = lift(ex1_matrices(), forced_zeros)
        A, B = dense_equality_operator(lifted.n, lifted.m)
        rng = np.random.default_rng(9)
        p, maps = lifted.p, lifted.svec_p
        d_k, v_tilde = (rng.standard_normal(p * p) for _ in range(2))
        w_k = rng.standard_normal(lifted.m * lifted.n)
        alpha, theta, eta_f = 0.3, 0.7, 1.9
        data, _ = inner.assemble_dual_data(lifted, d_k, w_k, v_tilde,
                                           alpha, theta, eta_f)
        sigma1, sigma2 = alpha / (2.0 * theta), eta_f / (2.0 * alpha)
        q = (-2.0 * sigma1 * inner.sym_svec(A.T @ (B @ w_k), maps)
             + 2.0 * sigma2 * inner.sym_svec(v_tilde, maps))
        np.testing.assert_array_equal(data.q_k, q)

    def test_curvature_is_spd(self):
        # M = 2 sigma1 diag(gram) + 2 sigma2 I is positive and diagonal;
        # minv is its inverse, entry by entry, on the free coordinates,
        # and 0 on W1's off-diagonal ones, which the inner solve holds at 0
        for n in (2, 3):
            rng = np.random.default_rng(1)
            lifted, *args = make_inner_instance(rng, n=n)
            data, _ = inner.assemble_dual_data(lifted, *args)
            sigma1, sigma2, _, _ = subproblem_terms(lifted, args)
            M = 2 * sigma1 * lifted.gram_diag + 2 * sigma2
            fixed = np.zeros(lifted.svec_p.size, dtype=bool)
            fixed[lifted.svec_p.coord[:n, :n][~np.eye(n, dtype=bool)]] = True
            assert fixed.sum() == n * (n - 1) // 2
            assert np.all(data.minv[fixed] == 0.0)
            assert np.all(data.minv[~fixed] > 0)
            np.testing.assert_allclose(data.minv[~fixed] * M[~fixed], 1.0,
                                       rtol=1e-14)
            assert data.rho0 == data.minv.max()

    def test_rejects_nonpositive_parameters(self):
        rng = np.random.default_rng(2)
        lifted, d_k, w_k, v_tilde, *_ = make_inner_instance(rng)
        with pytest.raises(ValueError):
            inner.assemble_dual_data(lifted, d_k, w_k, v_tilde,
                                     0.0, 1.0, 1.0)

    def test_curvature_matches_definition(self):
        # rho_i = lambda_max(J_i diag(minv) J_i'), rho0 = max(minv), and
        # equal inputs give equal curvature, for two different sigma pairs
        lifted, _, (d_k, w_k, v_tilde, a, t, e) = assemble(3)
        for alpha in (a, 2 * a):
            data, rho_list = inner.assemble_dual_data(lifted, d_k, w_k,
                                                      v_tilde, alpha, t, e)
            assert rho_list is data.rho_list
            for J, rho in zip(lifted.J_list, data.rho_list):
                exact = np.linalg.eigvalsh(J @ np.diag(data.minv) @ J.T)[-1]
                assert rho == pytest.approx(exact, rel=1e-12)
            assert data.rho0 == data.minv.max()
            again, _ = inner.assemble_dual_data(lifted, d_k, w_k, v_tilde,
                                                alpha, t, e)
            np.testing.assert_array_equal(again.minv, data.minv)
            assert again.rho_list == data.rho_list


    def test_a_shared_cache_reuses_an_equal_sigma_pair(self):
        # the curvature of an equal (sigma1, sigma2) pair is the cached
        # one, equal to a fresh build bit for bit; pd and the parts that
        # read d, w and v_tilde are built anew; another pair adds a
        # second entry
        lifted, fresh, (d_k, w_k, v_tilde, a, t, e) = assemble(3)
        cache = {}
        first, rho_list = inner.assemble_dual_data(
            lifted, d_k, w_k, v_tilde, a, t, e, cache)
        for name in ("minv", "rho0", "rho_list", "JM_list", "hinv_list"):
            np.testing.assert_array_equal(getattr(first, name),
                                          getattr(fresh, name))
        first.pd[0] = False
        again, rho_again = inner.assemble_dual_data(
            lifted, 1.1 * d_k, w_k, v_tilde, a, t, e, cache)
        assert rho_again is rho_list
        assert again.JM_list is first.JM_list
        assert again.hinv_list is first.hinv_list
        assert again.pd == [True] * lifted.n_vertices
        np.testing.assert_allclose(again.g0, 1.1 * first.g0, rtol=1e-14)
        _, rho_other = inner.assemble_dual_data(
            lifted, d_k, w_k, v_tilde, 2 * a, t, e, cache)
        assert rho_other is not rho_list and len(cache) == 2

    def test_an_earlier_sigma_pair_reuses_its_entry(self, monkeypatch):
        # a restart replays the schedule's sigma pairs: a pair met before
        # reads its entry and builds nothing
        lifted, _, (d_k, w_k, v_tilde, a, t, e) = assemble(3)
        builds, build = [], inner._curvature

        def counted(*args):
            builds.append(args[1:])
            return build(*args)
        monkeypatch.setattr(inner, "_curvature", counted)
        cache = {}
        _, first = inner.assemble_dual_data(lifted, d_k, w_k, v_tilde,
                                            a, t, e, cache)
        _, other = inner.assemble_dual_data(lifted, d_k, w_k, v_tilde,
                                            2 * a, t, e, cache)
        again, rho_again = inner.assemble_dual_data(
            lifted, 1.1 * d_k, w_k, v_tilde, a, t, e, cache)
        assert rho_again is first and other is not first
        assert len(builds) == 2 and len(cache) == 2
        assert again.rho0 == again.minv.max()

    def test_a_reduced_budget_clears_the_cache_and_keeps_the_newest(
            self, monkeypatch):
        # an entry counts at the size of minv, every J_i Minv and every
        # H_i^-1; one that would overflow the budget clears the cache
        lifted, data, (d_k, w_k, v_tilde, a, t, e) = assemble(3)
        entry = data.minv.nbytes + sum(JM.nbytes + 8 * JM.shape[0] ** 2
                                       for JM in data.JM_list)
        monkeypatch.setattr(inner, "CURVATURE_CACHE_BYTES", 2 * entry)
        cache = {}
        for alpha in (a, 2 * a, 3 * a):
            inner.assemble_dual_data(lifted, d_k, w_k, v_tilde, alpha, t, e,
                                     cache)
        assert list(cache) == [(3 * a / (2 * t), e / (2 * 3 * a))]
        # below one entry the cache keeps the last pair alone
        monkeypatch.setattr(inner, "CURVATURE_CACHE_BYTES", entry - 1)
        inner.assemble_dual_data(lifted, d_k, w_k, v_tilde, 4 * a, t, e,
                                 cache)
        assert list(cache) == [(4 * a / (2 * t), e / (2 * 4 * a))]


class TestCholeskyHint:
    """DualData.pd: for a vertex block with a stored inverse, whether its
    last update left it positive definite, which says whether the exact
    step and its Cholesky test are tried."""

    def test_vertex_flag_selects_the_step(self):
        lifted, args, _ = interior_instance(23)
        data, _ = inner.assemble_dual_data(lifted, *args)
        x = inner.zero_state(lifted).blocks()[1]
        g = lifted.kappa_q[0] + lifted.J_list[0].dot(
            inner.recover_primal(data, inner.zero_state(lifted)))
        with np.errstate(invalid="ignore"):
            exact, took_exact = inner._vertex_step(x, g, 0, data)
            assert took_exact and data.pd[0]
            np.testing.assert_array_equal(exact, x + data.hinv_list[0].dot(g))
            data.pd[0] = False
            majorized, took_exact = inner._vertex_step(x, g, 0, data)
        assert not took_exact
        np.testing.assert_array_equal(majorized, inner._project(
            x + g / data.rho_list[0], lifted.svec_n)[0])
        assert not np.allclose(majorized, exact)
        # the flag now says whether the majorized step left the block
        # positive definite, and with it whether the next update tries the
        # exact step: the step x + g / rho stays as it is where it is
        # positive definite, and is clamped to a singular point otherwise,
        # whose smallest eigenvalue is zero up to rounding of either sign
        step = np.linalg.eigvalsh(inner.unsvec(x + g / data.rho_list[0],
                                               lifted.svec_n))
        w = np.linalg.eigvalsh(inner.unsvec(majorized, lifted.svec_n))
        assert data.pd[0] == (step[0] > 0.0)
        assert data.pd[0] == (w[0] > 1e-12 * w[-1])

    def test_set_by_the_sweep_and_reset_by_assembly(self):
        # on this instance the vertex block's unconstrained minimizer
        # leaves the cone, so the sweep clears its flag
        lifted, data, args = assemble(0)
        assert data.pd == [True] * lifted.n_vertices
        rng = np.random.default_rng(0)
        state = dual_state(lifted, [
            -np.abs(rng.standard_normal(lifted.svec_p.size)),
            *(rng.standard_normal(lifted.svec_n.size)
              for _ in lifted.J_list)])
        inner.sgs_sweep(state, data)
        assert not all(data.pd)
        again, _ = inner.assemble_dual_data(lifted, *args)
        assert again.pd == [True] * lifted.n_vertices


class TestSweeps:
    def test_dual_objective_monotone(self):
        lifted, data, args = assemble(4)
        state = inner.zero_state(lifted)
        prev = dual_objective(state, data, args)
        for _ in range(40):
            state, _ = inner.sgs_sweep(state, data)
            cur = dual_objective(state, data, args)
            assert cur <= prev + 1e-11 * max(1.0, abs(prev))
            prev = cur

    def test_residual_decreases_to_tolerance(self):
        lifted, data, _ = assemble(5)
        state = inner.zero_state(lifted)
        for _ in range(5000):
            state, _ = inner.sgs_sweep(state, data)
            if inner.dual_residual(state, data) < 1e-9:
                break
        assert inner.dual_residual(state, data) < 1e-9

    def test_iterates_stay_in_cone(self):
        lifted, data, _ = assemble(6)
        state = inner.zero_state(lifted)
        for _ in range(10):
            state, _ = inner.sgs_sweep(state, data)
            x0, *xs = state.blocks()
            S0 = inner.unsvec(x0, lifted.svec_p)
            assert np.linalg.eigvalsh(S0)[0] >= -1e-10
            for x in xs:
                S = inner.unsvec(x, lifted.svec_n)
                assert np.linalg.eigvalsh(S)[0] >= -1e-10


class TestSolveInner:
    def test_converged_primal_is_nearly_feasible(self):
        lifted, _, (d_k, w_k, v_tilde, a, t, e) = assemble(7)
        v, sweeps, state = inner.solve_inner(
            lifted, d_k, w_k, v_tilde, a, t, e, eps=1e-10, max_sweeps=20000)
        W = lifted.unvec(v)
        np.testing.assert_allclose(W, W.T, atol=1e-12)
        assert np.linalg.eigvalsh(W)[0] >= -1e-6
        for i in range(lifted.n_vertices):
            assert np.linalg.eigvalsh(-lifted.theta_block(W, i))[0] >= -1e-5

    def test_matches_projected_gradient_oracle(self):
        for seed in (8, 9):
            lifted, data, args = assemble(seed)
            v, _, state = inner.solve_inner(lifted, *args, eps=1e-9,
                                            max_sweeps=50000)
            ref_state, steps = pg_dual_oracle(lifted, data, max_steps=300000)
            s = inner.recover_primal(data, state)
            s_ref = inner.recover_primal(data, ref_state)
            f, f_ref = (primal_objective(data, x, args) for x in (s, s_ref))
            assert abs(f - f_ref) <= 1e-6 * max(1.0, abs(f_ref))
            np.testing.assert_allclose(s, s_ref, atol=1e-5)

    def test_strong_duality_gap_closes(self):
        lifted, data, args = assemble(10)
        v, _, state = inner.solve_inner(lifted, *args, eps=1e-10,
                                        max_sweeps=50000)
        s = inner.recover_primal(data, state)
        gap = (primal_objective(data, s, args)
               + dual_objective(state, data, args))
        assert abs(gap) <= 1e-6

    def test_warm_start_shortcuts(self):
        lifted, _, (d_k, w_k, v_tilde, a, t, e) = assemble(11)
        _, sweeps_cold, state = inner.solve_inner(
            lifted, d_k, w_k, v_tilde, a, t, e, eps=1e-8, max_sweeps=20000)
        _, sweeps_warm, _ = inner.solve_inner(
            lifted, d_k, w_k, v_tilde, a, t, e, eps=1e-8, max_sweeps=20000,
            warm_start=state)
        assert sweeps_warm <= max(2, sweeps_cold // 4)

    def test_inputs_are_not_written_or_shared(self):
        # _project hands back its argument for a block already in the
        # cone, so a sweep that wrote into its input would show here
        lifted, data, (d_k, w_k, v_tilde, a, t, e) = assemble(16)
        _, _, warm = inner.solve_inner(lifted, d_k, w_k, v_tilde, a, t, e,
                                       eps=1e-8, max_sweeps=20000)
        s = inner.recover_primal(data, warm)
        before = [b.copy() for b in warm.blocks()], s.copy()

        def unchanged():
            for b, old in zip(warm.blocks(), before[0]):
                np.testing.assert_array_equal(b, old)
            np.testing.assert_array_equal(s, before[1])

        def disjoint(out, *arrays):
            for b in out.blocks():
                assert not any(np.shares_memory(b, x) for x in arrays)

        inputs = warm.blocks() + [s]
        for start in (warm, inner.DualState(warm.x.copy(), warm.slices)):
            new, s_new = inner.sgs_sweep(start, data, s)
            unchanged()
            disjoint(new, s_new, *inputs, *start.blocks())
            assert not np.shares_memory(s_new, s)
        _, _, out = inner.solve_inner(lifted, 1.1 * d_k, w_k, v_tilde, a, t,
                                      e, eps=1e-8, max_sweeps=20000,
                                      warm_start=warm)
        unchanged()
        disjoint(out, *inputs)
        with pytest.raises(MaxSweepsExceeded) as exc:
            inner.solve_inner(lifted, 1.1 * d_k, w_k, v_tilde, a, t, e,
                              eps=1e-14, max_sweeps=1, warm_start=warm)
        unchanged()
        disjoint(exc.value.state, *inputs)

    def test_nan_data_never_converges(self):
        # on a one-state plant every block is at most 2 x 2, where LAPACK
        # returns NaN eigenvalues for NaN entries instead of failing, so
        # the NaN reaches the residual bound
        rng = np.random.default_rng(17)
        lifted, d_k, w_k, v_tilde, a, t, e = make_inner_instance(rng, 1, 1)
        data, _ = inner.assemble_dual_data(lifted, d_k, w_k, v_tilde,
                                           a, t, e)
        data.q_k[0] = np.nan
        new, _ = inner.sgs_sweep(inner.zero_state(lifted), data)
        assert np.isnan(new.residual)
        d_k = d_k.copy()
        d_k[0] = np.nan
        with pytest.raises(MaxSweepsExceeded) as exc:
            inner.solve_inner(lifted, d_k, w_k, v_tilde, a, t, e,
                              eps=1e-8, max_sweeps=5)
        assert exc.value.sweeps == 5
        assert np.isnan(exc.value.residual)

    def test_nan_data_on_a_two_state_plant_raises_eig_failure(self):
        # on a two-state plant the NaN fills a 3 x 3 vertex block, where
        # LAPACK fails instead of returning NaN eigenvalues; the failure
        # comes out as the package's EigFailure
        rng = np.random.default_rng(17)
        lifted, d_k, w_k, v_tilde, a, t, e = make_inner_instance(rng)
        data, _ = inner.assemble_dual_data(lifted, d_k, w_k, v_tilde,
                                           a, t, e)
        data.q_k[0] = np.nan
        with pytest.raises(EigFailure):
            inner.sgs_sweep(inner.zero_state(lifted), data)

    def test_relative_error_keeps_a_nan_in_any_block(self):
        one, nan = np.ones(3), np.full(3, np.nan)
        for blocks in ([one, nan], [nan, one], [one, one, nan]):
            assert np.isnan(inner._relative_error((b, b, b) for b in blocks))
        assert inner._relative_error([(one, one, one)]) == pytest.approx(
            np.sqrt(3) / (1 + 2 * np.sqrt(3)))

    def test_sweep_cap_carries_best_iterate(self):
        lifted, _, (d_k, w_k, v_tilde, a, t, e) = assemble(12)
        with pytest.raises(MaxSweepsExceeded) as exc:
            inner.solve_inner(lifted, d_k, w_k, v_tilde, a, t, e,
                              eps=1e-14, max_sweeps=3)
        err = exc.value
        assert err.sweeps == 3
        assert err.v.shape == (lifted.p * lifted.p,)
        assert np.isfinite(err.residual)
        assert isinstance(err.state, inner.DualState)


def stiff_instance():
    """A 3-state, 2-input subproblem with sigma1 = alpha/(2 theta) = 250,
    the regime the accelerated outer schedule drives the inner solve into."""
    rng = np.random.default_rng(1)
    lifted, d_k, w_k, v_tilde, _, _, eta_f = make_inner_instance(rng, 3, 2)
    return lifted, (d_k, w_k, v_tilde, 5.0, 0.01, eta_f)


def interior_instance(seed):
    """A one-vertex subproblem at sigma1 = 250 whose dual optimum X* has
    X0* = 0 and a positive definite vertex block, as on ex1.

    W* = [[W1, W1 K'], [K W1, K W1 K' + I]], with W1 the Gramian of the
    stabilized loop A - B2 K, is positive definite and makes the vertex
    block Theta(W*) vanish.  That loop is -diag(d) with B1 = I, so W1 is
    diagonal, as the inner solve keeps it; the rounding off its diagonal
    is dropped.  v_tilde is then chosen so that s* = svec(W*) =
    Minv (q - L(X*)); on W1's off-diagonal coordinates minv is 0, and
    any q serves.  Returns (lifted, args, X*).
    """
    rng = np.random.default_rng(seed)
    plant, _, K = feasible_instance(rng, 3, 2)
    lifted = model.lift_plant(model.validate_plant(plant))
    p = lifted.p
    W1 = np.diag(np.diag(analysis.solve_lyapunov(plant.A - plant.B2 @ K,
                                                 plant.B1 @ plant.B1.T)))
    W = np.block([[W1, W1 @ K.T], [K @ W1, K @ W1 @ K.T + np.eye(2)]])
    G = rng.standard_normal((3, 3))
    x_star = dual_state(lifted, [np.zeros(lifted.svec_p.size),
                                 inner.svec(G @ G.T + np.eye(3), lifted.svec_n)])
    d_k = rng.standard_normal((p, p))
    d_k = (d_k + d_k.T).reshape(-1, order="F")
    args = [d_k, rng.standard_normal(2 * 3), np.zeros(p * p), 5.0, 0.01, 1.3]
    data, _ = inner.assemble_dual_data(lifted, *args)
    ell = data.g0 + x_star.blocks()[1].dot(lifted.J_list[0])
    free = data.minv > 0
    q_star = data.q_k.copy()
    q_star[free] = (inner.svec(W, lifted.svec_p)[free] / data.minv[free]
                    + ell[free])
    _, sigma2, _, _ = subproblem_terms(lifted, args)
    s_tilde = (q_star - data.q_k) / (2.0 * sigma2)
    args[2] = inner.unsvec(s_tilde, lifted.svec_p).reshape(-1, order="F")
    return lifted, tuple(args), x_star


def assert_in_cones(lifted, state):
    x0, *xs = state.blocks()
    assert np.linalg.eigvalsh(inner.unsvec(x0, lifted.svec_p))[0] >= -1e-10
    for x in xs:
        assert np.linalg.eigvalsh(inner.unsvec(x, lifted.svec_n))[0] >= -1e-10


class TestAcceleratedSolve:
    eps = 1e-9

    def test_fewer_sweeps_than_plain_loop_same_primal(self):
        lifted, args = stiff_instance()
        data, _ = inner.assemble_dual_data(lifted, *args)
        state, plain = inner.zero_state(lifted), 0
        while plain < 50000:
            state, _ = inner.sgs_sweep(state, data)
            plain += 1
            if inner.dual_residual(state, data) < self.eps:
                break
        assert inner.dual_residual(state, data) < self.eps
        _, sweeps, acc_state = inner.solve_inner(
            lifted, *args, eps=self.eps, max_sweeps=50000)
        assert sweeps <= plain / 3
        np.testing.assert_allclose(inner.recover_primal(data, acc_state),
                                   inner.recover_primal(data, state),
                                   atol=1e-5)

    def test_returned_state_is_a_sweep_output(self):
        lifted, args = stiff_instance()
        data, _ = inner.assemble_dual_data(lifted, *args)
        _, _, state = inner.solve_inner(lifted, *args, eps=self.eps,
                                           max_sweeps=50000)
        assert_in_cones(lifted, state)
        assert inner.dual_residual(state, data) < self.eps

    def test_capped_state_is_a_sweep_output(self):
        lifted, args = stiff_instance()
        for cap in (2, 7, 30):
            with pytest.raises(MaxSweepsExceeded) as exc:
                inner.solve_inner(lifted, *args, eps=1e-14, max_sweeps=cap)
            assert exc.value.sweeps == cap
            assert_in_cones(lifted, exc.value.state)


    def test_interior_vertex_block_takes_the_exact_step(self):
        # the random instance above ends with its vertex block on the
        # cone's boundary, where no exact step passes: 143 sweeps both with
        # and without it.  Where the block ends inside the cone, the
        # majorized step alone needed 2,361 sweeps on this instance
        lifted, args, x_star = interior_instance(23)
        _, sweeps, state = inner.solve_inner(lifted, *args, eps=self.eps,
                                             max_sweeps=50000)
        assert sweeps <= 2
        np.testing.assert_allclose(state.x, x_star.x, atol=1e-10)


class TestExactStep:
    """The exact block minimizer of a vertex block with an interior
    candidate, and the majorized step a block without an inverse keeps."""

    def start(self, seed=23):
        """Interior-instance data, the inputs it was assembled from, and a
        state with X0 moved off X0*."""
        lifted, args, _ = interior_instance(seed)
        data, _ = inner.assemble_dual_data(lifted, *args)
        G = np.random.default_rng(seed).standard_normal((lifted.p, lifted.p))
        x0 = inner.svec(0.1 * G @ G.T, lifted.svec_p)
        x1 = np.zeros(lifted.svec_n.size)
        return lifted, data, args, dual_state(lifted, [x0, x1])

    def test_gradient_vanishes_and_objective_is_no_higher(self):
        lifted, data, args, state = self.start()
        J, kq = lifted.J_list[0], lifted.kappa_q[0]
        x0, x = state.blocks()
        g = kq + J.dot(inner.recover_primal(data, state))
        with np.errstate(invalid="ignore"):
            exact, took_exact = inner._vertex_step(x, g, 0, data)
            majorized = inner._project(x + g / data.rho_list[0],
                                       lifted.svec_n)[0]
        assert took_exact
        after = [dual_state(lifted, [x0, new])
                 for new in (exact, majorized)]
        g_exact = kq + J.dot(inner.recover_primal(data, after[0]))
        assert np.linalg.norm(g_exact) <= 1e-10 * np.linalg.norm(g)
        f_exact, f_majorized = (dual_objective(st, data, args)
                                for st in after)
        assert f_exact <= f_majorized + 1e-12 * abs(f_majorized)
        assert f_exact < f_majorized

    def test_near_singular_curvature_stores_no_inverse(self):
        # sigma1 = alpha/(2 theta) = 5e7 against sigma2 = 5e-11: Minv
        # spans 18 orders, and so does each H_i
        rng = np.random.default_rng(1)
        lifted, d_k, w_k, v_tilde, *_ = make_inner_instance(rng, 3, 2)
        data, _ = inner.assemble_dual_data(lifted, d_k, w_k, v_tilde,
                                           1e4, 1e-4, 1e-6)
        assert data.hinv_list == [None]
        state = inner.zero_state(lifted)
        for _ in range(20):
            state, s = inner.sgs_sweep(state, data)
            assert np.isfinite(state.x).all() and np.isfinite(s).all()
            assert np.isfinite(state.residual)
        assert_in_cones(lifted, state)


def vertex_instance(seed, n_vertices):
    """make_inner_instance's subproblem; with two vertices the second is
    the plant with A - I/2, which only widens the stability margin of the
    feasible point the instance is built around."""
    rng = np.random.default_rng(seed)
    lifted, *args = make_inner_instance(rng)
    if n_vertices == 2:
        pl = lifted.plant.plant
        shifted = pl.A - 0.5 * np.eye(lifted.n)
        plant = model.PlantData(A=pl.A, B2=pl.B2, B1=pl.B1, C=pl.C, D=pl.D,
                                vertices=((pl.A, pl.B2), (shifted, pl.B2)))
        lifted = model.lift_plant(model.validate_plant(plant))
    assert lifted.n_vertices == n_vertices
    return lifted, args


def outside_cones(lifted, state):
    x0, *xs = state.blocks()
    eigs = [np.linalg.eigvalsh(inner.unsvec(x0, lifted.svec_p))[0]]
    eigs += [np.linalg.eigvalsh(inner.unsvec(x, lifted.svec_n))[0]
             for x in xs]
    return min(eigs) < -1e-6


class TestResidualBound:
    """sgs_sweep's bound on dual_residual of its output, and the stop
    test of solve_inner that reads it."""

    # the exact residual's own eigendecompositions round at this level
    slack = 1e-13

    def sweep_and_compare(self, state, data, sweeps=15):
        for _ in range(sweeps):
            new, _ = inner.sgs_sweep(state, data)
            assert new.residual >= inner.dual_residual(new, data) - self.slack
            state = new
        return state

    @pytest.mark.parametrize("n_vertices", [1, 2])
    def test_bounds_the_exact_residual_from_a_zero_start(self, n_vertices):
        lifted, args = vertex_instance(13, n_vertices)
        data, _ = inner.assemble_dual_data(lifted, *args)
        self.sweep_and_compare(inner.zero_state(lifted), data)

    @pytest.mark.parametrize("n_vertices", [1, 2])
    def test_bounds_the_exact_residual_from_a_warm_start(self, n_vertices):
        # the solution of one subproblem warm-starts a neighbouring one
        lifted, (d_k, w_k, v_tilde, a, t, e) = vertex_instance(14, n_vertices)
        _, _, warm = inner.solve_inner(lifted, d_k, w_k, v_tilde, a, t, e,
                                          eps=1e-8, max_sweeps=20000)
        data, _ = inner.assemble_dual_data(lifted, 1.1 * d_k, w_k + 0.1,
                                           v_tilde, 1.2 * a, t, e)
        self.sweep_and_compare(warm, data)

    @pytest.mark.parametrize("n_vertices", [1, 2])
    def test_bounds_the_exact_residual_from_outside_the_cones(self,
                                                              n_vertices):
        lifted, args = vertex_instance(15, n_vertices)
        data, _ = inner.assemble_dual_data(lifted, *args)
        prev = inner.zero_state(lifted)
        state = self.sweep_and_compare(prev, data, sweeps=3)
        for _ in range(5):
            # extrapolated against the direction of progress,
            # y = prev + 2 (prev - state)
            y = inner.DualState(prev.x + 2.0 * (prev.x - state.x),
                                prev.slices)
            assert outside_cones(lifted, y)
            prev, state = state, self.sweep_and_compare(y, data, sweeps=1)

    def test_bounds_the_exact_residual_after_exact_steps(self, monkeypatch):
        # every vertex update records whether it took the exact step; in
        # the forward pass, which sets the bound, each one does, so the
        # bound's z term is 0 there
        lifted, args, x_star = interior_instance(24)
        data, _ = inner.assemble_dual_data(lifted, *args)
        rng = np.random.default_rng(24)
        G = rng.standard_normal((lifted.p, lifted.p))
        x0 = inner.svec(0.1 * G @ G.T, lifted.svec_p)
        start = dual_state(lifted, [x0, x_star.blocks()[1]
                                    + 0.1 * rng.standard_normal(
                                        lifted.svec_n.size)])
        taken, step = [], inner._vertex_step

        def recorded_step(*a):
            new, exact = step(*a)
            taken.append(exact)
            return new, exact
        monkeypatch.setattr(inner, "_vertex_step", recorded_step)
        state = self.sweep_and_compare(start, data, sweeps=5)
        assert len(taken) == 10 and all(taken[1::2])
        assert state.residual > 0.0

    def test_solve_stops_at_the_first_bound_below_eps(self, monkeypatch):
        lifted, args = stiff_instance()
        data, _ = inner.assemble_dual_data(lifted, *args)
        eps = 1e-9
        outputs, exact_calls = [], []
        sweep, exact = inner.sgs_sweep, inner.dual_residual

        def recorded_sweep(*a):
            new, ell = sweep(*a)
            outputs.append(new)
            return new, ell

        def counted_exact(*a):
            exact_calls.append(a)
            return exact(*a)
        monkeypatch.setattr(inner, "sgs_sweep", recorded_sweep)
        monkeypatch.setattr(inner, "dual_residual", counted_exact)
        _, sweeps, state = inner.solve_inner(lifted, *args, eps=eps,
                                                max_sweeps=50000)
        assert not exact_calls
        assert sweeps == len(outputs) > 1
        assert all(out.residual >= eps for out in outputs[:-1])
        assert state is outputs[-1]
        assert state.residual < eps
        assert exact(state, data) < eps

    def test_capped_solve_reports_the_exact_residual(self):
        lifted, args = stiff_instance()
        data, _ = inner.assemble_dual_data(lifted, *args)
        with pytest.raises(MaxSweepsExceeded) as exc:
            inner.solve_inner(lifted, *args, eps=1e-14, max_sweeps=5)
        assert exc.value.residual == inner.dual_residual(exc.value.state,
                                                         data)


@pytest.fixture(params=["ex1", "ladder"])
def stiff_plant_instance(request):
    """ex1 or the two-vertex plant of the ladder workload (both 3 states,
    2 inputs) with random subproblem data at sigma1 = alpha/(2 theta) =
    250, where a solve takes many sweeps."""
    lifted = request.getfixturevalue(f"{request.param}_lifted")
    _, d_k, w_k, v_tilde, _, _, eta_f = make_inner_instance(
        np.random.default_rng(31), 3, 2)
    return lifted, (d_k, w_k, v_tilde, 5.0, 0.01, eta_f)


class TestEarlyExit:
    """sgs_sweep given eps scores its bound X0 first, then the vertex
    blocks forward, and stops at the first term >= eps."""

    def test_eps_moves_nothing_and_scores_up_to_the_first_failing_term(
            self, stiff_plant_instance, monkeypatch):
        lifted, args = stiff_plant_instance
        plain, _ = inner.assemble_dual_data(lifted, *args)
        scored, _ = inner.assemble_dual_data(lifted, *args)
        # the terms of every block a sweep scored, in scoring order
        scorings, score = [], inner._relative_error

        def recorded(triples, eps=None):
            drawn = []

            def tap():
                for triple in triples:
                    drawn.append(score([triple]))
                    yield triple
            scorings.append(drawn)
            return score(tap(), eps)
        monkeypatch.setattr(inner, "_relative_error", recorded)

        # eps between the bounds of a plain chain, so that sweeps both
        # fail and pass
        state, s = inner.zero_state(lifted), None
        for _ in range(40):
            state, s = inner.sgs_sweep(state, plain, s)
        eps = state.residual
        plain, _ = inner.assemble_dual_data(lifted, *args)
        a = b = inner.zero_state(lifted)
        s_a = s_b = None
        outcomes = set()
        for _ in range(60):
            a, s_a = inner.sgs_sweep(a, plain, s_a)
            full = scorings[-1]
            b, s_b = inner.sgs_sweep(b, scored, s_b, eps)
            partial = scorings[-1]
            np.testing.assert_array_equal(b.x, a.x)
            np.testing.assert_array_equal(s_b, s_a)
            assert scored.pd == plain.pd
            assert len(full) == lifted.n_vertices + 1
            assert a.residual == max(full)
            failing = [j for j, term in enumerate(full) if term >= eps]
            if failing:
                # the first failing term, and no block after it, is scored
                assert partial == full[:failing[0] + 1]
                assert b.residual == full[failing[0]] >= eps
                outcomes.add(min(failing[0], 1))
            else:
                # a passing sweep reports exactly the full bound
                assert partial == full
                assert b.residual == a.residual < eps
                outcomes.add("passed")
        # X0 decides failing sweeps on both plants; on the ladder plant a
        # vertex block decides some as well
        assert {0, "passed"} <= outcomes
        assert 1 in outcomes or lifted.n_vertices == 1
