import numpy as np
import pytest

from sparselq import inner
from sparselq.errors import MaxSweepsExceeded

from conftest import make_inner_instance, pg_dual_oracle


def assemble(rng_seed):
    rng = np.random.default_rng(rng_seed)
    lifted, d_k, w_k, v_tilde, alpha, theta, eta_f = make_inner_instance(rng)
    data, cache = inner.assemble_dual_data(lifted, d_k, w_k, v_tilde,
                                           alpha, theta, eta_f)
    return lifted, data, cache, (d_k, w_k, v_tilde, alpha, theta, eta_f)


class TestDualData:
    def test_sigma_values(self):
        lifted, data, _, (_, _, _, alpha, theta, eta_f) = assemble(0)
        assert data.sigma1 == pytest.approx(alpha / (2 * theta))
        assert data.sigma2 == pytest.approx(eta_f / (2 * alpha))

    def test_curvature_is_spd(self):
        # M = 2 sigma1 diag(gram) + 2 sigma2 I is positive and diagonal;
        # minv is its inverse, entry by entry.
        lifted, data, _, _ = assemble(1)
        M = 2 * data.sigma1 * lifted.gram_diag + 2 * data.sigma2
        assert np.all(data.minv > 0)
        np.testing.assert_allclose(data.minv * M, 1.0, rtol=1e-14)
        assert data.rho0 == data.minv.max()

    def test_rejects_nonpositive_parameters(self):
        rng = np.random.default_rng(2)
        lifted, d_k, w_k, v_tilde, *_ = make_inner_instance(rng)
        with pytest.raises(ValueError):
            inner.assemble_dual_data(lifted, d_k, w_k, v_tilde,
                                     0.0, 1.0, 1.0)

    def test_cache_reuse(self):
        lifted, data, cache, (d_k, w_k, v_tilde, a, t, e) = assemble(3)
        data2, cache2 = inner.assemble_dual_data(lifted, d_k, w_k, v_tilde,
                                                 a, t, e, cache=cache)
        assert cache2 is cache
        np.testing.assert_array_equal(data2.minv, data.minv)
        # a different sigma pair rebuilds
        _, cache3 = inner.assemble_dual_data(lifted, d_k, w_k, v_tilde,
                                             2 * a, t, e, cache=cache)
        assert cache3 is not cache


class TestSweeps:
    def test_dual_objective_monotone(self):
        lifted, data, _, _ = assemble(4)
        state = inner.zero_state(lifted)
        prev = inner.dual_objective(state, data)
        for _ in range(40):
            state = inner.sgs_sweep(state, data)
            cur = inner.dual_objective(state, data)
            assert cur <= prev + 1e-11 * max(1.0, abs(prev))
            prev = cur

    def test_residual_decreases_to_tolerance(self):
        lifted, data, _, _ = assemble(5)
        state = inner.zero_state(lifted)
        for _ in range(5000):
            state = inner.sgs_sweep(state, data)
            if inner.dual_residual(state, data) < 1e-9:
                break
        assert inner.dual_residual(state, data) < 1e-9

    def test_iterates_stay_in_cone(self):
        lifted, data, _, _ = assemble(6)
        state = inner.zero_state(lifted)
        for _ in range(10):
            state = inner.sgs_sweep(state, data)
            S0 = inner.unsvec(state.x0, lifted.svec_p)
            assert np.linalg.eigvalsh(S0)[0] >= -1e-10
            for x in state.x_list:
                S = inner.unsvec(x, lifted.svec_n)
                assert np.linalg.eigvalsh(S)[0] >= -1e-10


class TestSolveInner:
    def test_converged_primal_is_nearly_feasible(self):
        lifted, _, _, (d_k, w_k, v_tilde, a, t, e) = assemble(7)
        v, sweeps, state, cache = inner.solve_inner(
            lifted, d_k, w_k, v_tilde, a, t, e, eps=1e-10, max_sweeps=20000)
        W = lifted.unvec(v)
        np.testing.assert_allclose(W, W.T, atol=1e-12)
        assert np.linalg.eigvalsh(W)[0] >= -1e-6
        for i in range(lifted.n_vertices):
            assert np.linalg.eigvalsh(lifted.psi_block(W, i))[0] >= -1e-5

    def test_matches_projected_gradient_oracle(self):
        for seed in (8, 9):
            lifted, data, _, (d_k, w_k, v_tilde, a, t, e) = assemble(seed)
            v, _, state, _ = inner.solve_inner(
                lifted, d_k, w_k, v_tilde, a, t, e,
                eps=1e-9, max_sweeps=50000)
            ref_state, steps = pg_dual_oracle(lifted, data, max_steps=300000)
            s = inner.recover_primal(data, state)
            s_ref = inner.recover_primal(data, ref_state)
            f, f_ref = (inner.primal_objective(data, x) for x in (s, s_ref))
            assert abs(f - f_ref) <= 1e-6 * max(1.0, abs(f_ref))
            np.testing.assert_allclose(s, s_ref, atol=1e-5)

    def test_strong_duality_gap_closes(self):
        lifted, data, _, (d_k, w_k, v_tilde, a, t, e) = assemble(10)
        v, _, state, _ = inner.solve_inner(
            lifted, d_k, w_k, v_tilde, a, t, e, eps=1e-10, max_sweeps=50000)
        s = inner.recover_primal(data, state)
        gap = inner.primal_objective(data, s) + inner.dual_objective(state, data)
        assert abs(gap) <= 1e-6

    def test_warm_start_shortcuts(self):
        lifted, _, _, (d_k, w_k, v_tilde, a, t, e) = assemble(11)
        _, sweeps_cold, state, cache = inner.solve_inner(
            lifted, d_k, w_k, v_tilde, a, t, e, eps=1e-8, max_sweeps=20000)
        _, sweeps_warm, _, _ = inner.solve_inner(
            lifted, d_k, w_k, v_tilde, a, t, e, eps=1e-8, max_sweeps=20000,
            warm_start=state, cache=cache)
        assert sweeps_warm <= max(2, sweeps_cold // 4)

    def test_sweep_cap_carries_best_iterate(self):
        lifted, _, _, (d_k, w_k, v_tilde, a, t, e) = assemble(12)
        with pytest.raises(MaxSweepsExceeded) as exc:
            inner.solve_inner(lifted, d_k, w_k, v_tilde, a, t, e,
                              eps=1e-14, max_sweeps=3)
        err = exc.value
        assert err.sweeps == 3
        assert err.v.shape == (lifted.p * lifted.p,)
        assert np.isfinite(err.residual)
        assert isinstance(err.state, inner.DualState)
