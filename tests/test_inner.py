import numpy as np
import pytest

from sparselq import inner, model
from sparselq.errors import MaxSweepsExceeded

from conftest import make_inner_instance, pg_dual_oracle


def assemble(rng_seed):
    rng = np.random.default_rng(rng_seed)
    lifted, d_k, w_k, v_tilde, alpha, theta, eta_f = make_inner_instance(rng)
    data, _ = inner.assemble_dual_data(lifted, d_k, w_k, v_tilde,
                                       alpha, theta, eta_f)
    return lifted, data, (d_k, w_k, v_tilde, alpha, theta, eta_f)


class TestDualData:
    def test_sigma_values(self):
        lifted, data, (_, _, _, alpha, theta, eta_f) = assemble(0)
        assert data.sigma1 == pytest.approx(alpha / (2 * theta))
        assert data.sigma2 == pytest.approx(eta_f / (2 * alpha))

    def test_curvature_is_spd(self):
        # M = 2 sigma1 diag(gram) + 2 sigma2 I is positive and diagonal;
        # minv is its inverse, entry by entry.
        lifted, data, _ = assemble(1)
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


class TestSweeps:
    def test_dual_objective_monotone(self):
        lifted, data, _ = assemble(4)
        state = inner.zero_state(lifted)
        prev = inner.dual_objective(state, data)
        for _ in range(40):
            state, _ = inner.sgs_sweep(state, data)
            cur = inner.dual_objective(state, data)
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
            S0 = inner.unsvec(state.x0, lifted.svec_p)
            assert np.linalg.eigvalsh(S0)[0] >= -1e-10
            for x in state.x_list:
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
            assert np.linalg.eigvalsh(lifted.psi_block(W, i))[0] >= -1e-5

    def test_matches_projected_gradient_oracle(self):
        for seed in (8, 9):
            lifted, data, (d_k, w_k, v_tilde, a, t, e) = assemble(seed)
            v, _, state = inner.solve_inner(
                lifted, d_k, w_k, v_tilde, a, t, e,
                eps=1e-9, max_sweeps=50000)
            ref_state, steps = pg_dual_oracle(lifted, data, max_steps=300000)
            s = inner.recover_primal(data, state)
            s_ref = inner.recover_primal(data, ref_state)
            f, f_ref = (inner.primal_objective(data, x) for x in (s, s_ref))
            assert abs(f - f_ref) <= 1e-6 * max(1.0, abs(f_ref))
            np.testing.assert_allclose(s, s_ref, atol=1e-5)

    def test_strong_duality_gap_closes(self):
        lifted, data, (d_k, w_k, v_tilde, a, t, e) = assemble(10)
        v, _, state = inner.solve_inner(
            lifted, d_k, w_k, v_tilde, a, t, e, eps=1e-10, max_sweeps=50000)
        s = inner.recover_primal(data, state)
        gap = inner.primal_objective(data, s) + inner.dual_objective(state, data)
        assert abs(gap) <= 1e-6

    def test_warm_start_shortcuts(self):
        lifted, _, (d_k, w_k, v_tilde, a, t, e) = assemble(11)
        _, sweeps_cold, state = inner.solve_inner(
            lifted, d_k, w_k, v_tilde, a, t, e, eps=1e-8, max_sweeps=20000)
        _, sweeps_warm, _ = inner.solve_inner(
            lifted, d_k, w_k, v_tilde, a, t, e, eps=1e-8, max_sweeps=20000,
            warm_start=state)
        assert sweeps_warm <= max(2, sweeps_cold // 4)

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


def assert_in_cones(lifted, state):
    assert np.linalg.eigvalsh(inner.unsvec(state.x0, lifted.svec_p))[0] >= -1e-10
    for x in state.x_list:
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
    eigs = [np.linalg.eigvalsh(inner.unsvec(state.x0, lifted.svec_p))[0]]
    eigs += [np.linalg.eigvalsh(inner.unsvec(x, lifted.svec_n))[0]
             for x in state.x_list]
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
            # extrapolated against the direction of progress
            y = prev.extrapolated(state, 2.0)
            assert outside_cones(lifted, y)
            prev, state = state, self.sweep_and_compare(y, data, sweeps=1)

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
