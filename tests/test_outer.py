import csv

import numpy as np
import pytest

from sparselq import analysis, cli, inner, model, outer
from sparselq.errors import MaxSweepsExceeded, NotConverged

from conftest import feasible_instance


@pytest.fixture(scope="module")
def ex1_g10(ex1_lifted):
    return outer.solve_relaxed(ex1_lifted, outer.regime_l1(10.0))


class TestRegimeConstructors:
    def test_l1(self):
        r = outer.regime_l1(2.0)
        assert (r.kind, r.mu_f, r.mu_g) == ("l1", 0.0, 0.0)
        assert r.penalty.kind == "weighted_l1"

    def test_pq_strong_convexity(self):
        w = np.array([[0.5, 2.0], [1.0, 1.0]])
        r = outer.regime_pq(3.0, weights=w, pq_params=(2.0, 0.4, -1.0, 1.0))
        assert r.mu_g == pytest.approx(3.0 * 0.5 * 0.4)
        assert r.mu_f == 0.0

    def test_anchored(self):
        r = outer.regime_anchored(1.0, np.ones((1, 2)), lam=10.0)
        assert (r.mu_f, r.mu_g) == (pytest.approx(1.0 / 10.0), 0.0)
        assert r.kind == "wl1_anchored"


class TestSchedule:
    def _advance(self, mu_f=0.0, mu_g=0.0, steps=300):
        state = outer.OuterState(
            W_tilde=np.zeros(1), v=np.zeros(1), P_tilde=np.zeros(1),
            w=np.zeros(1), lam=np.zeros(1), lam_bar=np.zeros(1),
            theta=1.0, kappa=1.0, beta=1.0, mu_f=mu_f, mu_g=mu_g)
        thetas = [state.theta]
        for _ in range(steps):
            ps = outer.step_and_parameters(state)
            state.theta, state.kappa, state.beta = (
                ps.theta_next, ps.kappa_next, ps.beta_next)
            thetas.append(state.theta)
        return np.array(thetas)

    def test_theta_closed_form_without_strong_convexity(self):
        thetas = self._advance()
        k = np.arange(thetas.size)
        np.testing.assert_allclose(thetas, 1.0 / (k + 1.0), rtol=1e-12)

    def test_theta_order_k2_with_strong_convexity(self):
        thetas = self._advance(mu_g=1.0, steps=3000)
        k = np.arange(thetas.size)
        scaled = (k[100:] ** 2) * thetas[100:]
        assert scaled.max() < 20.0
        # genuinely faster than 1/k
        assert thetas[3000] < 0.01 / 3000

    def test_formulas_by_hand(self):
        rng = np.random.default_rng(0)
        state = outer.OuterState(
            W_tilde=rng.standard_normal(4), v=rng.standard_normal(4),
            P_tilde=rng.standard_normal(2), w=rng.standard_normal(2),
            lam=np.zeros(3), lam_bar=np.zeros(3),
            theta=0.25, kappa=0.5, beta=0.8, mu_f=0.3, mu_g=0.7)
        ps = outer.step_and_parameters(state)
        alpha = np.sqrt(0.8 * 0.25)
        assert ps.alpha == pytest.approx(alpha)
        eta_g = (alpha + 1.0) * 0.8 + 0.7 * alpha
        assert ps.eta_g == pytest.approx(eta_g)
        np.testing.assert_allclose(
            ps.y_tilde,
            state.P_tilde + (alpha * 0.8 / eta_g) * (state.w - state.P_tilde))
        eta_f = 0.5 + 0.3 * alpha
        assert ps.eta_f_tilde == pytest.approx(eta_f)
        u = (state.W_tilde + alpha * state.v) / (1.0 + alpha)
        np.testing.assert_allclose(ps.u, u)
        np.testing.assert_allclose(
            ps.v_tilde, (0.5 * state.v + 0.3 * alpha * u) / eta_f)
        assert ps.tau == pytest.approx(alpha ** 2 / eta_g)
        assert ps.theta_next == pytest.approx(0.25 / (1.0 + alpha))
        assert ps.kappa_next == pytest.approx((0.5 + 0.3 * alpha) / (1.0 + alpha))
        assert ps.beta_next == pytest.approx((0.8 + 0.7 * alpha) / (1.0 + alpha))


class TestIterationInvariants:
    def test_residual_matches_multiplier_identity(self, ex1_lifted):
        # At the default schedule the averaged feasibility residual equals
        # ||lam_k|| * theta_k exactly: the dual accumulates the same
        # telescoping sums the averages report.
        lifted = ex1_lifted
        regime = outer.regime_l1(10.0)
        options = outer.SolverOptions(restart_every=0)
        state = outer.init_state(lifted, regime, options)
        for _ in range(150):
            state = outer.outer_iteration(state, lifted, regime, options)
            _, pr, _ = outer.check_convergence(state, lifted, 1e-5, 1e-4)
            lam_scaled = state.theta * np.linalg.norm(state.lam)
            assert pr == pytest.approx(lam_scaled, rel=1e-8)
            assert state.theta == pytest.approx(1.0 / (state.k + 1.0),
                                                rel=1e-12)

    def test_restart_preserves_sharp_iterate(self, ex1_lifted):
        lifted = ex1_lifted
        regime = outer.regime_l1(10.0)
        options = outer.SolverOptions()
        state = outer.init_state(lifted, regime, options)
        for _ in range(20):
            state = outer.outer_iteration(state, lifted, regime, options)
        v_before = state.v.copy()
        lam_before = state.lam.copy()
        outer.restart_averages(state, options)
        np.testing.assert_array_equal(state.v, v_before)
        np.testing.assert_array_equal(state.lam, lam_before)
        np.testing.assert_array_equal(state.W_tilde, v_before)
        assert state.theta == 1.0


class TestSolveRelaxed:
    def test_reference_optimum_gamma10(self, ex1_g10):
        # Reference optimum computed independently by an SDP solver at
        # tight tolerance.
        sol = ex1_g10
        assert sol.status == "converged"
        assert sol.certified
        assert sol.J_upper == pytest.approx(4.7591, rel=1e-3)
        assert sol.n_zeros == 2
        np.testing.assert_allclose(
            sol.K, [[0.6102, 3.4527, 0.3880], [0.0, 0.0, 0.4117]],
            atol=2e-3)
        assert np.all(sol.stable < 0)
        slack = 1e-3 * max(1.0, sol.J_upper)
        assert sol.J_upper >= sol.J_vertex.max() - slack

    @pytest.mark.parametrize("gamma,j_ref,zeros_ref", [
        (1.0, 3.2441, 0),
        (5.0, 4.2908, 2),
    ])
    def test_reference_optima_grid(self, ex1_lifted, gamma, j_ref, zeros_ref):
        sol = outer.solve_relaxed(ex1_lifted, outer.regime_l1(gamma))
        assert sol.J_upper == pytest.approx(j_ref, rel=1e-3)
        assert sol.n_zeros == zeros_ref
        assert sol.certified

    def test_integrator_chain_reference(self, ex3_lifted):
        sol = outer.solve_relaxed(ex3_lifted, outer.regime_l1(10.0))
        assert sol.J_upper == pytest.approx(9.5038, rel=1e-3)
        assert sol.n_zeros == 2
        assert sol.certified

    def test_restart_cadence_does_not_change_answer(self, ex1_lifted,
                                                    ex1_g10):
        sol = outer.solve_relaxed(
            ex1_lifted, outer.regime_l1(10.0),
            outer.SolverOptions(restart_every=500))
        assert sol.J_upper == pytest.approx(ex1_g10.J_upper, rel=1e-4)
        np.testing.assert_allclose(sol.K, ex1_g10.K, atol=1e-3)

    def test_converges_within_default_budget(self, ex1_g10):
        assert ex1_g10.iterations <= 20000

    def test_trace_rows(self, ex1_g10):
        t = ex1_g10.trace
        assert len(t) == ex1_g10.iterations
        assert all(len(row) == len(analysis.TRACE_COLUMNS) for row in t)
        ks = [row[0] for row in t]
        assert ks == list(range(1, len(t) + 1))
        # primal residual column settles below the tolerance scale
        assert t[-1][3] < t[0][3]

    def test_warm_start_resumes(self, ex1_lifted, ex1_g10):
        st = ex1_g10.final_state
        init = {"W_tilde": st.W_tilde, "v": st.v, "P_tilde": st.P_tilde,
                "w": st.w, "lam": st.lam,
                "last_primal_res": st.last_primal_res}
        sol = outer.solve_relaxed(ex1_lifted, outer.regime_l1(10.0),
                                  init=init)
        assert sol.iterations < ex1_g10.iterations / 3
        assert sol.J_upper == pytest.approx(ex1_g10.J_upper, rel=1e-3)

    def test_pq_regime_small_instance(self):
        rng = np.random.default_rng(21)
        plant, _, _ = feasible_instance(rng, 2, 1)
        lifted = model.lift_plant(model.validate_plant(plant))
        sol = outer.solve_relaxed(lifted, outer.regime_pq(1.0))
        assert sol.status == "converged"
        assert sol.certified
        assert sol.regime == "pq"

    def test_zero_gamma_runs_tiny_penalty(self):
        rng = np.random.default_rng(22)
        plant, _, _ = feasible_instance(rng, 2, 1)
        lifted = model.lift_plant(model.validate_plant(plant))
        sol = outer.solve_relaxed(lifted, outer.regime_l1(0.0))
        assert sol.gamma == pytest.approx(1e-8)
        assert sol.n_zeros == 0

    def test_budget_exhaustion_raises_with_payload(self, ex1_lifted):
        with pytest.raises(NotConverged) as exc:
            outer.solve_relaxed(ex1_lifted, outer.regime_l1(10.0),
                                outer.SolverOptions(max_outer=5))
        err = exc.value
        assert err.solution.status == "max_iter"
        assert not err.solution.certified
        assert np.isfinite(err.primal_res)
        assert err.solution.iterations == 5

    def test_capped_inner_solves_show_in_trace_file(self, ex1_lifted,
                                                     tmp_path):
        with pytest.raises(NotConverged) as exc:
            outer.solve_relaxed(ex1_lifted, outer.regime_l1(10.0),
                                outer.SolverOptions(max_sweeps=1,
                                                    max_outer=5))
        cli.write_solution(exc.value.solution, str(tmp_path))
        with open(tmp_path / "trace.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 5
        assert {row["inner_capped"] for row in rows} == {"1"}
        assert analysis.TRACE_COLUMNS[3] == "primal_res"
        doc = (tmp_path / "solution.json").read_text()
        assert "inner_capped" not in doc


class TestInnerResidualColumn:
    def test_each_solve_stopped_below_its_tolerance(self, ex1_g10):
        # solve_relaxed sets each inner tolerance from the previous
        # iteration's primal residual
        opts = outer.SolverOptions()
        col = analysis.TRACE_COLUMNS.index("inner_residual")
        eps_in = opts.inner_tol_cap
        for row in ex1_g10.trace:
            assert 0.0 <= row[col] < eps_in
            eps_in = max(opts.inner_tol_floor,
                         min(opts.inner_tol_cap, 0.1 * row[3]))

    def test_capped_solves_record_the_exact_residual(self, ex1_lifted,
                                                     tmp_path, monkeypatch):
        carried = []
        solve = inner.solve_inner

        def recording(*args, **kwargs):
            try:
                return solve(*args, **kwargs)
            except MaxSweepsExceeded as exc:
                carried.append(exc.residual)
                raise
        monkeypatch.setattr(inner, "solve_inner", recording)
        with pytest.raises(NotConverged) as exc:
            outer.solve_relaxed(ex1_lifted, outer.regime_l1(10.0),
                                outer.SolverOptions(max_sweeps=1,
                                                    max_outer=5))
        cli.write_solution(exc.value.solution, str(tmp_path))
        with open(tmp_path / "trace.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(carried) == 5
        assert [float(row["inner_residual"]) for row in rows] == carried
        assert analysis.TRACE_COLUMNS[3] == "primal_res"
        doc = (tmp_path / "solution.json").read_text()
        assert "inner_residual" not in doc


def _restart_iterations(trace):
    col = analysis.TRACE_COLUMNS.index("restarted")
    return [row[0] for row in trace if row[col]]


class TestAdaptiveRestart:
    def test_l1_stops_soon_after_the_sharp_iterate_settles(self, ex1_g10):
        # Reference optimum as in test_reference_optimum_gamma10.
        assert ex1_g10.iterations < 1000
        assert ex1_g10.certified
        assert ex1_g10.J_upper == pytest.approx(4.7591, rel=1e-3)

    def test_first_restart_precedes_the_period(self, ex1_g10):
        restarts = _restart_iterations(ex1_g10.trace)
        assert restarts and restarts[0] < 2000

    def test_restart_every_zero_turns_every_restart_off(self, ex1_lifted,
                                                        ex1_g10):
        first = _restart_iterations(ex1_g10.trace)[0]
        with pytest.raises(NotConverged) as exc:
            outer.solve_relaxed(ex1_lifted, outer.regime_l1(10.0),
                                outer.SolverOptions(restart_every=0,
                                                    max_outer=first + 100))
        assert _restart_iterations(exc.value.solution.trace) == []

    def test_pq_restarts_only_on_the_period(self):
        rng = np.random.default_rng(21)
        plant, _, _ = feasible_instance(rng, 2, 1)
        lifted = model.lift_plant(model.validate_plant(plant))
        sol = outer.solve_relaxed(lifted, outer.regime_pq(1.0),
                                  outer.SolverOptions(restart_every=50))
        restarts = _restart_iterations(sol.trace)
        assert restarts
        assert all(k % 50 == 0 for k in restarts)

    def test_anchored_subproblem_restarts_adaptively(self, ex1_lifted):
        lifted = ex1_lifted
        anchor = np.eye(lifted.p).reshape(-1, order="F")
        regime = outer.regime_anchored(10.0, np.ones((lifted.m, lifted.n)),
                                       10.0)
        sol = outer.solve_relaxed(lifted, regime, init={"anchor": anchor})
        restarts = _restart_iterations(sol.trace)
        assert sol.certified
        assert any(k % 2000 for k in restarts)


def test_capped_last_inner_solve_does_not_skip_the_cone_check(ex1_lifted):
    # With one sweep per inner solve the residual test can pass while the
    # averaged iterate still violates the cones; the stop must not be
    # accepted on the residuals alone.
    options = outer.SolverOptions(max_sweeps=1, max_outer=2000)
    try:
        sol = outer.solve_relaxed(ex1_lifted, outer.regime_pq(5.0), options)
    except NotConverged as exc:
        assert exc.solution.status == "max_iter"
    else:
        assert sol.feasibility["feasible"]
