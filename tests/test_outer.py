import csv
import logging
import math

import numpy as np
import pytest

from sparselq import analysis, cli, inner, l0, model, outer, penalties
from sparselq.errors import InvalidInput, MaxSweepsExceeded, NotConverged

from conftest import (dense_equality_operator, ex1_matrices,
                      feasible_instance, lift)


@pytest.fixture(scope="module")
def ex1_g10(ex1_lifted):
    return outer.solve_relaxed(ex1_lifted, outer.regime_l1(10.0))


class TestSolverOptions:
    @pytest.mark.parametrize("field,value", [
        ("eps1", 0.0), ("eps1", -1.0), ("eps1", float("nan")),
        ("eps2", float("inf")), ("eps2", 0.0), ("max_outer", 0),
        ("max_outer", -3), ("max_outer", 2.5), ("max_sweeps", 0),
        ("max_outer", True), ("max_sweeps", True), ("eps1", True),
        ("eps2", True)])
    def test_rejects_a_field_out_of_range(self, field, value):
        with pytest.raises(ValueError, match=field):
            outer.SolverOptions(**{field: value})

    def test_accepts_the_edges(self):
        outer.SolverOptions(eps1=1e-300, max_outer=1, max_sweeps=1)


class TestRegimeConstructors:
    def test_l1(self):
        r = outer.regime_l1(2.0)
        assert isinstance(r, penalties.Penalty)
        assert (r.kind, r.gamma, r.mu_g) == ("l1", 2.0, 0.0)

    def test_pq_strong_convexity(self):
        w = np.array([[0.5, 2.0], [1.0, 1.0]])
        r = outer.regime_pq(3.0, weights=w, pq_params=(2.0, 0.4, -1.0, 1.0))
        assert r.kind == "pq"
        assert r.mu_g == pytest.approx(3.0 * 0.5 * 0.4)

    def test_anchored(self, ex1_lifted):
        # the anchor and its weight mu_f = 1/lambda arrive as one pair
        pen = outer.regime_l1(1.0, np.ones((ex1_lifted.m, ex1_lifted.n)))
        anchor = np.eye(ex1_lifted.p).reshape(-1, order="F")
        st = outer.init_state(ex1_lifted, pen, anchor=(anchor, 0.1))
        assert (st.mu_f, st.mu_g) == (pytest.approx(1.0 / 10.0), 0.0)
        np.testing.assert_array_equal(st.anchor, anchor)
        st = outer.init_state(ex1_lifted, pen)
        assert (st.mu_f, st.anchor) == (0.0, None)


class TestHandOff:
    """init_state(warm=st, anchor=pair): the l0 continuation's hand-off
    from one subproblem to the next."""

    ARRAYS = ("W_tilde", "v", "P_tilde", "w", "lam", "P_prev", "anchor")

    def test_copies_the_iterate_and_takes_mu_f_from_the_anchor(self,
                                                               ex1_lifted,
                                                               ex1_g10):
        st = ex1_g10.final_state
        pen = outer.regime_l1(1.0, np.ones((ex1_lifted.m, ex1_lifted.n)))
        new = outer.init_state(ex1_lifted, pen, warm=st,
                               anchor=(st.W_tilde, 0.25))
        mine = [getattr(new, k) for k in self.ARRAYS]
        theirs = [a for a in (getattr(st, k) for k in self.ARRAYS)
                  if a is not None] + [st.dual_state.x]
        assert not any(np.shares_memory(a, b) for a in mine for b in theirs)
        for name in ("W_tilde", "v", "P_tilde", "w", "lam"):
            np.testing.assert_array_equal(getattr(new, name),
                                          getattr(st, name))
        np.testing.assert_array_equal(new.P_prev, st.P_tilde)
        np.testing.assert_array_equal(new.anchor, st.W_tilde)
        assert (new.mu_f, new.mu_g, new.k) == (0.25, 0.0, 0)
        # the next inner tolerance carries over; a cold start begins at
        # INNER_TOL_START
        assert new.eps_inner == st.eps_inner < outer.INNER_TOL_START
        assert outer.init_state(ex1_lifted, pen).eps_inner == \
            outer.INNER_TOL_START
        assert new.dual_state is st.dual_state
        # the curvature cache belongs to one solve
        assert new.curvature == {} and new.curvature is not st.curvature

    def test_a_returned_state_holds_no_curvature(self, ex1_lifted):
        # one cache entry can hold megabytes, and no later solve reads it
        sol = outer.solve_relaxed(ex1_lifted, outer.regime_pq(5.0))
        assert sol.final_state.curvature == {}
        with pytest.raises(NotConverged) as exc:
            outer.solve_relaxed(ex1_lifted, outer.regime_pq(5.0),
                                outer.SolverOptions(max_outer=3))
        assert exc.value.solution.final_state.curvature == {}

    def test_a_solve_leaves_the_warm_state_as_it_was(self, ex1_lifted,
                                                     ex1_g10):
        st = ex1_g10.final_state
        arrays = {k: getattr(st, k).copy() for k in self.ARRAYS[:-1]}
        scalars = (st.theta, st.kappa, st.beta, st.k, st.eps_inner)
        dual, x = st.dual_state, st.dual_state.x.copy()
        sol = outer.solve_relaxed(ex1_lifted, outer.regime_l1(10.0),
                                  warm=st, anchor=(st.W_tilde, 0.1))
        assert sol.final_state is not st and sol.final_state.mu_f == 0.1
        for k, a in arrays.items():
            np.testing.assert_array_equal(getattr(st, k), a)
        assert (st.theta, st.kappa, st.beta, st.k,
                st.eps_inner) == scalars
        assert st.dual_state is dual
        np.testing.assert_array_equal(dual.x, x)

    def test_schedule_restarts_from_the_constants(self, ex1_lifted, ex1_g10,
                                                  monkeypatch):
        # BETA0 is read at call time, by init_state and by
        # restart_averages alike; theta and kappa restart at 1
        monkeypatch.setattr(outer, "BETA0", 16.0)
        st = ex1_g10.final_state
        assert st.theta < 1.0 and st.kappa < 1.0
        pen = outer.regime_l1(10.0)
        for new in (outer.init_state(ex1_lifted, pen, warm=st),
                    outer.init_state(ex1_lifted, pen)):
            assert (new.theta, new.kappa, new.beta) == (1.0, 1.0, 16.0)
        outer.outer_iteration(new, ex1_lifted, pen)
        assert new.beta != 16.0 and new.kappa < 1.0
        outer.restart_averages(new)
        assert (new.theta, new.kappa, new.beta) == (1.0, 1.0, 16.0)


def advance_schedule(mu_f=0.0, mu_g=0.0, steps=300):
    """theta_0, ..., theta_steps of the scalar schedule from its start."""
    state = outer.OuterState(
        W_tilde=np.zeros(1), v=np.zeros(1), P_tilde=np.zeros(1),
        w=np.zeros(1), lam=np.zeros(1), mu_f=mu_f, mu_g=mu_g)
    thetas = [state.theta]
    for _ in range(steps):
        _, (state.theta, state.kappa, state.beta) = outer.next_schedule(state)
        thetas.append(state.theta)
    return np.array(thetas)


class TestSchedule:

    def test_theta_closed_form_without_strong_convexity(self):
        thetas = advance_schedule()
        k = np.arange(thetas.size)
        np.testing.assert_allclose(thetas, 1.0 / (k + 1.0), rtol=1e-12)

    def test_theta_order_k2_with_strong_convexity(self):
        thetas = advance_schedule(mu_g=1.0, steps=3000)
        k = np.arange(thetas.size)
        scaled = (k[100:] ** 2) * thetas[100:]
        assert scaled.max() < 20.0
        # genuinely faster than 1/k
        assert thetas[3000] < 0.01 / 3000

    def test_formulas_by_hand(self, ex1_lifted, monkeypatch):
        # one outer_iteration from a state with every scalar and vector
        # set, its inner solve and prox replaced by recorders
        lifted = ex1_lifted
        A, B = dense_equality_operator(lifted.n, lifted.m)
        rng = np.random.default_rng(0)
        anchor = rng.standard_normal(lifted.p ** 2)
        state = outer.init_state(lifted, outer.regime_l1(1.0),
                                 anchor=(anchor, 0.3))
        mn = lifted.m * lifted.n
        state.W_tilde = state.W_tilde + 0.1 * rng.standard_normal(lifted.p ** 2)
        state.v = state.v + 0.1 * rng.standard_normal(lifted.p ** 2)
        state.P_tilde, state.w = rng.standard_normal((2, mn))
        state.lam = rng.standard_normal(A.shape[0])
        state.theta, state.kappa, state.beta, state.mu_g = 0.25, 0.5, 0.8, 0.7
        before = {k: getattr(state, k).copy()
                  for k in ("W_tilde", "v", "P_tilde", "w", "lam")}
        v_next = rng.standard_normal(lifted.p ** 2)
        seen = {}

        def solve_inner(lifted_, d, w, v_tilde, alpha, theta, eta_f, *rest,
                        **kwargs):
            seen.update(d=d, v_tilde=v_tilde, alpha=alpha, theta=theta,
                        eta_f=eta_f)
            return v_next.copy(), 1, inner.zero_state(lifted)

        class Recorder:
            def prox(self, Z, rho):
                seen.update(Z=Z.reshape(-1, order="F").copy(), rho=rho)
                return np.zeros_like(Z)

        monkeypatch.setattr(inner, "solve_inner", solve_inner)
        record = outer.outer_iteration(state, lifted, Recorder())

        alpha = math.sqrt(0.8 * 0.25)
        # the prox returned P = 0, so the sharp w is -P_tilde / alpha; the
        # KKT error is the largest of its residual and the two movements
        w_next = -before["P_tilde"] / alpha
        kkt = max(np.linalg.norm(A @ v_next + B @ w_next),
                  np.linalg.norm(v_next - before["v"]),
                  np.linalg.norm(w_next - before["w"]))
        assert record == (alpha, 1, False, np.inf, pytest.approx(kkt))
        assert type(seen["alpha"]) is float and type(state.theta) is float
        assert seen["alpha"] == alpha and seen["theta"] == 0.25
        eta_f = 0.5 + 0.3 * alpha
        assert seen["eta_f"] == pytest.approx(eta_f)
        u = (before["W_tilde"] + alpha * before["v"]) / (1.0 + alpha)
        np.testing.assert_allclose(
            seen["v_tilde"], (0.5 * before["v"] + 0.3 * alpha * u) / eta_f)
        np.testing.assert_allclose(
            seen["d"], lifted.vec_R() + A.T @ before["lam"]
            + 0.3 * (u - anchor))
        eta_g = (alpha + 1.0) * 0.8 + 0.7 * alpha
        tau = alpha ** 2 / eta_g
        assert seen["rho"] == pytest.approx(1.0 / tau)
        y_tilde = before["P_tilde"] + (alpha * 0.8 / eta_g) * (
            before["w"] - before["P_tilde"])
        lam_bar = before["lam"] + (alpha / 0.25) * (A @ v_next
                                                    + B @ before["w"])
        # B = -I, so -tau B' lam_bar = tau lam_bar
        np.testing.assert_allclose(seen["Z"], y_tilde + tau * lam_bar)
        np.testing.assert_allclose(
            state.W_tilde, (before["W_tilde"] + alpha * v_next) / (1.0 + alpha))
        assert (state.theta, state.kappa, state.beta) == (
            pytest.approx(0.25 / (1.0 + alpha)),
            pytest.approx((0.5 + 0.3 * alpha) / (1.0 + alpha)),
            pytest.approx((0.8 + 0.7 * alpha) / (1.0 + alpha)))


class TestIterationInvariants:
    def test_residual_matches_multiplier_identity(self, ex1_lifted):
        # At the default schedule the averaged feasibility residual equals
        # ||lam_k|| * theta_k exactly: the dual accumulates the same
        # telescoping sums the averages report.
        lifted = ex1_lifted
        regime = outer.regime_l1(10.0)
        options = outer.SolverOptions()
        state = outer.init_state(lifted, regime)
        for _ in range(150):
            outer.outer_iteration(state, lifted, regime, options)
            _, pr, _ = outer.check_convergence(state, lifted, 1e-5, 1e-4)
            lam_scaled = state.theta * np.linalg.norm(state.lam)
            assert pr == pytest.approx(lam_scaled, rel=1e-8)
            assert state.theta == pytest.approx(1.0 / (state.k + 1.0),
                                                rel=1e-12)

    def test_restart_preserves_sharp_iterate(self, ex1_lifted):
        lifted = ex1_lifted
        regime = outer.regime_l1(10.0)
        options = outer.SolverOptions()
        state = outer.init_state(lifted, regime)
        for _ in range(20):
            outer.outer_iteration(state, lifted, regime, options)
        v_before = state.v.copy()
        lam_before = state.lam.copy()
        outer.restart_averages(state)
        np.testing.assert_array_equal(state.v, v_before)
        np.testing.assert_array_equal(state.lam, lam_before)
        np.testing.assert_array_equal(state.W_tilde, v_before)
        assert state.theta == 1.0


class TestCheckConvergence:
    @pytest.mark.parametrize("forced_zeros", [(), ((0, 2), (1, 0))])
    def test_matches_dense_operator(self, forced_zeros):
        # the stop test, taken from the dense A and B of the row layout
        lifted = lift(ex1_matrices(), forced_zeros=forced_zeros)
        A, B = dense_equality_operator(lifted.n, lifted.m)
        regime = outer.regime_l1(10.0)
        options = outer.SolverOptions()
        state = outer.init_state(lifted, regime)
        start = np.eye(lifted.p).reshape(-1, order="F")
        stops = set()
        for _ in range(60):
            outer.outer_iteration(state, lifted, regime, options)
            for eps1, eps2 in ((1e-5, 1e-4), (1e-1, 1.0)):
                AW, BP = A @ state.W_tilde, B @ state.P_tilde
                dual = A.T @ (B @ (state.P_tilde - state.P_prev))
                scale = max(np.linalg.norm(AW), np.linalg.norm(BP))
                eps_pri = np.sqrt(A.shape[0]) * eps1 + eps2 * scale
                eps_dua = (lifted.p * eps1
                           + eps2 * np.linalg.norm(A.T @ state.lam))
                pr, dr = np.linalg.norm(AW + BP), np.linalg.norm(dual)
                # no restart ran, so the sharp pair moved from the start
                # (I, 0), and theta = 1/(k + 1)
                ergodic = max(np.linalg.norm(state.v - start),
                              np.linalg.norm(state.w)) / (state.k + 1.0)
                stop, got_pr, got_dr = outer.check_convergence(
                    state, lifted, eps1, eps2)
                assert got_pr == pytest.approx(pr, rel=1e-12, abs=1e-300)
                assert got_dr == pytest.approx(dr, rel=1e-12, abs=1e-300)
                assert stop == (pr <= eps_pri and dr <= eps_dua
                                and ergodic <= eps_pri * (1.0 + 1e-12))
                # the next inner tolerance, the same at every (eps1, eps2):
                # 0.1 x the relative primal residual, uncapped
                assert state.eps_inner == pytest.approx(
                    max(outer.INNER_TOL_FLOOR, 0.1 * pr / (1.0 + scale)),
                    rel=1e-12)
                stops.add(stop)
        assert stops == {True, False}


class TestSolveRelaxed:
    @pytest.mark.parametrize("weights", [[1.0, 2.0, 3.0],
                                         [1.0, 2.0, 3.0, 4.0]])
    def test_weights_of_another_shape_are_invalid(self, ex1_lifted, weights):
        # ex1's gain is 2x3: a 3-vector would broadcast over it, a
        # 4-vector fail inside the prox
        with pytest.raises(InvalidInput, match="weights"):
            outer.solve_relaxed(ex1_lifted, outer.regime_l1(1.0, weights))

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
        sol = outer.solve_relaxed(ex1_lifted, outer.regime_l1(10.0),
                                  warm=ex1_g10.final_state)
        assert sol.iterations < ex1_g10.iterations / 3
        assert sol.J_upper == pytest.approx(ex1_g10.J_upper, rel=1e-3)

    def test_a_warm_state_of_another_lift_is_invalid(
            self, ex1_g10, ex2_lifted, ex3_lifted, ladder_lifted):
        # ex1's state has one vertex block where the ladder plant (also 3
        # states, 2 inputs) has two, and W of order 5 where ex2 has 7;
        # ex3 has ex1's shapes, so ex1's state warm-starts it
        warm = ex1_g10.final_state
        with pytest.raises(InvalidInput, match="warm: dual_state"):
            outer.solve_relaxed(ladder_lifted, outer.regime_l1(0.8),
                                warm=warm)
        with pytest.raises(InvalidInput, match="warm: W_tilde"):
            outer.solve_relaxed(ex2_lifted, outer.regime_l1(10.0), warm=warm)
        sol = outer.solve_relaxed(ex3_lifted, outer.regime_l1(10.0),
                                  warm=warm)
        assert sol.certified

    def test_pq_regime_small_instance(self):
        rng = np.random.default_rng(21)
        plant, _, _ = feasible_instance(rng, 2, 1)
        lifted = model.lift_plant(model.validate_plant(plant))
        sol = outer.solve_relaxed(lifted, outer.regime_pq(1.0))
        assert sol.status == "converged"
        assert sol.certified
        assert sol.regime == "pq"

    def test_zero_gamma_runs_unpenalized(self):
        rng = np.random.default_rng(22)
        plant, _, _ = feasible_instance(rng, 2, 1)
        lifted = model.lift_plant(model.validate_plant(plant))
        sol = outer.solve_relaxed(lifted, outer.regime_l1(0.0))
        assert sol.gamma == 0.0
        assert sol.n_zeros == 0

    def test_zero_gamma_pq_keeps_the_plain_schedule(self):
        # at gamma = 0 the pq penalty is not strongly convex: mu_g = 0
        rng = np.random.default_rng(22)
        plant, _, _ = feasible_instance(rng, 2, 1)
        lifted = model.lift_plant(model.validate_plant(plant))
        sol = outer.solve_relaxed(lifted, outer.regime_pq(0.0))
        assert sol.gamma == 0.0
        assert sol.final_state.mu_g == 0.0

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
    @pytest.mark.parametrize("regime", [outer.regime_l1, outer.regime_pq],
                             ids=["l1", "pq"])
    def test_each_solve_stopped_below_its_tolerance(self, ex1_lifted, regime,
                                                    monkeypatch):
        # the first inner solve stops at INNER_TOL_START; each later one,
        # under every penalty, at 0.1 x the previous iteration's relative
        # primal residual, |r| / (1 + max(|A W|, |P|)), uncapped
        solve, check = inner.solve_inner, outer.check_convergence
        tolerances, relative = [], []

        def recording_solve(*args, **kwargs):
            tolerances.append(args[7])
            return solve(*args, **kwargs)

        def recording_check(state, *args):
            AW = ex1_lifted.unvec(state.W_tilde)[ex1_lifted.n:, :ex1_lifted.n]
            scale = max(np.linalg.norm(AW),
                        np.linalg.norm(state.P_tilde))
            out = check(state, *args)
            relative.append(out[1] / (1.0 + scale))
            return out

        monkeypatch.setattr(inner, "solve_inner", recording_solve)
        monkeypatch.setattr(outer, "check_convergence", recording_check)
        sol = outer.solve_relaxed(ex1_lifted, regime(10.0))
        col = analysis.TRACE_COLUMNS.index("inner_residual")
        assert len(tolerances) == len(sol.trace) == len(relative)
        eps_in = outer.INNER_TOL_START
        for row, eps, rel in zip(sol.trace, tolerances, relative):
            assert eps == pytest.approx(eps_in, rel=1e-12)
            assert 0.0 <= row[col] < eps
            eps_in = max(outer.INNER_TOL_FLOOR, 0.1 * rel)

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

    def test_restart_every_zero_turns_every_restart_off(self, monkeypatch,
                                                        ex1_lifted, ex1_g10):
        first = _restart_iterations(ex1_g10.trace)[0]
        monkeypatch.setattr(outer, "_restart_due", lambda state, kkt: False)
        with pytest.raises(NotConverged) as exc:
            outer.solve_relaxed(ex1_lifted, outer.regime_l1(10.0),
                                outer.SolverOptions(max_outer=first + 100))
        assert _restart_iterations(exc.value.solution.trace) == []

    def test_each_adaptive_rule_restarts(self):
        # each test of the KKT decay since the last restart (at iteration
        # k_r, KKT error kkt_r; kkt the previous iteration's) restarts on
        # its own, and no iteration count does
        state = outer.OuterState(*(np.zeros(1),) * 5, k=2001, k_r=1990,
                                 kkt_r=1.0, kkt=0.5)
        cases = [(2001, 1990, 0.1),    # fell to 0.2 x kkt_r
                 (2001, 1990, 0.7),    # below 0.8 x kkt_r, and rose
                 (2001, 1000, 0.9)]    # the last restart 0.36 k back
        for state.k, state.k_r, kkt in cases:
            assert outer._restart_due(state, kkt)
        # fell since the last iteration, but not to 0.2 x kkt_r
        state.k, state.k_r = 2001, 1990
        assert not outer._restart_due(state, 0.4)
        # k = 2000 with no test met
        state.k = 2000
        assert not outer._restart_due(state, 0.9)

    @staticmethod
    def _pq_instance():
        rng = np.random.default_rng(21)
        plant, _, _ = feasible_instance(rng, 2, 1)
        return model.lift_plant(model.validate_plant(plant))

    def test_pq_restarts_adaptively(self):
        # the accelerated schedule of a strongly convex penalty restarts
        # too
        sol = outer.solve_relaxed(self._pq_instance(), outer.regime_pq(1.0))
        restarts = _restart_iterations(sol.trace)
        assert sol.certified
        assert restarts

    def test_restart_every_zero_turns_every_pq_restart_off(self,
                                                           monkeypatch):
        monkeypatch.setattr(outer, "_restart_due", lambda state, kkt: False)
        with pytest.raises(NotConverged) as exc:
            outer.solve_relaxed(self._pq_instance(), outer.regime_pq(1.0),
                                outer.SolverOptions(max_outer=200))
        assert _restart_iterations(exc.value.solution.trace) == []

    def test_pq_stops_at_a_tenth_of_the_tolerances(self, ex1_lifted,
                                                   monkeypatch):
        # every residual test ran at a tenth of the options' (eps1, eps2)
        check, seen = outer.check_convergence, set()

        def recording_check(state, lifted, eps1, eps2):
            seen.add((eps1, eps2))
            return check(state, lifted, eps1, eps2)

        monkeypatch.setattr(outer, "check_convergence", recording_check)
        sol = outer.solve_relaxed(ex1_lifted, outer.regime_pq(5.0))
        options = outer.SolverOptions()
        assert sol.certified and len(seen) == 1
        assert seen.pop() == pytest.approx((0.1 * options.eps1,
                                            0.1 * options.eps2))

    def test_default_pq_stop_is_near_the_optimum(self, ex1_lifted):
        # 4.600193: ex1 pq at gamma 5 solved at eps1 1e-8, eps2 1e-7
        sol = outer.solve_relaxed(ex1_lifted, outer.regime_pq(5.0))
        assert sol.certified
        assert sol.J_upper == pytest.approx(4.600193, rel=1e-4)

    def test_anchored_subproblem_restarts_adaptively(self, ex1_lifted):
        lifted = ex1_lifted
        anchor = np.eye(lifted.p).reshape(-1, order="F")
        regime = outer.regime_l1(10.0, np.ones((lifted.m, lifted.n)))
        sol = outer.solve_relaxed(lifted, regime,
                                  anchor=(anchor, 1.0 / 10.0))
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
        assert sol.certified


def test_converged_implies_certified(ex2_lifted, caplog):
    # The first stop of ex2 pq at gamma 10 meets the residuals, but its
    # averaged W misses the cones by more than the certificate's
    # tolerance; the run must go on to a certified stop.
    caplog.set_level(logging.INFO, logger="sparselq")
    sol = outer.solve_relaxed(ex2_lifted, outer.regime_pq(10.0))
    assert sol.status == "converged"
    assert sol.certified
    rejected = [r.getMessage() for r in caplog.records
                if "residuals met" in r.getMessage()]
    assert rejected and all("feasible failed" in m for m in rejected)
    assert sol.feasibility["feasible"]
    slack = 1e-3 * max(1.0, sol.J_upper)
    assert sol.J_upper >= sol.J_vertex.max() - slack


def test_a_rejected_stop_restarts_the_averages(ex1_lifted, monkeypatch):
    # the certificate rejects the first stop; the adaptive rule is not
    # consulted on a stop, so the restart on that iteration's row is the
    # rejection's, and it collapses the average onto the sharp pair
    certify, check = analysis.certify, outer.check_convergence
    seen, rejected, collapsed = [], [], []

    def recorded_check(state, *args):
        seen.append(state)
        return check(state, *args)

    def reject_first(lifted, W, P, status):
        cert = certify(lifted, W, P, status)
        if not rejected:
            rejected.append(seen[-1].k)
            cert["certified"] = cert["conditions"]["feasible"] = False
        return cert

    def recorded_restart(state):
        out = restart(state)
        np.testing.assert_array_equal(out.W_tilde, out.v)
        collapsed.append(state.k)
        return out

    restart = outer.restart_averages
    monkeypatch.setattr(outer, "check_convergence", recorded_check)
    monkeypatch.setattr(analysis, "certify", reject_first)
    monkeypatch.setattr(outer, "restart_averages", recorded_restart)
    sol = outer.solve_relaxed(ex1_lifted, outer.regime_l1(5.0))
    assert sol.certified and len(rejected) == 1
    assert rejected[0] in collapsed
    assert rejected[0] in _restart_iterations(sol.trace)
    assert sol.iterations > rejected[0]


@pytest.mark.parametrize("regime", [outer.regime_l1, outer.regime_pq])
def test_a_converged_solve_certifies_once_per_stop(ex1_lifted, regime,
                                                   certify_calls_and_stops):
    calls, stops = certify_calls_and_stops
    sol = outer.solve_relaxed(ex1_lifted, regime(5.0))
    assert sol.certified
    assert stops and calls == ["converged"] * len(stops)


@pytest.mark.parametrize("regime", ["l1", "pq", "l0"])
def test_w1_off_diagonal_is_exactly_zero(ex1_lifted, monkeypatch, regime):
    # the inner solve holds W1's off-diagonal coordinates at zero, so
    # every inner primal, every average of them and the stored W are
    # diagonal there, in each regime, the anchored l0 subsolves included
    lifted, solve = ex1_lifted, inner.solve_inner
    off = ~np.eye(lifted.n, dtype=bool)
    primals = []

    def recorded(*args, **kwargs):
        v, sweeps, state = solve(*args, **kwargs)
        primals.append(lifted.unvec(v)[:lifted.n, :lifted.n][off])
        return v, sweeps, state

    monkeypatch.setattr(inner, "solve_inner", recorded)
    if regime == "l0":
        sol = l0.solve_l0(lifted, 1.0, continuation=l0.ContinuationOptions(
            sigma0=1.0, sigma_min=0.5, sigma_decay=0.5))
    else:
        sol = outer.solve_relaxed(lifted,
                                  getattr(outer, f"regime_{regime}")(5.0))
    assert primals and all(np.all(x == 0.0) for x in primals)
    assert np.all(sol.W[:lifted.n, :lifted.n][off] == 0.0)


@pytest.fixture(scope="module")
def ex1_forced_g1():
    return outer.solve_relaxed(lift(ex1_matrices(), forced_zeros=((0, 1),)),
                               outer.regime_l1(1.0))


def test_forced_zero_is_exactly_zero(ex1_forced_g1):
    # the inner solve holds W[n + 0, 1] at zero, so the averaged and the
    # sharp W, P, the gain row's residual and its multiplier are all
    # exactly 0.0 there
    sol, n = ex1_forced_g1, 3
    st = sol.final_state
    assert st.W_tilde.reshape(5, 5, order="F")[n + 0, 1] == 0.0
    assert st.v.reshape(5, 5, order="F")[n + 0, 1] == 0.0
    assert sol.P[0, 1] == 0.0
    assert sol.multiplier.shape == (6,)
    assert sol.multiplier.reshape(2, 3, order="F")[0, 1] == 0.0


def test_forced_zero_solve_stops_soon(ex1_forced_g1):
    # 6,517 is a third of the 19,553 iterations this solve took while
    # the forced zero was an equality row that the multiplier enforced
    sol = ex1_forced_g1
    assert sol.certified and sol.iterations <= 6517
    assert sol.pattern.tolist() == [[0, 0, 0], [1, 1, 1]]
