import numpy as np
import pytest

from sparselq import analysis, inner, l0, model, outer, penalties
from sparselq.errors import NotConverged

from conftest import feasible_instance


def small_lifted(seed, n=2, m=1, forced_zeros=()):
    rng = np.random.default_rng(seed)
    plant, _, _ = feasible_instance(rng, n, m)
    return model.lift_plant(model.validate_plant(plant),
                            forced_zeros=forced_zeros)


def solution_at(lifted, W, P):
    """The Solution of (W, P) with its certificate, as a converged
    subsolve would return it."""
    return analysis.build_solution(lifted, W.reshape(-1, order="F"),
                                   P.reshape(-1, order="F"), [],
                                   "converged", "l1", 1.0, 0.0)


FAST_LADDER = l0.ContinuationOptions(sigma0=1.0, sigma_min=0.05,
                                     sigma_decay=0.5)


class TestSurrogatePieces:
    def test_weights_use_magnitudes(self):
        P = np.array([[-2.0, 0.0, 0.5]])
        w = l0.surrogate_weights(P, 1.0)
        np.testing.assert_allclose(w, np.exp(-np.abs(P) / 1.0))
        assert w[0, 1] == pytest.approx(1.0)

    def test_ladder_geometric(self):
        opts = l0.ContinuationOptions(sigma0=1.0, sigma_min=0.1,
                                      sigma_decay=0.5)
        np.testing.assert_allclose(list(l0._sigma_ladder(opts)),
                                   [1.0, 0.5, 0.25, 0.125])

    def test_objective_on_feasible_point(self):
        rng = np.random.default_rng(0)
        plant, W, K = feasible_instance(rng, 3, 2)
        lifted = model.lift_plant(model.validate_plant(plant))
        P = W[3:, :3]
        sol = solution_at(lifted, W, P)
        assert sol.feasibility["feasible"]
        h = l0.h_sigma_objective(sol, gamma=2.0, sigma=0.7)
        expected = (np.sum(lifted.R * W)
                    + 2.0 * np.sum(1.0 - np.exp(-np.abs(P) / 0.7)))
        assert h == pytest.approx(expected)

    def test_objective_inf_when_infeasible(self):
        lifted = small_lifted(1)
        W = np.eye(lifted.p)
        P = np.ones((lifted.m, lifted.n))  # violates the coupling rows
        sol = solution_at(lifted, W, P)
        assert not sol.feasibility["feasible"]
        assert l0.h_sigma_objective(sol, 1.0, 1.0) == np.inf

    def test_objective_follows_the_certificate_tolerance(self):
        # a gain-coupling gap above 1e-3 but within the certificate's own
        # tolerance (5 x the primal residual) is feasible, and h_sigma is
        # finite: J_upper plus the surrogate
        rng = np.random.default_rng(0)
        plant, W, K = feasible_instance(rng, 3, 2)
        lifted = model.lift_plant(model.validate_plant(plant))
        P = W[3:, :3].copy()
        P[0, 0] += 2e-3
        sol = solution_at(lifted, W, P)
        gap = sol.feasibility["gain_coupling_gap"]
        assert 1e-3 < gap <= 5.0 * sol.primal_res
        assert sol.feasibility["feasible"]
        assert not analysis.feasibility_report(lifted, sol.W, P,
                                               tol=1e-3)["feasible"]
        h = l0.h_sigma_objective(sol, gamma=2.0, sigma=0.7)
        surrogate = np.sum(1.0 - np.exp(-np.abs(P) / 0.7))
        assert np.isfinite(h)
        assert h == pytest.approx(sol.J_upper + 2.0 * surrogate)


class TestContinuationOptions:
    @pytest.mark.parametrize("field,value", [
        ("sigma0", 0.0), ("sigma0", -1.0), ("sigma0", float("nan")),
        ("sigma0", float("inf")), ("sigma_min", 0.0), ("sigma_min", -1e-3),
        ("sigma_decay", 0.0), ("sigma_decay", 1.0), ("sigma_decay", 1.5),
        ("sigma_decay", float("nan")), ("prox_weight", 0.0),
        ("prox_weight", -10.0), ("prox_weight", True), ("sigma0", True)])
    def test_rejects_a_field_out_of_range(self, field, value):
        with pytest.raises(ValueError, match=field):
            l0.ContinuationOptions(**{field: value})

    def test_rejects_a_ladder_without_a_rung(self):
        with pytest.raises(ValueError, match="sigma0"):
            l0.ContinuationOptions(sigma0=1e-5)
        assert list(l0._sigma_ladder(l0.ContinuationOptions(
            sigma0=0.1, sigma_min=0.1))) == [0.1]


def test_each_pass_warm_starts_the_inner_dual(monkeypatch):
    # the first inner solve of a pass starts from the dual state the
    # last inner solve of the pass before it returned
    solves, passes = [], []
    solve_inner, solve_relaxed = inner.solve_inner, outer.solve_relaxed

    def recording_inner(*args, warm_start=None, **kwargs):
        out = solve_inner(*args, warm_start=warm_start, **kwargs)
        solves.append((len(passes), warm_start, out[2]))
        return out

    def counting_relaxed(*args, **kwargs):
        passes.append(None)
        return solve_relaxed(*args, **kwargs)

    monkeypatch.setattr(inner, "solve_inner", recording_inner)
    monkeypatch.setattr(outer, "solve_relaxed", counting_relaxed)
    monkeypatch.setattr(l0, "MAX_PASSES", 2)
    one_rung = l0.ContinuationOptions(sigma0=1.0, sigma_min=1.0)
    l0.solve_l0(small_lifted(2), gamma=0.5, continuation=one_rung)
    assert len(passes) == 2
    first = [s for s in solves if s[0] == 1]
    second = [s for s in solves if s[0] == 2]
    assert first[0][1] is None
    assert second[0][1] is first[-1][2]


def test_the_last_subsolve_is_not_certified_again(monkeypatch,
                                                  certify_calls_and_stops):
    calls, stops = certify_calls_and_stops
    iterations = []
    solve_relaxed = outer.solve_relaxed

    def counting_relaxed(*args, **kwargs):
        sol = solve_relaxed(*args, **kwargs)
        iterations.append(sol.iterations)
        return sol

    monkeypatch.setattr(outer, "solve_relaxed", counting_relaxed)
    monkeypatch.setattr(l0, "MAX_PASSES", 2)
    one_rung = l0.ContinuationOptions(sigma0=1.0, sigma_min=1.0)
    sol = l0.solve_l0(small_lifted(2), gamma=0.5, continuation=one_rung)
    assert sol.certified
    assert stops and len(calls) == len(stops)
    assert (sol.regime, sol.gamma, sol.weights) == ("l0", 0.5, None)
    assert sol.iterations == sum(iterations)
    assert len(sol.stage_trace) == len(iterations)


@pytest.fixture(scope="module")
def solved():
    lifted = small_lifted(2)
    sol = l0.solve_l0(lifted, gamma=0.5, continuation=FAST_LADDER)
    return lifted, sol


class TestSolveL0:
    def test_converged_and_certified(self, solved):
        _, sol = solved
        assert sol.status == "converged"
        assert sol.certified
        assert sol.regime == "l0"
        assert np.all(sol.stable < 0)

    def test_stage_trace_structure(self, solved):
        _, sol = solved
        assert sol.stage_trace
        sigmas = [row[0] for row in sol.stage_trace]
        expected = list(l0._sigma_ladder(FAST_LADDER))
        assert sorted(set(sigmas), reverse=True) == expected
        assert all(len(row) == 4 for row in sol.stage_trace)
        # iteration count aggregates every subproblem
        assert sol.iterations > 0

    def test_stage_objective_descends(self, solved):
        _, sol = solved
        by_sigma = {}
        for sigma, _, h, _ in sol.stage_trace:
            by_sigma.setdefault(sigma, []).append(h)
        for hs in by_sigma.values():
            assert np.all(np.isfinite(hs))
            for a, b in zip(hs, hs[1:]):
                assert b <= a + 1e-4 * max(1.0, abs(a))

    def test_gain_consistent_with_parameter(self, solved):
        lifted, sol = solved
        np.testing.assert_array_equal(sol.K == 0.0, sol.P == 0.0)
        assert sol.J_upper >= sol.J_vertex.max() - 1e-3 * max(1.0,
                                                              sol.J_upper)

    def test_at_least_as_sparse_as_l1(self):
        lifted = small_lifted(3)
        gamma = 0.8
        sol_l1 = outer.solve_relaxed(lifted, outer.regime_l1(gamma))
        sol_l0 = l0.solve_l0(lifted, gamma=gamma, continuation=FAST_LADDER)
        assert sol_l0.n_zeros >= sol_l1.n_zeros

    def test_forced_zeros_exact(self):
        lifted = small_lifted(4, n=3, m=2, forced_zeros=((0, 1), (1, 2)))
        sol = l0.solve_l0(lifted, gamma=0.3, continuation=FAST_LADDER)
        assert sol.K[0, 1] == 0.0
        assert sol.K[1, 2] == 0.0
        assert sol.status == "converged"

    def test_survives_subproblem_cap(self, monkeypatch):
        lifted = small_lifted(5)
        opts = outer.SolverOptions(max_outer=4)
        monkeypatch.setattr(l0, "MAX_PASSES", 3)
        ladder = l0.ContinuationOptions(sigma0=0.5, sigma_min=0.3,
                                        sigma_decay=0.5)
        with pytest.raises(NotConverged) as info:
            l0.solve_l0(lifted, gamma=0.5, options=opts, continuation=ladder)
        sol = info.value.solution
        assert (sol.regime, sol.status) == ("l0", "max_iter")
        assert not sol.certified
        assert sol.stage_trace
        assert sol.iterations == 4 * len(sol.stage_trace)
        assert np.isfinite(info.value.primal_res)
