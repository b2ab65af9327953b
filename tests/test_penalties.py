import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sparselq import analysis, l0, model, outer, penalties
from sparselq.errors import InvalidInput

from conftest import feasible_instance


def grid_prox(z, rho, pen, lo=-8.0, hi=8.0, n=400001):
    """Brute-force argmin of 0.5*rho*(x-z)^2 + pen(x) on a uniform grid."""
    x = np.linspace(lo, hi, n)
    vals = 0.5 * rho * (x - z) ** 2 + pen(x)
    return x[np.argmin(vals)]


# (gamma, rho, the field named) that both prox maps reject
BAD_GAMMA_OR_RHO = [
    (-1.0, 1.0, "gamma"), (float("nan"), 1.0, "gamma"),
    (float("inf"), 1.0, "gamma"), ("1", 1.0, "gamma"),
    (1.0, float("nan"), "rho"), (1.0, float("inf"), "rho"),
    (1.0, "1", "rho"), (1.0, True, "rho")]


class TestWeightedL1Prox:
    @pytest.mark.parametrize("z,gamma,w,rho", [
        (2.3, 1.0, 1.0, 1.0),
        (-0.4, 1.0, 1.0, 1.0),
        (0.7, 2.5, 0.3, 4.0),
        (-3.1, 0.5, 2.0, 0.25),
    ])
    def test_matches_grid_oracle(self, z, gamma, w, rho):
        pen = lambda x: gamma * w * np.abs(x)
        expected = grid_prox(z, rho, pen)
        got = penalties.prox_weighted_l1(np.array([z]), gamma,
                                         np.array([w]), rho)[0]
        assert abs(got - expected) < 1e-4

    def test_exact_zero_inside_threshold(self):
        Z = np.array([[0.2, -0.9, 0.0], [1.0001, -1.0, 0.3]])
        out = penalties.prox_weighted_l1(Z, 1.0, None, 1.0)
        np.testing.assert_array_equal(out == 0.0,
                                      np.abs(Z) <= 1.0)

    def test_threshold_scales_with_weights(self):
        Z = np.array([1.0, 1.0])
        w = np.array([0.5, 2.0])
        out = penalties.prox_weighted_l1(Z, 1.0, w, 2.0)
        np.testing.assert_allclose(out, [0.75, 0.0])

    @given(st.floats(-50, 50), st.floats(-50, 50))
    @settings(max_examples=60, deadline=None)
    def test_nonexpansive(self, z1, z2):
        f = lambda z: penalties.prox_weighted_l1(np.array([z]), 1.3,
                                                 np.array([0.7]), 2.0)[0]
        assert abs(f(z1) - f(z2)) <= abs(z1 - z2) + 1e-12

    def test_rho_must_be_positive(self):
        with pytest.raises(InvalidInput, match="rho"):
            penalties.prox_weighted_l1(np.ones(2), 1.0, None, 0.0)

    @pytest.mark.parametrize("gamma,rho,field", BAD_GAMMA_OR_RHO)
    def test_rejects_a_bad_gamma_or_rho(self, gamma, rho, field):
        # a negative gamma would widen instead of shrink, a NaN one or a
        # NaN rho would give NaN, an infinite rho would return Z
        with pytest.raises(InvalidInput, match=field):
            penalties.prox_weighted_l1(np.array([[1.0, -2.0]]), gamma, None,
                                       rho)


class TestPiecewiseQuadraticProx:
    PQ = (2.0, 1.5, -0.8, 1.2)

    @pytest.mark.parametrize("z", [-4.0, -1.1, -0.3, 0.0, 0.4, 0.96, 2.5])
    @pytest.mark.parametrize("rho", [0.5, 1.0, 3.0])
    def test_matches_grid_oracle(self, z, rho):
        gamma, w = 1.7, 0.9
        pen = lambda x: gamma * w * penalties.pq_scalar_value(x, self.PQ)
        expected = grid_prox(z, rho, pen)
        got = penalties.prox_piecewise_quadratic(np.array([z]), gamma,
                                                 np.array([w]), self.PQ,
                                                 rho)[0]
        assert abs(got - expected) < 1e-4

    def test_dead_band_edges(self):
        a1, a2, b1, b2 = self.PQ
        gamma, w, rho = 2.0, 1.0, 4.0
        lo_edge = gamma * w * b1 / rho
        hi_edge = gamma * w * b2 / rho
        Z = np.array([lo_edge, hi_edge, 0.5 * (lo_edge + hi_edge),
                      lo_edge - 1e-9, hi_edge + 1e-9])
        out = penalties.prox_piecewise_quadratic(Z, gamma, np.array([w]),
                                                 self.PQ, rho)
        np.testing.assert_allclose(out[:3], 0.0, atol=1e-15)
        assert out[3] < 0 < out[4]

    def test_sign_preserved_and_shrunk(self):
        Z = np.array([-5.0, -0.01, 0.02, 7.0])
        out = penalties.prox_piecewise_quadratic(Z, 1.0, None, self.PQ, 1.0)
        assert np.all(np.abs(out) <= np.abs(Z))
        nz = out != 0
        assert np.all(np.sign(out[nz]) == np.sign(Z[nz]))

    @given(st.floats(-30, 30), st.floats(-30, 30))
    @settings(max_examples=60, deadline=None)
    def test_nonexpansive(self, z1, z2):
        f = lambda z: penalties.prox_piecewise_quadratic(
            np.array([z]), 1.0, None, self.PQ, 2.0)[0]
        assert abs(f(z1) - f(z2)) <= abs(z1 - z2) + 1e-12

    def test_parameter_validation(self):
        with pytest.raises(InvalidInput, match="pq_params"):
            penalties.prox_piecewise_quadratic(np.ones(1), 1.0, None,
                                               (0.0, 1.0, -1.0, 1.0), 1.0)
        with pytest.raises(InvalidInput, match="pq_params"):
            penalties.prox_piecewise_quadratic(np.ones(1), 1.0, None,
                                               (1.0, 1.0, 0.5, 1.0), 1.0)
        with pytest.raises(InvalidInput, match="rho"):
            penalties.prox_piecewise_quadratic(np.ones(1), 1.0, None,
                                               self.PQ, -1.0)

    @pytest.mark.parametrize("gamma,rho,field", BAD_GAMMA_OR_RHO)
    def test_rejects_a_bad_gamma_or_rho(self, gamma, rho, field):
        with pytest.raises(InvalidInput, match=field):
            penalties.prox_piecewise_quadratic(np.array([[1.0, -2.0]]),
                                               gamma, None, self.PQ, rho)


class TestExpWeights:
    """The exponential surrogate's weights, l0.surrogate_weights."""

    def test_value_and_monotonicity(self):
        x = np.array([0.0, 0.5, 1.0, 4.0])
        w = l0.surrogate_weights(x, 0.5)
        np.testing.assert_allclose(w, np.exp(-x / 0.5) / 0.5)
        assert np.all(np.diff(w) < 0)

    def test_underflow_floor(self):
        w = l0.surrogate_weights(np.array([1e6]), 1e-3)
        assert w[0] == np.finfo(float).tiny

    def test_rejects_bad_input(self):
        with pytest.raises(InvalidInput, match="sigma"):
            l0.surrogate_weights(np.ones(1), 0.0)

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf"), "1", True])
    def test_rejects_a_sigma_that_is_not_finite_and_positive(self, sigma):
        # NaN gave NaN weights, inf the floor everywhere, True weights
        # at sigma = 1
        with pytest.raises(InvalidInput, match="sigma"):
            l0.surrogate_weights(np.ones(1), sigma)


class TestPenaltyConfig:
    """The checks of the Penalty constructor."""

    def test_unknown_kind(self):
        for kind in ("l2", "weighted_l1", "l0"):
            with pytest.raises(ValueError):
                penalties.Penalty(kind, 1.0)

    def test_negative_gamma(self):
        with pytest.raises(ValueError):
            penalties.Penalty("l1", -0.1)

    def test_nonpositive_weights(self):
        with pytest.raises(ValueError):
            penalties.Penalty("l1", 1.0, weights=np.array([1.0, 0.0]))

    def test_pq_params_checked(self):
        with pytest.raises(InvalidInput, match="pq_params"):
            penalties.Penalty("pq", 1.0, pq_params=(1.0, -1.0, -1.0, 1.0))

    def test_strong_convexity_modulus(self):
        pen = penalties.Penalty("pq", 2.0, weights=np.array([0.5, 3.0]),
                                pq_params=(2.0, 0.8, -1.0, 1.0))
        assert pen.mu_g == pytest.approx(2.0 * 0.5 * 0.8)
        assert penalties.Penalty("l1", 2.0).mu_g == 0.0

    def test_exp_sigma_checked(self):
        with pytest.raises(InvalidInput, match="sigma"):
            l0.surrogate_weights(np.ones(1), -2.0)

    @pytest.mark.parametrize("make", [outer.regime_l1, outer.regime_pq])
    @pytest.mark.parametrize("gamma", [np.nan, np.inf, -np.inf, -1e-12])
    def test_rejects_bad_gamma(self, make, gamma):
        with pytest.raises(ValueError, match="gamma"):
            make(gamma)

    @pytest.mark.parametrize("kind", ["l1", "pq"])
    @pytest.mark.parametrize("gamma", ["1", True, np.True_, None, [1.0]])
    def test_gamma_must_be_a_number(self, kind, gamma):
        # a bool or a string is not a number, though float() takes both
        with pytest.raises(InvalidInput, match="gamma"):
            penalties.Penalty(kind, gamma)

    @pytest.mark.parametrize("params", [
        (1.0, 1.0, -1.0), (1.0, 1.0, -1.0, 1.0, 2.0), (1.0, np.inf, -1.0, 1.0),
        (np.nan, 1.0, -1.0, 1.0), (1.0, "1", -1.0, 1.0),
        (True, 1.0, -1.0, 1.0), None, "abcd"])
    def test_pq_params_must_be_four_finite_numbers(self, params):
        # three entries would not unpack; a2 = inf gave a NaN prox at
        # gamma = 0 and an infinite value at gamma = 1
        with pytest.raises(InvalidInput, match="pq_params"):
            penalties.Penalty("pq", 1.0, pq_params=params)
        with pytest.raises(InvalidInput, match="pq_params"):
            penalties.prox_piecewise_quadratic(np.ones(1), 1.0, None,
                                               params, 1.0)

    @pytest.mark.parametrize("make", [outer.regime_l1, outer.regime_pq])
    @pytest.mark.parametrize("bad", [np.nan, 0.0, -1.0, np.inf])
    def test_rejects_bad_weights(self, make, bad):
        weights = np.ones((2, 3))
        weights[1, 2] = bad
        with pytest.raises(ValueError, match="weights"):
            make(1.0, weights=weights)

    def test_fields_hold_plain_floats(self):
        pen = penalties.Penalty("pq", np.float64(2), weights=[[1, 2]],
                                pq_params=np.array([1, 2, -1, 1]))
        assert type(pen.gamma) is float
        assert pen.weights.dtype == float
        assert pen.pq_params == (1.0, 2.0, -1.0, 1.0)
        assert all(type(a) is float for a in pen.pq_params)


class TestPenaltyValue:
    P = np.array([[0.0, -2.0], [3.0, 0.0]])

    def test_weighted_l1(self):
        pen = penalties.Penalty("l1", 2.0, weights=np.array([[1.0, 0.5],
                                                              [2.0, 1.0]]))
        assert pen.value(self.P) == pytest.approx(2.0 * (0.5 * 2.0 + 2.0 * 3.0))

    def test_piecewise_quadratic(self):
        pen = penalties.Penalty("pq", 1.0, pq_params=(2.0, 1.0, -1.5, 1.0))
        by_hand = (0.5 * 2.0 * 4.0 + (-1.5) * (-2.0)) \
            + (0.5 * 1.0 * 9.0 + 1.0 * 3.0)
        assert pen.value(self.P) == pytest.approx(by_hand)

    def test_exp_surrogate_counts_in_the_limit(self):
        # h_sigma = <R, W> + gamma * (number of nonzeros) as sigma -> 0
        plant, W, _ = feasible_instance(np.random.default_rng(0), 2, 2)
        lifted = model.lift_plant(model.validate_plant(plant))
        P = W[2:, :2]
        sol = analysis.build_solution(lifted, W.reshape(-1, order="F"),
                                      P.reshape(-1, order="F"), [],
                                      "converged", "l1", 3.0, 0.0)
        h = l0.h_sigma_objective(sol, gamma=3.0, sigma=1e-9)
        assert h - sol.J_upper == pytest.approx(3.0 * np.count_nonzero(P))


class TestSubdifferential:
    P = np.array([[0.0, -2.0, 0.5]])

    def test_weighted_l1(self):
        w = np.array([[1.0, 2.0, 0.5]])
        lo, hi = penalties.Penalty("l1", 3.0, weights=w).subdifferential(self.P)
        np.testing.assert_allclose(lo, [[-3.0, -6.0, 1.5]])
        np.testing.assert_allclose(hi, [[3.0, -6.0, 1.5]])

    def test_piecewise_quadratic_matches_the_prox(self):
        # Z lies in P + (1/rho) dh(P) exactly when P = prox(Z, rho)
        pen = penalties.Penalty("pq", 1.7, weights=np.array([[0.9, 1.3, 2.0]]),
                                pq_params=(2.0, 1.5, -0.8, 1.2))
        rho = 3.0
        for Z in (np.array([[-4.0, 0.1, 2.5]]), np.array([[0.3, -1.1, 0.0]])):
            P = pen.prox(Z, rho)
            lo, hi = pen.subdifferential(P)
            g = rho * (Z - P)
            assert np.all(lo - 1e-12 <= g) and np.all(g <= hi + 1e-12)
