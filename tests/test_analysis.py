import numpy as np
import pytest

from sparselq import analysis, model
from sparselq.errors import InvalidInput, NotHurwitz, SingularW1

from conftest import K0NotStabilizing, ex1_matrices, lift, riccati_oracle


def scalar_plant(a=1.0, b2=1.0, b1=1.0):
    # dx = a x + b2 u + b1 w, cost x^2 + u^2
    return model.PlantData(A=[[a]], B2=[[b2]], B1=[[b1]],
                           C=[[1.0], [0.0]], D=[[0.0], [1.0]])


class TestLyapunov:
    def test_residual_tolerance(self):
        rng = np.random.default_rng(0)
        G = rng.standard_normal((6, 6))
        A_cl = G - (abs(np.linalg.eigvals(G).real).max() + 1.0) * np.eye(6)
        Q = np.eye(6)
        W = analysis.solve_lyapunov(A_cl, Q)
        res = A_cl @ W + W @ A_cl.T + Q
        assert np.linalg.norm(res) <= 1e-10 * max(1.0, np.linalg.norm(Q))
        np.testing.assert_allclose(W, W.T)

    def test_scalar_closed_form(self):
        # a w + w a + q = 0 -> w = -q / (2a)
        W = analysis.solve_lyapunov(np.array([[-2.0]]), np.array([[4.0]]))
        assert W[0, 0] == pytest.approx(1.0)

    def test_rejects_unstable(self):
        with pytest.raises(NotHurwitz):
            analysis.solve_lyapunov(np.array([[0.1]]), np.eye(1))

    def test_singular_operator_is_an_arithmetic_error(self, monkeypatch):
        # a Hurwitz A_cl with an eigenvalue near zero (-1.8e-18 in one
        # closed loop of ex1 with every A entry 1e-300) leaves the
        # Kronecker operator singular in floating point; printed decimals
        # of that A_cl do not reproduce it, so the solve is patched
        def singular(a, b):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
        with pytest.raises(ArithmeticError, match="Singular matrix"):
            analysis.solve_lyapunov(-np.eye(2), np.eye(2))

    def test_rejects_oversize(self):
        with pytest.raises(InvalidInput, match="order 201"):
            analysis.solve_lyapunov(-np.eye(201), np.eye(201))

    def test_size_bound(self):
        n = analysis.MAX_LYAPUNOV_ORDER
        assert n == 40
        with pytest.raises(InvalidInput, match=f"order {n + 1}"):
            analysis.solve_lyapunov(-np.eye(n + 1), np.eye(n + 1))
        rng = np.random.default_rng(40)
        A_cl = rng.standard_normal((n, n)) - 10.0 * np.eye(n)
        W = analysis.solve_lyapunov(A_cl, np.eye(n))
        assert (np.linalg.norm(A_cl @ W + W @ A_cl.T + np.eye(n))
                <= 1e-10 * np.sqrt(n))

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_scipy(self, seed):
        import scipy.linalg as sla
        rng = np.random.default_rng(seed)
        n = 2 + seed
        G = rng.standard_normal((n, n))
        # a shifted random matrix, and a far from normal one: eigenvalues
        # -1, ..., -n under a large upper triangle, in a rotated basis
        shifted = G - (abs(np.linalg.eigvals(G).real).max() + 0.5) * np.eye(n)
        U, _ = np.linalg.qr(rng.standard_normal((n, n)))
        T = -np.diag(np.arange(1.0, n + 1)) + np.triu(
            3.0 * rng.standard_normal((n, n)), 1)
        for A_cl in (shifted, U @ T @ U.T):
            assert np.linalg.eigvals(A_cl).real.max() < 0
            H = rng.standard_normal((n, n))
            Q = H @ H.T
            W = analysis.solve_lyapunov(A_cl, Q)
            W_ref = sla.solve_continuous_lyapunov(A_cl, -Q)
            np.testing.assert_allclose(W, W_ref, rtol=1e-8,
                                       atol=1e-10 * np.linalg.norm(W_ref))


    def test_far_from_normal_matrices_do_not_raise(self):
        # 200 rotated upper-triangular Hurwitz matrices, eigenvalues
        # -1, ..., -n under a strict upper triangle of 30 N(0, 1): W is
        # large, the residual scaled by Q alone is not small, yet every
        # backward error is at rounding level
        import scipy.linalg as sla
        rng = np.random.default_rng(0)
        for k in range(200):
            n = 2 + k % 7
            U, _ = np.linalg.qr(rng.standard_normal((n, n)))
            T = -np.diag(np.arange(1.0, n + 1)) + np.triu(
                30.0 * rng.standard_normal((n, n)), 1)
            A_cl = U @ T @ U.T
            H = rng.standard_normal((n, n))
            Q = H @ H.T
            W = analysis.solve_lyapunov(A_cl, Q)
            W_ref = sla.solve_continuous_lyapunov(A_cl, -Q)
            res = A_cl @ W + W @ A_cl.T + Q
            scale = (np.linalg.norm(A_cl) * np.linalg.norm(W)
                     + np.linalg.norm(Q))
            assert np.linalg.norm(res) <= 1e-14 * scale
            # forward error within what the conditioning allows
            op = np.kron(np.eye(n), A_cl) + np.kron(A_cl, np.eye(n))
            assert (np.linalg.norm(W - W_ref) <= 1e-14 * np.linalg.cond(op)
                    * np.linalg.norm(W_ref))


class TestH2Cost:
    def test_scalar_hand_value(self):
        # A_cl = -2, B1 = 1: Wc = 1/4; C - D K = [1; -k]^T columns ->
        # J = (1 + k^2) Wc with k = 1.  Plant: a=-1, b2=1, K=1 => A_cl=-2.
        plant = scalar_plant(a=-1.0)
        J = analysis.h2_cost(plant, np.array([[1.0]]))
        assert J.shape == (1,)
        assert J[0] == pytest.approx((1.0 + 1.0) * 0.25)

    def test_unstable_vertex_is_inf(self):
        plant = scalar_plant(a=1.0)
        J = analysis.h2_cost(plant, np.array([[0.5]]))  # A_cl = +0.5
        assert np.isinf(J[0])

    def test_one_entry_per_vertex(self):
        A = np.array([[-1.0]])
        B2 = np.array([[1.0]])
        plant = model.PlantData(A=A, B2=B2, B1=[[1.0]],
                                C=[[1.0], [0.0]], D=[[0.0], [1.0]],
                                vertices=((A, B2), (A - 1.0, B2)))
        J = analysis.h2_cost(plant, np.array([[0.0]]))
        assert J.shape == (2,)
        assert J[0] == pytest.approx(0.5)      # Wc = 1/2 at A_cl = -1
        assert J[1] == pytest.approx(0.25)     # Wc = 1/4 at A_cl = -2


class TestSparsityReport:
    def test_relative_threshold(self):
        K = np.array([[100.0, 1e-5], [0.0, -3.0]])
        pattern, zeros = analysis.sparsity_report(K)
        np.testing.assert_array_equal(pattern, [[1, 0], [0, 1]])
        assert zeros == 2

    def test_small_matrix_absolute_floor(self):
        pattern, zeros = analysis.sparsity_report(np.array([[1e-8, 0.1]]))
        np.testing.assert_array_equal(pattern, [[0, 1]])
        assert zeros == 1


class TestRiccatiOracle:
    def test_scalar_closed_form(self):
        # a=1, b=1, q=r=1: P solves 2aP - P^2 b^2/r + q = 0
        # -> P = (2 + sqrt(4 + 4)) / 2 = 1 + sqrt(2), K = P, J = P.
        plant = scalar_plant(a=1.0)
        K, J = riccati_oracle(plant, np.array([[2.0]]))
        assert J == pytest.approx(1.0 + np.sqrt(2.0), abs=1e-8)
        assert K[0, 0] == pytest.approx(1.0 + np.sqrt(2.0), abs=1e-8)

    def test_matches_scipy_care(self):
        import scipy.linalg as sla
        rng = np.random.default_rng(5)
        A = rng.standard_normal((3, 3))
        B2 = rng.standard_normal((3, 2))
        plant = model.PlantData(
            A=A, B2=B2, B1=np.eye(3),
            C=np.vstack([np.eye(3), np.zeros((2, 3))]),
            D=np.vstack([np.zeros((3, 2)), np.eye(2)]))
        P_ref = sla.solve_continuous_are(A, B2, np.eye(3), np.eye(2))
        K_ref = B2.T @ P_ref
        K0 = K_ref + 0.01 * rng.standard_normal(K_ref.shape)
        K, J = riccati_oracle(plant, K0)
        np.testing.assert_allclose(K, K_ref, atol=1e-8)
        assert J == pytest.approx(np.trace(P_ref), rel=1e-10)

    def test_rejects_destabilizing_start(self):
        plant = scalar_plant(a=1.0)
        with pytest.raises(K0NotStabilizing):
            riccati_oracle(plant, np.array([[0.5]]))


class TestSimulateImpulse:
    def test_matches_matrix_exponential(self):
        plant = scalar_plant(a=-0.7)
        t, X = analysis.simulate_impulse(plant, np.array([[0.0]]),
                                         horizon=2.0, dt=1e-3)
        assert X.shape == (1, t.size, 1)
        np.testing.assert_allclose(X[0, :, 0], np.exp(-0.7 * t),
                                   atol=1e-8)

    def test_matches_stepwise_rk4(self):
        # the one-matrix step against the four stages of classical RK4,
        # stepped channel by channel
        A, B2, B1, C, D = ex1_matrices()
        plant = model.PlantData(A=A, B2=B2, B1=B1, C=C, D=D)
        K = np.array([[1.0, 0.5, 0.0], [0.0, 0.3, 2.0]])
        dt = 0.05
        t, X = analysis.simulate_impulse(plant, K, horizon=5.0, dt=dt)
        A_cl = A - B2 @ K
        for j in range(B1.shape[1]):
            x = B1[:, j]
            for s in range(t.size):
                np.testing.assert_allclose(X[j, s], x, rtol=0, atol=1e-12)
                k1 = A_cl @ x
                k2 = A_cl @ (x + 0.5 * dt * k1)
                k3 = A_cl @ (x + 0.5 * dt * k2)
                k4 = A_cl @ (x + dt * k3)
                x = x + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)

    def test_channel_initial_conditions(self):
        A, B2, B1, C, D = ex1_matrices()
        plant = model.PlantData(A=A, B2=B2, B1=B1, C=C, D=D)
        K = np.zeros((2, 3))
        t, X = analysis.simulate_impulse(plant, K, horizon=0.1, dt=0.05)
        assert X.shape == (3, 3, 3)
        for j in range(3):
            np.testing.assert_array_equal(X[j, 0], B1[:, j])

    def test_rejects_bad_dt(self):
        with pytest.raises(ValueError):
            analysis.simulate_impulse(scalar_plant(), np.zeros((1, 1)),
                                      horizon=1.0, dt=0.0)

    @pytest.mark.parametrize("horizon,needle", [
        (np.inf, "finite horizon"),
        (analysis.MAX_SAMPLES * 0.01, "above the limit")])
    def test_rejects_an_oversized_horizon(self, horizon, needle):
        # MAX_SAMPLES * dt is one sample past the limit
        with pytest.raises(InvalidInput, match=needle):
            analysis.simulate_impulse(scalar_plant(), np.zeros((1, 1)),
                                      horizon=horizon, dt=0.01)


class TestFeasibilityReport:
    def test_feasible_construction(self):
        rng = np.random.default_rng(7)
        from conftest import feasible_instance
        plant, W, K = feasible_instance(rng, 3, 2)
        lifted = model.lift_plant(model.validate_plant(plant))
        P = W[3:, :3]
        rep = analysis.feasibility_report(lifted, W, P, tol=1e-8)
        assert rep["feasible"]
        assert rep["min_eig_W"] >= -1e-10
        assert rep["min_eig_psi"] > 0
        assert rep["max_offdiag_W1"] == 0.0
        assert rep["gain_coupling_gap"] == 0.0

    def test_detects_violations(self):
        lifted = lift(ex1_matrices(), forced_zeros=((0, 0),))
        W = np.eye(5)
        W[0, 1] = W[1, 0] = 0.5        # off-diagonal W1
        P = np.ones((2, 3))            # coupling gap and forced zero
        rep = analysis.feasibility_report(lifted, W, P, tol=1e-6)
        assert not rep["feasible"]
        assert rep["max_offdiag_W1"] == pytest.approx(0.5)
        assert rep["gain_coupling_gap"] == pytest.approx(1.0)
        assert rep["max_forced_zero"] == pytest.approx(1.0)


class TestBuildSolution:
    def _inputs(self, lifted, K, W1_diag):
        n, m = lifted.n, lifted.m
        W1 = np.diag(W1_diag)
        W2t = K @ W1
        W = np.block([[W1, W2t.T], [W2t, K @ W1 @ K.T + np.eye(m)]])
        W_vec = W.reshape(-1, order="F")
        P_vec = W2t.reshape(-1, order="F")
        return W_vec, P_vec

    def test_gain_recovery_and_certificate(self):
        rng = np.random.default_rng(11)
        from conftest import feasible_instance
        plant, W, K = feasible_instance(rng, 3, 2)
        lifted = model.lift_plant(model.validate_plant(plant))
        W_vec = W.reshape(-1, order="F")
        P_vec = W[3:, :3].reshape(-1, order="F")
        sol = analysis.build_solution(lifted, W_vec, P_vec, trace=[],
                                      status="converged", regime="l1",
                                      gamma=1.0, dual_res=0.0)
        np.testing.assert_allclose(sol.K, K, atol=1e-10)
        assert sol.certified
        assert np.all(sol.stable < 0)
        assert sol.J_upper >= np.max(sol.J_vertex) - 1e-9
        # exact zeros in P give exact zeros in K
        np.testing.assert_array_equal(sol.K == 0.0, K == 0.0)

    def test_not_certified_when_not_converged(self):
        rng = np.random.default_rng(12)
        from conftest import feasible_instance
        plant, W, K = feasible_instance(rng, 2, 1)
        lifted = model.lift_plant(model.validate_plant(plant))
        sol = analysis.build_solution(
            lifted, W.reshape(-1, order="F"),
            W[2:, :2].reshape(-1, order="F"), trace=[],
            status="max_iterations", regime="l1", gamma=1.0,
            dual_res=1.0)
        assert not sol.certified

    def test_singular_diagonal(self):
        lifted = lift(ex1_matrices())
        W = np.eye(5)
        W[0, 0] = 0.0
        P = np.zeros((2, 3))
        P[0, 0] = 1.0
        with pytest.raises(SingularW1):
            analysis.build_solution(lifted, W.reshape(-1, order="F"),
                                    P.reshape(-1, order="F"), trace=[],
                                    status="converged", regime="l1",
                                    gamma=1.0, dual_res=0.0)


class TestCertify:
    def _feasible(self, seed=11):
        from conftest import feasible_instance
        plant, W, K = feasible_instance(np.random.default_rng(seed), 3, 2)
        return model.lift_plant(model.validate_plant(plant)), W, W[3:, :3]

    def test_derives_the_primal_residual(self):
        lifted, W, P = self._feasible()
        cert = analysis.certify(lifted, W, P, "converged")
        assert cert["certified"]
        assert cert["primal_res"] == pytest.approx(0.0, abs=1e-12)
        P_off = P + 1e-4
        cert = analysis.certify(lifted, W, P_off, "converged")
        assert cert["primal_res"] == pytest.approx(1e-4 * np.sqrt(P.size))
        assert cert["tol"] == pytest.approx(5.0 * cert["primal_res"])

    def test_primal_residual_sets_the_tolerance_up_to_the_ceiling(self):
        lifted, W, P = self._feasible()
        # every entry of P moved by d / sqrt(P.size) gives primal_res = d
        tol = [analysis.certify(lifted, W, P + d / np.sqrt(P.size),
                                "converged")["tol"] for d in (0.0, 1e-3, 1e6)]
        assert tol == [1e-4, pytest.approx(5e-3), analysis.TOL_CEILING]
        W_bad = W.copy()
        W_bad[0, 1] = W_bad[1, 0] = 0.5
        cert = analysis.certify(lifted, W_bad, P + 1e6, "converged")
        assert cert["tol"] == analysis.TOL_CEILING
        assert not cert["conditions"]["feasible"] and not cert["certified"]
        # a non-finite residual keeps the floor
        assert analysis.certify(lifted, W, P + np.inf,
                                "converged")["tol"] == 1e-4

    def test_zero_W1_diagonal_certifies_nothing(self):
        lifted, W, P = self._feasible()
        W = W.copy()
        W[0, 0] = 0.0
        cert = analysis.certify(lifted, W, P, "converged")
        assert not np.all(np.isfinite(cert["K"]))
        assert np.all(np.isinf(cert["stable"]))
        assert np.all(np.isinf(cert["J_vertex"]))
        assert not cert["conditions"]["margins"] and not cert["certified"]

    def test_singular_lyapunov_operator_certifies_nothing(self,
                                                          monkeypatch):
        lifted, W, P = self._feasible()
        assert analysis.certify(lifted, W, P, "converged")["certified"]

        def singular(a, b):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
        cert = analysis.certify(lifted, W, P, "converged")
        assert np.all(np.isinf(cert["J_vertex"]))
        assert not cert["conditions"]["cost_bound"] and not cert["certified"]

    def test_status_gates_certified(self):
        lifted, W, P = self._feasible()
        cert = analysis.certify(lifted, W, P, "max_iter")
        assert all(cert["conditions"].values()) and not cert["certified"]

    def test_agrees_compares_on_the_scale_of_W(self):
        lifted, W, P = self._feasible()
        cert = analysis.certify(lifted, W, P, "converged")
        res = cert["primal_res"]
        scale = np.linalg.norm(W)
        # a residual at rounding level may move by rounding of ||W||
        assert analysis.agrees(cert, "primal_res", res + 1e-12 * scale)
        assert not analysis.agrees(cert, "primal_res", res + 1e-6 * scale)
        # the gain is compared relative to itself
        assert not analysis.agrees(cert, "K", cert["K"] * (1.0 + 1e-6))

    def test_a_stored_string_never_agrees(self):
        lifted, W, P = self._feasible()
        cert = analysis.certify(lifted, W, P, "converged")
        for name in ("J_upper", "n_zeros", "primal_res"):
            assert analysis.agrees(cert, name, cert[name])
            assert not analysis.agrees(cert, name, str(cert[name]))
        K = cert["K"].tolist()
        K[0][0] = str(K[0][0])
        assert not analysis.agrees(cert, "K", K)

    def test_agrees_matches_inf_with_inf(self):
        lifted, W, P = self._feasible()
        cert = analysis.certify(lifted, W, P, "converged")
        costs = cert["J_vertex"].copy()
        costs[0] = np.inf
        cert["J_vertex"] = costs
        assert analysis.agrees(cert, "J_vertex", costs.tolist())
        assert not analysis.agrees(cert, "J_vertex", np.ones_like(costs))
        assert not analysis.agrees(cert, "J_vertex", [np.nan] * costs.size)
