"""Shared fixtures: the three demo plants, random instance builders, and
the acceptance report hook that prints one line per criterion at the end
of the run."""

import importlib.util
import os
import pathlib
import sys

import numpy as np
import pytest

from sparselq import analysis, model, outer, vectorize
from sparselq.errors import EigFailure, SparseLQError


BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


def _load_bench(name):
    spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_workloads():
    """bench/workloads.py, loaded by path; bench/ is not changed.  It
    imports its checker as the top-level module "check", which is
    registered only while it loads."""
    saved = sys.modules.get("check")
    sys.modules["check"] = _load_bench("check")
    try:
        return _load_bench("workloads")
    finally:
        if saved is None:
            del sys.modules["check"]
        else:
            sys.modules["check"] = saved


def source_env():
    """The environment with the imported sparselq's source tree first on
    PYTHONPATH, for running the package in a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(model.__file__))
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ,
                PYTHONPATH=src if not path else src + os.pathsep + path)


def ex1_matrices():
    A = np.array([[0.2220, 0.9186, 0.7659],
                  [0.8707, 0.4884, 0.5184],
                  [0.2067, 0.6117, 0.2968]])
    B2 = np.array([[0.9315, 0.7939],
                   [0.9722, 0.1061],
                   [0.5317, 0.7750]])
    B1 = np.eye(3)
    C = np.zeros((3, 3)); C[0, 0] = 1.0
    D = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    return A, B2, B1, C, D


def ex2_matrices():
    A = np.array([[0.3079, 0.1879, 0.1797, 0.2935, 0.6537],
                  [0.5194, 0.2695, 0.5388, 0.9624, 0.5366],
                  [0.7683, 0.4962, 0.2828, 0.9132, 0.9957],
                  [0.7892, 0.7391, 0.7609, 0.5682, 0.1420],
                  [0.8706, 0.1950, 0.2697, 0.4855, 0.9753]])
    B2 = np.array([[0.6196, 0.6414],
                   [0.7205, 0.9233],
                   [0.2951, 0.8887],
                   [0.6001, 0.6447],
                   [0.7506, 0.2956]])
    B1 = np.eye(5)
    C = np.zeros((5, 5)); C[0, 0] = 1.0; C[1, 1] = 1.0
    D = np.zeros((5, 2)); D[2, 0] = 1.0; D[3, 1] = 1.0
    return A, B2, B1, C, D


def ex3_matrices():
    A = np.array([[0.0, 1.0, 0.0],
                  [0.0, 0.0, 1.0],
                  [0.0, 0.0, 0.0]])
    _, B2, B1, C, D = ex1_matrices()
    return A, B2, B1, C, D


def lift(mats, forced_zeros=()):
    plant = model.validate_plant(model.PlantData(*mats))
    return model.lift_plant(plant, forced_zeros=forced_zeros)


@pytest.fixture(scope="session")
def ex1_lifted():
    return lift(ex1_matrices())


@pytest.fixture(scope="session")
def ex2_lifted():
    return lift(ex2_matrices())


@pytest.fixture(scope="session")
def ex3_lifted():
    return lift(ex3_matrices())


def ladder_lift():
    """A fresh lift of the two-vertex plant of the ladder workload (3
    states, 2 inputs)."""
    workloads = load_workloads()
    p = workloads.seeded_plant(workloads.Ladder.plant_seed)
    return model.lift_plant(model.validate_plant(model.PlantData(
        A=p["A"], B2=p["B2"], B1=p["B1"], C=p["C"], D=p["D"],
        vertices=p["vertices"])))


@pytest.fixture(scope="session")
def ladder_lifted():
    """ladder_lift(), shared by the session."""
    return ladder_lift()


@pytest.fixture()
def certify_calls_and_stops(monkeypatch):
    """Lists that grow by one per analysis.certify call (by its status)
    and per stop check whose residual test passed."""
    calls, stops = [], []
    certify, check = analysis.certify, outer.check_convergence

    def counting_certify(*args, **kwargs):
        calls.append(args[3])
        return certify(*args, **kwargs)

    def counting_check(*args, **kwargs):
        out = check(*args, **kwargs)
        if out[0]:
            stops.append(None)
        return out

    monkeypatch.setattr(analysis, "certify", counting_certify)
    monkeypatch.setattr(outer, "check_convergence", counting_check)
    return calls, stops


def random_plant(rng, n, m, n_vertices=1, spread=0.0):
    """Random plant with C = [I; 0], D = [0; I] (unit quadratic weights).

    With n_vertices > 1, vertex matrices are perturbations of (A, B2)
    scaled by spread.
    """
    A = rng.standard_normal((n, n))
    B2 = rng.standard_normal((n, m))
    B1 = np.eye(n)
    C = np.vstack([np.eye(n), np.zeros((m, n))])
    D = np.vstack([np.zeros((n, m)), np.eye(m)])
    vertices = None
    if n_vertices > 1:
        vertices = [(A + spread * rng.standard_normal((n, n)),
                     B2 + spread * rng.standard_normal((n, m)))
                    for _ in range(n_vertices)]
    return model.PlantData(A=A, B2=B2, B1=B1, C=C, D=D, vertices=vertices)


def feasible_instance(rng, n, m):
    """A plant plus a feasible lifted point built by construction.

    Pick a diagonal Hurwitz closed loop A_cl = -diag(d), a gain K, and a
    diagonal W1 large enough that A_cl W1 + W1 A_cl^T + B1 B1^T <= 0,
    then set A = A_cl + B2 K.  The parameter matrix
    W = [[W1, W1 K^T], [K W1, K W1 K^T + I]] is then feasible for the
    lifted problem of (A, B2).
    """
    d = 0.3 + rng.random(n) * 2.0
    B2 = rng.standard_normal((n, m))
    K = rng.standard_normal((m, n))
    K[rng.random((m, n)) < 0.3] = 0.0
    A_cl = -np.diag(d)
    A = A_cl + B2 @ K
    B1 = np.eye(n)
    # diagonal solves of -2 d_i w_i + slack = -(B1 B1^T)_ii; inflate so the
    # full matrix inequality holds, not just the diagonal
    w1 = (np.linalg.norm(B1, 2) ** 2 / (2.0 * d)) * (1.0 + rng.random(n))
    W1 = np.diag(w1 * n)
    W2t = K @ W1
    W3 = K @ W1 @ K.T + np.eye(m)
    W = np.block([[W1, W2t.T], [W2t, W3]])
    C = np.vstack([np.eye(n), np.zeros((m, n))])
    D = np.vstack([np.zeros((n, m)), np.eye(m)])
    plant = model.PlantData(A=A, B2=B2, B1=B1, C=C, D=D)
    return plant, W, K


def make_inner_instance(rng, n=2, m=1):
    """A lifted problem plus random subproblem data with Slater's condition.

    The plant comes from feasible_instance, so a strictly feasible
    parameter matrix exists and the subproblem dual attains its optimum.
    """
    from sparselq import model as _model
    plant, _, _ = feasible_instance(rng, n, m)
    lifted = _model.lift_plant(_model.validate_plant(plant))
    p = lifted.p
    G = rng.standard_normal((p, p))
    d_k = (0.5 * (G + G.T)).reshape(-1, order="F")
    w_k = rng.standard_normal(m * n)
    S = rng.standard_normal((p, p))
    v_tilde = (0.5 * (S + S.T)).reshape(-1, order="F")
    alpha, theta, eta_f = 0.5, 0.7, 1.3
    return lifted, d_k, w_k, v_tilde, alpha, theta, eta_f


def dense_equality_operator(n, m):
    """Dense A and B of the equality operator of an n-state, m-input
    lift, built from its documented row layout: vec of the bottom-left
    block, and B = -I."""
    p = n + m
    cols = [(n + i) + j * p for j in range(n) for i in range(m)]
    A = np.zeros((len(cols), p * p))
    A[np.arange(len(cols)), cols] = 1.0
    return A, -np.eye(m * n)


def dense_duplication(d):
    """Dense isometric duplication map D (d^2 x t), D svec(S) = vec(S),
    built from the documented coordinate order: coordinate r walks (i, j),
    i >= j, column by column, and an off-diagonal coordinate carries
    S[i, j] times sqrt(2)."""
    pairs = [(i, j) for j in range(d) for i in range(j, d)]
    D = np.zeros((d * d, len(pairs)))
    for r, (i, j) in enumerate(pairs):
        D[i + j * d, r] = D[j + i * d, r] = 1.0 if i == j else 1 / np.sqrt(2.0)
    return D


def pg_dual_oracle(lifted, data, max_steps=10 ** 6, move_tol=1e-13):
    """Projected-gradient reference solver for the inner dual problem.

    Stacks every PSD block into one variable, takes fixed gradient steps
    of length 1 / (largest eigenvalue of the full quadratic curvature),
    and projects blockwise.  Deliberately shares nothing with the sweep
    solver beyond the problem data: no per-block curvature, no
    Gauss-Seidel ordering, no running linear term.  Stops early once the
    iterate is stationary to machine precision, which is equivalent to
    exhausting the step budget.
    """
    from sparselq import inner as _inner
    sp, sn = lifted.svec_p, lifted.svec_n

    def project_block(v, maps):
        return vectorize.svec(project_psd(vectorize.unsvec(v, maps)), maps)

    nv = len(lifted.J_list)
    T = np.hstack([-np.eye(sp.size)] + [J.T for J in lifted.J_list])
    H = T.T @ (data.minv[:, None] * T)
    L = float(np.linalg.eigvalsh(H)[-1])
    c = np.concatenate([np.zeros(sp.size), *lifted.kappa_q])
    q0 = data.q_k - data.g0
    z = np.zeros(sp.size + nv * sn.size)

    def project(vecz):
        out = np.empty_like(vecz)
        out[:sp.size] = project_block(vecz[:sp.size], sp)
        off = sp.size
        for _ in range(nv):
            out[off:off + sn.size] = project_block(vecz[off:off + sn.size], sn)
            off += sn.size
        return out

    steps = 0
    for steps in range(1, max_steps + 1):
        grad = -(T.T @ (data.minv * (q0 - T @ z))) - c
        z_new = project(z - grad / L)
        moved = np.linalg.norm(z_new - z)
        z = z_new
        if moved <= move_tol * (1.0 + np.linalg.norm(z)):
            break
    state = _inner.zero_state(lifted)
    state.x[:] = z
    return state, steps


def dual_state(lifted, blocks):
    """inner.zero_state(lifted) with its blocks, X0 first, set to blocks."""
    from sparselq import inner
    state = inner.zero_state(lifted)
    for b, x in zip(state.blocks(), blocks, strict=True):
        b[:] = x
    return state


def project_psd(S):
    """Project a symmetric matrix onto the PSD cone (eigenvalue clamp).

    The input is symmetrized first.
    """
    S = 0.5 * (S + S.T)
    try:
        w, V = np.linalg.eigh(S)
    except np.linalg.LinAlgError as exc:
        raise EigFailure(str(exc)) from exc
    P = (V * np.maximum(w, 0.0)) @ V.T
    return 0.5 * (P + P.T)


def min_eigenvalue(S):
    """Smallest eigenvalue of the symmetric part of S."""
    return float(np.linalg.eigvalsh(0.5 * (S + S.T))[0])


def _ell(state, data):
    """L(X) = g0 - x0 + sum_i J_i' x_i of the inner dual problem."""
    x0, *xs = state.blocks()
    out = data.g0 - x0
    for J, x in zip(data.lifted.J_list, xs):
        out = out + x.dot(J)
    return out


def subproblem_terms(lifted, args):
    """(sigma1, sigma2, s_tilde, b_tilde) of the inner subproblem, worked
    out from the inputs args = (d_k, w_k, v_tilde, alpha, theta, eta_f)
    of inner.assemble_dual_data: sigma1 = alpha/(2 theta),
    sigma2 = eta_f/(2 alpha), s_tilde = svec of the symmetric part of
    v_tilde and b_tilde = B w_k, with B dense from its layout."""
    _, w_k, v_tilde, alpha, theta, eta_f = args
    V = v_tilde.reshape(lifted.p, lifted.p, order="F")
    _, B = dense_equality_operator(lifted.n, lifted.m)
    return (alpha / (2.0 * theta), eta_f / (2.0 * alpha),
            vectorize.svec(0.5 * (V + V.T), lifted.svec_p), B @ w_k)


def dual_objective(state, data, args):
    """Value of the inner dual minimization objective Th(X), constants
    included, for data assembled from args."""
    sigma1, sigma2, s_tilde, b_tilde = subproblem_terms(data.lifted, args)
    r = data.q_k - _ell(state, data)
    kx = sum(kq @ x for kq, x in zip(data.lifted.kappa_q,
                                     state.blocks()[1:], strict=True))
    return float(0.5 * r @ (data.minv * r) - kx
                 - sigma1 * (b_tilde @ b_tilde)
                 - sigma2 * (s_tilde @ s_tilde))


def primal_objective(data, s, args):
    """Inner subproblem objective at isometric coordinates s, for data
    assembled from args."""
    lifted = data.lifted
    sigma1, sigma2, s_tilde, b_tilde = subproblem_terms(lifted, args)
    W = vectorize.unsvec(s, lifted.svec_p)
    res = W[lifted.n:, :lifted.n].reshape(-1, order="F") + b_tilde
    diff = s - s_tilde
    return float(data.g0 @ s + sigma1 * (res @ res)
                 + sigma2 * (diff @ diff))


class K0NotStabilizing(SparseLQError):
    """The initial gain handed to the Riccati iteration does not stabilize."""


class NoConvergence(SparseLQError):
    """The Riccati iteration failed to converge within its cap."""


def riccati_oracle(plant, stabilizing_K0, max_iter=50, tol=1e-12):
    """Policy iteration on the quadratic regulator equation.

    Starting from a stabilizing gain, alternates the closed-loop value
    solve with the gain update K = (D^T D)^{-1} B2^T P.  Costs are
    monotonically nonincreasing.  Returns (K_star, J_star) with
    J_star = Tr(P B1 B1^T).  Single-vertex plants only.
    """
    vp = (plant if isinstance(plant, model.ValidatedPlant)
          else model.validate_plant(plant))
    if len(vp.plant.vertices) != 1:
        raise ValueError("oracle handles single-vertex plants only")
    A, B2 = vp.plant.A, vp.plant.B2
    K = np.asarray(stabilizing_K0, dtype=float)
    if analysis.stability_check(A, B2, K) >= 0:
        raise K0NotStabilizing("initial gain is not stabilizing")
    J_prev = np.inf
    for _ in range(max_iter):
        A_cl = A - B2 @ K
        P = analysis.solve_lyapunov(A_cl.T, vp.CtC + K.T @ vp.DtD @ K)
        J = float(np.trace(P @ vp.B1B1t))
        K_next = np.linalg.solve(vp.DtD, B2.T @ P)
        if J > J_prev + 1e-9 * max(1.0, abs(J_prev)):
            raise NoConvergence("cost increased; iteration diverged")
        step = float(np.max(np.abs(K_next - K)))
        K = K_next
        if step <= tol * max(1.0, float(np.max(np.abs(K)))):
            return K, J
        J_prev = J
    raise NoConvergence(f"no fixed point within {max_iter} iterations")


_ACCEPTANCE_LINES = []


def record_criterion(number, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}"
    _ACCEPTANCE_LINES.append((number, line))
    print(line)
    return ok


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for _, line in sorted(_ACCEPTANCE_LINES):
        terminalreporter.write_line(line)
