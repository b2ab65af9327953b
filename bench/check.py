"""Independent checks of solver answers.

Every quantity here is rebuilt from the plant matrices with numpy and
scipy; nothing is imported from sparselq.  A check returns a list of
failure messages, empty when the answer passes.

A solution is passed as a plain dict with the keys K, P, W, J_upper,
pattern, primal_res and dual_res, so that a tampered copy can be made by
editing the dict.
"""

import numpy as np
import scipy.linalg as sla

# Slack of the certificate's cost comparison, relative to max(1, |J|).
COST_SLACK = 1e-3
# Slack of the l0 stage objective within one sigma stage.
STAGE_SLACK = 1e-4


def plant_from_problem(doc):
    """Plant matrices from the problem JSON format, read without sparselq.

    Only the keys the benchmark's problem files use are read: n, m, A, B2,
    B1, C and D as flat row-major lists.
    """
    n, m = int(doc["n"]), int(doc["m"])
    B1 = np.asarray(doc["B1"], dtype=float).reshape(n, -1)
    C = np.asarray(doc["C"], dtype=float).reshape(-1, n)
    return make_plant(A=np.asarray(doc["A"], dtype=float).reshape(n, n),
                      B2=np.asarray(doc["B2"], dtype=float).reshape(n, m),
                      B1=B1, C=C,
                      D=np.asarray(doc["D"], dtype=float).reshape(C.shape[0], m))


def make_plant(A, B2, B1, C, D, vertices=None):
    return {"A": A, "B2": B2, "B1": B1, "C": C, "D": D,
            "vertices": list(vertices) if vertices else [(A, B2)]}


def solution_fields(sol):
    """The fields the checks read, copied out of a sparselq Solution."""
    return {"K": np.array(sol.K, dtype=float), "P": np.array(sol.P, dtype=float),
            "W": np.array(sol.W, dtype=float), "J_upper": float(sol.J_upper),
            "pattern": np.array(sol.pattern), "primal_res": sol.primal_res,
            "dual_res": sol.dual_res}


def _slack(J):
    return COST_SLACK * max(1.0, abs(J))


def certificate_tolerance(fields):
    """max(1e-4, 5 * (primal + dual residual)), the certificate's own scale."""
    res = sum(float(r) for r in (fields["primal_res"], fields["dual_res"])
              if r is not None and np.isfinite(r))
    return max(1e-4, 5.0 * res)


def vertex_costs(plant, K):
    """Quadratic cost of u = -K x at each vertex; inf where not Hurwitz."""
    B1B1t = plant["B1"] @ plant["B1"].T
    CDK = plant["C"] - plant["D"] @ K
    costs = []
    for Av, Bv in plant["vertices"]:
        A_cl = Av - Bv @ K
        if np.max(np.linalg.eigvals(A_cl).real) >= 0:
            costs.append(np.inf)
            continue
        Wc = sla.solve_continuous_lyapunov(A_cl, -B1B1t)
        costs.append(float(np.trace(CDK @ Wc @ CDK.T)))
    return np.array(costs)


def lqr_optimum(plant):
    """Unstructured optimal cost Tr(X B1 B1^T) from the Riccati equation."""
    X = sla.solve_continuous_are(plant["A"], plant["B2"],
                                 plant["C"].T @ plant["C"],
                                 plant["D"].T @ plant["D"])
    return float(np.trace(X @ plant["B1"] @ plant["B1"].T))


def check_solution(plant, fields):
    """Check one solution against the plant; returns failure messages."""
    fails = []
    K, P, W = fields["K"], fields["P"], fields["W"]
    J = fields["J_upper"]
    n, m = plant["B2"].shape
    p = n + m
    tol = certificate_tolerance(fields)

    for i, (Av, Bv) in enumerate(plant["vertices"]):
        abscissa = float(np.max(np.linalg.eigvals(Av - Bv @ K).real))
        if abscissa >= 0:
            fails.append(f"vertex {i}: A - B2 K not Hurwitz ({abscissa:.3g})")

    costs = vertex_costs(plant, K)
    if not np.all(np.isfinite(costs)) or costs.max() > J + _slack(J):
        fails.append(f"vertex cost {costs.max():.6g} above J_upper {J:.6g}")

    R = np.zeros((p, p))
    R[:n, :n] = plant["C"].T @ plant["C"]
    R[n:, n:] = plant["D"].T @ plant["D"]
    RW = float(np.sum(R * W))
    if abs(RW - J) > 1e-8 * max(1.0, abs(J)):
        fails.append(f"J_upper {J:.10g} != <R, W> {RW:.10g}")

    if np.max(np.abs(W - W.T)) > 1e-12 * max(1.0, np.max(np.abs(W))):
        fails.append("W not symmetric")
    Ws = 0.5 * (W + W.T)
    if np.linalg.eigvalsh(Ws)[0] < -tol:
        fails.append(f"W not PSD (min eig {np.linalg.eigvalsh(Ws)[0]:.3g})")
    W1 = Ws[:n, :n]
    offdiag = float(np.max(np.abs(W1 - np.diag(np.diag(W1))), initial=0.0))
    if offdiag > tol:
        fails.append(f"W1 not diagonal (off-diagonal {offdiag:.3g})")
    Q = np.zeros((p, p))
    Q[:n, :n] = plant["B1"] @ plant["B1"].T
    for i, (Av, Bv) in enumerate(plant["vertices"]):
        F = np.zeros((p, p))
        F[:n, :n] = Av
        F[:n, n:] = -Bv
        block = -(F @ Ws + Ws @ F.T + Q)[:n, :n]
        low = float(np.linalg.eigvalsh(0.5 * (block + block.T))[0])
        if low < -tol:
            fails.append(f"vertex {i}: Lyapunov block not PSD ({low:.3g})")

    d = np.diag(W1)
    if not np.allclose(K, P / d, rtol=1e-12, atol=0.0):
        fails.append("K != P / diag(W1)")
    pattern = np.asarray(fields["pattern"])
    if pattern.shape != K.shape or np.any((K != 0) != (pattern != 0)):
        fails.append("K zeros disagree with pattern")

    if len(plant["vertices"]) == 1:
        J_lqr = lqr_optimum(plant)
        if J < J_lqr - _slack(J_lqr):
            fails.append(f"J_upper {J:.6g} below the LQR optimum {J_lqr:.6g}")
    return fails


def check_frontier(points):
    """J_upper must not fall as gamma grows; points are (gamma, J_upper)."""
    fails = []
    ordered = sorted(points)
    for (g0, J0), (g1, J1) in zip(ordered, ordered[1:]):
        if J1 < J0 - _slack(J0):
            fails.append(f"J_upper fell from {J0:.6g} (gamma {g0:g}) "
                         f"to {J1:.6g} (gamma {g1:g})")
    return fails


def check_stage_trace(stage_trace):
    """Within a sigma stage the l0 stage objective must not rise."""
    fails = []
    for prev, cur in zip(stage_trace, stage_trace[1:]):
        sigma, _, h_prev, _ = prev
        if cur[0] != sigma:
            continue
        if cur[2] > h_prev + STAGE_SLACK * max(1.0, abs(h_prev)):
            fails.append(f"sigma {sigma:g} pass {cur[1]}: stage objective "
                         f"rose from {h_prev:.8g} to {cur[2]:.8g}")
    return fails
