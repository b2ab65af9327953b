"""Closed-loop certification and reporting.

Everything downstream of the solvers lives here: recovering the gain from
the parameter matrix, Lyapunov and quadratic-cost evaluation, stability
margins, sparsity reports, an independent Riccati iteration used as a
cross-check, and impulse-response simulation.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .errors import (K0NotStabilizing, NoConvergence, NotHurwitz,
                     SingularW1, TooLarge)
from .model import PlantData, ValidatedPlant, validate_plant

TRACE_COLUMNS = ("iter", "theta", "alpha", "primal_res", "dual_res",
                 "objective", "inner_sweeps", "wall_ms", "inner_capped",
                 "restarted", "inner_residual")

STAGE_TRACE_COLUMNS = ("sigma", "pass", "h_sigma", "nnz")


@dataclass
class Solution:
    """Solver output bundle.

    J_upper is the certified upper bound <R, W>; J_vertex holds the exact
    quadratic cost of the recovered gain at every uncertainty vertex
    (inf where the vertex is not stabilized).  stable holds the spectral
    abscissa of each closed-loop vertex.  pattern marks nonzero gain
    entries with 1; n_zeros counts the zeros.  weights and pq_params are
    the penalty's parameters (None for unit weights, and outside the pq
    regime), so that stationarity can be re-checked from the file.
    """

    W: np.ndarray
    K: np.ndarray
    P: np.ndarray
    J_upper: float
    J_vertex: np.ndarray
    pattern: np.ndarray
    n_zeros: int
    stable: np.ndarray
    trace: list
    status: str
    regime: str
    gamma: float
    iterations: int
    primal_res: float
    dual_res: float
    certified: bool
    feasibility: dict = field(default_factory=dict)
    multiplier: np.ndarray = None
    stage_trace: list = field(default_factory=list)
    weights: np.ndarray = None
    pq_params: tuple = None
    final_state: object = None


def _as_validated(plant):
    if isinstance(plant, ValidatedPlant):
        return plant
    if isinstance(plant, PlantData):
        return validate_plant(plant)
    raise TypeError("expected PlantData or ValidatedPlant")


def recover_gain(W, n, offdiag_tol=1e-4):
    """Gain K = W2^T W1^{-1} from the parameter matrix.

    When the off-diagonal entries of the leading block W1 are below
    offdiag_tol, only the diagonal is inverted so zeros of W2^T map to
    exact zeros of K; otherwise a warning is issued and the full block is
    inverted.
    """
    W = np.asarray(W, dtype=float)
    W1 = W[:n, :n]
    W2t = W[n:, :n]
    offdiag = W1 - np.diag(np.diag(W1))
    d = np.diag(W1)
    if np.any(np.abs(d) < 1e4 * np.finfo(float).tiny):
        raise SingularW1("leading block has a (near-)zero diagonal entry")
    if float(np.max(np.abs(offdiag), initial=0.0)) <= offdiag_tol:
        return W2t / d
    warnings.warn("leading block is not numerically diagonal; "
                  "inverting the full block", stacklevel=2)
    try:
        return np.linalg.solve(W1.T, W2t.T).T
    except np.linalg.LinAlgError as exc:
        raise SingularW1(str(exc)) from exc


def stability_check(A, B2, K):
    """Spectral abscissa of A - B2 K (negative iff Hurwitz)."""
    return float(np.max(np.real(np.linalg.eigvals(A - B2 @ K))))


def solve_lyapunov(A_cl, Q_sym):
    """Solve A_cl W + W A_cl^T + Q_sym = 0 for Hurwitz A_cl.

    The solution is symmetrized and checked: the back-substituted
    residual must not exceed 1e-10 * max(1, ||Q_sym||_F), with one
    refinement pass before giving up.
    """
    A_cl = np.asarray(A_cl, dtype=float)
    Q_sym = np.asarray(Q_sym, dtype=float)
    n = A_cl.shape[0]
    if n > 200:
        raise TooLarge(f"order {n} exceeds the supported scale (200)")
    margin = float(np.max(np.real(np.linalg.eigvals(A_cl))))
    if margin >= 0:
        raise NotHurwitz(f"spectral abscissa {margin:.3e} >= 0")
    W = sla.solve_continuous_lyapunov(A_cl, -Q_sym)
    W = 0.5 * (W + W.T)
    tol = 1e-10 * max(1.0, float(np.linalg.norm(Q_sym)))
    res = A_cl @ W + W @ A_cl.T + Q_sym
    if float(np.linalg.norm(res)) > tol:
        corr = sla.solve_continuous_lyapunov(A_cl, -res)
        W = W + 0.5 * (corr + corr.T)
        res = A_cl @ W + W @ A_cl.T + Q_sym
        if float(np.linalg.norm(res)) > tol:
            raise ArithmeticError(
                f"lyapunov residual {np.linalg.norm(res):.3e} exceeds {tol:.3e}")
    return W


def h2_cost(plant, K):
    """Quadratic cost Tr((C - D K) Wc (C - D K)^T) per uncertainty vertex.

    Returns an array with one entry per vertex; entries are inf where
    A_i - B2_i K is not Hurwitz.
    """
    vp = _as_validated(plant)
    K = np.asarray(K, dtype=float)
    CDK = vp.C - vp.D @ K
    out = np.empty(len(vp.vertices))
    for idx, (Av, Bv) in enumerate(vp.vertices):
        A_cl = Av - Bv @ K
        if float(np.max(np.real(np.linalg.eigvals(A_cl)))) >= 0:
            out[idx] = np.inf
            continue
        Wc = solve_lyapunov(A_cl, vp.B1B1t)
        out[idx] = float(np.trace(CDK @ Wc @ CDK.T))
    return out


def sparsity_report(P_or_K, tol=1e-6):
    """Binary support pattern and zero count.

    An entry counts as zero when its magnitude is at most
    tol * max(1, largest magnitude).
    """
    M = np.asarray(P_or_K, dtype=float)
    thresh = tol * max(1.0, float(np.max(np.abs(M), initial=0.0)))
    pattern = (np.abs(M) > thresh).astype(int)
    return pattern, int(pattern.size - pattern.sum())


def riccati_oracle(plant, stabilizing_K0, max_iter=50, tol=1e-12):
    """Policy iteration on the quadratic regulator equation.

    Starting from a stabilizing gain, alternates the closed-loop value
    solve with the gain update K = (D^T D)^{-1} B2^T P.  Costs are
    monotonically nonincreasing.  Returns (K_star, J_star) with
    J_star = Tr(P B1 B1^T).  Single-vertex plants only.
    """
    vp = _as_validated(plant)
    if len(vp.vertices) != 1:
        raise ValueError("oracle handles single-vertex plants only")
    A, B2 = vp.A, vp.B2
    K = np.asarray(stabilizing_K0, dtype=float)
    if stability_check(A, B2, K) >= 0:
        raise K0NotStabilizing("initial gain is not stabilizing")
    J_prev = np.inf
    for _ in range(max_iter):
        A_cl = A - B2 @ K
        P = solve_lyapunov(A_cl.T, vp.CtC + K.T @ vp.DtD @ K)
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


def simulate_impulse(plant, K, horizon, dt):
    """Closed-loop impulse responses, one run per disturbance channel.

    Integrates dx/dt = (A - B2 K) x from x(0) = B1 e_j with classical
    fixed-step fourth-order Runge-Kutta.  Returns (t, X) where t has
    length nt and X has shape (l, nt, n).
    """
    if dt <= 0:
        raise ValueError("dt must be > 0")
    vp = _as_validated(plant)
    A_cl = vp.A - vp.B2 @ np.asarray(K, dtype=float)
    nt = int(np.floor(horizon / dt + 1e-12)) + 1
    t = np.arange(nt) * dt
    n, l = vp.n, vp.l
    X = np.empty((l, nt, n))
    for j in range(l):
        x = vp.B1[:, j].copy()
        X[j, 0] = x
        for s in range(1, nt):
            k1 = A_cl @ x
            k2 = A_cl @ (x + 0.5 * dt * k1)
            k3 = A_cl @ (x + 0.5 * dt * k2)
            k4 = A_cl @ (x + dt * k3)
            x = x + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            X[j, s] = x
    return t, X


def feasibility_report(lifted, W, P, tol=1e-4):
    """Constraint violations of (W, P) against the lifted feasible set."""
    n = lifted.n
    W1 = W[:n, :n]
    psi_min = min(float(np.linalg.eigvalsh(lifted.psi_block(W, i))[0])
                  for i in range(lifted.n_vertices))
    offdiag = W1 - np.diag(np.diag(W1))
    gain_gap = float(np.max(np.abs(W[n:, :n] - P), initial=0.0))
    forced = 0.0
    for (i, j) in lifted.forced_zeros:
        forced = max(forced, abs(P[i, j]))
    rep = {
        "min_eig_W": float(np.linalg.eigvalsh(0.5 * (W + W.T))[0]),
        "min_eig_psi": psi_min,
        "max_offdiag_W1": float(np.max(np.abs(offdiag), initial=0.0)),
        "gain_coupling_gap": gain_gap,
        "max_forced_zero": forced,
    }
    rep["feasible"] = (rep["min_eig_W"] >= -tol and rep["min_eig_psi"] >= -tol
                       and rep["max_offdiag_W1"] <= tol and gain_gap <= tol
                       and forced <= tol)
    return rep


def build_solution(lifted, W_vec, P_vec, trace, status, regime, gamma,
                   primal_res, dual_res, multiplier=None, stage_trace=None,
                   sparsity_tol=1e-6, iterations=None, weights=None,
                   pq_params=None):
    """Assemble and certify a Solution from raw solver state.

    The gain divides the proximal parameter P by diag(W1) so that exact
    zeros produced by the prox survive in K; the averaged W block carries
    the same values only up to the feasibility gap.
    """
    n, m = lifted.n, lifted.m
    W = lifted.unvec(W_vec)
    W = 0.5 * (W + W.T)
    P = P_vec.reshape(m, n, order="F")
    d = np.diag(W[:n, :n])
    if np.any(np.abs(d) < 1e4 * np.finfo(float).tiny):
        raise SingularW1("leading block has a (near-)zero diagonal entry")
    K = P / d
    J_upper = float(lifted.vec_R() @ W_vec)
    J_vertex = h2_cost(lifted.plant, K)
    margins = np.array([stability_check(Av, Bv, K)
                        for Av, Bv in lifted.plant.vertices])
    pattern, n_zeros = sparsity_report(P, sparsity_tol)
    res_scale = sum(float(r) for r in (primal_res, dual_res)
                    if r is not None and np.isfinite(r))
    feas = feasibility_report(lifted, W, P, tol=max(1e-4, 5.0 * res_scale))
    slack = 1e-3 * max(1.0, abs(J_upper))
    certified = (status == "converged"
                 and bool(np.all(margins < 0))
                 and bool(J_upper >= float(np.max(J_vertex)) - slack)
                 and feas["feasible"])
    return Solution(W=W, K=K, P=P, J_upper=J_upper, J_vertex=J_vertex,
                    pattern=pattern, n_zeros=n_zeros, stable=margins,
                    trace=trace if trace is not None else [],
                    status=status, regime=regime, gamma=gamma,
                    iterations=(len(trace) if trace else 0)
                    if iterations is None else iterations,
                    primal_res=primal_res, dual_res=dual_res,
                    certified=certified, feasibility=feas,
                    multiplier=multiplier,
                    stage_trace=stage_trace if stage_trace is not None else [],
                    weights=weights, pq_params=pq_params)
