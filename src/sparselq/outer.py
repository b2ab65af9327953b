"""Two-timescale primal-dual splitting over the lifted feasible set.

The relaxed synthesis problem splits as

    minimize  f1(W) + h(P)   subject to  A vec(W) + B P = 0,
              W in the cone-feasible set,

with f1(W) = <R, W> (plus an optional proximal anchor) and h the penalty.
Each iteration extrapolates the W-side, solves the strongly convex
W-subproblem through the inner solver, takes a dual half-step, applies
the penalty prox to the P-side, extrapolates P, and finishes the dual
step.  The scalar sequence (theta, kappa, beta) controls the two
timescales; strong convexity of either side (mu_f, mu_g) accelerates the
schedule automatically.
"""

import logging
import time
from dataclasses import dataclass, field, replace
from typing import NamedTuple, Optional

import numpy as np

from . import analysis, inner, penalties
from .errors import MaxSweepsExceeded, NotConverged

log = logging.getLogger("sparselq")


@dataclass(frozen=True)
class RegimeSpec:
    """Penalty regime plus the strong-convexity data the schedule needs.

    kind is "l1", "pq", or "wl1_anchored".  mu_f is nonzero only when a
    proximal anchor is present, where it is 1/lambda and also weighs the
    anchor; mu_g is nonzero only for the strongly convex piecewise
    quadratic penalty, where it is the modulus of the full weighted
    penalty including its multiplier gamma.
    """

    kind: str
    penalty: penalties.PenaltyConfig
    mu_f: float = 0.0
    mu_g: float = 0.0


def regime_l1(gamma, weights=None):
    cfg = penalties.PenaltyConfig(kind="weighted_l1", gamma=gamma, weights=weights)
    return RegimeSpec(kind="l1", penalty=cfg)


def regime_pq(gamma, weights=None, pq_params=(1.0, 1.0, -1.0, 1.0)):
    cfg = penalties.PenaltyConfig(kind="piecewise_quadratic", gamma=gamma,
                                  weights=weights, pq_params=pq_params)
    return RegimeSpec(kind="pq", penalty=cfg, mu_g=gamma * cfg.mu_gq)


def regime_anchored(gamma, weights, lam):
    cfg = penalties.PenaltyConfig(kind="weighted_l1", gamma=gamma, weights=weights)
    return RegimeSpec(kind="wl1_anchored", penalty=cfg, mu_f=1.0 / lam)


@dataclass(frozen=True)
class SolverOptions:
    """Tolerances, budgets and restart cadence of solve_relaxed.

    restart_every is the period of the fallback restart of the outer
    averages.  When the penalty is not strongly convex (l1 and the
    anchored subproblems) the averages are also restarted as soon as the
    sharp iterate meets the primal tolerance that they miss.
    restart_every=0 turns off every restart, periodic and adaptive.
    """

    eps1: float = 1e-5
    eps2: float = 1e-4
    max_outer: int = 50000
    max_sweeps: int = 10000
    beta0: float = 1.0
    kappa0: float = 1.0
    inner_tol_cap: float = 1e-4
    inner_tol_floor: float = 1e-8
    restart_every: int = 2000


@dataclass
class OuterState:
    """Splitting iterate plus schedule scalars and solver scratch."""

    W_tilde: np.ndarray
    v: np.ndarray
    P_tilde: np.ndarray
    w: np.ndarray
    lam: np.ndarray
    lam_bar: np.ndarray
    theta: float = 1.0
    kappa: float = 1.0
    beta: float = 1.0
    alpha: float = 0.0
    k: int = 0
    mu_f: float = 0.0
    mu_g: float = 0.0
    anchor: np.ndarray = None
    P_prev: np.ndarray = None
    # solver scratch, not part of the mathematical state
    dual_state: object = None
    last_primal_res: float = None
    last_sweeps: int = 0
    last_inner_capped: bool = False
    last_inner_residual: float = np.nan
    sharp_primal_res: float = np.inf
    eps_pri: float = 0.0


def init_state(lifted, regime, options, init=None):
    """Fresh iterate: W and v at the identity, everything else at zero."""
    p, mn = lifted.p, lifted.m * lifted.n
    rows = lifted.op.n_rows
    W0 = np.eye(p).reshape(-1, order="F")
    st = OuterState(W_tilde=W0.copy(), v=W0.copy(),
                    P_tilde=np.zeros(mn), w=np.zeros(mn),
                    lam=np.zeros(rows), lam_bar=np.zeros(rows),
                    theta=1.0, kappa=options.kappa0, beta=options.beta0,
                    mu_f=regime.mu_f, mu_g=regime.mu_g,
                    P_prev=np.zeros(mn))
    if init:
        for name in ("W_tilde", "v", "P_tilde", "w", "lam", "anchor"):
            if name in init and init[name] is not None:
                setattr(st, name, np.asarray(init[name], dtype=float).copy())
        st.lam_bar = st.lam.copy()
        st.P_prev = st.P_tilde.copy()
        if init.get("last_primal_res") is not None:
            st.last_primal_res = float(init["last_primal_res"])
    return st


class ParamStep(NamedTuple):
    alpha: float
    eta_g: float
    y_tilde: np.ndarray
    eta_f_tilde: float
    u: np.ndarray
    v_tilde: np.ndarray
    tau: float
    theta_next: float
    kappa_next: float
    beta_next: float


def step_and_parameters(state):
    """Scalar schedule and extrapolated auxiliaries for one iteration."""
    # sqrt(beta theta) / ||B||, and ||B|| = 1: B is -I on the gain rows
    alpha = np.sqrt(state.beta * state.theta)
    eta_g = (alpha + 1.0) * state.beta + state.mu_g * alpha
    y_tilde = state.P_tilde + (alpha * state.beta / eta_g) * (state.w - state.P_tilde)
    eta_f_tilde = state.kappa + state.mu_f * alpha
    u = (state.W_tilde + alpha * state.v) / (1.0 + alpha)
    v_tilde = (state.kappa * state.v + state.mu_f * alpha * u) / eta_f_tilde
    tau = alpha * alpha / eta_g
    theta_next = state.theta / (1.0 + alpha)
    kappa_next = (state.kappa + state.mu_f * alpha) / (1.0 + alpha)
    beta_next = (state.beta + state.mu_g * alpha) / (1.0 + alpha)
    return ParamStep(alpha, eta_g, y_tilde, eta_f_tilde, u, v_tilde, tau,
                     theta_next, kappa_next, beta_next)


def _apply_prox(Z_vec, regime, rho, m, n, forced=()):
    Z = Z_vec.reshape(m, n, order="F")
    pen = regime.penalty
    if pen.kind == "piecewise_quadratic":
        P = penalties.prox_piecewise_quadratic(Z, pen.gamma, pen.weights,
                                               pen.pq_params, rho)
    else:
        P = penalties.prox_weighted_l1(Z, pen.gamma, pen.weights, rho)
    # a fixed topology adds the indicator of the pinned set to the
    # penalty; its prox zeroes those entries outright, which is what
    # keeps them exact in the averaged iterate rather than merely small
    for (i, j) in forced:
        P[i, j] = 0.0
    return P.reshape(-1, order="F")


def outer_iteration(state, lifted, regime, options=SolverOptions()):
    """Advance the splitting by one iteration (in place) and return state."""
    op = lifted.op
    ps = step_and_parameters(state)

    d = lifted.vec_R() + op.apply_At(state.lam)
    if state.anchor is not None:
        d = d + state.mu_f * (ps.u - state.anchor)

    if state.last_primal_res is None:
        eps_in = options.inner_tol_cap
    else:
        eps_in = max(options.inner_tol_floor,
                     min(options.inner_tol_cap, 0.1 * state.last_primal_res))
    capped = False
    try:
        v_next, sweeps, dstate = inner.solve_inner(
            lifted, d, state.w, ps.v_tilde, ps.alpha, state.theta,
            ps.eta_f_tilde, eps_in, options.max_sweeps,
            warm_start=state.dual_state)
        inner_res = dstate.residual
    except MaxSweepsExceeded as exc:
        log.warning("iteration %d: %s; accepting best iterate", state.k, exc)
        v_next, sweeps, dstate = exc.v, exc.sweeps, exc.state
        inner_res = exc.residual
        capped = True

    alpha, theta = ps.alpha, state.theta
    W_next = (state.W_tilde + alpha * v_next) / (1.0 + alpha)
    Av = op.apply_A(v_next)
    lam_bar = state.lam + (alpha / theta) * (Av + op.apply_B(state.w))

    Z = ps.y_tilde - ps.tau * op.apply_Bt(lam_bar)
    P_next = _apply_prox(Z, regime, 1.0 / ps.tau, lifted.m, lifted.n,
                         lifted.forced_zeros)
    w_next = P_next + (P_next - state.P_tilde) / alpha
    sharp_res = Av + op.apply_B(w_next)
    lam_next = state.lam + (alpha / theta) * sharp_res

    state.P_prev = state.P_tilde
    state.W_tilde, state.v = W_next, v_next
    state.P_tilde, state.w = P_next, w_next
    state.lam, state.lam_bar = lam_next, lam_bar
    state.alpha = alpha
    state.theta, state.kappa, state.beta = ps.theta_next, ps.kappa_next, ps.beta_next
    state.k += 1
    state.dual_state = dstate
    state.last_sweeps = sweeps
    state.last_inner_capped = capped
    state.last_inner_residual = inner_res
    state.sharp_primal_res = float(np.linalg.norm(sharp_res))
    return state


def restart_averages(state, options=SolverOptions()):
    """Collapse the running averages onto the current sharp iterate.

    The averaged pair (W_tilde, P-extrapolation) only reports progress; the
    sharp iterates (v, lam) drive the recursion.  Resetting the average to v
    and the schedule scalars to their initial values discards the O(1/k)
    transient the average carries from the starting point without touching
    the fixed points of the map.  Stopping then reflects the sharp iterate,
    which settles far sooner.  solve_relaxed calls this when the sharp
    pair already meets the primal tolerance that the average misses
    (penalties that are not strongly convex only), and every
    options.restart_every iterations as a fallback.
    """
    state.W_tilde = state.v.copy()
    state.w = state.P_tilde.copy()
    state.lam_bar = state.lam.copy()
    state.theta = 1.0
    state.kappa = options.kappa0
    state.beta = options.beta0
    return state


def check_convergence(state, lifted, eps1, eps2):
    """Stopping rule on the coupled feasibility and dual drift residuals.

    Returns (stop, primal_res, dual_res) and records the primal
    tolerance on state.eps_pri.
    """
    op = lifted.op
    AW = op.apply_A(state.W_tilde)
    BP = op.apply_B(state.P_tilde)
    r = AW + BP
    s = op.apply_At(op.apply_B(state.P_tilde - state.P_prev))
    eps_pri = (np.sqrt(op.n_rows) * eps1
               + eps2 * max(np.linalg.norm(AW), np.linalg.norm(BP)))
    eps_dua = lifted.p * eps1 + eps2 * np.linalg.norm(op.apply_At(state.lam))
    pr = float(np.linalg.norm(r))
    dr = float(np.linalg.norm(s))
    state.eps_pri = float(eps_pri)
    return (pr <= eps_pri and dr <= eps_dua), pr, dr


def _restart_due(state, regime, options, primal_res):
    """Periodic restart, or the sharp pair meets the primal tolerance
    that the averaged pair misses.

    The adaptive rule is off for a strongly convex penalty, whose
    accelerated schedule the averages carry; restart_every=0 turns
    every restart off.
    """
    if not options.restart_every:
        return False
    if state.k % options.restart_every == 0:
        return True
    return (regime.mu_g == 0.0
            and state.sharp_primal_res <= state.eps_pri < primal_res)


def solve_relaxed(lifted, regime, options=SolverOptions(), init=None):
    """Iterate to convergence and return a certified Solution.

    Raises NotConverged (carrying the best-effort Solution) if the
    iteration budget runs out.  A zero penalty weight is replaced by
    1e-8, which leaves the common code path valid for the dense
    (unpenalized) problem.
    """
    if regime.penalty.gamma == 0.0:
        regime = replace(regime,
                         penalty=replace(regime.penalty, gamma=1e-8))
        log.info("gamma=0 request run at gamma=1e-8")

    state = init_state(lifted, regime, options, init)

    trace = []
    t0 = time.perf_counter()
    converged = False
    pr = dr = np.nan
    for _ in range(int(options.max_outer)):
        state = outer_iteration(state, lifted, regime, options)
        stop, pr, dr = check_convergence(state, lifted,
                                         options.eps1, options.eps2)
        state.last_primal_res = pr
        obj = float(lifted.vec_R() @ state.W_tilde) + penalties.penalty_value(
            state.P_tilde.reshape(lifted.m, lifted.n, order="F"),
            regime.penalty)
        row = (state.k, state.theta, state.alpha, pr, dr, obj,
               state.last_sweeps, (time.perf_counter() - t0) * 1e3,
               int(state.last_inner_capped))
        if stop:
            # The residual pair only watches the equality rows; before
            # accepting, require the averaged iterate to satisfy the cone
            # constraints at the tolerance the certificate will use.
            W_mat = lifted.unvec(state.W_tilde)
            W_mat = 0.5 * (W_mat + W_mat.T)
            P_mat = state.P_tilde.reshape(lifted.m, lifted.n, order="F")
            tol = analysis.certificate_tolerance(pr, dr)
            rep = analysis.feasibility_report(lifted, W_mat, P_mat, tol=tol)
            converged = rep["feasible"]
            if not converged:
                log.info("iteration %d: residuals met but cone violation "
                         "%.3g remains; continuing", state.k,
                         -min(rep["min_eig_W"], rep["min_eig_psi"]))
        restarted = not converged and _restart_due(state, regime, options, pr)
        if restarted:
            restart_averages(state, options)
        trace.append(row + (int(restarted), state.last_inner_residual))
        if converged:
            break

    status = "converged" if converged else "max_iter"
    sol = analysis.build_solution(
        lifted, state.W_tilde, state.P_tilde, trace, status,
        regime.kind, regime.penalty.gamma, dr, multiplier=state.lam.copy(),
        iterations=state.k, weights=regime.penalty.weights,
        pq_params=regime.penalty.pq_params if regime.kind == "pq" else None)
    sol.final_state = state
    if not converged:
        raise NotConverged(sol, pr, dr)
    return sol
