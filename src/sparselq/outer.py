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
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import analysis, inner, penalties
from .errors import (MaxSweepsExceeded, NotConverged, require_count,
                     require_positive)

log = logging.getLogger("sparselq")

# Initial schedule scalars, restored by every restart of the averages.
BETA0 = 1.0
KAPPA0 = 1.0
# Period of the fallback restart of the outer averages; 0 turns every
# restart off, periodic and adaptive.  Read at call time, as BETA0 is.
RESTART_EVERY = 2000
# A strongly convex penalty (mu_g > 0) stops at ACCEL_STOP_SCALE x (eps1,
# eps2).  Its restarted average is the sharp iterate, which meets the
# residual tolerances while the objective still falls by about 1e-4
# (relative) per iteration.
ACCEL_STOP_SCALE = 0.1
# Inner tolerance, tied to the outer progress (Schmidt, Le Roux & Bach,
# NeurIPS 2011); outer_iteration gives the rule.  A strongly convex
# penalty (pq) reads the relative primal residual, the scale of the inner
# residual, and needs no cap: its early solves are loose, its late ones
# tight.  The O(1/k) schedule (l1, anchored l0 subproblems) reads the
# absolute one, capped at INNER_TOL_CAP_PLAIN.
INNER_TOL_CAP_PLAIN = 1e-3
INNER_TOL_FLOOR = 1e-8


def regime_l1(gamma, weights=None):
    return penalties.Penalty("l1", gamma, weights)


def regime_pq(gamma, weights=None, pq_params=penalties.PQ_DEFAULT):
    return penalties.Penalty("pq", gamma, weights, pq_params)


@dataclass(frozen=True)
class SolverOptions:
    """Tolerances and budgets of solve_relaxed.

    A field out of range raises InvalidInput naming it: eps1 and eps2
    must be finite and > 0, max_outer and max_sweeps integers >= 1.
    """

    eps1: float = 1e-5
    eps2: float = 1e-4
    max_outer: int = 50000
    max_sweeps: int = 10000

    def __post_init__(self):
        require_positive(self, "eps1", "eps2")
        require_count(self, 1, "max_outer", "max_sweeps")


@dataclass
class OuterState:
    """Splitting iterate plus schedule scalars and solver scratch."""

    W_tilde: np.ndarray
    v: np.ndarray
    P_tilde: np.ndarray
    w: np.ndarray
    lam: np.ndarray
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
    rel_primal_res: float = None
    last_sweeps: int = 0
    last_inner_capped: bool = False
    last_inner_residual: float = np.nan
    sharp_primal_res: float = np.inf
    eps_pri: float = 0.0
    # one (sigma1, sigma2) -> curvature entry, see inner.assemble_dual_data
    curvature: dict = field(default_factory=dict)


def init_state(lifted, penalty, warm=None, anchor=None):
    """Iterate at the start of a solve, with the schedule at its start.

    Without warm, W and v sit at the identity and everything else at
    zero.  warm, an OuterState such as a previous solve's final_state,
    lends copies of its W_tilde, v, P_tilde, w, lam and last primal
    residuals (absolute and relative),
    and its dual_state seeds the first inner solve, which does not write
    to it.  anchor, a pair (vec, weight), adds the proximal term
    (weight/2) ||vec(W) - vec||^2 to f1, so mu_f = weight.
    """
    if warm is None:
        W0 = np.eye(lifted.p).reshape(-1, order="F")
        mn = lifted.m * lifted.n
        st = OuterState(W_tilde=W0, v=W0.copy(), P_tilde=np.zeros(mn),
                        w=np.zeros(mn), lam=np.zeros(lifted.op.n_rows))
    else:
        st = OuterState(W_tilde=warm.W_tilde.copy(), v=warm.v.copy(),
                        P_tilde=warm.P_tilde.copy(), w=warm.w.copy(),
                        lam=warm.lam.copy(), dual_state=warm.dual_state,
                        last_primal_res=warm.last_primal_res,
                        rel_primal_res=warm.rel_primal_res)
    st.mu_g, st.P_prev = penalty.mu_g, st.P_tilde.copy()
    if anchor is not None:
        vec, st.mu_f = anchor
        st.anchor = np.array(vec, dtype=float)
    return _reset_schedule(st)


def _reset_schedule(state):
    # BETA0 and KAPPA0 are read at call time, so a patched value holds
    state.theta, state.kappa, state.beta = 1.0, KAPPA0, BETA0
    return state


def next_schedule(state):
    """(alpha, (theta, kappa, beta) of the next iteration), as floats.

    alpha = sqrt(beta theta) / ||B||, and ||B|| = 1: B is -I on the gain
    rows.
    """
    alpha = math.sqrt(state.beta * state.theta)
    return alpha, (state.theta / (1.0 + alpha),
                   (state.kappa + state.mu_f * alpha) / (1.0 + alpha),
                   (state.beta + state.mu_g * alpha) / (1.0 + alpha))


def outer_iteration(state, lifted, penalty, options=SolverOptions()):
    """Advance the splitting by one iteration (in place) and return state.

    The first inner solve stops at INNER_TOL_CAP_PLAIN.  Later ones stop
    at 0.1 x the previous primal residual, at least INNER_TOL_FLOOR.
    When the penalty is strongly convex (mu_g > 0) that residual is the
    relative one, state.rel_primal_res, the scale of the inner residual,
    and there is no cap.  Otherwise (l1 and the anchored l0 subproblems)
    it is the absolute state.last_primal_res, capped at
    INNER_TOL_CAP_PLAIN.
    """
    op = lifted.op
    theta, kappa, beta, mu_f = state.theta, state.kappa, state.beta, state.mu_f
    alpha, schedule = next_schedule(state)
    u = (state.W_tilde + alpha * state.v) / (1.0 + alpha)
    eta_f = kappa + mu_f * alpha
    v_tilde = (kappa * state.v + mu_f * alpha * u) / eta_f

    d = lifted.vec_R() + op.apply_At(state.lam)
    if state.anchor is not None:
        d = d + mu_f * (u - state.anchor)

    if state.mu_g > 0.0:
        res, cap = state.rel_primal_res, math.inf
    else:
        res, cap = state.last_primal_res, INNER_TOL_CAP_PLAIN
    eps_in = (INNER_TOL_CAP_PLAIN if res is None
              else max(INNER_TOL_FLOOR, min(cap, 0.1 * res)))
    capped = False
    try:
        v_next, sweeps, dstate = inner.solve_inner(
            lifted, d, state.w, v_tilde, alpha, theta, eta_f, eps_in,
            options.max_sweeps, warm_start=state.dual_state,
            cache=state.curvature)
        inner_res = dstate.residual
    except MaxSweepsExceeded as exc:
        log.warning("iteration %d: %s; accepting best iterate", state.k, exc)
        v_next, sweeps, dstate = exc.v, exc.sweeps, exc.state
        inner_res = exc.residual
        capped = True

    W_next = (state.W_tilde + alpha * v_next) / (1.0 + alpha)
    lam_bar = state.lam + (alpha / theta) * op.residual(v_next, state.w)

    eta_g = (alpha + 1.0) * beta + state.mu_g * alpha
    tau = alpha * alpha / eta_g
    y_tilde = state.P_tilde + (alpha * beta / eta_g) * (state.w - state.P_tilde)
    Z = y_tilde - tau * op.apply_Bt(lam_bar)
    P = penalty.prox(Z.reshape(lifted.m, lifted.n, order="F"), 1.0 / tau)
    # a fixed topology adds the indicator of the pinned set to the
    # penalty; its prox zeroes those entries outright, which is what
    # keeps them exact in the averaged iterate rather than merely small
    for (i, j) in lifted.forced_zeros:
        P[i, j] = 0.0
    P_next = P.reshape(-1, order="F")
    w_next = P_next + (P_next - state.P_tilde) / alpha
    sharp_res = op.residual(v_next, w_next)
    lam_next = state.lam + (alpha / theta) * sharp_res

    state.P_prev = state.P_tilde
    state.W_tilde, state.v = W_next, v_next
    state.P_tilde, state.w = P_next, w_next
    state.lam = lam_next
    state.alpha = alpha
    state.theta, state.kappa, state.beta = schedule
    state.k += 1
    state.dual_state = dstate
    state.last_sweeps = sweeps
    state.last_inner_capped = capped
    state.last_inner_residual = inner_res
    state.sharp_primal_res = _norm(sharp_res)
    return state


def restart_averages(state):
    """Collapse the running averages onto the current sharp iterate.

    The averaged pair (W_tilde, P-extrapolation) only reports progress; the
    sharp iterates (v, lam) drive the recursion.  Resetting the average to v
    and the schedule scalars to their initial values discards the O(1/k)
    transient the average carries from the starting point without touching
    the fixed points of the map.  Stopping then reflects the sharp iterate,
    which settles far sooner.  solve_relaxed calls this when the sharp
    pair already meets the primal tolerance that the average misses, and
    every RESTART_EVERY iterations as a fallback.
    """
    state.W_tilde = state.v.copy()
    state.w = state.P_tilde.copy()
    return _reset_schedule(state)


def _norm(v):
    # sqrt(v . v), the value np.linalg.norm returns, as a float
    return math.sqrt(v.dot(v))


def check_convergence(state, lifted, eps1, eps2):
    """Stopping rule on the coupled feasibility and dual drift residuals.

    Returns (stop, primal_res, dual_res) and records the primal
    tolerance on state.eps_pri and the relative primal residual
    primal_res / (1 + max(|A vec(W)|, |P|)) on state.rel_primal_res.
    B is -I on the gain rows and zero elsewhere, and the gain rows read
    distinct columns of vec(W), so |B P| = |P| and |A' B dP| = |dP|.
    """
    op = lifted.op
    pr = _norm(op.residual(state.W_tilde, state.P_tilde))
    dr = _norm(state.P_tilde - state.P_prev)
    scale = max(_norm(op.apply_A(state.W_tilde)), _norm(state.P_tilde))
    eps_pri = math.sqrt(op.n_rows) * eps1 + eps2 * scale
    eps_dua = lifted.p * eps1 + eps2 * _norm(op.apply_At(state.lam))
    state.eps_pri = eps_pri
    state.rel_primal_res = pr / (1.0 + scale)
    return (pr <= eps_pri and dr <= eps_dua), pr, dr


def _restart_due(state, primal_res):
    """Periodic restart, or the sharp pair meets the primal tolerance
    that the averaged pair misses.

    Both rules hold in every regime, the accelerated schedule of a
    strongly convex penalty included (O'Donoghue & Candes, Found. Comput.
    Math. 2015); RESTART_EVERY = 0 turns every restart off.
    """
    if not RESTART_EVERY:
        return False
    if state.k % RESTART_EVERY == 0:
        return True
    return state.sharp_primal_res <= state.eps_pri < primal_res


def solve_relaxed(lifted, penalty, options=SolverOptions(), warm=None,
                  anchor=None):
    """Iterate to a certified stop and return its Solution.

    penalty is a penalties.Penalty; warm and anchor go to init_state.
    When the residual test passes, analysis.certify judges the averaged
    iterate; the run stops only on a certified point, whose certificate
    becomes the Solution.  A strongly convex penalty meets the residual
    test at ACCEL_STOP_SCALE x (eps1, eps2).  Raises NotConverged
    (carrying the best-effort Solution) if the iteration budget runs out.
    """
    state = init_state(lifted, penalty, warm, anchor)
    scale = ACCEL_STOP_SCALE if state.mu_g > 0.0 else 1.0
    eps1, eps2 = scale * options.eps1, scale * options.eps2
    trace = []
    t0 = time.perf_counter()
    converged = False
    pr = dr = np.nan
    for _ in range(int(options.max_outer)):
        state = outer_iteration(state, lifted, penalty, options)
        stop, pr, dr = check_convergence(state, lifted, eps1, eps2)
        state.last_primal_res = pr
        P_mat = state.P_tilde.reshape(lifted.m, lifted.n, order="F")
        obj = float(lifted.vec_R() @ state.W_tilde) + penalty.value(P_mat)
        row = (state.k, state.theta, state.alpha, pr, dr, obj,
               state.last_sweeps, (time.perf_counter() - t0) * 1e3,
               int(state.last_inner_capped))
        if stop:
            # The residual pair only watches the equality rows; the stop
            # stands only where the averaged iterate is certified.
            W = lifted.unvec(state.W_tilde)
            cert = analysis.certify(lifted, 0.5 * (W + W.T), P_mat,
                                    "converged", dr)
            converged = cert["certified"]
            if not converged:
                failed = [c for c, ok in cert["conditions"].items() if not ok]
                log.info("iteration %d: residuals met but %s failed; "
                         "continuing", state.k, ", ".join(failed))
        restarted = not converged and _restart_due(state, pr)
        if restarted:
            restart_averages(state)
        trace.append(row + (int(restarted), state.last_inner_residual))
        if converged:
            break

    status = "converged" if converged else "max_iter"
    sol = analysis.build_solution(
        lifted, state.W_tilde, state.P_tilde, trace, status,
        penalty.kind, penalty.gamma, dr, multiplier=state.lam.copy(),
        iterations=state.k, weights=penalty.weights,
        pq_params=penalty.pq_params if penalty.kind == "pq" else None,
        cert=cert if converged else None)
    sol.final_state = state
    if not converged:
        raise NotConverged(sol, pr, dr)
    return sol
