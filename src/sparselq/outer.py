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
from .errors import (InvalidInput, MaxSweepsExceeded, NotConverged,
                     require_count, require_positive)

log = logging.getLogger("sparselq")

# Initial beta of the schedule, restored by every restart of the averages.
BETA0 = 1.0
# The adaptive restart fires when the sharp pair's KKT error has fallen
# to RESTART_SUFFICIENT x its value at the last restart, or to
# RESTART_NECESSARY x it and rose since the previous iteration, or when
# the last restart lies RESTART_ARTIFICIAL x k or more iterations back:
# the factors of PDLP (Applegate, Hinder, Lu & Lubin, Math. Program. 2023).
RESTART_SUFFICIENT, RESTART_NECESSARY, RESTART_ARTIFICIAL = 0.2, 0.8, 0.36
# A strongly convex penalty (mu_g > 0) stops at ACCEL_STOP_SCALE x (eps1,
# eps2).  Its restarted average is the sharp iterate, which meets the
# residual tolerances while the objective still falls by about 1e-4
# (relative) per iteration.
ACCEL_STOP_SCALE = 0.1
# Inner tolerance, tied to the outer progress (Schmidt, Le Roux & Bach,
# NeurIPS 2011) by one rule for every penalty, which check_convergence
# gives.  A run's first inner solve, before any residual exists, stops at
# INNER_TOL_START; no later one stops below INNER_TOL_FLOOR.
INNER_TOL_START = 1e-3
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
    """What the next iteration, stop test or restart reads.

    The splitting iterate (W_tilde, v, P_tilde, w, lam), the schedule
    scalars (theta, kappa, beta) and the iteration count k; the moduli
    mu_f and mu_g and the anchor of f1; P_prev, the P_tilde before the
    last iteration, for the dual drift residual.  v_r, w_r and k_r are
    the sharp pair and the iteration at the start or the last restart,
    kkt_r the sharp pair's KKT error there and kkt its KKT error after the
    last iteration (inf before the first).  The rest is solver scratch:
    dual_state warm-starts the next inner solve, eps_inner is the next
    inner solve's tolerance, which check_convergence sets, and curvature
    the inner solves' cache: one entry per (sigma1, sigma2) pair this
    solve has met, within inner.CURVATURE_CACHE_BYTES (see
    inner.assemble_dual_data).  init_state starts it empty, and
    solve_relaxed empties it before it hands the state out as final_state.
    """

    W_tilde: np.ndarray
    v: np.ndarray
    P_tilde: np.ndarray
    w: np.ndarray
    lam: np.ndarray
    theta: float = 1.0
    kappa: float = 1.0
    beta: float = 1.0
    k: int = 0
    mu_f: float = 0.0
    mu_g: float = 0.0
    anchor: np.ndarray = None
    P_prev: np.ndarray = None
    v_r: np.ndarray = None
    w_r: np.ndarray = None
    k_r: int = 0
    kkt_r: float = math.inf
    kkt: float = math.inf
    dual_state: object = None
    eps_inner: float = INNER_TOL_START
    curvature: dict = field(default_factory=dict)


def init_state(lifted, penalty, warm=None, anchor=None):
    """Iterate at the start of a solve, with the schedule at its start.

    Without warm, W and v sit at the identity, everything else at zero,
    and the first inner solve stops at INNER_TOL_START.  warm, an
    OuterState such as a previous solve's final_state, lends copies of
    its W_tilde, v, P_tilde, w and lam and its eps_inner, and its
    dual_state seeds the first inner solve, which does not write to it.
    anchor, a pair (vec, weight), adds the proximal term
    (weight/2) ||vec(W) - vec||^2 to f1, so mu_f = weight.
    """
    if warm is None:
        W0 = np.eye(lifted.p).reshape(-1, order="F")
        mn = lifted.m * lifted.n
        st = OuterState(W_tilde=W0, v=W0.copy(), P_tilde=np.zeros(mn),
                        w=np.zeros(mn), lam=np.zeros(mn))
    else:
        st = OuterState(W_tilde=warm.W_tilde.copy(), v=warm.v.copy(),
                        P_tilde=warm.P_tilde.copy(), w=warm.w.copy(),
                        lam=warm.lam.copy(), dual_state=warm.dual_state,
                        eps_inner=warm.eps_inner)
    st.mu_g, st.P_prev = penalty.mu_g, st.P_tilde.copy()
    if anchor is not None:
        vec, st.mu_f = anchor
        st.anchor = np.array(vec, dtype=float)
    return _reset_schedule(st)


def _reset_schedule(state):
    # BETA0 is read at call time, so a patched value holds
    state.theta, state.kappa, state.beta = 1.0, 1.0, BETA0
    # the iteration rebinds v and w, never writes into them
    state.v_r, state.w_r, state.k_r, state.kkt_r = (state.v, state.w,
                                                    state.k, state.kkt)
    return state


def next_schedule(state):
    """(alpha, (theta, kappa, beta) of the next iteration), as floats.

    alpha = sqrt(beta theta) / ||B||, and ||B|| = 1: B = -I.
    """
    alpha = math.sqrt(state.beta * state.theta)
    return alpha, (state.theta / (1.0 + alpha),
                   (state.kappa + state.mu_f * alpha) / (1.0 + alpha),
                   (state.beta + state.mu_g * alpha) / (1.0 + alpha))


def outer_iteration(state, lifted, penalty, options=SolverOptions()):
    """Advance the splitting by one iteration, in place.

    The inner solve stops at state.eps_inner.  Returns the iteration's
    record (alpha, sweeps, capped, inner_res, kkt): the step, the inner
    sweeps, whether the inner solve hit max_sweeps and its last iterate
    was accepted, the residual bound it stopped on (the exact residual of
    a capped solve), and the KKT error of the new sharp pair,
    max(|A v + B w|, |v - v_prev|, |w - w_prev|): its primal residual and
    the movements that, on the l1 schedule, equal its stationarity
    residuals in W and in P.
    """
    cols = lifted.gain_cols
    theta, kappa, beta, mu_f = state.theta, state.kappa, state.beta, state.mu_f
    alpha, schedule = next_schedule(state)
    u = (state.W_tilde + alpha * state.v) / (1.0 + alpha)
    eta_f = kappa + mu_f * alpha
    v_tilde = (kappa * state.v + mu_f * alpha * u) / eta_f

    # A' lam: lam scattered onto the gain entries of vec(W)
    d = lifted.vec_R() + np.bincount(cols, weights=state.lam,
                                     minlength=lifted.p ** 2)
    if state.anchor is not None:
        d = d + mu_f * (u - state.anchor)

    capped = False
    try:
        v_next, sweeps, dstate = inner.solve_inner(
            lifted, d, state.w, v_tilde, alpha, theta, eta_f, state.eps_inner,
            options.max_sweeps, warm_start=state.dual_state,
            cache=state.curvature)
        inner_res = dstate.residual
    except MaxSweepsExceeded as exc:
        log.warning("iteration %d: %s; accepting best iterate", state.k, exc)
        v_next, sweeps, dstate = exc.v, exc.sweeps, exc.state
        inner_res = exc.residual
        capped = True

    W_next = (state.W_tilde + alpha * v_next) / (1.0 + alpha)
    lam_bar = state.lam + (alpha / theta) * (v_next[cols] - state.w)

    eta_g = (alpha + 1.0) * beta + state.mu_g * alpha
    tau = alpha * alpha / eta_g
    y_tilde = state.P_tilde + (alpha * beta / eta_g) * (state.w - state.P_tilde)
    Z = y_tilde + tau * lam_bar
    P = penalty.prox(Z.reshape(lifted.m, lifted.n, order="F"), 1.0 / tau)
    # a fixed topology adds the indicator of the pinned set to the
    # penalty; its prox zeroes those entries outright, and with W held
    # at zero there by the inner solve, the gain row's residual and so
    # lambda stay exactly 0 there too
    for (i, j) in lifted.forced_zeros:
        P[i, j] = 0.0
    P_next = P.reshape(-1, order="F")
    w_next = P_next + (P_next - state.P_tilde) / alpha
    sharp_res = v_next[cols] - w_next
    lam_next = state.lam + (alpha / theta) * sharp_res
    kkt = max(_norm(sharp_res), _norm(v_next - state.v),
              _norm(w_next - state.w))

    state.P_prev = state.P_tilde
    state.W_tilde, state.v = W_next, v_next
    state.P_tilde, state.w = P_next, w_next
    state.lam = lam_next
    state.theta, state.kappa, state.beta = schedule
    state.k += 1
    state.dual_state = dstate
    return alpha, sweeps, capped, inner_res, kkt


def restart_averages(state):
    """Collapse the running averages onto the current sharp iterate.

    The averaged pair (W_tilde, P-extrapolation) only reports progress; the
    sharp iterates (v, lam) drive the recursion.  Resetting the average to v
    and the schedule scalars to their initial values discards the O(1/k)
    transient the average carries from the starting point without touching
    the fixed points of the map.  Stopping then reflects the sharp iterate,
    which settles far sooner.  solve_relaxed calls this when _restart_due
    says so and after every stop that the certificate rejects; these are
    the only restarts.
    """
    state.W_tilde = state.v.copy()
    state.w = state.P_tilde.copy()
    return _reset_schedule(state)


def _norm(v):
    # sqrt(v . v), the value np.linalg.norm returns, as a float
    return math.sqrt(v.dot(v))


def check_convergence(state, lifted, eps1, eps2):
    """Stopping rule on the coupled feasibility and dual drift residuals.

    The primal residual |A vec(W) + B P| must meet eps_pri = sqrt(m n)
    eps1 + eps2 max(|A vec(W)|, |P|), and the dual drift |P - P_prev|
    eps_dua = p eps1 + eps2 |lam|.  The averaged pair must also meet
    eps_pri with its ergodic stationarity residual theta max(|v - v_r|,
    |w - w_r|): on the l1 schedule theta = 1/(k - k_r + 1), and the sum
    of the sharp pair's stationarity residuals since the last restart
    telescopes to the movement of the sharp pair, so this is their mean.
    It keeps a stop off an average that still swings with the sharp
    pair, as the residuals of the gain rows alone do not.

    Returns (stop, primal_res, dual_res) and sets state.eps_inner, the next
    inner solve's tolerance, for every penalty: 0.1 x the relative primal
    residual primal_res / (1 + max(|A vec(W)|, |P|)), the scale of the
    inner residual, at least INNER_TOL_FLOOR.  B = -I and the rows read
    distinct columns of vec(W), so |B P| = |P|, |A' B dP| = |dP| and
    |A' lam| = |lam|.
    """
    # A vec(W) + B P = A vec(W) - P, with A vec(W) gathered once
    AW = state.W_tilde[lifted.gain_cols]
    pr = _norm(AW - state.P_tilde)
    dr = _norm(state.P_tilde - state.P_prev)
    scale = max(_norm(AW), _norm(state.P_tilde))
    eps_pri = math.sqrt(AW.size) * eps1 + eps2 * scale
    eps_dua = lifted.p * eps1 + eps2 * _norm(state.lam)
    state.eps_inner = max(INNER_TOL_FLOOR, 0.1 * (pr / (1.0 + scale)))
    ergodic = state.theta * max(_norm(state.v - state.v_r),
                                _norm(state.w - state.w_r))
    return (pr <= eps_pri and dr <= eps_dua and ergodic <= eps_pri), pr, dr


def _restart_due(state, kkt):
    """Whether one of PDLP's three tests, sufficient, necessary or
    artificial (see RESTART_SUFFICIENT), holds on kkt, the sharp pair's
    KKT error after this iteration.

    The rules hold in every regime, the accelerated schedule of a
    strongly convex penalty included (O'Donoghue & Candes, Found. Comput.
    Math. 2015).
    """
    return (kkt <= RESTART_SUFFICIENT * state.kkt_r
            or state.kkt < kkt <= RESTART_NECESSARY * state.kkt_r
            or state.k - state.k_r >= RESTART_ARTIFICIAL * state.k)


def solve_relaxed(lifted, penalty, options=SolverOptions(), warm=None,
                  anchor=None):
    """Iterate to a certified stop and return its Solution.

    penalty is a penalties.Penalty; warm and anchor go to init_state.
    When the residual test passes, analysis.certify judges the averaged
    iterate; the run stops only on a certified point, whose certificate
    becomes the Solution.  A strongly convex penalty meets the residual
    test at ACCEL_STOP_SCALE x (eps1, eps2).  Raises InvalidInput unless
    the penalty's weights (if any) have the gain's shape (m, n) and warm
    (if given) fits the lift: p^2 entries in W_tilde and v, m n in
    P_tilde, w and lam, and a dual_state with the blocks of
    inner.zero_state(lifted).  Raises NotConverged (carrying the
    best-effort Solution) if the iteration budget runs out.
    """
    shape = (lifted.m, lifted.n)
    if penalty.weights is not None and penalty.weights.shape != shape:
        raise InvalidInput(f"weights: expected shape {shape}, got "
                           f"{penalty.weights.shape}")
    if warm is not None:
        p2, mn = lifted.p ** 2, lifted.m * lifted.n
        for name, size in (("W_tilde", p2), ("v", p2), ("P_tilde", mn),
                           ("w", mn), ("lam", mn)):
            got = getattr(warm, name).size
            if got != size:
                raise InvalidInput(f"warm: {name} has {got} entries, the "
                                   f"lift needs {size}")
        dual, fit = warm.dual_state, inner.zero_state(lifted)
        if dual is not None and (dual.x.size, dual.slices) != (fit.x.size,
                                                               fit.slices):
            raise InvalidInput(
                f"warm: dual_state has {len(dual.slices)} blocks in "
                f"{dual.x.size} entries, the lift needs {len(fit.slices)} "
                f"in {fit.x.size}")
    state = init_state(lifted, penalty, warm, anchor)
    scale = ACCEL_STOP_SCALE if state.mu_g > 0.0 else 1.0
    eps1, eps2 = scale * options.eps1, scale * options.eps2
    trace, t0, converged = [], time.perf_counter(), False
    for _ in range(int(options.max_outer)):
        alpha, sweeps, capped, inner_res, kkt = outer_iteration(
            state, lifted, penalty, options)
        stop, pr, dr = check_convergence(state, lifted, eps1, eps2)
        P_mat = state.P_tilde.reshape(lifted.m, lifted.n, order="F")
        obj = float(lifted.vec_R() @ state.W_tilde) + penalty.value(P_mat)
        row = (state.k, state.theta, alpha, pr, dr, obj, sweeps,
               (time.perf_counter() - t0) * 1e3, int(capped))
        if stop:
            # The residual pair only watches the equality rows; the stop
            # stands only where the averaged iterate is certified.
            cert = analysis.certify(lifted, lifted.unvec(state.W_tilde),
                                    P_mat, "converged")
            converged = cert["certified"]
            if not converged:
                failed = [c for c, ok in cert["conditions"].items() if not ok]
                log.info("iteration %d: residuals met but %s failed; "
                         "continuing", state.k, ", ".join(failed))
        # a rejected stop restarts too: the average still carries the
        # loose early iterates that the certificate rejected
        restarted = not converged and (stop or _restart_due(state, kkt))
        state.kkt = kkt
        if restarted:
            restart_averages(state)
        trace.append(row + (int(restarted), inner_res))
        if converged:
            break

    status = "converged" if converged else "max_iter"
    sol = analysis.build_solution(
        lifted, state.W_tilde, state.P_tilde, trace, status,
        penalty.kind, penalty.gamma, dr, multiplier=state.lam.copy(),
        weights=penalty.weights,
        pq_params=penalty.pq_params if penalty.kind == "pq" else None,
        cert=cert if converged else None)
    state.curvature.clear()
    sol.final_state = state
    if not converged:
        raise NotConverged(sol, pr, dr)
    return sol
