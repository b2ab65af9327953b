"""Cardinality-targeted synthesis by smooth continuation.

The entry counter is approached through the exponential surrogate
1 - exp(-|t|/sigma), which tends to the 0/1 counter as sigma -> 0.  For
a fixed sigma, a majorize-minimize step linearizes the surrogate at the
current gain parameter, leaving a weighted l1 problem whose weights are
the surrogate derivatives; an anchor on the W side keeps each subproblem
strongly convex.  Stages walk sigma down a geometric ladder, each stage
alternating weight updates with warm-started subproblem solves until the
stage objective settles.
"""

import logging
from dataclasses import dataclass

import numpy as np

from . import analysis, outer, penalties
from .errors import NotConverged

log = logging.getLogger("sparselq")


@dataclass(frozen=True)
class ContinuationOptions:
    """Ladder and alternation controls for the surrogate continuation."""

    sigma0: float = 1.0
    sigma_min: float = 1e-4
    sigma_decay: float = 0.7
    max_passes: int = 50
    pass_tol: float = 1e-5
    prox_weight: float = 10.0


def surrogate_weights(P, sigma):
    """Majorizer weights: the surrogate derivative at the current |P|."""
    return penalties.exp_weight_update(np.abs(np.asarray(P, dtype=float)),
                                       sigma)


def h_sigma_objective(lifted, W_vec, P, gamma, sigma, feas_tol=1e-3):
    """Stage objective <R, W> + gamma * sum(1 - exp(-|P|/sigma)).

    Returns inf when (W, P) is infeasible beyond feas_tol, so that an
    unconverged subproblem cannot masquerade as progress.
    """
    W = lifted.unvec(W_vec)
    W = 0.5 * (W + W.T)
    rep = analysis.feasibility_report(lifted, W, np.asarray(P, dtype=float),
                                      tol=feas_tol)
    if not rep["feasible"]:
        return np.inf
    cfg = penalties.PenaltyConfig(kind="exp_surrogate", gamma=gamma,
                                  sigma=sigma)
    return float(lifted.vec_R() @ W_vec) + penalties.penalty_value(P, cfg)


def _sigma_ladder(opts):
    s = opts.sigma0
    while s >= opts.sigma_min:
        yield s
        s *= opts.sigma_decay


def solve_l0(lifted, gamma, options=outer.SolverOptions(),
             continuation=ContinuationOptions()):
    """Run the continuation and return a certified Solution.

    stage_trace rows are (sigma, pass, h_sigma, nnz).  The reported
    iteration count sums all subproblem iterations.
    """
    m, n = lifted.m, lifted.n
    stage_trace = []
    total_iters = 0
    sol = None
    init = None
    P_mat = np.zeros((m, n))

    for sigma in _sigma_ladder(continuation):
        h_prev = None
        for pass_i in range(continuation.max_passes):
            y = surrogate_weights(P_mat, sigma)
            regime = outer.regime_anchored(gamma, y, continuation.prox_weight)
            if init is None:
                anchor = np.eye(lifted.p).reshape(-1, order="F")
                init = {"anchor": anchor}
            try:
                sol = outer.solve_relaxed(lifted, regime, options, init=init)
            except NotConverged as exc:
                sol = exc.solution
                log.warning("sigma=%.3g pass %d: subproblem hit the "
                            "iteration cap", sigma, pass_i)
            st = sol.final_state
            total_iters += sol.iterations
            P_mat = st.P_tilde.reshape(m, n, order="F")
            init = {"anchor": st.W_tilde.copy(), "W_tilde": st.W_tilde.copy(),
                    "v": st.v.copy(), "P_tilde": st.P_tilde.copy(),
                    "w": st.w.copy(), "lam": st.lam.copy(),
                    "last_primal_res": st.last_primal_res}
            h_cur = h_sigma_objective(lifted, st.W_tilde, P_mat, gamma, sigma)
            nnz = int(np.count_nonzero(sol.pattern))
            stage_trace.append((sigma, pass_i, h_cur, nnz))
            if h_prev is not None:
                if h_cur > h_prev + 1e-9 * max(1.0, abs(h_prev)):
                    log.warning("sigma=%.3g pass %d: stage objective rose "
                                "from %.6g to %.6g", sigma, pass_i,
                                h_prev, h_cur)
                if abs(h_cur - h_prev) <= (continuation.pass_tol
                                           * max(1.0, abs(h_prev))):
                    break
            h_prev = h_cur
        else:
            log.warning("sigma=%.3g: pass budget exhausted", sigma)

    st = sol.final_state
    final = analysis.build_solution(
        lifted, st.W_tilde, st.P_tilde, sol.trace, sol.status, "l0", gamma,
        sol.dual_res, multiplier=st.lam.copy(), stage_trace=stage_trace,
        iterations=total_iters)
    final.final_state = st
    return final
