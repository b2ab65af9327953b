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
from dataclasses import dataclass, replace

import numpy as np

from . import analysis, outer
from .errors import InvalidInput, NotConverged, require_positive

log = logging.getLogger("sparselq")

# A stage ends when a pass changes h_sigma by at most this, relative,
# or after MAX_PASSES passes (read at call time, so a patched value
# holds).
PASS_TOL = 1e-5
MAX_PASSES = 50
# h_sigma is inf where (W, P) is infeasible beyond this tolerance.
FEAS_TOL = 1e-3


@dataclass(frozen=True)
class ContinuationOptions:
    """Ladder and alternation controls for the surrogate continuation.

    The ladder runs sigma0, sigma0 * sigma_decay, ... down to sigma_min,
    and has at least one rung.  A field out of range raises InvalidInput
    naming it.
    """

    sigma0: float = 1.0
    sigma_min: float = 1e-4
    sigma_decay: float = 0.7
    prox_weight: float = 10.0

    def __post_init__(self):
        require_positive(self, "sigma0", "sigma_min", "prox_weight")
        if not 0 < self.sigma_decay < 1:
            raise InvalidInput(f"sigma_decay must lie in (0, 1), "
                               f"got {self.sigma_decay!r}")
        if self.sigma0 < self.sigma_min:
            raise InvalidInput(f"sigma0 ({self.sigma0!r}) is below sigma_min "
                               f"({self.sigma_min!r}): the ladder has no rung")


def surrogate_weights(P, sigma):
    """Majorizer weights: the surrogate derivative (1/sigma) e^(-|P|/sigma).

    Entries live in (0, 1/sigma]; a floor at the smallest positive float
    guards against underflow for |P| >> sigma.
    """
    if sigma <= 0:
        raise InvalidInput("sigma must be > 0")
    x = np.abs(np.asarray(P, dtype=float))
    return np.maximum(np.exp(-x / sigma) / sigma, np.finfo(float).tiny)


def h_sigma_objective(lifted, W_vec, P, gamma, sigma):
    """Stage objective <R, W> + gamma * sum(1 - exp(-|P|/sigma)).

    Returns inf when (W, P) is infeasible beyond FEAS_TOL, so that an
    unconverged subproblem cannot masquerade as progress.
    """
    W = lifted.unvec(W_vec)
    W = 0.5 * (W + W.T)
    P = np.asarray(P, dtype=float)
    rep = analysis.feasibility_report(lifted, W, P, tol=FEAS_TOL)
    if not rep["feasible"]:
        return np.inf
    surrogate = gamma * float(np.sum(1.0 - np.exp(-np.abs(P) / sigma)))
    return float(lifted.vec_R() @ W_vec) + surrogate


def _sigma_ladder(opts):
    s = opts.sigma0
    while s >= opts.sigma_min:
        yield s
        s *= opts.sigma_decay


def solve_l0(lifted, gamma, options=outer.SolverOptions(),
             continuation=ContinuationOptions()):
    """Run the continuation and return the last subsolve's Solution,
    relabelled rather than certified again: regime "l0", the requested
    gamma, no weights, stage_trace rows (sigma, pass, h_sigma, nnz), and
    the iterations of all subproblems summed.
    """
    m, n = lifted.m, lifted.n
    stage_trace = []
    total_iters = 0
    sol = None
    P_mat = np.zeros((m, n))
    mu_f = 1.0 / continuation.prox_weight
    warm, anchor = None, (np.eye(lifted.p).reshape(-1, order="F"), mu_f)

    for sigma in _sigma_ladder(continuation):
        h_prev = None
        for pass_i in range(MAX_PASSES):
            penalty = outer.regime_l1(gamma, surrogate_weights(P_mat, sigma))
            try:
                sol = outer.solve_relaxed(lifted, penalty, options, warm,
                                          anchor)
            except NotConverged as exc:
                sol = exc.solution
                log.warning("sigma=%.3g pass %d: subproblem hit the "
                            "iteration cap", sigma, pass_i)
            st = sol.final_state
            total_iters += sol.iterations
            P_mat = st.P_tilde.reshape(m, n, order="F")
            warm, anchor = st, (st.W_tilde, mu_f)
            h_cur = h_sigma_objective(lifted, st.W_tilde, P_mat, gamma, sigma)
            nnz = int(np.count_nonzero(sol.pattern))
            stage_trace.append((sigma, pass_i, h_cur, nnz))
            if h_prev is not None:
                if h_cur > h_prev + 1e-9 * max(1.0, abs(h_prev)):
                    log.warning("sigma=%.3g pass %d: stage objective rose "
                                "from %.6g to %.6g", sigma, pass_i,
                                h_prev, h_cur)
                if abs(h_cur - h_prev) <= PASS_TOL * max(1.0, abs(h_prev)):
                    break
            h_prev = h_cur
        else:
            log.warning("sigma=%.3g: pass budget exhausted", sigma)

    return replace(sol, regime="l0", gamma=gamma, weights=None,
                   stage_trace=stage_trace, iterations=total_iters)
