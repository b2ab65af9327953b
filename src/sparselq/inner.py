"""Inner solver for the parameter-matrix subproblem.

Each outer iteration needs the minimizer, over the cone-feasible set
{W >= 0, Psi_i(W) >= 0 for all vertices}, of a strongly convex quadratic

    <d, vec(W)> + sigma1 ||A vec(W) + b||^2 + sigma2 ||vec(W) - vt||^2.

In isometric half-vectorization coordinates s = svec(W) this reads
<g0, s> + sigma1 ||AD s + b||^2 + sigma2 ||s - st||^2, with D the
duplication map, and its Lagrange dual over the PSD multipliers
X = (X0, X1, ..., XM) is a convex quadratic on a product of PSD cones,

    minimize  Th(X) = (1/2) (q - L(X))' Minv (q - L(X)) - <kq, sum_i x_i> + c,
    with      L(X) = g0 - x0 + sum_i J_i' x_i,
              M = 2 sigma1 (AD)'(AD) + 2 sigma2 I,
              q = -2 sigma1 (AD)' b + 2 sigma2 st.

Every row of A selects a single entry of W, so (AD)'(AD) is diagonal
(lifted.gram_diag) and so is M: Minv is carried as the vector minv and
applied entrywise, and AD is applied as the gather of A after D.

Each block update below is a projected gradient step with step 1/rho_i
(rho_i the largest eigenvalue of the block curvature), which is exactly
the majorized single-projection update: the curvature terms cancel and
the step reduces to an eigenvalue clamp of x_i + (grad-free part)/rho_i.
One sweep runs backward over the vertex blocks, updates X0, then runs
forward; a single sweep never increases the dual objective.  The primal
recovers as s = Minv (q - L(X)).

By the block sGS decomposition theorem (Li, Sun & Toh, Math. Program.
2019) one sweep is one proximal step on the whole dual, so solve_inner
accelerates it as in ABCD (Sun, Toh & Yang, SIAM J. Optim. 2016): each
sweep starts from the extrapolated point y = x + ((t - 1)/t+)(x - x_prev),
t+ = (1 + sqrt(1 + 4 t^2))/2, at the cost of a plain sweep.  The
accelerated sequence need not be monotone; whenever the sweep's step
points against the momentum, <y - x, x - x_prev> > 0, the momentum
restarts at t = 1 (O'Donoghue & Candes, Found. Comput. Math. 2015).
Only sweep outputs are tested, returned or warm-started from: y may lie
outside the cones, a sweep output never does.  L is affine, so L(y)
follows the same extrapolation and a solve evaluates L afresh only at
its start.

The stop test needs no eigendecomposition of its own.  dual_residual, the
exact relative error of the projected optimality map, is

    max_j |x_j - Pi(x_j - grad_j Th(X))| / (1 + |x_j| + |grad_j Th(X)|).

Block j of a sweep last moved as x_j+ = Pi(y_j - grad_j Th(P_j)/rho_j),
with y_j its value before and P_j the partial state at that moment, so
z_j = rho_j (y_j - x_j+) - grad_j Th(P_j) lies in the normal cone at
x_j+, i.e. x_j+ = Pi(x_j+ + z_j).  Pi is nonexpansive, so at the sweep
output X+

    |x_j+ - Pi(x_j+ - grad_j Th(X+))| <= |z_j + grad_j Th(X+)|,

whatever y_j is, in the cones or not.  sgs_sweep divides the right-hand
side by the same denominator and returns the max as X+.residual, an
upper bound on dual_residual(X+); solve_inner stops when it drops below
eps.  dual_residual stays the exact reference, computed only for the
residual a capped solve reports.
"""

import math
from dataclasses import dataclass

import numpy as np

from .cones import max_eigenvalue, sym_eigh
from .errors import MaxSweepsExceeded
from .vectorize import svec, unsvec


@dataclass
class DualState:
    """PSD multipliers in isometric svec coordinates.

    x0 has length p(p+1)/2; each entry of x_list has length n(n+1)/2.
    residual is an upper bound on dual_residual(self, data) for the data
    of the sweep that produced the state; inf for any other state.
    """

    x0: np.ndarray
    x_list: list
    residual: float = np.inf

    def blocks(self):
        return [self.x0] + self.x_list

    def extrapolated(self, prev, beta):
        """self + beta (self - prev), block by block."""
        return DualState(self.x0 + beta * (self.x0 - prev.x0),
                         [x + beta * (x - z)
                          for x, z in zip(self.x_list, prev.x_list)])


def zero_state(lifted):
    return DualState(np.zeros(lifted.svec_p.size),
                     [np.zeros(lifted.svec_n.size) for _ in lifted.F_list])


@dataclass
class CurvatureCache:
    """Sigma-dependent data, reusable while (sigma1, sigma2) repeat.

    minv is the diagonal of Minv; JM_list holds J_i Minv and rho_list the
    largest eigenvalue of each J_i Minv J_i'.  With the default scalar
    schedule of the l1 regime the sigmas are constant, so this cache
    removes nearly all assembly cost there.
    """

    key: tuple
    minv: np.ndarray
    JM_list: list
    rho0: float
    rho_list: list


@dataclass
class DualData:
    """Per-outer-iteration data of the dual problem."""

    lifted: object
    sigma1: float
    sigma2: float
    minv: np.ndarray
    JM_list: list
    rho0: float
    rho_list: list
    q_k: np.ndarray
    g0: np.ndarray
    s_tilde: np.ndarray
    b_tilde: np.ndarray

    def ell(self, state):
        out = self.g0 - state.x0
        for J, x in zip(self.lifted.J_list, state.x_list):
            out = out + x.dot(J)
        return out


def _sym_svec(vec_coords, maps):
    """Adjoint of the isometric duplication map: symmetrize then svec."""
    G = vec_coords.reshape(maps.dim, maps.dim, order="F")
    return svec(0.5 * (G + G.T), maps)


def assemble_dual_data(lifted, d_k, w_k, v_tilde_k, alpha_k, theta_k, eta_f_k,
                       cache=None):
    """Build the dual problem data; reuses cache when the sigmas repeat.

    Returns (data, cache).
    """
    if not (alpha_k > 0 and theta_k > 0 and eta_f_k > 0):
        raise ValueError("alpha, theta, eta_f must be positive")
    sigma1 = alpha_k / (2.0 * theta_k)
    sigma2 = eta_f_k / (2.0 * alpha_k)

    key = (sigma1, sigma2)
    if cache is None or cache.key != key:
        minv = 1.0 / (2.0 * sigma1 * lifted.gram_diag + 2.0 * sigma2)
        JM_list = [J * minv for J in lifted.J_list]
        rho_list = [max(max_eigenvalue(JM @ J.T), 1e-30)
                    for JM, J in zip(JM_list, lifted.J_list)]
        cache = CurvatureCache(key=key, minv=minv, JM_list=JM_list,
                               rho0=float(minv.max()), rho_list=rho_list)

    g0 = _sym_svec(d_k, lifted.svec_p)
    s_tilde = _sym_svec(v_tilde_k, lifted.svec_p)
    b_tilde = lifted.op.apply_B(w_k)
    ADt_b = _sym_svec(lifted.op.apply_At(b_tilde), lifted.svec_p)
    q = -2.0 * sigma1 * ADt_b + 2.0 * sigma2 * s_tilde

    return DualData(lifted=lifted, sigma1=sigma1, sigma2=sigma2,
                    minv=cache.minv, JM_list=cache.JM_list,
                    rho0=cache.rho0, rho_list=cache.rho_list,
                    q_k=q, g0=g0, s_tilde=s_tilde, b_tilde=b_tilde), cache


def _project(x, maps):
    """PSD projection in isometric coordinates: unpack, clamp, repack."""
    S = unsvec(x, maps)
    w, V = sym_eigh(S)
    if w[0] >= 0.0:
        return x
    S = np.dot(V * np.maximum(w, 0.0), V.T)
    return svec(S, maps)


def _gradients(data, ell):
    """Block gradients of the dual objective at a state X with L(X) = ell:
    [grad_0, grad_1, ..., grad_M]."""
    r = data.q_k - ell
    return [data.minv * r] + [-(data.lifted.kappa_q + JM.dot(r))
                              for JM in data.JM_list]


def _norm(v):
    # sqrt(v . v), the value np.linalg.norm returns, as a float
    return math.sqrt(v.dot(v))


def _relative_error(triples):
    """max over blocks of |r| / (1 + |x| + |g|), for (r, x, g) triples.

    A NaN anywhere gives NaN, which no tolerance test passes.
    """
    worst = 0.0
    for r, x, g in triples:
        err = _norm(r) / (1.0 + _norm(x) + _norm(g))
        if math.isnan(err):
            return err
        worst = max(worst, err)
    return worst


def sgs_sweep(state, data, ell=None):
    """One backward pass over the vertex blocks, an X0 update, one forward pass.

    ell is L(state) when the caller already has it.  Returns (X+, L(X+));
    X+.residual bounds dual_residual(X+, data) from above (see the module
    docstring), at no eigendecomposition beyond the sweep's own.
    """
    # .dot rather than @ on this hot path: the same BLAS call, about 1 us
    # less overhead per product on blocks this small
    lifted = data.lifted
    maps_n, maps_p = lifted.svec_n, lifted.svec_p
    q, kq = data.q_k, lifted.kappa_q
    if ell is None:
        ell = data.ell(state)
    xs = list(state.x_list)
    nv = len(xs)

    for i in reversed(range(nv)):
        g = kq + data.JM_list[i].dot(q - ell)
        new = _project(xs[i] + g / data.rho_list[i], maps_n)
        ell = ell + (new - xs[i]).dot(lifted.J_list[i])
        xs[i] = new

    step0 = data.minv * (q - ell)
    x0 = _project(state.x0 - step0 / data.rho0, maps_p)
    dx = x0 - state.x0
    ell = ell - dx
    # z_j = rho_j (y_j - x_j+) - grad_j(P_j) of each block's last update
    zs = [-data.rho0 * dx - step0]

    for i in range(nv):
        g = kq + data.JM_list[i].dot(q - ell)
        new = _project(xs[i] + g / data.rho_list[i], maps_n)
        dx = new - xs[i]
        ell = ell + dx.dot(lifted.J_list[i])
        zs.append(g - data.rho_list[i] * dx)
        xs[i] = new

    grads = _gradients(data, ell)
    bound = _relative_error((z + g, x, g)
                            for z, x, g in zip(zs, [x0] + xs, grads))
    return DualState(x0=x0, x_list=xs, residual=bound), ell


def dual_residual(state, data):
    """Relative fixed-point error of the projected optimality map."""
    lifted = data.lifted
    grads = _gradients(data, data.ell(state))
    maps = [lifted.svec_p] + [lifted.svec_n] * len(state.x_list)
    return _relative_error((x - _project(x - g, m), x, g)
                           for x, g, m in zip(state.blocks(), grads, maps))


def dual_objective(state, data):
    """Value of the dual minimization objective Th(X), constants included."""
    r = data.q_k - data.ell(state)
    xsum = np.zeros(data.lifted.svec_n.size)
    for x in state.x_list:
        xsum = xsum + x
    return float(0.5 * r @ (data.minv * r)
                 - data.lifted.kappa_q @ xsum
                 - data.sigma1 * (data.b_tilde @ data.b_tilde)
                 - data.sigma2 * (data.s_tilde @ data.s_tilde))


def primal_objective(data, s):
    """Subproblem objective at isometric coordinates s."""
    lifted = data.lifted
    res = lifted.op.apply_A(lifted.svec_p.D_iso @ s) + data.b_tilde
    diff = s - data.s_tilde
    return float(data.g0 @ s + data.sigma1 * (res @ res)
                 + data.sigma2 * (diff @ diff))


def recover_primal(data, state, ell=None):
    """Primal solution in isometric coordinates: s = Minv (q - L(X)).

    ell is L(state) when the caller already has it.
    """
    if ell is None:
        ell = data.ell(state)
    return data.minv * (data.q_k - ell)


def solve_inner(lifted, d_k, w_k, v_tilde_k, alpha_k, theta_k, eta_f_k,
                eps, max_sweeps, warm_start=None, cache=None):
    """Run extrapolated sweeps until a sweep's residual bound drops below eps.

    Returns (v, sweeps_used, state, cache) with v = vec(W) rebuilt from
    the recovered half-vectorization; W is symmetric by construction.
    state is the last sweep output, never the extrapolated point, and
    state.residual < eps bounds its dual_residual.  Raises
    MaxSweepsExceeded at the cap, carrying the last sweep output and its
    exact dual_residual.
    """
    data, cache = assemble_dual_data(lifted, d_k, w_k, v_tilde_k,
                                     alpha_k, theta_k, eta_f_k, cache)
    state = warm_start if warm_start is not None else zero_state(lifted)
    # L is affine, so L(y) follows the extrapolation from sweep to sweep;
    # only the start needs a fresh L, because g0 moved with the outer step
    ell = data.ell(state)
    y, ell_y, t = state, ell, 1.0
    sweeps = 0
    converged = False
    while sweeps < max_sweeps:
        new, ell_new = sgs_sweep(y, data, ell_y)
        sweeps += 1
        if new.residual < eps:
            state, ell, converged = new, ell_new, True
            break
        if sum((a - b).dot(b - c) for a, b, c in
               zip(y.blocks(), new.blocks(), state.blocks())) > 0.0:
            y, ell_y, t = new, ell_new, 1.0
        else:
            t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
            beta = (t - 1.0) / t_next
            y = new.extrapolated(state, beta)
            ell_y = ell_new + beta * (ell_new - ell)
            t = t_next
        state, ell = new, ell_new
    s = recover_primal(data, state, ell)
    v = unsvec(s, lifted.svec_p).reshape(-1, order="F")
    if converged:
        return v, sweeps, state, cache
    raise MaxSweepsExceeded(v=v, residual=dual_residual(state, data),
                            state=state, sweeps=sweeps)
