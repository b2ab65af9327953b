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
forward; the dual objective never increases.  The primal recovers as
s = Minv (q - L(X)).
"""

from dataclasses import dataclass

import numpy as np

from .cones import max_eigenvalue, sym_eigh
from .errors import MaxSweepsExceeded
from .vectorize import svec, unsvec


@dataclass
class DualState:
    """PSD multipliers in isometric svec coordinates.

    x0 has length p(p+1)/2; each entry of x_list has length n(n+1)/2.
    """

    x0: np.ndarray
    x_list: list

    def copy(self):
        return DualState(self.x0.copy(), [x.copy() for x in self.x_list])


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
            out = out + x @ J
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
    S = (V * np.maximum(w, 0.0)) @ V.T
    return svec(S, maps)


def sgs_sweep(state, data):
    """One backward pass over the vertex blocks, an X0 update, one forward pass."""
    lifted = data.lifted
    maps_n, maps_p = lifted.svec_n, lifted.svec_p
    q, kq = data.q_k, lifted.kappa_q
    x0 = state.x0
    xs = [x.copy() for x in state.x_list]
    ell = data.ell(state)
    nv = len(xs)

    for i in reversed(range(nv)):
        g = kq + data.JM_list[i] @ (q - ell)
        new = _project(xs[i] + g / data.rho_list[i], maps_n)
        ell = ell + (new - xs[i]) @ lifted.J_list[i]
        xs[i] = new

    step0 = data.minv * (q - ell)
    new0 = _project(x0 - step0 / data.rho0, maps_p)
    ell = ell - (new0 - x0)
    x0 = new0

    for i in range(nv):
        g = kq + data.JM_list[i] @ (q - ell)
        new = _project(xs[i] + g / data.rho_list[i], maps_n)
        ell = ell + (new - xs[i]) @ lifted.J_list[i]
        xs[i] = new

    return DualState(x0=x0, x_list=xs)


def block_gradients(state, data):
    """Gradients of the dual objective at the current state."""
    ell = data.ell(state)
    grad0 = data.minv * (data.q_k - ell)
    grads = [-(data.lifted.kappa_q + JM @ (data.q_k - ell))
             for JM in data.JM_list]
    return grad0, grads


def dual_residual(state, data):
    """Relative fixed-point error of the projected optimality map."""
    lifted = data.lifted
    grad0, grads = block_gradients(state, data)
    blocks = [(state.x0, grad0, lifted.svec_p)]
    blocks += [(x, g, lifted.svec_n) for x, g in zip(state.x_list, grads)]
    errs = []
    for x, g, maps in blocks:
        # norms as sqrt(v @ v), the value np.linalg.norm returns
        r = x - _project(x - g, maps)
        errs.append(np.sqrt(r @ r) / (1.0 + np.sqrt(x @ x) + np.sqrt(g @ g)))
    return float(max(errs))


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


def recover_primal(data, state):
    """Primal solution in isometric coordinates: s = Minv (q - L(X))."""
    return data.minv * (data.q_k - data.ell(state))


def solve_inner(lifted, d_k, w_k, v_tilde_k, alpha_k, theta_k, eta_f_k,
                eps, max_sweeps, warm_start=None, cache=None):
    """Run sweeps until the dual residual drops below eps.

    Returns (v, sweeps_used, state, cache) with v = vec(W) rebuilt from
    the recovered half-vectorization; W is symmetric by construction.
    Raises MaxSweepsExceeded (carrying the best iterate) at the cap.
    """
    data, cache = assemble_dual_data(lifted, d_k, w_k, v_tilde_k,
                                     alpha_k, theta_k, eta_f_k, cache)
    state = warm_start.copy() if warm_start is not None else zero_state(lifted)
    sweeps = 0
    err = np.inf
    while sweeps < max_sweeps:
        state = sgs_sweep(state, data)
        sweeps += 1
        err = dual_residual(state, data)
        if err < eps:
            break
    s = recover_primal(data, state)
    v = unsvec(s, lifted.svec_p).reshape(-1, order="F")
    if err < eps:
        return v, sweeps, state, cache
    raise MaxSweepsExceeded(v=v, residual=err, state=state, sweeps=sweeps)
