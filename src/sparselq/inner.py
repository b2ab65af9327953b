"""Inner solver for the parameter-matrix subproblem.

Each outer iteration needs the minimizer, over the cone-feasible set
{W >= 0, Psi_i(W) >= 0 for all vertices}, of a strongly convex quadratic

    <d, vec(W)> + sigma1 ||A vec(W) + b||^2 + sigma2 ||vec(W) - vt||^2.

In isometric half-vectorization coordinates s = svec(W) this reads
<g0, s> + sigma1 ||AD s + b||^2 + sigma2 ||s - st||^2, with D = unsvec
as a map from s to vec(W), and its Lagrange dual over the PSD multipliers
X = (X0, X1, ..., XM) is a convex quadratic on a product of PSD cones,

    minimize  Th(X) = (1/2) (q - L(X))' Minv (q - L(X))
                      - sum_i <kq_i, x_i> + c,
    with      L(X) = g0 - x0 + sum_i J_i' x_i,
              M = 2 sigma1 (AD)'(AD) + 2 sigma2 I,
              q = -2 sigma1 (AD)' b + 2 sigma2 st.

J_i = lifted.J_list[i] and kq_i, row i of lifted.kappa_q, state vertex
i's constraint in the conditioned form S_i Theta_i(W) S_i^T <= 0 of
model.LiftedProblem: x_i is that block's multiplier, and
X_i = S_i' unsvec(x_i) S_i the multiplier of Theta_i(W) <= 0.  The lift
picks S_i to condition the block curvature H_i below, so every step of
this module, the majorized one included, runs in those coordinates, at
no extra cost per sweep.

Every row of A selects a single entry of W, so (AD)'(AD) is diagonal
(lifted.gram_diag) and so is M: Minv is carried as the vector minv and
applied entrywise.  b = B w_k = -w_k, and the gain rows read the
entries W[n + i, j] below the diagonal, so -2 sigma1 (AD)' b adds
2 sigma1 (sqrt(2)/2) w_k to the svec coordinates of those entries.

The subproblem holds the coordinates lifted.held at zero exactly: W1's
n(n-1)/2 off-diagonal ones, since the lift asks W1 to be diagonal, and
the entry W[n + i, j] of each forced zero (i, j).  Its variable is s on
the other, free coordinates.  The dual above is that problem's once
Minv is M^-1 on the free coordinates and 0 on the held ones, so minv
carries those zeros: s = Minv (q - L(X)) is 0.0 there for every X, and
so is every average of such s.  The block curvatures
H_i = J_i Minv J_i' sum over the free columns of J_i alone.
minv, J_i Minv and H_i depend on the sigmas alone.  assemble_dual_data
builds them with one eigendecomposition of H_i per vertex, which gives
both the step constant rho_i = lambda_max(H_i) and, unless H_i is near
singular, its inverse, and reuses those of an earlier call of the same
solve whose sigmas are equal bit for bit: on the l1 schedule they are
equal on every iteration, and every restart of the accelerated schedule
replays the pairs it met before.

Block i of the dual objective is the quadratic with Hessian H_i and
gradient -g_i, g_i = kq_i + J_i s, on the PSD cone.  A vertex block whose
last update left it positive definite first tries the unconstrained
block minimizer x_i + H_i^-1 g_i: if that point passes a Cholesky test
it lies inside the cone, so it is the exact cone-constrained block
minimizer, and the block takes it.  Otherwise, and always for X0 and
for a block with no stored inverse, the update is the majorized step: a
projected gradient step with step 1/rho_i, an eigenvalue clamp of
x_i + g_i/rho_i.  X0 multiplies W >= 0, so complementary slackness
makes it singular at a solution (X0 W = 0 with W != 0): its exact
block minimizer x0 - M s is rarely inside the cone, and its projection
always eigendecomposes.  One sweep runs backward over the vertex blocks,
updates X0, then runs forward; each update minimizes an upper bound of
the block objective that is tight at the block's current value, so a
single sweep never increases the dual objective.  The primal recovers
as s = Minv (q - L(X)).

By the block sGS decomposition theorem (Li, Sun & Toh, Math. Program.
2019) one sweep is one proximal step on the whole dual, so solve_inner
accelerates it as in ABCD (Sun, Toh & Yang, SIAM J. Optim. 2016): each
sweep starts from the extrapolated point y = x + ((t - 1)/t+)(x - x_prev),
t+ = (1 + sqrt(1 + 4 t^2))/2, at the cost of a plain sweep.  The
accelerated sequence need not be monotone; whenever the sweep's step
points against the momentum, <y - x, x - x_prev> > 0, the momentum
restarts at t = 1 (O'Donoghue & Candes, Found. Comput. Math. 2015).
Only sweep outputs are tested, returned or warm-started from: y may lie
outside the cones, a sweep output never does.

A DualState is one contiguous vector x = (x0, x1, ..., xM), and
blocks() is its one view by block, a list of views into x, so the
restart test and the extrapolation are one vector expression each on
d = x+ - x.  The sweep carries the primal s = Minv (q - L(X)) rather
than L(X): a vertex gradient is -(kq_i + J_i s), the X0 gradient is s
itself, and a block update dx_i moves s by -dx_i' (J_i Minv), the
product assemble_dual_data forms for rho_i anyway.  s is affine in X, so s(y) follows the same extrapolation,
a solve evaluates s afresh only at its start, and the primal it returns
is the s it carries.

The stop test needs no eigendecomposition of its own.  dual_residual, the
exact relative error of the projected optimality map, is

    max_j |x_j - Pi(x_j - grad_j Th(X))| / (1 + |x_j| + |grad_j Th(X)|).

Block j of a sweep last moved either by a majorized step,
x_j+ = Pi(y_j - grad_j Th(P_j)/rho_j), with y_j its value before and P_j
the partial state at that moment, so that z_j = rho_j (y_j - x_j+) -
grad_j Th(P_j) lies in the normal cone at x_j+; or by an exact step to a
positive definite x_j+, where the normal cone is {0} and z_j = 0, with
no rounding of the step entering the bound.  Either way
x_j+ = Pi(x_j+ + z_j), and Pi is nonexpansive, so at the sweep output X+

    |x_j+ - Pi(x_j+ - grad_j Th(X+))| <= |z_j + grad_j Th(X+)|,

whatever y_j is, in the cones or not.  sgs_sweep divides the right-hand
side by the same denominator and returns the max over the blocks as
X+.residual, an upper bound on dual_residual(X+); solve_inner stops when
it drops below eps.  Only a bound below eps is read, so given eps the
sweep scores X0's term first, its gradient being the s it holds, then
the vertex blocks in forward order, and stops at the first term >= eps:
that term is X+.residual, the blocks after it are not scored, and a
failing sweep most often skips every vertex gradient.  A sweep with no
term >= eps scores every block and reports the full max.  dual_residual
stays the exact reference, computed only for the residual a capped
solve reports.
"""

import math
from dataclasses import dataclass

import numpy as np

from .cones import positive_definite, sym_eigh
from .errors import MaxSweepsExceeded
from .vectorize import svec, sym_svec, unsvec


class DualState:
    """PSD multipliers in isometric svec coordinates, stored flat.

    x is the concatenation (x0, x1, ..., xM), held as given, not copied,
    and slices gives each block's place in it.  blocks() is the one view
    by block: [x0, x1, ..., xM], views into x of length p(p+1)/2 for X0
    and n(n+1)/2 for each vertex block.  For the output of a sweep on
    data, residual below the sweep's eps (or from a sweep given none) is
    the full bound, an upper bound on dual_residual(self, data); any
    other is the term of some block that is >= eps (see sgs_sweep).  It
    is inf for a state no sweep produced.
    """

    def __init__(self, x, slices, residual=np.inf):
        self.x, self.slices, self.residual = x, slices, residual

    def blocks(self):
        return [self.x[sl] for sl in self.slices]


def zero_state(lifted):
    ends = np.cumsum([0, lifted.svec_p.size]
                     + [lifted.svec_n.size] * len(lifted.F_list)).tolist()
    return DualState(np.zeros(ends[-1]),
                     [slice(a, b) for a, b in zip(ends[:-1], ends[1:])])


# Below this ratio of its extreme eigenvalues a block curvature is
# treated as singular: the block keeps the majorized step.
HINV_FLOOR = 1e-12
# Bytes of curvature arrays one solve's cache may hold, see
# assemble_dual_data; read at call time.
CURVATURE_CACHE_BYTES = 1 << 20


@dataclass
class DualData:
    """Per-outer-iteration data of the dual problem.

    q_k and g0 are the q and g0 of the module docstring, at
    sigma1 = alpha/(2 theta) and sigma2 = eta_f/(2 alpha).
    minv is the diagonal of Minv, rho0 its largest entry, JM_list the
    products J_i Minv, rho_list the largest eigenvalue of each block
    curvature H_i = J_i Minv J_i' and hinv_list its inverse, or None where
    the smallest eigenvalue of H_i is below HINV_FLOOR times the largest.
    These depend on (sigma1, sigma2) only, so calls of assemble_dual_data
    that share a cache and a sigma pair share them.
    pd holds, per vertex block, whether the block's last update left it
    positive definite; for a block with an inverse it selects the step:
    the exact block minimizer is tried only when it is True.  Every call
    of assemble_dual_data, so every outer iteration, starts it all True.
    """

    lifted: object
    minv: np.ndarray
    rho0: float
    rho_list: list
    hinv_list: list
    JM_list: list
    q_k: np.ndarray
    g0: np.ndarray
    pd: list


def _curvature(lifted, sigma1, sigma2):
    """(minv, rho0, rho_list, hinv_list, JM_list) of a sigma pair."""
    minv = 1.0 / (2.0 * sigma1 * lifted.gram_diag + 2.0 * sigma2)
    # the held coordinates stay at zero: s is 0.0 there
    minv[lifted.held] = 0.0
    JM_list = [J * minv for J in lifted.J_list]
    rho_list, hinv_list = [], []
    # NaN data gives NaN factors, or EigFailure where LAPACK fails on it
    with np.errstate(invalid="ignore"):
        for J, JM in zip(lifted.J_list, JM_list):
            w, V = sym_eigh(JM.dot(J.T))
            rho_list.append(max(float(w[-1]), 1e-30))
            # false for NaN and for a singular or zero H_i as well
            hinv_list.append((V / w).dot(V.T) if w[0] > HINV_FLOOR * w[-1]
                             else None)
    return minv, float(minv.max()), rho_list, hinv_list, JM_list


def assemble_dual_data(lifted, d_k, w_k, v_tilde_k, alpha_k, theta_k, eta_f_k,
                       cache=None):
    """Build the dual problem data, curvature included.

    cache, a dict owned by the caller (one solve), holds one curvature
    entry per sigma pair the solve has met: a restart replays the pairs
    of the schedule, and a call with a pair met before, bit for bit,
    reuses its entry.  The cache holds at most CURVATURE_CACHE_BYTES of
    arrays, counting each entry at the size of minv, every J_i Minv and
    every H_i^-1; a new entry that would overflow it clears it first, so
    where one entry is above the budget the cache keeps the last pair
    alone.  Returns (data, data.rho_list), with the same rho_list object
    on reuse: the pair stays because bench/tracer.py counts curvature
    rebuilds from result[1], and a bare DualData would make every traced
    run raise TypeError.
    """
    if not (alpha_k > 0 and theta_k > 0 and eta_f_k > 0):
        raise ValueError("alpha, theta, eta_f must be positive")
    sigma1 = alpha_k / (2.0 * theta_k)
    sigma2 = eta_f_k / (2.0 * alpha_k)

    cache = {} if cache is None else cache
    key = (sigma1, sigma2)
    if key not in cache:
        t_p, t_n = lifted.svec_p.size, lifted.svec_n.size
        entry_bytes = 8 * (t_p + lifted.n_vertices * t_n * (t_p + t_n))
        if (len(cache) + 1) * entry_bytes > CURVATURE_CACHE_BYTES:
            cache.clear()
        cache[key] = _curvature(lifted, sigma1, sigma2)
    minv, rho0, rho_list, hinv_list, JM_list = cache[key]

    maps = lifted.svec_p
    q = 2.0 * sigma2 * sym_svec(v_tilde_k, maps)
    q[lifted.gain_coords] += 2.0 * sigma1 * (w_k * math.sqrt(0.5))

    return DualData(lifted=lifted, minv=minv, rho0=rho0,
                    rho_list=rho_list, hinv_list=hinv_list, JM_list=JM_list,
                    q_k=q, g0=sym_svec(d_k, maps),
                    pd=[True] * len(rho_list)), rho_list


def _project(x, maps):
    """PSD projection in isometric coordinates: unpack, clamp, repack.

    Returns the projection and whether x is positive definite.
    """
    w, V = sym_eigh((x * maps.plain_scale)[maps.coord])
    if w[0] >= 0.0:
        return x, w[0] > 0.0
    return svec((V * np.maximum(w, 0.0)).dot(V.T), maps), False


def _gradients(data, s):
    """Block gradients of the dual objective at a state X with primal
    s = Minv (q - L(X)), formed as they are iterated: grad_0, grad_1,
    ..., grad_M."""
    yield s
    for kq, J in zip(data.lifted.kappa_q, data.lifted.J_list):
        yield -(kq + J.dot(s))


def _relative_error(triples, eps=None):
    """max over blocks of |r| / (1 + |x| + |g|), for (r, x, g) triples.

    Given eps, the first term >= eps instead, and the triples after it
    are not drawn.  A NaN anywhere in a max gives NaN, which no
    tolerance test passes.
    """
    errs = []
    for r, x, g in triples:
        # each norm is sqrt(v . v), the value np.linalg.norm returns
        err = (math.sqrt(r.dot(r))
               / (1.0 + math.sqrt(x.dot(x)) + math.sqrt(g.dot(g))))
        if eps is not None and err >= eps:
            return err
        errs.append(err)
    # max() keeps a NaN only in first place; the sum keeps it anywhere
    return math.nan if math.isnan(sum(errs)) else max(errs)


def _vertex_step(x, g, i, data):
    """Update of vertex block i from x, with g = kq_i + J_i s.

    Returns (x+, exact): the exact block minimizer x + H_i^-1 g when the
    block's last update left it positive definite and this point passes
    the Cholesky test, else the majorized projected step.  Sets the
    block's entry of data.pd.
    """
    maps, hinv = data.lifted.svec_n, data.hinv_list[i]
    if data.pd[i] and hinv is not None:
        new = x + hinv.dot(g)
        if positive_definite(unsvec(new, maps)):
            return new, True
    new, data.pd[i] = _project(x + g / data.rho_list[i], maps)
    return new, False


def sgs_sweep(state, data, s=None, eps=None):
    """One backward pass over the vertex blocks, an X0 update, one forward pass.

    s is recover_primal(data, state) when the caller already has it.
    Returns (X+, s(X+)).  Without eps, X+.residual bounds
    dual_residual(X+, data) from above (see the module docstring), at no
    eigendecomposition beyond the sweep's own.  Given eps, the bound is
    scored X0 first, then the vertex blocks forward, only up to the
    first block term >= eps, which is then X+.residual; a bound below
    eps is the full one.  eps leaves X+, s(X+) and data.pd as they are
    without it.  Neither state nor s is written to.  A NaN in the data
    gives a NaN bound, unless a block term before it is >= eps, or
    EigFailure where LAPACK fails on it.
    """
    # .dot rather than @ on this hot path: the same BLAS call, about 1 us
    # less overhead per product on blocks this small
    kq = data.lifted.kappa_q
    s = recover_primal(data, state) if s is None else s.copy()
    J_list, JM_list, rho_list = data.lifted.J_list, data.JM_list, data.rho_list
    # xs[0] is X0 and xs[i + 1] vertex block i; a sweep rebinds its
    # entries and never writes into the input's blocks
    xs = state.blocks()

    # a Cholesky test that fails sets the invalid flag (see cones)
    with np.errstate(invalid="ignore"):
        for i in reversed(range(len(rho_list))):
            x = xs[i + 1]
            new, _ = _vertex_step(x, kq[i] + J_list[i].dot(s), i, data)
            s -= (new - x).dot(JM_list[i])
            xs[i + 1] = new

        rho0 = data.rho0
        new, _ = _project(xs[0] - s / rho0, data.lifted.svec_p)
        dx = new - xs[0]
        # z_j = rho_j (y_j - x_j+) - grad_j(P_j) of each block's last
        # update, and 0 after an exact step to an interior point
        zs = [-rho0 * dx - s]
        s += data.minv * dx
        xs[0] = new

        for i, rho in enumerate(rho_list):
            g = kq[i] + J_list[i].dot(s)
            new, exact = _vertex_step(xs[i + 1], g, i, data)
            dx = new - xs[i + 1]
            s -= dx.dot(JM_list[i])
            zs.append(0.0 if exact else g - rho * dx)
            xs[i + 1] = new

    bound = _relative_error(((z + g, x, g) for z, x, g
                             in zip(zs, xs, _gradients(data, s))), eps)
    return DualState(np.concatenate(xs), state.slices, bound), s


def dual_residual(state, data):
    """Relative fixed-point error of the projected optimality map."""
    lifted = data.lifted
    grads = _gradients(data, recover_primal(data, state))
    maps = [lifted.svec_p] + [lifted.svec_n] * len(lifted.J_list)
    with np.errstate(invalid="ignore"):
        return _relative_error((x - _project(x - g, m)[0], x, g)
                               for x, g, m in zip(state.blocks(), grads, maps))


def recover_primal(data, state):
    """Primal solution in isometric coordinates: s = Minv (q - L(X)),
    with L(X) = g0 - x0 + sum_i J_i' x_i."""
    x0, *xs = state.blocks()
    ell = data.g0 - x0
    for J, x in zip(data.lifted.J_list, xs):
        ell = ell + x.dot(J)
    return data.minv * (data.q_k - ell)


def solve_inner(lifted, d_k, w_k, v_tilde_k, alpha_k, theta_k, eta_f_k,
                eps, max_sweeps, warm_start=None, cache=None):
    """Run extrapolated sweeps until a sweep's residual bound drops below eps.

    Returns (v, sweeps_used, state) with v = vec(W) rebuilt from the
    carried primal s; W is symmetric by construction.  state is the last
    sweep output, never the extrapolated point, and state.residual < eps
    bounds its dual_residual.  Raises MaxSweepsExceeded at the cap,
    carrying the last sweep output and its exact dual_residual.  The
    warm start is not written to; cache goes to assemble_dual_data.
    """
    data, _ = assemble_dual_data(lifted, d_k, w_k, v_tilde_k,
                                 alpha_k, theta_k, eta_f_k, cache)
    state = warm_start if warm_start is not None else zero_state(lifted)
    # s is affine in X, so s(y) follows the extrapolation from sweep to
    # sweep; only the start needs a fresh s, because q and g0 moved with
    # the outer step
    s = recover_primal(data, state)
    y, s_y, t = state, s, 1.0
    # every extrapolated point is written into one buffer: a sweep reads
    # its input and keeps no reference to it
    y_buf = DualState(np.empty_like(state.x), state.slices)
    for sweeps in range(1, max_sweeps + 1):
        new, s_new = sgs_sweep(y, data, s_y, eps)
        if new.residual < eps:
            v = unsvec(s_new, lifted.svec_p).reshape(-1, order="F")
            return v, sweeps, new
        d = new.x - state.x
        if (y.x - new.x).dot(d) > 0.0:
            y, s_y, t = new, s_new, 1.0
        else:
            t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
            beta = (t - 1.0) / t_next
            # beta d + x+ rounds as x+ + beta d does
            np.multiply(d, beta, out=y_buf.x)
            y_buf.x += new.x
            y, s_y, t = y_buf, s_new + beta * (s_new - s), t_next
        state, s = new, s_new
    v = unsvec(s, lifted.svec_p).reshape(-1, order="F")
    raise MaxSweepsExceeded(v=v, residual=dual_residual(state, data),
                            state=state, sweeps=max_sweeps)
