"""Closed-loop certification and reporting.

Everything downstream of the solvers lives here: the certificate that
certify derives from (W, P) for the solvers and for verify alike,
Lyapunov and quadratic-cost evaluation, stability margins, sparsity
reports, and impulse-response simulation.  Each vertex's Lyapunov
equation is solved as one dense linear system in vec(W), by numpy, which
bounds the order at MAX_LYAPUNOV_ORDER = 40; validate_plant rejects a
larger plant.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInput, NotHurwitz, SingularW1
from .model import (MAX_LYAPUNOV_ORDER, PlantData, ValidatedPlant,
                    validate_plant)

TRACE_COLUMNS = ("iter", "theta", "alpha", "primal_res", "dual_res",
                 "objective", "inner_sweeps", "wall_ms", "inner_capped",
                 "restarted", "inner_residual")

STAGE_TRACE_COLUMNS = ("sigma", "pass", "h_sigma", "nnz")

# Largest feasibility tolerance the derived primal residual may buy, so
# that a W far off the equality rows cannot loosen the check without bound.
TOL_CEILING = 0.05
# Most samples per channel that simulate_impulse integrates and stores:
# 100 times the default 10 s at dt 0.01, and a bounded array.
MAX_SAMPLES = 100_000
# An entry of a gain counts as zero at most this times max(1, its
# largest magnitude).
ZERO_TOL = 1e-6
# The fields certify derives; True marks those compared on the scale of
# ||W|| (eigenvalue and residual fields, which may sit at rounding level).
CERTIFIED_FIELDS = {"K": False, "J_upper": False, "J_vertex": False,
                    "stable": True, "pattern": False, "n_zeros": False,
                    "primal_res": True, "feasibility": True,
                    "certified": False}


@dataclass
class Solution:
    """Solver output bundle.

    J_upper is the certified upper bound <R, W>; J_vertex holds the exact
    quadratic cost of the recovered gain at every uncertainty vertex
    (inf where the vertex is not stabilized).  stable holds the spectral
    abscissa of each closed-loop vertex.  pattern marks nonzero gain
    entries with 1; n_zeros counts the zeros.  weights and pq_params are
    the penalty's parameters (None for unit weights, and outside the pq
    regime), so that stationarity can be re-checked from the file.  The
    fields before trace, in their order, are the keys of solution.json.
    """

    regime: str
    gamma: float
    status: str
    iterations: int
    J_upper: float
    J_vertex: np.ndarray
    K: np.ndarray
    P: np.ndarray
    W: np.ndarray
    pattern: np.ndarray
    n_zeros: int
    stable: np.ndarray
    primal_res: float
    dual_res: float
    certified: bool
    feasibility: dict = field(default_factory=dict)
    multiplier: np.ndarray = None
    stage_trace: list = field(default_factory=list)
    weights: np.ndarray = None
    pq_params: tuple = None
    trace: list = field(default_factory=list)
    final_state: object = None


def _as_validated(plant):
    if isinstance(plant, ValidatedPlant):
        return plant
    if isinstance(plant, PlantData):
        return validate_plant(plant)
    raise TypeError("expected PlantData or ValidatedPlant")


def stability_check(A, B2, K):
    """Spectral abscissa of A - B2 K (negative iff Hurwitz)."""
    return float(np.max(np.real(np.linalg.eigvals(A - B2 @ K))))


def _frobenius(M):
    """Frobenius norm of M as a float, with no overflow on entries near
    the largest float."""
    return math.hypot(*M.ravel().tolist())


def solve_lyapunov(A_cl, Q_sym):
    """Solve A_cl W + W A_cl^T + Q_sym = 0 for Hurwitz A_cl.

    The equation is solved as one dense linear system,
    (I kron A_cl + A_cl kron I) vec(W) = -vec(Q_sym); an order above
    MAX_LYAPUNOV_ORDER raises InvalidInput.  The solution is symmetrized and
    checked by its backward error: the residual must not exceed
    1e-10 * (||A_cl||_F ||W||_F + ||Q_sym||_F), with one refinement pass
    before giving up.  A singular operator or a residual out of bound
    raises ArithmeticError.  A residual scaled by Q_sym alone would reject
    well-solved equations of far from normal A_cl, whose W is large.
    """
    A_cl = np.asarray(A_cl, dtype=float)
    Q_sym = np.asarray(Q_sym, dtype=float)
    n = A_cl.shape[0]
    if n > MAX_LYAPUNOV_ORDER:
        raise InvalidInput(f"order {n} exceeds the supported scale "
                           f"({MAX_LYAPUNOV_ORDER})")
    margin = float(np.max(np.real(np.linalg.eigvals(A_cl))))
    if margin >= 0:
        raise NotHurwitz(f"spectral abscissa {margin:.3e} >= 0")
    eye = np.eye(n)
    op = np.kron(eye, A_cl) + np.kron(A_cl, eye)
    norm_A, norm_Q = _frobenius(A_cl), _frobenius(Q_sym)

    def solve(rhs):
        # vec is column-major: vec(A W) = (I kron A) vec(W) and
        # vec(W A^T) = (A kron I) vec(W).  A Hurwitz A_cl with an
        # eigenvalue near zero can leave op singular in floating point.
        try:
            W = np.linalg.solve(op, -rhs.reshape(-1, order="F"))
        except np.linalg.LinAlgError as exc:
            raise ArithmeticError(f"lyapunov operator: {exc}") from None
        W = W.reshape(n, n, order="F")
        return 0.5 * (W + W.T)

    def residual(W):
        """The residual, its norm and the norm it may reach."""
        res = A_cl @ W + W @ A_cl.T + Q_sym
        return res, _frobenius(res), 1e-10 * (norm_A * _frobenius(W) + norm_Q)

    # a NaN residual meets no tolerance, and an infinite tolerance (an
    # overflowed ||A_cl|| ||W||) bounds nothing
    W = solve(Q_sym)
    res, err, tol = residual(W)
    if not err <= tol < math.inf:
        W = W + solve(res)
        _, err, tol = residual(W)
        if not err <= tol < math.inf:
            raise ArithmeticError(
                f"lyapunov residual {err:.3e} exceeds {tol:.3e}")
    return W


def h2_cost(plant, K):
    """Quadratic cost Tr((C - D K) Wc (C - D K)^T) per uncertainty vertex.

    Returns an array with one entry per vertex; entries are inf where
    A_i - B2_i K is not Hurwitz, which solve_lyapunov reports.
    """
    vp = _as_validated(plant)
    K = _gain(vp.plant, K)
    CDK = vp.plant.C - vp.plant.D @ K
    out = np.full(len(vp.plant.vertices), np.inf)
    for idx, (Av, Bv) in enumerate(vp.plant.vertices):
        try:
            Wc = solve_lyapunov(Av - Bv @ K, vp.B1B1t)
        except NotHurwitz:
            continue
        out[idx] = float(np.trace(CDK @ Wc @ CDK.T))
    return out


def _gain(plant, K):
    """K as a float array, or InvalidInput naming K unless it is m x n."""
    K = np.asarray(K, dtype=float)
    if K.shape != (plant.m, plant.n):
        raise InvalidInput(f"K: expected shape {(plant.m, plant.n)}, got "
                           f"{K.shape}")
    return K


def sparsity_report(P_or_K):
    """Binary support pattern and zero count.

    An entry counts as zero when its magnitude is at most
    ZERO_TOL * max(1, largest magnitude).
    """
    M = np.asarray(P_or_K, dtype=float)
    thresh = ZERO_TOL * max(1.0, float(np.max(np.abs(M), initial=0.0)))
    pattern = (np.abs(M) > thresh).astype(int)
    return pattern, int(pattern.size - pattern.sum())


def simulate_impulse(plant, K, horizon, dt):
    """Closed-loop impulse responses, one run per disturbance channel.

    Integrates dx/dt = (A - B2 K) x from x(0) = B1 e_j with classical
    fixed-step fourth-order Runge-Kutta, all channels at once.  On this
    linear system one RK4 step multiplies x by the degree-4 Taylor
    polynomial of exp(dt (A - B2 K)), which is formed once.  Returns
    (t, X) where t has length nt and X has shape (l, nt, n).
    """
    if not (dt > 0 and 0 <= horizon < np.inf):
        raise InvalidInput(f"need dt > 0 and a finite horizon >= 0, got "
                           f"dt={dt!r}, horizon={horizon!r}")
    nt = np.floor(horizon / dt + 1e-12) + 1
    if nt > MAX_SAMPLES:
        raise InvalidInput(f"horizon / dt gives {nt:.3g} samples per channel, "
                           f"above the limit of {MAX_SAMPLES}")
    nt = int(nt)
    plant = _as_validated(plant).plant
    h = dt * (plant.A - plant.B2 @ _gain(plant, K))
    eye = np.eye(plant.n)
    step = eye + h @ (eye + h @ (eye + h @ (eye + h / 4) / 3) / 2)
    X = np.empty((plant.l, nt, plant.n))
    X[:, 0] = plant.B1.T
    for s in range(1, nt):
        X[:, s] = X[:, s - 1] @ step.T
    return np.arange(nt) * dt, X


def feasibility_report(lifted, W, P, tol=1e-4):
    """Constraint violations of (W, P) against the lifted feasible set."""
    n = lifted.n
    W1 = W[:n, :n]
    psi_min = min(float(np.linalg.eigvalsh(-lifted.theta_block(W, i))[0])
                  for i in range(lifted.n_vertices))
    offdiag = W1 - np.diag(np.diag(W1))
    gain_gap = float(np.max(np.abs(W[n:, :n] - P), initial=0.0))
    forced = max((float(abs(P[i, j])) for i, j in lifted.forced_zeros),
                 default=0.0)
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


def certify(lifted, W, P, status):
    """Every certified field of a solution, derived from W and P.

    W is symmetrized here, as 0.5 (W + W'), which leaves an exactly
    symmetric W as it is.  Returns a dict of that W, P, the
    CERTIFIED_FIELDS, the feasibility
    tolerance tol and the conditions that certified requires besides
    status "converged".  K = P / diag(W1) keeps the exact zeros of the
    prox; a zero on that diagonal leaves K non-finite and nothing
    certified, and a Lyapunov solve that cannot meet its residual (a
    tiny nonzero diagonal) leaves J_vertex inf.  status is taken as
    given.  tol is min(TOL_CEILING, max(1e-4, 5 primal_res)), 1e-4 for a
    non-finite residual.
    """
    W = 0.5 * (W + W.T)
    W_vec = W.reshape(-1, order="F")
    with np.errstate(divide="ignore", invalid="ignore"):
        K = P / np.diag(W[:lifted.n, :lifted.n])
    stable = J_vertex = np.full(lifted.n_vertices, np.inf)
    if np.all(np.isfinite(K)):
        stable = np.array([stability_check(Av, Bv, K)
                           for Av, Bv in lifted.plant.plant.vertices])
        try:
            J_vertex = h2_cost(lifted.plant, K)
        except ArithmeticError:
            J_vertex = np.full(lifted.n_vertices, np.inf)
    J_upper = float(lifted.vec_R() @ W_vec)
    primal_res = float(np.linalg.norm(
        W_vec[lifted.gain_cols] - P.ravel(order="F")))
    tol = min(TOL_CEILING, max(1e-4, 5.0 * primal_res
                               if math.isfinite(primal_res) else 0.0))
    feas = feasibility_report(lifted, W, P, tol=tol)
    pattern, n_zeros = sparsity_report(P)
    slack = 1e-3 * max(1.0, abs(J_upper))
    conditions = {"margins": bool(np.all(stable < 0)),
                  "cost_bound": J_upper >= float(np.max(J_vertex)) - slack,
                  "feasible": feas["feasible"]}
    return dict(W=W, P=P, K=K, J_upper=J_upper, J_vertex=J_vertex,
                stable=stable, pattern=pattern, n_zeros=n_zeros,
                primal_res=primal_res, feasibility=feas, tol=tol,
                conditions=conditions,
                certified=status == "converged" and all(conditions.values()))


def _close(stored, derived, floor, rtol=1e-9):
    """Whether stored has the JSON kind of derived and equals it.  A
    flag must be a bool and a count or a pattern integers, equal
    exactly; any other field must be numbers (integer or float, not
    bool) within rtol of max(floor, max finite |derived|).  A stored
    string, or an entry of another kind, never agrees."""
    b = np.asarray(derived)
    kinds = {"b": "b", "i": "iu"}.get(b.dtype.kind, "iuf")
    a = np.asarray(stored, dtype=object)
    if (a.shape != b.shape
            or any(np.asarray(v).dtype.kind not in kinds for v in a.flat)):
        return False
    a, b = a.astype(float), b.astype(float)
    with np.errstate(invalid="ignore"):
        gap = np.where(a == b, 0.0, np.abs(a - b))
    scale = max(floor, float(np.max(np.abs(b[np.isfinite(b)]), initial=0.0)))
    return bool(np.all(gap <= (rtol * scale if "f" in kinds else 0.0)))


def agrees(cert, name, stored):
    """Whether a stored copy of the certified field name matches cert,
    by _close's rule; feasibility must hold the same keys as the derived
    report, each compared on its own, its feasible flag as a bool."""
    derived = cert[name]
    floor = float(np.linalg.norm(cert["W"])) if CERTIFIED_FIELDS[name] else 0.0
    if name != "feasibility":
        return _close(stored, derived, floor)
    return (isinstance(stored, dict) and stored.keys() == derived.keys()
            and all(_close(stored[k], v, floor) for k, v in derived.items()))


def stationary(cert, lifted, lam, penalty):
    """Whether the multiplier, -B' lam = lam in P's column-major order,
    lies in the subdifferential of the penalty at P, to max(1e-3, 2 tol).
    A forced zero adds the indicator of P_ij = 0, whose subdifferential
    there is the real line."""
    lam_g = lam.reshape(cert["P"].shape, order="F")
    lo, hi = penalty.subdifferential(cert["P"])
    for (i, j) in lifted.forced_zeros:
        lo[i, j], hi[i, j] = -np.inf, np.inf
    viol = float(np.max(np.maximum(lo - lam_g, lam_g - hi), initial=0.0))
    return viol <= max(1e-3, 2.0 * cert["tol"])


def build_solution(lifted, W_vec, P_vec, trace, status, regime, gamma,
                   dual_res, multiplier=None, weights=None, pq_params=None,
                   cert=None):
    """Assemble a Solution from raw solver state and its certificate.

    cert, certify's result for this (W, P) and status, is taken as
    given; without it the iterate is certified here, and SingularW1 is
    raised when the gain cannot be recovered.  iterations is the number
    of trace rows, one per outer iteration.  dual_res is stored, not
    judged.
    """
    if cert is None:
        cert = certify(lifted, lifted.unvec(W_vec),
                       P_vec.reshape(lifted.m, lifted.n, order="F"), status)
        if not np.all(np.isfinite(cert["K"])):
            raise SingularW1("leading block has a zero diagonal entry")
    return Solution(**{k: cert[k] for k in ("W", "P", *CERTIFIED_FIELDS)},
                    trace=trace or [], status=status, regime=regime,
                    gamma=gamma, iterations=len(trace or ()),
                    dual_res=dual_res, multiplier=multiplier,
                    weights=weights, pq_params=pq_params)
