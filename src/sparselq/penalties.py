"""The sparsity penalty h(P) and its closed-form proximal maps.

Two penalties reach the splitting, each as a Penalty.  The weighted l1
norm gamma*sum(w_ij |P_ij|) is the convex workhorse; its prox is
entrywise soft thresholding.  The piecewise quadratic penalty keeps the
kink at zero but adds curvature away from it, making the penalty
strongly convex; its prox is a four-branch rational map with a dead band
around zero.  The cardinality regime of sparselq.l0 solves a sequence of
weighted l1 problems.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, is_number

PQ_DEFAULT = (1.0, 1.0, -1.0, 1.0)


@dataclass(frozen=True)
class Penalty:
    """h(P) = gamma * sum(w_ij phi(P_ij)): phi = |t| under kind "l1", the
    piecewise quadratic of pq_params = (a1, a2, b1, b2) under "pq".

    Raises InvalidInput naming the field unless gamma is a finite number
    >= 0 (a bool or a string is not a number, see errors.is_number),
    weights (None: unit weights) are finite and > 0 and, under "pq",
    pq_params are four finite numbers with a1, a2 > 0 and b1 < 0 < b2.
    """

    kind: str
    gamma: float
    weights: np.ndarray = None
    pq_params: tuple = PQ_DEFAULT

    def __post_init__(self):
        if self.kind not in ("l1", "pq"):
            raise InvalidInput(f"unknown penalty kind: {self.kind!r}")
        gamma = self.gamma
        if not (is_number(gamma) and math.isfinite(gamma) and gamma >= 0):
            raise InvalidInput(f"gamma must be a finite number >= 0, got "
                               f"{gamma!r}")
        object.__setattr__(self, "gamma", float(gamma))
        if self.weights is not None:
            w = np.asarray(self.weights, dtype=float)
            if not np.all(np.isfinite(w) & (w > 0)):
                raise InvalidInput("weights must be finite and > 0")
            object.__setattr__(self, "weights", w)
        if self.kind == "pq":
            _check_pq(self.pq_params)
        object.__setattr__(self, "pq_params",
                           tuple(float(x) for x in self.pq_params))

    @property
    def mu_g(self):
        """Strong-convexity modulus of h: gamma min(w) min(a1, a2), or 0."""
        if self.kind == "l1":
            return 0.0
        wmin = 1.0 if self.weights is None else float(self.weights.min())
        return self.gamma * (wmin * min(self.pq_params[:2]))

    def prox(self, Z, rho):
        """argmin_P h(P) + (rho/2) ||P - Z||^2."""
        if self.kind == "pq":
            return prox_piecewise_quadratic(Z, self.gamma, self.weights,
                                            self.pq_params, rho)
        return prox_weighted_l1(Z, self.gamma, self.weights, rho)

    def value(self, P):
        P = np.asarray(P, dtype=float)
        phi = np.abs(P) if self.kind == "l1" else pq_scalar_value(
            P, self.pq_params)
        if self.weights is not None:
            phi = _weights_like(self.weights, P) * phi
        # the method sums as np.sum does, without its dispatch
        return self.gamma * float(phi.sum())

    def subdifferential(self, P):
        """Entrywise bounds (lo, hi) of the subdifferential of h at P."""
        gw = self.gamma * _weights_like(self.weights, P)
        if self.kind == "l1":
            return np.where(P > 0, gw, -gw), np.where(P < 0, -gw, gw)
        a1, a2, b1, b2 = self.pq_params
        face = np.where(P > 0, gw * (a2 * P + b2), gw * (a1 * P + b1))
        return (np.where(P == 0, gw * b1, face),
                np.where(P == 0, gw * b2, face))


def _check_pq(pq_params):
    # four finite numbers first: three would not unpack, and a2 = inf
    # gives a NaN prox at gamma = 0
    if not (isinstance(pq_params, (tuple, list, np.ndarray))
            and len(pq_params) == 4
            and all(is_number(x) and math.isfinite(x) for x in pq_params)):
        raise InvalidInput(f"pq_params: need four finite numbers, got "
                           f"{pq_params!r}")
    a1, a2, b1, b2 = pq_params
    if not (a1 > 0 and a2 > 0 and b1 < 0 < b2):
        raise InvalidInput(
            f"pq_params: need a1, a2 > 0 and b1 < 0 < b2, got {pq_params}")


def _weights_like(weights, Z):
    # unit weights as the scalar 1.0: the same products, no array
    return 1.0 if weights is None else np.broadcast_to(weights, Z.shape)


def prox_weighted_l1(Z, gamma, weights, rho):
    """Entrywise soft threshold at gamma*w_ij/rho; exact zeros inside."""
    if rho <= 0:
        raise InvalidInput("rho must be > 0")
    Z = np.asarray(Z, dtype=float)
    t = gamma * _weights_like(weights, Z) / rho
    return np.sign(Z) * np.maximum(np.abs(Z) - t, 0.0)


def prox_piecewise_quadratic(Z, gamma, weights, pq_params, rho):
    """Four-branch prox of the piecewise quadratic penalty.

    Zero on the dead band [gamma*w*b1/rho, gamma*w*b2/rho]; a shifted
    shrinkage on either side.
    """
    if rho <= 0:
        raise InvalidInput("rho must be > 0")
    _check_pq(pq_params)
    a1, a2, b1, b2 = pq_params
    Z = np.asarray(Z, dtype=float)
    gw = gamma * _weights_like(weights, Z)
    hi = (rho * Z - gw * b2) / (gw * a2 + rho)
    lo = (rho * Z - gw * b1) / (gw * a1 + rho)
    out = np.zeros_like(Z)
    out = np.where(Z >= gw * b2 / rho, hi, out)
    out = np.where(Z <= gw * b1 / rho, lo, out)
    return out


def pq_scalar_value(x, pq_params):
    """The piecewise quadratic penalty of a scalar or array, weightless."""
    a1, a2, b1, b2 = pq_params
    x = np.asarray(x, dtype=float)
    return np.where(x >= 0, 0.5 * a2 * x * x + b2 * x, 0.5 * a1 * x * x + b1 * x)
