"""Saturated control policy and the actuator-constraint penalty.

The policy is ``u = -u_m tanh(tau2)`` with

    tau2 = (1 / 2 u_m) R^-1 G(z)^T grad_theta(z)^T W,

which keeps every channel strictly inside the actuator bound u_m.  The
matching running-cost penalty is

    U(u) = 2 u_m sum_i R_i  integral_0^{u_i} atanh(nu / u_m) d nu,

available both by adaptive quadrature (`penalty_integral`) and in closed
form at u = -u_m tanh(tau) (`penalty_closed`); the two agree analytically
and the pair is kept as a cross-check.  R is diagonal and both formulas
read it one channel at a time, so `SaturationSpec` holds its diagonal
r_diag; the full matrix is built only for the Riccati oracle.  The batched
step loop evaluates tau2 and the closed form for B rows at once
(`tau2_rows`, through `np.vecmat`, and `penalty_rows`); the one-row loop
takes the closed form of its one row as a float (`penalty_row`, also
behind `penalty_closed`): up to seven channels on Python floats and
numpy's exp and log1p, each channel sum a left fold from 0.0 as numpy's
below 8 terms, so it keeps the batched row's bits.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

_LOG2 = float(np.log(2.0))
# the most channels whose sums `penalty_row` folds on Python floats
_FOLD_MAX = 7


@dataclass(frozen=True, eq=False)
class SaturationSpec:
    """Actuator bound u_m (> 0, with a finite u_m^2: the penalty's scale)
    and the diagonal r_diag of the control weight R, one finite, positive
    entry per control channel.

    r_diag defaults to (1.0,), the weight of a single control channel.
    """

    u_m: float
    r_diag: np.ndarray | tuple = (1.0,)

    def __post_init__(self):
        object.__setattr__(self, "r_diag", np.asarray(self.r_diag, dtype=float))
        if not 0 < self.u_m < math.inf:
            raise ConfigurationError(f"u_m must be finite and > 0, got {self.u_m}",
                                     ("u_m",))
        if self.u_m * self.u_m == math.inf:
            raise ConfigurationError(f"u_m^2 must be finite, got u_m = {self.u_m}",
                                     ("u_m",))
        if self.r_diag.ndim != 1 or not len(self.r_diag):
            raise ConfigurationError("r_diag must be 1-D with at least one "
                                     f"entry, got shape {self.r_diag.shape}",
                                     ("r_diag",))
        if not np.all((self.r_diag > 0) & (self.r_diag < math.inf)):
            raise ConfigurationError("r_diag must be finite and > 0, got "
                                     f"{self.r_diag}", ("r_diag",))

    m = property(lambda self: len(self.r_diag))
    R = property(lambda self: np.diag(self.r_diag))   # for the Riccati oracle


def tau2_rows(W: np.ndarray, grad: np.ndarray, G: np.ndarray,
              den: np.ndarray) -> np.ndarray:
    """Saturation argument of each row from W (B, n1), grad_theta(z)
    (B, n1, d), G(z) (B, d, m) and den = 2 u_m R_ii (B, m)."""
    return np.vecmat(np.vecmat(W, grad), G) / den


def penalty_integral(u: np.ndarray, sat: SaturationSpec) -> float:
    """Constraint penalty by adaptive quadrature of the atanh integrand.

    Valid only strictly inside the bound; the integrand has an integrable
    log singularity at +-u_m, so the quadrature limit is clipped away from
    the boundary by 1e-12 * u_m.
    """
    from scipy.integrate import quad

    u = np.atleast_1d(np.asarray(u, dtype=float))
    um = sat.u_m
    if np.any(np.abs(u) >= um):
        bad = int(np.flatnonzero(np.abs(u) >= um)[0])
        raise ConfigurationError(
            f"penalty integrand undefined: |u[{bad}]| = {abs(u[bad])} >= u_m = {um}")

    def integrand(nu):
        # atanh(nu/um) written with logs: 0.5*ln((um+nu)/(um-nu))
        return 0.5 * np.log((um + nu) / (um - nu))

    eps = 1e-12 * um
    total = 0.0
    for ui, ri in zip(u, sat.r_diag):
        hi = np.clip(ui, -um + eps, um - eps)
        val, _ = quad(integrand, 0.0, hi, epsabs=1e-12, epsrel=1e-11, limit=200)
        total += ri * val
    return 2.0 * um * total


def log_one_minus_tanh2(a: np.ndarray) -> np.ndarray:
    """ln(1 - tanh(a)^2) via 2(ln 2 - a sign(a) - ln(1 + e^(-2|a|))); never overflows."""
    abs_a = np.abs(np.asarray(a, dtype=float))
    return 2.0 * (_LOG2 - abs_a - np.log1p(np.exp(-2.0 * abs_a)))


def penalty_rows(tau: np.ndarray, th: np.ndarray, um2: np.ndarray,
                 r: np.ndarray) -> np.ndarray:
    """Closed-form penalty of each row at u = -u_m tanh(tau) (th = tanh(tau),
    um2 = u_m^2, r = diag R): 2 u_m^2 tau^T R tanh(tau) + u_m^2 sum_i R_i
    ln(1 - tanh(tau_i)^2), with the stable log identity so deep saturation
    stays finite."""
    return (2.0 * um2 * np.add.reduce(r * tau * th, 1)
            + um2 * np.add.reduce(r * log_one_minus_tanh2(tau), 1))


def penalty_row(tau: np.ndarray, th: np.ndarray, um2: float,
                r: np.ndarray) -> float:
    """`penalty_rows` of one row, from 1-D tau, th and r and a float um2, as
    a float with the batched row's bits.  Up to `_FOLD_MAX` channels take
    its operations on Python floats, each channel sum a left fold from 0.0,
    the order of numpy's `add.reduce` below 8 terms (from 8 on it unrolls,
    and the row takes the batched form); at one channel, where `add.reduce`
    returns the term itself, the fold's 0.0 + term is that term, as neither
    term is ever -0.0 (r > 0, tau tanh(tau) >= +0.0, and ln 2 - |tau| -
    log1p(.) is never -0.0)."""
    if len(tau) > _FOLD_MAX:
        return float(penalty_rows(tau[None], th[None], np.array([um2]), r[None])[0])
    tau_sum = log_sum = 0.0
    for t, h, ri in zip(tau.tolist(), th.tolist(), r.tolist()):
        a = abs(t)
        tau_sum += ri * t * h
        log_sum += ri * (2.0 * (_LOG2 - a - float(np.log1p(np.exp(-2.0 * a)))))
    return 2.0 * um2 * tau_sum + um2 * log_sum


def penalty_closed(tau: np.ndarray, sat: SaturationSpec) -> float:
    """Closed-form penalty at one u = -u_m tanh(tau): `penalty_row`."""
    tau = np.atleast_1d(np.asarray(tau, dtype=float))
    return penalty_row(tau, np.tanh(tau), sat.u_m ** 2, sat.r_diag)


def saturate(u: np.ndarray, u_m: float) -> np.ndarray:
    """Hard clip to +-u_m (the physical actuator, applied after dither)."""
    return np.minimum(np.maximum(u, -u_m), u_m)
