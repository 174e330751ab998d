"""Critic learning: the reinforcement window and the update laws, row-wise.

The critic weight vector is tuned online from the windowed Bellman residual

    e_hat = I_hat + W_hat . dtheta,
    I_hat = integral over [t-T, t] of exp(-gamma (tau - t + T)) (Q(z) + U_hat),
    dtheta = exp(-gamma T) theta(z_t) - theta(z_{t-T}),

either with a constant-gain gradient step (the baseline law) or with the
variable-gain law whose three terms are

  1. gradient term      -alpha |e_hat|^q2 theta_bar e_hat
  2. stabilizing term   +(alpha/2) |Sigma|^k2 Xi grad_theta G (I - diag tanh^2 tau2) G^T z
  3. robustifying term  +alpha |e_hat|^q2 (k1_gain (phi . W_hat) - k2_gain W_hat
                                           - theta_bar * m_integral)

with theta_bar = dtheta / (1 + dtheta.dtheta)^2, phi = dtheta / (1 + dtheta.dtheta),
Sigma = z . zdot by backward differencing, and Xi the indicator that is 0 only
while Sigma < 0, and always 0 with the stabilizer off.  The telemetry's `xi`
column is 1[Sigma >= 0] whether or not the stabilizer is on.  The scalar
gains k1_gain and k2_gain stand for the paper's K1 = k1_gain 1 and
K2 = k2_gain I.  All integrals are discounted trapezoids.

Both laws are computed for B rows at once (`CriticRows`, per-row arrays in
a `Rows`, with the window pass of `WindowBuffer.window`, each row's
products numpy's stacked `np.vecdot`, `np.matvec` and `np.vecmat`): the
baseline is the degenerate variable-gain law, and a law term that no row
uses is not computed: the stabilizer's products only at a step where some
row has Xi = 1, the m-integral and the robust term's M part only if some
row has the m-term.  The window keeps a deque of step samples; a window of
two samples (T = dt) integrates on (B,) arrays, a longer one sums its
intervals in sequence over a (B, L, 2) array.  A batch of one runs
`CriticRow`: the same law on 1-D arrays, with every per-row scalar a
Python float, the same operations in the same order, its products
`ndarray.dot` (the 1-D `@` over the control channels); its two-sample
window integrates on floats, and a longer one is `WindowBuffer.window`
over one row.  `tests/test_batch.py` pins it bitwise to the batched form.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .errors import ConfigurationError, NumericFault
from .policy import SaturationSpec

# relative slack on the warm-up span test; absorbs float accumulation in t = k*dt
_SPAN_RTOL = 1e-9


@dataclass(frozen=True, eq=False)
class LearnerConfig:
    """The update law, its gains and the shared weights of the critic.

    `law` is "novel" (the variable-gain law) or "baseline" (the
    constant-gain law, which ignores the variable-gain settings).  q2 and
    k2 are the variable-gain exponents on |e_hat| and |Sigma|; the scalar
    gains k1_gain and k2_gain shape the robustifying term
    k1_gain (phi . W_hat) - k2_gain W_hat.  `stabilizer_enabled=False`
    forces Xi = 0 and `m_term_enabled=False` drops the m-integral, which
    together with q2 = 0, k1_gain = k2_gain = 0 makes the variable-gain law
    coincide with the baseline.
    """

    alpha: float
    gamma: float
    T: float
    Q1: np.ndarray
    sat: SaturationSpec
    q2: float = 0.1
    k2: float = 0.01
    k1_gain: float = 0.01
    k2_gain: float = 0.01
    stabilizer_enabled: bool = True
    m_term_enabled: bool = True
    law: str = "novel"

    def __post_init__(self):
        object.__setattr__(self, "Q1", np.asarray(self.Q1, dtype=float))
        for name in ("alpha", "gamma", "q2", "k2"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ConfigurationError(
                    f"{name} must be finite and >= 0, got {getattr(self, name)}",
                    (name,))
        for name in ("k1_gain", "k2_gain"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigurationError(
                    f"{name} must be finite, got {getattr(self, name)}", (name,))
        if not 0 < self.T < math.inf:
            raise ConfigurationError(
                f"reinforcement interval T must be finite and > 0, got {self.T}",
                ("T",))
        if self.Q1.ndim != 2 or self.Q1.shape[0] != self.Q1.shape[1]:
            raise ConfigurationError(f"Q1 must be square, got shape {self.Q1.shape}",
                                     ("Q1",))
        if not np.isfinite(self.Q1).all():
            raise ConfigurationError("Q1 must be finite", ("Q1",))
        if not np.allclose(self.Q1, self.Q1.T, atol=1e-12):
            raise ConfigurationError("Q1 must be symmetric", ("Q1",))
        # the eigenvalues get rounding slack; a negative diagonal entry is
        # never rounding
        if np.any(np.diag(self.Q1) < 0) or \
                np.min(np.linalg.eigvalsh(self.Q1)) < -1e-10:
            raise ConfigurationError("Q1 must be positive semidefinite", ("Q1",))
        if self.law not in ("novel", "baseline"):
            raise ConfigurationError(
                f"law must be 'novel' or 'baseline', got {self.law!r}", ("law",))


def gain_pow(x: float, p: float) -> float:
    """|x|^p with 0^0 = 1 and 0^p = 0 for p > 0 (right-continuous dead zone);
    inf where the power overflows, so the update faults on its weights."""
    if x == 0.0:
        return 1.0 if p == 0.0 else 0.0
    try:
        return abs(x) ** p
    except OverflowError:
        return math.inf


def _gain_pow(x: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Row-wise `gain_pow`, with Python's float power (numpy's vector power
    can differ from it in the last bit)."""
    return np.fromiter(map(gain_pow, x.tolist(), p.tolist()), float, len(x))


def m_vector(ndg, th, tau, u_m) -> np.ndarray:
    """M = grad_theta G u_m (tanh(tau2) - sgn(tau2)) of each row, from
    ndg = grad_theta G and th = tanh(tau2); bounded, -> 0 in saturation.
    One row (ndg (n1, m), th and tau (m,), a float u_m) or B rows (with a
    leading batch axis and u_m (B, 1)): each row's product is the same
    `np.matvec` call either way (at m = 1 its non-BLAS sum, 0.0 + a b)."""
    return np.matvec(ndg, u_m * (th - np.sign(tau)))


class WindowBuffer:
    """Each row's samples (theta, Q(z) + U_hat, W_hat . M), the costs frozen
    with the weights in effect at sample time, at the shared times of the
    last ceil(T/dt) + 1 steps: once warmed up they span a window T.  A step
    is one deque entry (t, theta (B, n1), cost (B,), m (B,) or 0.0), with
    m = 0.0 while no row has the m-term; the one row of `CriticRow` pushes
    (t, theta (n1,), cost, m) with floats for cost and m."""

    def __init__(self, T: float, dt: float):
        self.T = T
        self.samples = deque(maxlen=math.ceil(T / dt - _SPAN_RTOL) + 1)

    def push(self, t: float, theta, cost, m):
        self.samples.append((t, theta, cost, m))

    def keep(self, mask: np.ndarray):
        """Drop the rows `mask` clears from every sample."""
        self.samples = deque(
            [(t, theta[mask], cost[mask], m[mask] if isinstance(m, np.ndarray) else m)
             for t, theta, cost, m in self.samples], self.samples.maxlen)

    @property
    def ready(self) -> bool:
        return self.samples[-1][0] - self.samples[0][0] >= self.T * (1 - _SPAN_RTOL)

    def points(self):
        """The samples over [t-T, t], the one at t-T linear between its
        neighbours when none falls on it."""
        samples, T = self.samples, self.T
        t_lo = samples[-1][0] - T
        first = 0
        while samples[first][0] < t_lo:
            first += 1
        points = list(samples)[first:]
        if first > 0 and points[0][0] > t_lo + _SPAN_RTOL * T:
            (t0, theta0, c0, m0), (t1, theta1, c1, m1) = samples[first - 1], points[0]
            w = (t_lo - t0) / (t1 - t0)
            points.insert(0, (t_lo, (1 - w) * theta0 + w * theta1,
                              (1 - w) * c0 + w * c1, (1 - w) * m0 + w * m1))
        return points

    def window(self, neg_gamma: np.ndarray):
        """(theta(z_{t-T}), I_hat, m_int) of each row, from neg_gamma = -gamma
        (B,), in one pass over the `points`; m_int is 0 while no row has the
        m-term."""
        points, T = self.points(), self.T
        t_last = points[-1][0]
        if len(points) == 2:
            # the trapezoid of the general path below; its one-term sum
            # starts from +0.0, hence the `+ 0.0`
            (t0, theta_tmT, c0, m0), (t1, _, c1, m1) = points
            h = t1 - t0
            e0 = np.exp(neg_gamma * ((t0 - t_last) + T))
            e1 = np.exp(neg_gamma * ((t1 - t_last) + T))
            I_hat = h * (e1 * c1 + e0 * c0) / 2.0 + 0.0
            m_int = h * (e1 * m1 + e0 * m0) / 2.0 + 0.0 \
                if isinstance(m1, np.ndarray) else 0.0
            return theta_tmT, I_hat, m_int
        ts = np.array([p[0] for p in points])
        vals = np.empty((len(neg_gamma), len(points), 2))
        for j, (_, _, cost, m) in enumerate(points):
            vals[:, j, 0], vals[:, j, 1] = cost, m
        y = np.exp(neg_gamma[:, None] * (ts - t_last + T))[:, :, None] * vals
        # the trapezoid rule exactly as np.trapezoid(y, ts) evaluates it: the
        # sum runs over the middle axis of (B, L - 1, 2), interval by interval
        integrals = ((ts[1:] - ts[:-1])[:, None] * (y[:, 1:] + y[:, :-1]) / 2.0).sum(1)
        return points[0][1], integrals[:, 0], integrals[:, 1]


def _law_gains(c: LearnerConfig) -> tuple:
    """(novel, stabilizer, m-term, q2, k1_gain, k2_gain) of c's law; the
    baseline law is the novel law with q2 = k1_gain = k2_gain = 0 and the
    stabilizer and m-term off."""
    if c.law == "novel":
        return (True, bool(c.stabilizer_enabled), bool(c.m_term_enabled),
                float(c.q2), float(c.k1_gain), float(c.k2_gain))
    return False, False, False, 0.0, 0.0, 0.0


class Rows(SimpleNamespace):
    """Per-row arrays as attributes, batch axis first."""

    def keep(self, mask: np.ndarray):
        """Drop the rows `mask` clears from every array attribute."""
        for name, value in vars(self).items():
            if isinstance(value, np.ndarray):
                setattr(self, name, value[mask])


class CriticRows(Rows):
    """Each row's critic: its weights, the residual and I_hat of its last
    update, its policy's saturation and its law's gains, batch axis first.
    A W0 of None starts from zero weights."""

    def __init__(self, cfgs, W0s, n1: int):
        novel, stab, m_term, q2, k1_gain, k2_gain = map(
            np.array, zip(*map(_law_gains, cfgs)))
        column = lambda values: np.array(values, dtype=float)[:, None]
        super().__init__(
            W=np.array([np.zeros(n1) if W0 is None else np.array(W0, dtype=float)
                        for W0 in W0s]),
            e_hat=np.zeros(len(cfgs)), I_hat=np.zeros(len(cfgs)), novel=novel,
            stab=stab, m_term=m_term, q2=q2, k1_gain=k1_gain,
            k2_gain=column(k2_gain),
            k2=np.array([c.k2 for c in cfgs]), alpha=np.array([c.alpha for c in cfgs]),
            half_alpha=np.array([0.5 * c.alpha for c in cfgs]),
            neg_gamma=np.array([-c.gamma for c in cfgs]),
            disc_T=column([math.exp(-c.gamma * c.T) for c in cfgs]),
            Q1=np.array([c.Q1 for c in cfgs]), r=np.array([c.sat.r_diag for c in cfgs]),
            u_m=column([c.sat.u_m for c in cfgs]),
            neg_u_m=column([-c.sat.u_m for c in cfgs]),
            um2=np.array([c.sat.u_m ** 2 for c in cfgs]),
            den=np.array([2.0 * c.sat.u_m * c.sat.r_diag for c in cfgs]))
        self.use_stab, self.use_m = bool(self.stab.any()), bool(self.m_term.any())
        self.use_robust = self.use_m or bool(self.k1_gain.any() or self.k2_gain.any())

    def update(self, buf: WindowBuffer, theta, z, G, ndg, th, sigma, dt: float):
        """One Euler step of each row's law from the step's theta(z), z, G(z),
        ndg = grad_theta G (None if unused), tanh(tau2) and Sigma; returns
        (row, NumericFault) for each row whose new weights are not finite."""
        theta_tmT, I_hat, m_int = buf.window(self.neg_gamma)
        dtheta = self.disc_T * theta - theta_tmT
        e_hat = I_hat + np.vecdot(self.W, dtheta)
        ms = (1.0 + np.vecdot(dtheta, dtheta))[:, None]
        phi = dtheta / ms
        theta_bar = phi / ms
        ge = self.alpha * _gain_pow(e_hat, self.q2)
        rate = (-ge * e_hat)[:, None] * theta_bar
        if self.use_stab:
            xi = self.stab & ~(sigma < 0)
            if xi.any():
                gs = self.half_alpha * _gain_pow(sigma, self.k2)
                stab = np.matvec(ndg, (1.0 - th ** 2) * np.vecmat(z, G))
                rate = rate + np.where(xi[:, None], gs[:, None] * stab, 0.0)
            else:
                rate = rate + 0.0
        if self.use_robust:
            robust = ((self.k1_gain * np.vecdot(phi, self.W))[:, None]
                      - self.k2_gain * self.W)
            if self.use_m:
                robust = robust - np.where(self.m_term[:, None],
                                           theta_bar * m_int[:, None], 0.0)
            rate = rate + ge[:, None] * robust
        self.W = self.W + dt * rate
        self.e_hat, self.I_hat = e_hat, I_hat
        # a sum with a non-finite term is never finite: search the rows only
        # when some weight is non-finite
        if math.isfinite(np.add.reduce(self.W, None)):
            return []
        return [(i, _weight_fault(self.W[i], self.novel[i], float(e_hat[i]),
                                  float(sigma[i])))
                for i in np.flatnonzero(~np.isfinite(self.W).all(1))]


class CriticRow:
    """One critic, `CriticRows` for a batch of one: its weights W (n1,),
    the residual and I_hat of its last update and its law's gains as
    Python floats.  `update` is `CriticRows.update` on 1-D arrays and
    floats, each formula with the same operations in the same order; the
    window's samples hold theta (n1,), and the cost and W . M (0.0 without
    the m-term) as floats."""

    def __init__(self, c: LearnerConfig, W0, n1: int):
        self.W = np.zeros(n1) if W0 is None else np.array(W0, dtype=float)
        self.e_hat = self.I_hat = 0.0
        (self.novel, self.stab, self.m_term, self.q2, self.k1_gain,
         self.k2_gain) = _law_gains(c)
        self.k2, self.alpha, self.half_alpha = float(c.k2), float(c.alpha), 0.5 * c.alpha
        self.neg_gamma, self.disc_T = -c.gamma, math.exp(-c.gamma * c.T)
        self.use_robust = self.m_term or bool(self.k1_gain or self.k2_gain)

    def window(self, buf: WindowBuffer):
        """(theta(z_{t-T}), I_hat, m_int) of `WindowBuffer.window`, the
        integrals as floats; m_int is 0.0 without the m-term.  A window of
        two samples (T = dt) integrates on floats; a longer one is the
        batched pass over a batch of one."""
        points, T, g = buf.points(), buf.T, self.neg_gamma
        if len(points) > 2:
            theta_tmT, I_hat, m_int = buf.window(np.array([g]))
            return theta_tmT, float(I_hat[0]), float(m_int[0])
        t_last = points[-1][0]
        (t0, theta_tmT, c0, m0), (t1, _, c1, m1) = points
        h = t1 - t0
        e0 = float(np.exp(g * ((t0 - t_last) + T)))
        e1 = float(np.exp(g * ((t1 - t_last) + T)))
        return theta_tmT, h * (e1 * c1 + e0 * c0) / 2.0 + 0.0, \
            h * (e1 * m1 + e0 * m0) / 2.0 + 0.0 if self.m_term else 0.0

    def update(self, buf: WindowBuffer, theta, z, G, ndg, th, sigma: float,
               dt: float):
        """`CriticRows.update` of the one row, Sigma a float; raises the
        NumericFault of `_weight_fault` if the new weights are not finite."""
        theta_tmT, I_hat, m_int = self.window(buf)
        W, d = self.W, self.disc_T * theta - theta_tmT
        e = I_hat + float(W.dot(d))
        ms = 1.0 + float(d.dot(d))
        phi = d / ms
        theta_bar = phi / ms
        ge = self.alpha * gain_pow(e, self.q2)
        rate = (-ge * e) * theta_bar
        if self.stab:
            if not sigma < 0:
                gs = self.half_alpha * gain_pow(sigma, self.k2)
                rate = rate + gs * (ndg @ ((1.0 - th ** 2) * z.dot(G)))
            else:
                rate = rate + 0.0
        if self.use_robust:
            robust = self.k1_gain * float(phi.dot(W)) - self.k2_gain * W
            if self.m_term:
                robust = robust - theta_bar * m_int
            rate = rate + ge * robust
        self.W = W + dt * rate
        self.e_hat, self.I_hat = e, I_hat
        # as in `CriticRows.update`: search only when the sum is not finite
        if not math.isfinite(sum(self.W.tolist())) and not np.isfinite(self.W).all():
            raise _weight_fault(self.W, self.novel, e, sigma)


def _weight_fault(W, novel: bool, e_hat: float, sigma: float) -> NumericFault:
    """The fault of a row whose new weights W are not finite."""
    comp = int(np.flatnonzero(~np.isfinite(W))[0])
    law = "update" if novel else "baseline update"
    tail = f", sigma={sigma}" if novel else ""
    return NumericFault(f"critic weights non-finite after {law} (component "
                        f"{comp}, e_hat={e_hat}{tail})", component=comp)
