"""The scalar reference loop: one run, one point at a time, in plain 1-D
numpy.  Tests only: `irltrack.sim.run_batch` is pinned against it.

Every formula here is written out separately from the package's row-wise
ones (tau2, the penalty, M, the window pass and the law), one per paper
equation; what the two share is the environments, the basis, the
telemetry, the dither, `check_run`, `saturate`, `gain_pow` and
`log_one_minus_tanh2`.

The critic weight vector is tuned online from the windowed Bellman residual

    e_hat = I_hat + W_hat . dtheta,
    I_hat = integral over [t-T, t] of exp(-gamma (tau - t + T)) (Q(z) + U_hat),
    dtheta = exp(-gamma T) theta(z_t) - theta(z_{t-T}),

either with a constant-gain gradient step (`baseline_update_step`) or with
the variable-gain law (`update_step`) whose three terms are

  1. gradient term      -alpha |e_hat|^q2 theta_bar e_hat
  2. stabilizing term   +(alpha/2) |Sigma|^k2 Xi grad_theta G (I - diag tanh^2 tau2) G^T z
  3. robustifying term  +alpha |e_hat|^q2 (k1_gain (phi . W_hat) - k2_gain W_hat
                                           - theta_bar * m_integral)

with theta_bar = dtheta / (1 + dtheta.dtheta)^2, phi = dtheta / (1 + dtheta.dtheta),
Sigma = z . zdot by backward differencing, and Xi the indicator that is 0 only
while Sigma < 0.  The scalar gains k1_gain and k2_gain stand for the paper's
K1 = k1_gain 1 and K2 = k2_gain I.  All integrals are discounted trapezoids.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from irltrack.basis import RegressorBasis
from irltrack.errors import ConfigurationError, NumericFault
from irltrack.learner import _SPAN_RTOL, LearnerConfig, gain_pow
from irltrack.policy import SaturationSpec, log_one_minus_tanh2, saturate
from irltrack.sim import (DitherSpec, SimConfig, Telemetry, TrackingEnv,
                          check_run, dither)


def tau2_raw(grad_theta: np.ndarray, G_z: np.ndarray, W_hat: np.ndarray,
             sat: SaturationSpec) -> np.ndarray:
    """Saturation argument from precomputed grad_theta(z) and G(z)."""
    return (G_z.T @ (grad_theta.T @ W_hat)) / (2.0 * sat.u_m * sat.r_diag)


def penalty_closed(tau: np.ndarray, sat: SaturationSpec) -> float:
    """Closed-form penalty at u = -u_m tanh(tau).

    2 u_m^2 tau^T R tanh(tau) + u_m^2 sum_i R_i ln(1 - tanh(tau_i)^2),
    evaluated with the stable log identity so deep saturation stays finite.
    """
    tau = np.atleast_1d(np.asarray(tau, dtype=float))
    um2 = sat.u_m ** 2
    r = sat.r_diag
    return float(2.0 * um2 * (r * tau * np.tanh(tau)).sum()
                 + um2 * (r * log_one_minus_tanh2(tau)).sum())


class NotReady(RuntimeError):
    """The reinforcement buffer does not yet span a full window."""


@dataclass(frozen=True)
class CriticState:
    """Weights plus the diagnostics of the most recent update."""

    W_hat: np.ndarray
    e_hat: float = 0.0
    sigma: float = 0.0
    xi: int = 1
    I_hat: float = 0.0


class Window(NamedTuple):
    """One pass over the reinforcement window [t-T, t]."""

    theta_t: np.ndarray     # theta(z_t)
    theta_tmT: np.ndarray   # theta(z_{t-T}), interpolated if needed
    I_hat: float            # discounted trapezoid of Q(z) + U_hat
    m_int: float            # discounted trapezoid of W_hat . M (0 if skipped)


class ReinforcementBuffer:
    """Sliding window of per-step samples for the discounted quadratures.

    Stores (t, theta, cost, m_scalar) where cost = Q(z) + U_hat and
    m_scalar = W_hat(tau) . M(tau), both frozen with the weights in effect
    at sample time.  Capacity is ceil(T/dt) + 1 so the retained samples span
    at least one full window once warmed up; the run checks 0 < dt <= T.
    """

    def __init__(self, T: float, dt: float):
        self.T = float(T)
        self.dt = float(dt)
        self.capacity = math.ceil(T / dt - _SPAN_RTOL) + 1
        self._q: deque = deque(maxlen=self.capacity)

    def push(self, t: float, theta: np.ndarray, cost: float, m_scalar: float):
        if self._q and t <= self._q[-1][0]:
            raise ConfigurationError(
                f"buffer timestamps must strictly increase ({t} after {self._q[-1][0]})")
        self._q.append((float(t), np.array(theta, dtype=float), float(cost),
                        float(m_scalar)))

    @property
    def ready(self) -> bool:
        if len(self._q) < 2:
            return False
        span = self._q[-1][0] - self._q[0][0]
        return span >= self.T * (1 - _SPAN_RTOL)

    def window(self, gamma: float, m_term: bool = True) -> Window:
        """Endpoint features and both discounted trapezoids over [t-T, t].

        The time grid, the interpolation weight of the sample straddling
        t-T and the discount exp(-gamma (tau - t + T)) are built once and
        shared; m_int is 0.0 unless `m_term`.
        """
        if not self.ready:
            raise NotReady("reinforcement buffer does not span a full window yet")
        q = list(self._q)
        t_now = q[-1][0]
        t_lo = t_now - self.T
        first = next(i for i, s in enumerate(q) if s[0] >= t_lo)
        interpolate = first > 0 and q[first][0] > t_lo + _SPAN_RTOL * self.T
        if interpolate:
            lo, hi = q[first - 1], q[first]
            w = (t_lo - lo[0]) / (hi[0] - lo[0])
            # the sample at t-T, linear between its neighbours
            left = (t_lo, *((1 - w) * a + w * b for a, b in zip(lo[1:], hi[1:])))
            q = [left] + q[first:]
        else:
            q = q[first:]
        ts = np.array([s[0] for s in q])
        disc = np.exp(-gamma * (ts - t_now + self.T))
        steps = ts[1:] - ts[:-1]

        def integral(col: int) -> float:
            y = disc * np.array([s[col] for s in q])
            # the trapezoid rule exactly as np.trapezoid(y, ts) evaluates it
            return float((steps * (y[1:] + y[:-1]) / 2.0).sum())

        return Window(q[-1][1], q[0][1], integral(2),
                      integral(3) if m_term else 0.0)


def _window(buf: ReinforcementBuffer, gamma: float, T: float,
            m_term: bool) -> Window:
    if abs(T - buf.T) > _SPAN_RTOL * buf.T:
        raise ConfigurationError(f"buffer window {buf.T} != requested T {T}")
    return buf.window(gamma, m_term)


def reinforcement_integral(buf: ReinforcementBuffer, gamma: float, T: float) -> float:
    """Discounted trapezoid of the stored stage cost Q(z) + U_hat over [t-T, t]."""
    return _window(buf, gamma, T, m_term=False).I_hat


def m_integral(buf: ReinforcementBuffer, gamma: float, T: float) -> float:
    """Discounted trapezoid of the stored W_hat(tau) . M(tau) over [t-T, t]."""
    return _window(buf, gamma, T, m_term=True).m_int


def delta_theta(theta_t: np.ndarray, theta_tmT: np.ndarray, gamma: float,
                T: float) -> np.ndarray:
    """Windowed regressor difference exp(-gamma T) theta_t - theta_{t-T}."""
    return math.exp(-gamma * T) * np.asarray(theta_t) - np.asarray(theta_tmT)


def hjb_error(I_hat: float, dtheta: np.ndarray, W_hat: np.ndarray) -> float:
    """Windowed Bellman residual I_hat + W_hat . dtheta."""
    return float(I_hat + W_hat @ dtheta)


def sigma_rate(z_t: np.ndarray, z_prev: np.ndarray, dt: float) -> float:
    """Sigma = z . zdot with zdot by backward difference over one step."""
    if dt <= 0:
        raise ConfigurationError(f"dt must be > 0, got {dt}")
    z_t = np.asarray(z_t, dtype=float)
    return float(z_t @ (z_t - np.asarray(z_prev, dtype=float)) / dt)


def indicator(sigma: float) -> int:
    """0 while Sigma < 0 (contracting), 1 otherwise."""
    return 0 if sigma < 0 else 1



def m_vector_raw(grad_theta: np.ndarray, G_z: np.ndarray, W_hat: np.ndarray,
                 sat: SaturationSpec, tau: np.ndarray | None = None) -> np.ndarray:
    """M = grad_theta G u_m (tanh(tau2) - sgn(tau2)); bounded, -> 0 in saturation.

    `tau` is tau2_raw(grad_theta, G_z, W_hat, sat) when the caller has it.
    """
    if tau is None:
        tau = tau2_raw(grad_theta, G_z, W_hat, sat)
    return (grad_theta @ G_z) @ (sat.u_m * (np.tanh(tau) - np.sign(tau)))


def _normalized_regressors(dtheta: np.ndarray):
    """(phi, theta_bar) = (dtheta/ms, dtheta/ms^2) with ms = 1 + |dtheta|^2.

    Single arithmetic pipeline shared by both update laws so that the
    baseline law and the degenerate variable-gain law agree bitwise.
    """
    ms = 1.0 + float(dtheta @ dtheta)
    phi = dtheta / ms
    return phi, phi / ms


def _gradient_term(alpha: float, q2: float, e_hat: float,
                   theta_bar: np.ndarray) -> np.ndarray:
    return -(alpha * gain_pow(e_hat, q2)) * e_hat * theta_bar


def law_terms(W_hat: np.ndarray, e_hat: float, sigma: float, xi: int,
              dtheta: np.ndarray, grad_theta: np.ndarray, G_z: np.ndarray,
              tau: np.ndarray, z: np.ndarray, m_int: float, cfg: LearnerConfig):
    """The three right-hand-side terms of the variable-gain law, per unit time.

    Split out so tests and analysis can probe each term's scaling in
    isolation; `update_step` sums them and applies the Euler step.  `tau`
    is the policy's saturation argument tau2_raw(grad_theta, G_z, W_hat,
    cfg.sat).
    """
    phi, theta_bar = _normalized_regressors(dtheta)
    term_grad = _gradient_term(cfg.alpha, cfg.q2, e_hat, theta_bar)

    if xi and cfg.stabilizer_enabled:
        ndg = grad_theta @ G_z
        gs = 0.5 * cfg.alpha * gain_pow(sigma, cfg.k2)
        term_stab = gs * (ndg @ ((1.0 - np.tanh(tau) ** 2) * (G_z.T @ z)))
    else:
        term_stab = np.zeros_like(W_hat)

    ge = cfg.alpha * gain_pow(e_hat, cfg.q2)
    m_part = theta_bar * m_int if cfg.m_term_enabled else 0.0
    term_robust = ge * (cfg.k1_gain * float(phi @ W_hat) - cfg.k2_gain * W_hat
                        - m_part)

    return term_grad, term_stab, term_robust


def update_step(state: CriticState, cfg: LearnerConfig, buf: ReinforcementBuffer,
                z: np.ndarray, grad_theta: np.ndarray, G_z: np.ndarray,
                tau: np.ndarray, sigma: float, dt: float) -> CriticState:
    """One Euler step of the variable-gain law; returns the new critic state.

    grad_theta = grad theta(z), G_z = G(z), tau = tau2_raw(grad_theta, G_z,
    W_hat, cfg.sat) and sigma = sigma_rate(z, z_prev, dt) are the step's
    own, computed once by the caller.  The window is read in one pass and
    its I_hat is returned on the new state.

    Raises NotReady while the buffer is cold and NumericFault if the step
    produces non-finite weights.
    """
    win = _window(buf, cfg.gamma, cfg.T, cfg.m_term_enabled)
    dtheta = delta_theta(win.theta_t, win.theta_tmT, cfg.gamma, cfg.T)
    e_hat = hjb_error(win.I_hat, dtheta, state.W_hat)
    xi = indicator(sigma) if cfg.stabilizer_enabled else 0

    with np.errstate(over="ignore", invalid="ignore"):
        t1, t2, t3 = law_terms(state.W_hat, e_hat, sigma, xi, dtheta, grad_theta,
                               G_z, tau, np.asarray(z, dtype=float), win.m_int,
                               cfg)
        W_new = state.W_hat + dt * (t1 + t2 + t3)
    if not np.isfinite(W_new).all():
        bad = int(np.flatnonzero(~np.isfinite(W_new))[0])
        raise NumericFault(
            f"critic weights non-finite after update (component {bad}, "
            f"e_hat={e_hat}, sigma={sigma})", component=bad)
    return CriticState(W_hat=W_new, e_hat=e_hat, sigma=sigma, xi=xi,
                       I_hat=win.I_hat)


def baseline_update_step(state: CriticState, cfg: LearnerConfig,
                         buf: ReinforcementBuffer, dt: float) -> CriticState:
    """Constant-gain gradient step W -= dt alpha theta_bar (I_hat + W . dtheta).

    Kept for A/B comparison runs; sigma/xi are not part of this law and are
    reported as 0/1.  Shares the gradient-term arithmetic with the
    variable-gain law so the q2=0 degenerate case matches it exactly.
    """
    win = _window(buf, cfg.gamma, cfg.T, m_term=False)
    dtheta = delta_theta(win.theta_t, win.theta_tmT, cfg.gamma, cfg.T)
    e_hat = hjb_error(win.I_hat, dtheta, state.W_hat)
    _, theta_bar = _normalized_regressors(dtheta)
    with np.errstate(over="ignore", invalid="ignore"):
        W_new = state.W_hat + dt * _gradient_term(cfg.alpha, 0.0, e_hat,
                                                  theta_bar)
    if not np.isfinite(W_new).all():
        bad = int(np.flatnonzero(~np.isfinite(W_new))[0])
        raise NumericFault(
            f"critic weights non-finite after baseline update (component {bad}, "
            f"e_hat={e_hat})", component=bad)
    return CriticState(W_hat=W_new, e_hat=e_hat, sigma=0.0, xi=1,
                       I_hat=win.I_hat)


def run_env_experiment(env: TrackingEnv, basis: RegressorBasis,
                       learner_cfg: LearnerConfig,
                       sim_cfg: SimConfig, law: str = "novel",
                       dither_spec: DitherSpec = DitherSpec(),
                       W0: np.ndarray | None = None) -> Telemetry:
    """Drive any tracking environment through the learn-act loop.

    The policy and the critic share one saturation spec, `learner_cfg.sat`,
    and one tau2 per step.  On a numeric fault
    the fault gets the step's t and index (unless it carries them) and the
    partial telemetry, so callers can report and flush it.
    """
    check_run(law, learner_cfg, sim_cfg)
    n1 = basis.n_features
    dt = sim_cfg.dt
    sat = learner_cfg.sat
    m_term = learner_cfg.m_term_enabled
    state = CriticState(W_hat=np.zeros(n1) if W0 is None else np.array(W0, dtype=float))
    buf = ReinforcementBuffer(learner_cfg.T, dt)
    n_steps = sim_cfg.n_steps
    z0 = env.z()
    telemetry = Telemetry(dim_z=len(z0), dim_x=len(env.x), dim_xd=len(env.x_d),
                          m=env.m, n1=n1, control_names=env.control_names,
                          capacity=n_steps // sim_cfg.record_every + 2)

    z_prev = z0
    try:
        for k in range(n_steps + 1):
            t = k * dt
            z = env.z()
            grad = basis.grad(z)
            G_z = env.G(z)
            W = state.W_hat
            tau = tau2_raw(grad, G_z, W, sat)
            u_hat = -sat.u_m * np.tanh(tau)
            cost = float(z @ learner_cfg.Q1 @ z) + penalty_closed(tau, sat)
            m_scalar = float(W @ m_vector_raw(grad, G_z, W, sat, tau=tau)) \
                if m_term else 0.0
            theta = basis.eval(z)
            buf.push(t, theta, cost, m_scalar)

            sigma = sigma_rate(z, z_prev, dt) if k > 0 else 0.0
            if k > 0 and buf.ready:
                if law == "novel":
                    state = update_step(state, learner_cfg, buf, z, grad, G_z,
                                        tau, sigma, dt)
                else:
                    state = baseline_update_step(state, learner_cfg, buf, dt)

            n_val = dither_spec.amplitude * dither(t)
            if k % sim_cfg.record_every == 0 or k == n_steps:
                telemetry.append(t, z, env.x, env.x_d, u_hat, n_val,
                                 state.e_hat, sigma, indicator(sigma),
                                 state.I_hat, float(state.W_hat @ theta),
                                 state.W_hat)
            env.check_domain(telemetry, t)

            if k < n_steps:
                env.advance(saturate(u_hat + n_val, sat.u_m), t, dt)
                z_prev = z
    except NumericFault as fault:
        if fault.t is None:
            fault.t = t
        if fault.step is None:
            fault.step = k
        fault.telemetry = telemetry
        raise
    return telemetry

