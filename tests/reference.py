"""The scalar reference loop: one run, one point at a time, in plain 1-D
numpy.  Tests only: `irltrack.sim.run_batch` is pinned against it.  Below
it, the Aerosonde airframe, the RK4 step and the attitude environment in
their former numpy-array formulation, which pin the package's float
versions bit for bit.

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
from irltrack.benchmarks.uav import (_PITCH_GUARD, _RATE_GAINS, AirframeParams,
                                     SetpointSchedule, TrimPoint)
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
                       sim_cfg: SimConfig,
                       dither_spec: DitherSpec = DitherSpec(),
                       W0: np.ndarray | None = None) -> Telemetry:
    """Drive any tracking environment through the learn-act loop.

    The policy and the critic share one saturation spec, `learner_cfg.sat`,
    and one tau2 per step.  On a numeric fault
    the fault gets the step's t and index (unless it carries them) and the
    partial telemetry, so callers can report and flush it.
    """
    check_run(learner_cfg, sim_cfg)
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
                if learner_cfg.law == "novel":
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


# -- the Aerosonde in numpy arrays -------------------------------------------

PN, PE, PD, U, V, W, PHI, THETA, PSI, P, Q, R = range(12)


def rk4_step(field, t: float, state: np.ndarray, dt: float) -> np.ndarray:
    """Classical 4th-order Runge-Kutta step of ``d(state)/dt = field(t, state)``."""
    if not dt > 0:
        raise ConfigurationError(f"dt must be > 0, got {dt}")
    k1 = np.asarray(field(t, state), dtype=float)
    k2 = np.asarray(field(t + dt / 2.0, state + (dt / 2.0) * k1), dtype=float)
    k3 = np.asarray(field(t + dt / 2.0, state + (dt / 2.0) * k2), dtype=float)
    k4 = np.asarray(field(t + dt, state + dt * k3), dtype=float)
    for i, k in enumerate((k1, k2, k3, k4)):
        if not np.isfinite(k).all():
            raise NumericFault(f"non-finite RK4 stage {i + 1} at t={t}", t=t)
    return state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def forces_moments(state: np.ndarray, delta_e: float, delta_a: float,
                   delta_r: float, delta_t: float, pr: AirframeParams):
    """Body-frame forces (fx, fy, fz) and moments (l, m, n)."""
    _, _, _, u, v, w, phi, theta, _, p, q, r = np.asarray(state, dtype=float).tolist()

    va = math.sqrt(u * u + v * v + w * w)
    if va > 1e-9:
        alpha = math.atan2(w, u)
        beta = math.asin(max(-1.0, min(1.0, v / va)))
        qbar = 0.5 * pr.rho * va * va
        rate_scale = 1.0 / (2.0 * va)
    else:
        alpha = beta = qbar = rate_scale = 0.0

    sa, ca = math.sin(alpha), math.cos(alpha)
    cl = pr.c_l0 + pr.c_l_alpha * alpha
    cd = pr.c_d0 + pr.c_d_alpha * alpha
    cx = -cd * ca + cl * sa
    cx_q = -pr.c_d_q * ca + pr.c_l_q * sa
    cx_de = -pr.c_d_de * ca + pr.c_l_de * sa
    cz = -cd * sa - cl * ca
    cz_q = -pr.c_d_q * sa - pr.c_l_q * ca
    cz_de = -pr.c_d_de * sa - pr.c_l_de * ca

    g = pr.gravity
    qS = qbar * pr.S
    thrust = 0.5 * pr.rho * pr.s_prop * pr.c_prop * \
        ((pr.k_motor * delta_t) ** 2 - va * va)

    fx = -pr.mass * g * math.sin(theta) \
        + qS * (cx + cx_q * pr.c * q * rate_scale + cx_de * delta_e) + thrust
    fy = pr.mass * g * math.cos(theta) * math.sin(phi) \
        + qS * (pr.c_y0 + pr.c_y_beta * beta
                + pr.c_y_p * pr.b * p * rate_scale + pr.c_y_r * pr.b * r * rate_scale
                + pr.c_y_da * delta_a + pr.c_y_dr * delta_r)
    fz = pr.mass * g * math.cos(theta) * math.cos(phi) \
        + qS * (cz + cz_q * pr.c * q * rate_scale + cz_de * delta_e)

    l_m = qS * pr.b * (pr.c_ll0 + pr.c_ll_beta * beta
                       + pr.c_ll_p * pr.b * p * rate_scale
                       + pr.c_ll_r * pr.b * r * rate_scale
                       + pr.c_ll_da * delta_a + pr.c_ll_dr * delta_r)
    m_m = qS * pr.c * (pr.c_m0 + pr.c_m_alpha * alpha
                       + pr.c_m_q * pr.c * q * rate_scale + pr.c_m_de * delta_e)
    n_m = qS * pr.b * (pr.c_n0 + pr.c_n_beta * beta
                       + pr.c_n_p * pr.b * p * rate_scale
                       + pr.c_n_r * pr.b * r * rate_scale
                       + pr.c_n_da * delta_a + pr.c_n_dr * delta_r)
    return fx, fy, fz, l_m, m_m, n_m


def uav_dynamics(state: np.ndarray, deflections: np.ndarray, pr: AirframeParams,
                 delta_t: float) -> np.ndarray:
    """Rigid-body state derivative under absolute surface deflections."""
    de, da, dr = np.asarray(deflections, dtype=float).tolist()
    _, _, _, u, v, w, phi, theta, psi, p, q, r = np.asarray(state, dtype=float).tolist()
    if abs(theta) >= _PITCH_GUARD:
        raise NumericFault(f"pitch angle {theta:.4f} rad reached the Euler "
                           "singularity guard", component=THETA)
    fx, fy, fz, l_m, m_m, n_m = forces_moments(state, de, da, dr, delta_t, pr)

    sph, cph = math.sin(phi), math.cos(phi)
    sth, cth = math.sin(theta), math.cos(theta)
    sps, cps = math.sin(psi), math.cos(psi)
    tth = sth / cth

    out = np.empty(12)
    # body -> inertial kinematics
    out[PN] = (cth * cps) * u + (sph * sth * cps - cph * sps) * v \
        + (cph * sth * cps + sph * sps) * w
    out[PE] = (cth * sps) * u + (sph * sth * sps + cph * cps) * v \
        + (cph * sth * sps - sph * cps) * w
    out[PD] = -sth * u + sph * cth * v + cph * cth * w
    # body-frame accelerations
    out[U] = r * v - q * w + fx / pr.mass
    out[V] = p * w - r * u + fy / pr.mass
    out[W] = q * u - p * v + fz / pr.mass
    # attitude kinematics
    out[PHI] = p + sph * tth * q + cph * tth * r
    out[THETA] = cph * q - sph * r
    out[PSI] = (sph / cth) * q + (cph / cth) * r
    # moment equations
    g1, g2, g3, g4, g5, g6, g7, g8 = pr.gammas
    out[P] = g1 * p * q - g2 * q * r + g3 * l_m + g4 * n_m
    out[Q] = g5 * p * r - g6 * (p * p - r * r) + m_m / pr.jy
    out[R] = g7 * p * q - g1 * q * r + g4 * l_m + g8 * n_m
    return out


def rate_control_coupling(va: float, pr: AirframeParams) -> np.ndarray:
    """d(pdot,qdot,rdot)/d(delta_e,delta_a,delta_r) at dynamic pressure of va."""
    qbar = 0.5 * pr.rho * va * va
    qSb = qbar * pr.S * pr.b
    qSc = qbar * pr.S * pr.c
    g1, g2, g3, g4, g5, g6, g7, g8 = pr.gammas
    return np.array([
        [0.0, qSb * (g3 * pr.c_ll_da + g4 * pr.c_n_da),
         qSb * (g3 * pr.c_ll_dr + g4 * pr.c_n_dr)],
        [qSc * pr.c_m_de / pr.jy, 0.0, 0.0],
        [0.0, qSb * (g4 * pr.c_ll_da + g8 * pr.c_n_da),
         qSb * (g4 * pr.c_ll_dr + g8 * pr.c_n_dr)],
    ])


def outer_loop(attitude: np.ndarray, attitude_des: np.ndarray) -> np.ndarray:
    """Desired body rates: minus gain times attitude error."""
    e = np.asarray(attitude, dtype=float) - np.asarray(attitude_des, dtype=float)
    return np.zeros(3) - np.array(_RATE_GAINS) * e


class ArrayUavEnv:
    """The Aerosonde attitude environment on a numpy state: `z`, `G`,
    `advance` and `check_domain` re-index and re-norm the state each call."""

    def __init__(self, params: AirframeParams, trim: TrimPoint,
                 schedule: SetpointSchedule, state):
        self.params = params
        self.trim = trim
        self.schedule = schedule
        self.state = np.array(state, dtype=float)
        self.x_d = self._rate_des(0.0)

    def _rate_des(self, t: float) -> np.ndarray:
        att = self.state[[PHI, THETA, PSI]]
        return outer_loop(att, self.schedule.attitude_des(t))

    def G(self, z) -> np.ndarray:
        va = float(np.linalg.norm(self.state[[U, V, W]]))
        out = np.zeros((6, 3))
        out[:3, :] = rate_control_coupling(va, self.params)
        return out

    def z(self) -> np.ndarray:
        return np.concatenate([self.state[[P, Q, R]] - self.x_d, self.x_d])

    def advance(self, u_applied: np.ndarray, t: float, dt: float):
        surfaces = np.array([self.trim.delta_e, 0.0, 0.0]) + u_applied
        self.state = rk4_step(
            lambda tt, ss: uav_dynamics(ss, surfaces, self.params, self.trim.delta_t),
            t, self.state, dt)
        self.x_d = self._rate_des(t + dt)

    def check_domain(self, telemetry: Telemetry, t: float):
        va = float(np.linalg.norm(self.state[[U, V, W]]))
        if va > 1e-9:
            alpha = math.atan2(self.state[W], self.state[U])
            if abs(alpha) > self.params.stall_alpha:
                telemetry.warn("stall regime: |alpha| above the stall angle", t)
