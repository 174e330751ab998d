"""Six-degree-of-freedom fixed-wing attitude benchmark.

Rigid-body dynamics with the linear-coefficient aerodynamic force/moment
model of Beard & McLain ("Small Unmanned Aircraft", 2012, Ch. 4), flown with
the Aerosonde's constants, `AEROSONDE`, from its Appendix E (Table E.2).  The
learner closes the inner rate loop:

  outer loop:  (p,q,r)_des = -diag(_RATE_GAINS) e_att, a fixed proportional
               loop with no feedforward (the setpoints are piecewise constant)
  inner loop:  stacked state z = [e_p, e_q, e_r, p_des, q_des, r_des],
               controls are elevator/aileron/rudder deviations from a frozen
               level-flight trim, throttle held at trim.

The control coupling of the three rate channels is the only aerodynamic
information handed to the learner; it is evaluated at the live dynamic
pressure.

The physics is one function on Python floats, `uav_dynamics`.  It reads
the airframe's constants once per call (`AirframeParams.bound`), with the
exact left prefixes of its products folded (0.5 rho, -m g, c_y_p b, ...),
and takes the sine and cosine of alpha, phi, theta and psi once, so every
value keeps the bits of the attribute-by-attribute form.
"""
from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..catalog import param, parse_floats
from ..errors import ConfigurationError, NumericFault, OracleFailure
from ..sim import Telemetry, rk4_step

# state vector layout
PN, PE, PD, U, V, W, PHI, THETA, PSI, P, Q, R = range(12)

_PITCH_GUARD = math.pi / 2 - 1e-6
# outer-loop gains from (roll, pitch, yaw) error to body-rate command (1/s)
_RATE_GAINS = (8.0, 10.0, 12.0)


@dataclass(frozen=True)
class AirframeParams:
    mass: float
    gravity: float
    jx: float
    jy: float
    jz: float
    jxz: float
    S: float
    b: float
    c: float
    rho: float
    s_prop: float
    c_prop: float
    k_motor: float
    c_l0: float
    c_d0: float
    c_m0: float
    c_l_alpha: float
    c_d_alpha: float
    c_m_alpha: float
    c_l_q: float
    c_d_q: float
    c_m_q: float
    c_l_de: float
    c_d_de: float
    c_m_de: float
    c_y0: float
    c_ll0: float
    c_n0: float
    c_y_beta: float
    c_ll_beta: float
    c_n_beta: float
    c_y_p: float
    c_ll_p: float
    c_n_p: float
    c_y_r: float
    c_ll_r: float
    c_n_r: float
    c_y_da: float
    c_ll_da: float
    c_n_da: float
    c_y_dr: float
    c_ll_dr: float
    c_n_dr: float
    stall_alpha: float

    @cached_property
    def gammas(self):
        """Inertia couplings of the body-rate equations."""
        g = self.jx * self.jz - self.jxz ** 2
        g1 = self.jxz * (self.jx - self.jy + self.jz) / g
        g2 = (self.jz * (self.jz - self.jy) + self.jxz ** 2) / g
        g3 = self.jz / g
        g4 = self.jxz / g
        g5 = (self.jz - self.jx) / self.jy
        g6 = self.jxz / self.jy
        g7 = ((self.jx - self.jy) * self.jx + self.jxz ** 2) / g
        g8 = self.jx / g
        return g1, g2, g3, g4, g5, g6, g7, g8

    @cached_property
    def bound(self):
        """The constants of `uav_dynamics`, read once: exact left prefixes
        of its products (0.5 rho, -m g, c_y_p b, ...) come folded, so the
        forces keep their bits."""
        half_rho, b, c = 0.5 * self.rho, self.b, self.c
        return (half_rho, half_rho * self.s_prop * self.c_prop, self.k_motor,
                self.S, b, c, self.mass, self.jy,
                -self.mass * self.gravity, self.mass * self.gravity,
                self.c_l0, self.c_l_alpha, self.c_d0, self.c_d_alpha,
                -self.c_d_q, self.c_l_q, -self.c_d_de, self.c_l_de,
                self.c_y0, self.c_y_beta, self.c_y_p * b, self.c_y_r * b,
                self.c_y_da, self.c_y_dr,
                self.c_ll0, self.c_ll_beta, self.c_ll_p * b, self.c_ll_r * b,
                self.c_ll_da, self.c_ll_dr,
                self.c_m0, self.c_m_alpha, self.c_m_q * c, self.c_m_de,
                self.c_n0, self.c_n_beta, self.c_n_p * b, self.c_n_r * b,
                self.c_n_da, self.c_n_dr)


# The Aerosonde, from Beard & McLain (2012): mass, inertia and aerodynamic
# coefficients of Appendix E (Table E.2, p. 276), for the force/moment model
# of Ch. 4 (pp. 57-62).  SI units; angles in radians.
AEROSONDE = AirframeParams(
    # mass (kg) and gravity (m/s^2)
    mass=13.5, gravity=9.81,
    # inertia (kg m^2)
    jx=0.8244, jy=1.135, jz=1.759, jxz=0.1204,
    # wing area (m^2), span and mean chord (m)
    S=0.55, b=2.8956, c=0.18994,
    # air density (kg/m^3)
    rho=1.2682,
    # propeller disc area (m^2), its coefficient and the motor constant
    s_prop=0.2027, c_prop=1.0, k_motor=80.0,
    # longitudinal aerodynamics
    c_l0=0.28, c_d0=0.03, c_m0=-0.02338,
    c_l_alpha=3.45, c_d_alpha=0.30, c_m_alpha=-0.38,
    c_l_q=0.0, c_d_q=0.0, c_m_q=-3.6,
    c_l_de=-0.36, c_d_de=0.0, c_m_de=-0.5,
    # lateral aerodynamics (c_ll*: the rolling moment)
    c_y0=0.0, c_ll0=0.0, c_n0=0.0,
    c_y_beta=-0.98, c_ll_beta=-0.12, c_n_beta=0.25,
    c_y_p=0.0, c_ll_p=-0.26, c_n_p=0.022,
    c_y_r=0.0, c_ll_r=0.14, c_n_r=-0.35,
    c_y_da=0.0, c_ll_da=0.08, c_n_da=0.06,
    c_y_dr=-0.17, c_ll_dr=0.105, c_n_dr=-0.032,
    # the linear aero model is trusted up to the textbook's blending angle
    stall_alpha=math.radians(27.0),
)


def uav_dynamics(state, deflections, delta_t: float) -> list:
    """Rigid-body state derivative of the Aerosonde on Python floats: a
    12-float state, absolute (elevator, aileron, rudder) and the throttle
    in, the 12 derivatives out as a list.  Its zero aero coefficients stay
    in their terms, which carry a NaN or flip a -0.0 as the full model does.

    Aborts on the Euler pitch singularity; the caller is responsible for
    keeping deflections inside the actuator bound.
    """
    de, da, dr = deflections
    _, _, _, u, v, w, phi, theta, psi, p, q, r = state
    if abs(theta) >= _PITCH_GUARD:
        raise NumericFault(f"pitch angle {theta:.4g} rad reached the Euler "
                           "singularity guard", component=THETA)
    (half_rho, half_rho_prop, k_motor, S, b, c, mass, jy, neg_mg, mg,
     c_l0, c_l_alpha, c_d0, c_d_alpha, neg_c_d_q, c_l_q, neg_c_d_de, c_l_de,
     c_y0, c_y_beta, c_y_p_b, c_y_r_b, c_y_da, c_y_dr,
     c_ll0, c_ll_beta, c_ll_p_b, c_ll_r_b, c_ll_da, c_ll_dr,
     c_m0, c_m_alpha, c_m_q_c, c_m_de,
     c_n0, c_n_beta, c_n_p_b, c_n_r_b, c_n_da, c_n_dr) = AEROSONDE.bound

    va = math.sqrt(u * u + v * v + w * w)
    if va > 1e-9:
        alpha = math.atan2(w, u)
        beta = math.asin(max(-1.0, min(1.0, v / va)))
        qbar = half_rho * va * va
        rate_scale = 1.0 / (2.0 * va)
    else:
        alpha = beta = qbar = rate_scale = 0.0

    sa, ca = math.sin(alpha), math.cos(alpha)
    sph, cph = math.sin(phi), math.cos(phi)
    sth, cth = math.sin(theta), math.cos(theta)
    sps, cps = math.sin(psi), math.cos(psi)
    tth = sth / cth

    # body-frame forces and moments
    cl = c_l0 + c_l_alpha * alpha
    cd = c_d0 + c_d_alpha * alpha
    cx = -cd * ca + cl * sa
    cx_q = neg_c_d_q * ca + c_l_q * sa
    cx_de = neg_c_d_de * ca + c_l_de * sa
    cz = -cd * sa - cl * ca
    cz_q = neg_c_d_q * sa - c_l_q * ca
    cz_de = neg_c_d_de * sa - c_l_de * ca

    qS = qbar * S
    thrust = half_rho_prop * ((k_motor * delta_t) ** 2 - va * va)

    fx = neg_mg * sth \
        + qS * (cx + cx_q * c * q * rate_scale + cx_de * de) + thrust
    fy = mg * cth * sph \
        + qS * (c_y0 + c_y_beta * beta
                + c_y_p_b * p * rate_scale + c_y_r_b * r * rate_scale
                + c_y_da * da + c_y_dr * dr)
    fz = mg * cth * cph \
        + qS * (cz + cz_q * c * q * rate_scale + cz_de * de)

    l_m = qS * b * (c_ll0 + c_ll_beta * beta
                    + c_ll_p_b * p * rate_scale + c_ll_r_b * r * rate_scale
                    + c_ll_da * da + c_ll_dr * dr)
    m_m = qS * c * (c_m0 + c_m_alpha * alpha
                    + c_m_q_c * q * rate_scale + c_m_de * de)
    n_m = qS * b * (c_n0 + c_n_beta * beta
                    + c_n_p_b * p * rate_scale + c_n_r_b * r * rate_scale
                    + c_n_da * da + c_n_dr * dr)

    g1, g2, g3, g4, g5, g6, g7, g8 = AEROSONDE.gammas
    return [
        # body -> inertial kinematics (PN, PE, PD)
        (cth * cps) * u + (sph * sth * cps - cph * sps) * v
        + (cph * sth * cps + sph * sps) * w,
        (cth * sps) * u + (sph * sth * sps + cph * cps) * v
        + (cph * sth * sps - sph * cps) * w,
        -sth * u + sph * cth * v + cph * cth * w,
        # body-frame accelerations (U, V, W)
        r * v - q * w + fx / mass,
        p * w - r * u + fy / mass,
        q * u - p * v + fz / mass,
        # attitude kinematics (PHI, THETA, PSI)
        p + sph * tth * q + cph * tth * r,
        cph * q - sph * r,
        (sph / cth) * q + (cph / cth) * r,
        # moment equations (P, Q, R)
        g1 * p * q - g2 * q * r + g3 * l_m + g4 * n_m,
        g5 * p * r - g6 * (p * p - r * r) + m_m / jy,
        g7 * p * q - g1 * q * r + g4 * l_m + g8 * n_m,
    ]


def rate_control_coupling(va: float) -> list:
    """d(pdot,qdot,rdot)/d(delta_e,delta_a,delta_r) of the Aerosonde at
    dynamic pressure of va, as three rows of floats."""
    pr = AEROSONDE
    qbar = 0.5 * pr.rho * va * va
    qSb = qbar * pr.S * pr.b
    qSc = qbar * pr.S * pr.c
    g1, g2, g3, g4, g5, g6, g7, g8 = pr.gammas
    return [
        [0.0, qSb * (g3 * pr.c_ll_da + g4 * pr.c_n_da),
         qSb * (g3 * pr.c_ll_dr + g4 * pr.c_n_dr)],
        [qSc * pr.c_m_de / pr.jy, 0.0, 0.0],
        [0.0, qSb * (g4 * pr.c_ll_da + g8 * pr.c_n_da),
         qSb * (g4 * pr.c_ll_dr + g8 * pr.c_n_dr)],
    ]


@dataclass(frozen=True)
class TrimPoint:
    """Frozen level-flight operating point: alpha, elevator, throttle at va."""

    va: float
    alpha: float
    delta_e: float
    delta_t: float

    def initial_state(self, altitude: float) -> list:
        """The 12-float trim state at `altitude`, heading north."""
        state = [0.0] * 12
        state[PD] = -float(altitude)
        state[U] = self.va * math.cos(self.alpha)
        state[W] = self.va * math.sin(self.alpha)
        state[THETA] = float(self.alpha)
        return state


_MINPACK = "scipy.optimize._minpack"
# hybrd's exit statuses, in the words of scipy.optimize.root(method="hybr")
# at tol = 1e-12 (so maxfev = 200 (n + 1) = 800), each on one line
_HYBRD_MESSAGES = {
    0: "Improper input parameters were entered.",
    1: "The solution converged.",
    2: "The number of calls to function has reached maxfev = 800.",
    3: "xtol=0.000000 is too small, no further improvement in the "
       "approximate solution is possible.",
    4: "The iteration is not making good progress, as measured by the "
       "improvement from the last five Jacobian evaluations.",
    5: "The iteration is not making good progress, as measured by the "
       "improvement from the last ten iterations.",
}


def _minpack():
    """scipy's compiled MINPACK module, loaded once from beside the scipy
    package and kept in `sys.modules`, without importing `scipy.optimize`,
    whose import costs a UAV run several hundred times the trim solve.
    OracleFailure, naming the module, if it cannot be found or loaded."""
    module = sys.modules.get(_MINPACK)
    if module is not None:
        return module
    try:
        scipy_spec = importlib.util.find_spec("scipy")
        if scipy_spec is None:
            raise ImportError("scipy is not installed")
        finder = importlib.machinery.FileFinder(
            os.path.join(scipy_spec.submodule_search_locations[0], "optimize"),
            (importlib.machinery.ExtensionFileLoader,
             importlib.machinery.EXTENSION_SUFFIXES))
        spec = finder.find_spec(_MINPACK)
        if spec is None:
            raise ImportError("no such extension beside the scipy package")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    except ImportError as exc:
        raise OracleFailure(f"trim solver {_MINPACK} cannot be loaded: "
                            + " ".join(str(exc).split())) from None
    sys.modules[_MINPACK] = module
    return module


def _trim_residual(va: float):
    """The level-flight residual at va: (alpha, delta_e, delta_t) to the
    derivatives of u, w and q at the trim state."""
    def residual(x):
        alpha, de, dt_ = x
        state = TrimPoint(va, alpha, de, dt_).initial_state(0.0)
        try:
            d = uav_dynamics(state, (float(de), 0.0, 0.0), dt_)
        except NumericFault:
            # solver wandered past the pitch guard; steer it back
            return [1e6 * (1.0 + abs(alpha)), 1e6, 1e6]
        return [d[U], d[W], d[Q]]
    return residual


def _solve_trim(residual):
    """MINPACK's hybrd (Moré, Garbow & Hillstrom, 1980) on `residual` from
    (0.05, -0.1, 0.5), called as `scipy.optimize.root(residual, x0=[0.05,
    -0.1, 0.5], tol=1e-12)` calls it: its x, status and one-line message."""
    # fun, x0, args, full_output, xtol, maxfev, ml, mu, epsfcn, factor, diag
    x, _, status = _minpack()._hybrd(
        residual, np.array([0.05, -0.1, 0.5]), (), 1, 1e-12, 800, -10, -10,
        np.finfo(float).eps, 100, None)
    return x, status, _HYBRD_MESSAGES.get(status, "An error occurred.")


def trim_level_flight(va: float) -> TrimPoint:
    """Solve (alpha, delta_e, delta_t) for steady wings-level flight at va.
    OracleFailure if the solve fails or its trim is outside the envelope of
    the model: an angle of attack past the stall angle or a throttle outside
    [0, 1] (13.3 to 78.8 m/s for the Aerosonde)."""
    residual = _trim_residual(va)
    x, status, message = _solve_trim(residual)
    if status != 1 or np.max(np.abs(residual(x))) > 1e-8:
        raise OracleFailure(f"plant.va_m_s = {va}: trim solver failed: {message}")
    alpha, de, dt_ = x
    if abs(alpha) > AEROSONDE.stall_alpha:
        raise OracleFailure(
            f"plant.va_m_s = {va} trims at alpha = {math.degrees(alpha):.1f} deg, "
            f"past the stall angle of {math.degrees(AEROSONDE.stall_alpha):g} deg")
    if not 0.0 <= dt_ <= 1.0:
        raise OracleFailure(f"plant.va_m_s = {va} trims at throttle {dt_:.4g}, "
                            "outside [0, 1]")
    return TrimPoint(va=va, alpha=float(alpha), delta_e=float(de), delta_t=float(dt_))


def outer_loop(attitude, attitude_des) -> list:
    """Desired body rates, three floats: minus gain times attitude error."""
    # 0.0 - k e, not -k e: a zero error commands 0.0, not -0.0
    return [0.0 - k * (att - des)
            for att, des, k in zip(attitude, attitude_des, _RATE_GAINS)]


@dataclass(frozen=True)
class SetpointSchedule:
    """Piecewise-constant attitude setpoints: list of (t_start, (phi, theta, psi))."""

    entries: tuple

    def __post_init__(self):
        ts = [e[0] for e in self.entries]
        if not np.isfinite([[t, *att] for t, att in self.entries]).all():
            raise ConfigurationError("setpoint times and angles must be finite")
        if not ts or ts[0] != 0.0 or sorted(ts) != ts or len(set(ts)) != len(ts):
            raise ConfigurationError(
                "setpoint schedule must start at t=0 with strictly increasing times")

    def attitude_des(self, t: float) -> tuple:
        """The (phi, theta, psi) of the last entry started by t."""
        current = self.entries[0][1]
        for t_start, att in self.entries:
            if t >= t_start:
                current = att
        return current


class UavAttitudeEnv:
    """Cascaded attitude-tracking environment around the frozen trim point.

    The stacked state pairs the body-rate tracking error with the live
    outer-loop rate commands; `advance` applies trim + deviation surfaces
    and integrates the 12-state model.  `state` (the logged `x`) is a list
    of 12 floats, starting at the given `state`.  Its airspeed and
    its rate command `x_d` (three floats) are computed once per state, on
    construction and in `advance`; `G`, `z` and `check_domain` read them.
    """

    control_names = ("elevator", "aileron", "rudder")
    m = 3
    dim_z = 6

    def __init__(self, trim: TrimPoint, schedule: SetpointSchedule, state):
        self.trim = trim
        self.schedule = schedule
        self._enter([float(s) for s in state], 0.0)

    @property
    def x(self):
        return self.state

    def _enter(self, state: list, t: float):
        """Take `state` at time t, with its airspeed and rate command."""
        self.state = state
        uvw = np.array(state[U:W + 1])   # np.linalg.norm's own sqrt(x . x)
        self.airspeed = math.sqrt(uvw.dot(uvw))
        self.x_d = self._rate_des(t)

    def _rate_des(self, t: float) -> list:
        return outer_loop(self.state[PHI:PSI + 1], self.schedule.attitude_des(t))

    def G(self, z) -> np.ndarray:
        """Rate-channel coupling at the live airspeed (z is not read)."""
        G = np.zeros((6, 3))    # the rate commands' rows take no control
        G[:3] = rate_control_coupling(self.airspeed)
        return G

    def z(self) -> np.ndarray:
        p, q, r = self.state[P:]
        p_d, q_d, r_d = self.x_d
        return np.array([p - p_d, q - q_d, r - r_d, p_d, q_d, r_d])

    def advance(self, u_applied, t: float, dt: float):
        de, da, dr = np.asarray(u_applied, dtype=float).tolist()
        # trim + deviation; the zero aileron and rudder trims stay in the
        # sum, which turns a -0.0 deviation into 0.0
        surfaces = (self.trim.delta_e + de, 0.0 + da, 0.0 + dr)
        delta_t = self.trim.delta_t
        self._enter(rk4_step(lambda tt, s: uav_dynamics(s, surfaces, delta_t),
                             t, self.state, dt), t + dt)

    def check_domain(self, telemetry: Telemetry, t: float):
        if self.airspeed > 1e-9 and abs(math.atan2(
                self.state[W], self.state[U])) > AEROSONDE.stall_alpha:
            telemetry.warn("stall regime: |alpha| above the stall angle", t)

    def series(self, telemetry: Telemetry) -> dict:
        """Each Euler angle against its setpoint, in degrees."""
        x = telemetry.columns("x")
        deg = 180.0 / math.pi
        des = np.array([self.schedule.attitude_des(t)
                        for t in telemetry.t.tolist()]) * deg
        panels = {}
        for j, name in enumerate(("phi", "theta", "psi")):
            panels[f"att_{name}_deg"] = x[:, PHI + j] * deg
            panels[f"att_{name}_des_deg"] = des[:, j]
        return panels

    def linear_pair(self):
        return None


def parse_schedule(text: str) -> SetpointSchedule:
    """'0: -30 0 -10; 7: 30 0 10' (degrees) -> schedule in radians."""
    entries = []
    for chunk in filter(None, (c.strip() for c in text.split(";"))):
        when, _, angles = chunk.partition(":")
        try:
            t_start, vals = float(when), parse_floats(angles)
        except ValueError as exc:
            raise ConfigurationError(f"reference.setpoints_deg: {exc}") from None
        if len(vals) != 3:
            raise ConfigurationError(
                f"reference.setpoints_deg: need 3 angles per entry, got {chunk!r}")
        entries.append((t_start, tuple((vals * (math.pi / 180.0)).tolist())))
    if not entries:
        raise ConfigurationError("reference.setpoints_deg: no entries")
    try:
        return SetpointSchedule(entries=tuple(entries))
    except ConfigurationError as exc:
        raise ConfigurationError(f"reference.setpoints_deg: {exc}") from None


def make_uav_env(plant_params: dict, reference_params: dict) -> UavAttitudeEnv:
    """Aerosonde environment from the config's [plant] and [reference] keys."""
    trim = trim_level_flight(param(plant_params, "plant", "va_m_s", 18.0))
    schedule = parse_schedule(reference_params.get(
        "setpoints_deg", "0: -30 0 -10; 7: 30 0 10; 11: 0 0 10"))
    # the run starts at the first setpoint's roll and yaw, at trim pitch
    state = trim.initial_state(param(plant_params, "plant", "altitude_m", 100.0))
    att0 = schedule.attitude_des(0.0)
    state[PHI], state[PSI] = att0[0], att0[2]
    return UavAttitudeEnv(trim, schedule, state)
