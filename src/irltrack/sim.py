"""Fixed-step closed-loop simulation, excitation dither, and telemetry.

The step loop, per sample time t_k:

  1. evaluate the saturated policy u_hat from the current weights,
  2. push the window sample (theta, Q(z) + U_hat, W_hat . M) for t_k,
  3. run the critic update once the buffer spans a full window,
  4. record telemetry,
  5. apply saturate(u_hat + dither) to the plant and integrate to t_{k+1}.

The plant and the reference are integrated with classical RK4 under a
zero-order hold; the reference trajectory never depends on the learner.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np

from .basis import RegressorBasis
from .errors import ConfigurationError, NumericFault
from .learner import (CriticState, LearnerConfig, ReinforcementBuffer,
                      baseline_update_step, indicator, m_vector_raw,
                      reinforcement_integral, sigma_rate, update_step)
from .models import (AffinePlant, AugmentedDynamics, ReferenceModel, augment,
                     augmented_linear)
from .policy import SaturationSpec, penalty_closed, saturate, tau2_raw


@dataclass(frozen=True)
class SimConfig:
    """Fixed integration step, horizon, and telemetry decimation."""

    dt: float
    t_end: float
    record_every: int = 1

    def __post_init__(self):
        if not self.dt > 0:
            raise ConfigurationError(f"dt must be > 0, got {self.dt}")
        if not self.t_end > 0:
            raise ConfigurationError(f"t_end must be > 0, got {self.t_end}")
        if self.record_every < 1:
            raise ConfigurationError(f"record_every must be >= 1, got {self.record_every}")


@dataclass(frozen=True)
class DitherSpec:
    """Excitation added identically to every control channel: amplitude * n(t)."""

    amplitude: float = 0.0


def dither(t: float) -> float:
    """Deterministic persistent-excitation waveform with decaying envelope."""
    return 2.0 * math.exp(-0.009 * t) * (
        math.sin(11.9 * t) ** 2 * math.cos(19.5 * t)
        + math.sin(2.2 * t) ** 2 * math.cos(5.8 * t)
        + math.sin(1.2 * t) ** 2 * math.cos(9.5 * t)
        + math.sin(2.4 * t) ** 5)


def rk4_step(field, t: float, state: np.ndarray, dt: float) -> np.ndarray:
    """Classical 4th-order Runge-Kutta step of ``d(state)/dt = field(t, state)``."""
    if not dt > 0:
        raise ConfigurationError(f"dt must be > 0, got {dt}")
    k1 = np.asarray(field(t, state), dtype=float)
    k2 = np.asarray(field(t + dt / 2.0, state + (dt / 2.0) * k1), dtype=float)
    k3 = np.asarray(field(t + dt / 2.0, state + (dt / 2.0) * k2), dtype=float)
    k4 = np.asarray(field(t + dt, state + dt * k3), dtype=float)
    for i, k in enumerate((k1, k2, k3, k4)):
        if not np.all(np.isfinite(k)):
            raise NumericFault(f"non-finite RK4 stage {i + 1} at t={t}", t=t)
    return state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


class Telemetry:
    """Column-oriented run log with a fixed CSV schema.

    Columns: t, z_*, x_*, xd_*, u_*, n, e_hat, sigma, xi, I_hat, V_hat, W_*.
    Appends enforce strictly increasing time and reject non-finite values.
    """

    def __init__(self, dim_z: int, dim_x: int, dim_xd: int, m: int, n1: int,
                 control_names=None):
        self.dim_z, self.dim_x, self.dim_xd, self.m, self.n1 = \
            dim_z, dim_x, dim_xd, m, n1
        self.control_names = list(control_names) if control_names else [
            f"u{i}" for i in range(m)]
        self.rows: list[list[float]] = []
        self.warnings: list[str] = []

    @property
    def header(self) -> list[str]:
        cols = ["t"]
        cols += [f"z{i}" for i in range(self.dim_z)]
        cols += [f"x{i}" for i in range(self.dim_x)]
        cols += [f"xd{i}" for i in range(self.dim_xd)]
        cols += [f"u_{name}" for name in self.control_names]
        cols += ["n", "e_hat", "sigma", "xi", "I_hat", "V_hat"]
        cols += [f"W{i}" for i in range(self.n1)]
        return cols

    def append(self, t, z, x, xd, u, n_val, e_hat, sigma, xi, I_hat, V_hat, W):
        row = [float(t)]
        row += [float(v) for v in z]
        row += [float(v) for v in x]
        row += [float(v) for v in xd]
        row += [float(v) for v in u]
        row += [float(n_val), float(e_hat), float(sigma), float(xi),
                float(I_hat), float(V_hat)]
        row += [float(v) for v in W]
        if self.rows and row[0] <= self.rows[-1][0]:
            raise ConfigurationError("telemetry rows must be strictly time-ordered")
        if not all(math.isfinite(v) for v in row):
            raise NumericFault("attempted to record a non-finite telemetry value", t=t)
        self.rows.append(row)

    def warn(self, message: str):
        if not self.warnings or self.warnings[-1] != message:
            self.warnings.append(message)

    def column(self, name: str) -> np.ndarray:
        idx = self.header.index(name)
        return np.array([r[idx] for r in self.rows])

    def columns(self, prefix: str) -> np.ndarray:
        """Columns named `prefix<digits>`, or any suffix for `prefix_` groups.

        The digit requirement keeps `columns("x")` from swallowing `xd0...`.
        """
        def match(h):
            if not h.startswith(prefix):
                return False
            return prefix.endswith("_") or h[len(prefix):].isdigit()

        idxs = [i for i, h in enumerate(self.header) if match(h)]
        return np.array([[r[i] for i in idxs] for r in self.rows])

    @property
    def t(self) -> np.ndarray:
        return self.column("t")

    def to_csv(self, path):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(self.header) + "\n")
            for row in self.rows:
                fh.write(",".join(repr(v) for v in row) + "\n")


class TrackingEnv(Protocol):
    """What the step loop and the CLI read; the learner uses only z and G."""

    dyn: AugmentedDynamics       # control coupling dyn.G(z)
    control_names: Sequence[str]
    m: int
    dim_z: int
    x: np.ndarray                # logged plant state
    x_d: np.ndarray              # logged reference state

    def z(self) -> np.ndarray: ...
    def advance(self, u_applied: np.ndarray, t: float, dt: float): ...
    def check_domain(self, telemetry: Telemetry, t: float): ...
    def series(self, telemetry: Telemetry) -> dict: ...  # {panel: column}
    def linear_pair(self) -> tuple | None: ...  # stacked (A, B), if linear


class AugmentedTrackingEnv:
    """Generic environment: a catalog plant tracking an autonomous reference.

    Plant and reference are integrated side by side; the stacked state and
    the control coupling G(z) come from `augment`.
    """

    def __init__(self, plant: AffinePlant, ref: ReferenceModel,
                 x0: np.ndarray | None = None):
        self.plant = plant
        self.ref = ref
        self.dyn: AugmentedDynamics = augment(plant, ref)
        self.x = np.array(x0 if x0 is not None else ref.x_d0, dtype=float)
        self.x_d = np.array(ref.x_d0, dtype=float)
        self.control_names = [f"u{i}" for i in range(plant.m)]
        self.m = plant.m
        self.dim_z = 2 * plant.n

    def z(self) -> np.ndarray:
        return np.concatenate([self.x - self.x_d, self.x_d])

    def advance(self, u_applied: np.ndarray, t: float, dt: float):
        self.x = rk4_step(lambda tt, xx: self.plant.f(xx) + self.plant.g(xx) @ u_applied,
                          t, self.x, dt)
        self.x_d = rk4_step(lambda tt, xd: self.ref.H(xd), t, self.x_d, dt)

    def check_domain(self, telemetry: Telemetry, t: float):
        if self.plant.domain is not None:
            lo, hi = self.plant.domain
            if np.any(self.x < lo) or np.any(self.x > hi):
                telemetry.warn(f"state left the operating box near t={t:.3f}")

    def series(self, telemetry: Telemetry) -> dict:
        z = telemetry.columns("z")
        return {f"track_err_{i}": z[:, i] for i in range(self.plant.n)}

    def linear_pair(self):
        if self.plant.linear is None or self.ref.linear is None:
            return None
        return augmented_linear(*self.plant.linear, self.ref.linear)


def run_env_experiment(env: TrackingEnv, basis: RegressorBasis,
                       sat: SaturationSpec, learner_cfg: LearnerConfig,
                       sim_cfg: SimConfig, law: str = "novel",
                       dither_spec: DitherSpec = DitherSpec(),
                       W0: np.ndarray | None = None) -> Telemetry:
    """Drive any tracking environment through the learn-act loop.

    On a numeric fault the partial telemetry is attached to the raised
    exception so callers can flush it.
    """
    if law not in ("novel", "baseline"):
        raise ConfigurationError(f"unknown update law {law!r}")
    if learner_cfg.T < sim_cfg.dt * (1 - 1e-12):
        raise ConfigurationError(
            f"reinforcement interval T={learner_cfg.T} must be >= dt={sim_cfg.dt}")
    if sim_cfg.t_end <= learner_cfg.T:
        raise ConfigurationError("t_end must exceed the warm-up window T")

    n1 = basis.n_features
    dt = sim_cfg.dt
    state = CriticState(W_hat=np.zeros(n1) if W0 is None else np.array(W0, dtype=float))
    buf = ReinforcementBuffer(learner_cfg.T, dt)
    z0 = env.z()
    telemetry = Telemetry(dim_z=len(z0), dim_x=len(env.x), dim_xd=len(env.x_d),
                          m=env.m, n1=n1, control_names=env.control_names)

    n_steps = int(round(sim_cfg.t_end / dt))
    z_prev = z0
    try:
        for k in range(n_steps + 1):
            t = k * dt
            z = env.z()
            grad = basis.grad(z)
            G_z = env.dyn.G(z)
            tau = tau2_raw(grad, G_z, state.W_hat, sat)
            u_hat = -sat.u_m * np.tanh(tau)
            u_penalty = penalty_closed(tau, sat)
            cost = learner_cfg.cost_state(z) + u_penalty
            m_scalar = float(state.W_hat @ m_vector_raw(grad, G_z, state.W_hat, sat))
            buf.push(t, z, basis.eval(z), cost, m_scalar)

            I_hat = 0.0
            if k > 0 and buf.ready:
                if law == "novel":
                    state = update_step(state, learner_cfg, buf, z, z_prev,
                                        env.dyn, basis, dt)
                else:
                    state = baseline_update_step(state, learner_cfg, buf, dt)
                I_hat = reinforcement_integral(buf, learner_cfg.gamma, learner_cfg.T)

            n_val = dither_spec.amplitude * dither(t)
            sigma_tel = sigma_rate(z, z_prev, dt) if k > 0 else 0.0
            if k % sim_cfg.record_every == 0 or k == n_steps:
                telemetry.append(t, z, env.x, env.x_d, u_hat, n_val,
                                 state.e_hat, sigma_tel, indicator(sigma_tel),
                                 I_hat, float(state.W_hat @ basis.eval(z)),
                                 state.W_hat)
            env.check_domain(telemetry, t)

            if k < n_steps:
                u_applied = saturate(u_hat + n_val, sat.u_m)
                env.advance(u_applied, t, dt)
                z_prev = z
    except NumericFault as fault:
        fault.telemetry = telemetry
        raise
    return telemetry


def run_experiment(plant: AffinePlant, ref: ReferenceModel, basis: RegressorBasis,
                   sat: SaturationSpec, learner_cfg: LearnerConfig,
                   sim_cfg: SimConfig, law: str = "novel",
                   dither_spec: DitherSpec = DitherSpec(),
                   x0: np.ndarray | None = None,
                   W0: np.ndarray | None = None) -> Telemetry:
    """Run the closed-loop experiment for a plant/reference pair."""
    env = AugmentedTrackingEnv(plant, ref, x0=x0)
    return run_env_experiment(env, basis, sat, learner_cfg, sim_cfg, law=law,
                              dither_spec=dither_spec, W0=W0)


def rollout_augmented(dyn: AugmentedDynamics, z0: np.ndarray, u_fn, dt: float,
                      t_end: float):
    """Open-loop rollout of the stacked system under a prescribed control.

    Returns (times, states, controls); used by the window-identity oracle.
    """
    n_steps = int(round(t_end / dt))
    ts = np.arange(n_steps + 1) * dt
    zs = np.zeros((n_steps + 1, len(z0)))
    us = np.zeros((n_steps + 1, dyn.m))
    zs[0] = z0
    for k in range(n_steps):
        u = np.atleast_1d(u_fn(ts[k]))
        us[k] = u
        zs[k + 1] = rk4_step(lambda t, zz: dyn.F(zz) + dyn.G(zz) @ u,
                             ts[k], zs[k], dt)
    us[n_steps] = np.atleast_1d(u_fn(ts[n_steps]))
    return ts, zs, us
