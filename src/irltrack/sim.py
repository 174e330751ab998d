"""Fixed-step closed-loop simulation, excitation dither, and telemetry.

The step loop computes each per-step quantity once and shares it.  Per
sample time t_k:

  1. z, grad_theta(z), G(z) and the saturation argument tau2 from the
     current weights; the policy u_hat = -u_m tanh(tau2), the penalty and,
     with the m-term on, W_hat . M all reuse them (M is skipped otherwise),
  2. push the window sample (theta(z), Q(z) + U_hat, W_hat . M) for t_k,
  3. once the buffer spans a full window, run the critic update: one
     window pass gives theta(z_t), theta(z_{t-T}), I_hat and the
     m-integral, and the law reuses grad_theta, G(z), tau2 and
     Sigma = z . zdot,
  4. record telemetry: I_hat comes from the update, V_hat from the theta
     of step 2,
  5. apply saturate(u_hat + dither) and integrate to t_{k+1}.

The plant and the reference are integrated together, as one classical RK4
step of the stacked state under a zero-order hold; the reference
trajectory never depends on the learner.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np

from .basis import RegressorBasis
from .errors import ConfigurationError, NumericFault
from .learner import (CriticState, LearnerConfig, ReinforcementBuffer,
                      baseline_update_step, indicator, m_vector_raw, sigma_rate,
                      update_step)
from .models import (AffinePlant, AugmentedDynamics, ReferenceModel, augment,
                     augmented_linear)
from .policy import penalty_closed, saturate, tau2_raw

# Rows formatted per pass of `Telemetry.to_csv`: the chunk, not the run
# length, bounds the writer's working set.
_CHUNK_ROWS = 256


@dataclass(frozen=True)
class SimConfig:
    """Fixed integration step, horizon, and telemetry decimation."""

    dt: float
    t_end: float
    record_every: int = 1

    def __post_init__(self):
        if not 0 < self.dt < math.inf:
            raise ConfigurationError(f"dt must be finite and > 0, got {self.dt}",
                                     ("dt",))
        if not 0 < self.t_end < math.inf:
            raise ConfigurationError(
                f"t_end must be finite and > 0, got {self.t_end}", ("t_end",))
        if self.record_every < 1:
            raise ConfigurationError(
                f"record_every must be >= 1, got {self.record_every}",
                ("record_every",))


@dataclass(frozen=True)
class DitherSpec:
    """Excitation added identically to every control channel: amplitude * n(t)."""

    amplitude: float = 0.0

    def __post_init__(self):
        if not 0 <= self.amplitude < math.inf:
            raise ConfigurationError(
                f"amplitude must be finite and >= 0, got {self.amplitude}",
                ("amplitude",))


def check_run(law: str, learner_cfg: LearnerConfig, sim_cfg: SimConfig):
    """Rules joining several objects: a known law, dt <= T (to 1e-12
    relative) and a horizon past the warm-up window T."""
    if law not in ("novel", "baseline"):
        raise ConfigurationError(
            f"law must be 'novel' or 'baseline', got {law!r}", ("law",))
    if sim_cfg.dt > learner_cfg.T * (1 + 1e-12):
        raise ConfigurationError(
            f"dt = {sim_cfg.dt} must be <= the reinforcement window "
            f"T = {learner_cfg.T}", ("dt", "T"))
    if sim_cfg.t_end <= learner_cfg.T:
        raise ConfigurationError(
            f"t_end = {sim_cfg.t_end} must exceed the warm-up window "
            f"T = {learner_cfg.T}", ("t_end", "T"))


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
        if not np.isfinite(k).all():
            raise NumericFault(f"non-finite RK4 stage {i + 1} at t={t}", t=t)
    return state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


@dataclass
class WarningCount:
    """How often one kind of warning fired, and at which first and last t."""

    count: int
    t_first: float
    t_last: float


class Telemetry:
    """Run log with a fixed CSV schema, held in one preallocated array.

    Columns: t, z_*, x_*, xd_*, u_*, n, e_hat, sigma, xi, I_hat, V_hat, W_*.
    Appends enforce strictly increasing time and reject non-finite values.
    `capacity` is the expected number of rows; the array doubles past it.
    Warnings are kept once per kind, with a count and first/last times.
    """

    def __init__(self, dim_z: int, dim_x: int, dim_xd: int, m: int, n1: int,
                 control_names=None, capacity: int = 64):
        control_names = control_names or [f"u{i}" for i in range(m)]
        cols = ["t"]
        cols += [f"z{i}" for i in range(dim_z)]
        cols += [f"x{i}" for i in range(dim_x)]
        cols += [f"xd{i}" for i in range(dim_xd)]
        cols += [f"u_{name}" for name in control_names]
        cols += ["n", "e_hat", "sigma", "xi", "I_hat", "V_hat"]
        cols += [f"W{i}" for i in range(n1)]
        self.header = cols
        edges = np.cumsum([1, dim_z, dim_x, dim_xd, m, 6, n1])
        self._groups = [slice(lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]
        self._data = np.empty((max(capacity, 1), len(cols)))
        self._n = 0
        self.warnings: dict[str, WarningCount] = {}

    @property
    def rows(self) -> np.ndarray:
        """The recorded rows, one per record, in header order."""
        return self._data[:self._n]

    def append(self, t, z, x, xd, u, n_val, e_hat, sigma, xi, I_hat, V_hat, W):
        if self._n == len(self._data):
            self._data = np.concatenate([self._data, np.empty_like(self._data)])
        row = self._data[self._n]
        row[0] = t
        g_z, g_x, g_xd, g_u, g_scalars, g_w = self._groups
        row[g_z] = z
        row[g_x] = x
        row[g_xd] = xd
        row[g_u] = u
        row[g_scalars] = (n_val, e_hat, sigma, xi, I_hat, V_hat)
        row[g_w] = W
        if self._n and row[0] <= self._data[self._n - 1, 0]:
            raise ConfigurationError("telemetry rows must be strictly time-ordered")
        if not np.isfinite(row).all():
            raise NumericFault("attempted to record a non-finite telemetry value", t=t)
        self._n += 1

    def warn(self, kind: str, t: float):
        """Count one occurrence at time t of the warning `kind`."""
        seen = self.warnings.get(kind)
        if seen is None:
            self.warnings[kind] = WarningCount(1, t, t)
        else:
            seen.count += 1
            seen.t_last = t

    def column(self, name: str) -> np.ndarray:
        return self.rows[:, self.header.index(name)].copy()

    def columns(self, prefix: str) -> np.ndarray:
        """The column group `prefix<i>`: one of z, x, xd, u_ or W."""
        group = self._groups[("z", "x", "xd", "u_", None, "W").index(prefix)]
        # row-major, so axis-1 reductions (the oracle error norm) add in a
        # fixed order
        return np.ascontiguousarray(self.rows[:, group])

    @property
    def t(self) -> np.ndarray:
        return self.column("t")

    def to_csv(self, path):
        """Write the log as CSV: the header, then one line per row with
        every value as repr(float).

        Rows are formatted in chunks of `_CHUNK_ROWS`, so the chunk, not the
        run length, bounds the writer's working set.
        """
        ncol = len(self.header)
        rows = self.rows
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(self.header) + "\n")
            for lo in range(0, len(rows), _CHUNK_ROWS):
                strs = list(map(repr, rows[lo:lo + _CHUNK_ROWS].ravel().tolist()))
                # zip(*[iter(strs)] * ncol) yields the chunk's rows
                fh.write("\n".join(map(",".join, zip(*[iter(strs)] * ncol))) + "\n")


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
    def series(self, telemetry: Telemetry) -> dict: ...  # {panel: per-row values}
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
        n, f, g, H = self.plant.n, self.plant.f, self.plant.g, self.ref.H

        def field(tt, s):
            x, xd = s[:n], s[n:]
            return np.concatenate([f(x) + g(x) @ u_applied, H(xd)])

        s = rk4_step(field, t, np.concatenate([self.x, self.x_d]), dt)
        self.x, self.x_d = s[:n], s[n:]

    def check_domain(self, telemetry: Telemetry, t: float):
        if self.plant.domain is not None:
            lo, hi = self.plant.domain
            if np.any(self.x < lo) or np.any(self.x > hi):
                telemetry.warn("state left the operating box", t)

    def series(self, telemetry: Telemetry) -> dict:
        z = telemetry.columns("z")
        return {f"track_err_{i}": z[:, i] for i in range(self.plant.n)}

    def linear_pair(self):
        if self.plant.linear is None or self.ref.linear is None:
            return None
        return augmented_linear(*self.plant.linear, self.ref.linear)


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
    n_steps = int(round(sim_cfg.t_end / dt))
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
            G_z = env.dyn.G(z)
            W = state.W_hat
            tau = tau2_raw(grad, G_z, W, sat)
            u_hat = -sat.u_m * np.tanh(tau)
            cost = learner_cfg.cost_state(z) + penalty_closed(tau, sat)
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


def run_experiment(plant: AffinePlant, ref: ReferenceModel, basis: RegressorBasis,
                   learner_cfg: LearnerConfig,
                   sim_cfg: SimConfig, law: str = "novel",
                   dither_spec: DitherSpec = DitherSpec(),
                   x0: np.ndarray | None = None,
                   W0: np.ndarray | None = None) -> Telemetry:
    """Run the closed-loop experiment for a plant/reference pair."""
    env = AugmentedTrackingEnv(plant, ref, x0=x0)
    return run_env_experiment(env, basis, learner_cfg, sim_cfg, law=law,
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
