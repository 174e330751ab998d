"""The learn-act loop, excitation dither, and telemetry.

`run_batch` runs B members through the learn-act loop in one of two
forms, chosen once per call: `_run_rows` carries a batch of catalog pairs
along a leading batch axis (states z (B, 2n), weights (B, n1), each run's
gains as (B, ...) arrays), and `_run_one` runs one member on 1-D arrays,
with every per-row scalar a Python float and each product the inner call
of its row in `_run_rows`, so a member has the same bits alone and in any
batch.  `_run_rows` takes its products from numpy's stacked gufuncs
(`np.vecdot`, `np.matvec`, `np.vecmat`, `np.matmul`) and `_run_one` from
`ndarray.dot`, which dispatches faster on 1-D operands, except for the
products that contract over the control channels (Gamma u, and
`m_vector`'s and the stabilizer's ndg products): at m = 1 `.dot` returns
-0.0 where the gufuncs return 0.0 + (-0.0) = 0.0, so those keep the 1-D
`@`.  A lone member, and each member of any other batch in turn, runs
`_run_one`; `run_env_experiment` is a batch of one.  Per sample time t_k
either loop computes each per-step quantity once and shares it:

  1. z, grad_theta(z), G(z) and the saturation argument tau2 from the
     current weights; the policy u_hat = -u_m tanh(tau2), the penalty and,
     with the m-term on, W_hat . M all reuse them (M is skipped otherwise),
  2. push the window sample (theta(z), Q(z) + U_hat, W_hat . M) for t_k,
  3. once the buffer spans a full window, run the critic update: one
     window pass gives theta(z_{t-T}), I_hat and the m-integral, and the
     law reuses theta(z_t) of step 1, grad_theta, G(z), tau2 and
     Sigma = z . zdot,
  4. record telemetry: I_hat comes from the update, V_hat from the theta
     of step 2,
  5. apply saturate(u_hat + dither) and integrate to t_{k+1}; where no
     dither was added the clip is skipped, as it would return u_hat,

up to the first step at or after t_end.  Catalog pairs (envs whose type
is exactly `AugmentedTrackingEnv`: a subclass may override any method, so
it runs as any other env) take one propagator step s <- Phi s + Gamma u
of s = [x, x_d] (the exact RK4 step under zero-order hold, Phi/Gamma
built once), stacked in `_LinearRows`, which reads their G and s once, at
build, and owns the states from then on, or, alone, in the env's own
`advance`, with G read through the env like any other's.  Any other env
advances itself.  The reference never depends on the learner.  A faulted
member leaves; the others go on.  With every dither amplitude 0,
dither(t) is evaluated only at record steps and where u_hat holds a zero.

A batch of one given the path of its telemetry.csv streams its log there
from its first full chunk of `_CHUNK_ROWS` rows on, to a writer process
on another core while the loop goes on (`Telemetry`).  A larger batch, or
a shorter log, is written in `Telemetry.to_csv`.  Either way the file is
written by `_csv_sink.write_csv`.
"""
from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np

from .basis import quad_basis
from .errors import ConfigurationError, NumericFault
from .learner import CriticRow, CriticRows, LearnerConfig, Rows, WindowBuffer, m_vector
from .models import AffinePlant, ReferenceModel, augmented_linear
from .policy import penalty_row, penalty_rows, saturate, tau2_rows

# Rows per formatting pass and per frame sent to a writer process: the
# chunk, not the run length, bounds the writer's working set.
_CHUNK_ROWS = 256


@dataclass(frozen=True)
class SimConfig:
    """Fixed integration step, horizon, and telemetry decimation.  The
    horizon must be countable: t_end / dt finite, and its telemetry rows
    (n_steps // record_every + 2) at most sys.maxsize."""

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
        steps = self.t_end / self.dt
        if not steps < math.inf or \
                self.n_steps // self.record_every + 2 > sys.maxsize:
            raise ConfigurationError(
                f"t_end / dt = {steps:g} steps need more than {sys.maxsize} "
                f"telemetry rows at record_every = {self.record_every}",
                ("t_end",))

    @property
    def n_steps(self) -> int:
        """Steps to the first sample time at or after t_end, with 1e-9
        relative slack for the rounding of t_end / dt."""
        return math.ceil(self.t_end / self.dt * (1 - 1e-9))


@dataclass(frozen=True)
class DitherSpec:
    """Excitation added identically to every control channel: amplitude * n(t)."""

    amplitude: float = 0.0

    def __post_init__(self):
        if not 0 <= self.amplitude < math.inf:
            raise ConfigurationError(
                f"amplitude must be finite and >= 0, got {self.amplitude}",
                ("amplitude",))


def check_run(learner_cfg: LearnerConfig, sim_cfg: SimConfig):
    """Rules joining the learner and the sim: dt <= T (to 1e-12 relative)
    and a horizon past the warm-up window T."""
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


def rk4_step(field, t: float, state, dt: float) -> list:
    """Classical 4th-order Runge-Kutta step of ``d(state)/dt = field(t, state)``
    on Python floats: `field` takes and returns a sequence of floats, and
    the new state comes back as a list.

    Element by element it does the operations of the array form
    state + dt/6 (k1 + 2 k2 + 2 k3 + k4), in the same order, so it gives the
    same bits.  A non-finite stage makes the new state non-finite, so the
    stages are searched only then; the first non-finite one raises
    NumericFault.
    """
    if not dt > 0:
        raise ConfigurationError(f"dt must be > 0, got {dt}")
    h = dt / 2.0
    k1 = field(t, state)
    k2 = field(t + h, [s + h * k for s, k in zip(state, k1)])
    k3 = field(t + h, [s + h * k for s, k in zip(state, k2)])
    k4 = field(t + dt, [s + dt * k for s, k in zip(state, k3)])
    d6 = dt / 6.0
    out = [s + d6 * (a + 2.0 * b + 2.0 * c + d)
           for s, a, b, c, d in zip(state, k1, k2, k3, k4)]
    # a sum of finite floats may overflow, but one with a non-finite term
    # is never finite
    if not math.isfinite(sum(out)):
        for i, k in enumerate((k1, k2, k3, k4)):
            if not all(map(math.isfinite, k)):
                raise NumericFault(f"non-finite RK4 stage {i + 1} at t={t}", t=t)
    return out


def rk4_propagator(A: np.ndarray, B: np.ndarray, dt: float):
    """(Phi, Gamma) of one classical RK4 step of ``ds/dt = A s + B u`` with u
    held: the step is exactly s <- Phi s + Gamma u, where, with h = dt,
    Phi = I + hA P, Gamma = h P B and P = I + hA/2 + (hA)^2/6 + (hA)^3/24."""
    eye, hA = np.eye(len(A)), dt * np.asarray(A, dtype=float)
    P = eye + hA @ (eye + hA @ (eye + hA / 4.0) / 3.0) / 2.0
    return eye + hA @ P, dt * (P @ np.asarray(B, dtype=float))


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
    `capacity` is the most rows the log will hold: `_telemetry` sizes a
    member's log for its horizon.
    Warnings are kept once per kind, with a count and first/last times.

    Given `csv_path`, the file that `to_csv` will write, a log that fills
    its first chunk of `_CHUNK_ROWS` rows starts a writer process for that
    file and sends it each chunk as it completes, so the formatting runs
    on another core while the loop goes on; `to_csv(csv_path)` sends the
    rest and waits.  A shorter log, or one without a path, is formatted in
    `to_csv` itself.  Either way `_csv_sink.write_csv` writes the file,
    and a failed write leaves none.
    """

    def __init__(self, dim_z: int, dim_x: int, dim_xd: int, m: int, n1: int,
                 control_names=None, *, capacity: int, csv_path=None):
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
        self._data = np.empty((capacity, len(cols)))
        self._n = 0
        self.warnings: dict[str, WarningCount] = {}
        self._csv_path, self._writer = csv_path, None
        # the row count whose append sends a chunk; 0, never reached, when
        # the log does not stream
        self._send_at = _CHUNK_ROWS if csv_path is not None else 0

    @property
    def rows(self) -> np.ndarray:
        """The recorded rows, one per record, in header order."""
        return self._data[:self._n]

    def append(self, t, z, x, xd, u, n_val, e_hat, sigma, xi, I_hat, V_hat, W):
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
        # a sum with a non-finite term is never finite: search the row only
        # when its sum is not finite
        if not math.isfinite(np.add.reduce(row)) and not np.isfinite(row).all():
            raise NumericFault("attempted to record a non-finite telemetry value", t=t)
        self._n += 1
        if self._n == self._send_at:
            self._send_chunk()

    def _send_chunk(self):
        """Send the chunk just completed, starting the writer on the first.
        A writer that cannot start leaves the log to `to_csv`."""
        if self._writer is None:
            from ._csv_sink import CsvWriter
            try:
                self._writer = CsvWriter(self._csv_path, self.header)
            except OSError:
                self._send_at = 0
                return
        self._writer.send(self._data[self._n - _CHUNK_ROWS:self._n])
        self._send_at += _CHUNK_ROWS

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
        """Write the log as CSV through `_csv_sink.write_csv`: the header,
        then one line per row with every value as repr(float).

        A log streaming to `path` sends its last rows and the end of the
        stream, and waits for its writer: OSError if the writer failed.
        Otherwise `write_csv` is called here with chunks of `_CHUNK_ROWS`
        rows, so the chunk, not the run length, bounds the working set; a
        writer streaming to another path is stopped first.
        """
        writer = self._writer
        if writer is not None and writer.path == os.fspath(path):
            self._writer, self._send_at = None, 0
            sent = self._n - self._n % _CHUNK_ROWS    # every full chunk
            if sent < self._n:
                writer.send(self._data[sent:self._n])
            writer.close(complete=True)
            return
        self.abort_csv()    # a writer streaming to another path
        from ._csv_sink import write_csv
        rows = self.rows
        write_csv(path, self.header, (rows[lo:lo + _CHUNK_ROWS].ravel().tolist()
                                      for lo in range(0, len(rows), _CHUNK_ROWS)))

    def abort_csv(self):
        """Stop the log's writer, if it has one, without a file: the writer
        deletes what it wrote."""
        writer, self._writer, self._send_at = self._writer, None, 0
        if writer is not None:
            writer.close(complete=False)


class TrackingEnv(Protocol):
    """What the step loop and the CLI read; the learner uses only z and G.

    No drift field is part of it: an environment offers the control
    coupling G(z) and integrates its own physics in `advance`, so nonlinear
    physics is an env of its own.  A batch of exact catalog pairs
    (`AugmentedTrackingEnv`s, no subclass) is read once, as stacked rows
    that step themselves; a lone run, and each member of any other batch,
    goes through these methods, even if it reports a `linear_pair()`."""

    control_names: Sequence[str]
    m: int
    dim_z: int
    x: Sequence[float]           # logged plant state, an array or a list
    x_d: Sequence[float]         # logged reference state, likewise

    def z(self) -> np.ndarray: ...  # a new array on each call
    def G(self, z: np.ndarray) -> np.ndarray: ...  # (dim_z, m) control coupling
    def advance(self, u_applied: np.ndarray, t: float, dt: float): ...
    def check_domain(self, telemetry: Telemetry, t: float): ...
    def series(self, telemetry: Telemetry) -> dict: ...  # {panel: per-row values}
    def linear_pair(self) -> tuple | None: ...  # stacked (A, B), if linear


class AugmentedTrackingEnv:
    """Generic environment: a catalog plant tracking an autonomous reference.

    Plant and reference take one propagator step together in `advance`;
    the stacked state is z = [x - x_d, x_d] and the control coupling is
    G(z) = [B; 0].  The stacked (A, B) is built once: `G` and `linear_pair`
    return the same read-only arrays on every call.  The env keeps
    s = [x, x_d] between steps, and `advance` steps s alone; x and x_d are
    properties over views of s with no setter, so assigning either raises
    AttributeError instead of moving a state that `advance` never reads.
    The plant's state dimension is read once, as n.
    """

    def __init__(self, plant: AffinePlant, ref: ReferenceModel,
                 x0: np.ndarray | None = None):
        if len(ref.x_d0) != plant.n:
            raise ConfigurationError(
                f"plant {plant.name!r} has n={plant.n} but reference {ref.name!r} "
                f"has dimension {len(ref.x_d0)}")
        self.plant, self.ref = plant, ref
        self._s = np.concatenate([x0 if x0 is not None else ref.x_d0, ref.x_d0],
                                 dtype=float)
        self.n, self.m, self.dim_z = plant.n, plant.m, 2 * plant.n
        self._x, self._x_d = self._s[:self.n], self._s[self.n:]
        self.control_names = [f"u{i}" for i in range(plant.m)]
        self._pair = augmented_linear(plant.A, plant.B, ref.H)
        for M in self._pair:
            M.flags.writeable = False
        self._propagators: dict[float, tuple] = {}

    @property
    def x(self) -> np.ndarray:
        """The plant state: a view of s, rebound by `advance`."""
        return self._x

    @property
    def x_d(self) -> np.ndarray:
        """The reference state: a view of s, rebound by `advance`."""
        return self._x_d

    def z(self) -> np.ndarray:
        return np.concatenate([self._x - self._x_d, self._x_d])

    def G(self, z: np.ndarray) -> np.ndarray:
        return self._pair[1]

    def propagator(self, dt: float):
        """(Phi, Gamma) of the pair's RK4 step on s = [x, x_d], once per dt."""
        if dt not in self._propagators:
            n = self.n
            A, B = np.zeros((2 * n, 2 * n)), np.zeros((2 * n, self.m))
            A[:n, :n], A[n:, n:], B[:n] = self.plant.A, self.ref.H, self.plant.B
            self._propagators[dt] = rk4_propagator(A, B, dt)
        return self._propagators[dt]

    def advance(self, u_applied: np.ndarray, t: float, dt: float):
        Phi, Gamma = self.propagator(dt)
        s = Phi.dot(self._s) + Gamma @ u_applied
        # a sum with a non-finite term is never finite
        if not math.isfinite(sum(s.tolist())) and not np.isfinite(s).all():
            raise NumericFault(f"non-finite state at t={t}", t=t)
        self._s, self._x, self._x_d = s, s[:self.n], s[self.n:]

    def check_domain(self, telemetry: Telemetry, t: float):
        """A catalog plant has no operating box: nothing to warn about."""

    def series(self, telemetry: Telemetry) -> dict:
        return {}

    def linear_pair(self):
        return self._pair


class _LinearRows(Rows):
    """Catalog pairs, stacked: each row's s = [x, x_d] takes one propagator
    step s <- Phi s + Gamma u, with its env's Phi/Gamma for the batch's dt
    stacked once.  Each env's G and s are read once, at build, as G_z and
    s; after that the rows own the states and no env is read."""

    def __init__(self, envs, dt: float):
        Phi, Gamma = zip(*(e.propagator(dt) for e in envs))
        super().__init__(n=envs[0].n, Phi=np.array(Phi), Gamma=np.array(Gamma),
                         G_z=np.array([e.G(e.z()) for e in envs]),
                         s=np.array([np.concatenate([e.x, e.x_d]) for e in envs]))

    def z(self):
        x, x_d = self.s[:, :self.n], self.s[:, self.n:]
        return np.concatenate((x - x_d, x_d), axis=1)

    def advance(self, u_applied, t: float, dt: float):
        self.s = np.matvec(self.Phi, self.s) + np.matvec(self.Gamma, u_applied)
        # a sum with a non-finite term is never finite: search the rows only
        # when some state is non-finite
        if math.isfinite(np.add.reduce(self.s, None)):
            return []
        return [(i, NumericFault(f"non-finite state at t={t}", t=t))
                for i in np.flatnonzero(~np.isfinite(self.s).all(1))]


def _telemetry(env, n1: int, sim_cfg: SimConfig, csv_path=None) -> Telemetry:
    """A member's log, sized for the horizon: n_steps // record_every + 2
    rows, at least as many as the loop records; ConfigurationError naming
    `sim.t_end_s` if it cannot be allocated."""
    try:
        return Telemetry(env.dim_z, len(env.x), len(env.x_d), env.m, n1,
                         env.control_names,
                         capacity=sim_cfg.n_steps // sim_cfg.record_every + 2,
                         csv_path=csv_path)
    except (ValueError, MemoryError) as exc:
        raise ConfigurationError(
            f"sim.t_end_s: the telemetry of t_end = {sim_cfg.t_end} cannot "
            f"be allocated: {exc}") from None


def _stamp(fault: NumericFault, t: float, k: int, telemetry: Telemetry):
    """Stamp a member's fault with the step's t and index, unless it came
    with them, and its partial telemetry."""
    fault.t = t if fault.t is None else fault.t
    fault.step = k if fault.step is None else fault.step
    fault.telemetry = telemetry


def run_batch(members, sim_cfg: SimConfig, csv_paths=None):
    """Run every member, (env, learner_cfg, dither_spec, W0 or None for
    zeros), in the learn-act loop with the critic's quadratic basis;
    members share their dimensions and window T.  Returns (telemetry,
    fault) per member: fault is None for a finished run, else the
    `NumericFault` that ended it, stamped with t, step and the partial
    telemetry; every log is sized for the horizon (`_telemetry`).  The
    loop's form is chosen once: a batch of one runs `_run_one`, which
    streams its log to `csv_paths[0]` through a writer process
    (`Telemetry`), completed by `telemetry.to_csv(path)`, with no writer
    left running, nor a partial file, if the loop raises; a larger batch
    of exact catalog pairs (each env's type `AugmentedTrackingEnv`, not a
    subclass) runs `_run_rows` on their stacked rows, and any other runs
    its members through `_run_one` in turn.  A larger batch starts no
    writers (they would contend with the loop and each other for the
    cores) and ignores `csv_paths`.  A horizon whose telemetry cannot be
    allocated raises ConfigurationError naming `sim.t_end_s`."""
    envs, lcfgs, dithers, W0s = zip(*members)
    for lcfg in lcfgs:
        check_run(lcfg, sim_cfg)
    dims = {(e.dim_z, e.m, len(e.x), len(e.x_d), c.T) for e, c in zip(envs, lcfgs)}
    if len(dims) > 1:
        raise ConfigurationError("batched runs must share the state and "
                                 "control dimensions and the window T")
    basis = quad_basis(envs[0].dim_z)
    paths = csv_paths if csv_paths and len(members) == 1 else [None] * len(members)
    # a fault is found by the finiteness checks
    with np.errstate(all="ignore"):
        if len(members) > 1 and all(type(e) is AugmentedTrackingEnv for e in envs):
            return _run_rows(envs, lcfgs, dithers, W0s, sim_cfg, basis)
        return [_run_one(*member, sim_cfg, basis, path)
                for member, path in zip(members, paths)]


def _run_rows(envs, lcfgs, dithers, W0s, sim_cfg: SimConfig, basis):
    """The loop of `run_batch` for B > 1 catalog pairs along a leading
    batch axis, reading no env after `_LinearRows` is built: each row's
    log records its x and x_d from its own s.  A faulted row leaves and
    the others go on."""
    T, dt, every, n_steps = (lcfgs[0].T, sim_cfg.dt, sim_cfg.record_every,
                             sim_cfg.n_steps)
    env_rows = _LinearRows(envs, dt)
    critic = CriticRows(lcfgs, W0s, basis.n_features)
    buf = WindowBuffer(T, dt)
    b = Rows(ids=np.arange(len(envs)), z_prev=np.zeros((len(envs), envs[0].dim_z)),
             amp=np.array([d.amplitude for d in dithers]))
    excited = bool(b.amp.any())
    telemetry = [_telemetry(e, basis.n_features, sim_cfg) for e in envs]
    faults: list[NumericFault | None] = [None] * len(envs)
    live = list(telemetry)    # of the rows still running

    def drop(dead: list[tuple[int, NumericFault]]):
        """Stamp and keep each dead row's fault; drop the rows."""
        for i, exc in dead:
            _stamp(exc, t, k, live[i])
            faults[b.ids[i]] = exc
        alive = np.ones(len(live), dtype=bool)
        alive[[i for i, _ in dead]] = False
        for rows in (b, critic, buf, env_rows):
            rows.keep(alive)
        live[:] = [tel for tel, keep in zip(live, alive) if keep]
        return alive

    for k in range(n_steps + 1):
        t = k * dt
        # 1. features, coupling, policy, stage cost and W . M
        z = env_rows.z()
        grad = basis.grad_rows(z)
        G = env_rows.G_z
        tau = tau2_rows(critic.W, grad, G, critic.den)
        th = np.tanh(tau)
        u_hat = critic.neg_u_m * th
        cost = (np.vecdot(np.vecmat(z, critic.Q1), z)
                + penalty_rows(tau, th, critic.um2, critic.r))
        ndg = np.matmul(grad, G) if critic.use_m or critic.use_stab else None
        m_scalar = 0.0
        if critic.use_m:
            M = m_vector(ndg, th, tau, critic.u_m)
            m_scalar = np.where(critic.m_term, np.vecdot(critic.W, M), 0.0)
        theta = basis.eval_rows(z)

        # 2. push the window sample for t_k
        buf.push(t, theta, cost, m_scalar)

        # 3. critic update once the buffer spans a full window
        sigma = np.vecdot(z, z - b.z_prev) / dt if k > 0 else np.zeros(len(z))
        dead = critic.update(buf, theta, z, G, ndg, th, sigma, dt) \
            if k > 0 and buf.ready else []

        # 4. record telemetry; with every amplitude 0, u_hat + n is u_hat
        # unless u_hat holds a zero, whose sign the add may flip, so the
        # dither is evaluated only then
        record = k % every == 0 or k == n_steps
        n_val = b.amp * dither(t) \
            if excited or record or np.count_nonzero(u_hat) < u_hat.size else None
        if record:
            faulted = {i for i, _ in dead}
            s, n = env_rows.s, env_rows.n
            scalars = zip(n_val.tolist(), critic.e_hat.tolist(), sigma.tolist(),
                          critic.I_hat.tolist(), np.vecdot(critic.W, theta).tolist())
            for i, (tel, (n_i, e_i, s_i, I_i, V_i)) in enumerate(zip(live, scalars)):
                try:
                    if i not in faulted:
                        tel.append(t, z[i], s[i, :n], s[i, n:], u_hat[i], n_i, e_i,
                                   s_i, 0 if s_i < 0 else 1, I_i, V_i, critic.W[i])
                except NumericFault as exc:
                    dead.append((i, exc))
        u = u_hat if n_val is None else u_hat + n_val[:, None]
        b.z_prev = z
        if dead:
            u = u[drop(dead)]

        # 5. integrate u to t_{k+1}, clipped only where dithered (as in
        # `_run_one`)
        if k < n_steps and live:
            dead = env_rows.advance(u if n_val is None else saturate(u, critic.u_m),
                                    t, dt)
            if dead:
                drop(dead)
        if not live:
            break
    return list(zip(telemetry, faults))


def _run_one(env, lcfg: LearnerConfig, dither_spec: DitherSpec, W0,
             sim_cfg: SimConfig, basis, csv_path):
    """The loop of `_run_rows` for one member, on 1-D arrays and with every
    per-row scalar a Python float (`CriticRow`, `penalty_row`), each
    expression the same operations on the same operands in the same order
    and each product its row's inner call (`.dot`, or `@` over the control
    channels), so the member has the bits of its row in any batch.  It
    calls the env's own `z`, `G`, `check_domain` and `advance`, whatever
    the env, clips u_hat + dither with `saturate` only where a dither was
    added, as `_run_rows` does, and streams its log to `csv_path`.  A
    `NumericFault` raised anywhere in a step ends the run, stamped with
    the step's t and index and the partial log; any other exception
    stops the writer without a file and propagates.  Returns (telemetry,
    fault or None)."""
    dt, every, n_steps = sim_cfg.dt, sim_cfg.record_every, sim_cfg.n_steps
    critic = CriticRow(lcfg, W0, basis.n_features)
    buf = WindowBuffer(lcfg.T, dt)
    Q1, r, u_m = lcfg.Q1, lcfg.sat.r_diag, lcfg.sat.u_m
    neg_u_m, um2, den = -u_m, u_m ** 2, 2.0 * u_m * r
    amp = dither_spec.amplitude
    use_ndg = critic.m_term or critic.stab
    z_prev = np.zeros(env.dim_z)
    tel = _telemetry(env, basis.n_features, sim_cfg, csv_path)
    try:
        for k in range(n_steps + 1):
            t = k * dt
            # 1. features, coupling, policy, stage cost and W . M
            z = env.z()
            grad = basis.grad(z)
            G = env.G(z)
            tau = critic.W.dot(grad).dot(G) / den
            th = np.tanh(tau)
            u_hat = neg_u_m * th
            cost = float(z.dot(Q1).dot(z)) + penalty_row(tau, th, um2, r)
            ndg = grad.dot(G) if use_ndg else None
            m_w = float(critic.W.dot(m_vector(ndg, th, tau, u_m))) if critic.m_term else 0.0
            theta = basis.eval(z)

            # 2. push the window sample for t_k
            buf.push(t, theta, cost, m_w)

            # 3. critic update once the buffer spans a full window
            sigma = float(z.dot(z - z_prev)) / dt if k > 0 else 0.0
            if k > 0 and buf.ready:
                critic.update(buf, theta, z, G, ndg, th, sigma, dt)

            # 4. record telemetry and the domain warning (the dither as in
            # `_run_rows`: -0.0 == 0.0)
            record = k % every == 0 or k == n_steps
            n_val = amp * dither(t) if amp or record or 0.0 in u_hat.tolist() else None
            if record:
                tel.append(t, z, env.x, env.x_d, u_hat, n_val, critic.e_hat,
                           sigma, 0 if sigma < 0 else 1, critic.I_hat,
                           float(critic.W.dot(theta)), critic.W)
            # u_hat = -u_m tanh(tau) is within +-u_m, or NaN, where the
            # clip returns its input: only a dithered u is clipped
            u = u_hat if n_val is None else saturate(u_hat + n_val, u_m)
            z_prev = z
            env.check_domain(tel, t)

            # 5. integrate u to t_{k+1}
            if k < n_steps:
                env.advance(u, t, dt)
    except NumericFault as fault:
        _stamp(fault, t, k, tel)
        return tel, fault
    except BaseException:    # no writer left running, nor a partial file
        tel.abort_csv()
        raise
    return tel, None


def run_env_experiment(env: TrackingEnv, learner_cfg: LearnerConfig,
                       sim_cfg: SimConfig, dither_spec: DitherSpec = DitherSpec(),
                       W0: np.ndarray | None = None) -> Telemetry:
    """Drive one tracking environment through the learn-act loop, a
    `run_batch` of one.  A numeric fault is raised stamped with the step's t
    and index (unless it came with them) and the partial telemetry, so
    callers can report and flush it."""
    ((telemetry, fault),) = run_batch(
        [(env, learner_cfg, dither_spec, W0)], sim_cfg)
    if fault is not None:
        raise fault
    return telemetry
