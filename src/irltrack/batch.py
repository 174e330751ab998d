"""Batched step loop: B runs on linear catalog pairs, integrated at once.

`run_batch` carries B members along a leading batch axis: stacked states
(B, 2n), weights (B, n1), and each member's gains, saturation, dither
amplitude, plant/reference matrices and initial state as (B, ...) arrays.
It follows the step order of `sim.run_env_experiment` (steps 1-5 of the
`sim` docstring) with the same formulas, and runs the baseline law as the
degenerate variable-gain law (q2 = 0, k1_gain = k2_gain = 0, stabilizer
and m-term off).  A law term that no member uses is not computed.

Members share the basis, the sim config and the window T, so the window's
time grid is built once per step, exactly as `ReinforcementBuffer.window`
builds it.  Each member keeps its own `Telemetry`, with its finiteness and
time-order checks.  A member that faults where the scalar loop would
(critic update, telemetry record, RK4 stage) leaves the batch with its
fault and partial telemetry; the others go on.

Every product over the state and feature axes is a stacked `np.matmul`,
which makes per member the BLAS call of the scalar loop's 1-D `@`; every
other operation is elementwise, in the scalar loop's order; and |x|^p is
Python's float power, as in `learner.gain_pow`.  So a member's numbers
match its scalar run's (byte for byte on the numpy 2.4 / OpenBLAS build
this was written on; the tests pin agreement within 1e-12 of each telemetry
column's largest magnitude), and never depend on which or how many other
members share its batch.
"""
from __future__ import annotations

import math

import numpy as np

from .basis import RegressorBasis
from .errors import ConfigurationError, NumericFault
from .learner import _SPAN_RTOL, gain_pow
from .policy import log_one_minus_tanh2
from .sim import SimConfig, Telemetry, check_run, dither


class _Rows:
    """Per-member arrays of the members still running, batch axis first."""

    def __init__(self, **arrays):
        self.__dict__.update(arrays)

    def keep(self, mask: np.ndarray):
        for name, value in vars(self).items():
            setattr(self, name, value[mask])


def run_batch(members, basis: RegressorBasis, sim_cfg: SimConfig):
    """Run every member's experiment in one batched loop.

    `members` is a sequence of (env, learner_cfg, law, dither_spec) whose
    envs are `AugmentedTrackingEnv`s with a `linear_pair()`, all of one
    state and control dimension and one window T.  Returns one
    (telemetry, fault) per member, in order: fault is None for a finished
    run, else the `NumericFault` its scalar run raises, stamped with t,
    step and the partial telemetry.
    """
    envs, lcfgs, laws, dithers = zip(*members)
    for env, lcfg, law in zip(envs, lcfgs, laws):
        check_run(law, lcfg, sim_cfg)
        if env.linear_pair() is None:
            raise ConfigurationError("a batched run needs a linear plant and "
                                     "a linear reference")
    n, m = envs[0].plant.n, envs[0].plant.m
    T = lcfgs[0].T
    if any((e.plant.n, e.plant.m, c.T) != (n, m, T) for e, c in zip(envs, lcfgs)):
        raise ConfigurationError("batched runs must share the plant dimensions "
                                 "and the window T")
    if basis.dim_in != 2 * n:
        raise ConfigurationError(f"basis {basis.name!r} does not fit the "
                                 f"{2 * n}-dim stacked state")
    dz, n1, dt = 2 * n, basis.n_features, sim_cfg.dt
    n_steps = int(round(sim_cfg.t_end / dt))
    every = sim_cfg.record_every
    cap = math.ceil(T / dt - _SPAN_RTOL) + 1   # ReinforcementBuffer.capacity
    count = len(members)

    novel = np.array([law == "novel" for law in laws])
    flags = {name: novel & [getattr(c, name) for c in lcfgs]
             for name in ("stabilizer_enabled", "m_term_enabled")}
    k1_gain = np.where(novel, [c.k1_gain for c in lcfgs], 0.0)
    k2_gain = np.where(novel, [c.k2_gain for c in lcfgs], 0.0)
    use_stab = bool(flags["stabilizer_enabled"].any())
    use_m = bool(flags["m_term_enabled"].any())
    use_robust = use_m or bool(np.any(k1_gain != 0) or np.any(k2_gain != 0))
    u_m = np.array([c.sat.u_m for c in lcfgs])
    um2 = np.array([c.sat.u_m ** 2 for c in lcfgs])
    AH = np.zeros((count, 2, n, n))        # [A_p, H_A]
    G = np.zeros((count, dz, m))           # G(z) = [B_p; 0] on a linear pair
    lo = np.full((count, n), -np.inf)
    hi = np.full((count, n), np.inf)
    for i, env in enumerate(envs):
        AH[i, 0], G[i, :n] = env.plant.linear
        AH[i, 1] = env.ref.linear
        if env.plant.domain is not None:
            lo[i], hi[i] = env.plant.domain
    b = _Rows(
        ids=np.arange(count),
        s=np.array([np.concatenate([e.x, e.x_d]) for e in envs]),
        W=np.zeros((count, n1)), e_hat=np.zeros(count), I_hat=np.zeros(count),
        z_prev=np.zeros((count, dz)),
        buf=np.zeros((count, cap, n1 + 2)),   # theta, Q(z) + U_hat, W . M
        AH=AH, G=G, B_p=G[:, :n], lo=lo, hi=hi,
        alpha=np.array([c.alpha for c in lcfgs]),
        half_alpha=np.array([0.5 * c.alpha for c in lcfgs]),
        neg_gamma=np.array([-c.gamma for c in lcfgs]),
        disc_T=np.array([math.exp(-c.gamma * c.T) for c in lcfgs]),
        q2=np.where(novel, [c.q2 for c in lcfgs], 0.0),
        k2=np.array([c.k2 for c in lcfgs]),
        k1_gain=k1_gain, k2_gain=k2_gain,
        stab=flags["stabilizer_enabled"], m_term=flags["m_term_enabled"],
        novel=novel, Q1=np.array([c.Q1 for c in lcfgs]),
        r=np.array([c.sat.r_diag for c in lcfgs]),
        den=np.array([2.0 * c.sat.u_m * c.sat.r_diag for c in lcfgs]),
        u_m=u_m[:, None], neg_u_m=-u_m[:, None], um2=um2,
        two_um2=np.array([2.0 * v for v in um2]),
        amp=np.array([d.amplitude for d in dithers]))
    check_domain = bool(np.isfinite(lo).any() or np.isfinite(hi).any())
    telemetry = [Telemetry(dim_z=dz, dim_x=n, dim_xd=n, m=m, n1=n1,
                           control_names=env.control_names,
                           capacity=n_steps // every + 2) for env in envs]
    faults: list[NumericFault | None] = [None] * count
    times: list[float] = []     # the buffered sample times, shared

    with np.errstate(all="ignore"):  # a fault is found by the finiteness checks
        for k in range(n_steps + 1):
            t = k * dt
            dead: list[int] = []    # rows that faulted in this step

            def fault(i, exc: NumericFault):
                exc.t = t if exc.t is None else exc.t
                exc.step = k
                exc.telemetry = telemetry[b.ids[i]]
                faults[b.ids[i]] = exc
                dead.append(i)

            # 1. features, coupling, policy, stage cost and W . M
            x, xd = b.s[:, :n], b.s[:, n:]
            z = np.concatenate((x - xd, xd), axis=1)
            grad = basis.grad_rows(z)
            tau = _vm(_vm(b.W, grad), b.G) / b.den
            th = np.tanh(tau)
            u_hat = b.neg_u_m * th
            cost = _dot(_vm(z, b.Q1), z) + (
                b.two_um2 * (b.r * tau * th).sum(1)
                + b.um2 * (b.r * log_one_minus_tanh2(tau)).sum(1))
            ndg = np.matmul(grad, b.G) if use_m or use_stab else None
            if use_m:
                M = _mv(ndg, b.u_m * (th - np.sign(tau)))
                m_scalar = np.where(b.m_term, _dot(b.W, M), 0.0)
            else:
                m_scalar = 0.0
            theta = basis.eval_rows(z)

            # 2. push the window sample for t_k
            if len(times) == cap:
                times.pop(0)
                b.buf[:, :-1] = b.buf[:, 1:]
            times.append(t)
            slot = b.buf[:, len(times) - 1]
            slot[:, :n1] = theta
            slot[:, n1] = cost
            slot[:, n1 + 1] = m_scalar

            # 3. critic update once the buffer spans a full window
            sigma = _dot(z, z - b.z_prev) / dt if k > 0 else np.zeros(len(z))
            if k > 0 and times[-1] - times[0] >= T * (1 - _SPAN_RTOL):
                b.W, b.e_hat, b.I_hat = _update(b, basis, times, T, dt, z, grad,
                                                ndg, th, sigma, use_stab,
                                                use_robust, fault)

            # 4. record telemetry
            n_val = b.amp * dither(t)
            if k % every == 0 or k == n_steps:
                V_hat = _dot(b.W, theta)
                xi = np.where(sigma < 0, 0, 1)
                for i in range(len(b.ids)):
                    if i in dead:
                        continue
                    try:
                        telemetry[b.ids[i]].append(
                            t, z[i], x[i], xd[i], u_hat[i], n_val[i],
                            b.e_hat[i], sigma[i], xi[i], b.I_hat[i], V_hat[i],
                            b.W[i])
                    except NumericFault as exc:
                        fault(i, exc)
            if check_domain:
                outside = ((x < b.lo) | (x > b.hi)).any(1)
                for i in np.flatnonzero(outside):
                    if i not in dead:
                        telemetry[b.ids[i]].warn("state left the operating box", t)

            # 5. saturate(u_hat + dither) and one RK4 step of the stacked state
            if k < n_steps:
                Bu = _mv(b.B_p, np.clip(u_hat + n_val[:, None], -b.u_m, b.u_m))

                def field(state):
                    # A_p x and H_A x_d as one stack of n x n products
                    out = np.matmul(b.AH, state.reshape(-1, 2, n, 1)).reshape(-1, dz)
                    out[:, :n] += Bu
                    return out

                k1 = field(b.s)
                k2 = field(b.s + (dt / 2.0) * k1)
                k3 = field(b.s + (dt / 2.0) * k2)
                k4 = field(b.s + dt * k3)
                s_new = b.s + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                # a non-finite stage makes the new state non-finite
                if not np.isfinite(s_new).all():
                    for i in np.flatnonzero(~np.isfinite(s_new).all(1)):
                        stage = next((j for j, kj in enumerate((k1, k2, k3, k4))
                                      if not np.isfinite(kj[i]).all()), None)
                        if stage is not None and i not in dead:
                            fault(i, NumericFault(
                                f"non-finite RK4 stage {stage + 1} at t={t}", t=t))
                b.s = s_new
                b.z_prev = z
            if dead:
                alive = np.ones(len(b.ids), dtype=bool)
                alive[dead] = False
                b.keep(alive)
                if not len(b.ids):
                    break
    return list(zip(telemetry, faults))


def _update(b: _Rows, basis, times, T, dt, z, grad, ndg, th, sigma, use_stab,
            use_robust, fault):
    """One Euler step of each member's law over the window [t-T, t].

    Returns (W, e_hat, I_hat); a member whose new weights are not finite
    is passed to `fault` with the scalar law's message.
    """
    n1 = basis.n_features
    # the window's time grid, as ReinforcementBuffer.window builds it
    t_now = times[-1]
    t_lo = t_now - T
    first = next(i for i, s in enumerate(times) if s >= t_lo)
    rows = b.buf[:, first:len(times)]
    ts = times[first:]
    if first > 0 and times[first] > t_lo + _SPAN_RTOL * T:
        w = (t_lo - times[first - 1]) / (times[first] - times[first - 1])
        left = (1 - w) * b.buf[:, first - 1] + w * b.buf[:, first]
        rows = np.concatenate((left[:, None], rows), axis=1)
        ts = [t_lo, *ts]
    ts = np.array(ts)
    disc = np.exp(b.neg_gamma[:, None] * (ts - t_now + T))
    y = disc[:, :, None] * rows[:, :, n1:]
    steps = (ts[1:] - ts[:-1])[:, None]
    integrals = (steps * (y[:, 1:] + y[:, :-1]) / 2.0).sum(1)
    I_hat, m_int = integrals[:, 0], integrals[:, 1]

    dtheta = b.disc_T[:, None] * rows[:, -1, :n1] - rows[:, 0, :n1]
    e_hat = I_hat + _dot(b.W, dtheta)
    ms = (1.0 + _dot(dtheta, dtheta))[:, None]
    phi = dtheta / ms
    theta_bar = phi / ms
    ge = b.alpha * _gain_pow(e_hat, b.q2)
    rate = (-ge * e_hat)[:, None] * theta_bar
    if use_stab:
        xi = b.stab & ~(sigma < 0)
        gs = b.half_alpha * _gain_pow(sigma, b.k2)
        stab = _mv(ndg, (1.0 - th ** 2) * _vm(z, b.G))
        rate = rate + np.where(xi[:, None], gs[:, None] * stab, 0.0)
    if use_robust:
        m_part = np.where(b.m_term[:, None], theta_bar * m_int[:, None], 0.0)
        rate = rate + ge[:, None] * ((b.k1_gain * _dot(phi, b.W))[:, None]
                                     - b.k2_gain[:, None] * b.W - m_part)
    W_new = b.W + dt * rate
    if np.isfinite(W_new).all():
        return W_new, e_hat, I_hat
    bad = ~np.isfinite(W_new)
    for i in np.flatnonzero(bad.any(1)):
        comp = int(np.flatnonzero(bad[i])[0])
        if b.novel[i]:
            msg = (f"critic weights non-finite after update (component {comp}, "
                   f"e_hat={float(e_hat[i])}, sigma={float(sigma[i])})")
        else:
            msg = (f"critic weights non-finite after baseline update (component "
                   f"{comp}, e_hat={float(e_hat[i])})")
        fault(i, NumericFault(msg, component=comp))
    return W_new, e_hat, I_hat


# Products over the state and feature axes, member by member, as the scalar
# loop's 1-D `@` computes them.

def _dot(a, b):
    """Row-wise a . b of two (B, k) arrays."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _mv(M, v):
    """Row-wise M v of (B, p, q) and (B, q)."""
    return np.matmul(M, v[:, :, None])[:, :, 0]


def _vm(v, M):
    """Row-wise v M, that is M^T v, of (B, p) and (B, p, q)."""
    return np.matmul(v[:, None, :], M)[:, 0, :]


def _gain_pow(x, p):
    """Row-wise `learner.gain_pow`, with Python's float power (numpy's
    vector power can differ from it in the last bit)."""
    return np.array([gain_pow(a, b) for a, b in zip(x.tolist(), p.tolist())])
