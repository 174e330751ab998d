"""Acceptance suite: every numbered criterion at its stated tolerance.

Each test prints one `[criterion N] PASS` line; the two expensive closed-loop
runs (linear benchmark and the UAV scenario) are shared session fixtures.
"""
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from irltrack.basis import fd_gradient, quad_basis
from irltrack.benchmarks.linear import discounted_riccati, ideal_weights
from irltrack.benchmarks.uav import PHI, PSI, THETA
from irltrack.catalog import make_plant, make_reference
from irltrack.checks import check_window_identity
from irltrack.learner import LearnerConfig
from irltrack.models import augmented_linear
from irltrack.policy import SaturationSpec, penalty_closed, penalty_integral
from irltrack.sim import AugmentedTrackingEnv, SimConfig, run_env_experiment
from reference import (ReinforcementBuffer, law_terms, reinforcement_integral,
                       tau2_raw)

DEG = math.pi / 180.0


def test_criterion_1_penalty_identity():
    rng = np.random.default_rng(12345)
    t0 = time.perf_counter()
    worst = 0.0
    for u_m in (1.0, math.pi / 2):
        sat = SaturationSpec(u_m=u_m, r_diag=np.ones(3))
        for _ in range(500):
            tau = rng.uniform(-5.0, 5.0, 3)
            closed = penalty_closed(tau, sat)
            quadr = penalty_integral(-u_m * np.tanh(tau), sat)
            worst = max(worst, abs(closed - quadr) / max(abs(quadr), 1e-300))
    wall = time.perf_counter() - t0
    assert worst <= 1e-8
    assert wall < 5.0
    print(f"\n[criterion 1] PASS penalty identity: max rel err {worst:.2e} "
          f"over 1000 draws x 2 bounds in {wall:.2f}s")


def test_criterion_2_basis_gradient():
    rng = np.random.default_rng(99)
    basis = quad_basis(6)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        z = rng.uniform(-2.0, 2.0, 6)
        an = basis.grad(z)
        fd = fd_gradient(basis, z, h=1e-5)
        worst = max(worst, np.max(np.abs(fd - an)) / (1e-9 + np.max(np.abs(an))))
    wall = time.perf_counter() - t0
    assert worst <= 1e-6
    assert wall < 1.0
    print(f"\n[criterion 2] PASS basis gradient: max rel err {worst:.2e} "
          f"at 200 points in {wall:.2f}s")


def test_criterion_3_window_identity():
    t0 = time.perf_counter()
    name, ok, detail = check_window_identity(gamma=0.1, T=1e-2, dt=1e-4,
                                             n_windows=100)
    wall = time.perf_counter() - t0
    assert ok, detail
    assert wall < 10.0
    print(f"\n[criterion 3] PASS window identity: {detail} in {wall:.2f}s")


def test_criterion_4_discounted_quadrature():
    gamma, T, c = 0.1, 1e-3, 3.7
    dt = T / 100.0
    buf = ReinforcementBuffer(T, dt)
    for k in range(101):
        buf.push(k * dt, np.zeros(1), c, 0.0)
    got = reinforcement_integral(buf, gamma, T)
    want = c * (-np.expm1(-gamma * T)) / gamma
    err = abs(got - want)
    assert err <= 1e-10
    print(f"\n[criterion 4] PASS discounted quadrature: abs err {err:.2e}")


def test_criterion_5_linear_benchmark_convergence(linear_run):
    cfg = linear_run["cfg"].learner
    tel = linear_run["telemetry"]

    A_p = np.array([[0.0, 6.0], [-6.0, 0.0]])
    B_p = np.array([[0.0], [1.0]])
    A, B = augmented_linear(A_p, B_p, A_p)
    P = discounted_riccati(A, B, cfg.Q1, cfg.sat.R, cfg.gamma)
    W_star = ideal_weights(P)

    W = tel.columns("W")
    assert np.all(W[0] == 0.0)  # critic starts from zero weights
    rel_err = float(np.linalg.norm(W[-1] - W_star) / np.linalg.norm(W_star))

    ts = tel.t
    eh = np.abs(tel.column("e_hat"))[ts > cfg.T]
    n = len(eh)
    rms_first = float(np.sqrt(np.mean(eh[: n // 10] ** 2)))
    rms_last = float(np.sqrt(np.mean(eh[-(n // 10):] ** 2)))

    u = tel.columns("u_")
    tau_max = float(np.max(np.abs(np.arctanh(
        np.clip(u / cfg.sat.u_m, -1 + 1e-12, 1 - 1e-12)))))

    assert tau_max < 0.1  # configured saturation margin holds throughout
    assert rel_err <= 0.10
    assert rms_last <= 1e-3 * rms_first
    assert linear_run["wall_s"] < 60.0
    print(f"\n[criterion 5] PASS linear benchmark: weight err {rel_err:.3f}, "
          f"rms |e^| {rms_first:.2e} -> {rms_last:.2e} "
          f"(ratio {rms_first/rms_last:.0f}), max|tau2| {tau_max:.3f}, "
          f"run {linear_run['wall_s']:.1f}s")


def test_criterion_6_saturation_every_record(linear_run, uav_run):
    for name, run in (("linear", linear_run), ("uav", uav_run)):
        u = run["telemetry"].columns("u_")
        u_m = run["cfg"].learner.sat.u_m
        assert np.max(np.abs(u)) <= u_m, name
    assert uav_run["cfg"].learner.sat.u_m == pytest.approx(90.0 * DEG)
    print("\n[criterion 6] PASS saturation bound holds at every telemetry "
          "record of both bundled runs (uav u_m = 90 deg)")


def test_criterion_7_uav_scenario(uav_run):
    cfg = uav_run["cfg"]
    tel = uav_run["telemetry"]
    env = uav_run["env"]
    ts = tel.t
    x = tel.columns("x")

    # (a) every record of every state is finite
    assert np.all(np.isfinite(x))

    # (b) weight norm bounded, peak < 10x final
    Wn = np.linalg.norm(tel.columns("W"), axis=1)
    w_max, w_fin = float(np.max(Wn)), float(Wn[-1])
    assert w_max < 10.0 * w_fin

    # (c) per-axis attitude error <= 2 deg averaged over the last 1 s
    # before each setpoint switch
    att = x[:, [PHI, THETA, PSI]]
    worst = 0.0
    for t_sw, _ in env.schedule.entries[1:]:
        win = (ts >= t_sw - 1.0) & (ts < t_sw)
        target = env.schedule.attitude_des(t_sw - 1.0 - 1e-9)
        err_deg = np.mean(np.abs(att[win] - target), axis=0) / DEG
        worst = max(worst, float(np.max(err_deg)))
        assert np.all(err_deg <= 2.0), (t_sw, err_deg)

    # (d) value trace bounded, settling near zero
    vh = tel.column("V_hat")
    v_bound = float(np.max(np.abs(vh)))
    v_tail = float(np.mean(np.abs(vh[ts >= ts[-1] - 2.0])))
    assert v_bound < 5000.0
    assert v_tail <= 1.0

    assert uav_run["wall_s"] < 300.0
    print(f"\n[criterion 7] PASS uav scenario: worst window err {worst:.2f} deg, "
          f"|W| peak/final {w_max:.1f}/{w_fin:.1f}, |V^| peak {v_bound:.0f} "
          f"tail-mean {v_tail:.3f}, run {uav_run['wall_s']:.1f}s")


def test_criterion_8_law_containment():
    plant = make_plant("linear_osc", {"omega": 6.0})
    ref = make_reference("harmonic", {"omega": 6.0, "x_d0": "1 0"})
    sat = SaturationSpec(u_m=56.0, r_diag=np.array([10.0]))
    lcfg = LearnerConfig(alpha=150.0, gamma=0.1, T=1e-3,
                         Q1=np.diag([1.0, 1.0, 0.0, 0.0]), sat=sat,
                         q2=0.0, k2=0.01, k1_gain=0.0, k2_gain=0.0,
                         stabilizer_enabled=False, m_term_enabled=False)
    scfg = SimConfig(dt=1e-3, t_end=10.0, record_every=1)  # 10^4 steps
    tels = {}
    for law in ("novel", "baseline"):
        env = AugmentedTrackingEnv(plant, ref, x0=np.array([16.0, 0.0]))
        tels[law] = run_env_experiment(env, replace(lcfg, law=law), scfg)
    Wa = tels["novel"].columns("W")
    Wb = tels["baseline"].columns("W")
    diff = float(np.max(np.abs(Wa - Wb)))
    assert diff <= 1e-10
    print(f"\n[criterion 8] PASS law containment: max weight diff {diff:.1e} "
          f"over {len(Wa)} steps")


def _frozen_case():
    basis = quad_basis(2)
    sat = SaturationSpec(u_m=2.0, r_diag=np.array([1.0]))
    cfg = LearnerConfig(alpha=3.0, gamma=0.1, T=1e-3, Q1=np.eye(2), sat=sat,
                        q2=0.1, k2=0.01, k1_gain=0.0, k2_gain=0.0)
    z = np.array([0.6, -0.2])
    W = np.array([0.2, -0.1, 0.3, 0.0, 0.1])
    dtheta = np.array([0.05, -0.02, 0.01, 0.0, 0.03])
    G_z = np.array([[1.5], [0.0]])   # a constant control coupling G(z)
    return cfg, W, dtheta, basis.grad(z), G_z, z


def test_criterion_9_variable_gain_scaling():
    cfg, W, dtheta, grad, G_z, z = _frozen_case()
    tau = tau2_raw(grad, G_z, W, cfg.sat)
    e = 0.37
    t1a, _, _ = law_terms(W, e, -1.0, 0, dtheta, grad, G_z, tau, z, 0.0, cfg)
    t1b, _, _ = law_terms(W, 2 * e, -1.0, 0, dtheta, grad, G_z, tau, z, 0.0, cfg)
    r1 = np.linalg.norm(t1b) / np.linalg.norm(t1a)
    assert abs(r1 - 2.0 ** (1.0 + cfg.q2)) <= 1e-12

    s = 0.8
    _, t2a, _ = law_terms(W, e, s, 1, dtheta, grad, G_z, tau, z, 0.0, cfg)
    _, t2b, _ = law_terms(W, e, 2 * s, 1, dtheta, grad, G_z, tau, z, 0.0, cfg)
    r2 = np.linalg.norm(t2b) / np.linalg.norm(t2a)
    assert abs(r2 - 2.0 ** cfg.k2) <= 1e-12
    print(f"\n[criterion 9] PASS variable-gain scaling: first-term ratio "
          f"{r1:.12f} (2^1.1), stabilizer ratio {r2:.12f} (2^0.01)")


def test_criterion_10_indicator_gating():
    cfg, W, dtheta, grad, G_z, z = _frozen_case()
    tau = tau2_raw(grad, G_z, W, cfg.sat)
    _, stab_off, _ = law_terms(W, 0.2, -0.7, 0, dtheta, grad, G_z, tau, z, 0.0, cfg)
    assert np.all(stab_off == 0.0)
    # expanding sample: nonzero whenever (I - B) G^T z != 0
    assert np.linalg.norm((1.0 - np.tanh(tau) ** 2) * (G_z.T @ z)) > 0.0
    _, stab_on, _ = law_terms(W, 0.2, 0.7, 1, dtheta, grad, G_z, tau, z, 0.0, cfg)
    assert np.linalg.norm(stab_on) > 0.0
    print("\n[criterion 10] PASS indicator gating: stabilizer exactly zero on "
          "contraction, active on expansion")
