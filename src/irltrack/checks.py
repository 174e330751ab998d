"""Self-contained oracle checks: each validates one core identity against an
independent computation and returns (name, passed, detail)."""
from __future__ import annotations

import math

import numpy as np

from . import catalog
from .basis import fd_gradient, quad_basis
from .benchmarks.linear import discounted_riccati, ideal_weights, riccati_residual
from .errors import OracleFailure
from .learner import WindowBuffer
from .policy import SaturationSpec, penalty_closed, penalty_integral


def check_penalty_identity(n_draws: int = 100, seed: int = 7):
    """Closed-form penalty vs adaptive quadrature at u = -u_m tanh(tau)."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for u_m in (1.0, math.pi / 2):
        sat = SaturationSpec(u_m=u_m, r_diag=np.ones(3))
        for _ in range(n_draws):
            tau = rng.uniform(-5, 5, 3)
            closed = penalty_closed(tau, sat)
            quadr = penalty_integral(-u_m * np.tanh(tau), sat)
            worst = max(worst, abs(closed - quadr) / max(abs(quadr), 1e-12))
    return ("penalty closed-form vs quadrature", worst <= 1e-8,
            f"max rel err {worst:.2e} (tol 1e-8)")


def check_basis_gradient(n_points: int = 50, seed: int = 3):
    """The step loop's analytic regressor gradient vs central finite
    differences."""
    basis = quad_basis(6)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_points):
        z = rng.uniform(-2, 2, 6)
        an = basis.grad_rows(z[None])[0]
        fd = fd_gradient(basis, z)
        worst = max(worst, np.max(np.abs(fd - an)) / (1e-9 + np.max(np.abs(an))))
    return ("regressor gradient vs finite differences", worst <= 1e-6,
            f"max rel err {worst:.2e} (tol 1e-6)")


def check_window_identity(gamma: float = 0.1, T: float = 1e-2, dt: float = 1e-4,
                          n_windows: int = 20):
    """exp(-gamma T) theta_t - theta_{t-T} vs the windowed quadrature of
    exp(-gamma (tau-t+T)) (grad_theta zdot - gamma theta), zdot = A z + B u
    from the pair's stacked linear system."""
    # z0 = [1.5, -0.5, 1.0, 0.0] under the open-loop u = 0.5 sin(2t)
    env = catalog.make_env("linear_osc", "harmonic",
                           {"omega": 1.0, "x0": "2.5 -0.5"}, {"omega": 1.0})
    (A, B), basis = env.linear_pair(), quad_basis(4)
    ts = np.arange(int(round(2.0 / dt)) + 1) * dt
    us = 0.5 * np.sin(2.0 * ts)[:, None]
    zs = [env.z()]
    for t, u in zip(ts[:-1], us):
        env.advance(u, t, dt)
        zs.append(env.z())
    k_win = int(round(T / dt))
    idx = np.linspace(k_win, len(ts) - 1, n_windows).astype(int)
    worst = 0.0
    emgt = math.exp(-gamma * T)
    for k in idx:
        lhs = emgt * basis.eval(zs[k]) - basis.eval(zs[k - k_win])
        tau_s = ts[k - k_win:k + 1]
        w = np.exp(-gamma * (tau_s - ts[k] + T))
        vals = np.array([
            basis.grad(zs[j]) @ (A @ zs[j] + B @ us[j])
            - gamma * basis.eval(zs[j])
            for j in range(k - k_win, k + 1)])
        rhs = np.trapezoid(w[:, None] * vals, tau_s, axis=0)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return ("windowed regressor-difference identity", worst <= 1e-4,
            f"max abs err {worst:.2e} (tol 1e-4)")


def check_discounted_quadrature(gamma: float = 0.1, c: float = 3.7,
                                T: float = 1e-3):
    """The step loop's window pass on a constant integrand vs the analytic
    antiderivative."""
    dt = T / 100.0
    buf = WindowBuffer(T, dt)
    for k in range(101):
        buf.push(k * dt, np.zeros((1, 1)), c, 0.0)
    got = float(buf.window(np.array([-gamma]))[1][0])
    expected = c * T if gamma == 0.0 else c * (-np.expm1(-gamma * T)) / gamma
    err = abs(got - expected)
    return ("discounted window quadrature (constant integrand)", err <= 1e-10,
            f"abs err {err:.2e} (tol 1e-10, gamma={gamma})")


def check_riccati_residual():
    """Oracle P of the bundled linear pair substituted into the algebraic eq.,
    and against the independent `scipy.linalg.solve_continuous_are`."""
    from scipy.linalg import solve_continuous_are

    A, B = catalog.make_env("linear_osc", "harmonic", {"omega": 6.0},
                            {"omega": 6.0}).linear_pair()
    Q1, R, gamma = np.diag([1.0, 1.0, 0.0, 0.0]), np.array([[10.0]]), 0.1
    try:
        P = discounted_riccati(A, B, Q1, R, gamma)
    except OracleFailure as exc:
        return ("Riccati oracle residual", False, str(exc))
    res = np.linalg.norm(riccati_residual(P, A, B, Q1, R, gamma), "fro")
    P_ref = solve_continuous_are(A - 0.5 * gamma * np.eye(4), B, Q1, R)
    rel = np.linalg.norm(P - P_ref) / np.linalg.norm(P_ref)
    return ("Riccati oracle residual", res <= 1e-9 and rel <= 1e-10,
            f"Frobenius residual {res:.2e} (tol 1e-9), rel diff to scipy "
            f"{rel:.2e} (tol 1e-10)")


def check_ideal_weights_roundtrip(n_draws: int = 20, seed: int = 11):
    """W from P reproduces z^T P z through the feature expansion."""
    rng = np.random.default_rng(seed)
    basis = quad_basis(4)
    worst = 0.0
    for _ in range(n_draws):
        M = rng.normal(size=(4, 4))
        P = 0.5 * (M + M.T)
        W = ideal_weights(P)
        for _ in range(5):
            z = rng.normal(size=4)
            worst = max(worst, abs(W @ basis.eval(z) - z @ P @ z))
    return ("quadratic-value weight round trip", worst <= 1e-12,
            f"max abs err {worst:.2e} (tol 1e-12)")


def run_all():
    """Run the full oracle suite at the bundled gamma = 0.1; returns list of
    (name, passed, detail)."""
    return [
        check_penalty_identity(),
        check_basis_gradient(),
        check_window_identity(),
        check_discounted_quadrature(),
        check_riccati_residual(),
        check_ideal_weights_roundtrip(),
    ]
