import math

import numpy as np
import pytest

from irltrack.basis import quad_basis
from irltrack.errors import ConfigurationError, NumericFault
from irltrack.learner import LearnerConfig, gain_pow
from irltrack.policy import SaturationSpec
from reference import (CriticState, NotReady, ReinforcementBuffer,
                       baseline_update_step, delta_theta, hjb_error, indicator,
                       law_terms, m_integral, m_vector_raw,
                       reinforcement_integral, sigma_rate, tau2_raw,
                       update_step)


def make_cfg(alpha=1.0, q2=0.1, k2=0.01, gamma=0.1, T=1e-3, u_m=1.0,
             m=1, **kw):
    sat = SaturationSpec(u_m=u_m, r_diag=np.ones(m))
    return LearnerConfig(alpha=alpha, gamma=gamma, T=T, Q1=np.eye(2), sat=sat,
                         q2=q2, k2=k2, k1_gain=0.0, k2_gain=0.0, **kw)


def fill_buffer(buf, values, thetas=None, m_scalars=None, dt=None):
    dt = dt if dt is not None else buf.dt
    n1 = 1 if thetas is None else len(np.atleast_1d(thetas[0]))
    for k, v in enumerate(values):
        theta = np.zeros(n1) if thetas is None else np.atleast_1d(thetas[k])
        m_s = 0.0 if m_scalars is None else m_scalars[k]
        buf.push(k * dt, theta, v, m_s)
    return buf


class TestBuffer:
    def test_capacity_and_warmup(self):
        buf = ReinforcementBuffer(T=1e-3, dt=1e-3)
        assert buf.capacity == 2
        buf.push(0.0, np.zeros(3), 1.0, 0.0)
        assert not buf.ready
        with pytest.raises(NotReady):
            reinforcement_integral(buf, 0.1, 1e-3)
        buf.push(1e-3, np.zeros(3), 1.0, 0.0)
        assert buf.ready

    def test_timestamps_strictly_increasing(self):
        buf = ReinforcementBuffer(T=1e-3, dt=1e-3)
        buf.push(0.0, np.zeros(1), 0.0, 0.0)
        with pytest.raises(ConfigurationError):
            buf.push(0.0, np.zeros(1), 0.0, 0.0)

    def test_non_divisible_window_interpolates(self):
        # T = 1.5 dt: left endpoint of the window falls between samples
        buf = ReinforcementBuffer(T=1.5e-3, dt=1e-3)
        assert buf.capacity == 3
        fill_buffer(buf, [0.0, 1.0, 2.0])
        # integrand is linear in t: cost(t) = t/dt; gamma=0 integral over
        # [t-T, t] of that line = T * value at window midpoint = 1.5e-3 * 1.25
        got = reinforcement_integral(buf, 0.0, 1.5e-3)
        assert abs(got - 1.5e-3 * 1.25) < 1e-15


def per_column_window(samples, T, col):
    """Times and values of one column over [t-T, t], the left endpoint
    interpolated if needed: the window built separately for each column."""
    ts = np.array([s[0] for s in samples])
    vs = np.array([s[col] for s in samples])
    t_lo = ts[-1] - T
    first = int(np.argmax(ts >= t_lo))
    if first > 0 and ts[first] > t_lo + 1e-9 * T:
        w = (t_lo - ts[first - 1]) / (ts[first] - ts[first - 1])
        v_lo = (1 - w) * vs[first - 1] + w * vs[first]
        return (np.concatenate([[t_lo], ts[first:]]),
                np.concatenate([[v_lo], vs[first:]]))
    return ts[first:], vs[first:]


def same_bits(a, b):
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


def per_column_integral(samples, T, col, gamma):
    ts, vs = per_column_window(samples, T, col)
    return float(np.trapezoid(np.exp(-gamma * (ts - ts[-1] + T)) * vs, ts))


@pytest.mark.parametrize("T, dt", [(1.5e-3, 1e-3), (1e-3, 1e-3),
                                   (1.05e-2, 1e-3), (2e-2, 1e-3)])
def test_one_pass_window_is_bitwise_the_per_column_window(rng, T, dt):
    gamma = 0.1
    buf = ReinforcementBuffer(T, dt)
    samples = []
    for k in range(40):
        sample = (k * dt, rng.normal(size=5), float(rng.normal()),
                  float(rng.normal()))
        samples.append(sample)
        buf.push(sample[0], *sample[1:])
        if not buf.ready:
            continue
        kept = samples[-buf.capacity:]
        _, thetas = per_column_window(kept, T, 1)
        win = buf.window(gamma)
        assert same_bits(win.theta_t, thetas[-1])
        assert same_bits(win.theta_tmT, thetas[0])
        assert same_bits(win.I_hat, per_column_integral(kept, T, 2, gamma))
        assert same_bits(win.m_int, per_column_integral(kept, T, 3, gamma))
        assert same_bits(reinforcement_integral(buf, gamma, T), win.I_hat)
        assert same_bits(m_integral(buf, gamma, T), win.m_int)
        assert buf.window(gamma, m_term=False).m_int == 0.0
    assert buf.ready


class TestReinforcementIntegral:
    def test_constant_integrand_analytic(self):
        gamma, T = 0.1, 1e-3
        c = 3.7
        buf = ReinforcementBuffer(T, T / 100)
        fill_buffer(buf, [c] * 101)
        got = reinforcement_integral(buf, gamma, T)
        want = c * (-np.expm1(-gamma * T)) / gamma
        assert abs(got - want) <= 1e-10

    def test_gamma_zero_exact_for_constants(self):
        T = 2e-3
        buf = ReinforcementBuffer(T, T / 4)
        fill_buffer(buf, [5.0] * 5)
        assert abs(reinforcement_integral(buf, 0.0, T) - 5.0 * T) < 1e-18

    def test_zero_integrand(self):
        buf = ReinforcementBuffer(1e-3, 1e-3)
        fill_buffer(buf, [0.0, 0.0])
        assert reinforcement_integral(buf, 0.1, 1e-3) == 0.0


class TestDeltaTheta:
    def test_stationary_undiscounted(self):
        v = np.array([1.0, -2.0, 3.0])
        assert np.allclose(delta_theta(v, v, 0.0, 5.0), 0.0)

    def test_paper_scale_discount_factor(self):
        gamma, T = 0.1, 1e-3
        v = np.array([2.0, 0.5])
        got = delta_theta(v, v, gamma, T)
        assert np.allclose(got, np.expm1(-gamma * T) * v, rtol=1e-12)


class TestHjbError:
    def test_trivials(self):
        assert hjb_error(1.25, np.zeros(3), np.zeros(3)) == 1.25
        assert hjb_error(0.0, np.zeros(3), np.ones(3)) == 0.0

    def test_linear_combination(self):
        dtheta = np.array([1.0, 2.0])
        W = np.array([0.5, -0.25])
        assert hjb_error(0.3, dtheta, W) == pytest.approx(0.3 + 0.0, abs=1e-15)


class TestSigmaIndicator:
    def test_sigma_cases(self):
        assert sigma_rate(np.array([2.0, 0.0]), np.array([1.0, 0.0]), 1.0) == 2.0
        z = np.array([0.7, -0.3])
        assert sigma_rate(z, z, 0.5) == 0.0
        # contracting state has negative sigma for any dt
        for dt in (1e-3, 0.1, 2.0):
            assert sigma_rate(0.5 * z, z, dt) < 0.0
        with pytest.raises(ConfigurationError):
            sigma_rate(z, z, 0.0)

    def test_indicator_branches(self):
        assert indicator(-1.0) == 0
        assert indicator(0.0) == 1
        assert indicator(1.0) == 1


def test_gain_pow_conventions():
    assert gain_pow(0.0, 0.0) == 1.0
    assert gain_pow(0.0, 0.1) == 0.0
    assert gain_pow(-2.0, 2.0) == 4.0
    assert gain_pow(3.0, 0.0) == 1.0


def test_gain_pow_overflows_to_inf():
    # Python's float power raises past the largest float; the law needs inf
    assert gain_pow(26.7, 400.0) == math.inf
    assert gain_pow(-1e200, 2.0) == math.inf


class TestMVector:
    def setup_method(self):
        self.basis = quad_basis(2)
        self.G = lambda z: np.array([[2.0], [0.0]])
        self.sat = SaturationSpec(u_m=2.0, r_diag=np.array([1.0]))
        self.z = np.array([1.0, 0.0])

    def m_vector(self, W):
        return m_vector_raw(self.basis.grad(self.z), self.G(self.z), W,
                            self.sat)

    def test_zero_weights_give_zero(self):
        M = self.m_vector(np.zeros(5))
        assert np.all(M == 0.0)

    def test_scalar_tau_equal_one(self):
        # W picks grad^T W = e1 * 2 -> tau2 = 2*2/(2*2*1) = 1
        W = np.array([2.0, 0.0, 0.0, 0.0, 0.0])
        M = self.m_vector(W)
        factor = self.sat.u_m * (math.tanh(1.0) - 1.0)
        ndg = self.basis.grad(self.z) @ self.G(self.z)
        assert np.allclose(M, ndg.ravel() * factor)
        assert factor == pytest.approx(2.0 * -0.2384058440442351, rel=1e-12)

    def test_bounded_and_vanishing_in_saturation(self, rng):
        bound_base = None
        for scale in (1.0, 10.0, 1e3, 1e6):
            W = scale * np.array([1.0, 0.5, 0.2, -0.3, 0.1])
            M = self.m_vector(W)
            ndg = self.basis.grad(self.z) @ self.G(self.z)
            cap = self.sat.u_m * np.linalg.norm(ndg) * math.sqrt(1)
            assert np.linalg.norm(M) <= cap + 1e-12
            if bound_base is None:
                bound_base = np.linalg.norm(M)
        assert np.linalg.norm(M) < 1e-3 * bound_base  # tanh-sgn -> 0


class TestMIntegral:
    def test_zero_and_constant(self):
        gamma, T = 0.1, 1e-3
        buf = ReinforcementBuffer(T, T / 50)
        fill_buffer(buf, [0.0] * 51, m_scalars=[0.0] * 51)
        assert m_integral(buf, gamma, T) == 0.0
        buf2 = ReinforcementBuffer(T, T / 50)
        fill_buffer(buf2, [0.0] * 51, m_scalars=[2.5] * 51)
        want = 2.5 * (-np.expm1(-gamma * T)) / gamma
        assert abs(m_integral(buf2, gamma, T) - want) <= 1e-12

    def test_two_point_trapezoid_hand_value(self):
        gamma = 0.1
        T = dt = 1e-3
        buf = ReinforcementBuffer(T, dt)
        buf.push(0.0, np.zeros(1), 0.0, 2.0)
        buf.push(dt, np.zeros(1), 0.0, 4.0)
        want = (dt / 2.0) * (1.0 * 2.0 + math.exp(-gamma * T) * 4.0)
        assert m_integral(buf, gamma, T) == pytest.approx(want, rel=1e-14)


def learner_setup(q2=0.1, k2=0.01, alpha=2.0, stab=True, m_on=True,
                  k_gain=0.0):
    basis = quad_basis(2)

    def G(z):
        return np.array([[1.5], [0.0]])

    sat = SaturationSpec(u_m=2.0, r_diag=np.array([1.0]))
    cfg = LearnerConfig(alpha=alpha, gamma=0.1, T=1e-3, Q1=np.diag([1.0, 0.0]),
                        sat=sat, q2=q2, k2=k2,
                        k1_gain=k_gain, k2_gain=k_gain,
                        stabilizer_enabled=stab, m_term_enabled=m_on)
    return basis, G, sat, cfg


def warm_buffer(basis, z_pairs, cfg, W=None):
    """Push two samples along a synthetic z path."""
    buf = ReinforcementBuffer(cfg.T, cfg.T)
    W = np.zeros(basis.n_features) if W is None else W
    for k, z in enumerate(z_pairs):
        theta = basis.eval(z)
        cost = float(z @ cfg.Q1 @ z)
        buf.push(k * cfg.T, theta, cost, 0.0)
    return buf


class TestUpdateStep:
    def test_fixed_point_zero_error_contracting(self):
        # cost-free configuration: W=0 gives e_hat = 0 exactly, and a
        # contracting state gives sigma < 0, so every term vanishes
        basis, G, sat, _ = learner_setup()
        cfg = LearnerConfig(alpha=2.0, gamma=0.1, T=1e-3, Q1=np.zeros((2, 2)),
                            sat=sat, q2=0.1, k2=0.01, k1_gain=0.0, k2_gain=0.0)
        z_prev = np.array([1.0, 0.0])
        z = 0.5 * z_prev
        buf = warm_buffer(basis, [z_prev, z], cfg)
        state = CriticState(W_hat=np.zeros(basis.n_features))
        grad, G_z = basis.grad(z), G(z)
        new = update_step(state, cfg, buf, z, grad, G_z,
                          tau2_raw(grad, G_z, state.W_hat, sat),
                          sigma_rate(z, z_prev, cfg.T), cfg.T)
        assert np.array_equal(new.W_hat, state.W_hat)
        assert new.e_hat == 0.0 and new.xi == 0 and new.sigma < 0.0

    def test_term_isolation_reduces_to_baseline_gradient(self):
        basis, G, sat, cfg0 = learner_setup(q2=0.0, stab=False, m_on=False)
        z1 = np.array([0.5, 0.2])
        z2 = np.array([0.45, 0.2])
        buf = warm_buffer(basis, [z1, z2], cfg0)
        W0 = np.array([0.1, -0.2, 0.3, 0.05, -0.1])
        state = CriticState(W_hat=W0.copy())
        grad, G_z = basis.grad(z2), G(z2)
        novel = update_step(state, cfg0, buf, z2, grad, G_z,
                            tau2_raw(grad, G_z, W0, sat),
                            sigma_rate(z2, z1, cfg0.T), cfg0.T)
        base = baseline_update_step(CriticState(W_hat=W0.copy()), cfg0, buf,
                                    cfg0.T)
        assert np.array_equal(novel.W_hat, base.W_hat)
        assert novel.e_hat == base.e_hat

    def test_dt_homogeneity_with_frozen_inputs(self):
        basis, G, sat, cfg = learner_setup()
        z1 = np.array([0.8, 0.1])
        z2 = np.array([0.7, 0.1])
        buf = warm_buffer(basis, [z1, z2], cfg)
        W0 = np.array([0.3, 0.1, -0.2, 0.4, 0.0])
        dt = cfg.T
        grad, G_z = basis.grad(z2), G(z2)
        tau = tau2_raw(grad, G_z, W0, sat)
        s1 = update_step(CriticState(W_hat=W0.copy()), cfg, buf, z2,
                         grad, G_z, tau, sigma_rate(z2, z1, dt), dt)
        # same Sigma with doubled dt requires doubling the state increment
        z1_far = z2 - 2.0 * (z2 - z1)
        s2 = update_step(CriticState(W_hat=W0.copy()), cfg, buf, z2,
                         grad, G_z, tau, sigma_rate(z2, z1_far, 2.0 * dt),
                         2.0 * dt)
        assert np.allclose(s2.W_hat - W0, 2.0 * (s1.W_hat - W0), rtol=1e-12)
        assert s2.sigma == pytest.approx(s1.sigma, rel=1e-12)

    def test_nonfinite_weights_fault(self):
        basis, G, sat, cfg = learner_setup(alpha=1e308)
        z1 = np.array([1.0, 0.5])
        z2 = np.array([0.9, 0.5])
        buf = warm_buffer(basis, [z1, z2], cfg)
        state = CriticState(W_hat=np.full(basis.n_features, 1e30))
        grad, G_z = basis.grad(z2), G(z2)
        with pytest.raises(NumericFault):
            update_step(state, cfg, buf, z2, grad, G_z,
                        tau2_raw(grad, G_z, state.W_hat, sat),
                        sigma_rate(z2, z1, cfg.T), cfg.T)

    def test_theta_bar_norm_bound(self, rng):
        # |dtheta| / (1 + |dtheta|^2)^2 <= 3 sqrt(3) / 16
        bound = 3.0 * math.sqrt(3.0) / 16.0
        from reference import _normalized_regressors
        for _ in range(500):
            dtheta = rng.normal(size=5) * rng.uniform(0, 10)
            _, theta_bar = _normalized_regressors(dtheta)
            assert np.linalg.norm(theta_bar) <= bound + 1e-12


class TestLawTerms:
    def setup_case(self):
        basis, G, sat, cfg = learner_setup(alpha=3.0, q2=0.1, k2=0.01)
        z = np.array([0.6, -0.2])
        grad = basis.grad(z)
        G_z = G(z)
        dtheta = np.array([0.05, -0.02, 0.01, 0.0, 0.03])
        W = np.array([0.2, -0.1, 0.3, 0.0, 0.1])
        return cfg, W, dtheta, grad, G_z, tau2_raw(grad, G_z, W, cfg.sat), z

    def test_variable_gain_scaling_first_term(self):
        cfg, W, dtheta, grad, G_z, tau, z = self.setup_case()
        e = 0.37
        t1a, _, _ = law_terms(W, e, -1.0, 0, dtheta, grad, G_z, tau, z, 0.0, cfg)
        t1b, _, _ = law_terms(W, 2 * e, -1.0, 0, dtheta, grad, G_z, tau, z, 0.0, cfg)
        ratio = np.linalg.norm(t1b) / np.linalg.norm(t1a)
        assert ratio == pytest.approx(2.0 ** (1.0 + cfg.q2), abs=1e-12)

    def test_stabilizer_scaling_in_sigma(self):
        cfg, W, dtheta, grad, G_z, tau, z = self.setup_case()
        s = 0.8
        _, t2a, _ = law_terms(W, 0.1, s, 1, dtheta, grad, G_z, tau, z, 0.0, cfg)
        _, t2b, _ = law_terms(W, 0.1, 2 * s, 1, dtheta, grad, G_z, tau, z, 0.0, cfg)
        ratio = np.linalg.norm(t2b) / np.linalg.norm(t2a)
        assert ratio == pytest.approx(2.0 ** cfg.k2, abs=1e-12)

    def test_indicator_gates_stabilizer_exactly(self):
        cfg, W, dtheta, grad, G_z, tau, z = self.setup_case()
        _, t2, _ = law_terms(W, 0.1, -0.5, 0, dtheta, grad, G_z, tau, z, 0.0, cfg)
        assert np.all(t2 == 0.0)
        _, t2on, _ = law_terms(W, 0.1, 0.5, 1, dtheta, grad, G_z, tau, z, 0.0, cfg)
        assert np.linalg.norm(t2on) > 0.0


class TestBaseline:
    def test_no_change_when_residual_free(self):
        basis, G, sat, cfg = learner_setup()
        z = np.zeros(2)
        buf = warm_buffer(basis, [z, z], cfg)
        state = CriticState(W_hat=np.zeros(basis.n_features))
        new = baseline_update_step(state, cfg, buf, cfg.T)
        assert np.array_equal(new.W_hat, state.W_hat)

    def test_moves_against_residual(self):
        basis, G, sat, cfg = learner_setup(alpha=1.0)
        z1 = np.array([1.0, 0.0])
        z2 = np.array([0.9, 0.0])
        buf = warm_buffer(basis, [z1, z2], cfg)
        state = CriticState(W_hat=np.zeros(basis.n_features))
        new = baseline_update_step(state, cfg, buf, cfg.T)
        win = buf.window(cfg.gamma)
        dtheta = delta_theta(win.theta_t, win.theta_tmT, cfg.gamma, cfg.T)
        I_hat = reinforcement_integral(buf, cfg.gamma, cfg.T)
        # step direction is -alpha * theta_bar * e_hat
        assert np.dot(new.W_hat - state.W_hat, dtheta) * I_hat <= 0.0


def test_learner_config_validation():
    sat = SaturationSpec(u_m=1.0, r_diag=np.ones(1))
    with pytest.raises(ConfigurationError):
        LearnerConfig(alpha=1.0, gamma=0.1, T=0.0, Q1=np.eye(2), sat=sat)
    with pytest.raises(ConfigurationError):
        LearnerConfig(alpha=1.0, gamma=0.1, T=1e-3,
                      Q1=np.array([[1.0, 0.5], [0.0, 1.0]]), sat=sat)
    with pytest.raises(ConfigurationError):
        LearnerConfig(alpha=1.0, gamma=0.1, T=1e-3, Q1=-np.eye(2), sat=sat)
    with pytest.raises(ConfigurationError) as exc:
        LearnerConfig(alpha=1.0, gamma=0.1, T=1e-3, Q1=np.eye(2), sat=sat,
                      law="fancy")
    assert exc.value.fields == ("law",)
    cfg = LearnerConfig(alpha=1.0, gamma=0.1, T=1e-3, Q1=np.eye(2), sat=sat)
    assert cfg.k1_gain == cfg.k2_gain == 0.01
