import math

import numpy as np
import pytest

import irltrack.policy as policy_module
from irltrack.basis import quad_basis
from irltrack.errors import ConfigurationError
from irltrack.policy import (SaturationSpec, log_one_minus_tanh2, penalty_closed,
                             penalty_integral, penalty_row, penalty_rows, tau2_rows)


def analytic_penalty(u, u_m, r_diag):
    """Independent oracle: antiderivative of the atanh integrand."""
    u = np.atleast_1d(u)
    total = 0.0
    for ui, ri in zip(u, np.atleast_1d(r_diag)):
        total += ri * (ui * math.atanh(ui / u_m)
                       + (u_m / 2.0) * math.log(1.0 - (ui / u_m) ** 2))
    return 2.0 * u_m * total


def simple_setup(g_top=3.0):
    basis = quad_basis(2)
    return basis, lambda z: np.array([[g_top], [0.0]])


def test_saturation_spec_validation():
    SaturationSpec(u_m=1.0, r_diag=np.ones(2))
    with pytest.raises(ConfigurationError):
        SaturationSpec(u_m=-1.0, r_diag=np.ones(2))
    with pytest.raises(ConfigurationError):
        SaturationSpec(u_m=1.0, r_diag=np.array([1.0, 0.0]))
    with pytest.raises(ConfigurationError, match=r"got shape \(1, 1\)"):
        SaturationSpec(u_m=1.0, r_diag=np.ones((1, 1)))
    with pytest.raises(ConfigurationError, match=r"got shape \(0,\)"):
        SaturationSpec(u_m=1.0, r_diag=np.array([]))


def tau2(z, W, G, basis, sat):
    """The step loop's saturation argument at one point: a one-row
    `tau2_rows`."""
    return tau2_rows(np.asarray(W, dtype=float)[None], basis.grad(z)[None],
                     G(z)[None], (2.0 * sat.u_m * sat.r_diag)[None])[0]


def policy(z, W, G, basis, sat):
    """The step loop's control -u_m tanh(tau2) at one point."""
    return -sat.u_m * np.tanh(tau2(z, W, G, basis, sat))


def test_tau2_scalar_and_scalings():
    basis, G = simple_setup()
    sat = SaturationSpec(u_m=1.0, r_diag=np.array([1.0]))
    z = np.array([1.0, 0.0])
    W = np.array([1.0, 0.0, 0.0, 0.0, 0.0])  # grad^T W = e_1 -> G^T grad^T W = 3
    assert np.allclose(tau2(z, W, G, basis, sat), [1.5])
    assert np.allclose(tau2(z, np.zeros(5), G, basis, sat), [0.0])
    sat2 = SaturationSpec(u_m=2.0, r_diag=np.array([1.0]))
    assert np.allclose(tau2(z, W, G, basis, sat2),
                       0.5 * tau2(z, W, G, basis, sat))


def test_policy_eval_zero_weights_and_saturation_limit():
    basis, G = simple_setup()
    sat = SaturationSpec(u_m=1.0, r_diag=np.array([1.0]))
    z = np.array([1.0, 0.0])
    assert np.allclose(policy(z, np.zeros(5), G, basis, sat), 0.0)
    W_huge = np.array([1e9, 0, 0, 0, 0])
    u = policy(z, W_huge, G, basis, sat)
    assert np.all(np.abs(u) <= sat.u_m)
    assert np.allclose(u, [-sat.u_m])  # deep saturation approaches -u_m


def test_policy_hard_bound_random(rng):
    basis, G = simple_setup()
    sat = SaturationSpec(u_m=0.7, r_diag=np.array([2.0]))
    for _ in range(200):
        z = rng.normal(size=2) * 3
        W = rng.normal(size=5) * 10
        assert np.max(np.abs(policy(z, W, G, basis, sat))) <= sat.u_m


def test_penalty_integral_cases():
    sat = SaturationSpec(u_m=1.0, r_diag=np.array([1.0]))
    assert penalty_integral(np.zeros(1), sat) == 0.0
    got = penalty_integral(np.array([0.5]), sat)
    want = analytic_penalty([0.5], 1.0, [1.0])
    assert abs(got - want) <= 1e-10
    # even function of u
    for u in (0.3, 0.77, 0.95):
        a = penalty_integral(np.array([u]), sat)
        b = penalty_integral(np.array([-u]), sat)
        assert abs(a - b) <= 1e-12
        assert a >= 0.0


def test_penalty_integral_domain_error_names_component():
    sat = SaturationSpec(u_m=1.0, r_diag=np.ones(2))
    with pytest.raises(ConfigurationError, match=r"u\[1\]"):
        penalty_integral(np.array([0.2, 1.0]), sat)


def test_penalty_closed_trivial_and_deep_saturation():
    sat = SaturationSpec(u_m=1.0, r_diag=np.array([1.0]))
    assert penalty_closed(np.zeros(1), sat) == 0.0
    # stable-form hand computation at tau = 50 (deep saturation)
    got = penalty_closed(np.array([50.0]), sat)
    want = 2 * 50.0 * math.tanh(50.0) + (2 * math.log(2.0) - 100.0
                                         - 2 * math.log1p(math.exp(-100.0)))
    assert math.isfinite(got)
    assert abs(got - want) <= 1e-12
    assert abs(got - 2 * math.log(2.0)) <= 1e-12  # the tau -> inf limit


def test_penalty_closed_matches_quadrature(rng):
    sat = SaturationSpec(u_m=math.pi / 2, r_diag=np.array([1.0, 2.5]))
    for _ in range(50):
        tau = rng.uniform(-5, 5, 2)
        closed = penalty_closed(tau, sat)
        quadr = penalty_integral(-sat.u_m * np.tanh(tau), sat)
        assert abs(closed - quadr) <= 1e-8 * max(1.0, abs(quadr))


def test_penalty_closed_nonnegative(rng):
    sat = SaturationSpec(u_m=2.0, r_diag=np.array([0.5, 1.0, 3.0]))
    for _ in range(1000):
        tau = rng.uniform(-5, 5, 3)
        assert penalty_closed(tau, sat) >= 0.0


def test_log_one_minus_tanh2_stable():
    a = np.array([0.0, 1.0, 50.0, 700.0, -700.0])
    vals = log_one_minus_tanh2(a)
    assert np.all(np.isfinite(vals))
    assert abs(vals[0]) == 0.0
    direct = np.log(1.0 - np.tanh(1.0) ** 2)
    assert abs(vals[1] - direct) < 1e-12


@pytest.mark.parametrize("m", [1, 2, 3, 7, 8])
def test_penalty_row_alone_has_its_bits_in_a_batch(m, monkeypatch):
    """One row against the same row in the middle of a batch of three, bit
    for bit: up to 7 channels on Python floats, 8 in the batched form."""
    rng = np.random.default_rng(m)
    r = np.array([10.0, 0.5, 3.0, 1e-3, 7.0, 2e3, 0.9, 4.0])[:m]
    um2 = np.array([4.0, 2.25, 9.0])
    signs = np.resize([1.0, -1.0], m)
    rows = [t * signs for t in (0.0, -0.0, 1e-300, 0.3, -0.3, 30.0, 700.0)]
    rows.append(np.full(m, -0.0))
    # magnitudes over six decades, so that the order of each sum shows
    rows += [rng.normal(size=m) * 10.0 ** rng.integers(-3, 3, m) for _ in range(30)]
    batched = []    # one entry per call of the batched form
    monkeypatch.setattr(policy_module, "log_one_minus_tanh2",
                        lambda a: batched.append(a.shape) or log_one_minus_tanh2(a))
    for row in rows:
        tau = np.array([rng.normal(size=m), row, rng.normal(size=m)])
        alone = penalty_row(tau[1], np.tanh(tau[1]), float(um2[1]), r)
        assert batched == ([(1, m)] if m == 8 else [])
        batch = penalty_rows(tau, np.tanh(tau), um2, np.tile(r, (3, 1)))
        assert type(alone) is float
        assert np.array([alone]).tobytes() == batch[1:2].tobytes(), row
        batched.clear()
