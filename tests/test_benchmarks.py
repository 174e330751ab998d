import math
import time
import warnings

import numpy as np
import pytest
import scipy.linalg as sla

import irltrack.cli as cli
from irltrack.basis import quad_basis
from irltrack.benchmarks.linear import (discounted_riccati, ideal_weights,
                                        riccati_residual)
from irltrack.benchmarks.uav import (AEROSONDE, P, THETA, U, V, W, outer_loop,
                                     rate_control_coupling, trim_level_flight,
                                     uav_dynamics)
from irltrack.catalog import make_env
from irltrack.errors import NumericFault, OracleFailure
from irltrack.models import augmented_linear
from irltrack.sim import Telemetry

DEG = math.pi / 180.0


class TestDiscountedRiccati:
    def test_scalar_zero_drift(self):
        # a=0, b=1, q=1, r=1, gamma=0: -p^2 + 1 = 0 -> p = 1
        P_ = discounted_riccati(np.zeros((1, 1)), np.eye(1), np.eye(1),
                                np.eye(1), 0.0)
        assert P_[0, 0] == pytest.approx(1.0, abs=1e-9)

    def test_scalar_stable_drift(self):
        # a=-1: -2p - p^2 + 1 = 0 -> p = sqrt(2) - 1
        P_ = discounted_riccati(-np.eye(1), np.eye(1), np.eye(1), np.eye(1), 0.0)
        assert P_[0, 0] == pytest.approx(math.sqrt(2.0) - 1.0, abs=1e-9)

    def test_zero_cost_gives_zero(self):
        P_ = discounted_riccati(-np.eye(2), np.eye(2), np.zeros((2, 2)),
                                np.eye(2), 0.1)
        assert np.allclose(P_, 0.0, atol=1e-12)

    def test_residual_below_tolerance_and_scipy_crosscheck(self):
        A, B = make_env("linear_osc", "harmonic").linear_pair()
        Q1 = np.diag([10.0, 10.0, 0.0, 0.0])
        R_ = np.array([[1.0]])
        gamma = 0.1
        P_ = discounted_riccati(A, B, Q1, R_, gamma)
        res = np.linalg.norm(riccati_residual(P_, A, B, Q1, R_, gamma), "fro")
        assert res <= 1e-9
        P_scipy = sla.solve_continuous_are(
            A - 0.5 * gamma * np.eye(4), B, Q1, R_)
        assert np.allclose(P_, P_scipy, atol=1e-8)

    def test_unstabilizable_pair_raises_oracle_failure(self):
        # zero input gain leaves the undamped rotation uncontrollable
        A, B = make_env("linear_osc", "harmonic", {"gain": "0"}).linear_pair()
        with pytest.raises(OracleFailure):
            discounted_riccati(A, B, np.diag([1.0, 1.0, 0.0, 0.0]),
                               np.array([[1.0]]), 0.0)

    def test_open_loop_unstable_pair_matches_scipy(self):
        # eigenvalues 1 and -3: the solution must stabilize the shifted pair
        A = np.array([[1.0, 2.0], [0.0, -3.0]])
        B = np.array([[0.0], [1.0]])
        Q1, R_, gamma = np.eye(2), np.array([[2.0]]), 0.2
        P_ = discounted_riccati(A, B, Q1, R_, gamma)
        As = A - 0.5 * gamma * np.eye(2)
        P_scipy = sla.solve_continuous_are(As, B, Q1, R_)
        assert np.linalg.norm(P_ - P_scipy) <= 1e-12 * np.linalg.norm(P_scipy)
        closed = As - B @ np.linalg.solve(R_, B.T @ P_)
        assert np.max(np.linalg.eigvals(closed).real) < 0.0

    def test_random_pairs_agree_with_scipy(self):
        """Wherever both solvers pass the 1e-9 residual gate, they agree to
        1e-10 relative (seeded pairs, n <= 6, m <= 2, Q1 of any rank)."""
        rng = np.random.default_rng(20261018)
        compared = 0
        for _ in range(300):
            n, m = int(rng.integers(1, 7)), int(rng.integers(1, 3))
            A, B = rng.normal(size=(n, n)), rng.normal(size=(n, m))
            C = rng.normal(size=(int(rng.integers(1, n + 1)), n))
            D = rng.normal(size=(m, m))
            Q1, R_ = C.T @ C, D.T @ D + 0.1 * np.eye(m)
            gamma = float(rng.uniform(0.0, 1.0))
            try:
                P_ = discounted_riccati(A, B, Q1, R_, gamma)
            except OracleFailure:
                continue
            try:
                P_scipy = sla.solve_continuous_are(
                    A - 0.5 * gamma * np.eye(n), B, Q1, R_)
            except (np.linalg.LinAlgError, ValueError):
                continue
            if not np.linalg.norm(riccati_residual(P_scipy, A, B, Q1, R_, gamma),
                                  "fro") <= 1e-9:
                continue
            compared += 1
            assert np.linalg.norm(P_ - P_scipy) <= \
                1e-10 * np.linalg.norm(P_scipy)
        assert compared >= 250

    @pytest.mark.parametrize("A, B", [
        # zero plant, gamma = 0: the Hamiltonian itself is singular
        (np.zeros((2, 2)), np.zeros((2, 1))),
        # an uncontrollable undamped rotation puts Hamiltonian eigenvalues
        # at +-i pi, beside a controllable unstable mode (+-sqrt(5))
        (np.array([[0.0, math.pi, 0.0], [-math.pi, 0.0, 0.0], [0.0, 0.0, 2.0]]),
         np.array([[0.0], [0.0], [1.0]])),
        # P near 2e300: the iterates overflow
        (np.array([[1e300]]), np.eye(1)),
    ], ids=["singular", "imaginary-axis", "overflow"])
    def test_failure_raises_oracle_failure_and_no_warning(self, A, B):
        t0 = time.perf_counter()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OracleFailure):
                discounted_riccati(A, B, np.eye(len(A)), np.eye(1), 0.0)
        assert time.perf_counter() - t0 < 5.0  # the iteration is capped

    def test_matched_pair_has_error_only_value(self):
        """Plant drift equal to the reference field zeroes the x_d blocks."""
        A, B = make_env("linear_osc", "harmonic").linear_pair()
        P_ = discounted_riccati(A, B,
                                np.diag([1.0, 1.0, 0.0, 0.0]),
                                np.array([[10.0]]), 0.1)
        assert np.allclose(P_[2:, :], 0.0, atol=1e-9)
        assert np.allclose(P_[:2, 2:], 0.0, atol=1e-9)


class TestIdealWeights:
    def test_identity_case(self):
        W_ = ideal_weights(np.eye(2))
        assert np.allclose(W_, [0, 0, 1, 1, 0])

    def test_zero_case(self):
        assert np.all(ideal_weights(np.zeros((3, 3))) == 0.0)

    def test_roundtrip_identity(self, rng):
        basis = quad_basis(4)
        for _ in range(100):
            M = rng.normal(size=(4, 4))
            P_ = 0.5 * (M + M.T)
            W_ = ideal_weights(P_)
            z = rng.normal(size=4)
            assert abs(W_ @ basis.eval(z) - z @ P_ @ z) <= 1e-12 * max(
                1.0, abs(z @ P_ @ z))


class TestAirframe:
    def setup_method(self):
        self.trim = trim_level_flight(18.0)

    def test_trim_residual(self):
        s0 = self.trim.initial_state(100.0)
        d = uav_dynamics(s0, np.array([self.trim.delta_e, 0.0, 0.0]),
                         self.trim.delta_t)
        # body accelerations and all rate/attitude derivatives vanish at trim
        assert np.max(np.abs(d[U:])) <= 1e-8

    def test_zero_airspeed_kills_aero_forces(self):
        d = uav_dynamics([0.0] * 12, (0.3, 0.2, -0.1), 0.0)
        assert (d[U], d[V]) == (0.0, 0.0)
        assert d[W] == pytest.approx(AEROSONDE.gravity, abs=1e-12)  # gravity only
        assert d[P:] == [0.0, 0.0, 0.0]

    def test_aileron_sign_convention(self):
        g3 = np.array(rate_control_coupling(18.0))
        # positive aileron rolls positively and dominates the cross effects
        assert g3[0, 1] > 0.0
        assert abs(g3[0, 1]) > abs(g3[2, 1])
        assert g3[0, 0] == 0.0 and g3[2, 0] == 0.0
        assert g3[1, 0] < 0.0  # positive elevator pitches down (C_m_de < 0)

    def test_pitch_guard_aborts(self):
        s = self.trim.initial_state(100.0)
        s[THETA] = math.pi / 2
        with pytest.raises(NumericFault):
            uav_dynamics(s, np.zeros(3), self.trim.delta_t)

    def test_coupling_scales_with_dynamic_pressure(self):
        a = np.array(rate_control_coupling(10.0))
        b = np.array(rate_control_coupling(20.0))
        assert np.allclose(b, 4.0 * a)


class TestOuterLoop:
    def test_zero_error_zero_feedforward(self):
        out = outer_loop(np.zeros(3), np.zeros(3))
        assert np.allclose(out, 0.0)

    def test_unit_roll_error(self):
        att = np.array([1.0 * DEG, 0.0, 0.0])
        out = outer_loop(att, np.zeros(3))
        assert out[0] == pytest.approx(-8.0 * DEG, rel=1e-12)

    def test_initial_step_magnitude(self):
        # (-30, 0, -10) deg setpoint from level attitude
        att_des = np.array([-30.0 * DEG, 0.0, -10.0 * DEG])
        out = outer_loop(np.zeros(3), att_des)
        assert abs(out[0]) == pytest.approx(240.0 * DEG, rel=1e-12)
        assert out[0] == pytest.approx(-8.0 * 30.0 * DEG, rel=1e-12)
        assert out[2] == pytest.approx(-12.0 * 10.0 * DEG, rel=1e-12)


def test_augmented_linear_block_structure():
    A_p = np.array([[0.0, 1.0], [-1.0, 0.0]])
    H_A = np.array([[0.0, 0.5], [-0.5, 0.0]])
    B_p = np.array([[0.0], [2.0]])
    A, B = augmented_linear(A_p, B_p, H_A)
    assert np.allclose(A[:2, :2], A_p)
    assert np.allclose(A[:2, 2:], A_p - H_A)
    assert np.allclose(A[2:, 2:], H_A)
    assert np.allclose(A[2:, :2], 0.0)
    assert np.allclose(B.ravel(), [0.0, 2.0, 0.0, 0.0])


def test_oracle_critic_bellman_residual_bound():
    """Frozen Riccati weights keep |e^| within 1e-3 (1 + |I^|) on policy."""
    from irltrack.catalog import make_plant, make_reference
    from irltrack.learner import LearnerConfig
    from irltrack.policy import SaturationSpec
    from irltrack.sim import AugmentedTrackingEnv, SimConfig, run_env_experiment

    plant = make_plant("linear_osc", {"omega": 6.0})
    ref = make_reference("harmonic", {"omega": 6.0, "x_d0": "1 0"})
    A_p = np.array([[0.0, 6.0], [-6.0, 0.0]])
    B_p = np.array([[0.0], [1.0]])
    A, B = augmented_linear(A_p, B_p, A_p)
    Q1 = np.diag([1.0, 1.0, 0.0, 0.0])
    R_ = np.array([[10.0]])
    P_ = discounted_riccati(A, B, Q1, R_, 0.1)
    W_star = ideal_weights(P_)
    sat = SaturationSpec(u_m=56.0, r_diag=np.diag(R_))
    lcfg = LearnerConfig(alpha=0.0, gamma=0.1, T=1e-3, Q1=Q1, sat=sat,
                         k1_gain=0.0, k2_gain=0.0)
    scfg = SimConfig(dt=1e-3, t_end=5.0, record_every=1)
    env = AugmentedTrackingEnv(plant, ref, x0=np.array([16.0, 0.0]))
    tel = run_env_experiment(env, lcfg, scfg, W0=W_star)
    ts = tel.t
    m = ts > 1e-3
    eh = np.abs(tel.column("e_hat"))[m]
    Ih = np.abs(tel.column("I_hat"))[m]
    assert np.all(eh <= 1e-3 * (1.0 + Ih))


class TestEnvironmentProtocol:
    def test_every_catalog_pair_has_a_riccati_pair_and_the_uav_none(self, tmp_path):
        lin = make_env("linear_osc", "harmonic", {"omega": "6"}, {"omega": "6"})
        A, B = lin.linear_pair()
        assert A.shape == (4, 4) and B.shape == (4, 1)
        assert np.allclose(A[:2, 2:], 0.0)  # matched drift: no e-xd coupling
        A, B = make_env("integrator", "zero", {"n": "2"}, {"n": "2"}).linear_pair()
        assert np.array_equal(A, np.zeros((4, 4)))
        assert np.array_equal(B, [[1, 0], [0, 1], [0, 0], [0, 0]])
        A, B = make_env("zero", "harmonic", {"n": "2"}).linear_pair()
        assert np.array_equal(B, np.zeros((4, 1))) and A[2, 3] == 0.5
        uav = make_env("aerosonde", "attitude_schedule")
        assert uav.linear_pair() is None
        # so an integrator run gets the oracle's error series, and the zero
        # plant (B = 0: the solve's Lyapunov case) runs to exit 0
        for plant, extra in (("integrator", ["saturation.r_diag=10 10"]),
                             ("zero", [])):
            code, _ = cli.run_one(
                cli.resolve_config_path("linear_benchmark"),
                ["sim.t_end_s=0.05", f"experiment.plant={plant}", "plant.n=2",
                 *extra], str(tmp_path / plant))
            assert code == cli.EXIT_OK, plant
        series = tmp_path / "integrator" / "series" / "weight_error_vs_oracle.dat"
        assert len(series.read_text().splitlines()) == 6   # every 10th step

    def test_both_environments_expose_the_same_members(self):
        envs = (make_env("linear_osc", "harmonic"),
                make_env("aerosonde", "attitude_schedule"))
        for env in envs:
            assert env.z().shape == (env.dim_z,)
            assert env.G(env.z()).shape == (env.dim_z, env.m)
            assert len(env.control_names) == env.m
            for member in ("advance", "check_domain", "series", "linear_pair"):
                assert callable(getattr(env, member))

    @pytest.mark.parametrize("va", [18.0, 25.0, 35.0, 0.0, 13.3, 78.8])
    def test_uav_coupling_equals_its_row_list_form(self, va):
        """G, set on a zero template, is bitwise the (6, 3) array of the
        three coupling rows and three zero rows: at cruise speeds, at rest
        and at the edges of the trim envelope.  Each call is a new array."""
        env = make_env("aerosonde", "attitude_schedule")
        env.airspeed = va
        G = env.G(env.z())
        want = np.array([*rate_control_coupling(va), *([0.0, 0.0, 0.0],) * 3])
        assert G.dtype == want.dtype and G.shape == want.shape
        assert G.tobytes() == want.tobytes()
        assert env.G(env.z()) is not G

    def test_uav_setpoint_panels_equal_the_per_row_lookup(self):
        """The setpoint panels are bitwise the per-row `attitude_des`
        lookup, at the switch times and one ulp either side."""
        env = make_env("aerosonde", "attitude_schedule")
        switches = [t for t, _ in env.schedule.entries[1:]]
        ts = sorted({0.0, 0.25, 30.0, *switches,
                     *(np.nextafter(s, -1.0) for s in switches),
                     *(np.nextafter(s, 99.0) for s in switches)})
        tel = Telemetry(dim_z=6, dim_x=12, dim_xd=3, m=3, n1=1,
                        capacity=len(ts))
        for t in ts:
            tel.append(t, np.zeros(6), env.state, np.zeros(3), np.zeros(3),
                       0.0, 0.0, 0.0, 1, 0.0, 0.0, np.zeros(1))
        panels = env.series(tel)
        deg = 180.0 / math.pi
        want = np.array([env.schedule.attitude_des(t) for t in ts]) * deg
        for j, name in enumerate(("phi", "theta", "psi")):
            assert panels[f"att_{name}_des_deg"].tobytes() == want[:, j].tobytes()
