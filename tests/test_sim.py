import dataclasses
import math
import re

import numpy as np
import pytest

from irltrack.basis import quad_basis
from irltrack.catalog import make_plant, make_reference
from irltrack.errors import ConfigurationError, NumericFault
from irltrack.learner import LearnerConfig
from irltrack.policy import SaturationSpec
from irltrack.sim import (AugmentedTrackingEnv, DitherSpec, SimConfig,
                          Telemetry, check_run, dither, rk4_step, run_batch,
                          run_env_experiment)


class TestRk4:
    def test_zero_field_keeps_state(self):
        x = [1.0, -2.0]
        out = rk4_step(lambda t, s: [0.0, 0.0], 0.0, x, 0.1)
        assert np.array_equal(out, x)

    def test_exponential_accuracy(self):
        out = rk4_step(lambda t, s: [-v for v in s], 0.0, [1.0], 0.1)
        assert abs(out[0] - math.exp(-0.1)) <= 1e-7

    def test_constant_field_exact(self):
        c = 2.5
        out = rk4_step(lambda t, s: [c], 0.0, [1.0], 0.25)
        assert out[0] == pytest.approx(1.0 + c * 0.25, abs=1e-15)

    def test_nonfinite_stage_faults(self):
        with pytest.raises(NumericFault, match="stage 1 at t=0.0"):
            rk4_step(lambda t, s: [math.nan], 0.0, [1.0], 0.1)
        # the first non-finite stage is named
        with pytest.raises(NumericFault, match="stage 2 at t=0.0"):
            rk4_step(lambda t, s: [math.inf] if t > 0 else [1.0], 0.0, [1.0], 0.1)

    def test_bad_dt(self):
        with pytest.raises(ConfigurationError):
            rk4_step(lambda t, s: s, 0.0, [1.0], 0.0)


class TestDither:
    def test_zero_at_zero(self):
        assert dither(0.0) == 0.0

    def test_envelope_decay(self):
        late = max(abs(dither(t)) for t in np.linspace(500.0, 505.0, 2000))
        early = max(abs(dither(t)) for t in np.linspace(0.0, 5.0, 2000))
        assert late < 0.05 * early

    def test_formula_match_independent(self):
        # re-evaluation with a separately written expression
        for t in (1.0, 0.37, 12.9):
            n = 2.0 * math.exp(-0.009 * t)
            expected = n * (math.sin(11.9 * t) ** 2 * math.cos(19.5 * t)
                            + math.sin(2.2 * t) ** 2 * math.cos(5.8 * t)
                            + math.sin(1.2 * t) ** 2 * math.cos(9.5 * t)
                            + math.sin(2.4 * t) ** 5)
            assert abs(dither(t) - expected) <= 1e-12

    def test_coarse_bound(self):
        vals = [abs(dither(t)) for t in np.linspace(0, 100, 20000)]
        assert max(vals) <= 8.0


def small_setup(alpha=5.0, t_end=0.05, q1=(1.0, 1.0, 0.0, 0.0), amp=0.0):
    plant = make_plant("linear_osc", {"omega": 2.0})
    ref = make_reference("harmonic", {"omega": 2.0, "x_d0": "1 0"})
    sat = SaturationSpec(u_m=5.0, r_diag=np.array([1.0]))
    lcfg = LearnerConfig(alpha=alpha, gamma=0.1, T=1e-3, Q1=np.diag(q1), sat=sat,
                         k1_gain=0.0, k2_gain=0.0,
                         stabilizer_enabled=False, m_term_enabled=False)
    scfg = SimConfig(dt=1e-3, t_end=t_end)
    return plant, ref, sat, lcfg, scfg, DitherSpec(amplitude=amp)


def test_run_experiment_zero_plant_constant_state():
    """Frozen dynamics: z never moves and I_hat is the discounted Q quadrature."""
    plant = make_plant("zero", {"n": 1, "m": 1})
    ref = make_reference("zero", {"n": 1})
    sat = SaturationSpec(u_m=1.0, r_diag=np.array([1.0]))
    lcfg = LearnerConfig(alpha=0.0, gamma=0.1, T=1e-3, Q1=np.diag([2.0, 0.0]),
                         sat=sat, k1_gain=0.0, k2_gain=0.0)
    scfg = SimConfig(dt=1e-3, t_end=0.01)
    env = AugmentedTrackingEnv(plant, ref, x0=np.array([3.0]))
    tel = run_env_experiment(env, lcfg, scfg)
    z = tel.columns("z")
    assert np.all(z == z[0])
    gamma, T = 0.1, 1e-3
    want = 2.0 * 9.0 * (-np.expm1(-gamma * T)) / gamma
    I = tel.column("I_hat")
    assert np.allclose(I[2:], want, rtol=1e-10)


def test_reference_trajectory_independent_of_learner():
    out = {}
    for alpha in (1.0, 50.0):
        plant, ref, sat, lcfg, scfg, dith = small_setup(alpha=alpha, t_end=0.2)
        env = AugmentedTrackingEnv(plant, ref, x0=np.array([2.0, 0.0]))
        tel = run_env_experiment(env, lcfg, scfg, dither_spec=dith)
        out[alpha] = tel.columns("xd")
    assert np.array_equal(out[1.0], out[50.0])


def test_telemetry_ordering_and_finiteness():
    tel = Telemetry(dim_z=2, dim_x=1, dim_xd=1, m=1, n1=2, capacity=2)
    tel.append(0.0, [0, 0], [0], [0], [0], 0, 0, 0, 1, 0, 0, [0, 0])
    with pytest.raises(ConfigurationError):
        tel.append(0.0, [0, 0], [0], [0], [0], 0, 0, 0, 1, 0, 0, [0, 0])
    with pytest.raises(NumericFault):
        tel.append(1.0, [np.nan, 0], [0], [0], [0], 0, 0, 0, 1, 0, 0, [0, 0])


def test_saturation_holds_at_every_record():
    plant, ref, sat, lcfg, scfg, _ = small_setup(alpha=500.0, t_end=0.3)
    env = AugmentedTrackingEnv(plant, ref, x0=np.array([4.0, 1.0]))
    tel = run_env_experiment(env, lcfg, scfg,
                             dither_spec=DitherSpec(amplitude=1.0))
    u = tel.columns("u_")
    assert np.max(np.abs(u)) <= sat.u_m


def test_run_experiment_rejects_bad_law_and_windows():
    plant, ref, sat, lcfg, scfg, dith = small_setup()
    with pytest.raises(ConfigurationError):
        dataclasses.replace(lcfg, law="fancy")
    bad_sim = SimConfig(dt=1e-3, t_end=5e-4)
    with pytest.raises(ConfigurationError):
        run_env_experiment(AugmentedTrackingEnv(plant, ref), lcfg, bad_sim)


def test_dt_must_not_exceed_T():
    _, _, _, lcfg, _, _ = small_setup()
    with pytest.raises(ConfigurationError) as exc:
        check_run(lcfg, SimConfig(dt=2e-3, t_end=0.05))
    assert exc.value.fields == ("dt", "T")
    check_run(lcfg, SimConfig(dt=lcfg.T, t_end=0.05))


@pytest.mark.parametrize("t_end, steps", [(0.0025, 3), (0.0035, 4),
                                          (0.3, 300), (20.0, 20000)])
def test_run_ends_at_the_first_step_at_or_after_the_horizon(t_end, steps):
    # 0.3 / 0.001 is 299.99999999999994 in floats: the slack keeps 300
    assert SimConfig(dt=1e-3, t_end=t_end).n_steps == steps
    if t_end < 1.0:
        plant, ref, sat, lcfg, _, _ = small_setup()
        env = AugmentedTrackingEnv(plant, ref, x0=np.array([2.0, 0.0]))
        tel = run_env_experiment(env, lcfg,
                                 SimConfig(dt=1e-3, t_end=t_end))
        assert len(tel.rows) == steps + 1
        assert tel.t[-1] == steps * 1e-3 >= t_end


def test_numeric_fault_carries_partial_telemetry():
    plant, ref, sat, lcfg, scfg, _ = small_setup(alpha=1e308, t_end=0.5)
    env = AugmentedTrackingEnv(plant, ref, x0=np.array([5.0, 0.0]))
    with pytest.raises(NumericFault) as exc:
        run_env_experiment(env, lcfg, scfg)
    tel = exc.value.telemetry
    assert tel is not None and len(tel.rows) >= 1
    # the update law raises without context; the loop stamps the step's own
    assert exc.value.step == len(tel.rows)
    assert exc.value.t == exc.value.step * scfg.dt


def test_env_advances_plant_and_reference():
    plant = make_plant("integrator", {"n": 1})
    ref = make_reference("zero", {"n": 1})
    env = AugmentedTrackingEnv(plant, ref, x0=np.array([0.0]))
    env.advance(np.array([2.0]), 0.0, 0.5)
    assert env.x[0] == pytest.approx(1.0, abs=1e-12)
    assert env.x_d[0] == 0.0


@pytest.mark.parametrize("name", ["x", "x_d"])
def test_the_env_state_cannot_be_assigned(name):
    # `advance` steps the env's own s: an assigned x or x_d would reach z()
    # and the log but not the next step, so neither can be assigned
    plant = make_plant("linear_osc", {"omega": 2.0})
    ref = make_reference("harmonic", {"omega": 2.0, "x_d0": "1 0"})
    env = AugmentedTrackingEnv(plant, ref, x0=np.array([2.0, 0.0]))
    with pytest.raises(AttributeError):
        setattr(env, name, np.array([5.0, 5.0]))
    assert env.z().tolist() == [1.0, 0.0, 1.0, 0.0]


class BoxedEnv(AugmentedTrackingEnv):
    """A plant tracking a reference, warning whenever x leaves [-1, 1]."""

    lo, hi = np.array([-1.0]), np.array([1.0])

    def check_domain(self, telemetry, t):
        if np.any(self.x < self.lo) or np.any(self.x > self.hi):
            telemetry.warn("state left the operating box", t)


def test_operating_box_warning_recorded():
    from irltrack.models import AffinePlant, ReferenceModel

    # x = 0.5 e^t under u = 0 leaves the box at t = ln 2
    plant = AffinePlant(A=np.ones((1, 1)), B=np.ones((1, 1)), name="growth")
    ref = ReferenceModel(H=np.zeros((1, 1)), x_d0=np.zeros(1), name="zero")
    sat = SaturationSpec(u_m=1.0, r_diag=np.array([1.0]))
    lcfg = LearnerConfig(alpha=0.0, gamma=0.1, T=1e-3, Q1=np.zeros((2, 2)),
                         sat=sat, k1_gain=0.0, k2_gain=0.0)
    scfg = SimConfig(dt=1e-3, t_end=1.0)
    env = BoxedEnv(plant, ref, x0=np.array([0.5]))
    tel = run_env_experiment(env, lcfg, scfg)
    assert any("operating box" in w for w in tel.warnings)
    # one entry for the kind, counting every step spent outside the box
    assert len(tel.warnings) == 1
    (seen,) = tel.warnings.values()
    outside = tel.columns("x")[:, 0] > 1.0
    assert seen.count == int(outside.sum()) > 1
    assert (seen.t_first, seen.t_last) == (tel.t[outside][0], tel.t[outside][-1])


def test_a_catalog_pair_records_its_own_domain_warnings_alone_and_batched():
    # a subclass runs member by member, so it records its own domain
    # warnings batched as alone
    plant, ref, sat, lcfg, scfg, dith = small_setup(t_end=0.3, amp=0.5)
    x0s = (np.array([2.0, 0.0]), np.array([0.5, 0.0]))
    alone = [run_env_experiment(BoxedEnv(plant, ref, x0=x0), lcfg, scfg,
                                dither_spec=dith).warnings for x0 in x0s]
    batched = run_batch([(BoxedEnv(plant, ref, x0=x0), lcfg, dith, None)
                         for x0 in x0s], scfg)
    (seen,) = alone[0].values()
    assert seen.count > 1 and seen.t_first == 0.0 < seen.t_last
    for warnings, (tel, fault) in zip(alone, batched):
        assert fault is None and tel.warnings == warnings


@pytest.mark.parametrize("m_term", [False, True])
def test_fused_step_evaluates_each_quantity_once(monkeypatch, m_term):
    import dataclasses

    import irltrack.sim as sim

    calls = {"grad": 0, "G": 0, "M": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    def counting_basis(dim_in):
        basis = quad_basis(dim_in)
        return dataclasses.replace(basis, grad=counting("grad", basis.grad),
                                   grad_rows=counting("grad", basis.grad_rows))

    plant, ref, sat, lcfg, scfg, _ = small_setup(t_end=0.05)
    lcfg = dataclasses.replace(lcfg, m_term_enabled=m_term)
    monkeypatch.setattr(sim, "quad_basis", counting_basis)
    monkeypatch.setattr(sim, "m_vector", counting("M", sim.m_vector))
    # an env read through its own methods gives G once a step
    env = PendulumEnv(1.0)
    env.G = counting("G", env.G)
    sim.run_env_experiment(env, lcfg, scfg)
    iterations = round(scfg.t_end / scfg.dt) + 1
    assert calls == {"grad": iterations, "G": iterations,
                     "M": iterations if m_term else 0}
    # a batch of other envs runs each member alone: its lone counts, one
    # member after the other
    calls.update(grad=0, G=0, M=0)
    envs = [PendulumEnv(1.0), PendulumEnv(0.5)]
    for env in envs:
        env.G = counting("G", env.G)
    sim.run_batch([(env, lcfg, DitherSpec(), None) for env in envs], scfg)
    assert calls == {"grad": 2 * iterations, "G": 2 * iterations,
                     "M": 2 * iterations if m_term else 0}
    # a lone catalog pair is read through its own methods, once a step
    calls.update(grad=0, G=0, M=0)
    env = AugmentedTrackingEnv(plant, ref, x0=np.array([2.0, 0.0]))
    env.G = counting("G", env.G)
    sim.run_env_experiment(env, lcfg, scfg)
    assert calls == {"grad": iterations, "G": iterations,
                     "M": iterations if m_term else 0}
    # the stacked rows of catalog pairs: grad and M once a step for both
    # rows, G read once for each, at build
    calls.update(grad=0, G=0, M=0)
    envs = [AugmentedTrackingEnv(plant, ref, x0=np.array([x, 0.0]))
            for x in (2.0, 1.0)]
    for env in envs:
        env.G = counting("G", env.G)
    sim.run_batch([(env, lcfg, DitherSpec(), None) for env in envs], scfg)
    assert calls == {"grad": iterations, "G": 2,
                     "M": iterations if m_term else 0}


def test_uav_rate_command_once_per_step(monkeypatch):
    from irltrack import catalog
    from irltrack.benchmarks.uav import UavAttitudeEnv

    calls = []
    rate_des = UavAttitudeEnv._rate_des

    def counting(self, t):
        calls.append(t)
        return rate_des(self, t)

    monkeypatch.setattr(UavAttitudeEnv, "_rate_des", counting)
    env = catalog.make_env("aerosonde", "attitude_schedule", {}, {})
    sat = SaturationSpec(u_m=math.pi / 2, r_diag=np.ones(3))
    lcfg = LearnerConfig(alpha=16.1, gamma=0.1, T=1e-3,
                         Q1=np.diag([10.0, 10.0, 50.0, 0.0, 0.0, 0.0]), sat=sat)
    scfg = SimConfig(dt=1e-3, t_end=0.02)
    tel = run_env_experiment(env, lcfg, scfg)
    iterations = round(scfg.t_end / scfg.dt) + 1
    assert len(tel.rows) == iterations
    assert len(calls) == iterations


class PendulumEnv:
    """A third-party environment with only the protocol's members: a damped
    pendulum driven to a fixed angle, stepped by explicit Euler."""

    control_names = ("torque",)
    m = 1
    dim_z = 4

    def __init__(self, angle0):
        self.x = np.array([angle0, 0.0])
        self.x_d = np.array([0.5, 0.0])

    def z(self):
        return np.concatenate([self.x - self.x_d, self.x_d])

    def G(self, z):
        return np.array([[0.0], [2.0], [0.0], [0.0]])

    def advance(self, u_applied, t, dt):
        angle, rate = self.x
        self.x = self.x + dt * np.array(
            [rate, -math.sin(angle) - 0.1 * rate + 2.0 * u_applied[0]])

    def check_domain(self, telemetry, t):
        if abs(self.x[0]) > math.pi:
            telemetry.warn("pendulum over the top", t)

    def series(self, telemetry):
        return {"angle_err": telemetry.columns("z")[:, 0]}

    def linear_pair(self):
        return None


def test_a_protocol_only_environment_runs_alone_and_batched():
    *_, lcfg, scfg, dith = small_setup(t_end=0.2, amp=0.5)
    alone = [run_env_experiment(PendulumEnv(a), lcfg, scfg,
                                dither_spec=dith).rows for a in (0.0, 1.0)]
    batched = run_batch([(PendulumEnv(a), lcfg, dith, None)
                         for a in (0.0, 1.0)], scfg)
    for rows, (tel, fault) in zip(alone, batched):
        assert fault is None and np.isfinite(rows).all()
        assert tel.rows.tobytes() == rows.tobytes()
    assert alone[0].tobytes() != alone[1].tobytes()


class LinearizedPendulumEnv(PendulumEnv):
    """The pendulum, reporting its linearization about the hanging rest as
    a stacked pair: the loop must still step it through its own methods."""

    def linear_pair(self):
        A = np.zeros((4, 4))
        A[0, 1], A[1, 0], A[1, 1] = 1.0, -1.0, -0.1
        return A, self.G(None)


def test_a_protocol_only_environment_with_a_linear_pair_steps_itself():
    *_, lcfg, scfg, dith = small_setup(t_end=0.2, amp=0.5)
    plain = [run_env_experiment(PendulumEnv(a), lcfg, scfg,
                                dither_spec=dith).rows for a in (0.0, 1.0)]
    alone = [run_env_experiment(LinearizedPendulumEnv(a), lcfg, scfg,
                                dither_spec=dith).rows for a in (0.0, 1.0)]
    batched = run_batch([(LinearizedPendulumEnv(a), lcfg, dith, None)
                         for a in (0.0, 1.0)], scfg)
    for rows, one, (tel, fault) in zip(plain, alone, batched):
        assert fault is None
        assert one.tobytes() == rows.tobytes() == tel.rows.tobytes()


def test_only_a_batch_of_catalog_pairs_is_stacked(monkeypatch):
    # a batch of other envs, or a mixed one, never reaches the stacked loop
    # and runs each member as it runs alone, its fault included; a batch
    # of catalog pairs is stacked, once, with the same bits
    import irltrack.sim as sim

    plant, ref, _, lcfg, scfg, dith = small_setup(t_end=0.2, amp=0.5)
    faulty = dataclasses.replace(lcfg, alpha=1e308)

    def pair(x):
        return AugmentedTrackingEnv(plant, ref, x0=np.array([x, 0.0]))

    def outcome(tel, fault):
        return tel.rows.tobytes(), fault and (str(fault), fault.t, fault.step)

    def stacking(*args):
        if not may_stack:
            raise AssertionError("a batch that is not all catalog pairs stacked")
        stacked.append(args)
        return run_rows(*args)

    run_rows, stacked = sim._run_rows, []
    monkeypatch.setattr(sim, "_run_rows", stacking)
    for may_stack, batch in (
            (False, [(lambda: PendulumEnv(0.0), lcfg),
                     (lambda: PendulumEnv(1.0), faulty)]),
            (False, [(lambda: PendulumEnv(1.0), lcfg), (lambda: pair(2.0), faulty),
                     (lambda: pair(1.0), lcfg)]),
            (True, [(lambda: pair(2.0), lcfg), (lambda: pair(1.0), faulty)])):
        alone = [outcome(*run_batch([(make(), cfg, dith, None)], scfg)[0])
                 for make, cfg in batch]
        results = run_batch([(make(), cfg, dith, None) for make, cfg in batch],
                            scfg)
        assert [outcome(*result) for result in results] == alone
        assert [fault is None for _, fault in results] == \
            [cfg is lcfg for _, cfg in batch]
    assert len(stacked) == 1


class HalfAuthorityEnv(AugmentedTrackingEnv):
    """A catalog pair whose actuator delivers half the applied u: physics
    of its own, which a batch must not stack away."""

    def advance(self, u_applied, t, dt):
        super().advance(0.5 * u_applied, t, dt)


def test_a_subclass_keeps_its_own_advance_in_a_batch():
    # a subclass may override any method, so a batch runs it as it runs alone
    plant, ref, _, lcfg, scfg, dith = small_setup(t_end=0.2, amp=0.5)
    x0 = np.array([2.0, 0.0])
    alone = run_env_experiment(HalfAuthorityEnv(plant, ref, x0=x0), lcfg, scfg,
                               dither_spec=dith).rows
    plain = run_env_experiment(AugmentedTrackingEnv(plant, ref, x0=x0), lcfg,
                               scfg, dither_spec=dith).rows
    (tel, fault), _ = run_batch(
        [(HalfAuthorityEnv(plant, ref, x0=x0), lcfg, dith, None),
         (AugmentedTrackingEnv(plant, ref, x0=np.array([1.0, 0.0])), lcfg, dith,
          None)], scfg)
    assert fault is None
    assert tel.rows.tobytes() == alone.tobytes() != plain.tobytes()


class GFaultsAt(AugmentedTrackingEnv):
    """A catalog pair whose G raises NumericFault at its `at`-th call."""

    def __init__(self, plant, ref, x0, at):
        super().__init__(plant, ref, x0=x0)
        self.calls, self.at = 0, at

    def G(self, z):
        self.calls += 1
        if self.calls == self.at:
            raise NumericFault("coupling of a test env failed")
        return super().G(z)


def test_a_fault_raised_by_G_is_stamped_and_its_artifacts_written(
        tmp_path, monkeypatch):
    import irltrack.cli as cli
    from irltrack.config import resolve

    # the lone loop reads G once a step: the 51st call is step 50's
    plant, ref, _, lcfg, scfg, dith = small_setup(t_end=0.2, amp=0.5)
    x0 = np.array([2.0, 0.0])
    full = run_env_experiment(AugmentedTrackingEnv(plant, ref, x0=x0), lcfg,
                              scfg, dither_spec=dith).rows
    for others in ([], [(AugmentedTrackingEnv(plant, ref, x0=x0), lcfg, dith,
                         None)]):
        (tel, fault), *rest = run_batch(
            [(GFaultsAt(plant, ref, x0, at=51), lcfg, dith, None)] + others, scfg)
        assert str(fault) == "coupling of a test env failed"
        assert (fault.step, fault.t) == (50, 50 * scfg.dt)
        assert fault.telemetry is tel
        assert tel.rows.tobytes() == full[:50].tobytes()
        assert [other for _, other in rest] == [None] * len(others)

    def faulting(cfg):
        env = resolve(cfg)
        return GFaultsAt(env.plant, env.ref, env.x.copy(), at=51)

    monkeypatch.setattr(cli, "resolve", faulting)
    out = tmp_path / "run"
    code, telemetry = cli.run_one(cli.resolve_config_path("linear_benchmark"),
                                  ["sim.t_end_s=0.1"], str(out))
    assert code == cli.EXIT_NUMERIC
    assert "status = numeric fault at t=0.05, step 50: coupling of a test env " \
        "failed\n" in (out / "manifest.txt").read_text()
    # records every 10 steps: 0 to 40
    lines = (out / "telemetry.csv").read_text().splitlines()
    assert len(lines) == 1 + 5 == 1 + len(telemetry.rows)


class Recording:
    """An env, recording (z_k, G_k, x_k, x_d_k) each step as the loop
    reads them."""

    def __init__(self, env):
        self.env, self.steps = env, []

    def __getattr__(self, name):
        return getattr(self.env, name)

    def z(self):
        z = self.env.z()
        self.steps.append([z.copy(), None, np.array(self.env.x),
                           np.array(self.env.x_d)])
        return z

    def G(self, z):
        G = self.env.G(z)
        self.steps[-1][1] = np.array(G)
        return G


class Replay:
    """The protocol over a recorded run: `z`, `G`, `x` and `x_d` give step
    k's record and `advance` only moves k.  It has no physics and no drift."""

    def __init__(self, recording):
        self.steps, self.k = recording.steps, 0
        self.control_names, self.m = recording.control_names, recording.m
        self.dim_z = recording.dim_z

    x = property(lambda self: self.steps[self.k][2])
    x_d = property(lambda self: self.steps[self.k][3])

    def z(self):
        return self.steps[self.k][0].copy()

    def G(self, z):
        return self.steps[self.k][1]

    def advance(self, u_applied, t, dt):
        self.k += 1

    def check_domain(self, telemetry, t):
        pass


@pytest.mark.parametrize("config", ["linear_benchmark", "uav_attitude"])
def test_the_learner_reads_the_env_only_through_z_and_G(tmp_path, config):
    # the paper's premise: IRL needs G(z), not the drift; a lone run replayed
    # from its own (z, G, x, x_d) records logs the same bytes
    import irltrack.cli as cli
    from irltrack.config import apply_overrides, parse_config, resolve

    path = tmp_path / "c.ini"
    apply_overrides(cli.resolve_config_path(config), ["sim.t_end_s=0.3"], path)
    cfg, errors = parse_config(path)
    assert not errors, errors
    live = Recording(resolve(cfg))
    tel = run_env_experiment(live, cfg.learner, cfg.sim, dither_spec=cfg.dither)
    replay = Replay(live)
    again = run_env_experiment(replay, cfg.learner, cfg.sim,
                               dither_spec=cfg.dither)
    assert replay.k == len(live.steps) - 1 == cfg.sim.n_steps
    assert again.rows.tobytes() == tel.rows.tobytes()


def test_the_stacked_rows_read_the_envs_only_through_z_and_G(tmp_path,
                                                              monkeypatch):
    # the premise for the stacked loop: a batch of catalog pairs whose rows
    # replay the live run's z records, and step no physics, logs the same
    # bytes in every column but the states x and xd that the rows hold
    import irltrack.sim as sim
    from irltrack.config import resolve
    from test_batch import load

    overrides = ["sim.t_end_s=1", "sim.record_every=1", "dither.amplitude=1",
                 "learner.stabilizer=on", "learner.m_term=on"]
    cfgs = [load(tmp_path, overrides + [f"learner.alpha={alpha}"], f"a{alpha}")
            for alpha in (1100, 1000, 900, 800)]

    def batch():
        return run_batch([(resolve(c), c.learner, c.dither, None) for c in cfgs],
                         cfgs[0].sim)

    live = batch()
    logged = np.stack([tel.columns("z") for tel, _ in live], axis=1)

    class Replayed(sim._LinearRows):
        k = 0

        def z(self):
            return logged[self.k].copy()

        def advance(self, u_applied, t, dt):
            self.k += 1
            return []

    monkeypatch.setattr(sim, "_LinearRows", Replayed)
    header = live[0][0].header
    kept = [i for i, name in enumerate(header) if not re.fullmatch(r"xd?\d+", name)]
    assert len(header) - len(kept) == 4
    for (tel, fault), (ref, ref_fault) in zip(batch(), live):
        assert fault is None and ref_fault is None
        assert len(tel.rows) == cfgs[0].sim.n_steps + 1
        assert tel.rows[:, kept].tobytes() == ref.rows[:, kept].tobytes()
