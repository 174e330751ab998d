"""Catalog pairs step by their exact RK4 propagator s <- Phi s + Gamma u.

One propagator step is the classical RK4 step of the catalog field
(A x + B u, H x_d) up to rounding; closed loop, each `test_batch` point and
the integrator and zero plants stay within `STAGED_TOL` of the same run
stepped by stages; and a non-finite state faults with one text through the
env and through the stacked rows.
"""
import math

import numpy as np
import pytest

from irltrack.catalog import make_plant, make_reference
from irltrack.config import resolve
from irltrack.errors import NumericFault
from irltrack.models import ReferenceModel
from irltrack.sim import AugmentedTrackingEnv, _LinearRows, rk4_step, run_batch
from test_batch import BASE, POINTS, column_error, load

# Of each telemetry column's largest magnitude, over 2 s of every POINTS
# entry.  The drift measured against stage RK4 is 5.3e-13 to 1.02e-11
# (point 0), so the bound leaves about 5x headroom.
STAGED_TOL = 5e-11


class Staged:
    """A catalog pair's env, stepped by `rk4_step` on its field
    (A x + B u, H x_d): an env of the protocol alone, so the loop reads it
    row by row through its own methods.  It keeps its own x and x_d, from
    the env's at the start."""

    def __init__(self, env):
        self.env, self.x, self.x_d = env, env.x, env.x_d

    def __getattr__(self, name):
        return getattr(self.env, name)

    def z(self):
        return np.concatenate([self.x - self.x_d, self.x_d])

    def advance(self, u_applied, t, dt):
        env, n = self.env, self.env.plant.n
        A, B, H = env.plant.A, env.plant.B, env.ref.H

        def field(tt, s):
            x, xd = np.array(s[:n]), np.array(s[n:])
            return [*(A @ x + B @ u_applied).tolist(), *(H @ xd).tolist()]

        s = np.array(rk4_step(field, t, [*self.x, *self.x_d], dt))
        self.x, self.x_d = s[:n], s[n:]


def linear_pair(rng):
    plant = make_plant("linear_osc", {"omega": str(rng.uniform(0.1, 5.0)),
                                      "gain": str(rng.uniform(0.1, 3.0))})
    ref = make_reference("harmonic", {"omega": str(rng.uniform(0.1, 5.0)),
                                      "x_d0": "1 0"})
    return plant, ref


def test_one_propagator_step_is_one_stage_rk4_step(rng):
    for _ in range(100):
        plant, ref = linear_pair(rng)
        x, x_d = rng.normal(size=2) * 10, rng.normal(size=2) * 10
        u, dt = rng.normal(size=1) * 5, 10 ** rng.uniform(-4, -1)
        ref = ReferenceModel(H=ref.H, x_d0=x_d)
        by_map = AugmentedTrackingEnv(plant, ref, x0=x)
        by_stages = Staged(AugmentedTrackingEnv(plant, ref, x0=x))
        by_map.advance(u, 0.0, dt)
        by_stages.advance(u, 0.0, dt)
        want = np.concatenate([by_stages.x, by_stages.x_d])
        got = np.concatenate([by_map.x, by_map.x_d])
        # measured: at most 1 ulp of the largest component
        assert np.max(np.abs(got - want)) <= 4 * np.spacing(np.max(np.abs(want)))


# The integrator and zero plants on the harmonic reference, each a batch
# of its own: measured 5.5e-13 and 6.3e-13 against stage RK4.
OTHER_PLANTS = [
    ["experiment.plant=integrator", "plant.n=2", "saturation.r_diag=10 10"],
    ["experiment.plant=zero", "plant.n=2"],
]


def test_every_point_stays_near_its_stage_rk4_run(tmp_path):
    cfgs = [load(tmp_path, BASE + p, f"p{i}") for i, p in enumerate(POINTS)]
    batches = [cfgs] + [[load(tmp_path, BASE + p, f"q{i}")]
                        for i, p in enumerate(OTHER_PLANTS)]
    points = POINTS + OTHER_PLANTS
    results = []
    for batch in batches:
        by_map = run_batch([(resolve(c), c.learner, c.dither, None)
                            for c in batch], batch[0].sim)
        by_stages = run_batch([(Staged(resolve(c)), c.learner, c.dither, None)
                               for c in batch], batch[0].sim)
        results += zip(by_map, by_stages)
    assert len(results) == len(points)
    for point, ((tel, fault), (ref, ref_fault)) in zip(points, results):
        assert fault is None and ref_fault is None
        assert len(tel.rows) == 287
        assert column_error(ref.rows, tel.rows) <= STAGED_TOL, point


def test_a_nonfinite_state_faults_alone_with_one_text(rng):
    plant, ref = linear_pair(rng)
    env = AugmentedTrackingEnv(plant, ref, x0=np.array([0.5, -0.5]))
    with pytest.raises(NumericFault) as lone:
        env.advance(np.array([math.nan]), 0.25, 1e-3)
    assert str(lone.value) == "non-finite state at t=0.25"
    assert lone.value.t == 0.25
    # the env keeps its state when it faults
    assert env.x.tolist() == [0.5, -0.5]

    envs = [AugmentedTrackingEnv(plant, ref, x0=np.array([0.5, -0.5]))
            for _ in range(2)]
    rows = _LinearRows(envs, 1e-3)
    with np.errstate(invalid="ignore"):   # as inside the step loop
        faults = rows.advance(np.array([[1.0], [math.inf]]), 0.25, 1e-3)
    assert [i for i, _ in faults] == [1]
    assert str(faults[0][1]) == str(lone.value) and faults[0][1].t == 0.25
    # the healthy row took the lone env's own step, bit for bit
    env.advance(np.array([1.0]), 0.25, 1e-3)
    assert np.array_equal(rows.s[0], np.concatenate([env.x, env.x_d]))
    assert np.isfinite(rows.s[0]).all() and not np.isfinite(rows.s[1]).all()
