"""Linear catalog pairs step by their exact RK4 propagator s <- Phi s + Gamma u.

One propagator step is the classical RK4 step of the catalog field
(f(x) + g(x) u, H(x_d)) up to rounding; closed loop, each `test_batch`
point stays within `STAGED_TOL` of the same point stepped by stages; and a
non-finite state faults with one text through the env and through the
stacked rows.
"""
import dataclasses
import math

import numpy as np
import pytest

from irltrack.catalog import make_plant, make_reference
from irltrack.config import resolve
from irltrack.errors import NumericFault
from irltrack.sim import AugmentedTrackingEnv, _LinearRows, run_batch
from test_batch import BASE, POINTS, column_error, load

# Of each telemetry column's largest magnitude, over 2 s of every POINTS
# entry.  The drift measured against stage RK4 is 5.3e-13 to 1.02e-11
# (point 0), so the bound leaves about 5x headroom.
STAGED_TOL = 5e-11


def staged(env):
    """`env` with its plant's `linear` hidden, so it steps by `rk4_step`."""
    env.plant = dataclasses.replace(env.plant, linear=None)
    return env


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
        by_map = AugmentedTrackingEnv(plant, ref, x0=x)
        by_stages = staged(AugmentedTrackingEnv(plant, ref, x0=x))
        for env in (by_map, by_stages):
            env.x_d = x_d.copy()
            env.advance(u, 0.0, dt)
        want = np.concatenate([by_stages.x, by_stages.x_d])
        got = np.concatenate([by_map.x, by_map.x_d])
        # measured: at most 1 ulp of the largest component
        assert np.max(np.abs(got - want)) <= 4 * np.spacing(np.max(np.abs(want)))


def test_every_point_stays_near_its_stage_rk4_run(tmp_path):
    cfgs = [load(tmp_path, BASE + p, f"p{i}") for i, p in enumerate(POINTS)]
    sim = cfgs[0].sim
    by_map = run_batch([(resolve(c), c.learner, c.dither, None) for c in cfgs],
                       sim)
    by_stages = run_batch([(staged(resolve(c)), c.learner, c.dither, None)
                           for c in cfgs], sim)
    for point, (tel, fault), (ref, ref_fault) in zip(POINTS, by_map, by_stages):
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
