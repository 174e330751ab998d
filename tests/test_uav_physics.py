"""The Aerosonde on Python floats against its numpy-array formulation
(`tests/reference.py`): the same bits, state by state."""
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import irltrack
from irltrack.benchmarks.uav import (AEROSONDE, PHI, PSI, P, Q, THETA, U, V,
                                     W, UavAttitudeEnv, trim_level_flight,
                                     uav_dynamics)
from irltrack.catalog import make_env
from irltrack.errors import NumericFault, OracleFailure
from irltrack.sim import Telemetry

from reference import ArrayUavEnv
from reference import uav_dynamics as array_dynamics

U_M = math.pi / 2   # the bundled 90 deg actuator bound
DT = 1e-3


def _pair(setpoints="0: -30 0 -10; 0.15: 30 0 10"):
    env = make_env("aerosonde", "attitude_schedule", {},
                   {"setpoints_deg": setpoints})
    ref = ArrayUavEnv(AEROSONDE, env.trim, env.schedule, env.state)
    return env, ref


def _deflections(steps=300):
    """Random deviations inside the bound, with runs pinned at +-u_m."""
    u = np.random.default_rng(13).uniform(-U_M, U_M, (steps, 3))
    u[10:20] = U_M
    u[120:130] = -U_M
    u[200:210] = (U_M, -U_M, U_M)
    return u


def _same(a, b):
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


def test_float_physics_is_bitwise_the_array_formulation():
    env, ref = _pair()
    switched = False
    for k, u in enumerate(_deflections()):
        assert _same(env.state, ref.state), k
        assert _same(env.x_d, ref.x_d), k
        assert _same(env.z(), ref.z()), k
        assert _same(env.G(env.z()), ref.G(ref.z())), k
        switched |= env.schedule.attitude_des(k * DT)[0] > 0
        env.advance(u, k * DT, DT)
        ref.advance(u, k * DT, DT)
    assert _same(env.state, ref.state) and _same(env.x_d, ref.x_d)
    assert switched and type(env.state) is list
    assert len(env.state) == 12 and all(type(s) is float for s in env.state)


def test_float_physics_is_bitwise_the_array_formulation_at_random_states():
    """Off the trim trajectory too, where the airspeed's rounding depends on
    how its norm is summed."""
    env0 = make_env("aerosonde", "attitude_schedule")
    rng = np.random.default_rng(7)
    for _ in range(200):
        state = np.concatenate([rng.normal(0.0, 100.0, 3), rng.normal(0.0, 20.0, 3),
                                rng.uniform(-1.0, 1.0, 3), rng.normal(0.0, 1.0, 3)])
        u = rng.uniform(-U_M, U_M, 3)
        env = UavAttitudeEnv(env0.trim, env0.schedule, state)
        ref = ArrayUavEnv(AEROSONDE, env0.trim, env0.schedule, state)
        for _ in range(2):
            assert _same(env.G(env.z()), ref.G(ref.z()))
            assert _same(env.z(), ref.z())
            env.advance(u, 0.0, DT)
            ref.advance(u, 0.0, DT)
            assert _same(env.state, ref.state)


@pytest.mark.parametrize("va, want", [
    (18.0, "TrimPoint(va=18.0, alpha=0.22886718413590926, "
           "delta_e=-0.220699059943291, delta_t=0.25404771144502414)"),
    (25.0, "TrimPoint(va=25.0, alpha=0.08224250634911698, "
           "delta_e=-0.1092643048253289, delta_t=0.33495138613022674)"),
    (35.0, "TrimPoint(va=35.0, alpha=0.0035037534908948327, "
           "delta_e=-0.04942285265308008, delta_t=0.4555578272587033)"),
])
def test_trim_keeps_its_bits(va, want):
    assert repr(trim_level_flight(va)) == want


# The trim's direct hybrd call against scipy.optimize.root over the same
# residual, in a fresh interpreter that loads the extension first or
# scipy.optimize first; either way both use the one extension module.
_TRIM_AGAINST_ROOT = """
import sys
import numpy as np
from irltrack.benchmarks import uav
if sys.argv[1] == "extension":
    uav._minpack()
    assert "scipy.optimize" not in sys.modules
from scipy.optimize import _minpack_py, root
if sys.argv[1] == "scipy.optimize":
    uav._minpack()
assert uav._minpack() is _minpack_py._minpack
vas = [18.0, 25.0, 35.0, 13.3, 78.8, 10.0, 100.0, 0.5, 0.0, -5.0]
vas += np.random.default_rng(28).uniform(0.0, 120.0, 50).tolist()
for va in vas:
    residual = uav._trim_residual(va)
    x, status, message = uav._solve_trim(residual)
    sol = root(residual, x0=[0.05, -0.1, 0.5], tol=1e-12)
    assert x.tobytes() == sol.x.tobytes(), (va, x, sol.x)
    assert status == sol.status, (va, status, sol.status)
    assert message == " ".join(sol.message.split()), (va, message, sol.message)
print(len(vas))
"""


@pytest.mark.parametrize("first", ["extension", "scipy.optimize"])
def test_trim_solve_is_bitwise_scipy_root(first):
    src = os.path.dirname(os.path.dirname(irltrack.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _TRIM_AGAINST_ROOT, first],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["60"]


@pytest.mark.parametrize("va, broken", [
    (10.0, "plant.va_m_s = 10.0 trims at alpha = 48.8 deg, past the stall "
           "angle of 27 deg"),
    (100.0, "plant.va_m_s = 100.0 trims at throttle 1.266, outside [0, 1]"),
])
def test_trim_outside_the_envelope_fails(va, broken):
    with pytest.raises(OracleFailure) as exc:
        trim_level_flight(va)
    assert str(exc.value) == broken


EDGES = (0.0, -0.0, 1e-300, -1e-300, 1e300, -1e300, math.nan, math.inf, -math.inf)


def test_dynamics_is_bitwise_the_array_formulation_at_edge_states():
    """Signed zeros, tiny, huge and non-finite entries in the state and the
    deflections: the same numbers, NaNs in the same places, and the pitch
    guard on both sides.  An infinite roll or yaw becomes NaN: `math.sin`
    raises ValueError there in both forms."""
    rng = np.random.default_rng(11)
    faults = 0
    for _ in range(20000):
        state = rng.normal(0.0, 10.0, 12)
        de = rng.uniform(-U_M, U_M, 3)
        for x in (state, de):
            edge = rng.random(x.size) < 0.3
            x[edge] = rng.choice(EDGES, edge.sum())
        state[[PHI, PSI]] = np.where(np.isinf(state[[PHI, PSI]]), math.nan,
                                     state[[PHI, PSI]])
        delta_t = float(rng.choice([0.0, -0.0, 1.0, rng.random()]))
        try:
            want = array_dynamics(state, de, AEROSONDE, delta_t)
        except NumericFault:
            with pytest.raises(NumericFault, match="Euler singularity guard"):
                uav_dynamics(state.tolist(), de.tolist(), delta_t)
            faults += 1
            continue
        got = np.array(uav_dynamics(state.tolist(), de.tolist(), delta_t))
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan)
        assert got[~nan].tobytes() == want[~nan].tobytes()
    assert 0 < faults < 20000


def test_nan_deflection_faults_at_stage_one():
    env, ref = _pair()
    for e in (env, ref):
        with pytest.raises(NumericFault, match="non-finite RK4 stage 1 at t=0.0"):
            e.advance(np.array([math.nan, 0.0, 0.0]), 0.0, DT)


def test_pitch_guard_raises_in_advance():
    env0 = make_env("aerosonde", "attitude_schedule")
    # an overflowed angle is printed in short form, not digit by digit
    for theta, shown in ((math.pi / 2, "1.571"), (1e300, "1e+300")):
        state = list(env0.state)
        state[THETA] = theta
        env = UavAttitudeEnv(env0.trim, env0.schedule, state)
        with pytest.raises(NumericFault, match="Euler singularity guard") as exc:
            env.advance(np.zeros(3), 0.0, DT)
        assert f"pitch angle {shown} rad" in str(exc.value)


def _alpha(env):
    return math.atan2(env.state[W], env.state[U])


def test_stall_warning_follows_the_state():
    env = make_env("aerosonde", "attitude_schedule")
    pr, va = AEROSONDE, env.trim.va
    # just past the stall angle, pitching down hard
    state = list(env.state)
    a0 = pr.stall_alpha + 0.01
    state[U], state[W] = va * math.cos(a0), va * math.sin(a0)
    state[Q] = -5.0   # rad/s
    env = UavAttitudeEnv(env.trim, env.schedule, state)
    tel = Telemetry(dim_z=6, dim_x=12, dim_xd=3, m=3, n1=1, capacity=0)
    env.check_domain(tel, 0.0)
    assert abs(_alpha(env)) > pr.stall_alpha
    assert tel.warnings["stall regime: |alpha| above the stall angle"].count == 1
    env.advance(np.zeros(3), 0.0, 0.01)
    assert abs(_alpha(env)) < pr.stall_alpha
    env.check_domain(tel, 0.01)
    (seen,) = tel.warnings.values()
    assert (seen.count, seen.t_last) == (1, 0.0)


# States where a coefficient sum of `uav_dynamics` is -0.0 before its zero
# coefficient is added, and the sign of that zero reaches a derivative:
# dropping `c_y0 +` turns v-dot from 0.0 into -0.0, dropping `c_n0 +` p-dot.
# The yaw moment's case needs a tiny roll sum, -4e-323 rad of aileron at
# 1 mm/s, which the moment's product with qS b rounds to -0.0.  Dropping
# `c_ll0 +` cannot change any output: the roll sum is -0.0 only when each
# of its terms is, and then each yaw term is +0.0, positive or (aileron)
# -0.0, so the yaw moment is >= +0.0 and adds the last term of p-dot and
# r-dot, which erases the sign of a zero sum before it.
# (state, (delta_e, delta_a, delta_r), throttle)
ZERO_SUM_CASES = {
    "c_y0": ([0.0, 0.0, -100.0, -18.0, 0.0, 0.9, -0.0, 0.05, 0.0, -0.0, 0.0, -0.0],
             (-0.1, -0.0, 0.0), 0.5),
    "c_n0": ([0.0, 0.0, -100.0, 1e-3, -0.0, 0.0, -0.0, 0.05, 0.0, -0.0, 0.0, 0.0],
             (-0.1, -4e-323, 0.0), 0.5),
}


@pytest.mark.parametrize("coefficient", sorted(ZERO_SUM_CASES))
def test_dynamics_keeps_a_zero_coefficient_in_its_sum(coefficient):
    state, deflections, delta_t = ZERO_SUM_CASES[coefficient]
    want = array_dynamics(np.array(state), np.array(deflections), AEROSONDE,
                          delta_t)
    got = uav_dynamics(state, deflections, delta_t)
    # signwise: +0.0 and -0.0 have different bits
    assert _same(got, want)
    assert want[{"c_y0": V, "c_n0": P}[coefficient]] == 0.0
