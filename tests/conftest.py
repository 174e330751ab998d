"""Shared fixtures: the two bundled acceptance runs, executed once per session."""
import time

import numpy as np
import pytest

from irltrack.cli import resolve_config_path
from irltrack.config import parse_config, resolve
from irltrack.sim import run_env_experiment


def _run_bundled(name):
    cfg, errors = parse_config(resolve_config_path(name))
    assert not errors, errors
    env = resolve(cfg)
    t0 = time.perf_counter()
    telemetry = run_env_experiment(env, cfg.learner, cfg.sim,
                                   dither_spec=cfg.dither)
    wall = time.perf_counter() - t0
    return {"cfg": cfg, "env": env, "telemetry": telemetry, "wall_s": wall}


@pytest.fixture(scope="session")
def linear_run():
    return _run_bundled("linear_benchmark")


@pytest.fixture(scope="session")
def uav_run():
    return _run_bundled("uav_attitude")


@pytest.fixture()
def rng():
    return np.random.default_rng(2024)
