"""Experiment configuration: INI parsing, validation, and resolution.

Configs are plain INI with explicit unit suffixes (`*_deg`, `*_s`); degrees
are converted to radians at the parse boundary.  `parse_config` and
`validate_config` return lists of "section.key: problem" strings; a missing
required number is reported once and then carried as NaN, so validation
never trips over it.  `resolve` builds the runtime objects: the environment,
through the single `catalog.make_env` lookup on the [experiment] plant and
reference ids with the [plant] and [reference] sections as builder keys,
then the basis, saturation, learner, sim and dither settings.  Nothing here
knows any particular plant.
"""
from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field

import numpy as np

from . import catalog
from .basis import make_basis, quad_feature_count
from .errors import ConfigurationError
from .learner import LearnerConfig
from .policy import SaturationSpec
from .sim import DitherSpec, SimConfig

_DEG = math.pi / 180.0

_KNOWN_SECTIONS = {"experiment", "plant", "reference", "saturation", "learner",
                   "sim", "dither"}


@dataclass
class ExperimentConfig:
    """Parsed & validated experiment description."""

    name: str
    plant_id: str
    reference_id: str
    basis_id: str
    law: str
    plant_params: dict
    reference_params: dict
    u_m: float
    r_diag: np.ndarray
    alpha: float
    gamma: float
    T: float
    q2: float
    k2: float
    k1_gain: float
    k2_gain: float
    q1_diag: np.ndarray
    stabilizer: bool
    m_term: bool
    dt: float
    t_end: float
    record_every: int
    dither_amplitude: float
    raw: dict = field(default_factory=dict)


def parse_config(path) -> tuple[ExperimentConfig | None, list[str]]:
    """Parse an INI experiment file; returns (config_or_None, error_list)."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    errors: list[str] = []
    try:
        with open(path, encoding="utf-8") as fh:
            cp.read_file(fh)
    except OSError as exc:
        return None, [f"cannot read config: {exc}"]
    except configparser.Error as exc:
        return None, [f"parse error: {exc}"]

    for sec in cp.sections():
        if sec not in _KNOWN_SECTIONS:
            errors.append(f"{sec}: unknown section")

    def need(section, key, cast=float, default=None, deg_key=None):
        """Fetch section.key, or its *_deg twin scaled to radians.

        `default=None` makes the key required: NaN stands in when it is
        missing or malformed, after the error is recorded.
        """
        fallback = math.nan if default is None else default
        if deg_key and cp.has_option(section, key) and \
                cp.has_option(section, deg_key):
            errors.append(f"{section}.{deg_key}: conflicts with {section}.{key}; "
                          "give only one of them")
            return fallback
        if cp.has_option(section, key):
            try:
                return cast(cp.get(section, key))
            except ValueError as exc:
                errors.append(f"{section}.{key}: {exc}")
                return fallback
        if deg_key and cp.has_option(section, deg_key):
            try:
                return cast(cp.get(section, deg_key)) * _DEG
            except ValueError as exc:
                errors.append(f"{section}.{deg_key}: {exc}")
                return fallback
        if default is None:
            errors.append(f"{section}.{key}: missing required key")
        return fallback

    def section_params(section):
        return dict(cp.items(section)) if cp.has_section(section) else {}

    name = cp.get("experiment", "name", fallback="run")
    plant_id = need("experiment", "plant", cast=str, default="")
    reference_id = need("experiment", "reference", cast=str, default="")
    basis_id = cp.get("experiment", "basis", fallback="quad")
    law = cp.get("experiment", "law", fallback="novel").strip()

    u_m = need("saturation", "u_m", deg_key="u_m_deg")
    r_diag = need("saturation", "r_diag", cast=catalog.parse_floats,
                  default=np.array([1.0]))

    alpha = need("learner", "alpha")
    gamma = need("learner", "gamma")
    T = need("learner", "t_window_s")
    q2 = need("learner", "q2", default=0.1)
    k2 = need("learner", "k2", default=0.01)
    k1_gain = need("learner", "k1_gain", default=0.01)
    k2_gain = need("learner", "k2_gain", default=0.01)
    q1_diag = need("learner", "q1_diag", cast=catalog.parse_floats,
                   default=np.array([1.0]))
    stabilizer = cp.getboolean("learner", "stabilizer", fallback=True)
    m_term = cp.getboolean("learner", "m_term", fallback=True)

    dt = need("sim", "dt_s")
    t_end = need("sim", "t_end_s")
    record_every = need("sim", "record_every", cast=int, default=1)

    amp = need("dither", "amplitude", default=0.0, deg_key="amplitude_deg")

    cfg = ExperimentConfig(
        name=name, plant_id=plant_id, reference_id=reference_id,
        basis_id=basis_id, law=law,
        plant_params=section_params("plant"),
        reference_params=section_params("reference"),
        u_m=u_m, r_diag=r_diag, alpha=alpha, gamma=gamma,
        T=T, q2=q2, k2=k2, k1_gain=k1_gain, k2_gain=k2_gain,
        q1_diag=q1_diag, stabilizer=stabilizer, m_term=m_term,
        dt=dt, t_end=t_end, record_every=record_every,
        dither_amplitude=amp,
        raw={s: dict(cp.items(s)) for s in cp.sections()})
    return cfg, errors


def validate_config(cfg: ExperimentConfig) -> list[str]:
    """Invariant checks beyond parsing; returns 'section.key: problem' strings."""
    errs = []
    if cfg.law not in ("novel", "baseline"):
        errs.append(f"experiment.law: must be 'novel' or 'baseline', got {cfg.law!r}")
    if cfg.u_m <= 0:
        errs.append(f"saturation.u_m: must be > 0, got {cfg.u_m}")
    if np.any(cfg.r_diag <= 0):
        errs.append("saturation.r_diag: all entries must be > 0")
    if cfg.alpha < 0:
        errs.append(f"learner.alpha: must be >= 0, got {cfg.alpha}")
    if cfg.gamma < 0:
        errs.append(f"learner.gamma: must be >= 0, got {cfg.gamma}")
    if cfg.T <= 0:
        errs.append(f"learner.t_window_s: must be > 0, got {cfg.T}")
    if cfg.q2 < 0 or cfg.k2 < 0:
        errs.append("learner.q2/k2: exponents must be >= 0")
    if np.any(cfg.q1_diag < 0):
        errs.append("learner.q1_diag: entries must be >= 0")
    if cfg.dt <= 0:
        errs.append(f"sim.dt_s: must be > 0, got {cfg.dt}")
    if cfg.dt > cfg.T * (1 + 1e-12):
        errs.append(f"sim.dt_s: dt = {cfg.dt} must be <= reinforcement window "
                    f"T = {cfg.T} (learner.t_window_s)")
    if cfg.t_end <= cfg.T:
        errs.append(f"sim.t_end_s: must exceed the warm-up window {cfg.T}")
    if cfg.record_every < 1:
        errs.append("sim.record_every: must be >= 1")
    if cfg.dither_amplitude < 0:
        errs.append("dither.amplitude: must be >= 0")

    errs += catalog.pair_errors(cfg.plant_id, cfg.reference_id)
    if cfg.basis_id != "quad":
        errs.append(f"experiment.basis: unknown id {cfg.basis_id!r}; known: ['quad']")
    return errs


def resolve(cfg: ExperimentConfig):
    """Build runtime objects; raises ConfigurationError on bad cross-references."""
    errs = validate_config(cfg)
    if errs:
        raise ConfigurationError("; ".join(errs))

    sat = SaturationSpec(u_m=cfg.u_m, R=np.diag(cfg.r_diag))

    env = catalog.make_env(cfg.plant_id, cfg.reference_id, cfg.plant_params,
                           cfg.reference_params)
    dim_z = env.dim_z

    if len(cfg.q1_diag) != dim_z:
        raise ConfigurationError(
            f"learner.q1_diag: need {dim_z} entries for this plant, "
            f"got {len(cfg.q1_diag)}")
    if len(cfg.r_diag) != env.m:
        raise ConfigurationError(
            f"saturation.r_diag: need {env.m} entries for this plant, "
            f"got {len(cfg.r_diag)}")

    basis = make_basis(cfg.basis_id, dim_z)
    n1 = basis.n_features
    assert n1 == quad_feature_count(dim_z)
    lcfg = LearnerConfig(
        alpha=cfg.alpha, gamma=cfg.gamma, T=cfg.T, Q1=np.diag(cfg.q1_diag),
        sat=sat, q2=cfg.q2, k2=cfg.k2,
        K1=cfg.k1_gain * np.ones(n1), K2=cfg.k2_gain * np.eye(n1),
        stabilizer_enabled=cfg.stabilizer, m_term_enabled=cfg.m_term)
    scfg = SimConfig(dt=cfg.dt, t_end=cfg.t_end, record_every=cfg.record_every)
    dither_spec = DitherSpec(amplitude=cfg.dither_amplitude)
    return env, basis, lcfg, scfg, dither_spec


def apply_overrides(path, overrides, out_path):
    """Copy an INI config applying 'section.key=value' overrides."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    with open(path, encoding="utf-8") as fh:
        cp.read_file(fh)
    for ov in overrides:
        key, _, value = ov.partition("=")
        section, _, option = key.strip().partition(".")
        if not (section and option and value != ""):
            raise ConfigurationError(
                f"override {ov!r}: expected section.key=value")
        if not cp.has_section(section):
            cp.add_section(section)
        cp.set(section, option, value.strip())
    with open(out_path, "w", encoding="utf-8") as fh:
        cp.write(fh)
    return out_path
