"""Experiment configuration: INI parsing and resolution.

Configs are plain INI with explicit unit suffixes (`*_deg`, `*_s`); degrees
are converted to radians at the parse boundary.  `read_config` is the one
INI reader; `parse_config` reads each key once into the saturation,
learner, sim and dither objects.  Every rule lives in the object it
constrains; an object's error is reported under the INI keys of the
fields it names ("section.key: problem", on one line).  Values are read
verbatim, so a `%` is a literal.  A missing or malformed key is reported
once and the object that needs it is not built; an unknown key in
[experiment], [saturation], [learner], [sim] or [dither] is an error, so a
misspelled key cannot fall back to a default.
`resolve` builds the environment (`catalog.make_env` on the [experiment]
ids, with the [plant] and [reference] keys, which it checks against the
keys its builders read).  Nothing here knows any particular plant.
"""
from __future__ import annotations

import configparser
import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from . import catalog
from .errors import ConfigurationError
from .learner import LearnerConfig
from .policy import SaturationSpec
from .sim import DitherSpec, SimConfig, check_run

_DEG = math.pi / 180.0

_KNOWN_SECTIONS = {"experiment", "plant", "reference", "saturation", "learner",
                   "sim", "dither"}


def _diag(text: str) -> np.ndarray:
    values = catalog.parse_floats(text)
    if not len(values):
        raise ValueError("no values given")
    return np.diag(values)


# (constructor field, INI key, parser) per section.  A field its object
# gives a default is an optional key; the others are required.
_KEYS = {
    "saturation": [("u_m", "u_m", float),
                   ("r_diag", "r_diag", catalog.parse_floats)],
    "learner": [("alpha", "alpha", float), ("gamma", "gamma", float),
                ("T", "t_window_s", float), ("Q1", "q1_diag", _diag),
                ("q2", "q2", float), ("k2", "k2", float),
                ("k1_gain", "k1_gain", float), ("k2_gain", "k2_gain", float),
                ("stabilizer_enabled", "stabilizer", bool),
                ("m_term_enabled", "m_term", bool)],
    "sim": [("dt", "dt_s", float), ("t_end", "t_end_s", float),
            ("record_every", "record_every", int)],
    "dither": [("amplitude", "amplitude", float)],
}

# keys that may instead be given in degrees, as `<key>_deg`
_DEG_TWINS = {"saturation.u_m", "dither.amplitude"}

# every key these sections may hold; [plant] and [reference] keys belong to
# their catalog builders
_SECTION_KEYS = {
    "experiment": {"name", "plant", "reference", "law"},
    **{section: {key for _, key, _ in keys}
       | {f"{key}_deg" for _, key, _ in keys if f"{section}.{key}" in _DEG_TWINS}
       for section, keys in _KEYS.items()},
}


@dataclass
class ExperimentConfig:
    """A parsed experiment: its ids, builder keys and runtime objects."""

    name: str
    plant_id: str
    reference_id: str
    plant_params: dict
    reference_params: dict
    learner: LearnerConfig      # carries the saturation spec as `learner.sat`
    sim: SimConfig
    dither: DitherSpec
    raw: dict
    default_keys: frozenset     # the [DEFAULT] section's keys


def parse_config(path) -> tuple[ExperimentConfig | None, list[str]]:
    """Parse an INI experiment file; returns (config, []) or (None, errors)."""
    try:
        cp = read_config(path)
    except ConfigurationError as exc:
        return None, [str(exc)]

    errors = [f"{sec}: unknown section" for sec in cp.sections()
              if sec not in _KNOWN_SECTIONS]
    errors += [f"{sec}.{key}: unknown key; known: {', '.join(sorted(known))}"
               for sec, known in _SECTION_KEYS.items() if cp.has_section(sec)
               for key in cp.options(sec)
               if key not in known and key not in cp.defaults()]
    keys = {"law": "experiment.law"}   # constructor field -> its INI key
    as_written = {}   # field read from a `_deg` key -> (radians, text given)

    def read(section, cls):
        """Keyword arguments of `cls` from the section, or None if a key is bad.

        An absent optional key is left out, so the object's default applies.
        """
        required = {f.name for f in dataclasses.fields(cls)
                    if f.default is dataclasses.MISSING}
        kwargs, ok = {}, True
        for name, key, parse in _KEYS[section]:
            keys[name] = f"{section}.{key}"
            names = (key, f"{key}_deg") if keys[name] in _DEG_TWINS else (key,)
            given = [k for k in names if cp.has_option(section, k)]
            if len(given) == 2:
                errors.append(f"{section}.{given[1]}: conflicts with "
                              f"{section}.{key}; give only one of them")
                ok = False
            elif not given:
                if name in required:
                    errors.append(f"{section}.{key}: missing required key")
                    ok = False
            else:
                keys[name] = f"{section}.{given[0]}"
                text = cp.get(section, given[0])
                try:
                    value = cp.getboolean(section, key) if parse is bool else \
                        parse(text)
                except ValueError as exc:
                    errors.append(f"{keys[name]}: {exc}")
                    ok = False
                else:
                    if given[0] != key:
                        value *= _DEG
                        as_written[name] = (value, text.strip())
                    kwargs[name] = value
        return kwargs if ok else None

    def report(exc: ConfigurationError):
        """The error under its INI keys; a value read from a `_deg` key is
        quoted as written, not in radians."""
        msg = " ".join(line.strip() for line in str(exc).splitlines())
        for f in exc.fields:
            if f in as_written:
                value, text = as_written[f]
                msg = msg.replace(str(value), f"{text} deg")
        errors.append(f"{', '.join(keys[f] for f in exc.fields)}: {msg}")

    def build(section, cls, **needs):
        """cls from the section's keys and `needs`; None if any is missing
        or bad, or the object rejects them."""
        kwargs = read(section, cls)
        if kwargs is None or None in needs.values():
            return None
        try:
            return cls(**kwargs, **needs)
        except ConfigurationError as exc:
            report(exc)
            return None

    law = cp.get("experiment", "law", fallback="novel").strip()
    sat = build("saturation", SaturationSpec)
    learner = build("learner", LearnerConfig, sat=sat, law=law)
    sim = build("sim", SimConfig)
    dither = build("dither", DitherSpec)
    if learner and sim:
        try:
            check_run(learner, sim)
        except ConfigurationError as exc:
            report(exc)
    if errors:
        return None, errors
    raw = {s: dict(cp.items(s)) for s in cp.sections()}
    return ExperimentConfig(
        name=cp.get("experiment", "name", fallback="run"),
        plant_id=cp.get("experiment", "plant", fallback=""),
        reference_id=cp.get("experiment", "reference", fallback=""),
        plant_params=raw.get("plant", {}),
        reference_params=raw.get("reference", {}),
        learner=learner, sim=sim, dither=dither, raw=raw,
        default_keys=frozenset(cp.defaults())), []


def resolve(cfg: ExperimentConfig):
    """The environment of a parsed config.

    Raises ConfigurationError when the pair, a [plant] or [reference] key,
    or the plant's dimensions do not fit the config.
    """
    env = catalog.make_env(cfg.plant_id, cfg.reference_id, cfg.plant_params,
                           cfg.reference_params, exempt=cfg.default_keys)
    if len(cfg.learner.Q1) != env.dim_z:
        raise ConfigurationError(
            f"learner.q1_diag: need {env.dim_z} entries for this plant, "
            f"got {len(cfg.learner.Q1)}")
    if cfg.learner.sat.m != env.m:
        raise ConfigurationError(
            f"saturation.r_diag: need {env.m} entries for this plant, "
            f"got {cfg.learner.sat.m}")
    return env


def parse_override(text: str) -> tuple[str, str, str]:
    """'section.key=value' -> (section, key, value) as they take effect:
    stripped, with the key lower-cased as configparser stores it."""
    key, _, value = text.partition("=")
    section, _, option = key.partition(".")
    section, option, value = section.strip(), option.strip().lower(), value.strip()
    if not (section and option and value):
        raise ConfigurationError(f"override {text!r}: expected section.key=value")
    return section, option, value


def read_config(path, overrides=()) -> configparser.ConfigParser:
    """The INI file at `path`, its values verbatim (no interpolation, so a
    `%` is a literal), with 'section.key=value' overrides applied in order
    (a later value for a key replaces an earlier one).  A file that cannot
    be read, decoded as UTF-8 or parsed is a ConfigurationError on one
    line."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"),
                                   interpolation=None)
    try:
        with open(path, encoding="utf-8") as fh:
            cp.read_file(fh)
    except (OSError, UnicodeDecodeError, configparser.Error) as exc:
        what = "parse error" if isinstance(exc, configparser.Error) else \
            "cannot read config"
        msg = " ".join(line.strip() for line in str(exc).splitlines())
        raise ConfigurationError(f"{what}: {msg}") from None
    for ov in overrides:
        section, option, value = parse_override(ov)
        if section != cp.default_section and not cp.has_section(section):
            cp.add_section(section)
        cp.set(section, option, value)
    return cp


def apply_overrides(path, overrides, out_path):
    """Write `read_config(path, overrides)` to `out_path`."""
    cp = read_config(path, overrides)
    with open(out_path, "w", encoding="utf-8") as fh:
        cp.write(fh)
