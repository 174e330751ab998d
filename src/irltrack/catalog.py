"""Named registries of plants, references and environments, and `make_env`,
the one place an experiment's environment is built.

Builders take the config section's extra keys (a plain dict of strings)
and are registered with the keys they read; a plant or reference builder
returns its matrices, as an `AffinePlant` (A, B) or a `ReferenceModel`
(H, x_d0), which checks its shapes and entries when it is built.
`make_env` pairs a registered plant with a registered reference in an
`AugmentedTrackingEnv`, which steps by its exact RK4 propagator and has a
Riccati oracle attempt; an environment entry instead builds, for its one
plant/reference pair, an object with its own (possibly nonlinear) physics
and the same `sim.TrackingEnv` protocol.  A [plant] or [reference] key
that no registered builder reads is an error, so a misspelled key cannot
fall back to a default.  Tests and downstream users may register more.
"""
from __future__ import annotations

import numpy as np

from .errors import ConfigurationError
from .models import AffinePlant, ReferenceModel
from .sim import AugmentedTrackingEnv

_PLANTS: dict = {}       # plant id -> (builder, the [plant] keys it reads)
_REFERENCES: dict = {}   # reference id -> (builder, the [reference] keys it reads)
# plant id -> (the reference id it requires, builder, its [plant] keys, its
# [reference] keys)
_ENVS: dict = {}


def register_plant(name: str, keys=()):
    """Register a catalog plant builder reading the [plant] `keys`; `x0`
    is a key of every catalog plant (`make_env` reads it)."""
    def deco(builder):
        _PLANTS[name] = (builder, {"x0", *keys})
        return builder
    return deco


def register_reference(name: str, keys=()):
    def deco(builder):
        _REFERENCES[name] = (builder, set(keys))
        return builder
    return deco


def register_env(plant: str, reference: str, plant_keys=(), reference_keys=()):
    """Register a self-contained environment for the pair (plant, reference)."""
    def deco(builder):
        _ENVS[plant] = (reference, builder, set(plant_keys), set(reference_keys))
        return builder
    return deco


def _build(registry: dict, kind: str, name: str, params: dict | None):
    if name not in registry:
        raise ConfigurationError(
            f"unknown {kind} {name!r}; available: {sorted(registry)}")
    return registry[name][0](params or {})


def _known_keys() -> dict:
    """Per section, the keys that some registered builder reads."""
    return {"plant": set().union(*(keys for _, keys in _PLANTS.values()),
                                 *(env[2] for env in _ENVS.values())),
            "reference": set().union(*(keys for _, keys in _REFERENCES.values()),
                                     *(env[3] for env in _ENVS.values()))}


def make_plant(name: str, params: dict | None = None) -> AffinePlant:
    return _build(_PLANTS, "plant", name, params)


def make_reference(name: str, params: dict | None = None) -> ReferenceModel:
    return _build(_REFERENCES, "reference", name, params)


def make_env(plant_id: str, reference_id: str, plant_params: dict | None = None,
             reference_params: dict | None = None, exempt=()):
    """Build the tracking environment of an experiment's plant/reference pair.

    `exempt` names keys that may appear in the params without a builder
    reading them (the config's [DEFAULT] keys)."""
    known = _known_keys()
    errs = [f"{section}.{key}: unknown key; known: {', '.join(sorted(known[section]))}"
            for section, params in (("plant", plant_params),
                                    ("reference", reference_params))
            for key in params or {} if key not in known[section] | set(exempt)]
    if errs:
        raise ConfigurationError("; ".join(errs))
    if plant_id in _ENVS:
        required, builder = _ENVS[plant_id][:2]
        if reference_id != required:
            raise ConfigurationError(
                f"experiment.reference: the {plant_id} plant requires the "
                f"{required!r} reference")
        return builder(plant_params or {}, reference_params or {})
    errs = []
    if plant_id not in _PLANTS:
        errs.append(f"experiment.plant: unknown id {plant_id!r}; "
                    f"known: {plant_names()}")
    if reference_id not in _REFERENCES:
        errs.append(f"experiment.reference: unknown id {reference_id!r}; "
                    f"known: {reference_names()}")
    if errs:
        raise ConfigurationError("; ".join(errs))
    plant = make_plant(plant_id, plant_params)
    x0 = param(plant_params or {}, "plant", "x0", None, _vector)
    if x0 is not None and x0.shape != (plant.n,):
        raise ConfigurationError(
            f"plant.x0: need {plant.n} entries for this plant, got {x0.size}")
    return AugmentedTrackingEnv(plant, make_reference(reference_id,
                                                      reference_params), x0=x0)


def plant_names():
    return sorted([*_PLANTS, *_ENVS])


def reference_names():
    return sorted(_REFERENCES)


def parse_floats(text: str) -> np.ndarray:
    """'1.0 2.0' or '1.0, 2.0' -> array([1.0, 2.0])."""
    return np.array([float(tok) for tok in text.replace(",", " ").split()])


def param(params: dict, section: str, key: str, default, cast=float):
    """`params[key]` through `cast`, or `default` when the key is absent.

    A malformed or non-finite value raises ConfigurationError naming
    `section.key`.
    """
    if key not in params:
        return default
    try:
        value = cast(params[key])
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"{section}.{key}: {exc}") from None
    if not np.isfinite(value).all():
        raise ConfigurationError(
            f"{section}.{key}: must be finite, got {params[key]!r}")
    return value


def _dimension(value) -> int:
    n = int(value)
    if n < 1:
        raise ValueError(f"must be >= 1, got {n}")
    return n


def _vector(value) -> np.ndarray:
    return parse_floats(value) if isinstance(value, str) else \
        np.asarray(value, dtype=float)


@register_plant("linear_osc", keys=("omega", "gain"))
def _linear_osc(params):
    omega = param(params, "plant", "omega", 0.5)
    gain = param(params, "plant", "gain", 1.0)
    return AffinePlant(A=np.array([[0.0, omega], [-omega, 0.0]]),
                       B=np.array([[0.0], [gain]]), name="linear_osc")


@register_plant("zero", keys=("n", "m"))
def _zero_plant(params):
    n = param(params, "plant", "n", 1, _dimension)
    m = param(params, "plant", "m", 1, _dimension)
    return AffinePlant(A=np.zeros((n, n)), B=np.zeros((n, m)), name="zero")


@register_plant("integrator", keys=("n",))
def _integrator(params):
    n = param(params, "plant", "n", 1, _dimension)
    return AffinePlant(A=np.zeros((n, n)), B=np.eye(n), name="integrator")


@register_reference("zero", keys=("n",))
def _zero_ref(params):
    n = param(params, "reference", "n", 1, _dimension)
    return ReferenceModel(H=np.zeros((n, n)), x_d0=np.zeros(n), name="zero")


@register_reference("harmonic", keys=("omega", "x_d0"))
def _harmonic_ref(params):
    omega = param(params, "reference", "omega", 0.5)
    x0 = param(params, "reference", "x_d0", (1.0, 0.0), _vector)
    if np.shape(x0) != (2,):
        raise ConfigurationError(
            f"reference.x_d0: need 2 entries, got {np.size(x0)}")
    return ReferenceModel(H=np.array([[0.0, omega], [-omega, 0.0]]),
                          x_d0=np.asarray(x0, dtype=float), name="harmonic")


@register_env("aerosonde", reference="attitude_schedule",
              plant_keys=("va_m_s", "altitude_m"),
              reference_keys=("setpoints_deg",))
def _aerosonde(plant_params, reference_params):
    from .benchmarks.uav import make_uav_env
    return make_uav_env(plant_params, reference_params)
