from functools import partial

import numpy as np
import pytest

from irltrack import catalog
from irltrack.errors import ConfigurationError
from irltrack.learner import LearnerConfig
from irltrack.models import AffinePlant, ReferenceModel
from irltrack.policy import SaturationSpec
from irltrack.sim import AugmentedTrackingEnv


def scalar_pair():
    plant = AffinePlant(A=np.zeros((1, 1)), B=np.ones((1, 1)), name="hold")
    ref = ReferenceModel(H=np.ones((1, 1)), x_d0=np.array([2.0]), name="drift")
    return plant, ref


def test_augment_block_structure_hand_case():
    # B=1 at z=[1,2]: G = [1, 0]
    plant, ref = scalar_pair()
    env = AugmentedTrackingEnv(plant, ref)
    z = np.array([1.0, 2.0])
    assert np.allclose(env.G(z).ravel(), [1.0, 0.0])


def test_augment_origin_trivial():
    plant = AffinePlant(A=-np.ones((1, 1)), B=np.ones((1, 1)), name="decay")
    ref = ReferenceModel(H=np.zeros((1, 1)), x_d0=np.zeros(1), name="zero")
    env = AugmentedTrackingEnv(plant, ref)
    assert np.allclose(env.z(), 0.0)
    assert np.allclose(env.G(env.z()).ravel(), [1.0, 0.0])


def test_augment_lower_rows_of_G_are_zero():
    n, m = 3, 2
    plant = AffinePlant(A=np.zeros((n, n)),
                        B=np.arange(n * m, dtype=float).reshape(n, m) + 1,
                        name="p")
    assert (plant.n, plant.m) == (n, m)
    ref = ReferenceModel(H=np.zeros((n, n)), x_d0=np.zeros(n), name="r")
    env = AugmentedTrackingEnv(plant, ref)
    rng = np.random.default_rng(0)
    for _ in range(5):
        G = env.G(rng.normal(size=2 * n))
        assert G.shape == (2 * n, m)
        assert np.array_equal(G[:n], plant.B) and np.all(G[n:, :] == 0.0)


def test_reference_autonomy(rng):
    """The reference after a step is bitwise independent of x and u."""
    plant = AffinePlant(A=np.array([[0.0, 1.0], [-1.0, -0.3]]),
                        B=np.array([[0.0], [1.0]]), name="p")
    H = np.array([[0.0, 0.4], [-0.4, 0.0]])
    ref = ReferenceModel(H=H, x_d0=np.array([1.0, 0.0]), name="r")
    after = []
    for _ in range(4):
        env = AugmentedTrackingEnv(plant, ref, x0=rng.normal(size=2))
        env.advance(rng.normal(size=1), 0.0, 0.01)
        after.append(env.x_d.tobytes())
    assert len(set(after)) == 1


def test_augment_deterministic_bitwise():
    plant, ref = scalar_pair()
    env = AugmentedTrackingEnv(plant, ref)
    z = np.array([0.3, -1.7])
    assert env.G(z).tobytes() == env.G(z).tobytes()


def test_dimension_mismatch_is_config_error():
    plant, _ = scalar_pair()
    ref2 = ReferenceModel(H=np.zeros((2, 2)), x_d0=np.zeros(2), name="r2")
    with pytest.raises(ConfigurationError, match="has n=1 but reference 'r2' "
                       "has dimension 2"):
        AugmentedTrackingEnv(plant, ref2)


# each model is built inside `pytest.raises`: it checks itself when built
@pytest.mark.parametrize("model, message", [
    (partial(AffinePlant, A=np.zeros((2, 3)), B=np.zeros((2, 1)), name="p"),
     r"plant 'p': A has shape \(2, 3\) and B \(2, 1\)"),
    (partial(AffinePlant, A=np.zeros((2, 2)), B=np.zeros(2), name="p"),
     r"plant 'p': A has shape \(2, 2\) and B \(2,\)"),
    (partial(AffinePlant, A=np.zeros((2, 2)), B=np.zeros((3, 1)), name="p"),
     r"B \(3, 1\), expected \(n, n\) and \(n, m\)"),
    (partial(AffinePlant, A=np.zeros((2, 2)), B=np.zeros((2, 0)), name="p"),
     r"B \(2, 0\)"),
    (partial(AffinePlant, A=np.eye(1) * np.inf, B=np.ones((1, 1)), name="p"),
     "plant 'p': non-finite A or B"),
    (partial(ReferenceModel, H=np.zeros((2, 2)), x_d0=np.zeros(3), name="r"),
     r"reference 'r': H has shape \(2, 2\) and x_d0 \(3,\)"),
    (partial(ReferenceModel, H=np.zeros((1, 1)), x_d0=np.array([np.nan]), name="r"),
     "reference 'r': non-finite H or x_d0"),
    (partial(AffinePlant, A=np.full((1, 1), np.nan), B=np.ones((1, 1)), name="p"),
     "plant 'p': non-finite A or B"),
])
def test_validate_names_a_bad_shape_or_entry(model, message):
    with pytest.raises(ConfigurationError, match=message):
        model()


def test_registered_bad_plant_is_rejected_by_make_env():
    """A builder registered the catalog way cannot hand a bad plant to
    `make_env`: the plant rejects itself when the builder builds it."""
    @catalog.register_plant("test_bad_shapes")
    def _bad(params):
        return AffinePlant(A=np.zeros((2, 2)), B=np.zeros((3, 1)), name="bad")

    try:
        with pytest.raises(ConfigurationError, match=r"plant 'bad': A has "
                           r"shape \(2, 2\) and B \(3, 1\)"):
            catalog.make_env("test_bad_shapes", "zero", {}, {"n": "2"})
    finally:
        catalog._PLANTS.pop("test_bad_shapes", None)


def learner(Q1, sat):
    return LearnerConfig(alpha=1.0, gamma=0.1, T=0.01, Q1=Q1, sat=sat)


# each pair differs in one array field; a multi-entry array there made the
# generated __eq__ raise "truth value of an array ... is ambiguous". The
# records compare by identity: a record equals itself, and neither an
# equal-valued twin nor a record differing by value
@pytest.mark.parametrize("build, other", [
    (partial(SaturationSpec, 1.0, np.ones(2)),
     partial(SaturationSpec, 1.0, np.array([1.0, 2.0]))),
    (partial(AffinePlant, np.eye(2), np.ones((2, 1)), "p"),
     partial(AffinePlant, np.eye(2), np.zeros((2, 1)), "p")),
    (partial(ReferenceModel, np.eye(2), np.ones(2), "r"),
     partial(ReferenceModel, np.eye(2), np.array([1.0, 0.0]), "r")),
    (partial(learner, np.eye(2), SaturationSpec(1.0, np.ones(2))),
     partial(learner, np.eye(2), SaturationSpec(1.0, np.full(2, 2.0)))),
    (partial(learner, np.eye(2), SaturationSpec(1.0, np.ones(2))),
     partial(learner, np.diag([1.0, 0.0]), SaturationSpec(1.0, np.ones(2)))),
])
def test_models_with_arrays_compare_by_value(build, other):
    a = build()
    assert a == a and not a != a
    assert build() != build() and not build() == build()
    assert build() != other() and not build() == other()


# each pair is equal by value: an entry -0.0 against 0.0, or the same
# entries in a new array; the generated __hash__ raised "unhashable type".
# The records hash by identity, so the two are distinct dict keys
@pytest.mark.parametrize("build, other", [
    (partial(SaturationSpec, 1.0, np.ones(2)),
     partial(SaturationSpec, 1.0, np.array([1.0, 1.0]))),
    (partial(AffinePlant, np.eye(2), np.zeros((2, 1)), "p"),
     partial(AffinePlant, np.eye(2), np.full((2, 1), -0.0), "p")),
    (partial(ReferenceModel, -np.zeros((2, 2)), np.ones(2), "r"),
     partial(ReferenceModel, np.zeros((2, 2)), np.ones(2), "r")),
    (partial(learner, np.diag([1.0, 0.0]), SaturationSpec(1.0, np.ones(2))),
     partial(learner, np.diag([1.0, -0.0]), SaturationSpec(1.0, np.ones(2)))),
])
def test_equal_models_hash_alike_and_key_a_dict(build, other):
    a, b = build(), other()
    assert a != b and hash(a) == hash(a) and isinstance(hash(b), int)
    keyed = {a: "first", b: "second"}
    assert len(keyed) == 2 and keyed[a] == "first" and keyed[b] == "second"
