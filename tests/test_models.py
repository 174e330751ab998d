import numpy as np
import pytest

from irltrack.errors import ConfigurationError
from irltrack.models import AffinePlant, ReferenceModel
from irltrack.sim import AugmentedTrackingEnv


def scalar_pair():
    plant = AffinePlant(n=1, m=1, f=lambda x: np.zeros(1),
                        g=lambda x: np.ones((1, 1)), name="hold").validate()
    ref = ReferenceModel(H=lambda xd: 1.0 * xd, x_d0=np.array([2.0]),
                         name="drift").validate()
    return plant, ref


def test_augment_block_structure_hand_case():
    # g=1 at z=[1,2]: G = [1, 0]
    plant, ref = scalar_pair()
    env = AugmentedTrackingEnv(plant, ref)
    z = np.array([1.0, 2.0])
    assert np.allclose(env.G(z).ravel(), [1.0, 0.0])


def test_augment_origin_trivial():
    plant = AffinePlant(n=1, m=1, f=lambda x: -x, g=lambda x: np.ones((1, 1)),
                        name="decay").validate()
    ref = ReferenceModel(H=lambda xd: np.zeros(1), x_d0=np.zeros(1),
                         name="zero").validate()
    env = AugmentedTrackingEnv(plant, ref)
    assert np.allclose(env.z(), 0.0)
    assert np.allclose(env.G(env.z()).ravel(), [1.0, 0.0])


def test_augment_lower_rows_of_G_are_zero():
    n, m = 3, 2
    plant = AffinePlant(n=n, m=m, f=lambda x: np.zeros(n),
                        g=lambda x: np.arange(n * m, dtype=float).reshape(n, m) + 1,
                        name="p").validate()
    ref = ReferenceModel(H=lambda xd: np.zeros(n), x_d0=np.zeros(n),
                         name="r").validate()
    env = AugmentedTrackingEnv(plant, ref)
    rng = np.random.default_rng(0)
    for _ in range(5):
        G = env.G(rng.normal(size=2 * n))
        assert G.shape == (2 * n, m)
        assert np.all(G[n:, :] == 0.0)


def test_G_reads_the_plant_state():
    # g(x) = diag(x) at x = e + xd
    n = 2
    plant = AffinePlant(n=n, m=n, f=lambda x: np.zeros(n),
                        g=lambda x: np.diag(x), name="p").validate()
    ref = ReferenceModel(H=lambda xd: np.zeros(n), x_d0=np.zeros(n),
                         name="r").validate()
    G = AugmentedTrackingEnv(plant, ref).G(np.array([1.0, -2.0, 0.5, 3.0]))
    assert np.array_equal(G, [[1.5, 0.0], [0.0, 1.0], [0.0, 0.0], [0.0, 0.0]])


def test_reference_autonomy(rng):
    """The reference after a step is bitwise independent of x and u."""
    plant = AffinePlant(n=2, m=1, f=lambda x: np.array([x[1], -x[0] ** 3]),
                        g=lambda x: np.array([[0.0], [1.0]]), name="p").validate()
    H = np.array([[0.0, 0.4], [-0.4, 0.0]])
    ref = ReferenceModel(H=lambda xd: H @ xd, x_d0=np.array([1.0, 0.0]),
                         name="r").validate()
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
    ref2 = ReferenceModel(H=lambda xd: np.zeros(2), x_d0=np.zeros(2), name="r2")
    with pytest.raises(ConfigurationError, match="has n=1 but reference 'r2' "
                       "has dimension 2"):
        AugmentedTrackingEnv(plant, ref2)


def test_reference_H0_validated():
    bad = ReferenceModel(H=lambda xd: xd + 1.0, x_d0=np.zeros(1), name="bad")
    with pytest.raises(ConfigurationError):
        bad.validate()
