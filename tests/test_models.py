import numpy as np
import pytest

from irltrack.errors import ConfigurationError, NumericFault
from irltrack.models import (AffinePlant, ReferenceModel, augment,
                             eval_augmented)


def scalar_pair():
    plant = AffinePlant(n=1, m=1, f=lambda x: np.zeros(1),
                        g=lambda x: np.ones((1, 1)), name="hold").validate()
    ref = ReferenceModel(H=lambda xd: 1.0 * xd, x_d0=np.array([2.0]),
                         name="drift").validate()
    return plant, ref


def test_augment_block_structure_hand_case():
    # f=0, g=1, H(xd)=xd at z=[1,2]: F = [-2, 2], G = [1, 0]
    plant, ref = scalar_pair()
    dyn = augment(plant, ref)
    z = np.array([1.0, 2.0])
    assert np.allclose(dyn.F(z), [-2.0, 2.0])
    assert np.allclose(dyn.G(z).ravel(), [1.0, 0.0])


def test_augment_origin_trivial():
    plant = AffinePlant(n=1, m=1, f=lambda x: -x, g=lambda x: np.ones((1, 1)),
                        name="decay").validate()
    ref = ReferenceModel(H=lambda xd: np.zeros(1), x_d0=np.zeros(1),
                         name="zero").validate()
    dyn = augment(plant, ref)
    z = np.zeros(2)
    assert np.allclose(dyn.F(z), 0.0)
    assert np.allclose(dyn.G(z).ravel(), [1.0, 0.0])


def test_augment_lower_rows_of_G_are_zero():
    n, m = 3, 2
    plant = AffinePlant(n=n, m=m, f=lambda x: np.zeros(n),
                        g=lambda x: np.arange(n * m, dtype=float).reshape(n, m) + 1,
                        name="p").validate()
    ref = ReferenceModel(H=lambda xd: np.zeros(n), x_d0=np.zeros(n),
                         name="r").validate()
    dyn = augment(plant, ref)
    rng = np.random.default_rng(0)
    for _ in range(5):
        G = dyn.G(rng.normal(size=2 * n))
        assert G.shape == (2 * n, m)
        assert np.all(G[n:, :] == 0.0)


def test_eval_augmented_cases():
    plant, ref = scalar_pair()
    dyn = augment(plant, ref)
    z = np.array([1.0, 2.0])
    assert np.allclose(eval_augmented(dyn, z, np.zeros(1)), dyn.F(z))
    assert np.allclose(eval_augmented(dyn, z, np.array([1.0])), [-1.0, 2.0])
    # equilibrium at the origin with zero control
    plant0 = AffinePlant(n=1, m=1, f=lambda x: np.zeros(1),
                         g=lambda x: np.ones((1, 1)), name="p0").validate()
    ref0 = ReferenceModel(H=lambda xd: np.zeros(1), x_d0=np.zeros(1),
                          name="r0").validate()
    dyn0 = augment(plant0, ref0)
    assert np.allclose(eval_augmented(dyn0, np.zeros(2), np.zeros(1)), 0.0)


def test_eval_augmented_nonfinite_faults():
    plant = AffinePlant(n=1, m=1, f=lambda x: np.array([np.inf]),
                        g=lambda x: np.ones((1, 1)), name="bad")
    ref = ReferenceModel(H=lambda xd: np.zeros(1), x_d0=np.zeros(1), name="r")
    dyn = augment(plant, ref)
    with pytest.raises(NumericFault) as exc:
        eval_augmented(dyn, np.zeros(2), np.zeros(1))
    assert exc.value.component == 0


def test_reference_autonomy(rng):
    """Lower half of the stacked derivative depends only on x_d."""
    plant = AffinePlant(n=2, m=1, f=lambda x: np.array([x[1], -x[0] ** 3]),
                        g=lambda x: np.array([[0.0], [1.0]]), name="p").validate()
    H = np.array([[0.0, 0.4], [-0.4, 0.0]])
    ref = ReferenceModel(H=lambda xd: H @ xd, x_d0=np.array([1.0, 0.0]),
                         name="r").validate()
    dyn = augment(plant, ref)
    xd = rng.normal(size=2)
    u = rng.normal(size=1)
    lowers = []
    for _ in range(4):
        z = np.concatenate([rng.normal(size=2), xd])
        lowers.append(eval_augmented(dyn, z, u)[2:])
    assert all(np.array_equal(lowers[0], lo) for lo in lowers[1:])


def test_augment_deterministic_bitwise():
    plant, ref = scalar_pair()
    dyn = augment(plant, ref)
    z = np.array([0.3, -1.7])
    a = dyn.F(z).tobytes() + dyn.G(z).tobytes()
    b = dyn.F(z).tobytes() + dyn.G(z).tobytes()
    assert a == b


def test_dimension_mismatch_is_config_error():
    plant, _ = scalar_pair()
    ref2 = ReferenceModel(H=lambda xd: np.zeros(2), x_d0=np.zeros(2), name="r2")
    with pytest.raises(ConfigurationError):
        augment(plant, ref2)


def test_reference_H0_validated():
    bad = ReferenceModel(H=lambda xd: xd + 1.0, x_d0=np.zeros(1), name="bad")
    with pytest.raises(ConfigurationError):
        bad.validate()
