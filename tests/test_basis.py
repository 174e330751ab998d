import numpy as np
import pytest

from irltrack.basis import fd_gradient, quad_basis
from irltrack.errors import ConfigurationError


def test_feature_count_27_at_dim6():
    assert quad_basis(6).n_features == 27


def test_feature_count_formula_dims_1_to_8():
    for d in range(1, 9):
        assert quad_basis(d).n_features == 2 * d + d * (d - 1) // 2


def test_hand_expansion_dim2():
    b = quad_basis(2)
    assert np.allclose(b.eval(np.array([1.0, 2.0])), [1.0, 2.0, 1.0, 4.0, 2.0])


def test_zero_input_gives_zero_features():
    for d in (1, 3, 6):
        assert np.all(quad_basis(d).eval(np.zeros(d)) == 0.0)


def test_feature_order_is_linear_squares_pairs():
    b = quad_basis(3)
    z = np.array([2.0, 3.0, 5.0])
    expected = [2, 3, 5, 4, 9, 25, 6, 10, 15]  # z, z^2, z1z2, z1z3, z2z3
    assert np.allclose(b.eval(z), expected)


def test_gradient_analytic_rows():
    b = quad_basis(2)
    g = b.grad(np.array([1.0, 2.0]))
    assert np.allclose(g[4], [2.0, 1.0])  # z1*z2 row
    g0 = b.grad(np.zeros(2))
    assert np.allclose(g0[:2], np.eye(2))  # linear rows are unit vectors
    assert np.all(g0[2:] == 0.0)  # square/product rows vanish at 0


def test_gradient_matches_finite_differences(rng):
    b = quad_basis(6)
    for _ in range(50):
        z = rng.uniform(-2, 2, 6)
        an = b.grad(z)
        fd = fd_gradient(b, z)
        assert np.max(np.abs(fd - an)) / (1e-9 + np.max(np.abs(an))) <= 1e-6


def test_blockwise_homogeneity(rng):
    b = quad_basis(4)
    d = 4
    for _ in range(20):
        z = rng.normal(size=d)
        c = float(rng.uniform(0.2, 3.0))
        f1, fc = b.eval(z), b.eval(c * z)
        assert np.allclose(fc[:d], c * f1[:d], rtol=1e-12)
        assert np.allclose(fc[d:], c * c * f1[d:], rtol=1e-12)


def test_zero_dimension_is_rejected():
    with pytest.raises(ConfigurationError):
        quad_basis(0)


@pytest.mark.parametrize("d", [1, 2, 4, 6])
def test_row_maps_equal_the_single_maps_row_by_row(rng, d):
    """Bit for bit, NaN payloads too, also on rows that mix +-0.0,
    subnormals, +-inf, NaN and magnitudes of 1e+-150."""
    b = quad_basis(d)
    special = rng.choice([0.0, -0.0, 5e-324, -5e-324, 1e-310, np.inf, -np.inf,
                          np.nan, 1e150, -1e150, 1e-150, -1e-150], size=(300, d))
    Z = np.concatenate([rng.normal(size=(5, d)),
                        np.where(rng.random((300, d)) < 0.7, special,
                                 rng.normal(size=(300, d)))])
    Z[1] = np.resize([0.0, -0.0, 1e-300, 0.3, -0.3, 30.0, -30.0], d)
    with np.errstate(all="ignore"):
        theta, grad = b.eval_rows(Z), b.grad_rows(Z)
        assert theta.shape == (len(Z), b.n_features)
        assert grad.shape == (len(Z), b.n_features, d)
        for i, z in enumerate(Z):
            assert theta[i].tobytes() == b.eval(z).tobytes(), z
            assert grad[i].tobytes() == b.grad(z).tobytes(), z

