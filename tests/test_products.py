"""The one-row loop's products against the batched loop's, bit for bit.

`_run_one`, `CriticRow.update` and `AugmentedTrackingEnv.advance` compute
each product with `ndarray.dot`, or with the 1-D `@` where it contracts
over the control channels; `_run_rows` and `CriticRows.update` stack
`np.matmul` (`rows.dot`, `mv`, `vm`).  `PRODUCTS` holds each lone product
beside its batched row, on the loops' shapes, and every draw must give
the same bits, for operands that mix +-0.0, subnormals, +-inf, NaN and
magnitudes of 1e+-150; a NaN compares by position.  At one control
channel `.dot` flips the sign of a zero that matmul does not, so the
products over the channels keep `@`, and a test shows the flip.
"""
import numpy as np
import pytest

from irltrack.learner import m_vector
from irltrack.rows import dot, mv, quad, vm

# (d, n1, m): the linear benchmark's z, features and controls, and the UAV's
SHAPES = [(4, 14, 1), (6, 27, 3)]
DRAWS = 600
SPECIAL = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, np.inf, -np.inf,
                    np.nan, 1e150, -1e150, 1e-150, -1e-150])


def draw(rng, shape):
    """DRAWS operands of `shape`, stacked: normal entries over six decades,
    a share of them (none to most, per draw) replaced by special values."""
    x = rng.normal(size=(DRAWS, *shape)) * 10.0 ** rng.integers(-3, 3, (DRAWS, *shape))
    share = rng.choice([0.0, 0.05, 0.2, 0.6], DRAWS).reshape(-1, *[1] * len(shape))
    pick = rng.random(x.shape) < share
    x[pick] = rng.choice(SPECIAL, int(pick.sum()))
    return x


def same_bits(a, b) -> bool:
    """Equal bit for bit, a NaN by position only."""
    a, b = np.asarray(a), np.asarray(b)
    nan = np.isnan(a)
    return a.shape == b.shape and np.array_equal(nan, np.isnan(b)) and \
        a[~nan].tobytes() == b[~nan].tobytes()


def products(d, n1, m):
    """name -> (operand shapes, the lone loop's product, its batched row)."""
    return {
        # `_run_one`
        "tau2: W grad G": ([(n1,), (n1, d), (d, m)],
                           lambda W, grad, G: W.dot(grad).dot(G),
                           lambda W, grad, G: vm(vm(W, grad), G)),
        "cost: z Q1 z": ([(d,), (d, d)], lambda z, Q1: z.dot(Q1).dot(z), quad),
        "ndg: grad G": ([(n1, d), (d, m)], lambda grad, G: grad.dot(G), np.matmul),
        # W . M, W . theta, and `CriticRow.update`'s W . d, d . d, phi . W
        "n1-vector dot": ([(n1,), (n1,)], lambda a, b: a.dot(b), dot),
        "Sigma: z . (z - z_prev)": ([(d,), (d,)], lambda a, b: a.dot(b), dot),
        # `CriticRow.update`'s stabilizer
        "z G": ([(d,), (d, m)], lambda z, G: z.dot(G), vm),
        "ndg v": ([(n1, m), (m,)], lambda ndg, v: ndg @ v, mv),
        # `AugmentedTrackingEnv.advance`
        "Phi s": ([(d, d), (d,)], lambda Phi, s: Phi.dot(s), mv),
        "Gamma u": ([(d, m), (m,)], lambda Gamma, u: Gamma @ u, mv),
    }


@pytest.mark.parametrize("d, n1, m", SHAPES)
def test_each_lone_product_has_its_batched_rows_bits(d, n1, m):
    rng = np.random.default_rng(d)
    for name, (shapes, lone, batched) in products(d, n1, m).items():
        ops = [draw(rng, shape) for shape in shapes]
        with np.errstate(all="ignore"):
            rows = batched(*ops)
            for i in range(DRAWS):
                assert same_bits(lone(*(op[i] for op in ops)), rows[i]), (name, i)


@pytest.mark.parametrize("d, n1, m", SHAPES)
def test_m_vector_of_one_row_has_its_batched_rows_bits(d, n1, m):
    rng = np.random.default_rng(n1)
    ndg, tau = draw(rng, (n1, m)), draw(rng, (m,))
    th, u_m = np.tanh(tau), 56.0
    with np.errstate(all="ignore"):
        rows = m_vector(ndg, th, tau, np.full((DRAWS, 1), u_m))
        for i in range(DRAWS):
            assert same_bits(m_vector(ndg[i], th[i], tau[i], u_m), rows[i]), i


def test_dot_over_one_control_channel_flips_a_zero():
    """At m = 1 the products over the channels contract over one entry,
    where matmul returns 0.0 + a b and `.dot` returns a b: the draws hold
    a b = -0.0, where `.dot` misses the batched row's bits, so these
    products keep `@`."""
    rng = np.random.default_rng(1)
    d, n1, m = SHAPES[0]
    for M, v in ((draw(rng, (d, m)), draw(rng, (m,))),      # Gamma u
                 (draw(rng, (n1, m)), draw(rng, (m,)))):    # ndg v
        with np.errstate(all="ignore"):
            rows = mv(M, v)
            flips = sum(not same_bits(M[i].dot(v[i]), rows[i]) for i in range(DRAWS))
            kept = all(same_bits(M[i] @ v[i], rows[i]) for i in range(DRAWS))
        assert flips > 0 and kept
