"""The one-row loop's products against the batched loop's, bit for bit.

`_run_one`, `CriticRow.update` and `AugmentedTrackingEnv.advance` compute
each product with `ndarray.dot`, or with the 1-D `@` where it contracts
over the control channels; `_run_rows` and `CriticRows.update` call
numpy's stacked gufuncs (`np.vecdot`, `np.matvec`, `np.vecmat`,
`np.matmul`).  `products` holds each lone product beside its batched
form, on the loops' shapes, and every draw must give the same bits, for
operands that mix +-0.0, subnormals, +-inf, NaN and magnitudes of
1e+-150; a NaN compares by position.  The draws are stacked whole and in
the batch sizes the loops run (`BATCHES`).  At one control channel `.dot`
flips the sign of a zero that the gufuncs do not, so the products over
the channels keep `@`, and a test shows the flip.
"""
import numpy as np
import pytest

from irltrack.learner import m_vector

# (d, n1, m): the linear benchmark's z, features and controls, and the UAV's
SHAPES = [(4, 14, 1), (6, 27, 3)]
DRAWS = 600
# stack sizes of the batched forms: the loops' batch sizes, and every draw
BATCHES = (1, 2, 4, DRAWS)
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


def stacked(batched, ops, B):
    """`batched` over the draws of `ops` in stacks of B rows, concatenated."""
    return np.concatenate([batched(*(op[lo:lo + B] for op in ops))
                           for lo in range(0, DRAWS, B)])


def products(d, n1, m):
    """name -> (operand shapes, the lone loop's product, its batched row)."""
    return {
        # `_run_one`
        "tau2: W grad G": ([(n1,), (n1, d), (d, m)],
                           lambda W, grad, G: W.dot(grad).dot(G),
                           lambda W, grad, G: np.vecmat(np.vecmat(W, grad), G)),
        "cost: z Q1 z": ([(d,), (d, d)], lambda z, Q1: z.dot(Q1).dot(z),
                         lambda z, Q1: np.vecdot(np.vecmat(z, Q1), z)),
        "ndg: grad G": ([(n1, d), (d, m)], lambda grad, G: grad.dot(G), np.matmul),
        # W . M, W . theta, and `CriticRow.update`'s W . d, d . d, phi . W
        "n1-vector dot": ([(n1,), (n1,)], lambda a, b: a.dot(b), np.vecdot),
        "Sigma: z . (z - z_prev)": ([(d,), (d,)], lambda a, b: a.dot(b), np.vecdot),
        # `CriticRow.update`'s stabilizer
        "z G": ([(d,), (d, m)], lambda z, G: z.dot(G), np.vecmat),
        "ndg v": ([(n1, m), (m,)], lambda ndg, v: ndg @ v, np.matvec),
        # `AugmentedTrackingEnv.advance`
        "Phi s": ([(d, d), (d,)], lambda Phi, s: Phi.dot(s), np.matvec),
        "Gamma u": ([(d, m), (m,)], lambda Gamma, u: Gamma @ u, np.matvec),
    }


@pytest.mark.parametrize("d, n1, m", SHAPES)
def test_each_lone_product_has_its_batched_rows_bits(d, n1, m):
    rng = np.random.default_rng(d)
    for name, (shapes, lone, batched) in products(d, n1, m).items():
        ops = [draw(rng, shape) for shape in shapes]
        with np.errstate(all="ignore"):
            lones = [lone(*(op[i] for op in ops)) for i in range(DRAWS)]
            for B in BATCHES:
                rows = stacked(batched, ops, B)
                for i in range(DRAWS):
                    assert same_bits(lones[i], rows[i]), (name, B, i)


@pytest.mark.parametrize("d, n1, m", SHAPES)
def test_m_vector_of_one_row_has_its_batched_rows_bits(d, n1, m):
    rng = np.random.default_rng(n1)
    ndg, tau = draw(rng, (n1, m)), draw(rng, (m,))
    th, u_m = np.tanh(tau), 56.0
    with np.errstate(all="ignore"):
        lones = [m_vector(ndg[i], th[i], tau[i], u_m) for i in range(DRAWS)]
        for B in BATCHES:
            rows = stacked(lambda *ops: m_vector(*ops, np.full((len(ops[0]), 1), u_m)),
                           (ndg, th, tau), B)
            for i in range(DRAWS):
                assert same_bits(lones[i], rows[i]), (B, i)


def test_dot_over_one_control_channel_flips_a_zero():
    """At m = 1 the products over the channels contract over one entry,
    where `np.matvec` returns 0.0 + a b and `.dot` returns a b: the draws
    hold a b = -0.0, where `.dot` misses the batched row's bits, so these
    products keep `@`."""
    rng = np.random.default_rng(1)
    d, n1, m = SHAPES[0]
    for M, v in ((draw(rng, (d, m)), draw(rng, (m,))),      # Gamma u
                 (draw(rng, (n1, m)), draw(rng, (m,)))):    # ndg v
        with np.errstate(all="ignore"):
            rows = np.matvec(M, v)
            flips = sum(not same_bits(M[i].dot(v[i]), rows[i]) for i in range(DRAWS))
            kept = all(same_bits(M[i] @ v[i], rows[i]) for i in range(DRAWS))
        assert flips > 0 and kept
