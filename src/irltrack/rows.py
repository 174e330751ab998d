"""Per-row arrays and row-wise products for the batched step loop.

Each product is a stacked `np.matmul`, which makes the same BLAS call per
row as the one-row loop's `ndarray.dot`, so a row's numbers never depend
on its batch.  The products that contract over the control channels
(Gamma u, and the ndg products of `m_vector` and the stabilizer) stay the
1-D `@` in the one-row loop: at m = 1 matmul takes its non-BLAS loop and
returns 0.0 + a b, which is 0.0 where `.dot` returns a b = -0.0.
"""
from types import SimpleNamespace

import numpy as np


class Rows(SimpleNamespace):
    """Per-row arrays as attributes, batch axis first."""

    def keep(self, mask: np.ndarray):
        """Drop the rows `mask` clears from every array attribute."""
        for name, value in vars(self).items():
            if isinstance(value, np.ndarray):
                setattr(self, name, value[mask])


def dot(a, b):
    """a . b of (B, k) rows."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def mv(M, v):
    """M v of (B, p, q) and (B, q) rows."""
    return np.matmul(M, v[:, :, None])[:, :, 0]


def vm(v, M):
    """v M, that is M^T v, of (B, p) and (B, p, q) rows."""
    return np.matmul(v[:, None, :], M)[:, 0, :]


def quad(v, M):
    """v M v, the quadratic form, of (B, p) and (B, p, p) rows."""
    return dot(vm(v, M), v)
