"""Per-row arrays and row-wise products for the step loop's batch axis.

One row takes the 1-D `@`; several take a stacked `np.matmul`, which makes
the same BLAS call per row, so a row's numbers never depend on its batch.
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
    return (a[0] @ b[0])[None] if len(a) == 1 else \
        np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def mv(M, v):
    """M v of (B, p, q) and (B, q) rows."""
    return (M[0] @ v[0])[None] if len(M) == 1 else np.matmul(M, v[:, :, None])[:, :, 0]


def vm(v, M):
    """v M, that is M^T v, of (B, p) and (B, p, q) rows."""
    return (v[0] @ M[0])[None] if len(M) == 1 else np.matmul(v[:, None, :], M)[:, 0, :]


def quad(v, M):
    """v M v, the quadratic form, of (B, p) and (B, p, p) rows."""
    return (v[0] @ M[0] @ v[0])[None] if len(M) == 1 else dot(vm(v, M), v)
