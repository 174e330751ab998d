"""The critic's value-function regressors and their gradients.

The critic has one basis, the full quadratic polynomial without constant term:
linear monomials, squares, then pairwise products in lexicographic order.
For input dimension d it has ``2d + d(d-1)/2`` features (27 at d = 6).
`eval_rows` and `grad_rows` map every row of a (B, d) array, for the
batched step loop; `eval` and `grad` map one 1-D z, for the one-row loop:
`eval` gathers two factors per feature from [z, 1.0] and multiplies them
(z_i 1.0, z_i z_i, z_i z_j), and `grad` writes the same products into a
copy of one gradient's linear rows, so each row has the bits of its 1-D
map.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigurationError


@dataclass(frozen=True)
class RegressorBasis:
    dim_in: int
    n_features: int
    eval: Callable[[np.ndarray], np.ndarray]        # (d,) -> (n1,)
    grad: Callable[[np.ndarray], np.ndarray]        # (d,) -> (n1, d)
    eval_rows: Callable[[np.ndarray], np.ndarray]   # (B, d) -> (B, n1)
    grad_rows: Callable[[np.ndarray], np.ndarray]   # (B, d) -> (B, n1, d)


def quad_feature_count(dim_in: int) -> int:
    return 2 * dim_in + dim_in * (dim_in - 1) // 2


def quad_basis(dim_in: int) -> RegressorBasis:
    """Quadratic basis: z_1..z_d, z_1^2..z_d^2, then z_i z_j for i < j."""
    if dim_in < 1:
        raise ConfigurationError(f"basis dimension must be >= 1, got {dim_in}")
    d = dim_in
    pi, pj = np.triu_indices(d, 1)   # the pairs i < j, row by row
    n1 = quad_feature_count(d)
    ar = np.arange(d)
    ap = np.arange(len(pi))
    # flat positions of the z-dependent entries, the z component each one
    # copies, and its factor: 2 z_i on the squares, z_j and z_i on the pairs
    flat = np.concatenate([(d + ar) * d + ar, (2 * d + ap) * d + pi,
                           (2 * d + ap) * d + pj])
    src = np.concatenate([ar, pj, pi])
    factor = np.concatenate([np.full(d, 2.0), np.ones(2 * len(pi))])
    linear = np.zeros(n1 * d)
    linear[:d * d:d + 1] = 1.0    # the linear rows of one gradient
    # `eval`'s factors, gathered from [z, 1.0]: z_i 1.0, z_i z_i, z_i z_j
    zx = np.ones(d + 1)
    left = np.concatenate([ar, ar, pi])
    right = np.concatenate([np.full(d, d), ar, pj])

    def _eval_rows(Z):
        return np.concatenate((Z, Z * Z, Z.take(pi, 1) * Z.take(pj, 1)), axis=1)

    def _grad(z):    # a copy of the linear rows, then the z-dependent entries
        out = linear.copy()
        out[flat] = factor * np.asarray(z, dtype=float)[src]
        return out.reshape(n1, d)

    def _grad_rows(Z):
        out = np.zeros((len(Z), n1 * d))
        out[:, :d * d:d + 1] = 1.0    # the linear rows
        out[:, flat] = factor * Z.take(src, 1)
        return out.reshape(len(Z), n1, d)

    def _eval(z):    # z_i 1.0 is z_i, so each feature has its row map's bits
        zx[:d] = z
        return zx.take(left) * zx.take(right)

    return RegressorBasis(dim_in=d, n_features=n1, eval=_eval, grad=_grad,
                          eval_rows=_eval_rows, grad_rows=_grad_rows)


def fd_gradient(basis: RegressorBasis, z: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite-difference gradient, the reference for analytic grads."""
    z = np.asarray(z, dtype=float)
    out = np.zeros((basis.n_features, basis.dim_in))
    for i in range(basis.dim_in):
        zp, zm = z.copy(), z.copy()
        zp[i] += h
        zm[i] -= h
        out[:, i] = (basis.eval(zp) - basis.eval(zm)) / (2.0 * h)
    return out

