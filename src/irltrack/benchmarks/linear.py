"""Linear tracking benchmark with a ground-truth discounted Riccati value.

For linear plant/reference pairs the stacked system is ``zdot = A z + B u``
(an environment's ``linear_pair()``, from `models.augmented_linear`) and,
while the actuator bound is inactive, the optimal value is the quadratic
``z^T P z`` with P solving the discounted algebraic Riccati equation

    (A - (gamma/2) I)^T P + P (A - (gamma/2) I) - P B R^-1 B^T P + Q1 = 0.

`ideal_weights` re-expresses that quadratic in the critic's feature order,
which gives the learner an exact target to converge to.
"""
from __future__ import annotations

import numpy as np

from ..basis import RegressorBasis
from ..errors import ConfigurationError, OracleFailure


def riccati_residual(P, A, B, Q1, R, gamma):
    As = A - 0.5 * gamma * np.eye(A.shape[0])
    return As.T @ P + P @ As - P @ B @ np.linalg.solve(R, B.T @ P) + Q1


def discounted_riccati(A, B, Q1, R, gamma) -> np.ndarray:
    """Stabilizing solution P of the discounted algebraic Riccati equation.

    Solves the standard equation of the shifted pair (A - (gamma/2) I, B)
    with `scipy.linalg.solve_continuous_are`, then verifies the residual.
    Raises OracleFailure if the solver fails (for example on a pair that
    is not stabilizable) or the residual does not reach 1e-9.
    """
    from scipy.linalg import solve_continuous_are

    A, B, Q1, R = (np.asarray(M, dtype=float) for M in (A, B, Q1, R))
    As = A - 0.5 * gamma * np.eye(A.shape[0])
    try:
        P = solve_continuous_are(As, B, Q1, R)
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise OracleFailure(f"Riccati solver failed on the shifted pair: {exc}") \
            from exc
    res = np.linalg.norm(riccati_residual(P, A, B, Q1, R, gamma), "fro")
    if not res <= 1e-9:
        raise OracleFailure(f"Riccati residual {res:.3e} > 1e-9")
    return P


def ideal_weights(P: np.ndarray, basis: RegressorBasis) -> np.ndarray:
    """Quadratic value z^T P z written in the critic's feature order.

    Zeros on the linear features, P_ii on squares, 2 P_ij on cross terms.
    Only defined for the bundled quadratic basis.
    """
    P = np.asarray(P, dtype=float)
    d = P.shape[0]
    expected = 2 * d + d * (d - 1) // 2
    if basis.dim_in != d or basis.n_features != expected or \
            not basis.name.startswith("quad"):
        raise ConfigurationError(
            f"ideal_weights needs the quadratic basis of dimension {d}, "
            f"got {basis.name!r} with {basis.n_features} features")
    W = np.zeros(basis.n_features)
    W[d:2 * d] = np.diag(P)
    k = 2 * d
    for i in range(d):
        for j in range(i + 1, d):
            W[k] = 2.0 * P[i, j]
            k += 1
    return W

