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

from ..errors import OracleFailure


def riccati_residual(P, A, B, Q1, R, gamma):
    As = A - 0.5 * gamma * np.eye(A.shape[0])
    return As.T @ P + P @ As - P @ B @ np.linalg.solve(R, B.T @ P) + Q1


# Newton sign iteration: its cap and relative-change stop test
_SIGN_MAX_ITER = 100
_SIGN_RTOL = 1e-12


def _matrix_sign(Z: np.ndarray) -> np.ndarray:
    """sign(Z) by the determinant-scaled Newton iteration
    Z <- (c Z + Z^-1 / c) / 2, c = |det Z|^(-1/N) for N x N Z (Byers 1987).

    Raises OracleFailure on a singular or non-finite iterate, or when the
    relative change does not fall to `_SIGN_RTOL` within `_SIGN_MAX_ITER`
    steps; eigenvalues on the imaginary axis end in one of these.
    """
    N = Z.shape[0]
    for _ in range(_SIGN_MAX_ITER):
        sign, logdet = np.linalg.slogdet(Z)
        if sign == 0 or not np.isfinite(logdet):
            raise OracleFailure("singular Hamiltonian iterate in the sign "
                                "iteration (eigenvalues on the imaginary axis?)")
        c = np.exp(-logdet / N)
        Z_next = 0.5 * (c * Z + np.linalg.inv(Z) / c)
        if not np.isfinite(Z_next).all():
            raise OracleFailure("non-finite iterate in the sign iteration")
        change = np.linalg.norm(Z_next - Z, 1)
        Z = Z_next
        if change <= _SIGN_RTOL * np.linalg.norm(Z, 1):
            return Z
    raise OracleFailure(f"sign iteration did not converge in "
                        f"{_SIGN_MAX_ITER} steps")


def discounted_riccati(A, B, Q1, R, gamma) -> np.ndarray:
    """Stabilizing solution P of the discounted algebraic Riccati equation.

    Solves the standard equation of the shifted pair (As, B), As = A -
    (gamma/2) I, with numpy alone: the matrix sign W of the Hamiltonian
    Z = [[As, -B R^-1 B^T], [-Q1, -As^T]] maps its stable invariant subspace
    [I; P] to minus itself, so [W12; W22 + I] P = -[W11 + I; W21] (least
    squares, Roberts 1980, Byers 1987).  One Newton (Kleinman) step then
    solves the closed-loop Lyapunov equation for the correction, through
    its n^2 x n^2 Kronecker system, and the residual is verified.  Raises
    OracleFailure if a solve fails (for example on a pair that is not
    stabilizable, whose Hamiltonian has eigenvalues on the imaginary axis)
    or the residual does not reach 1e-9.
    """
    A, B, Q1, R = (np.asarray(M, dtype=float) for M in (A, B, Q1, R))
    n = A.shape[0]
    I = np.eye(n)
    As = A - 0.5 * gamma * I
    try:
        with np.errstate(all="ignore"):
            S = B @ np.linalg.solve(R, B.T)
            W = _matrix_sign(np.block([[As, -S], [-Q1, -As.T]]))
            P = np.linalg.lstsq(np.vstack([W[:n, n:], W[n:, n:] + I]),
                                -np.vstack([W[:n, :n] + I, W[n:, :n]]),
                                rcond=None)[0]
            P = 0.5 * (P + P.T)
            # Newton step: Ak^T D + D Ak = -residual(P), Ak = As - S P
            Ak = As - S @ P
            D = np.linalg.solve(np.kron(Ak.T, I) + np.kron(I, Ak.T),
                                -riccati_residual(P, A, B, Q1, R, gamma).ravel())
            D = D.reshape(n, n)
            P = P + 0.5 * (D + D.T)
            res = np.linalg.norm(riccati_residual(P, A, B, Q1, R, gamma), "fro")
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise OracleFailure(f"Riccati solver failed on the shifted pair: {exc}") \
            from exc
    if not res <= 1e-9:
        raise OracleFailure(f"Riccati residual {res:.3e} > 1e-9")
    return P


def ideal_weights(P: np.ndarray) -> np.ndarray:
    """Quadratic value z^T P z written in the critic's feature order
    (`basis.quad_basis`): zeros on the linear features, P_ii on squares,
    2 P_ij on cross terms."""
    P = np.asarray(P, dtype=float)
    d = P.shape[0]
    return np.concatenate([np.zeros(d), np.diag(P), 2.0 * P[np.triu_indices(d, 1)]])
