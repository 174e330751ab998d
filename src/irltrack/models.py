"""Linear plants, reference generators, and the stacked linear pair.

The tracking problem for ``xdot = A_p x + B_p u`` against an autonomous
reference ``xd_dot = H xd`` is recast as regulation of the stacked state
``z = [e, xd]`` with ``e = x - xd``:

    zdot = A z + B u,
    A = [[A_p, A_p - H], [0, H]],   B = [B_p; 0].

The learner reads only point evaluations of the control coupling ``B``,
which each environment offers as its method ``G(z)``
(`sim.AugmentedTrackingEnv` for a plant and reference from here);
`augmented_linear` gives the stacked ``(A, B)``.  Nonlinear physics is
written as an environment of its own (`sim.TrackingEnv`).  A plant or a
reference checks its shapes and entries when it is built, so no invalid
one reaches the loop.  Like `SaturationSpec` and `LearnerConfig`, these
frozen records compare and hash by identity.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError


@dataclass(frozen=True, eq=False)
class AffinePlant:
    """Linear plant ``xdot = A x + B u``: A is (n, n), B is (n, m)."""

    A: np.ndarray
    B: np.ndarray
    name: str = ""

    n = property(lambda self: np.shape(self.A)[0])
    m = property(lambda self: np.shape(self.B)[1])

    def __post_init__(self):
        A, B = np.shape(self.A), np.shape(self.B)
        if len(A) != 2 or A[0] != A[1] or len(B) != 2 or B[0] != A[0] or 0 in B:
            raise ConfigurationError(
                f"plant {self.name!r}: A has shape {A} and B {B}, expected "
                "(n, n) and (n, m) with n, m >= 1")
        if not (np.isfinite(self.A).all() and np.isfinite(self.B).all()):
            raise ConfigurationError(f"plant {self.name!r}: non-finite A or B")


@dataclass(frozen=True, eq=False)
class ReferenceModel:
    """Autonomous reference ``xd_dot = H xd`` from ``x_d0``: H is (n, n)
    for the n entries of x_d0."""

    H: np.ndarray
    x_d0: np.ndarray
    name: str = ""

    def __post_init__(self):
        H, x0 = np.shape(self.H), np.shape(self.x_d0)
        if len(x0) != 1 or H != x0 * 2 or 0 in x0:
            raise ConfigurationError(
                f"reference {self.name!r}: H has shape {H} and x_d0 {x0}, "
                "expected (n, n) and (n,) with n >= 1")
        if not (np.isfinite(self.H).all() and np.isfinite(self.x_d0).all()):
            raise ConfigurationError(f"reference {self.name!r}: non-finite H or x_d0")


def augmented_linear(A_p: np.ndarray, B_p: np.ndarray, H_A: np.ndarray):
    """Stacked ``(A, B)`` of plant ``xdot = A_p x + B_p u`` and reference
    ``xd_dot = H_A xd``."""
    A_p, B_p, H_A = (np.asarray(M, dtype=float) for M in (A_p, B_p, H_A))
    A = np.block([[A_p, A_p - H_A], [np.zeros_like(A_p), H_A]])
    return A, np.vstack([B_p, np.zeros_like(B_p)])
