"""Control-affine plants, reference generators, and the stacked linear pair.

The tracking problem for ``xdot = f(x) + g(x) u`` against an autonomous
reference ``xd_dot = H(xd)`` is recast as regulation of the stacked state
``z = [e, xd]`` with ``e = x - xd``:

    zdot = F(z) + G(z) u,
    F(z) = [f(e + xd) - H(xd), H(xd)],   G(z) = [g(e + xd), 0].

The learner reads only point evaluations of ``G``, which each environment
offers as its method ``G(z)`` (`sim.AugmentedTrackingEnv` for a plant and
reference from here); the drift ``F`` is never evaluated.  When both are
linear, `augmented_linear` gives the stacked ``(A, B)``.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConfigurationError


@dataclass(frozen=True)
class AffinePlant:
    """Control-affine plant ``xdot = f(x) + g(x) u``.

    ``f`` maps R^n -> R^n, ``g`` maps R^n -> R^(n x m).  ``linear`` is
    ``(A, B)`` when f(x) = A x and g(x) = B, which lets the environment
    offer a Riccati ground truth.
    """

    n: int
    m: int
    f: Callable[[np.ndarray], np.ndarray]
    g: Callable[[np.ndarray], np.ndarray]
    name: str = ""
    linear: Optional[tuple] = None

    def validate(self):
        x0 = np.zeros(self.n)
        fx = np.asarray(self.f(x0), dtype=float)
        gx = np.asarray(self.g(x0), dtype=float)
        if fx.shape != (self.n,):
            raise ConfigurationError(
                f"plant {self.name!r}: f(0) has shape {fx.shape}, expected ({self.n},)")
        if gx.shape != (self.n, self.m):
            raise ConfigurationError(
                f"plant {self.name!r}: g(0) has shape {gx.shape}, expected ({self.n}, {self.m})")
        if not (np.all(np.isfinite(fx)) and np.all(np.isfinite(gx))):
            raise ConfigurationError(f"plant {self.name!r}: non-finite f/g at the origin")
        return self


@dataclass(frozen=True)
class ReferenceModel:
    """Autonomous bounded reference ``xd_dot = H(xd)`` with ``H(0) = 0``.

    ``linear`` is the matrix H_A when H(xd) = H_A xd.
    """

    H: Callable[[np.ndarray], np.ndarray]
    x_d0: np.ndarray
    name: str = ""
    linear: Optional[np.ndarray] = None

    def validate(self):
        n = len(self.x_d0)
        h0 = np.asarray(self.H(np.zeros(n)), dtype=float)
        if h0.shape != (n,):
            raise ConfigurationError(
                f"reference {self.name!r}: H(0) has shape {h0.shape}, expected ({n},)")
        if not np.allclose(h0, 0.0, atol=1e-12):
            raise ConfigurationError(f"reference {self.name!r}: H(0) != 0")
        return self


def augmented_linear(A_p: np.ndarray, B_p: np.ndarray, H_A: np.ndarray):
    """Stacked ``(A, B)`` of plant ``xdot = A_p x + B_p u`` and reference
    ``xd_dot = H_A xd``: the linear case of the stacked system."""
    A_p, B_p, H_A = (np.asarray(M, dtype=float) for M in (A_p, B_p, H_A))
    A = np.block([[A_p, A_p - H_A], [np.zeros_like(A_p), H_A]])
    return A, np.vstack([B_p, np.zeros_like(B_p)])
