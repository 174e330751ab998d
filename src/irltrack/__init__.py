"""Critic-only integral reinforcement learning for constrained optimal tracking."""

__version__ = "0.1.0"

from .basis import RegressorBasis, quad_basis
from .errors import ConfigurationError, NumericFault, OracleFailure
from .learner import CriticRows, LearnerConfig, WindowBuffer
from .models import AffinePlant, ReferenceModel
from .policy import SaturationSpec, penalty_closed, penalty_integral
from .sim import (DitherSpec, SimConfig, Telemetry, dither, rk4_step, run_batch,
                  run_env_experiment)

__all__ = [
    "__version__",
    "RegressorBasis", "quad_basis",
    "ConfigurationError", "NumericFault", "OracleFailure",
    "CriticRows", "LearnerConfig", "WindowBuffer",
    "AffinePlant", "ReferenceModel",
    "SaturationSpec", "penalty_closed", "penalty_integral",
    "DitherSpec", "SimConfig", "Telemetry", "dither", "rk4_step", "run_batch",
    "run_env_experiment",
]
