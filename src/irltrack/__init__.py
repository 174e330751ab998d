"""Critic-only integral reinforcement learning for constrained optimal tracking."""

__version__ = "0.1.0"

from .basis import RegressorBasis, eval_grad, make_basis, quad_basis
from .errors import ConfigurationError, NotReady, NumericFault, OracleFailure
from .learner import (CriticState, LearnerConfig, ReinforcementBuffer,
                      baseline_update_step, delta_theta, hjb_error, indicator,
                      m_integral, m_vector_raw, reinforcement_integral,
                      sigma_rate, update_step)
from .models import (AffinePlant, AugmentedDynamics, ReferenceModel, augment,
                     eval_augmented)
from .policy import (SaturationSpec, penalty_closed, penalty_integral,
                     policy_eval, tau2_raw)
from .sim import (DitherSpec, SimConfig, Telemetry, dither, rk4_step,
                  run_experiment)

__all__ = [
    "__version__",
    "RegressorBasis", "eval_grad", "make_basis", "quad_basis",
    "ConfigurationError", "NotReady", "NumericFault", "OracleFailure",
    "CriticState", "LearnerConfig", "ReinforcementBuffer",
    "baseline_update_step", "delta_theta", "hjb_error", "indicator",
    "m_integral", "m_vector_raw", "reinforcement_integral", "sigma_rate",
    "update_step",
    "AffinePlant", "AugmentedDynamics", "ReferenceModel", "augment",
    "eval_augmented",
    "SaturationSpec", "penalty_closed", "penalty_integral", "policy_eval",
    "tau2_raw",
    "DitherSpec", "SimConfig", "Telemetry", "dither", "rk4_step", "run_experiment",
]
