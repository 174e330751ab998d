from .linear import discounted_riccati, ideal_weights
from .uav import (AirframeParams, SetpointSchedule, TrimPoint, UavAttitudeEnv,
                  load_airframe, outer_loop, trim_level_flight, uav_dynamics)

__all__ = [
    "discounted_riccati", "ideal_weights", "AirframeParams", "SetpointSchedule",
    "TrimPoint", "UavAttitudeEnv", "load_airframe", "outer_loop",
    "trim_level_flight", "uav_dynamics",
]
