from .linear import discounted_riccati, ideal_weights
from .uav import (AirframeParams, OuterLoopGains, SetpointSchedule, TrimPoint,
                  UavAttitudeEnv, load_airframe, outer_loop, trim_level_flight,
                  uav_dynamics)

__all__ = [
    "discounted_riccati", "ideal_weights", "AirframeParams", "OuterLoopGains",
    "SetpointSchedule", "TrimPoint", "UavAttitudeEnv", "load_airframe",
    "outer_loop", "trim_level_flight", "uav_dynamics",
]
