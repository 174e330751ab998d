"""Benchmark environments: `linear`, the discounted-Riccati ground truth of
the linear benchmark, and `uav`, the Aerosonde 6-DoF attitude environment."""
