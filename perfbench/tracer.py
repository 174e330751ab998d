"""Span recorder for traced benchmark runs.

`Recorder.install` wraps program callables by module attribute name at each
layer boundary.  Every call becomes a span (layer id, parent span, start,
end) kept in memory and written out by `flush`; `run.py` turns the spans
into per-layer self times and call counts.  A name the program no longer has
is reported as absent instead of failing the run, so the benchmark keeps
working when a refactor fuses or removes a layer.
"""
from __future__ import annotations

import array
import dataclasses
import functools
import importlib
import json
import os
import time

# (layer, "module:attribute.path"); several targets may feed one layer.
TARGETS = (
    ("sim.run", "irltrack.cli:run_env_experiment"),
    ("policy.tau2", "irltrack.sim:tau2_raw"),
    ("policy.tau2", "irltrack.learner:tau2_raw"),
    ("policy.penalty", "irltrack.sim:penalty_closed"),
    ("learner.update", "irltrack.sim:update_step"),
    ("learner.update", "irltrack.sim:baseline_update_step"),
    ("learner.window", "irltrack.learner:ReinforcementBuffer.endpoint_features"),
    ("learner.window", "irltrack.learner:ReinforcementBuffer.discounted_integral"),
    ("learner.I_hat", "irltrack.sim:reinforcement_integral"),
    ("learner.I_hat", "irltrack.learner:reinforcement_integral"),
    ("learner.m_vector", "irltrack.sim:m_vector_raw"),
    ("sim.rk4", "irltrack.sim:rk4_step"),
    ("sim.rk4", "irltrack.benchmarks.uav:rk4_step"),
    ("benchmarks.uav.dynamics", "irltrack.benchmarks.uav:uav_dynamics"),
    ("models.G", "irltrack.benchmarks.uav:UavAttitudeEnv._coupling"),
    ("sim.telemetry_append", "irltrack.sim:Telemetry.append"),
    ("sim.telemetry_csv", "irltrack.sim:Telemetry.to_csv"),
    ("cli.artifacts", "irltrack.cli:_write_series"),
    ("cli.artifacts", "irltrack.cli:_write_manifest"),
    ("benchmarks.linear.riccati", "irltrack.cli:discounted_riccati"),
    ("benchmarks.uav.trim", "irltrack.benchmarks.uav:trim_level_flight"),
    ("config.parse", "irltrack.cli:parse_config"),
    ("config.resolve", "irltrack.cli:resolve"),
    ("config.overrides", "irltrack.cli:apply_overrides"),
    ("cli.sweep_worker", "irltrack.cli:_sweep_worker"),
)

# Factories whose frozen-dataclass result carries per-step callables as
# fields: (factory, {field: layer}).  The fields are wrapped on the result.
FIELD_TARGETS = (
    ("irltrack.config:make_basis", {"grad": "basis.grad", "eval": "basis.eval"}),
    ("irltrack.sim:augment", {"G": "models.G"}),
)

# Each call of these runs in a pool worker: the worker's spans are written
# out when the call returns.
FLUSH_AFTER = {"cli.sweep_worker"}


def _lookup(target):
    """(owner, attribute name, current value) for 'module:a.b', or None."""
    mod_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(mod_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    value = owner.__dict__.get(attr) if isinstance(owner, type) else \
        getattr(owner, attr, None)
    if not callable(value):
        return None
    return owner, attr, value


class Recorder:
    """In-memory span log for one process, written to `out_dir` on flush."""

    def __init__(self, out_dir):
        self.out_dir = out_dir
        self.layers: list[str] = []
        self.absent: list[str] = []
        self._seq = 0
        self._reset()

    def _reset(self):
        self.ids = array.array("q")
        self.parents = array.array("q")
        self.starts = array.array("q")
        self.ends = array.array("q")
        self._stack = [-1]

    def _layer_id(self, layer):
        if layer not in self.layers:
            self.layers.append(layer)
        return self.layers.index(layer)

    def wrap(self, fn, layer):
        lid = self._layer_id(layer)
        flush_after = layer in FLUSH_AFTER
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if flush_after:
                self._reset()
            ids, stack = self.ids, self._stack
            i = len(ids)
            ids.append(lid)
            self.parents.append(stack[-1])
            self.ends.append(0)
            stack.append(i)
            self.starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.ends[i] = clock()
                stack.pop()
                if flush_after:
                    self.flush()

        return traced

    def _wrap_fields(self, factory, fields):
        @functools.wraps(factory)
        def build(*args, **kwargs):
            obj = factory(*args, **kwargs)
            return dataclasses.replace(obj, **{
                f: self.wrap(getattr(obj, f), layer) for f, layer in fields.items()})
        return build

    def install(self):
        """Wrap every target the program still has; record the missing ones."""
        for layer, target in TARGETS:
            found = _lookup(target)
            if found is None:
                self.absent.append(f"{layer}={target}")
                continue
            owner, attr, fn = found
            setattr(owner, attr, self.wrap(fn, layer))
        for target, fields in FIELD_TARGETS:
            found = _lookup(target)
            if found is None:
                self.absent.append(f"{'+'.join(fields.values())}={target}")
                continue
            owner, attr, fn = found
            setattr(owner, attr, self._wrap_fields(fn, fields))

    def flush(self):
        """Write the spans recorded so far as <stem>.bin plus <stem>.json."""
        stem = os.path.join(self.out_dir, f"spans-{os.getpid()}-{self._seq}")
        self._seq += 1
        with open(stem + ".bin", "wb") as fh:
            for arr in (self.ids, self.parents, self.starts, self.ends):
                arr.tofile(fh)
        with open(stem + ".json", "w", encoding="utf-8") as fh:
            json.dump({"layers": self.layers, "absent": self.absent,
                       "spans": len(self.ids)}, fh)
        self._reset()
