"""Smoke test of the benchmark harness at a tiny horizon.

    python3 -m pytest -q perfbench/test_smoke.py
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402
import tracer  # noqa: E402

HORIZON_S = 0.05   # 50 integration steps
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def one_setup_probe(monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result, info = run.bench(workload, 1, 1, trace, horizon=HORIZON_S)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    assert result["correct"], info["problems"]
    assert result["failed"] == 0
    assert result["attempted"] >= 2
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_linear_call_counts_are_exact():
    result, _ = run.bench("linear_oracle", 0, 1, True, horizon=HORIZON_S)
    per_step = {name: m["value"] for name, m in result["metrics"].items()
                if name.endswith(".calls_per_step")}
    # 51 loop iterations, 50 of them with a critic update
    assert per_step["basis.grad.calls_per_step"] == 101 / 50
    assert per_step["models.G.calls_per_step"] == 101 / 50
    assert per_step["learner.I_hat.calls_per_step"] == 100 / 50
    assert per_step["learner.m_vector.calls_per_step"] == 51 / 50
    assert result["metrics"]["trace.layers_absent"]["value"] == 0


@pytest.mark.parametrize("workload", ["linear_oracle", "uav_attitude"])
def test_science_matches_a_direct_cli_run(workload, tmp_path):
    wl = run.WORKLOADS[workload]
    out = tmp_path / "out"
    env = dict(os.environ, PYTHONPATH=str(run.SRC), TMPDIR=str(tmp_path))
    subprocess.run([sys.executable, "-m", "irltrack.cli",
                    *run.cli_args(wl, 0, HORIZON_S, out)], env=env, check=True,
                   stdout=subprocess.DEVNULL)
    direct = run.inspect_run(wl, "run", out, exit_ok=True)
    assert not direct.problems
    result, _ = run.bench(workload, 0, 1, False, horizon=HORIZON_S)
    for name, value in direct.science.items():
        assert result["metrics"][name]["value"] == value, name


def test_missing_wrap_target_is_reported_absent(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(run.SRC))
    monkeypatch.setattr(tracer, "TARGETS",
                        (("ghost.layer", "irltrack.cli:no_such_function"),
                         ("ghost.module", "irltrack.no_such_module:f")))
    monkeypatch.setattr(tracer, "FIELD_TARGETS", ())
    rec = tracer.Recorder(str(tmp_path))
    rec.install()
    assert rec.absent == ["ghost.layer=irltrack.cli:no_such_function",
                          "ghost.module=irltrack.no_such_module:f"]
    rec.flush()
    loop, total, absent = run.analyse_spans(tmp_path)
    assert len(absent) == 2 and not total
