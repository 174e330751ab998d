"""The CLI's contract as `irltrack` command lines and the files they leave.

Each case runs its commands through `cli.main`, in a directory of its own,
asserting each exit code exactly, then checks what they wrote.  A check is
(path, op, arg), the path under the case's directory:

- "line": arg is a whole line of the file;
- "starts": a line of the file starts with arg;
- "same": the file has the bytes of the one at arg; for a run directory,
  its telemetry.csv and every file under series/, by name;
- "head": the file's first arg[1] lines are the bytes of the file arg[0];
- "nonempty": the file holds at least one byte.

A rerun writes the same bytes in another interpreter: that test runs its
commands in two fresh processes.  The rest of the contract is pinned beside
the code it covers, in `test_config_cli.py`, `test_batch.py` and
`test_artifacts.py`.
"""
import shlex

import pytest

import irltrack.cli as cli
from test_config_cli import run_script

LINEAR = "linear_benchmark --override sim.t_end_s=0.5"
EXCITED = ("--override dither.amplitude=1 --override learner.stabilizer=on "
           "--override learner.m_term=on")
LONG = ("--override learner.t_window_s=0.0105 --override learner.stabilizer=on "
        "--override learner.m_term=on --override learner.k1_gain=0.01")
UAV = "uav_attitude --override sim.t_end_s=0.5"
UAV_LONG = f"{UAV} --override learner.t_window_s=0.02"
UAV_1S = "uav_attitude --override sim.t_end_s=1"


def batched_as_alone(sweep="sweep", lone="lone", size=2):
    """run000 of `sweep` ran in a batch of `size` and wrote the bytes of
    the lone run `lone`."""
    return [(f"{sweep}/run000/manifest.txt", "line", f"batch_size = {size}"),
            (f"{sweep}/run000", "same", lone)]


CASES = {
    "uav-streamed-log-begins-with-the-inline-one": (
        [("run uav_attitude --override sim.t_end_s=0.2 --out inline", 0),
         (f"run {UAV_1S} --out streamed", 0)],
        [("streamed/telemetry.csv", "head", ("inline/telemetry.csv", 202))]),
    "uav-sweep-of-four-on-two-workers": (
        [(f"sweep {UAV_1S} --grid learner.alpha=16.1,16.2,16.3,16.4 "
          "--workers 2 --out sweep", 0),
         (f"run {UAV_1S} --override learner.alpha=16.1 --out lone", 0)],
        batched_as_alone() + [
            ("sweep/run001/telemetry.csv", "nonempty", None),
            ("sweep/run002/manifest.txt", "line", "batch_size = 2")]),
    "uav-long-window-pair": (
        [(f"run {UAV_LONG} --out lone", 0),
         (f"sweep {UAV_LONG} --grid learner.alpha=16.1,16.2 --out sweep", 0)],
        batched_as_alone()),
    "excited-pair-and-four": (
        [(f"run {LINEAR} {EXCITED} --override learner.alpha=1100 --out lone", 0),
         (f"sweep {LINEAR} {EXCITED} --grid learner.alpha=1100,1000 --out two", 0),
         (f"sweep {LINEAR} {EXCITED} --grid learner.alpha=1100,1000,900,800 "
          "--out four", 0)],
        batched_as_alone("two") + batched_as_alone("four", size=4)),
    "plain-pair": (
        [(f"run {LINEAR} --out lone", 0),
         (f"sweep {LINEAR} --grid learner.alpha=1100,1000 --out sweep", 0)],
        batched_as_alone()),
    "long-window-pair": (
        [(f"run {LINEAR} {LONG} --override dither.amplitude=1 "
          "--override learner.alpha=1100 --out lone", 0),
         (f"sweep {LINEAR} {LONG} --override dither.amplitude=1 "
          "--grid learner.alpha=1100,1000 --out sweep", 0)],
        batched_as_alone()),
    "groups-of-one-sim-batch-in-pairs": (
        [("sweep linear_benchmark --override sim.t_end_s=0.2 "
          "--grid learner.alpha=1,2 --grid sim.record_every=1,2 "
          "--grid learner.gamma=0.1,0.2 --workers 2 --out sweep", 0)],
        [(f"sweep/run00{i}/manifest.txt", "line", "batch_size = 2")
         for i in range(8)]),
    "integrator-and-zero-plants": (
        [("sweep linear_benchmark --override sim.t_end_s=0.2 "
          "--override experiment.plant=integrator --override plant.n=2 "
          "--override 'saturation.r_diag=10 10' --grid learner.alpha=1,2 "
          "--workers 2 --out sweep", 0),
         ("run linear_benchmark --override sim.t_end_s=0.2 "
          "--override experiment.plant=zero --override plant.n=2 --out zero", 0)],
        [("sweep/run001/telemetry.csv", "nonempty", None),
         ("sweep/run001/series/weight_error_vs_oracle.dat", "nonempty", None)]),
    "uav-point-past-full-throttle": (
        [("sweep uav_attitude --override sim.t_end_s=0.05 "
          "--grid plant.va_m_s=18,100 --out sweep", 4)],
        [("sweep/summary.csv", "starts", "run000,0.05,18,ok,"),
         ("sweep/run001/manifest.txt", "starts",
          "status = oracle failure: plant.va_m_s = 100")]),
    "config-errors-name-their-key-in-the-manifest": (
        [("run linear_benchmark --override sim.t_end_s=0.1 "
          "--override experiment.basis=quad --out basis", 2),
         ("run uav_attitude --override sim.t_end_s=0.1 "
          "--override 'reference.gains=8 10 12' --out gains", 2),
         ("run linear_benchmark --override sim.t_end_s=0.1 "
          "--override saturation.r_diag=0 --out r_diag", 2)],
        [("basis/manifest.txt", "starts",
          "status = config error: experiment.basis: unknown key"),
         ("gains/manifest.txt", "starts",
          "status = config error: reference.gains: unknown key"),
         ("r_diag/manifest.txt", "starts",
          "status = config error: saturation.r_diag")]),
}


def outputs(path):
    """A file's bytes; for a run directory, its telemetry.csv and every
    file under series/, by name."""
    if path.is_file():
        return path.read_bytes()
    files = [path / "telemetry.csv", *sorted((path / "series").iterdir())]
    return {f.name: f.read_bytes() for f in files}


def check(root, path, op, arg):
    target = root / path
    if op == "same":
        assert outputs(target) == outputs(root / arg), path
    elif op == "head":
        lines = target.read_bytes().splitlines(keepends=True)
        assert b"".join(lines[:arg[1]]) == (root / arg[0]).read_bytes(), path
    elif op == "nonempty":
        assert target.stat().st_size > 0, path
    else:
        lines = target.read_text().splitlines()
        assert any(ln == arg if op == "line" else ln.startswith(arg)
                   for ln in lines), (path, arg)


@pytest.mark.parametrize("commands, checks", CASES.values(), ids=CASES)
def test_the_cli_keeps_its_contract(tmp_path, monkeypatch, commands, checks):
    monkeypatch.chdir(tmp_path)
    for command, code in commands:
        assert cli.main(shlex.split(command)) == code, command
    for path, op, arg in checks:
        check(tmp_path, path, op, arg)


RERUNS = [f"run {LINEAR} --out linear", f"run {LINEAR} {LONG} --out long",
          f"run {UAV} --out uav", f"run {UAV_LONG} --out uav_long"]

_RUN_IN = """
import os, shlex, sys
from irltrack import cli
os.chdir(sys.argv[1])
print(*(cli.main(shlex.split(command)) for command in sys.argv[2:]))
"""


def test_a_rerun_in_another_process_writes_the_same_bytes(tmp_path):
    for side in ("a", "b"):
        (tmp_path / side).mkdir()
        proc = run_script(_RUN_IN, str(tmp_path / side), *RERUNS)
        assert proc.stdout.splitlines()[-1] == "0 0 0 0"
    for command in RERUNS:
        run = command.split()[-1]
        assert outputs(tmp_path / "a" / run) == outputs(tmp_path / "b" / run)
