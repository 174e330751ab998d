#!/usr/bin/env python3
"""Benchmark of irltrack: end-to-end cost and science numbers per workload,
per-layer cost from a separate traced run.

    python3 perfbench/run.py --workload linear_oracle --seed 0 --seconds 38 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 38

Run from the root of a source checkout: the program is imported from ./src
and driven only through its CLI (`irltrack run` / `irltrack sweep`), each
program run in a fresh process.  Per workload, stdout gets an info line
(inputs, raw samples, environment) and then the result: one JSON object with
the keys correct, attempted, failed and metrics.  perfbench/README.md
describes the workloads, the metrics and the layer map.
"""
import os

# Pin BLAS/OpenMP pools to one thread here and in every child: numpy's
# bundled OpenBLAS is built with MAX_THREADS=64.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import configparser  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import re  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from scipy.linalg import solve_continuous_are  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

SETUP_REPEATS = 4
DEADLINE_S = 170.0       # for the whole benchmark process
SWEEP_WORKERS = 2
DEG = math.pi / 180.0
# Value of a science metric on a workload that has no such quantity (no
# Riccati oracle for the UAV, no attitude for the linear plant).
NOT_APPLICABLE = 1.0

# The shared host's speed drifts by tens of percent within seconds to
# minutes, with CPU time tracking wall time.  Timing metrics are therefore
# reported at a reference host speed: each child's numbers are scaled by
# CALIBRATION_REF_S over the mean time of a fixed kernel
# (`calibration_kernel`) timed just before and just after that child.  The
# raw timings are in the info line.
CALIBRATION_REF_S = 0.20
CALIBRATION_ITERS = 15000
SCALED_UNITS = {"s": 1, "us/step": 1, "1/s": -1}   # unit -> power of the scale

LOOP_LAYERS = ("basis.grad", "basis.eval", "models.G", "policy.tau2",
               "policy.penalty", "learner.update", "learner.window",
               "learner.I_hat", "learner.m_vector", "sim.rk4",
               "benchmarks.uav.dynamics", "sim.telemetry_append")


# --------------------------------------------------------------------------
# workloads: the program receives only a bundled config name and overrides

LINEAR_X0 = (16.0, 0.0)
X0_JITTER = 0.01          # seed > 0: x0 drawn from bundled +- this
UAV_ALTITUDE_M = 100.0
ALTITUDE_JITTER_M = 50.0  # seed > 0: altitude drawn from bundled +- this


def linear_inputs(seed):
    if not seed:
        return [], []
    rng = random.Random(seed)
    x0 = [v + rng.uniform(-X0_JITTER, X0_JITTER) for v in LINEAR_X0]
    return [f"plant.x0={x0[0]:.6f} {x0[1]:.6f}"], []


def uav_inputs(seed):
    if not seed:
        return [], []
    rng = random.Random(seed)
    alt = UAV_ALTITUDE_M + rng.uniform(-ALTITUDE_JITTER_M, ALTITUDE_JITTER_M)
    return [f"plant.altitude_m={alt:.3f}"], []


def sweep_inputs(seed):
    q2, alpha = (0.0, 0.1), (1000.0, 1100.0)
    if seed:
        rng = random.Random(seed)
        q2 = (rng.uniform(0.0, 0.02), rng.uniform(0.08, 0.12))
        alpha = (rng.uniform(950.0, 1050.0), rng.uniform(1050.0, 1150.0))
    grid = [("experiment.law", ("novel", "baseline")),
            ("learner.q2", tuple(f"{v:.4f}" for v in q2)),
            ("learner.alpha", tuple(f"{v:.2f}" for v in alpha))]
    return [], grid


@dataclass(frozen=True)
class Workload:
    name: str
    sweep: bool          # `irltrack sweep` rather than `irltrack run`
    config: str          # bundled config the program resolves by name
    horizon_s: float     # sim.t_end_s override
    inputs: object       # seed -> (overrides, grid)
    science: str         # "oracle" or "attitude"


WORKLOADS = {w.name: w for w in (
    Workload("linear_oracle", False, "linear_benchmark", 20.0, linear_inputs,
             "oracle"),
    Workload("uav_attitude", False, "uav_attitude", 11.5, uav_inputs, "attitude"),
    Workload("sweep_grid", True, "linear_benchmark", 1.0, sweep_inputs, "oracle"),
)}


def cli_args(wl, seed, horizon, out):
    overrides, grid = wl.inputs(seed)
    args = ["sweep" if wl.sweep else "run", wl.config,
            "--override", f"sim.t_end_s={horizon:g}"]
    for ov in overrides:
        args += ["--override", ov]
    for key, values in grid:
        args += ["--grid", f"{key}={','.join(values)}"]
    if wl.sweep:
        args += ["--workers", str(SWEEP_WORKERS)]
    return args + ["--out", str(out)]


def setup_overrides(wl, seed, horizon):
    """Overrides of the workload's first program run."""
    overrides, grid = wl.inputs(seed)
    return [f"sim.t_end_s={horizon:g}"] + overrides + [
        f"{key}={values[0]}" for key, values in grid]


# --------------------------------------------------------------------------
# processes


def calibration_kernel():
    """Seconds for a fixed mix of small numpy operations and Python
    arithmetic, shaped like one learner step (features, gradient, tanh)."""
    z = np.array([1.0, 0.5, -0.3, 0.2])
    W = np.zeros(14)
    pi, pj = np.array([0, 0, 0, 1, 1, 2]), np.array([1, 2, 3, 2, 3, 3])
    acc = 0.0
    t0 = time.perf_counter()
    for _ in range(CALIBRATION_ITERS):
        theta = np.concatenate([z, z * z, z[pi] * z[pj]])
        grad = np.zeros((14, 4))
        grad[4:8, :] = np.diag(2.0 * z)
        acc += math.tanh(float(grad[:, 1] @ W) / 3.0) + 1e-9 * float(theta @ theta)
        W = W + 1e-6 * theta
        z = 0.999999 * z + 1e-7
    if not math.isfinite(acc):
        raise RuntimeError("calibration kernel diverged")
    return time.perf_counter() - t0


@dataclass
class Proc:
    code: int
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    tmp_files: int
    calibration: int = -1   # index of the calibration sample taken before it


def _kill_group(pgid):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(argv, work, timeout_s):
    """Run one child in its own session and TMPDIR; time it and reap it."""
    tmp = work / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(SRC), TMPDIR=str(tmp))
    with open(work / "child.log", "ab") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), *argv],
                                cwd=ROOT, env=env, stdout=log,
                                stderr=subprocess.STDOUT, start_new_session=True)
        watchdog = threading.Timer(max(timeout_s, 1.0), _kill_group, (proc.pid,))
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _kill_group(proc.pid)
            os.waitpid(proc.pid, 0)
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
        _kill_group(proc.pid)  # pool workers a killed child left behind
    proc.returncode = os.waitstatus_to_exitcode(status)
    tmp_files = sum(1 for _ in tmp.rglob("*"))
    shutil.rmtree(tmp)
    return Proc(code=proc.returncode, wall_s=wall,
                cpu_s=usage.ru_utime + usage.ru_stime,
                maxrss_mb=usage.ru_maxrss / 1024.0, tmp_files=tmp_files)


# --------------------------------------------------------------------------
# output checks and science numbers


def _floats(text):
    return [float(tok) for tok in text.replace(",", " ").split()]


def read_ini(path):
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    cp.read(path, encoding="utf-8")
    return cp


def oracle_weights(ini):
    """Discounted-Riccati weights of the stacked linear benchmark, in the
    critic's feature order (linear terms, squares, then i<j products)."""
    om = ini.getfloat("plant", "omega")
    gain = ini.getfloat("plant", "gain")
    om_ref = ini.getfloat("reference", "omega")
    A_p = np.array([[0.0, om], [-om, 0.0]])
    H = np.array([[0.0, om_ref], [-om_ref, 0.0]])
    A = np.block([[A_p, A_p - H], [np.zeros((2, 2)), H]])
    B = np.array([[0.0], [gain], [0.0], [0.0]])
    gamma = ini.getfloat("learner", "gamma")
    Q = np.diag(_floats(ini.get("learner", "q1_diag")))
    R = np.diag(_floats(ini.get("saturation", "r_diag")))
    P = solve_continuous_are(A - 0.5 * gamma * np.eye(4), B, Q, R)
    cross = [2.0 * P[i, j] for i in range(4) for j in range(i + 1, 4)]
    return np.concatenate([np.zeros(4), np.diag(P), cross])


def _setpoints(ini):
    entries = []
    text = ini.get("reference", "setpoints_deg")
    for chunk in filter(None, (c.strip() for c in text.split(";"))):
        when, _, angles = chunk.partition(":")
        entries.append((float(when), np.array(_floats(angles)) * DEG))
    return entries


def attitude_error_deg(ts, att, entries):
    """Criterion 7c: worst per-axis mean |attitude error| over the last
    second before each setpoint switch (before the end of a run too short
    to reach a switch)."""
    ends = [t for t, _ in entries[1:] if t <= ts[-1]] or [ts[-1]]
    worst = 0.0
    for t_sw in ends:
        target = [a for t, a in entries if t <= t_sw - 1.0 - 1e-9 or t == 0.0][-1]
        win = (ts >= t_sw - 1.0) & (ts < t_sw)
        err = np.mean(np.abs(att[win] - target), axis=0) / DEG
        worst = max(worst, float(np.max(err)))
    return worst


@dataclass
class RunOutput:
    """Checks and science numbers of one program run (one grid point)."""

    key: str
    problems: list = field(default_factory=list)
    digest: str = ""
    steps: int = 0
    loop_s: float = float("nan")
    bytes: int = 0
    wall_s: float = float("nan")   # per-run wall from a sweep's summary.csv
    science: dict = field(default_factory=dict)


def inspect_run(wl, key, out, exit_ok):
    """Check one run directory: exit status, finite telemetry, |u| <= u_m,
    row count; compute its science numbers."""
    res = RunOutput(key=key)
    if not exit_ok:
        res.problems.append("nonzero exit status")
    csv_path = out / "telemetry.csv"
    ini_path = out / "config_resolved.ini"
    if not (csv_path.is_file() and ini_path.is_file()):
        res.problems.append("telemetry.csv or config_resolved.ini missing")
        return res
    res.bytes = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
    raw = csv_path.read_bytes()
    res.digest = hashlib.sha256(raw).hexdigest()
    ini = read_ini(ini_path)
    dt = ini.getfloat("sim", "dt_s")
    res.steps = int(round(ini.getfloat("sim", "t_end_s") / dt))
    every = ini.getint("sim", "record_every", fallback=1)
    rows_want = res.steps // every + 1 + (1 if res.steps % every else 0)
    if ini.has_option("saturation", "u_m"):
        u_m = ini.getfloat("saturation", "u_m")
    else:
        u_m = ini.getfloat("saturation", "u_m_deg") * DEG

    cols = raw[:raw.index(b"\n")].decode().split(",")
    data = np.loadtxt(csv_path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape[0] != rows_want:
        res.problems.append(f"{data.shape[0]} telemetry rows, want {rows_want}")
    if data.shape[0] == 0:
        return res
    if not np.all(np.isfinite(data)):
        res.problems.append("non-finite telemetry value")
    u = data[:, [i for i, c in enumerate(cols) if c.startswith("u_")]]
    if np.any(np.abs(u) > u_m):
        res.problems.append(f"|u| = {np.max(np.abs(u))!r} exceeds u_m = {u_m!r}")

    manifest = (out / "manifest.txt").read_text() if \
        (out / "manifest.txt").is_file() else ""
    m = re.search(r"^wall_time_s = (\S+)$", manifest, re.M)
    if m:
        res.loop_s = float(m.group(1))
    else:
        res.problems.append("manifest.txt has no wall_time_s")

    W = data[:, [i for i, c in enumerate(cols) if c[:1] == "W" and c[1:].isdigit()]]
    w_norm = np.linalg.norm(W, axis=1)
    e_hat = data[:, cols.index("e_hat")]
    tail = e_hat[-max(1, len(e_hat) // 10):]
    sci = {"ehat_rms_tail": float(np.sqrt(np.mean(tail ** 2))),
           "w_norm_peak_over_final": float(np.max(w_norm) / w_norm[-1]),
           "weight_err_rel": NOT_APPLICABLE, "att_err_max_deg": NOT_APPLICABLE}
    if wl.science == "oracle":
        W_star = oracle_weights(ini)
        err = float(np.linalg.norm(W[-1] - W_star) / np.linalg.norm(W_star))
        sci["weight_err_rel"] = err
        series = out / "series" / "weight_error_vs_oracle.dat"
        if series.is_file():
            theirs = float(series.read_text().rstrip().rsplit(None, 1)[-1])
            if abs(theirs - err) > 1e-6 * max(1.0, err):
                res.problems.append(
                    f"program's oracle weight error {theirs!r} != {err!r}")
    else:
        att = data[:, [cols.index(f"x{i}") for i in (6, 7, 8)]]  # phi theta psi
        sci["att_err_max_deg"] = attitude_error_deg(data[:, 0], att,
                                                    _setpoints(ini))
    res.science = sci
    return res


def inspect_invocation(wl, out, code):
    """RunOutputs of one CLI invocation: one run, or every sweep grid point."""
    if not wl.sweep:
        return [inspect_run(wl, "run", out, code == 0)]
    summary = out / "summary.csv"
    if not summary.is_file():
        return [RunOutput(key="sweep", problems=["summary.csv missing"])]
    with open(summary, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    runs = []
    for row in rows:
        res = inspect_run(wl, row["run"], out / row["run"],
                          code == 0 and row.get("status") == "ok")
        res.wall_s = float(row["wall_s"]) if row.get("wall_s") else float("nan")
        runs.append(res)
    return runs


# --------------------------------------------------------------------------
# traced runs


def analyse_spans(spans_dir):
    """Per-layer sums over every span file one invocation wrote.

    Returns (loop, total, absent): loop[layer] = [calls, self_ns] for spans
    inside a `sim.run` span (the step loop), with the loop's own self time
    under "sim.run"; total[layer] = [calls, inclusive_ns] over all spans.
    """
    loop = defaultdict(lambda: [0, 0])
    total = defaultdict(lambda: [0, 0])
    absent = set()
    for head_path in sorted(spans_dir.glob("spans-*.json")):
        head = json.loads(head_path.read_text())
        absent.update(head["absent"])
        n = head["spans"]
        if not n:
            continue
        ids, parents, starts, ends = np.fromfile(
            head_path.with_suffix(".bin"), dtype=np.int64).reshape(4, n)
        dur = ends - starts
        child = np.zeros(n, dtype=np.int64)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        self_ns = dur - child
        layers = head["layers"]
        in_loop = np.zeros(n, dtype=bool)
        if "sim.run" in layers:
            for r in np.flatnonzero(ids == layers.index("sim.run")):
                in_loop |= (starts > starts[r]) & (ends <= ends[r])
                loop["sim.run"][0] += 1
                loop["sim.run"][1] += int(self_ns[r])
        for lid, layer in enumerate(layers):
            sel = ids == lid
            total[layer][0] += int(sel.sum())
            total[layer][1] += int(dur[sel].sum())
            if layer != "sim.run":
                loop[layer][0] += int((sel & in_loop).sum())
                loop[layer][1] += int(self_ns[sel & in_loop].sum())
    return loop, total, absent


def layer_metrics(spans_dir, runs):
    """Per-layer metrics of one traced invocation (`runs` its RunOutputs)."""
    loop, total, absent = analyse_spans(spans_dir)
    steps = sum(r.steps for r in runs)
    n_runs = len(runs)
    out = {}
    for layer in LOOP_LAYERS:
        calls, self_ns = loop[layer]
        out[f"{layer}.calls_per_step"] = calls / steps
        out[f"{layer}.self_us_per_step"] = self_ns / 1e3 / steps
    out["sim.loop_self_us_per_step"] = loop["sim.run"][1] / 1e3 / steps

    def per_run_s(*layers):
        return sum(total[layer][1] for layer in layers) / 1e9 / n_runs

    out["sim.telemetry_csv_s"] = per_run_s("sim.telemetry_csv")
    out["cli.artifact_s"] = per_run_s("sim.telemetry_csv", "cli.artifacts")
    out["benchmarks.linear.riccati_s"] = per_run_s("benchmarks.linear.riccati")
    out["benchmarks.linear.riccati.calls"] = \
        total["benchmarks.linear.riccati"][0] / n_runs
    out["benchmarks.uav.trim_s"] = per_run_s("benchmarks.uav.trim")
    out["config.parse_s"] = per_run_s("config.parse")
    out["config.resolve_s"] = per_run_s("config.resolve")
    out["config.overrides_s"] = per_run_s("config.overrides")
    out["trace.layers_absent"] = len(absent)
    return out, sorted(absent)


# --------------------------------------------------------------------------
# the benchmark


def environment():
    head = ROOT / ".git" / "HEAD"
    rev = "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        rev = ref
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            if ref_file.is_file():
                rev = ref_file.read_text().strip()
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {"git_rev": rev, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__, "blas": blas,
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "thread_env": {v: os.environ[v] for v in THREAD_VARS}}


class Bench:
    """One benchmark invocation: a workload at a seed, traced or not."""

    def __init__(self, wl, seed, seconds, trace, units, horizon=None):
        self.wl, self.seed, self.seconds, self.trace = wl, seed, seconds, trace
        self.units = units
        self.horizon = horizon if horizon is not None else wl.horizon_s
        self.start = time.perf_counter()
        self.work = WORK / f"{wl.name}-s{seed}-t{int(trace)}-{os.getpid()}"
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.digests = {}
        self.n_inv = 0
        self.calibration_s = []

    def _time_left(self):
        return DEADLINE_S - (time.perf_counter() - self.start)

    def _fail(self, what):
        self.failed += 1
        self.problems.append(what)

    def _spawn(self, argv, work):
        self.calibration_s.append(calibration_kernel())
        proc = spawn(argv, work, self._time_left())
        proc.calibration = len(self.calibration_s) - 1
        return proc

    def scale(self, proc):
        """Host-speed factor of one child, from the calibration samples
        taken just before and just after it."""
        k = proc.calibration
        return CALIBRATION_REF_S / median(self.calibration_s[k:k + 2])

    def scaled(self, proc, values):
        """`values` of one child at the reference host speed."""
        scale = self.scale(proc)
        return {name: v * scale ** SCALED_UNITS.get(self.units[name], 0)
                for name, v in values.items()}

    def setup_probe(self):
        d = self.work / f"setup{self.n_inv}"
        self.n_inv += 1
        d.mkdir(parents=True)
        proc = self._spawn(["setup", self.wl.config, str(d / "config.ini"),
                            *setup_overrides(self.wl, self.seed, self.horizon)], d)
        self.attempted += 1
        if proc.code != 0:
            self._fail(f"setup probe exit status {proc.code}")
        return proc

    def invoke(self, traced):
        """One CLI invocation; returns (Proc, RunOutputs, spans dir)."""
        d = self.work / f"inv{self.n_inv}"
        self.n_inv += 1
        out = d / "out"
        spans = d / "spans"
        spans.mkdir(parents=True)
        argv = cli_args(self.wl, self.seed, self.horizon, out)
        argv = ["trace", str(spans), *argv] if traced else ["run", *argv]
        proc = self._spawn(argv, d)
        runs = inspect_invocation(self.wl, out, proc.code)
        for r in runs:
            self.attempted += 1
            first = self.digests.setdefault(r.key, r.digest)
            if r.digest != first:
                r.problems.append("telemetry.csv differs from the first run "
                                  "of the same input")
            if r.problems:
                self._fail(f"{d.name}/{r.key}: {'; '.join(r.problems)}")
        return proc, runs, spans

    def repeat(self, step, min_repeats):
        """Call `step` until the run's seconds are used, at least
        `min_repeats` times; stops early near the process deadline.  Ends
        with the calibration sample that closes the last process."""
        t0 = time.perf_counter()
        durations = []
        while True:
            t = time.perf_counter()
            step()
            durations.append(time.perf_counter() - t)
            elapsed = time.perf_counter() - t0
            typical = median(durations)
            if self._time_left() < 2 * typical + 5:
                if len(durations) < min_repeats:
                    self._fail("deadline reached before the minimum repeats")
                break
            if len(durations) >= min_repeats and elapsed + typical > self.seconds:
                break
        self.calibration_s.append(calibration_kernel())

    def run_untraced(self):
        setups = [self.setup_probe() for _ in range(SETUP_REPEATS)]
        samples = []
        # two runs of one input at least, for the byte-identity check
        self.repeat(lambda: samples.append(self.invoke(traced=False)), 2)
        per_inv = []
        for proc, runs, _ in samples:
            if self.wl.sweep:
                steps_per_s = sum(r.steps for r in runs) / proc.wall_s
            else:
                steps_per_s = runs[0].steps / runs[0].loop_s
            per_inv.append(self.scaled(proc, {
                "wall_s": proc.wall_s, "steps_per_s": steps_per_s,
                "runs_per_s": len(runs) / proc.wall_s,
                "peak_rss_mb": proc.maxrss_mb}))
        metrics = {k: median(m[k] for m in per_inv) for k in per_inv[0]}
        metrics["setup_s"] = median(
            self.scaled(p, {"setup_s": p.wall_s})["setup_s"] for p in setups)
        metrics["ok_frac"] = (self.attempted - self.failed) / self.attempted
        # identical on every invocation: the byte-identity check compares them
        for name in ("weight_err_rel", "ehat_rms_tail", "att_err_max_deg",
                     "w_norm_peak_over_final"):
            metrics[name] = median(r.science.get(name, float("nan"))
                                   for r in samples[0][1])
        raw = {
            "setup_wall_s": [p.wall_s for p in setups],
            "wall_s": [p.wall_s for p, _, _ in samples],
            "cpu_s": [p.cpu_s for p, _, _ in samples],
            "loop_s": [[r.loop_s for r in runs] for _, runs, _ in samples],
            "tmp_files_created": [p.tmp_files for p, _, _ in samples],
        }
        return metrics, raw

    def run_traced(self):
        pairs = []

        def step():
            pairs.append((self.invoke(traced=False), self.invoke(traced=True)))

        self.repeat(step, 1)
        per_inv = []
        absent = []
        for (plain, plain_runs, _), (traced, runs, spans) in pairs:
            m, absent = layer_metrics(spans, runs)
            m = self.scaled(traced, m)
            m["trace.overhead_s"] = (traced.wall_s * self.scale(traced)
                                     - plain.wall_s * self.scale(plain))
            m["cli.artifact_bytes"] = sum(r.bytes for r in plain_runs) / len(plain_runs)
            m["config.tmp_files_created"] = plain.tmp_files
            busy = 0.0
            if self.wl.sweep:
                busy = sum(r.wall_s for r in plain_runs) / (SWEEP_WORKERS * plain.wall_s)
            m["cli.sweep_worker_busy_frac"] = busy
            per_inv.append(m)
        metrics = {k: median(m[k] for m in per_inv) for k in per_inv[0]}
        raw = {
            "wall_s": [p.wall_s for (p, _, _), _ in pairs],
            "traced_wall_s": [p.wall_s for _, (p, _, _) in pairs],
            "cpu_s": [p.cpu_s for (p, _, _), _ in pairs],
            "traced_cpu_s": [p.cpu_s for _, (p, _, _) in pairs],
            "absent": absent,
        }
        return metrics, raw

    def run(self):
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        try:
            if self.trace:
                metrics, raw = self.run_traced()
            else:
                metrics, raw = self.run_untraced()
        finally:
            shutil.rmtree(self.work, ignore_errors=True)
        overrides, grid = self.wl.inputs(self.seed)
        raw["calibration_s"] = self.calibration_s
        info = {"workload": self.wl.name, "seed": self.seed,
                "trace": int(self.trace), "horizon_s": self.horizon,
                "overrides": overrides, "grid": grid,
                "problems": self.problems[:20], "raw_samples": raw,
                "env": environment()}
        return metrics, info


def bench(workload, seed, seconds, trace, horizon=None):
    """Run the benchmark; returns (result line object, info object)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if trace else "end_to_end"]}
    all_units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    b = Bench(WORKLOADS[workload], seed, seconds, trace, all_units, horizon)
    metrics, info = b.run()
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} do not "
                           "match BENCHMARK.json")
    finite = all(math.isfinite(v) for v in metrics.values())
    result = {"correct": b.failed == 0 and finite,
              "attempted": b.attempted, "failed": b.failed,
              "metrics": {k: {"value": float(metrics[k]), "unit": units[k]}
                          for k in units}}
    return result, info


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*sorted(WORKLOADS), "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind: kill and reap the running child, remove the work dir
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "irltrack" / "cli.py").is_file():
        print(f"error: no irltrack sources under {SRC}", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    for name in names:
        result, info = bench(name, args.seed, args.seconds, bool(args.trace))
        (results / f"{name}-s{args.seed}-t{args.trace}.json").write_text(
            json.dumps({"result": result, "info": info}, indent=1))
        print(json.dumps(info))
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
