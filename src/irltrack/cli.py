"""Command-line entry point: validate configs, run experiments, run the
oracle-check suite, and sweep hyperparameter grids.

Exit codes: 0 success, 2 configuration error, 3 numeric fault during a run,
4 oracle failure.  `_outcome` maps the exception that ends a validation or
a run to its code and status; anything unforeseen is exit 3 under its type.
"""
from __future__ import annotations

import argparse
import csv
import itertools
import os
import sys
import time
from importlib import resources
from typing import NamedTuple

import numpy as np

from . import __version__
from .benchmarks.linear import discounted_riccati, ideal_weights
from .config import apply_overrides, parse_config, parse_override, resolve
from .errors import ConfigurationError, NumericFault, OracleFailure
from .sim import Telemetry, run_batch

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_ORACLE = 4

_PLOT_STUB = """\
#!/usr/bin/env python3
# Plots of the run in this directory, one PNG each in series/: every
# telemetry.csv column against t, and every derived panel series/*.dat.
import csv, os
import matplotlib
matplotlib.use("Agg")
import matplotlib.pyplot as plt

run_dir = os.path.dirname(os.path.abspath(__file__))
series_dir = os.path.join(run_dir, "series")
with open(os.path.join(run_dir, "telemetry.csv"), newline="") as fh:
    rows = csv.reader(fh)
    header = next(rows)
    columns = [list(map(float, col)) for col in zip(*rows)] or [[]] * len(header)
plots = [(name, columns[0], ys) for name, ys in zip(header[1:], columns[1:])]
for name in sorted(os.listdir(series_dir)):
    if name.endswith(".dat"):
        with open(os.path.join(series_dir, name)) as fh:
            pairs = [tuple(map(float, line.split())) for line in fh]
        plots.append((name[:-4], [t for t, _ in pairs], [y for _, y in pairs]))
for name, xs, ys in plots:
    plt.figure(figsize=(6, 3))
    plt.plot(xs, ys, lw=0.8)
    plt.xlabel("t [s]"); plt.ylabel(name); plt.tight_layout()
    plt.savefig(os.path.join(series_dir, name + ".png"), dpi=120)
    plt.close()
"""


def resolve_config_path(arg: str) -> str:
    """Filesystem path, or the name of a bundled config (its installed path)."""
    if os.path.exists(arg):
        return arg
    name = arg[:-4] if arg.endswith(".ini") else arg
    pkg_file = resources.files("irltrack.configs").joinpath(f"{name}.ini")
    if pkg_file.is_file():
        return str(pkg_file)
    raise ConfigurationError(
        f"config {arg!r} is neither a file nor a bundled config name")


def _outcome(exc: Exception) -> tuple[int, str, list[str]]:
    """The exit code, status and detail lines of the exception that ends a
    validation or a point: a ConfigurationError is exit 2 with a line per
    line of its message, an OracleFailure exit 4, a NumericFault exit 3 at
    its time and step, and anything else exit 3 under its type, with its
    traceback on stderr."""
    if isinstance(exc, ConfigurationError):
        return EXIT_CONFIG, "config error", str(exc).splitlines()
    if isinstance(exc, OracleFailure):
        return EXIT_ORACLE, "oracle failure", [str(exc)]
    if isinstance(exc, NumericFault):
        where = f"t={exc.t!r}, step {exc.step}"
        return EXIT_NUMERIC, f"numeric fault at {where}", [str(exc)]
    import traceback
    traceback.print_exception(exc)
    return EXIT_NUMERIC, "error", [f"{type(exc).__name__}: {exc}"]


def cmd_validate(args) -> int:
    path = resolve_config_path(args.config)
    try:
        cfg, errors = parse_config(path)
        if errors:
            raise ConfigurationError("\n".join(errors))
        resolve(cfg)
    except Exception as exc:  # reported under its exit code
        code, status, detail = _outcome(exc)
        if code == EXIT_CONFIG:
            print(f"invalid: {args.config}")
            for e in detail:
                print(f"  - {e}")
        else:
            print(f"{status}: {args.config}: {'; '.join(detail)}")
        return code
    print(f"valid: {args.config} (experiment {cfg.name!r})")
    return EXIT_OK


def _write_manifest(path, cfg, telemetry: Telemetry | None, status: str,
                    wall_s: float, batch_size: int | None = None):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("[run]\n")
        fh.write(f"status = {status}\n")
        fh.write(f"code_version = {__version__}\n")
        fh.write(f"wall_time_s = {wall_s:.3f}\n")
        if batch_size is not None:
            fh.write(f"batch_size = {batch_size}\n")
        if telemetry is not None:
            fh.write(f"records = {len(telemetry.rows)}\n")
        fh.write("\n")
        for section, items in (cfg.raw.items() if cfg is not None else ()):
            fh.write(f"[{section}]\n")
            for k, v in items.items():
                fh.write(f"{k} = {v}\n")
            fh.write("\n")
        if telemetry is not None and telemetry.warnings:
            fh.write("[warnings]\n")
            for i, (kind, seen) in enumerate(telemetry.warnings.items()):
                fh.write(f"w{i} = {kind}: {seen.count} steps, first t={seen.t_first:.3f}, "
                         f"last t={seen.t_last:.3f}\n")


def _oracle_weights(pair, lcfg) -> np.ndarray | None:
    """W* of the discounted Riccati solution of a linear pair, in the
    critic's feature order; None without a pair or a solution."""
    if pair is None:
        return None
    try:
        P = discounted_riccati(*pair, lcfg.Q1, lcfg.sat.R, lcfg.gamma)
    except OracleFailure:
        return None  # no ground truth for this pair, so no error series
    return ideal_weights(P)


def _weight_error(W: np.ndarray, W_star: np.ndarray) -> np.ndarray:
    """|W - W*| / |W*| per row.  A row whose squares overflow is scaled by
    its largest entry first; every other row is the plain formula."""
    d = W - W_star
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(d, axis=1)
        big = ~np.isfinite(norm)
        if big.any():
            scale = np.max(np.abs(d[big]), axis=1)
            norm[big] = scale * np.linalg.norm(d[big] / scale[:, None], axis=1)
        return norm / np.linalg.norm(W_star)


def _write_series(out_dir, env, telemetry: Telemetry, W_star: np.ndarray | None):
    """Write series/ with the derived plot panels, and the plot stub.

    The panels are the environment's own and, given the Riccati ground
    truth W* (`_oracle_weights`), `weight_error_vs_oracle`; each is written
    as `series/<name>.dat`, one `t value` line per telemetry row, both as
    repr(float).  Logged columns are not copied: the stub reads them from
    telemetry.csv.
    """
    series_dir = os.path.join(out_dir, "series")
    os.makedirs(series_dir, exist_ok=True)
    panels = env.series(telemetry)
    # W* = 0 (no state cost) has no relative error
    if W_star is not None and np.linalg.norm(W_star) > 0:
        panels["weight_error_vs_oracle"] = _weight_error(telemetry.columns("W"),
                                                         W_star)

    t_strs = [f"{t!r} " for t in telemetry.t.tolist()]    # shared by the panels
    for name, ys in panels.items():
        with open(os.path.join(series_dir, name + ".dat"), "w",
                  encoding="utf-8") as fh:
            fh.writelines(f"{t}{y!r}\n" for t, y in zip(t_strs, ys.tolist()))
    with open(os.path.join(out_dir, "plot_series.py"), "w", encoding="utf-8") as fh:
        fh.write(_PLOT_STUB)


def _write_artifacts(out_dir, cfg, env, telemetry: Telemetry | None,
                     fault: NumericFault | None, wall_s: float, W_star,
                     batch_size: int | None = None) -> int:
    """Write one run's telemetry.csv, series/ and manifest.txt; returns its
    exit code."""
    code, status = EXIT_OK, "ok"
    if fault is not None:
        code, status, detail = _outcome(fault)
        status += f": {detail[0]}"
    if telemetry is not None:
        _write_series(out_dir, env, telemetry, W_star)
        telemetry.to_csv(os.path.join(out_dir, "telemetry.csv"))
    _write_manifest(os.path.join(out_dir, "manifest.txt"), cfg, telemetry,
                    status, wall_s, batch_size)
    return code


def _resolved_config(config_path: str, overrides, out_dir: str) -> str:
    """The config a run reads: with overrides, `out_dir/config_resolved.ini`.
    The regular files an earlier run left in `out_dir` (telemetry.csv,
    manifest.txt, plot_series.py, config_resolved.ini and those in series/)
    are removed first, except the config being read.  A run directory or
    file that cannot be created or removed is a ConfigurationError naming
    --out."""
    eff_path = os.path.join(out_dir, "config_resolved.ini")
    series = os.path.join(out_dir, "series")
    try:
        os.makedirs(out_dir, exist_ok=True)
        stale = [os.path.join(out_dir, name) for name in (
            "telemetry.csv", "manifest.txt", "plot_series.py", "config_resolved.ini")]
        if os.path.isdir(series):
            stale += [os.path.join(series, name) for name in os.listdir(series)]
        for path in stale:
            if os.path.isfile(path) and \
                    os.path.realpath(path) != os.path.realpath(config_path):
                os.remove(path)
        if overrides:
            apply_overrides(config_path, overrides, eff_path)
    except OSError as exc:
        raise ConfigurationError(
            f"--out: cannot create {exc.filename}: {exc.strerror}") from None
    return eff_path if overrides else config_path


def run_one(config_path: str, overrides=(), out_dir: str = "runs/run"):
    """Execute one experiment; writes telemetry.csv, manifest.txt, series/.

    Returns (exit_code, telemetry_or_None).
    """
    eff_path = _resolved_config(config_path, overrides, out_dir)
    ((code, telemetry),) = _run([_Point("run", eff_path, list(overrides),
                                        out_dir)])
    return code, telemetry


def cmd_run(args) -> int:
    path = resolve_config_path(args.config)
    code, telemetry = run_one(path, overrides=args.override, out_dir=args.out)
    if code == EXIT_OK:
        print(f"run complete: {len(telemetry.rows)} records -> {args.out}")
    else:
        print(f"run failed with exit code {code}; artifacts in {args.out}")
    return code


def cmd_check(args) -> int:
    from .checks import run_all
    all_ok = True
    for name, ok, detail in run_all():
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
        all_ok &= ok
    return EXIT_OK if all_ok else EXIT_ORACLE


def _settle_time(t, e_norm):
    peak = float(np.max(e_norm))
    if peak <= 0:
        return 0.0
    thresh = 0.05 * peak
    above = np.flatnonzero(e_norm > thresh)
    if len(above) == 0:
        return float(t[0])
    if above[-1] == len(e_norm) - 1:
        return float("nan")
    return float(t[above[-1] + 1])


class _Point(NamedTuple):
    """One run or sweep grid point."""

    run_name: str
    config_path: str     # the point's resolved config
    overrides: list
    out_dir: str


def _chunks(n: int, workers: int) -> list[range]:
    """At most `workers` contiguous, near-equal ranges of range(n)."""
    parts = min(workers, n)
    size, extra = divmod(n, parts)
    starts = [j * size + min(j, extra) for j in range(parts + 1)]
    return [range(lo, hi) for lo, hi in zip(starts, starts[1:])]


def _rms(v: np.ndarray) -> float:
    """sqrt(mean(v^2)); when the squares overflow, v is scaled by its
    largest |entry| first."""
    with np.errstate(over="ignore"):
        rms = float(np.sqrt(np.mean(v ** 2)))
    if np.isinf(rms):
        scale = float(np.max(np.abs(v)))
        rms = scale * float(np.sqrt(np.mean((v / scale) ** 2)))
    return rms


def _summary_row(point: _Point, status: str, telemetry: Telemetry | None,
                 wall: float) -> dict:
    row = {"run": point.run_name}
    for ov in point.overrides:
        section, option, value = parse_override(ov)
        row[f"{section}.{option}"] = value
    if telemetry is None or len(telemetry.rows) == 0:
        row.update(status=status, ehat_rms_last10="", peak_z_norm="",
                   settle_time_s="", wall_s=f"{wall:.2f}")
        return row
    t = telemetry.t
    eh = np.abs(telemetry.column("e_hat"))
    n = max(1, len(eh) // 10)
    z = telemetry.columns("z")
    e_norm = np.linalg.norm(z[:, : z.shape[1] // 2], axis=1)
    row.update(
        status=status,
        ehat_rms_last10=repr(_rms(eh[-n:])),
        peak_z_norm=repr(float(np.max(np.linalg.norm(z, axis=1)))),
        settle_time_s=repr(_settle_time(t, e_norm)),
        wall_s=f"{wall:.2f}")
    return row


def _fail(point: _Point, cfg, outcome, wall_s: float) -> int:
    """Print the detail lines of a point's `_outcome` and write its
    manifest, with the status and no records; returns the exit code."""
    code, status, detail = outcome
    for e in detail:
        print(f"  - {e}")
    _write_manifest(os.path.join(point.out_dir, "manifest.txt"), cfg, None,
                    f"{status}: {'; '.join(detail)}", wall_s)
    return code


def _run(points: list[_Point]) -> list[tuple[int, Telemetry | None]]:
    """Load the points and run those that load, one batch per group that
    shares plant/reference ids, [sim], window T and the environment's
    dimensions; writes their artifacts and returns (exit code, telemetry or
    None) per point.  The telemetry.csv of a batch of one is streamed to
    its writer process from the loop on (`run_batch`), and completed by
    `to_csv`.  A point that does not parse or resolve gets only its
    manifest (`_fail`), with the status `_outcome` maps its error to; so
    does each point of a batch that raises (such as a ConfigurationError
    for a [sim] `run_batch` rejects) and has not written its artifacts,
    whose writer is stopped without a file.  A batch manifest's wall time
    is its loop's / B, with `batch_size = B` when B > 1."""
    out: list = [None] * len(points)
    groups: dict = {}
    for i, point in enumerate(points):
        t0, cfg = time.perf_counter(), None
        try:
            cfg, errors = parse_config(point.config_path)
            if errors:
                raise ConfigurationError("\n".join(errors))
            env = resolve(cfg)
        except Exception as exc:  # the point fails, not its chunk
            out[i] = (_fail(point, cfg, _outcome(exc), time.perf_counter() - t0),
                      None)
            continue
        key = (cfg.plant_id, cfg.reference_id, cfg.sim, cfg.learner.T,
               env.dim_z, env.m, len(env.x), len(env.x_d))
        groups.setdefault(key, []).append((i, cfg, env))
    for batch in groups.values():
        t0 = time.perf_counter()
        results = []
        try:
            results = run_batch(
                [(env, cfg.learner, cfg.dither, None) for _, cfg, env in batch],
                batch[0][1].sim,
                csv_paths=[os.path.join(points[i].out_dir, "telemetry.csv")
                           for i, _, _ in batch])
            wall = (time.perf_counter() - t0) / len(batch)
            for (i, cfg, env), (telemetry, fault) in zip(batch, results):
                W_star = _oracle_weights(env.linear_pair(), cfg.learner)
                out[i] = (_write_artifacts(points[i].out_dir, cfg, env,
                                           telemetry, fault, wall, W_star,
                                           len(batch) if len(batch) > 1 else None),
                          telemetry)
        except Exception as exc:  # the batch fails, not its chunk
            for telemetry, _ in results:    # the writers of unwritten artifacts
                telemetry.abort_csv()
            outcome = _outcome(exc)
            wall = (time.perf_counter() - t0) / len(batch)
            for i, cfg, _ in batch:
                if out[i] is None:
                    out[i] = (_fail(points[i], cfg, outcome, wall), None)
    return out


def _sweep_worker(chunk: list[_Point]) -> list[tuple[int, dict]]:
    """Run one task of a sweep, its points batched by `_run`.  Returns (exit
    code, summary row) per point; `_run` gives every point its own
    status."""
    t0 = time.perf_counter()
    results = _run(chunk)
    wall = (time.perf_counter() - t0) / len(chunk)
    return [(code, _summary_row(p, "ok" if code == EXIT_OK else f"exit{code}",
                                telemetry, wall))
            for p, (code, telemetry) in zip(chunk, results)]


def cmd_sweep(args) -> int:
    if args.workers < 1:
        print(f"error: --workers must be >= 1, got {args.workers}")
        return EXIT_CONFIG
    path = resolve_config_path(args.config)
    axes, seen = [], set()
    for spec_arg in args.grid:
        try:
            section, option, values = parse_override(spec_arg)
            vals = [v.strip() for v in values.split(",") if v.strip()]
        except ConfigurationError:
            vals = []
        if not vals:
            print(f"error: bad grid axis {spec_arg!r} "
                  "(expected section.key=v1,v2,...)")
            return EXIT_CONFIG
        key = f"{section}.{option}"
        if key in seen:
            print(f"error: grid axis {key!r} is given more than once")
            return EXIT_CONFIG
        seen.add(key)
        axes.append([(key, v) for v in vals])
    combos = list(itertools.product(*axes)) if axes else [()]
    points = []    # making run000 makes args.out
    for i, combo in enumerate(combos):
        overrides = list(args.override) + [f"{k}={v}" for k, v in combo]
        name = f"run{i:03d}"
        out_dir = os.path.join(args.out, name)
        points.append(_Point(name, _resolved_config(path, overrides, out_dir),
                             overrides, out_dir))
    tasks = [points[c.start:c.stop] for c in _chunks(len(points), args.workers)]

    if args.workers > 1 and len(tasks) > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=len(tasks)) as pool:
            done = list(pool.map(_sweep_worker, tasks))
    else:
        done = [_sweep_worker(task) for task in tasks]
    results = list(itertools.chain.from_iterable(done))
    codes, rows = zip(*results)
    # every row starts with "run"; the other columns in first-seen order
    cols = list(dict.fromkeys(k for row in rows for k in row))
    summary = os.path.join(args.out, "summary.csv")
    with open(summary, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(cols)
        writer.writerows([row.get(c, "") for c in cols] for row in rows)
    failed = [code for code in codes if code != EXIT_OK]
    print(f"sweep complete: {len(rows) - len(failed)}/{len(rows)} runs ok -> {summary}")
    return failed[0] if failed else EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="irltrack",
        description="Critic-only reinforcement tracking control experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser("validate", help="check a config file")
    p_val.add_argument("config")
    p_val.set_defaults(func=cmd_validate)

    p_run = sub.add_parser("run", help="run one experiment")
    p_run.add_argument("config")
    p_run.add_argument("--override", action="append", default=[],
                       metavar="SECTION.KEY=VALUE")
    p_run.add_argument("--out", default="runs/run")
    p_run.set_defaults(func=cmd_run)

    p_chk = sub.add_parser("check", help="run the oracle-check suite")
    p_chk.set_defaults(func=cmd_check)

    p_swp = sub.add_parser("sweep", help="run a hyperparameter grid")
    p_swp.add_argument("config")
    p_swp.add_argument("--grid", action="append", default=[],
                       metavar="SECTION.KEY=V1,V2,...")
    p_swp.add_argument("--override", action="append", default=[],
                       metavar="SECTION.KEY=VALUE")
    p_swp.add_argument("--out", default="runs/sweep")
    p_swp.add_argument("--workers", type=int, default=1)
    p_swp.set_defaults(func=cmd_sweep)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"error: {exc}")
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
