"""Command-line entry point: validate configs, run experiments, run the
oracle-check suite, and sweep hyperparameter grids.

Exit codes: 0 success, 2 configuration error, 3 numeric fault during a run,
4 oracle failure.
"""
from __future__ import annotations

import argparse
import itertools
import os
import sys
import time
from importlib import resources

import numpy as np

from . import __version__
from .basis import quad_basis
from .benchmarks.linear import discounted_riccati, ideal_weights
from .config import apply_overrides, parse_config, resolve
from .errors import ConfigurationError, NumericFault, OracleFailure
from .sim import Telemetry, run_env_experiment

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


def cmd_validate(args) -> int:
    path = resolve_config_path(args.config)
    cfg, errors = parse_config(path)
    if not errors:
        try:
            resolve(cfg)
        except ConfigurationError as exc:
            errors.append(str(exc))
        except OracleFailure as exc:
            print(f"oracle failure: {args.config}: {exc}")
            return EXIT_ORACLE
    if errors:
        print(f"invalid: {args.config}")
        for e in errors:
            print(f"  - {e}")
        return EXIT_CONFIG
    print(f"valid: {args.config} (experiment {cfg.name!r})")
    return EXIT_OK


def _write_manifest(path, cfg, telemetry: Telemetry | None, status: str,
                    wall_s: float):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("[run]\n")
        fh.write(f"status = {status}\n")
        fh.write(f"code_version = {__version__}\n")
        fh.write(f"wall_time_s = {wall_s:.3f}\n")
        if telemetry is not None:
            fh.write(f"records = {len(telemetry.rows)}\n")
        fh.write("\n")
        for section, items in cfg.raw.items():
            fh.write(f"[{section}]\n")
            for k, v in items.items():
                fh.write(f"{k} = {v}\n")
            fh.write("\n")
        if telemetry is not None and telemetry.warnings:
            fh.write("[warnings]\n")
            for i, (kind, seen) in enumerate(telemetry.warnings.items()):
                fh.write(f"w{i} = {kind}: {seen.count} steps, first t={seen.t_first:.3f}, "
                         f"last t={seen.t_last:.3f}\n")


def _write_series(out_dir, cfg, env, telemetry: Telemetry):
    """Write series/ with the derived plot panels, and the plot stub.

    The panels are the environment's own and, when the pair has a Riccati
    ground truth, `weight_error_vs_oracle`; each is written as
    `series/<name>.dat`, one `t value` line per telemetry row, both as
    repr(float).  Logged columns are not copied: the stub reads them from
    telemetry.csv.
    """
    series_dir = os.path.join(out_dir, "series")
    os.makedirs(series_dir, exist_ok=True)
    panels = env.series(telemetry)
    pair = env.linear_pair()
    if pair is not None:
        lcfg = cfg.learner
        try:
            P = discounted_riccati(*pair, lcfg.Q1, lcfg.sat.R, lcfg.gamma)
        except OracleFailure:
            pass  # no ground truth for this pair, so no error series
        else:
            W_star = ideal_weights(P, quad_basis(len(P)))
            w_norm = np.linalg.norm(W_star)
            if w_norm > 0:  # W* = 0 (no state cost) has no relative error
                panels["weight_error_vs_oracle"] = np.linalg.norm(
                    telemetry.columns("W") - W_star, axis=1) / w_norm

    ts = telemetry.t.tolist()
    for name, ys in panels.items():
        with open(os.path.join(series_dir, name + ".dat"), "w",
                  encoding="utf-8") as fh:
            fh.writelines(f"{t!r} {y!r}\n" for t, y in zip(ts, ys.tolist()))
    with open(os.path.join(out_dir, "plot_series.py"), "w", encoding="utf-8") as fh:
        fh.write(_PLOT_STUB)


def run_one(config_path: str, overrides=(), out_dir: str = "runs/run",
            law: str | None = None):
    """Execute one experiment; writes telemetry.csv, manifest.txt, series/.

    Returns (exit_code, telemetry_or_None, cfg_or_None).
    """
    os.makedirs(out_dir, exist_ok=True)
    eff_path = config_path
    overrides = list(overrides)
    if law:
        overrides.append(f"experiment.law={law}")
    if overrides:
        eff_path = os.path.join(out_dir, "config_resolved.ini")
        apply_overrides(config_path, overrides, eff_path)
    cfg, errors = parse_config(eff_path)
    if errors:
        for e in errors:
            print(f"  - {e}")
        return EXIT_CONFIG, None, cfg
    try:
        env, basis = resolve(cfg)
    except (ConfigurationError, OracleFailure) as exc:
        print(f"  - {exc}")
        return (EXIT_ORACLE if isinstance(exc, OracleFailure) else EXIT_CONFIG,
                None, cfg)

    t0 = time.perf_counter()
    status, telemetry, code = "ok", None, EXIT_OK
    try:
        telemetry = run_env_experiment(env, basis, cfg.learner, cfg.sim,
                                       law=cfg.law, dither_spec=cfg.dither)
    except NumericFault as fault:
        telemetry = fault.telemetry
        status = f"numeric fault at t={fault.t!r}, step {fault.step}: {fault}"
        code = EXIT_NUMERIC
    wall = time.perf_counter() - t0

    if telemetry is not None:
        _write_series(out_dir, cfg, env, telemetry)
        telemetry.to_csv(os.path.join(out_dir, "telemetry.csv"))
    _write_manifest(os.path.join(out_dir, "manifest.txt"), cfg, telemetry,
                    status, wall)
    return code, telemetry, cfg


def cmd_run(args) -> int:
    path = resolve_config_path(args.config)
    code, telemetry, cfg = run_one(path, overrides=args.override,
                                   out_dir=args.out, law=args.law)
    if code == EXIT_OK:
        print(f"run complete: {len(telemetry.rows)} records -> {args.out}")
    else:
        print(f"run failed with exit code {code}; artifacts in {args.out}")
    return code


def cmd_check(args) -> int:
    from .checks import run_all
    results = run_all(gamma=args.gamma)
    all_ok = True
    for name, ok, detail in results:
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


def _sweep_worker(task):
    config_path, overrides, out_dir, run_name = task
    t0 = time.perf_counter()
    row = {"run": run_name}
    row.update(ov.partition("=")[::2] for ov in overrides)
    try:
        code, telemetry, cfg = run_one(config_path, overrides=overrides,
                                       out_dir=out_dir)
    except Exception as exc:  # worker must always report a row
        row.update(status=f"error: {exc}", ehat_rms_last10="", peak_z_norm="",
                   settle_time_s="", wall_s=f"{time.perf_counter()-t0:.2f}")
        return row
    wall = time.perf_counter() - t0
    if telemetry is None or len(telemetry.rows) == 0:
        row.update(status=f"exit{code}", ehat_rms_last10="", peak_z_norm="",
                   settle_time_s="", wall_s=f"{wall:.2f}")
        return row
    t = telemetry.t
    eh = np.abs(telemetry.column("e_hat"))
    n = max(1, len(eh) // 10)
    z = telemetry.columns("z")
    e_norm = np.linalg.norm(z[:, : z.shape[1] // 2], axis=1)
    row.update(
        status="ok" if code == EXIT_OK else f"exit{code}",
        ehat_rms_last10=repr(float(np.sqrt(np.mean(eh[-n:] ** 2)))),
        peak_z_norm=repr(float(np.max(np.linalg.norm(z, axis=1)))),
        settle_time_s=repr(_settle_time(t, e_norm)),
        wall_s=f"{wall:.2f}")
    return row


def cmd_sweep(args) -> int:
    if args.workers < 1:
        print(f"error: --workers must be >= 1, got {args.workers}")
        return EXIT_CONFIG
    path = resolve_config_path(args.config)
    axes = []
    for spec_arg in args.grid:
        key, _, values = spec_arg.partition("=")
        vals = [v for v in values.split(",") if v != ""]
        if not key or not vals:
            print(f"error: bad grid axis {spec_arg!r} (expected key=v1,v2,...)")
            return EXIT_CONFIG
        axes.append([(key.strip(), v.strip()) for v in vals])
    combos = list(itertools.product(*axes)) if axes else [()]
    os.makedirs(args.out, exist_ok=True)
    tasks = []
    for i, combo in enumerate(combos):
        overrides = list(args.override) + [f"{k}={v}" for k, v in combo]
        run_name = f"run{i:03d}"
        tasks.append((path, overrides, os.path.join(args.out, run_name), run_name))

    if args.workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=args.workers) as pool:
            rows = list(pool.map(_sweep_worker, tasks))
    else:
        rows = [_sweep_worker(t) for t in tasks]

    cols = ["run"]
    for row in rows:
        for k in row:
            if k not in cols:
                cols.append(k)
    summary = os.path.join(args.out, "summary.csv")
    with open(summary, "w", encoding="utf-8") as fh:
        fh.write(",".join(cols) + "\n")
        for row in rows:
            fh.write(",".join(str(row.get(c, "")) for c in cols) + "\n")
    n_ok = sum(1 for r in rows if r.get("status") == "ok")
    print(f"sweep complete: {n_ok}/{len(rows)} runs ok -> {summary}")
    return EXIT_OK if n_ok == len(rows) else EXIT_NUMERIC


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
    p_run.add_argument("--law", choices=["novel", "baseline"], default=None)
    p_run.set_defaults(func=cmd_run)

    p_chk = sub.add_parser("check", help="run the oracle-check suite")
    p_chk.add_argument("--gamma", type=float, default=0.1)
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
