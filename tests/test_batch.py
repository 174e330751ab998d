"""Both forms of the step loop, batched and lone, against the scalar
reference loop.

`tests/reference.py` holds the scalar loop the package used to run, one
point at a time: every member of a batch, and every environment run as a
batch of one (the UAV, the integrator plant), agrees with the
reference run of its own config at every record, within 1e-12 of each
column's largest magnitude; a member's output does not depend on how the
sweep is cut into batches; a faulted member leaves the batch with the
reference run's fault while the others go on; and sweeps of the UAV,
which steps itself, and of the integrator batch too, each member writing
the bytes `irltrack run` writes for its point.
"""
import csv
import itertools
import re

import numpy as np
import pytest

import irltrack.cli as cli
import irltrack.learner as learner_module
import reference
from irltrack.basis import quad_basis
from irltrack.config import apply_overrides, parse_config, resolve
from irltrack.errors import NumericFault
from irltrack.sim import run_batch

TOL = 1e-12   # of each telemetry column's largest magnitude

# Each point varies several inputs at once; together they cover both laws,
# stabilizer and m-term on and off, nonzero k1/k2 gains, q2 in {0, 0.1}, a
# dither, two initial states and two discounts.  POINTS[1] and POINTS[6]
# are the criterion-8 containment pair (baseline and the degenerate law).
BASE = ["sim.t_end_s=2", "sim.record_every=7", "learner.alpha=150"]
POINTS = [
    [],
    ["experiment.law=baseline"],
    ["learner.stabilizer=on", "learner.k1_gain=0.01", "learner.k2_gain=0.01",
     "learner.gamma=0.3"],
    ["learner.m_term=on", "learner.k1_gain=0.01", "learner.k2_gain=0.01",
     "dither.amplitude=1"],
    ["learner.stabilizer=on", "learner.m_term=on", "learner.q2=0",
     "plant.x0=3 -1"],
    ["experiment.law=baseline", "plant.x0=3 -1", "learner.gamma=0.3",
     "dither.amplitude=1"],
    ["learner.q2=0"],
    ["learner.stabilizer=on", "learner.q2=0", "dither.amplitude=1",
     "learner.gamma=0.3"],
]


def load(tmp_path, overrides, name="c", config="linear_benchmark"):
    path = tmp_path / f"{name}.ini"
    apply_overrides(cli.resolve_config_path(config), overrides, path)
    cfg, errors = parse_config(path)
    assert not errors, errors
    return cfg


def scalar(cfg):
    """The reference loop's run of `cfg`: (telemetry, fault or None)."""
    env = resolve(cfg)
    try:
        return reference.run_env_experiment(
            env, quad_basis(env.dim_z), cfg.learner, cfg.sim,
            dither_spec=cfg.dither), None
    except NumericFault as fault:
        return fault.telemetry, fault


def batched(cfgs):
    return run_batch([(resolve(cfg), cfg.learner, cfg.dither, None)
                      for cfg in cfgs], cfgs[0].sim)


def column_error(ref, got):
    """Worst |got - ref| over the records, per column, relative to the
    column's largest |ref| (1 for a column of zeros)."""
    assert ref.shape == got.shape
    scale = np.max(np.abs(ref), axis=0, initial=0.0)
    scale[scale == 0] = 1.0
    return float(np.max(np.abs(got - ref) / scale, initial=0.0))


def test_every_member_matches_its_scalar_run(tmp_path):
    cfgs = [load(tmp_path, BASE + p, f"p{i}") for i, p in enumerate(POINTS)]
    results = batched(cfgs)
    for i, (cfg, (tel, fault)) in enumerate(zip(cfgs, results)):
        ref, ref_fault = scalar(cfg)
        assert fault is None and ref_fault is None
        assert len(tel.rows) == 287   # 2000 steps, every 7th and the last
        assert column_error(ref.rows, tel.rows) <= TOL, POINTS[i]
        assert tel.header == ref.header
    # criterion 8 inside one batch: baseline == the degenerate novel law
    W_base, W_degenerate = (results[i][0].columns("W") for i in (1, 6))
    assert float(np.max(np.abs(W_base - W_degenerate))) <= 1e-10
    # batches of one: the UAV before its divergence onset (0.16 s), the
    # integrator (m = 2), and a window of 10.5 steps (an interpolated
    # left edge and 11 intervals) with every law term on
    for config, overrides, rows in (
            ("uav_attitude", ["sim.t_end_s=0.15", "sim.record_every=1"], 151),
            ("linear_benchmark", ["sim.t_end_s=0.5", "experiment.plant=integrator",
                                  "plant.n=2", "saturation.r_diag=10 10"], 51),
            ("linear_benchmark", BASE + [
                "learner.t_window_s=0.0105", "learner.stabilizer=on",
                "learner.m_term=on", "learner.k1_gain=0.01",
                "learner.k2_gain=0.01", "dither.amplitude=1"], 287)):
        cfg = load(tmp_path, overrides, config, config)
        ((tel, fault),) = batched([cfg])
        ref, ref_fault = scalar(cfg)
        assert fault is None and ref_fault is None
        assert len(tel.rows) == rows and tel.header == ref.header
        assert column_error(ref.rows, tel.rows) <= TOL, config


def test_member_does_not_depend_on_its_batch(tmp_path):
    cfgs = [load(tmp_path, BASE[1:] + ["sim.t_end_s=0.3"] + p, f"p{i}")
            for i, p in enumerate(POINTS)]
    alone = [batched([cfg, cfg])[0][0].rows for cfg in cfgs]
    for order in (range(8), [7, 2, 5, 0, 3, 6, 1, 4]):
        results = batched([cfgs[i] for i in order])
        for i, (tel, _) in zip(order, results):
            assert np.array_equal(tel.rows, alone[i])
    # a batch of one takes the law's one-row forms, with the same bits
    for cfg, rows in zip(cfgs, alone):
        ((tel, _),) = batched([cfg])
        assert np.array_equal(tel.rows, rows)
    # the UAV past its divergence onset (0.16 s), with Xi toggling, a
    # linear member with two channels (m = 2), and a window of 10.5 steps
    # (an interpolated left edge and 11 intervals) with every law term on
    for config, overrides in (
            ("uav_attitude", ["sim.t_end_s=0.5", "sim.record_every=1"]),
            ("linear_benchmark", ["sim.t_end_s=0.3", "experiment.plant=integrator",
                                  "plant.n=2", "saturation.r_diag=10 10",
                                  "dither.amplitude=1"]),
            ("linear_benchmark", ["sim.t_end_s=0.3", "sim.record_every=1",
                                  "learner.alpha=150", "learner.t_window_s=0.0105",
                                  "learner.stabilizer=on", "learner.m_term=on",
                                  "learner.k1_gain=0.01", "learner.k2_gain=0.01",
                                  "dither.amplitude=1"])):
        cfg = load(tmp_path, overrides, config, config)
        ((tel, fault),) = batched([cfg])
        assert fault is None
        assert np.array_equal(tel.rows, batched([cfg, cfg])[0][0].rows)
    # a member whose own `advance` faults (the UAV with a 1e20 deg actuator
    # bound reaches the pitch guard) leaves with the same fault alone and
    # beside a healthy one
    faulty, healthy = (load(tmp_path, ["sim.t_end_s=0.05", "sim.record_every=1",
                                       f"saturation.u_m_deg={u_m}"], f"u_m{u_m}",
                            "uav_attitude")
                       for u_m in (1e20, 90))
    ((tel, fault),) = batched([faulty])
    (tel_2, fault_2), (_, no_fault) = batched([faulty, healthy])
    assert fault is not None and no_fault is None
    assert "pitch angle" in str(fault) and fault.step < 50
    assert (str(fault_2), fault_2.t, fault_2.step, fault_2.component) == \
        (str(fault), fault.t, fault.step, fault.component)
    assert np.array_equal(tel_2.rows, tel.rows)


def test_survivor_without_the_m_term_keeps_pushing_zero(tmp_path, monkeypatch):
    # the m-term row faults and leaves the baseline row alone in the batch:
    # its window samples of W . M stay 0.0, the one row's form included
    faulty, survivor = (load(tmp_path, ["sim.t_end_s=0.1"] + p, f"m{i}")
                        for i, p in enumerate((["learner.m_term=on", "learner.alpha=1e8"],
                                               ["experiment.law=baseline"])))
    pushed = []
    push = learner_module.WindowBuffer.push
    monkeypatch.setattr(learner_module.WindowBuffer, "push",
                        lambda buf, t, theta, cost, m:
                        pushed.append((len(cost), m)) or push(buf, t, theta, cost, m))
    (_, fault), (_, no_fault) = batched([faulty, survivor])
    assert fault is not None and no_fault is None
    alone = [m for rows, m in pushed if rows == 1]
    assert len(alone) > 50
    assert all(np.array_equal(m, [0.0]) for m in alone)


def sweep(tmp_path, name, *args):
    out = tmp_path / name
    code = cli.main(["sweep", "linear_benchmark", *args, "--out", str(out)])
    return code, out


def summary(out):
    with open(out / "summary.csv", newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def manifest_value(out, key):
    found = re.search(rf"^{key} = (.*)$", (out / "manifest.txt").read_text(),
                      re.M)
    return found and found.group(1)


def test_workers_cut_the_same_bytes(tmp_path):
    grid = ["--override", "sim.t_end_s=0.2", "--override", "learner.m_term=on",
            "--grid", "experiment.law=novel,baseline",
            "--grid", "learner.stabilizer=on,off",
            "--grid", "learner.gamma=0.1,0.3"]
    runs = {}
    for workers, batch_size in ((1, "8"), (2, "4"), (4, "2")):
        code, out = sweep(tmp_path, f"w{workers}", *grid,
                          "--workers", str(workers))
        assert code == cli.EXIT_OK
        rows = summary(out)
        assert len(rows) == 8
        for row in rows:
            assert manifest_value(out / row["run"], "batch_size") == batch_size
            row.pop("wall_s")
        runs[workers] = (rows, {row["run"]: (out / row["run"] / "telemetry.csv")
                                .read_bytes() for row in rows})
    assert runs[1] == runs[2] == runs[4]


def test_points_batch_only_with_the_same_sim_and_window(tmp_path):
    code, out = sweep(tmp_path, "sweep", "--override", "sim.t_end_s=0.1",
                      "--grid", "sim.record_every=5,10",
                      "--grid", "learner.t_window_s=0.001,0.002",
                      "--grid", "experiment.law=novel,baseline")
    assert code == cli.EXIT_OK
    for row in summary(out):
        run = out / row["run"]
        assert manifest_value(run, "batch_size") == "2"
        every = int(row["sim.record_every"])
        assert manifest_value(run, "records") == str(100 // every + 1)
        ref, fault = scalar(load(tmp_path, [
            "sim.t_end_s=0.1", f"sim.record_every={every}",
            f"learner.t_window_s={row['learner.t_window_s']}",
            f"experiment.law={row['experiment.law']}"]))
        got = np.loadtxt(run / "telemetry.csv", delimiter=",", skiprows=1)
        assert fault is None and column_error(ref.rows, got) <= TOL


@pytest.mark.parametrize("alpha", ["1e8", "1e308"])
def test_faulted_member_leaves_with_the_scalar_fault(tmp_path, alpha):
    # every step is a record, so the fault step is one too
    code, out = sweep(tmp_path, "sweep", "--override", "sim.t_end_s=0.5",
                      "--override", "sim.record_every=1",
                      "--grid", f"learner.alpha=150,{alpha}")
    assert code == cli.EXIT_NUMERIC
    assert [row["status"] for row in summary(out)] == ["ok", "exit3"]
    assert manifest_value(out / "run000", "batch_size") == "2"
    ref_tel, ref_fault = scalar(load(tmp_path, [
        "sim.t_end_s=0.5", "sim.record_every=1", f"learner.alpha={alpha}"]))
    assert ref_fault is not None
    # the same t, step, component and message as the reference run
    assert manifest_value(out / "run001", "status") == (
        f"numeric fault at t={ref_fault.t!r}, step {ref_fault.step}: "
        f"{ref_fault}")
    got = np.loadtxt(out / "run001" / "telemetry.csv", delimiter=",",
                     skiprows=1, ndmin=2)
    assert column_error(ref_tel.rows, got) <= TOL
    healthy, fault = scalar(load(tmp_path, ["sim.t_end_s=0.5", "sim.record_every=1",
                                            "learner.alpha=150"]))
    assert fault is None
    got = np.loadtxt(out / "run000" / "telemetry.csv", delimiter=",",
                     skiprows=1)
    assert column_error(healthy.rows, got) <= TOL


@pytest.mark.parametrize("config, overrides", [
    # past the UAV's divergence onset (0.16 s), every step a record
    ("uav_attitude", ["sim.t_end_s=0.5", "sim.record_every=1"]),
    # a catalog pair with two controls
    ("linear_benchmark", ["sim.t_end_s=0.1", "experiment.plant=integrator",
                          "plant.n=2", "saturation.r_diag=10 10"]),
])
def test_unbatched_sweeps_run_each_point_as_run_does(tmp_path, config,
                                                     overrides):
    # the UAV, which steps itself, batches like a catalog pair does, and
    # each member writes the bytes of its own run
    out = tmp_path / "sweep"
    args = [a for ov in overrides for a in ("--override", ov)]
    assert cli.main(["sweep", config, *args, "--grid", "learner.alpha=1,2",
                     "--out", str(out)]) == cli.EXIT_OK
    for i, alpha in enumerate(("1", "2")):
        run = out / f"run{i:03d}"
        assert manifest_value(run, "batch_size") == "2"
        ref = tmp_path / f"ref{i}"
        code, _ = cli.run_one(cli.resolve_config_path(config),
                              overrides + [f"learner.alpha={alpha}"], str(ref))
        assert code == cli.EXIT_OK
        assert (run / "telemetry.csv").read_bytes() == \
            (ref / "telemetry.csv").read_bytes()


def artifacts(run):
    """A run directory's telemetry.csv and series/ bytes, by name."""
    files = [run / "telemetry.csv", *sorted((run / "series").glob("*.dat"))]
    return {f.name: f.read_bytes() for f in files if f.is_file()}


def test_uav_sweep_batches_around_a_trim_failure(tmp_path):
    # 0.5 m/s has no trim and 100 m/s trims past full throttle (exit 4,
    # alone); the two points at 18 m/s batch together, and the one with a
    # 1e20 deg actuator bound faults
    overrides = ["sim.t_end_s=0.05", "sim.record_every=1"]
    args = [a for ov in overrides for a in ("--override", ov)]
    out = tmp_path / "sweep"
    assert cli.main(["sweep", "uav_attitude", *args,
                     "--grid", "saturation.u_m_deg=90,1e20",
                     "--grid", "plant.va_m_s=18,0.5,100",
                     "--out", str(out)]) == cli.EXIT_ORACLE
    assert [row["status"] for row in summary(out)] == \
        ["ok", "exit4", "exit4", "exit3", "exit4", "exit4"]
    assert [manifest_value(out / f"run00{i}", "batch_size")
            for i in (0, 3)] == ["2", "2"]
    for i, (u_m, va) in enumerate(itertools.product(("90", "1e20"),
                                                    ("18", "0.5", "100"))):
        ref = tmp_path / f"ref{i}"
        code, _ = cli.run_one(cli.resolve_config_path("uav_attitude"),
                              overrides + [f"saturation.u_m_deg={u_m}",
                                           f"plant.va_m_s={va}"], str(ref))
        assert code == {"18": cli.EXIT_NUMERIC if u_m == "1e20" else cli.EXIT_OK,
                        "0.5": cli.EXIT_ORACLE, "100": cli.EXIT_ORACLE}[va]
        run = out / f"run00{i}"
        assert artifacts(run) == artifacts(ref)
        assert manifest_value(run, "status") == manifest_value(ref, "status")
        if va != "18":   # no trim: the manifest says why, here and alone
            assert manifest_value(run, "status") == {
                "0.5": "oracle failure: plant.va_m_s = 0.5: trim solver failed: "
                       "The iteration is not making good progress, as measured "
                       "by the improvement from the last ten iterations.",
                "100": "oracle failure: plant.va_m_s = 100.0 trims at throttle "
                       "1.266, outside [0, 1]"}[va]


def test_every_sweep_point_gets_a_weight_error_series(tmp_path):
    code, out = sweep(tmp_path, "sweep", "--override", "sim.t_end_s=0.05",
                      "--grid", "experiment.law=novel,baseline",
                      "--grid", "learner.q2=0,0.1",
                      "--grid", "learner.gamma=0.1,0.2")
    assert code == cli.EXIT_OK
    for row in summary(out):
        assert (out / row["run"] / "series" /
                "weight_error_vs_oracle.dat").is_file()


@pytest.mark.parametrize("axis, code", [
    # sigma^400 overflows at the first stabilizer update: a numeric fault
    ("learner.k2=0.01,400", cli.EXIT_NUMERIC),
    # u_m^2 overflows: a configuration error naming the key
    ("saturation.u_m=56,1e200", cli.EXIT_CONFIG),
])
def test_an_overflow_fails_only_its_own_point(tmp_path, capsys, axis, code):
    overrides = ["sim.t_end_s=0.05", "sim.record_every=1",
                 "learner.stabilizer=on"]
    args = [a for ov in overrides for a in ("--override", ov)]
    key, _, values = axis.partition("=")
    code_sweep, out = sweep(tmp_path, "sweep", *args, "--grid", axis)
    assert code_sweep == code
    assert [row["status"] for row in summary(out)] == ["ok", f"exit{code}"]
    for i, value in enumerate(values.split(",")):
        ref = tmp_path / f"ref{i}"
        assert cli.main(["run", "linear_benchmark", *args, "--override",
                         f"{key}={value}", "--out", str(ref)]) == \
            (cli.EXIT_OK, code)[i]
        run = out / f"run00{i}"
        assert artifacts(run) == artifacts(ref)
        assert manifest_value(run, "status") == manifest_value(ref, "status")
    if code == cli.EXIT_NUMERIC:
        assert manifest_value(out / "run000", "batch_size") == "2"
        assert manifest_value(out / "run001", "status").startswith(
            "numeric fault at t=0.004, step 4: critic weights non-finite")
    else:
        assert manifest_value(out / "run001", "status") == \
            f"config error: {key}: u_m^2 must be finite, got u_m = 1e+200"
        assert f"{key}: u_m^2 must be finite" in capsys.readouterr().out


@pytest.mark.parametrize("horizon", ["1e300", "1e308"])
def test_a_horizon_without_room_for_its_telemetry_fails_only_its_point(
        tmp_path, horizon):
    # 1e300 s needs more telemetry rows than sys.maxsize, and 1e308 s / dt
    # overflows: the config is rejected before anything is allocated, and
    # only its own point fails, as a configuration error
    code, out = sweep(tmp_path, "sweep", "--grid", f"sim.t_end_s=0.01,{horizon}")
    assert code == cli.EXIT_CONFIG
    assert [row["status"] for row in summary(out)] == ["ok", "exit2"]
    assert (out / "summary.csv").read_text().splitlines()[1].startswith(
        "run000,0.01,ok,")
    ref = tmp_path / "ref"
    assert cli.main(["run", "linear_benchmark", "--override", "sim.t_end_s=0.01",
                     "--out", str(ref)]) == cli.EXIT_OK
    assert artifacts(out / "run000") == artifacts(ref)
    assert (out / "run000" / "telemetry.csv").is_file()
    assert manifest_value(out / "run001", "status").startswith(
        "config error: sim.t_end_s: ")
    assert not (out / "run001" / "telemetry.csv").exists()


def test_a_raising_batch_fails_only_its_own_points(tmp_path, monkeypatch):
    # two groups in one chunk; the second batch raises, the first has
    # already written its artifacts and keeps its status
    calls = []

    def second_raises(members, sim_cfg, csv_paths):
        calls.append(sim_cfg)
        if len(calls) == 2:
            raise RuntimeError("batch two broke")
        return run_batch(members, sim_cfg, csv_paths)
    monkeypatch.setattr(cli, "run_batch", second_raises)
    code, out = sweep(tmp_path, "sweep", "--override", "sim.t_end_s=0.01",
                      "--grid", "sim.record_every=1,2", "--workers", "1")
    assert code == cli.EXIT_NUMERIC and len(calls) == 2
    assert [row["status"] for row in summary(out)] == ["ok", "exit3"]
    assert manifest_value(out / "run000", "status") == "ok"
    assert (out / "run000" / "telemetry.csv").is_file()
    assert manifest_value(out / "run001", "status") == \
        "error: RuntimeError: batch two broke"
    assert not (out / "run001" / "telemetry.csv").exists()


def test_a_point_that_does_not_load_leaves_the_rest_of_its_chunk(tmp_path):
    # the middle point's config is rejected; its neighbours still run as
    # one batch of two, each writing the bytes of its lone run
    overrides = ["sim.t_end_s=0.05", "sim.record_every=1"]
    values = ["learner.alpha=100", "saturation.u_m=-1", "learner.alpha=200"]
    points = []
    for i, value in enumerate(values):
        out_dir = str(tmp_path / f"run{i}")
        path = cli._resolved_config(cli.resolve_config_path("linear_benchmark"),
                                    overrides + [value], out_dir)
        points.append(cli._Point(f"run{i}", path, overrides + [value], out_dir))
    assert [code for code, _ in cli._run(points)] == \
        [cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_OK]
    assert manifest_value(tmp_path / "run1", "status") == \
        "config error: saturation.u_m: u_m must be finite and > 0, got -1.0"
    for i, value in enumerate(values):
        ref = tmp_path / f"ref{i}"
        cli.run_one(cli.resolve_config_path("linear_benchmark"),
                    overrides + [value], str(ref))
        run = tmp_path / f"run{i}"
        assert artifacts(run) == artifacts(ref)
        assert manifest_value(run, "status") == manifest_value(ref, "status")
        assert manifest_value(run, "batch_size") == (None if i == 1 else "2")


def test_a_chunk_groups_its_points_by_environment(tmp_path):
    # one chunk holds two linear_osc points around an integrator point of
    # other dimensions: the pair runs as one batch, the integrator alone
    overrides = ["sim.t_end_s=0.05", "sim.record_every=1"]
    values = [["learner.alpha=100"],
              ["experiment.plant=integrator", "plant.n=2",
               "saturation.r_diag=10 10"],
              ["learner.alpha=200"]]
    points = []
    for i, value in enumerate(values):
        out_dir = str(tmp_path / f"run{i}")
        path = cli._resolved_config(cli.resolve_config_path("linear_benchmark"),
                                    overrides + value, out_dir)
        points.append(cli._Point(f"run{i}", path, overrides + value, out_dir))
    assert [code for code, _ in cli._run(points)] == [cli.EXIT_OK] * 3
    for i, value in enumerate(values):
        ref = tmp_path / f"ref{i}"
        cli.run_one(cli.resolve_config_path("linear_benchmark"),
                    overrides + value, str(ref))
        run = tmp_path / f"run{i}"
        assert artifacts(run) == artifacts(ref)
        assert manifest_value(run, "batch_size") == (None if i == 1 else "2")


def test_a_sweep_builds_each_point_once(tmp_path, monkeypatch):
    from irltrack.benchmarks import uav

    calls = []
    trim = uav.trim_level_flight

    def counting(va):
        calls.append(va)
        return trim(va)

    monkeypatch.setattr(uav, "trim_level_flight", counting)
    assert cli.main(["sweep", "uav_attitude", "--override", "sim.t_end_s=0.01",
                     "--grid", "learner.alpha=16.1,16.2,16.3", "--workers", "1",
                     "--out", str(tmp_path / "sweep")]) == cli.EXIT_OK
    assert len(calls) == 3
