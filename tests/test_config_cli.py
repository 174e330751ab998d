import configparser
import csv
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest

import irltrack.cli as cli
from irltrack.config import parse_config, read_config, resolve
from irltrack.errors import ConfigurationError


def bundled(name):
    return cli.resolve_config_path(name)


def assert_two_float_columns(series_dir):
    """Every line of every series file is 't value', both plain floats."""
    for path in series_dir.glob("*.dat"):
        for line in path.read_text().splitlines():
            a, b = line.split()
            float(a), float(b)


def edited_config(tmp_path, name, overrides):
    src = bundled(name)
    dst = tmp_path / "edited.ini"
    from irltrack.config import apply_overrides
    apply_overrides(src, overrides, dst)
    return str(dst)


class TestValidate:
    def test_bundled_configs_are_valid(self):
        for name in ("linear_benchmark", "uav_attitude"):
            cfg, errors = parse_config(bundled(name))
            assert not errors
            resolve(cfg)

    def test_negative_um_names_field(self, tmp_path):
        path = edited_config(tmp_path, "linear_benchmark",
                             ["saturation.u_m=-1"])
        cfg, errors = parse_config(path)
        assert any("saturation.u_m" in e for e in errors)

    def test_window_shorter_than_dt_names_constraint(self, tmp_path):
        path = edited_config(tmp_path, "linear_benchmark",
                             ["learner.t_window_s=0.0005"])
        cfg, errors = parse_config(path)
        assert any("sim.dt_s" in e and "t_window_s" in e for e in errors)

    def test_unknown_plant_lists_catalog(self, tmp_path):
        path = edited_config(tmp_path, "linear_benchmark",
                             ["experiment.plant=warp_drive"])
        cfg, errors = parse_config(path)
        with pytest.raises(ConfigurationError, match="experiment.plant"):
            resolve(cfg)

    def test_cli_exit_codes(self, tmp_path):
        assert cli.main(["validate", "linear_benchmark"]) == cli.EXIT_OK
        assert cli.main(["validate", "uav_attitude"]) == cli.EXIT_OK
        bad = edited_config(tmp_path, "linear_benchmark", ["saturation.u_m=-1"])
        assert cli.main(["validate", bad]) == cli.EXIT_CONFIG
        assert cli.main(["validate", "no_such_config"]) == cli.EXIT_CONFIG


class TestRun:
    def test_artifacts_written(self, tmp_path):
        out = tmp_path / "run"
        code = cli.main(["run", "linear_benchmark",
                         "--override", "sim.t_end_s=0.5",
                         "--out", str(out)])
        assert code == cli.EXIT_OK
        assert (out / "telemetry.csv").is_file()
        assert (out / "manifest.txt").is_file()
        assert (out / "plot_series.py").is_file()
        assert os.listdir(out / "series") == ["weight_error_vs_oracle.dat"]
        assert (out / "series" / "weight_error_vs_oracle.dat").stat().st_size
        assert_two_float_columns(out / "series")
        header = (out / "telemetry.csv").read_text().splitlines()[0]
        assert header.startswith("t,z0,")
        manifest = (out / "manifest.txt").read_text()
        assert "status = ok" in manifest and "code_version" in manifest

    def test_law_override_recorded(self, tmp_path):
        out = tmp_path / "runb"
        code = cli.main(["run", "linear_benchmark",
                         "--override", "sim.t_end_s=0.5",
                         "--override", "experiment.law=baseline",
                         "--out", str(out)])
        assert code == cli.EXIT_OK
        assert "law = baseline" in (out / "manifest.txt").read_text().splitlines()

    def test_reproducible_byte_identical(self, tmp_path):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"rep_{tag}"
            assert cli.main(["run", "linear_benchmark",
                             "--override", "sim.t_end_s=0.5",
                             "--out", str(out)]) == cli.EXIT_OK
            outs.append((out / "telemetry.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_numeric_fault_flushes_partial_artifacts(self, tmp_path):
        out = tmp_path / "fault"
        code = cli.main(["run", "linear_benchmark",
                         "--override", "learner.alpha=1e308",
                         "--override", "sim.t_end_s=1.0",
                         "--out", str(out)])
        assert code == cli.EXIT_NUMERIC
        assert (out / "telemetry.csv").is_file()
        manifest = (out / "manifest.txt").read_text()
        assert "numeric fault" in manifest
        # the status line says when: the step's time and index
        found = re.search(r"^status = numeric fault at t=(\S+), step (\d+): ",
                          manifest, re.M)
        assert found, manifest
        assert float(found.group(1)) == int(found.group(2)) * 1e-3

    def test_config_error_exit(self, tmp_path):
        out = tmp_path / "cfg"
        code = cli.main(["run", "linear_benchmark",
                         "--override", "saturation.u_m=-5",
                         "--out", str(out)])
        assert code == cli.EXIT_CONFIG


class TestCheck:
    def test_fresh_suite_passes(self, capsys):
        assert cli.main(["check"]) == cli.EXIT_OK
        out = capsys.readouterr().out
        assert out.count("[PASS]") == 6 and "[FAIL]" not in out

    def test_perturbed_penalty_detected(self, capsys, monkeypatch):
        import irltrack.checks as checks
        penalty_closed = checks.penalty_closed
        monkeypatch.setattr(checks, "penalty_closed",
                            lambda tau, sat: penalty_closed(tau, sat) + 1e-3)
        assert cli.main(["check"]) == cli.EXIT_ORACLE
        out = capsys.readouterr().out
        assert "[FAIL] penalty closed-form vs quadrature" in out

    def test_oracle_off_the_scipy_solution_detected(self, capsys, monkeypatch):
        # a 1e-9 offset on the unpenalised x_d block moves the residual by
        # 1.4e-10, under its 1e-9 gate, and P by 2.8e-10 relative to scipy's
        import irltrack.checks as checks
        solve = checks.discounted_riccati

        def offset(*args):
            P = solve(*args)
            P[2:, 2:] += 1e-9 * np.eye(2)
            return P
        monkeypatch.setattr(checks, "discounted_riccati", offset)
        assert cli.main(["check"]) == cli.EXIT_ORACLE
        assert "[FAIL] Riccati oracle residual" in capsys.readouterr().out

    def test_gamma_zero_edge_uses_cT_form(self):
        import irltrack.checks as checks
        _, ok, detail = checks.check_discounted_quadrature(gamma=0.0)
        assert ok and "gamma=0" in detail
        assert checks.check_window_identity(gamma=0.0)[1]

    def test_gamma_is_not_a_flag(self):
        # the suite runs its fixed problems at the bundled gamma = 0.1
        with pytest.raises(SystemExit) as exc:
            cli.main(["check", "--gamma", "0"])
        assert exc.value.code == 2


class TestSweep:
    def test_grid_cross_product_and_summary(self, tmp_path):
        out = tmp_path / "sweep"
        code = cli.main(["sweep", "linear_benchmark",
                         "--override", "sim.t_end_s=0.2",
                         "--override", "learner.alpha=150",
                         "--grid", "experiment.law=novel,baseline",
                         "--grid", "learner.q2=0,0.1",
                         "--out", str(out), "--workers", "2"])
        assert code == cli.EXIT_OK
        lines = (out / "summary.csv").read_text().splitlines()
        assert len(lines) == 5  # header + 4 rows
        header = lines[0].split(",")
        for col in ("run", "status", "ehat_rms_last10", "peak_z_norm",
                    "settle_time_s", "wall_s"):
            assert col in header
        assert all("ok" in ln for ln in lines[1:])
        for i in range(4):
            assert (out / f"run00{i}" / "series" /
                    "weight_error_vs_oracle.dat").stat().st_size

    def test_containment_row_equivalence(self, tmp_path):
        """novel law with all extra machinery off == baseline, to the byte."""
        outs = {}
        for law in ("novel", "baseline"):
            out = tmp_path / f"eq_{law}"
            assert cli.main(["run", "linear_benchmark",
                             "--override", "sim.t_end_s=1.0",
                             "--override", "learner.alpha=150",
                             "--override", "learner.q2=0",
                             "--override", "learner.k1_gain=0",
                             "--override", "learner.k2_gain=0",
                             "--override", "learner.stabilizer=off",
                             "--override", "learner.m_term=off",
                             "--override", f"experiment.law={law}",
                             "--out", str(out)]) == cli.EXIT_OK
            W = np.loadtxt(out / "telemetry.csv", delimiter=",", skiprows=1)
            outs[law] = W
        diff = np.max(np.abs(outs["novel"] - outs["baseline"]))
        assert diff <= 1e-10

    def test_sweep_survives_individual_faults(self, tmp_path):
        out = tmp_path / "sweepf"
        code = cli.main(["sweep", "linear_benchmark",
                         "--override", "sim.t_end_s=0.2",
                         "--grid", "learner.alpha=150,1e308",
                         "--out", str(out)])
        lines = (out / "summary.csv").read_text().splitlines()
        assert len(lines) == 3
        assert code == cli.EXIT_NUMERIC  # one run faulted
        assert any("exit3" in ln for ln in lines[1:])


def test_resolve_config_path_rejects_unknown():
    with pytest.raises(ConfigurationError):
        cli.resolve_config_path("definitely_missing_config")


@pytest.mark.parametrize("command, out, cause", [
    (["run"], "a_file", "a_file: File exists"),
    (["run", "--override", "sim.t_end_s=0.01"], "a_file/sub",
     "a_file/sub: Not a directory"),
    (["sweep", "--grid", "learner.alpha=1,2"], "a_file",
     "a_file/run000: Not a directory"),
    (["sweep", "--grid", "learner.alpha=1,2"], "sweep",
     "sweep/run000: File exists"),
], ids=["run-file", "run-under-file", "sweep-file", "sweep-run-dir-file"])
def test_an_unusable_out_is_a_config_error(tmp_path, capsys, command, out,
                                          cause):
    """An --out that cannot be made, or whose run directory is a file,
    exits 2 with one line naming --out and the path, not a traceback."""
    (tmp_path / "a_file").write_text("")
    (tmp_path / "sweep").mkdir()
    (tmp_path / "sweep" / "run000").write_text("")
    argv = [command[0], "linear_benchmark", *command[1:],
            "--out", str(tmp_path / out)]
    assert cli.main(argv) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == f"error: --out: cannot create {tmp_path}/{cause}\n"
    assert captured.err == ""


def test_a_reused_out_holds_only_the_last_runs_artifacts(tmp_path):
    """A run into a directory an earlier run used leaves none of that
    run's files: not its series, plots, stub, log or manifest, nor a
    config it resolved; the config being read stays."""
    def files(run):
        return {str(p.relative_to(run)): p.read_bytes()
                for p in sorted(run.rglob("*")) if p.is_file()}

    out, fresh = tmp_path / "run", tmp_path / "fresh"
    uav = ["uav_attitude", "--override", "sim.t_end_s=0.05"]
    assert cli.main(["run", "linear_benchmark", "--override", "sim.t_end_s=0.05",
                     "--out", str(out)]) == cli.EXIT_OK
    assert (out / "series" / "weight_error_vs_oracle.dat").is_file()
    (out / "series" / "weight_error_vs_oracle.png").write_bytes(b"a plot")
    for run in (out, fresh):
        assert cli.main(["run", *uav, "--out", str(run)]) == cli.EXIT_OK
    got, want = files(out), files(fresh)
    assert got.keys() == want.keys() and got["series/att_phi_deg.dat"]
    assert all(got[name] == want[name] for name in got if name != "manifest.txt")
    # a resolved config read back into its own directory is kept
    assert cli.main(["run", str(out / "config_resolved.ini"),
                     "--out", str(out)]) == cli.EXIT_OK
    assert files(out)["config_resolved.ini"] == want["config_resolved.ini"]
    # a config error leaves only its manifest
    (tmp_path / "bad.ini").write_text("[sim\n")
    assert cli.main(["run", str(tmp_path / "bad.ini"),
                     "--out", str(out)]) == cli.EXIT_CONFIG
    assert list(files(out)) == ["manifest.txt"]
    assert "status = config error: " in (out / "manifest.txt").read_text()


class TestUavCliSurface:
    def test_uav_series_covers_six_panels(self, tmp_path):
        out = tmp_path / "uav"
        code = cli.main(["run", "uav_attitude",
                         "--override", "sim.t_end_s=0.05",
                         "--out", str(out)])
        assert code == cli.EXIT_OK
        assert set(os.listdir(out / "series")) == {
            f"att_{a}{kind}_deg.dat" for a in ("phi", "theta", "psi")
            for kind in ("", "_des")}
        assert all(p.stat().st_size for p in (out / "series").iterdir())
        assert_two_float_columns(out / "series")

    def test_trim_failure_maps_to_oracle_exit(self, tmp_path, capsys):
        out = tmp_path / "trimfail"
        code = cli.main(["run", "uav_attitude",
                         "--override", "plant.va_m_s=0.5",
                         "--out", str(out)])
        assert code == cli.EXIT_ORACLE
        capsys.readouterr()
        path = edited_config(tmp_path, "uav_attitude", ["plant.va_m_s=0.5"])
        assert cli.main(["validate", path]) == cli.EXIT_ORACLE
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1 and "trim solver failed" in lines[0]


def test_malformed_ini_reports_parse_error(tmp_path):
    bad = tmp_path / "broken.ini"
    bad.write_text("[experiment\nname = x\n")
    cfg, errors = parse_config(str(bad))
    assert cfg is None
    assert errors and "parse error" in errors[0]
    assert cli.main(["validate", str(bad)]) == cli.EXIT_CONFIG


_MALFORMED = {"no-section-header": "[sim\ndt_s = 0.001\n",
              "duplicate-key": "[sim]\ndt_s = 0.001\ndt_s = 0.002\n"}


@pytest.mark.parametrize("text", _MALFORMED.values(), ids=_MALFORMED)
@pytest.mark.parametrize("command", [
    ["run", "--override", "sim.t_end_s=0.1"],
    ["sweep", "--grid", "learner.alpha=1,2"]], ids=["run", "sweep"])
def test_a_malformed_config_with_overrides_is_one_line(tmp_path, capsys,
                                                       command, text):
    """A config that does not parse exits 2 with one `parse error` line
    when its overrides are applied, as without them."""
    bad = tmp_path / "bad.ini"
    bad.write_text(text)
    argv = [command[0], str(bad), *command[1:], "--out", str(tmp_path / "out")]
    assert cli.main(argv) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out.startswith("error: parse error: ")
    assert captured.out.count("\n") == 1 and captured.err == ""


@pytest.mark.parametrize("text", _MALFORMED.values(), ids=_MALFORMED)
def test_a_malformed_config_is_one_status_line(tmp_path, capsys, text):
    bad = tmp_path / "bad.ini"
    bad.write_text(text)
    out = tmp_path / "out"
    assert cli.main(["run", str(bad), "--out", str(out)]) == cli.EXIT_CONFIG
    lines = (out / "manifest.txt").read_text().splitlines()
    assert lines[1].startswith("status = config error: parse error: ")
    assert lines[2].startswith("code_version = ")
    capsys.readouterr()
    assert cli.main(["validate", str(bad)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().out.splitlines()[1:] == [
        "  - " + lines[1].split("config error: ", 1)[1]]


def test_catalog_registration_and_lookup():
    import numpy as np
    from irltrack import catalog
    from irltrack.models import AffinePlant

    @catalog.register_plant("test_decay")
    def _decay(params):
        return AffinePlant(A=-2.0 * np.eye(1), B=np.ones((1, 1)), name="decay")

    try:
        assert "test_decay" in catalog.plant_names()
        plant = catalog.make_plant("test_decay")
        assert plant.A[0, 0] == -2.0 and (plant.n, plant.m) == (1, 1)
        with pytest.raises(ConfigurationError):
            catalog.make_plant("missing_plant")
    finally:
        catalog._PLANTS.pop("test_decay", None)


def test_missing_required_keys_reported(tmp_path):
    p = tmp_path / "min.ini"
    p.write_text("[experiment]\nplant = zero\nreference = zero\n")
    cfg, errors = parse_config(str(p))
    joined = "\n".join(errors)
    assert "learner.alpha: missing required key" in joined
    assert "saturation.u_m" in joined
    assert "sim.dt_s" in joined


def edited_keys(tmp_path, name, edits):
    """Bundled config with 'section.key' set to a value, or removed for None."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    cp.read(bundled(name), encoding="utf-8")
    for key, value in edits.items():
        section, _, option = key.partition(".")
        if value is None:
            cp.remove_option(section, option)
        else:
            cp.set(section, option, value)
    path = tmp_path / "edited_keys.ini"
    with open(path, "w", encoding="utf-8") as fh:
        cp.write(fh)
    return str(path)


@pytest.mark.parametrize("name, edits, field", [
    ("linear_benchmark", {"learner.t_window_s": "0"}, "learner.t_window_s"),
    ("linear_benchmark", {"sim.dt_s": "0"}, "sim.dt_s"),
    ("linear_benchmark", {"sim.t_end_s": "0"}, "sim.t_end_s"),
    ("linear_benchmark", {"saturation.u_m_deg": "10"}, "saturation.u_m_deg"),
    ("uav_attitude", {"saturation.u_m": "1.0"}, "saturation.u_m_deg"),
    ("uav_attitude", {"dither.amplitude": "0.1"}, "dither.amplitude_deg"),
    ("linear_benchmark", {"learner.t_window_s": None}, "learner.t_window_s"),
    ("linear_benchmark", {"sim.dt_s": None}, "sim.dt_s"),
    ("linear_benchmark", {"sim.t_end_s": None}, "sim.t_end_s"),
    ("linear_benchmark", {"saturation.u_m": None}, "saturation.u_m"),
    ("linear_benchmark", {"learner.stabilizer": "maybe"}, "learner.stabilizer"),
    ("linear_benchmark", {"learner.q1_diag": ""}, "learner.q1_diag"),
    # u_m^2 overflows
    ("uav_attitude", {"saturation.u_m_deg": "1e300"}, "saturation.u_m_deg"),
])
def test_parse_defects_name_their_field(tmp_path, name, edits, field):
    cfg, errors = parse_config(edited_keys(tmp_path, name, edits))
    assert errors and all(field in e for e in errors), errors
    if set(edits.values()) == {None}:
        assert f"{field}: missing required key" in errors


@pytest.mark.parametrize("key, text", [
    ("saturation.u_m_deg", "-1"),
    ("saturation.u_m_deg", "1e300"),   # u_m^2 overflows
    ("dither.amplitude_deg", "-2"),
])
def test_a_deg_key_error_quotes_the_value_as_written(tmp_path, key, text):
    cfg, errors = parse_config(edited_keys(tmp_path, "uav_attitude",
                                           {key: text}))
    assert cfg is None and len(errors) == 1, errors
    radians = str(float(text) * (math.pi / 180.0))
    assert errors[0].startswith(f"{key}: ") and f"{text} deg" in errors[0]
    assert radians not in errors[0], errors


@pytest.mark.parametrize("override", [
    "saturation.u_m=0", "saturation.r_diag=0",
    "learner.alpha=-1", "learner.gamma=-1", "learner.q2=-1", "learner.k2=-1",
    "learner.q1_diag=1 1 -1 0", "learner.q1_diag=1 1 -1e-11 0",
    "sim.dt_s=0.0010000000001", "sim.t_end_s=0.0005", "sim.record_every=0",
    "dither.amplitude=-1", "experiment.law=fancy", "experiment.basis=cubic",
    # non-finite numbers
    "learner.alpha=nan", "learner.gamma=inf", "learner.q2=nan",
    "learner.k2=inf", "learner.k1_gain=inf", "learner.k2_gain=nan",
    "learner.t_window_s=inf", "learner.q1_diag=1 nan 0 0",
    "saturation.u_m=inf", "saturation.r_diag=inf", "dither.amplitude=nan",
    "saturation.u_m=1e200",
    "sim.dt_s=nan", "sim.t_end_s=inf",
    # horizons the step loop cannot count: more telemetry rows than
    # sys.maxsize, and a t_end / dt that overflows
    "sim.t_end_s=1e300", "sim.t_end_s=1e308",
    # keys no section defines: a misspelling must not fall back to a default
    "learner.alpah=2000", "experiment.lawz=baseline", "saturation.u_max=5",
    "sim.dt=0.001", "dither.amplitude_rad=0.1",
])
def test_every_config_rule_rejects_and_names_its_key(tmp_path, capsys,
                                                     override):
    path = edited_config(tmp_path, "linear_benchmark", [override])
    assert cli.main(["validate", path]) == cli.EXIT_CONFIG
    section, _, option = override.partition("=")[0].partition(".")
    # an error line that starts with the key's section and names the key
    lines = capsys.readouterr().out.splitlines()
    assert any(ln.startswith(f"  - {section}.") and option in ln
               for ln in lines), lines


@pytest.mark.parametrize("name, overrides, field", [
    ("linear_benchmark", ["plant.omega=abc"], "plant.omega"),
    ("linear_benchmark", ["plant.gain=1.0.0"], "plant.gain"),
    ("linear_benchmark", ["reference.omega=six"], "reference.omega"),
    ("linear_benchmark", ["plant.x0=16 zero"], "plant.x0"),
    ("linear_benchmark", ["experiment.plant=zero", "plant.n=two"], "plant.n"),
    ("linear_benchmark", ["experiment.plant=zero", "plant.m=1.5"], "plant.m"),
    ("uav_attitude", ["plant.va_m_s=fast"], "plant.va_m_s"),
    ("uav_attitude", ["plant.altitude_m=high"], "plant.altitude_m"),
    ("uav_attitude", ["reference.gains=8 ten 12"], "reference.gains"),
    ("uav_attitude", ["reference.gains=8 10"], "reference.gains"),
    ("linear_benchmark", ["plant.omega=inf"], "plant.omega"),
    ("linear_benchmark", ["plant.x0=16 nan"], "plant.x0"),
    ("linear_benchmark", ["reference.x_d0=1 -inf"], "reference.x_d0"),
    ("uav_attitude", ["plant.altitude_m=nan"], "plant.altitude_m"),
    ("uav_attitude", ["reference.setpoints_deg=0: 0 nan 0"],
     "reference.setpoints_deg"),
    ("uav_attitude", ["reference.setpoints_deg=0: 0 0 0; inf: 1 0 0"],
     "reference.setpoints_deg"),
    ("linear_benchmark", ["experiment.plant=zero", "plant.n=-1"], "plant.n"),
    ("linear_benchmark", ["experiment.plant=zero", "plant.m=-2"], "plant.m"),
    ("linear_benchmark", ["experiment.plant=zero", "plant.n=0"], "plant.n"),
    ("linear_benchmark", ["experiment.plant=integrator", "plant.n=-1"],
     "plant.n"),
    ("linear_benchmark", ["experiment.reference=zero", "reference.n=-1"],
     "reference.n"),
    # vectors of the wrong length (a traceback before)
    ("linear_benchmark", ["plant.x0=1 2 3"], "plant.x0"),
    ("linear_benchmark", ["plant.x0=1"], "plant.x0"),
    ("linear_benchmark", ["reference.x_d0=1 0 0"], "reference.x_d0"),
    # keys no builder reads: a misspelling must not fall back to a default
    ("linear_benchmark", ["plant.omgea=3"], "plant.omgea"),
    ("linear_benchmark", ["reference.x_d00=5 5"], "reference.x_d00"),
    ("uav_attitude", ["plant.va=25"], "plant.va"),
    ("uav_attitude", ["reference.setpoint_deg=0: 0 0 0"],
     "reference.setpoint_deg"),
])
def test_builder_defects_name_their_key(tmp_path, capsys, name, overrides,
                                        field):
    path = edited_config(tmp_path, name, overrides)
    cfg, errors = parse_config(path)
    assert not errors
    with pytest.raises(ConfigurationError, match=re.escape(field)):
        resolve(cfg)
    assert cli.main(["validate", path]) == cli.EXIT_CONFIG
    assert cli.main(["run", path, "--out", str(tmp_path / "out")]) == \
        cli.EXIT_CONFIG
    assert field in capsys.readouterr().out


def test_the_airframe_key_is_unknown(tmp_path, capsys):
    """The Aerosonde's constants are not a setting: `plant.airframe` exits 2
    from both commands as an unknown key (not a traceback or exit 4)."""
    path = edited_config(tmp_path, "uav_attitude",
                         [f"plant.airframe={tmp_path / 'airframe.ini'}"])
    assert cli.main(["validate", path]) == cli.EXIT_CONFIG
    assert cli.main(["run", path, "--out", str(tmp_path / "out")]) == \
        cli.EXIT_CONFIG
    out = capsys.readouterr().out
    assert out.count("plant.airframe: unknown key") == 2, out
    assert "\nstatus = config error: plant.airframe: unknown key; " in \
        (tmp_path / "out" / "manifest.txt").read_text()


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_sweep_rejects_workers_below_one(tmp_path, capsys, workers):
    out = tmp_path / "sweep"
    assert cli.main(["sweep", "linear_benchmark", "--workers", workers,
                     "--out", str(out)]) == cli.EXIT_CONFIG
    assert any(ln.startswith("error:") and "--workers" in ln
               for ln in capsys.readouterr().out.splitlines())
    assert not out.exists()  # rejected before any run or worker starts


def test_infinite_horizon_run_exits_with_config_error(tmp_path, capsys):
    assert cli.main(["run", "linear_benchmark", "--override", "sim.t_end_s=inf",
                     "--out", str(tmp_path / "inf")]) == cli.EXIT_CONFIG
    assert "sim.t_end_s" in capsys.readouterr().out


def test_a_horizon_without_room_for_its_telemetry_is_a_config_error(
        tmp_path, capsys):
    # 1e300 s needs more telemetry rows than sys.maxsize, and 1e308 s / dt
    # overflows; the run reports it under the key, with a manifest
    for horizon in ("1e300", "1e308"):
        out = tmp_path / horizon
        assert cli.main(["run", "linear_benchmark", "--override",
                         f"sim.t_end_s={horizon}", "--out", str(out)]) == \
            cli.EXIT_CONFIG
        assert "  - sim.t_end_s: " in capsys.readouterr().out
        status = re.search(r"^status = (.*)$",
                           (out / "manifest.txt").read_text(), re.M).group(1)
        assert status.startswith("config error: sim.t_end_s: ")
        assert not (out / "telemetry.csv").exists()


_LOADED_SCIPY = """
import sys
from irltrack import cli, config
cfg, errors = config.parse_config(cli.resolve_config_path(sys.argv[1]))
assert not errors, errors
config.resolve(cfg)
print(" ".join(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""

_CLI_SCIPY = """
import sys
from irltrack import cli
assert cli.main(sys.argv[1:]) == cli.EXIT_OK
print(" ".join(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""

# Any scipy import raises, here and in the sweep's forked workers, which
# inherit sys.meta_path; a worker that hits it reports its points as errors.
_NO_SCIPY = """
import sys


class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} is hidden")
        return None


sys.meta_path.insert(0, NoScipy())
"""
_NO_SCIPY_CLI = _NO_SCIPY + _CLI_SCIPY
_NO_SCIPY_EXIT = _NO_SCIPY + """
from irltrack import cli
print(cli.main(sys.argv[1:]))
"""


def run_script(script, *args):
    """`script` run with `args` in a fresh interpreter on this source tree."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", script, *args],
                          env=env, capture_output=True, text=True, check=True)


def modules_after(script, *args):
    """The modules that `script`, run with `args` in a fresh interpreter,
    prints on its last line."""
    return set(run_script(script, *args).stdout.splitlines()[-1].split())


def loaded_scipy_modules(config_name):
    """scipy modules in a fresh interpreter after importing irltrack.cli and
    parsing and resolving a bundled config."""
    return modules_after(_LOADED_SCIPY, config_name)


def test_linear_setup_loads_no_scipy():
    assert loaded_scipy_modules("linear_benchmark") == set()


_LOADED_IRLTRACK = """
import sys
from irltrack import cli, config
cfg, errors = config.parse_config(cli.resolve_config_path(sys.argv[1]))
assert not errors, errors
config.resolve(cfg)
print(" ".join(sorted(m for m in sys.modules if m.split(".")[0] == "irltrack")))
"""


def test_linear_setup_imports_no_uav_module():
    loaded = modules_after(_LOADED_IRLTRACK, "linear_benchmark")
    assert "irltrack.benchmarks.linear" in loaded
    assert "irltrack.benchmarks.uav" not in loaded


@pytest.mark.parametrize("command", [
    ["validate", "linear_benchmark"],
    ["run", "linear_benchmark", "--override", "sim.t_end_s=0.05"],
    ["sweep", "linear_benchmark", "--override", "sim.t_end_s=0.05",
     "--grid", "learner.alpha=150,160", "--workers", "2"],
], ids=["validate", "run", "sweep"])
def test_linear_command_loads_no_scipy(tmp_path, command):
    out = tmp_path / "out"
    args = command if command[0] == "validate" else command + ["--out", str(out)]
    assert modules_after(_NO_SCIPY_CLI, *args) == set()
    runs = {"validate": [], "run": [out],
            "sweep": [out / "run000", out / "run001"]}[command[0]]
    for run in runs:
        assert "status = ok\n" in (run / "manifest.txt").read_text()
        assert (run / "series" / "weight_error_vs_oracle.dat").is_file()
    if command[0] == "sweep":
        with open(out / "summary.csv", newline="") as fh:
            assert [row["status"] for row in csv.DictReader(fh)] == ["ok", "ok"]


def _only_the_trim_solver(loaded):
    """The UAV's scipy modules: the MINPACK extension, without the
    scipy.optimize package around it or any scipy.linalg or scipy.integrate
    module."""
    assert "scipy.optimize" not in loaded
    assert "scipy.optimize._minpack" in loaded
    assert not any(m.startswith(("scipy.linalg", "scipy.integrate"))
                   for m in loaded)


def test_uav_setup_loads_only_the_trim_solver():
    _only_the_trim_solver(loaded_scipy_modules("uav_attitude"))


def test_uav_run_loads_only_the_trim_solver(tmp_path):
    _only_the_trim_solver(modules_after(
        _CLI_SCIPY, "run", "uav_attitude", "--override", "sim.t_end_s=0.05",
        "--out", str(tmp_path / "out")))


@pytest.mark.parametrize("command", ["validate", "run"])
def test_uav_command_without_scipy_is_an_oracle_failure(tmp_path, command):
    out = tmp_path / "out"
    args = [command, "uav_attitude"]
    if command == "run":
        args += ["--override", "sim.t_end_s=0.05", "--out", str(out)]
    proc = run_script(_NO_SCIPY_EXIT, *args)
    reason = "trim solver scipy.optimize._minpack cannot be loaded: scipy is hidden"
    assert proc.stderr == ""
    if command == "validate":
        assert proc.stdout.splitlines() == [
            f"oracle failure: uav_attitude: {reason}", str(cli.EXIT_ORACLE)]
    else:
        assert proc.stdout.splitlines()[-1] == str(cli.EXIT_ORACLE)
        assert f"status = oracle failure: {reason}\n" in \
            (out / "manifest.txt").read_text()


def test_sweep_parent_builds_no_point(tmp_path):
    # the parent cuts the grid by position; only the workers parse and
    # resolve the points, so only they load the trim solver
    out = tmp_path / "sweep"
    assert modules_after(
        _CLI_SCIPY, "sweep", "uav_attitude", "--override",
        "sim.t_end_s=0.01", "--grid", "learner.alpha=16.1,16.2",
        "--workers", "2", "--out", str(out)) == set()
    for run in ("run000", "run001"):
        assert "status = ok\n" in (out / run / "manifest.txt").read_text()


def test_resolve_config_path_creates_no_file(tmp_path, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    path = cli.resolve_config_path("linear_benchmark")
    assert list(tmp_path.iterdir()) == []
    with open(path, encoding="utf-8") as fh:
        assert "[experiment]" in fh.read()


def test_sweep_keeps_grid_values_containing_equals(tmp_path):
    out = tmp_path / "sweepeq"
    assert cli.main(["sweep", "linear_benchmark",
                     "--override", "sim.t_end_s=0.02",
                     "--grid", "experiment.name=a=b,c",
                     "--out", str(out)]) == cli.EXIT_OK
    lines = (out / "summary.csv").read_text().splitlines()
    col = lines[0].split(",").index("experiment.name")
    assert [ln.split(",")[col] for ln in lines[1:]] == ["a=b", "c"]


def test_sweep_rejects_misspelled_keys_and_repeated_axes(tmp_path, capsys):
    out = tmp_path / "typo"
    assert cli.main(["sweep", "linear_benchmark", "--override", "sim.t_end_s=0.02",
                     "--grid", "learner.alpah=1,2", "--out", str(out)]) == \
        cli.EXIT_CONFIG
    assert "learner.alpah: unknown key" in capsys.readouterr().out
    out = tmp_path / "twice"
    assert cli.main(["sweep", "linear_benchmark", "--grid", "learner.alpha=1,2",
                     "--grid", "learner.alpha=3", "--out", str(out)]) == \
        cli.EXIT_CONFIG
    assert "learner.alpha" in capsys.readouterr().out
    assert not out.exists()  # rejected before any run starts


def test_summary_quotes_cells_that_hold_commas(tmp_path):
    out = tmp_path / "quoted"
    assert cli.main(["sweep", "linear_benchmark", "--override", "sim.t_end_s=0.02",
                     "--override", "learner.q1_diag=1,1,0,0",
                     "--grid", "learner.alpha=1,2", "--out", str(out)]) == \
        cli.EXIT_OK
    with open(out / "summary.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["learner.q1_diag"], r["learner.alpha"], r["status"])
            for r in rows] == [("1,1,0,0", "1", "ok"), ("1,1,0,0", "2", "ok")]


def test_summary_names_overrides_as_they_take_effect(tmp_path):
    """A summary column is the key as configparser stores it (stripped,
    lower-cased), and a later value for a key replaces an earlier one."""
    out = tmp_path / "sweep"
    assert cli.main(["sweep", "linear_benchmark",
                     "--override", "sim.t_end_s = 0.01",
                     "--override", "learner.ALPHA=5",
                     "--grid", "learner.alpha=1,2", "--out", str(out)]) == \
        cli.EXIT_OK
    with open(out / "summary.csv", newline="", encoding="utf-8") as fh:
        assert fh.readline() == ("run,sim.t_end_s,learner.alpha,status,"
                                 "ehat_rms_last10,peak_z_norm,settle_time_s,"
                                 "wall_s\n")
        fh.seek(0)
        rows = list(csv.DictReader(fh))
    assert [(r["run"], r["sim.t_end_s"], r["learner.alpha"]) for r in rows] == \
        [("run000", "0.01", "1"), ("run001", "0.01", "2")]
    for row in rows:
        cp = configparser.ConfigParser()
        cp.read(out / row["run"] / "config_resolved.ini")
        assert row["sim.t_end_s"] == cp["sim"]["t_end_s"]
        assert row["learner.alpha"] == cp["learner"]["alpha"]


def test_weight_error_of_a_faulted_run_stays_finite(tmp_path):
    """Past the overflow of |W - W*|^2 the error is taken with a scaled norm;
    rows where the plain norm is finite keep its bytes."""
    from irltrack.benchmarks.linear import discounted_riccati, ideal_weights

    out = tmp_path / "overflow"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["run", "linear_benchmark", "--override", "sim.t_end_s=0.5",
                         "--override", "learner.alpha=1e8",
                         "--out", str(out)]) == cli.EXIT_NUMERIC
    cfg, errors = parse_config(out / "config_resolved.ini")
    env = resolve(cfg)
    P = discounted_riccati(*env.linear_pair(), cfg.learner.Q1, cfg.learner.sat.R,
                           cfg.learner.gamma)
    W_star = ideal_weights(P)
    header = (out / "telemetry.csv").read_text().splitlines()[0].split(",")
    W = np.loadtxt(out / "telemetry.csv", delimiter=",", skiprows=1)[
        :, [i for i, c in enumerate(header) if c[:1] == "W"]]
    assert np.isfinite(W).all()
    with np.errstate(over="ignore"):
        plain = np.linalg.norm(W - W_star, axis=1) / np.linalg.norm(W_star)
    written = [line.split()[1] for line in
               (out / "series" / "weight_error_vs_oracle.dat").read_text()
               .splitlines()]
    assert not np.isfinite(plain[-1])  # the case the scaled norm is for
    assert all(np.isfinite(float(v)) for v in written)
    for value, ref in zip(written, plain):
        if np.isfinite(ref):
            assert value == repr(float(ref))
    d = W[-1] - W_star
    scale = np.max(np.abs(d))
    want = scale * np.sqrt(np.sum((d / scale) ** 2)) / np.linalg.norm(W_star)
    assert float(written[-1]) == pytest.approx(want, rel=1e-12)


def test_summary_rms_of_a_faulted_run_stays_finite(tmp_path):
    """The trailing |e_hat| RMS of a faulted point is taken with the tail
    scaled by its largest entry once its squares overflow; a healthy point
    keeps the plain formula's bytes."""
    out = tmp_path / "sweep"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["sweep", "linear_benchmark",
                         "--override", "sim.t_end_s=0.5",
                         "--grid", "learner.alpha=150,1e8",
                         "--out", str(out)]) == cli.EXIT_NUMERIC
    with open(out / "summary.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["status"] for row in rows] == ["ok", "exit3"]
    assert (out / "summary.csv").read_text().splitlines()[1].startswith(
        "run000,0.5,150,ok,")
    assert "\nstatus = numeric fault at t=0.023, step 23: " in \
        (out / "run001" / "manifest.txt").read_text()
    for row in rows:
        header = (out / row["run"] / "telemetry.csv").read_text() \
            .splitlines()[0].split(",")
        e_hat = np.loadtxt(out / row["run"] / "telemetry.csv", delimiter=",",
                           skiprows=1, ndmin=2)[:, header.index("e_hat")]
        tail = np.abs(e_hat[-max(1, len(e_hat) // 10):])
        with np.errstate(over="ignore"):
            plain = float(np.sqrt(np.mean(tail ** 2)))
        if np.isfinite(plain):
            assert row["ehat_rms_last10"] == repr(plain)
        else:   # the faulted point: its squares overflow
            scale = float(np.max(tail))
            want = scale * float(np.sqrt(np.mean((tail / scale) ** 2)))
            assert float(row["ehat_rms_last10"]) == pytest.approx(want,
                                                                  rel=1e-12)
            assert 1e154 < want < np.inf


def test_unstabilizable_oracle_skips_weight_error_series(tmp_path):
    out = tmp_path / "nogain"
    assert cli.main(["run", "linear_benchmark",
                     "--override", "plant.gain=0",
                     "--override", "learner.gamma=0",
                     "--override", "sim.t_end_s=0.2",
                     "--out", str(out)]) == cli.EXIT_OK
    assert os.listdir(out / "series") == []
    # no state cost: the oracle is W* = 0, which has no relative error
    out = tmp_path / "nocost"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert cli.main(["run", "linear_benchmark",
                         "--override", "learner.q1_diag=0 0 0 0",
                         "--override", "sim.t_end_s=0.05",
                         "--out", str(out)]) == cli.EXIT_OK
    assert os.listdir(out / "series") == []


def test_environment_pair_is_checked_by_the_catalog(tmp_path):
    from irltrack import catalog
    path = edited_config(tmp_path, "uav_attitude",
                         ["experiment.reference=harmonic"])
    cfg, errors = parse_config(path)
    with pytest.raises(ConfigurationError) as exc:
        resolve(cfg)
    assert "experiment.reference" in str(exc.value)
    assert "attitude_schedule" in str(exc.value)
    with pytest.raises(ConfigurationError):
        catalog.make_env("aerosonde", "harmonic")


def test_builder_keys_of_other_plants_and_default_keys_pass(tmp_path):
    # a key that another builder reads (omega and gain of linear_osc, on the
    # integrator) and a [DEFAULT] key are accepted
    path = edited_config(tmp_path, "linear_benchmark", [
        "experiment.plant=integrator", "plant.n=2", "saturation.r_diag=10 10"])
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("[DEFAULT]\nnote = integrator arm\n\n" + text)
    cfg, errors = parse_config(path)
    assert not errors
    resolve(cfg)
    assert cli.main(["validate", path]) == cli.EXIT_OK


def test_default_section_overrides_run_and_sweep(tmp_path):
    def default_note(ini):
        cp = configparser.ConfigParser()
        cp.read(ini)
        return cp.defaults().get("note")

    out = tmp_path / "run"
    assert cli.main(["run", "linear_benchmark", "--override", "sim.t_end_s=0.02",
                     "--override", "DEFAULT.note=x", "--out", str(out)]) == cli.EXIT_OK
    assert default_note(out / "config_resolved.ini") == "x"
    out = tmp_path / "sweep"
    assert cli.main(["sweep", "linear_benchmark", "--override", "sim.t_end_s=0.02",
                     "--grid", "DEFAULT.note=a,b", "--out", str(out)]) == cli.EXIT_OK
    assert [default_note(out / f"run00{i}" / "config_resolved.ini")
            for i in (0, 1)] == ["a", "b"]


# The exit-code contract: every bad input exits 2 (config), 3 (numeric) or
# 4 (oracle) on one line, with nothing on stderr.  Each key of the bundled
# configs, so a key added to them is covered, takes each of these values.
_EDGE_VALUES = ["", "nan", "inf", "-inf", "-1", "0", "1e400", "abc", "5%",
                "1,2", " 1 2 "]
_BUNDLED_KEYS = [(name, section, key)
                 for name in ("linear_benchmark", "uav_attitude")
                 for cp in [read_config(bundled(name))]
                 for section in cp.sections() for key in cp.options(section)]


def validate_lines(capsys, path):
    """The exit code and stdout lines of `irltrack validate path`, run in
    process; no exception escapes and stderr stays empty."""
    code = cli.main(["validate", str(path)])
    captured = capsys.readouterr()
    assert captured.err == ""
    return code, captured.out.splitlines()


@pytest.mark.parametrize("name, section, key", _BUNDLED_KEYS,
                         ids=[f"{n}-{s}.{k}" for n, s, k in _BUNDLED_KEYS])
def test_every_bundled_key_exits_with_its_code(tmp_path, capsys, name,
                                               section, key):
    path = tmp_path / "edited.ini"
    for value in _EDGE_VALUES:
        cp = read_config(bundled(name))
        cp.set(section, key, value)
        with open(path, "w", encoding="utf-8") as fh:
            cp.write(fh)
        code, lines = validate_lines(capsys, path)
        assert code in (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_ORACLE), \
            (value, lines)
        if code == cli.EXIT_CONFIG:
            assert any(f"{section}.{key}" in ln for ln in lines[1:]), \
                (value, lines)
        else:
            assert len(lines) == 1, (value, lines)


with open(bundled("linear_benchmark"), encoding="utf-8") as _fh:
    _LINEAR = _fh.read()
_BROKEN = {
    **_MALFORMED,
    "unknown-section": _LINEAR + "\n[bogus]\nx = 1\n",
    "empty": "",
    "not-utf8": b"\xff\xfe[sim]\n",
    # numpy wraps the array of this error over two lines
    "r_diag-of-twenty": _LINEAR.replace(
        "r_diag = 10.0", "r_diag = " + " ".join(["1"] * 18 + ["-1", "1"])),
    "directory": None,
}


@pytest.mark.parametrize("content", _BROKEN.values(), ids=_BROKEN)
def test_a_broken_config_exits_2_on_one_line(tmp_path, capsys, content):
    path = tmp_path / "broken.ini"
    if content is None:
        path.mkdir()
    elif isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content, encoding="utf-8")
    code, lines = validate_lines(capsys, path)
    assert code == cli.EXIT_CONFIG
    assert lines[0] == f"invalid: {path}" and len(lines) > 1
    # each error line opens with what it is about: a key, a section or
    # the file
    assert all(re.match(r"  - [\w. ]+: \S", ln) for ln in lines[1:]), lines
    out = tmp_path / "out"
    assert cli.main(["run", str(path), "--out", str(out)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == ""
    manifest = (out / "manifest.txt").read_text().splitlines()
    assert manifest[1] == "status = config error: " + "; ".join(
        ln[4:] for ln in lines[1:])
    assert manifest[2].startswith("code_version = ")


_EXIT_CODE = """
import sys
from irltrack import cli
print(cli.main(sys.argv[1:]))
"""


@pytest.mark.parametrize("command, run, status", [
    (["run", "linear_benchmark", "--override", "sim.t_end_s=0.1%"], ".",
     "sim.t_end_s: could not convert string to float: '0.1%'"),
    (["sweep", "linear_benchmark", "--override", "sim.t_end_s=0.01",
      "--grid", "learner.alpha=1,2%"], "run001",
     "learner.alpha: could not convert string to float: '2%'"),
], ids=["run", "sweep"])
def test_a_percent_in_a_value_exits_2_in_a_fresh_process(tmp_path, command,
                                                         run, status):
    out = tmp_path / "out"
    proc = run_script(_EXIT_CODE, *command, "--out", str(out))
    assert proc.stderr == ""
    assert proc.stdout.splitlines()[-1] == str(cli.EXIT_CONFIG)
    manifest = (out / run / "manifest.txt").read_text().splitlines()
    assert manifest[1] == f"status = config error: {status}"
    assert manifest[2].startswith("code_version = ")
