"""Run artifacts: `Telemetry.to_csv` writes the bytes of the reference
formatting, one `repr` per value, in a bounded working set, inline or from
the writer process a run's log streams to past one chunk; no writer
outlives its run, on any exit path; series/ holds only the derived panels,
in the same formatting; the plot stub draws every telemetry column and
every panel."""
import os
import signal
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import irltrack._csv_sink as csv_sink
import irltrack.cli as cli
import irltrack.sim as sim
from irltrack._csv_sink import FRAME_LEN
from irltrack.benchmarks.linear import discounted_riccati, ideal_weights
from irltrack.config import parse_config, resolve
from irltrack.sim import _CHUNK_ROWS, Telemetry


def reference_csv(telemetry):
    lines = [",".join(telemetry.header)]
    lines += [",".join(map(repr, row.tolist())) for row in telemetry.rows]
    return ("\n".join(lines) + "\n").encode()


def reference_series(t, ys):
    return "".join(f"{float(ti)!r} {float(yi)!r}\n"
                   for ti, yi in zip(t, ys)).encode()


def filled_telemetry(n_rows, dims=(2, 1, 1, 1, 3), seed=0, csv_path=None):
    """A log of `n_rows` rows whose values span many magnitudes and signs,
    with exact zeros, integers and a negative zero among them."""
    rng = np.random.default_rng(seed)
    dim_z, dim_x, dim_xd, m, n1 = dims
    tel = Telemetry(dim_z, dim_x, dim_xd, m, n1, capacity=n_rows,
                    csv_path=csv_path)
    width = len(tel.header) - 1
    scale = np.logspace(-12, 12, width)
    g = np.cumsum([0, dim_z, dim_x, dim_xd, m])
    for k in range(n_rows):
        v = rng.standard_normal(width) * scale
        v[k % width] = (0.0, -0.0, 3.0, -1e300)[k % 4]
        tel.append(k * 1e-3, v[g[0]:g[1]], v[g[1]:g[2]], v[g[2]:g[3]],
                   v[g[3]:g[4]], *v[g[4]:g[4] + 6], v[g[4] + 6:])
    return tel


@pytest.mark.parametrize("n_rows", [
    0, 1, _CHUNK_ROWS - 1, _CHUNK_ROWS, _CHUNK_ROWS + 1, 2 * _CHUNK_ROWS + 3])
def test_writer_matches_reference_formatting(tmp_path, n_rows):
    tel = filled_telemetry(n_rows)
    tel.to_csv(tmp_path / "telemetry.csv")
    assert (tmp_path / "telemetry.csv").read_bytes() == reference_csv(tel)


def test_writer_without_series_writes_only_the_csv(tmp_path):
    tel = filled_telemetry(3)
    tel.to_csv(tmp_path / "telemetry.csv")
    assert os.listdir(tmp_path) == ["telemetry.csv"]
    assert (tmp_path / "telemetry.csv").read_bytes() == reference_csv(tel)


def assert_run_artifacts_match_reference(out, telemetry, panels):
    """telemetry.csv against the reference formatting of the in-memory log;
    series/ holds exactly the derived `panels`, each on the log's t."""
    assert (out / "telemetry.csv").read_bytes() == reference_csv(telemetry)
    assert sorted(os.listdir(out / "series")) == sorted(
        f"{name}.dat" for name in panels)
    t_strs = [repr(float(ti)) for ti in telemetry.t]
    for path in (out / "series").glob("*.dat"):
        lines = path.read_text().splitlines()
        assert [ln.split(" ")[0] for ln in lines] == t_strs, path.name


LINEAR_PANELS = ("weight_error_vs_oracle",)


def test_decimated_run_matches_reference(tmp_path):
    # 2000 steps kept every 7th: 287 rows, past one chunk
    out = tmp_path / "rec7"
    code, telemetry = cli.run_one(
        cli.resolve_config_path("linear_benchmark"),
        ["sim.t_end_s=2.0", "sim.record_every=7"], out_dir=str(out))
    assert code == cli.EXIT_OK and len(telemetry.rows) == 287
    assert_run_artifacts_match_reference(out, telemetry, LINEAR_PANELS)
    cfg, _ = parse_config(out / "config_resolved.ini")
    env = resolve(cfg)
    P = discounted_riccati(*env.linear_pair(), cfg.learner.Q1,
                           cfg.learner.sat.R, cfg.learner.gamma)
    W_star = ideal_weights(P)
    err = np.linalg.norm(telemetry.columns("W") - W_star, axis=1) \
        / np.linalg.norm(W_star)
    written = (out / "series" / "weight_error_vs_oracle.dat").read_bytes()
    assert written == reference_series(telemetry.t, err)


def test_numeric_fault_partial_flush_matches_reference(tmp_path):
    out = tmp_path / "fault"
    code, telemetry = cli.run_one(
        cli.resolve_config_path("linear_benchmark"),
        ["learner.alpha=1e308", "sim.t_end_s=1.0"], out_dir=str(out))
    assert code == cli.EXIT_NUMERIC and len(telemetry.rows) >= 1
    assert_run_artifacts_match_reference(out, telemetry, LINEAR_PANELS)


@pytest.fixture()
def writers(monkeypatch):
    """The writer processes started during a test, which fails if it takes
    a minute; after it, none is left running or unreaped."""
    started = []

    class Counted(csv_sink.CsvWriter):
        def __init__(self, *args):
            super().__init__(*args)
            started.append(self)

    def hung(signum, frame):
        raise TimeoutError("a run with a writer process hung")
    monkeypatch.setattr(csv_sink, "CsvWriter", Counted)
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        yield started
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def linear_run(out, t_end):
    """The linear benchmark through the CLI, recording every step."""
    return cli.run_one(cli.resolve_config_path("linear_benchmark"),
                       [f"sim.t_end_s={t_end}", "sim.record_every=1"],
                       out_dir=str(out))


@pytest.mark.parametrize("n_rows", [
    _CHUNK_ROWS - 1, _CHUNK_ROWS, _CHUNK_ROWS + 1, 2 * _CHUNK_ROWS + 3])
def test_streamed_run_matches_reference(tmp_path, writers, n_rows):
    # a log that fills a chunk streams to a writer; a shorter one does not
    out = tmp_path / "run"
    code, telemetry = linear_run(out, (n_rows - 1) / 1000)
    assert code == cli.EXIT_OK and len(telemetry.rows) == n_rows
    assert len(writers) == (n_rows >= _CHUNK_ROWS)
    assert_run_artifacts_match_reference(out, telemetry, LINEAR_PANELS)


def test_streamed_numeric_fault_flushes_the_logged_rows(tmp_path, writers):
    out = tmp_path / "fault"
    code, telemetry = cli.run_one(
        cli.resolve_config_path("uav_attitude"),
        ["learner.alpha=1e4", "sim.t_end_s=1.0", "sim.record_every=1"],
        out_dir=str(out))
    assert code == cli.EXIT_NUMERIC and len(writers) == 1
    assert 2 * _CHUNK_ROWS < len(telemetry.rows) < 1001
    assert len(telemetry.rows) % _CHUNK_ROWS
    assert_run_artifacts_match_reference(
        out, telemetry, [f"att_{a}{d}_deg" for a in ("phi", "theta", "psi")
                         for d in ("", "_des")])


@pytest.mark.parametrize("where", ["loop", "artifacts"])
def test_a_raising_streamed_batch_leaves_no_csv(tmp_path, monkeypatch,
                                                 writers, where):
    # the loop raises after its writer started, or the artifacts do after
    # the loop: the point gets the manifest alone, as when it writes inline
    dither = sim.dither

    def dither_until_one_chunk_is_sent(t):
        if t > 0.3:
            raise RuntimeError("the loop broke")
        return dither(t)

    def no_series(*args):
        raise RuntimeError("the artifacts broke")
    if where == "loop":
        monkeypatch.setattr(sim, "dither", dither_until_one_chunk_is_sent)
    else:
        monkeypatch.setattr(cli, "_write_series", no_series)
    out = tmp_path / "run"
    code, telemetry = linear_run(out, 0.5)
    assert code == cli.EXIT_NUMERIC and telemetry is None and len(writers) == 1
    assert sorted(os.listdir(out)) == ["config_resolved.ini", "manifest.txt"]


def test_a_writer_that_cannot_open_its_file_fails_the_point(tmp_path, writers):
    out = tmp_path / "run"
    (out / "telemetry.csv").mkdir(parents=True)
    code, _ = linear_run(out, 0.5)
    assert code == cli.EXIT_NUMERIC and len(writers) == 1
    assert "Is a directory" in \
        (out / "manifest.txt").read_text().split("status = ")[1].splitlines()[0]
    assert os.listdir(out / "telemetry.csv") == []


def test_a_batch_of_several_streams_no_log(tmp_path, writers):
    # three points past one chunk run as one batch: they start no writer,
    # and each writes the bytes of its lone run, which streams
    overrides = [f"sim.t_end_s={(2 * _CHUNK_ROWS + 3 - 1) / 1000}",
                 "sim.record_every=1"]
    values = ["learner.alpha=100", "learner.alpha=150", "learner.alpha=200"]
    points = []
    for i, value in enumerate(values):
        out_dir = str(tmp_path / f"run{i}")
        path = cli._resolved_config(cli.resolve_config_path("linear_benchmark"),
                                    overrides + [value], out_dir)
        points.append(cli._Point(f"run{i}", path, overrides + [value], out_dir))
    results = cli._run(points)
    assert [code for code, _ in results] == [cli.EXIT_OK] * 3
    assert writers == []
    for i, (value, (_, telemetry)) in enumerate(zip(values, results)):
        assert len(telemetry.rows) == 2 * _CHUNK_ROWS + 3
        run = tmp_path / f"run{i}"
        assert_run_artifacts_match_reference(run, telemetry, LINEAR_PANELS)
        code, _ = cli.run_one(cli.resolve_config_path("linear_benchmark"),
                              overrides + [value], out_dir=str(tmp_path / f"ref{i}"))
        assert code == cli.EXIT_OK and len(writers) == i + 1
        assert (run / "telemetry.csv").read_bytes() == \
            (tmp_path / f"ref{i}" / "telemetry.csv").read_bytes()


def test_a_log_streaming_elsewhere_is_written_inline(tmp_path, writers):
    tel = filled_telemetry(2 * _CHUNK_ROWS + 3, csv_path=tmp_path / "streamed.csv")
    assert len(writers) == 1
    tel.to_csv(tmp_path / "telemetry.csv")
    assert os.listdir(tmp_path) == ["telemetry.csv"]
    assert (tmp_path / "telemetry.csv").read_bytes() == reference_csv(tel)


def test_a_writer_without_the_end_frame_deletes_its_file(tmp_path):
    path = tmp_path / "telemetry.csv"
    rows = np.arange(6.0).reshape(3, 2)
    frames = FRAME_LEN.pack(rows.nbytes) + rows.tobytes()
    sink = [sys.executable, "-I", "-S", csv_sink.__file__, str(path), "t", "x0"]
    done = subprocess.run(sink, input=frames + FRAME_LEN.pack(0),
                          capture_output=True, timeout=60)
    assert done.returncode == 0
    assert path.read_bytes() == b"t,x0\n0.0,1.0\n2.0,3.0\n4.0,5.0\n"
    cut = subprocess.run(sink, input=frames, capture_output=True, timeout=60)
    assert cut.returncode == 1 and b"EOFError" in cut.stderr
    assert not path.exists()


def test_a_failed_inline_write_leaves_no_file(tmp_path, monkeypatch):
    format_rows, calls = csv_sink.format_rows, []

    def fail_on_the_second_chunk(values, ncol):
        calls.append(ncol)
        if len(calls) == 2:
            raise OSError("the disk is full")
        return format_rows(values, ncol)
    monkeypatch.setattr(csv_sink, "format_rows", fail_on_the_second_chunk)
    tel = filled_telemetry(600)
    with pytest.raises(OSError, match="the disk is full"):
        tel.to_csv(tmp_path / "telemetry.csv")
    assert len(calls) == 2 and os.listdir(tmp_path) == []


def test_writer_working_set_is_bounded(tmp_path):
    """A UAV-sized log (11501 x 58) is written in a few MB: chunks, not the
    whole formatted log (which is over 40 MB of strings)."""
    tel = filled_telemetry(11501, dims=(6, 12, 3, 3, 27), seed=1)
    assert tel.rows.shape == (11501, 58)
    tracemalloc.start()
    try:
        tel.to_csv(tmp_path / "telemetry.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6, f"writer peak {peak / 1e6:.1f} MB"


# A stand-in for matplotlib: `use()`, and a pyplot whose `savefig` records
# each path in saved.txt beside it and whose other calls do nothing.
_FAKE_PYPLOT = """\
import os

SAVED = os.path.join(os.path.dirname(__file__), "saved.txt")


def savefig(path, **kwargs):
    with open(SAVED, "a", encoding="utf-8") as fh:
        fh.write(str(path) + "\\n")


def __getattr__(name):
    return lambda *args, **kwargs: None
"""


@pytest.mark.parametrize("config", ["linear_benchmark", "uav_attitude"])
def test_plot_stub_draws_every_column_and_panel(tmp_path, config):
    fake = tmp_path / "fake" / "matplotlib"
    fake.mkdir(parents=True)
    (fake / "__init__.py").write_text("def use(*args, **kwargs):\n    pass\n")
    (fake / "pyplot.py").write_text(_FAKE_PYPLOT)
    out = tmp_path / "run"
    code, telemetry = cli.run_one(cli.resolve_config_path(config),
                                  ["sim.t_end_s=0.05"], out_dir=str(out))
    assert code == cli.EXIT_OK
    subprocess.run([sys.executable, str(out / "plot_series.py")], check=True,
                   capture_output=True, cwd=tmp_path,
                   env=dict(os.environ, PYTHONPATH=str(tmp_path / "fake")))
    saved = (fake / "saved.txt").read_text().splitlines()
    panels = [p.stem for p in (out / "series").glob("*.dat")]
    assert len(panels) == (1 if config == "linear_benchmark" else 6)
    assert sorted(saved) == sorted(
        str(out / "series" / f"{name}.png")
        for name in telemetry.header[1:] + panels)
