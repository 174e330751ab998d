"""Run artifacts: `Telemetry.to_csv` writes the bytes of the reference
formatting, one `repr` per value, in a bounded working set."""
import os
import tracemalloc

import numpy as np
import pytest

import irltrack.cli as cli
from irltrack.sim import _CHUNK_ROWS, Telemetry


def reference_csv(telemetry):
    lines = [",".join(telemetry.header)]
    lines += [",".join(map(repr, row.tolist())) for row in telemetry.rows]
    return ("\n".join(lines) + "\n").encode()


def reference_series(t, ys):
    return "".join(f"{float(ti)!r} {float(yi)!r}\n"
                   for ti, yi in zip(t, ys)).encode()


def filled_telemetry(n_rows, dims=(2, 1, 1, 1, 3), seed=0):
    """A log of `n_rows` rows whose values span many magnitudes and signs,
    with exact zeros, integers and a negative zero among them."""
    rng = np.random.default_rng(seed)
    dim_z, dim_x, dim_xd, m, n1 = dims
    tel = Telemetry(dim_z, dim_x, dim_xd, m, n1, capacity=4)
    width = len(tel.header) - 1
    scale = np.logspace(-12, 12, width)
    g = np.cumsum([0, dim_z, dim_x, dim_xd, m])
    for k in range(n_rows):
        v = rng.standard_normal(width) * scale
        v[k % width] = (0.0, -0.0, 3.0, -1e300)[k % 4]
        tel.append(k * 1e-3, v[g[0]:g[1]], v[g[1]:g[2]], v[g[2]:g[3]],
                   v[g[3]:g[4]], *v[g[4]:g[4] + 6], v[g[4] + 6:])
    return tel


def written(tmp_path, telemetry, series):
    telemetry.to_csv(tmp_path / "telemetry.csv", tmp_path, series)
    return {name: (tmp_path / f"{name}.dat").read_bytes() for name in series}


@pytest.mark.parametrize("n_rows", [
    0, 1, _CHUNK_ROWS - 1, _CHUNK_ROWS, _CHUNK_ROWS + 1, 2 * _CHUNK_ROWS + 3])
def test_writer_matches_reference_formatting(tmp_path, n_rows):
    tel = filled_telemetry(n_rows)
    derived = np.sin(np.arange(n_rows)) * 1e-7
    files = written(tmp_path, tel, {"state_00": "x0", "hjb_error": "e_hat",
                                    "weight_02": "W2", "derived": derived})
    assert (tmp_path / "telemetry.csv").read_bytes() == reference_csv(tel)
    t = tel.t
    assert files["state_00"] == reference_series(t, tel.column("x0"))
    assert files["hjb_error"] == reference_series(t, tel.column("e_hat"))
    assert files["weight_02"] == reference_series(t, tel.column("W2"))
    assert files["derived"] == reference_series(t, derived)


def test_writer_without_series_writes_only_the_csv(tmp_path):
    tel = filled_telemetry(3)
    tel.to_csv(tmp_path / "telemetry.csv")
    assert os.listdir(tmp_path) == ["telemetry.csv"]
    assert (tmp_path / "telemetry.csv").read_bytes() == reference_csv(tel)


def assert_run_artifacts_match_reference(out, telemetry):
    """telemetry.csv and every series file against the reference formatting
    of the in-memory log; derived panels by their time column."""
    assert (out / "telemetry.csv").read_bytes() == reference_csv(telemetry)
    t = telemetry.t
    copies = {f"state_{i:02d}": f"x{i}" for i in range(telemetry.dim_x)}
    copies.update((f"ctrl_{name}", f"u_{name}")
                  for name in telemetry.control_names)
    copies.update((f"weight_{k:02d}", f"W{k}") for k in range(telemetry.n1))
    copies.update(value="V_hat", hjb_error="e_hat")
    for name, col in copies.items():
        got = (out / "series" / f"{name}.dat").read_bytes()
        assert got == reference_series(t, telemetry.column(col)), name
    t_strs = [repr(float(ti)) for ti in t]
    for path in (out / "series").glob("*.dat"):
        lines = path.read_text().splitlines()
        assert [ln.split(" ")[0] for ln in lines] == t_strs, path.name


def test_decimated_run_matches_reference(tmp_path):
    # 2000 steps kept every 7th: 287 rows, past one chunk
    out = tmp_path / "rec7"
    code, telemetry, _ = cli.run_one(
        cli.resolve_config_path("linear_benchmark"),
        ["sim.t_end_s=2.0", "sim.record_every=7"], out_dir=str(out))
    assert code == cli.EXIT_OK and len(telemetry.rows) == 287
    assert_run_artifacts_match_reference(out, telemetry)
    track = (out / "series" / "track_err_1.dat").read_bytes()
    assert track == reference_series(telemetry.t, telemetry.column("z1"))


def test_numeric_fault_partial_flush_matches_reference(tmp_path):
    out = tmp_path / "fault"
    code, telemetry, _ = cli.run_one(
        cli.resolve_config_path("linear_benchmark"),
        ["learner.alpha=1e308", "sim.t_end_s=1.0"], out_dir=str(out))
    assert code == cli.EXIT_NUMERIC and len(telemetry.rows) >= 1
    assert_run_artifacts_match_reference(out, telemetry)


def test_writer_working_set_is_bounded(tmp_path):
    """A UAV-sized log (11501 x 58) with its 44 copied and 9 derived series
    is written in a few MB: chunks, not the whole formatted log (which is
    over 40 MB of strings)."""
    tel = filled_telemetry(11501, dims=(6, 12, 3, 3, 27), seed=1)
    assert tel.rows.shape == (11501, 58)
    series = {f"state_{i:02d}": f"x{i}" for i in range(12)}
    series.update((f"weight_{k:02d}", f"W{k}") for k in range(27))
    series.update((f"ctrl_u{j}", f"u_u{j}") for j in range(3))
    series.update(value="V_hat", hjb_error="e_hat")
    series.update((f"panel_{i}", tel.column("z0") * (i + 1)) for i in range(9))
    tracemalloc.start()
    try:
        tel.to_csv(tmp_path / "telemetry.csv", tmp_path, series)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6, f"writer peak {peak / 1e6:.1f} MB"
