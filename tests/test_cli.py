"""CLI surface: exit codes, CSV reproducibility, subcommand output."""

import io
import math
import os
import shlex
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from symprod import (capacities, cli, diskmap, dynamics, fractal, geometry2d,
                     product)
from symprod.cli import build_parser, run
from symprod.selftest import _fmt, run_selftest

ROOT = Path(__file__).resolve().parent.parent
SPECS = ROOT / "specs"


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run(argv)
    return code, buf.getvalue()


def test_capacities_table():
    code, out = run_cli(["capacities", "--areas", "1,2", "--count", "4"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("# symprod ")
    assert lines[1] == "1,2,2,3"


def test_python_dash_m_symprod():
    """python -m symprod runs the CLI: exit 0, and 2 on a usage error."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))

    def symprod(*argv):
        return subprocess.run([sys.executable, "-m", "symprod", *argv],
                              capture_output=True, text=True, env=env,
                              timeout=120)

    ok = symprod("capacities", "--areas", "1,2", "--count", "4")
    assert ok.returncode == 0
    assert ok.stdout.splitlines()[1] == "1,2,2,3"
    bad = symprod("capacities", "--areas", "1,-2")
    assert bad.returncode == 2
    assert bad.stderr.startswith("error: ")
    assert "Traceback" not in bad.stderr


def test_area_command():
    code, out = run_cli(["area", "--spec", str(SPECS / "disks_1_1.spec")])
    assert code == 0
    assert "factor,area" in out
    assert "0,1" in out


def test_volume_near_exact(tmp_path):
    out_file = tmp_path / "vol.txt"
    code, _ = run_cli(["volume", "--spec", str(SPECS / "disks_1_1.spec"),
                       "--samples", "100000", "--seed", "7",
                       "--output", str(out_file)])
    assert code == 0
    text = out_file.read_text()
    est = float([ln for ln in text.splitlines()
                 if ln.startswith("estimate")][0].split("=")[1])
    assert abs(est - 0.5) < 0.01
    assert "reference = 0.5" in text


def test_volume_reference_at_every_p(tmp_path):
    """The closed-form reference is printed away from p = 2 as well."""
    spec = tmp_path / "p3.spec"
    spec.write_text((SPECS / "disks_1_1.spec").read_text().replace(
        "p = 2", "p = 3"))
    code, out = run_cli(["volume", "--spec", str(spec),
                         "--samples", "20000", "--seed", "7"])
    assert code == 0
    exact = math.gamma(1.0 + 2.0 / 3.0) ** 2 / math.gamma(1.0 + 4.0 / 3.0)
    assert f"reference = {exact:.12g}" in out.splitlines()


def test_map_command_jacobian_column(tmp_path):
    """Every printed Jacobian, on both factors, is 1 within 1e-9."""
    out_file = tmp_path / "map.csv"
    for factor in ("0", "1"):
        code, _ = run_cli(["map", "--spec", str(SPECS / "cosine_disk.spec"),
                           "--grid", "8", "--factor", factor,
                           "--output", str(out_file)])
        assert code == 0
        rows = out_file.read_text().splitlines()[2:]
        jac = [float(r.split(",")[-1]) for r in rows]
        assert max(abs(j - 1.0) for j in jac) < 1e-9


def test_flow_command_preserves_gauge():
    code, out = run_cli(["flow", "--spec", str(SPECS / "cosine_disk.spec"),
                         "--point", "0.3,0.2;0.1,0.4",
                         "--t-range", "0,1", "--steps", "5"])
    assert code == 0
    gauges = [float(r.rsplit(",", 1)[1]) for r in out.splitlines()[2:]]
    assert max(gauges) - min(gauges) < 1e-10


def test_conjugacy_command():
    code, out = run_cli(["conjugacy", "--spec",
                         str(SPECS / "weier_square.spec"),
                         "--samples", "50", "--seed", "3"])
    assert code == 0
    assert "max_residual" in out


def test_boxdim_function_csv():
    code, out = run_cli(["boxdim", "--target", "function", "--min-exp", "4",
                         "--max-exp", "9", "--seed", "1"])
    assert code == 0
    assert "# slope = " in out


def test_boxdim_family_counts_its_weierstrass_graph():
    """--family weierstrass counts the zero-phase series, and
    weierstrass_phase the phases of seed 0 (geometry2d.hunt_phases)."""
    scales = 2.0 ** -np.arange(4, 10)
    counts = {}
    for family, seed in (("weierstrass", None), ("weierstrass_phase", 0)):
        code, out = run_cli(["boxdim", "--family", family, "--terms", "12",
                             "--min-exp", "4", "--max-exp", "9",
                             "--seed", "2"])
        assert code == 0
        rows = out.splitlines()[2:2 + scales.size]
        counts[family] = [float(row.split(",")[1]) for row in rows]
        fn = fractal.Weierstrass(terms=12, seed=seed)
        assert counts[family] == fractal.count_scales(
            fractal.graph_sampler(fn), scales, seed=2).tolist()
    assert counts["weierstrass"] != counts["weierstrass_phase"]


def test_csv_output_is_reproducible():
    argv = ["volume", "--spec", str(SPECS / "cosine_disk.spec"),
            "--samples", "50000", "--seed", "11"]
    _, first = run_cli(argv)
    _, second = run_cli(argv)
    assert first == second


def test_csv_of_numpy_columns_is_the_text_of_python_rows():
    """_csv over numpy columns, past a chunk boundary, prints each row as
    ",".join of _fmt over the same values as Python floats and ints."""
    special = [-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, 2.2e-310,
               0.1234567890125, 1.0000000000005, 999999999999.5,
               0.30000000000000004, 1e16, -123456789012.5, 1e-5]
    rng = np.random.default_rng(0)
    n = cli.CSV_CHUNK + 3 + len(special)
    drawn = n - len(special)
    floats = np.concatenate([special, rng.standard_normal(drawn)
                             * 10.0 ** rng.integers(-320, 300, drawn)])
    ints = rng.integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max, n,
                        dtype=np.int64, endpoint=True)
    ints[:3] = [np.iinfo(np.int64).min, 0, np.iinfo(np.int64).max]
    rows = zip(range(n), floats.tolist(), ints.tolist(), (-floats).tolist())
    expected = ["i,f,k,g"] + [",".join(map(_fmt, row)) for row in rows]
    assert list(cli._csv(["i", "f", "k", "g"], range(n), floats, ints,
                         -floats)) == expected
    assert expected[1:4] == ["0,-0,-9223372036854775808,0",
                             "1,0,0,-0", "2,nan,9223372036854775807,nan"]


def test_fmt_of_a_numpy_scalar_is_that_of_its_python_number():
    """_fmt formats a float64 as the float and an int64 as the int."""
    values = [-0.0, np.nan, np.inf, -np.inf, 5e-324, 0.1234567890125,
              2.0 / 3.0]
    for value in values:
        assert _fmt(np.float64(value)) == _fmt(value)
    for value in (-2 ** 63, -1, 0, 7, 2 ** 63 - 1):
        assert _fmt(np.int64(value)) == _fmt(value) == str(value)


@pytest.mark.parametrize("argv", [
    ["map", "--spec", str(SPECS / "weier_square.spec"), "--grid", "128"],
    ["flow", "--spec", str(SPECS / "disks_1_1.spec"), "--point",
     "0.4,0.1;0.3,0.2", "--steps", "20000"]], ids=["map", "flow"])
def test_csv_commands_stream_their_rows(argv, tmp_path):
    """A CSV command writes each row as it formats it: 4.3 MiB traced peak
    for the map and 3.4 MiB for the flow, against 9.9 and 14.0 MiB when
    every row was built before the first was written. A first call warms
    numpy's one-time allocations out of the trace."""
    argv = argv + ["--output", str(tmp_path / "out.csv")]
    assert run(argv) == 0
    tracemalloc.start()
    try:
        assert run(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5 * 2 ** 20


def test_unequal_areas_name_the_spread(capsys):
    """cosine_disk.spec's linear cosine has area 1 - 1.3e-8, so
    boundary-minimal refuses it, naming both areas and the tolerance."""
    code, out = run_cli(["boundary-minimal", "--spec",
                         str(SPECS / "cosine_disk.spec"), "--seed", "1",
                         "--samples", "1000"])
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == (
        "error: needs equal factor areas, to within 1e-10; they range from "
        "0.9999999868643674 to 0.9999999999999999\n")


def sandwich_fields(out):
    return dict(line.split(" = ") for line in out.splitlines()[1:])


def test_sandwich_reports_bands_and_bounds():
    argv = ["sandwich", "--spec", str(SPECS / "weier_square.spec"),
            "--samples", "2000", "--seed", "5"]
    code, out = run_cli(argv)
    assert code == 0
    fields = sandwich_fields(out)
    assert int(fields["closed_form"]) + int(fields["integrated"]) == 8000
    assert int(fields["integrated"]) > 0
    assert float(fields["worst_outer_gauge"]) <= \
        float(fields["outer_bound"]) <= 1.05
    assert float(fields["worst_inner_gauge"]) <= \
        float(fields["inner_bound"]) <= 1.0
    assert run_cli(argv)[1] == out


def test_sandwich_on_three_factors():
    code, out = run_cli(["sandwich", "--spec",
                         str(SPECS / "weier_square_disk.spec"),
                         "--samples", "500", "--seed", "5"])
    assert code == 0
    fields = sandwich_fields(out)
    assert float(fields["outer_bound"]) == pytest.approx(1.01032, abs=1e-5)
    assert float(fields["inner_bound"]) == pytest.approx(0.96170, abs=1e-5)
    assert int(fields["closed_form"]) + int(fields["integrated"]) == 3000


def test_sandwich_on_a_thin_rectangle_squared(tmp_path):
    """The 2 x 0.2 rectangle has k_min 12.7; delta from the bound passes."""
    factor = ("[factor]\ntype = polygon\n"
              "vertices = 1 0.1, -1 0.1, -1 -0.1, 1 -0.1\n")
    spec = tmp_path / "rectangles.spec"
    spec.write_text("p = 2\n\n" + factor + "\n" + factor)
    code, out = run_cli(["sandwich", "--spec", str(spec),
                         "--samples", "20000", "--seed", "5"])
    assert code == 0
    fields = sandwich_fields(out)
    assert float(fields["outer_bound"]) == pytest.approx(1.04199, abs=1e-5)
    assert float(fields["inner_bound"]) == pytest.approx(0.99511, abs=1e-5)


def test_missing_spec_file_exits_2(capsys):
    assert run(["area", "--spec", "no_such_file.spec"]) == 2


def test_malformed_spec_exits_2_with_line(tmp_path, capsys):
    bad = tmp_path / "bad.spec"
    bad.write_text("[factor]\ntype = disk\nbogus = 1\n")
    assert run(["area", "--spec", str(bad)]) == 2
    assert "line 3" in capsys.readouterr().err


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        run(["capacities", "--areas", "1", "--frobnicate"])
    assert exc.value.code == 2


def test_unknown_command_exits_2():
    with pytest.raises(SystemExit) as exc:
        run(["transmogrify"])
    assert exc.value.code == 2


def test_selftest_quick():
    """Quick selftest passes, byte-identically at 1 and 2 threads."""
    reports = []
    for threads in (1, 2):
        lines = []
        assert run_selftest(seed=7, threads=threads, quick=True,
                            out=lines.append) == 0
        reports.append("\n".join(lines))
    assert reports[0] == reports[1]
    assert run(["selftest", "--seed", "7", "--quick"]) == 0


def test_selftest_output_file(tmp_path, capsys):
    """--output gets the exact stdout report: no header, nothing on stdout."""
    argv = ["selftest", "--seed", "7", "--quick"]
    assert run(argv) == 0
    stdout = capsys.readouterr().out
    path = tmp_path / "st.txt"
    assert run(argv + ["--output", str(path)]) == 0
    assert capsys.readouterr().out == ""
    assert path.read_text(encoding="utf-8") == stdout


@pytest.mark.parametrize("argv", [
    ["sandwich", "--spec", "P3_WEIER", "--samples", "2000", "--seed", "1"],
    ["conjugacy", "--spec", "P3_WEIER", "--samples", "50", "--seed", "1"],
    ["boundary-minimal", "--spec", "P3_DISKS", "--samples", "2000",
     "--seed", "1"],
    ["flow", "--spec", "P3_DISKS", "--point", "0.1,0.1;0.2,0.1",
     "--steps", "3"],
    ["flow", "--spec", str(SPECS / "cosine_disk.spec"), "--point", "0.1,0.1"],
    ["map", "--spec", str(SPECS / "cosine_disk.spec"), "--factor", "5"],
    ["volume", "--spec", str(SPECS / "disks_1_1.spec"), "--samples", "10",
     "--seed", "1"],
    ["boxdim", "--max-exp", "6", "--seed", "1"],
    ["capacities", "--areas", "1,-2"],
    ["boxdim", "--family", "xiao_zhou", "--seed", "1"],
    ["capacities", "--areas", "inf,1"],
    ["boxdim", "--target", "boundary", "--family", "xiao_zhou",
     "--min-exp", "1", "--max-exp", "5", "--seed", "1"],
    ["area", "--spec", "DIR"],
    ["area", "--spec", str(SPECS / "disks_1_1.spec"), "--output", "DIR"],
    ["flow", "--spec", str(SPECS / "disks_1_1.spec"),
     "--point", "nan,0;0.3,0.2"],
    ["flow", "--spec", str(SPECS / "disks_1_1.spec"),
     "--point", "0.4,0.1;0.3,0.2", "--t-range", "0,inf"],
    ["flow", "--spec", str(SPECS / "disks_1_1.spec"),
     "--point", "0.4,0.1;0.3,0.2", "--t-range", "0,1e308"],
    ["conjugacy", "--spec", str(SPECS / "disks_1_1.spec"), "--samples", "0",
     "--seed", "1"],
    ["boxdim", "--b", "1e300", "--seed", "1"],
    ["boxdim", "--b", "inf", "--seed", "1"],
    ["map", "--spec", str(SPECS / "cosine_disk.spec"), "--grid", "0"],
    ["flow", "--spec", str(SPECS / "disks_1_1.spec"),
     "--point", "0.4,0.1;0.3,0.2", "--steps", "0"],
    ["volume", "--spec", str(SPECS / "disks_1_1.spec"), "--seed", "1",
     "--threads", "0"],
    ["selftest", "--quick", "--threads", "0"],
    ["sandwich", "--spec", str(SPECS / "weier_square.spec"), "--samples", "0",
     "--seed", "1"],
    ["boundary-minimal", "--spec", str(SPECS / "disks_1_1.spec"),
     "--samples", "0", "--seed", "1"],
    # 2^-1076 .. 2^-1080 underflow to 0, 2^1096 .. 2^1100 overflow to inf
    ["boxdim", "--min-exp", "1076", "--max-exp", "1080", "--seed", "1"],
    ["boxdim", "--min-exp", "-1100", "--max-exp", "-1096", "--seed", "1"],
    ["boxdim", "--target", "boundary", "--min-exp", "1076",
     "--max-exp", "1080", "--seed", "1"],
    ["boxdim", "--target", "boundary", "--min-exp", "-1100",
     "--max-exp", "-1096", "--seed", "1"],
    ["conjugacy", "--spec", str(SPECS / "disks_1_1.spec"), "--seed", "1",
     "--tolerance", "nan"],
    ["conjugacy", "--spec", str(SPECS / "disks_1_1.spec"), "--seed", "1",
     "--tolerance", "-1"],
    ["selftest", "--quick", "--seed", "-1"],
    ["boundary-minimal", "--spec", str(SPECS / "disks_1_1.spec"),
     "--samples", "2000", "--seed", "-1"],
], ids=["sandwich-p3", "conjugacy-p3", "boundary-minimal-p3", "flow-p3",
        "flow-one-point", "map-factor-range", "volume-few-samples",
        "boxdim-few-scales", "capacities-negative", "boxdim-family-parameter",
        "capacities-infinite", "boxdim-boundary-family", "spec-is-directory",
        "output-is-directory", "flow-nan-point", "flow-infinite-t-range",
        "flow-overflowing-t-range",
        "conjugacy-no-samples", "boxdim-b-overflow", "boxdim-b-infinite",
        "map-grid-zero", "flow-steps-zero", "volume-threads-zero",
        "selftest-threads-zero", "sandwich-no-samples",
        "boundary-minimal-no-samples", "boxdim-zero-scale",
        "boxdim-infinite-scale", "boxdim-boundary-zero-scale",
        "boxdim-boundary-infinite-scale", "conjugacy-nan-tolerance",
        "conjugacy-negative-tolerance", "selftest-negative-seed",
        "boundary-minimal-negative-seed"])
def test_usage_error_exits_2(argv, tmp_path, capsys):
    """P3_* stand for p = 3 copies of the bundled specs, DIR for a directory."""
    p3 = {"DIR": tmp_path}
    for token, name in (("P3_WEIER", "weier_square"),
                        ("P3_DISKS", "disks_1_1")):
        p3[token] = tmp_path / f"{name}_p3.spec"
        p3[token].write_text(
            (SPECS / f"{name}.spec").read_text().replace("p = 2", "p = 3"))
    argv = [str(p3.get(a, a)) for a in argv]
    code, out = run_cli(argv)
    assert code == 2
    assert out == ""
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("argv, message", [
    (["flow", "--spec", str(SPECS / "disks_1_1.spec"),
      "--point", "1,0,2;0.5,0"], "--point needs 2 comma-separated numbers"),
    (["flow", "--spec", str(SPECS / "disks_1_1.spec"),
      "--point", "0.4,0.1;0.3,0.2", "--t-range", "1"],
     "--t-range needs 2 comma-separated numbers"),
    (["sandwich", "--spec", str(SPECS / "weier_square.spec"),
      "--seed", "-1"], "--seed must be non-negative"),
    (["capacities", "--areas", "1,x"],
     "--areas needs comma-separated numbers"),
    (["flow", "--spec", str(SPECS / "disks_1_1.spec"),
      "--point", "1,x;0.5,0"], "--point needs 2 comma-separated numbers"),
    (["flow", "--spec", str(SPECS / "disks_1_1.spec"),
      "--point", "0.4,0.1;0.3,0.2", "--t-range", "0,y"],
     "--t-range needs 2 comma-separated numbers"),
    (["capacities", "--areas", "1,2", "--count", "0"],
     "--count must be at least 1"),
    (["volume", "--spec", str(SPECS / "disks_1_1.spec"), "--seed", "1",
      "--threads", "0"], "--threads must be at least 1"),
    (["volume", "--spec", str(SPECS / "disks_1_1.spec"), "--samples", "10",
      "--seed", "1"], "--samples must be at least 1000, got 10"),
    (["conjugacy", "--spec", str(SPECS / "disks_1_1.spec"), "--samples", "0",
      "--seed", "1"], "--samples must be at least 1, got 0"),
    (["sandwich", "--spec", str(SPECS / "weier_square.spec"), "--samples",
      "0", "--seed", "1"], "--samples must be at least 1, got 0"),
    (["boundary-minimal", "--spec", str(SPECS / "disks_1_1.spec"),
      "--samples", "0", "--seed", "1"], "--samples must be at least 1, got 0"),
    (["sandwich", "--spec", str(SPECS / "weier_square.spec"), "--steps", "4",
      "--seed", "1"], "--steps must be at least 8, got 4"),
], ids=["flow-point-three-numbers", "flow-t-range-one-number",
        "sandwich-negative-seed", "capacities-areas-not-a-number",
        "flow-point-not-a-number", "flow-t-range-not-a-number",
        "capacities-count-zero", "volume-threads-zero", "volume-few-samples",
        "conjugacy-no-samples", "sandwich-no-samples",
        "boundary-minimal-no-samples", "sandwich-few-steps"])
def test_usage_error_names_the_option(argv, message, capsys):
    code, out = run_cli(argv)
    assert (code, out) == (2, "")
    assert capsys.readouterr().err.startswith(f"error: {message}")


@pytest.mark.parametrize("argv, message", [
    (["boxdim", "--target", "boundary", "--seed", "1"], "budget"),
    (["boxdim", "--target", "boundary", "--min-exp", "4", "--max-exp", "7",
      "--seed", "1"], "need at least 5"),
    (["boxdim", "--min-exp", "4", "--max-exp", "7", "--seed", "1"],
     "need at least 5"),
], ids=["boundary-defaults", "boundary-few-scales", "function-few-scales"])
def test_boxdim_refuses_before_counting(argv, message, monkeypatch, capsys):
    """Exit 2 with no box counted: the counters and the patch grid's radius
    evaluation fail the test if they are ever called."""
    def forbidden(*args, **kwargs):
        raise AssertionError("boxdim counted before checking its scales")

    monkeypatch.setattr(geometry2d.RadialProfile, "radius", forbidden)
    monkeypatch.setattr(fractal, "count_scales", forbidden)
    code, out = run_cli(argv)
    assert code == 2
    assert out == ""
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("argv, module, name", [
    (["map", "--spec", str(SPECS / "cosine_disk.spec"), "--grid", "513"],
     diskmap, "disk_to_domain"),
    (["capacities", "--areas", "1,2", "--count", "1000001"],
     capacities, "gh_capacities"),
    (["volume", "--spec", str(SPECS / "disks_1_1.spec"), "--seed", "1",
      "--samples", "1000000001"], product, "mc_volume"),
    (["conjugacy", "--spec", str(SPECS / "disks_1_1.spec"), "--seed", "1",
      "--samples", "1000001"], dynamics, "sample_conjugacy_residuals"),
    (["sandwich", "--spec", str(SPECS / "disks_1_1.spec"), "--seed", "1",
      "--samples", "1000001"], diskmap, "sandwich_check"),
    (["boundary-minimal", "--spec", str(SPECS / "disks_1_1.spec"), "--seed",
      "1", "--samples", "1000001"], capacities,
     "boundary_minimal_experiment"),
    (["flow", "--spec", str(SPECS / "disks_1_1.spec"), "--point",
      "0.4,0.1;0.3,0.2", "--steps", "1000001"], cli, "load_spec"),
    (["sandwich", "--spec", str(SPECS / "disks_1_1.spec"), "--seed", "1",
      "--samples", "1000", "--steps", "16385"], diskmap, "sandwich_check")],
    ids=["map-grid", "capacities-count", "volume-samples", "conjugacy-samples",
         "sandwich-samples", "boundary-minimal-samples", "flow-steps",
         "sandwich-steps"])
def test_size_limit_refuses_before_computing(argv, module, name, monkeypatch,
                                             capsys):
    """One past the option's limit exits 2, naming the option, and the
    computation, which fails the test if it is ever called, never runs."""
    def forbidden(*args, **kwargs):
        raise AssertionError(f"{argv[0]} computed past its size limit")

    monkeypatch.setattr(module, name, forbidden)
    code, out = run_cli(argv)
    assert (code, out) == (2, "")
    assert capsys.readouterr().err.startswith(
        f"error: {argv[-2]} must be at most {int(argv[-1]) - 1}, got")


NPROC = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
         else os.cpu_count())
# Values that no number option takes, or that only some take.
NUMBERS = ["0", "1", "-1", "1e-300", "1e308", "nan", "inf", "x"]
# The work of each subcommand, which a count above its limit never reaches.
WORK = [(product, "mc_volume"), (dynamics, "sample_conjugacy_residuals"),
        (dynamics, "char_flow_2d"), (diskmap, "sandwich_check"),
        (diskmap, "disk_to_domain"), (capacities, "gh_capacities"),
        (capacities, "boundary_minimal_experiment"),
        (fractal, "count_scales"), (fractal, "boundary_patch_counts"),
        (cli, "run_selftest")]


def count(option, least, most, small):
    """A count option: valid from least to small, invalid below least or
    above most, from one past it to 10^15."""
    return (option, st.integers(least, small), st.one_of(
        st.integers(-2, least - 1), st.integers(most + 1, 10 ** 15)), most)


def choice(option, valid, invalid=()):
    """An option valid at the ``valid`` values, and invalid at the
    ``invalid`` ones and at NUMBERS."""
    return (option, st.sampled_from(valid),
            st.sampled_from([*invalid, *NUMBERS]), None)




def spec(*names):
    """--spec, valid at the named bundled specs."""
    return choice("--spec", [str(SPECS / f"{name}.spec") for name in names],
                  ["no/such.spec"])


SPEC = spec("disks_1_1", "cosine_disk", "weier_square", "weier_square_disk")
SEED = ("--seed", st.integers(0, 3), st.just(-1), None)
THREADS = ("--threads", st.integers(1, NPROC), st.integers(-1, 0), None)
# Each subcommand's options, each with its valid and invalid values.
OPTIONS = {
    "area": [SPEC],
    "map": [SPEC, ("--factor", st.integers(0, 1), st.just(3), None),
            count("--grid", 1, cli.MAP_GRID_MAX, 12)],
    "volume": [SPEC, SEED, THREADS,
               count("--samples", product.MC_MIN_SAMPLES,
                     cli.VOLUME_SAMPLES_MAX, 3000)],
    "flow": [spec("disks_1_1", "cosine_disk", "weier_square"),
             choice("--point", ["0.4,0.1;0.3,0.2", "0.1,0.1;0.2,0.1"],
                          ["0.1,0.1", "nan,0;0.3,0.2", "1,x;0.5,0"]),
             choice("--t-range", ["0,1", "-2,3"], ["0,1e308", "0,inf"]),
             count("--steps", 1, cli.FLOW_STEPS_MAX, 40)],
    "conjugacy": [SPEC, SEED, choice("--tolerance", ["1e-6", "0", "1e308"]),
                  count("--samples", 1, cli.SAMPLES_MAX, 40)],
    "capacities": [choice("--areas", ["1,2", "2,3,5", "1"],
                          ["1,-2", "nan,1", "1,x", "1e308,1"]),
                   count("--count", 1, cli.CAPACITY_COUNT_MAX, 12)],
    "sandwich": [SPEC, SEED, choice("--epsilon", ["0.05", "0.2", "0.9"]),
                 count("--samples", 1, cli.SAMPLES_MAX, 300),
                 count("--steps", diskmap.MIN_STEPS, cli.SANDWICH_STEPS_MAX,
                       32)],
    "boundary-minimal": [spec("disks_1_1"), SEED,
                         choice("--width", ["0.9", "0.6"]),
                         choice("--target-ratio", ["0.9", "0.8"]),
                         count("--samples", 1, cli.SAMPLES_MAX, 500)],
    "boxdim": [SEED, choice("--target", ["function", "product", "boundary"]),
               choice("--family", ["weierstrass", "weierstrass_phase"]),
               choice("--a", ["0.5", "0.7"]), choice("--b", ["3", "4"]),
               ("--terms", st.integers(0, 40), st.just(-1), None),
               ("--min-exp", st.integers(0, 2), st.sampled_from([4, 1076]),
                None),
               ("--max-exp", st.integers(6, 7), st.sampled_from([5, -1100]),
                None)],
    "selftest": [SEED, THREADS],
}


@st.composite
def cli_argvs(draw):
    """A subcommand's argv with valid values but for at most one option,
    and whether that option is a count above its limit. --threads never
    exceeds NPROC."""
    command = draw(st.sampled_from(sorted(OPTIONS)))
    options = OPTIONS[command]
    broken = draw(st.one_of(st.none(), st.integers(0, len(options) - 1)))
    argv, over = [command], False
    for i, (option, valid, invalid, most) in enumerate(options):
        value = draw(invalid if i == broken else valid)
        over = over or (most is not None and value > most)
        argv += [option, str(value)]
    if command == "selftest":
        argv.append("--quick")
    return argv, over


def forbidden(*args, **kwargs):
    raise AssertionError("a count above its limit reached the work")


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=cli_argvs())
def test_any_argv_exits_0_1_or_2_without_traceback(case):
    """Every subcommand, run in-process on drawn option values, exits 0, 1
    (a FAIL verdict) or 2 (argparse's usage errors included) and writes no
    traceback. A count above its limit exits 2 before any work: the work
    functions, which fail the test when called, are never reached."""
    argv, over = case
    err = io.StringIO()
    with pytest.MonkeyPatch.context() as patch:
        if over:
            for module, name in WORK:
                patch.setattr(module, name, forbidden)
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            try:
                code = run(argv)
            except SystemExit as exc:
                code = exc.code
    assert code in (0, 1, 2), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue(), argv
    assert code == 2 or not over, argv


def test_readme_examples_parse():
    """Every README line starting with ``symprod `` parses, and names
    spec files that exist."""
    lines = (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
    examples = [shlex.split(ln)[1:] for ln in lines
                if ln.startswith("symprod ")]
    assert examples
    parser = build_parser()
    for argv in examples:
        spec = getattr(parser.parse_args(argv), "spec", None)
        assert spec is None or (ROOT / spec).is_file(), argv
