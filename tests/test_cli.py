"""CLI surface: exit codes, CSV reproducibility, subcommand output."""

import io
import math
import shlex
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from symprod.cli import build_parser, run
from symprod.selftest import run_selftest

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


def test_csv_output_is_reproducible():
    argv = ["volume", "--spec", str(SPECS / "cosine_disk.spec"),
            "--samples", "50000", "--seed", "11"]
    _, first = run_cli(argv)
    _, second = run_cli(argv)
    assert first == second


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
], ids=["sandwich-p3", "conjugacy-p3", "boundary-minimal-p3", "flow-p3",
        "flow-one-point", "map-factor-range", "volume-few-samples",
        "boxdim-few-scales", "capacities-negative", "boxdim-family-parameter",
        "capacities-infinite", "boxdim-boundary-family", "spec-is-directory",
        "output-is-directory", "flow-nan-point", "flow-infinite-t-range",
        "conjugacy-no-samples", "boxdim-b-overflow", "boxdim-b-infinite",
        "map-grid-zero", "flow-steps-zero", "volume-threads-zero",
        "selftest-threads-zero"])
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
