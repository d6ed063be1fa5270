"""Acceptance suite: one criterion per test, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v``; the summary lines are
printed outside pytest's capture so they always appear.
"""

import subprocess
import sys
import time

from symprod import selftest


def report(capsys, name, ok, detail):
    with capsys.disabled():
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def run_check(capsys, name, check, seed, bound=None):
    """Report one selftest check at full size, failing it past ``bound``
    seconds."""
    start = time.perf_counter()
    _, ok, detail = check(seed)
    elapsed = time.perf_counter() - start
    if bound is not None:
        ok = ok and elapsed < bound
        detail += f", {elapsed:.2f}s (< {bound:g}s)"
    report(capsys, name, ok, detail)


def test_criterion_01_jacobian(capsys):
    """Disk-map symplecticity: |det - 1| <= 1e-6 at 1e3 points, < 5 s."""
    run_check(capsys, "criterion-01 jacobian", selftest.check_jacobian,
              bound=5.0, seed=101)


def test_criterion_02_level_mapping(capsys):
    """gauge(psi(z))^2 = pi|z|^2/a within 1e-10 on 1e4 points, all presets.

    This measures the round-off of R, S and S^-1, not psi independently
    (selftest.check_level_mapping)."""
    run_check(capsys, "criterion-02 level-mapping",
              selftest.check_level_mapping, seed=102)


def test_criterion_03_sandwich(capsys):
    """Two-factor epsilon-sandwich: zero violations at M=1e5, < 5 s."""
    run_check(capsys, "criterion-03 sandwich", selftest.check_sandwich,
              bound=5.0, seed=103)


def test_criterion_04_volume(capsys):
    """mc_volume of area-(1,1) p-products, p = 1, 2, 3: each within 3 SE of
    the closed-form volume at M=1e6."""
    run_check(capsys, "criterion-04 volume", selftest.check_volume,
              bound=30.0, seed=104)


def test_criterion_05_period(capsys):
    """Phi^area returns 20 random boundary points within 1e-8, all presets.

    This measures the round-off of R, S and S^-1, not the flow
    independently (selftest.check_period)."""
    run_check(capsys, "criterion-05 period", selftest.check_period, seed=105)


def test_criterion_06_conjugacy(capsys):
    """Reeb conjugacy residual over 1e3 random (z, t) <= 1e-6.

    This measures the round-off of R, S and S^-1, not psi or the flow
    independently (selftest.check_conjugacy)."""
    run_check(capsys, "criterion-06 conjugacy", selftest.check_conjugacy,
              seed=106)


def test_criterion_07_foliation(capsys):
    """Equal areas: all orbits close at t=a; (1, sqrt 2): no period found.

    The closing measures the round-off of R, S and S^-1, not the flow
    independently (selftest.check_foliation)."""
    run_check(capsys, "criterion-07 foliation", selftest.check_foliation,
              seed=107)


def test_criterion_08_capacities(capsys):
    """E(1,2) capacities (1,2,2,3); c1 = cn exactly for equal areas."""
    run_check(capsys, "criterion-08 capacities", selftest.check_capacities,
              seed=108)


def test_criterion_09_boundary_minimal(capsys):
    """Shrink to a'=0.9a: zero containment violations at M=1e5, gap 0.1a."""
    run_check(capsys, "criterion-09 boundary-minimal",
              selftest.check_boundary_minimal, seed=109)


def test_criterion_10_fractal_dimension(capsys):
    """Box-counting: graph and disk patch, graph x interval, fractal patch."""
    run_check(capsys, "criterion-10 boxdim", selftest.check_boxdim,
              bound=10.0, seed=110)


def test_criterion_11_determinism(capsys):
    """selftest --seed 7 output identical for --threads 1 and --threads 8."""
    def selftest(threads):
        return subprocess.run(
            [sys.executable, "-m", "symprod.cli", "selftest", "--seed", "7",
             "--threads", str(threads)],
            capture_output=True, text=True, timeout=600)

    one = selftest(1)
    eight = selftest(8)
    ok = (one.returncode == 0 and eight.returncode == 0 and
          one.stdout == eight.stdout)
    report(capsys, "criterion-11 determinism", ok,
           f"exit codes {one.returncode}/{eight.returncode}, "
           f"reports {'identical' if one.stdout == eight.stdout else 'differ'}")
