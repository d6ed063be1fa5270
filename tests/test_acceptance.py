"""Acceptance suite: one criterion per test, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v``; the summary lines are
printed outside pytest's capture so they always appear.
"""

import subprocess
import sys
import time

import numpy as np

from symprod import fractal, geometry2d, selftest
from symprod.geometry2d import TWO_PI


def report(capsys, name, ok, detail):
    with capsys.disabled():
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def timed(check, **kwargs):
    """(passed, detail, seconds) of one selftest check."""
    start = time.perf_counter()
    _, ok, detail = check(**kwargs)
    return ok, detail, time.perf_counter() - start


def run_check(capsys, name, check, bound=None, **kwargs):
    """Report one selftest check, failing it past ``bound`` seconds."""
    ok, detail, elapsed = timed(check, **kwargs)
    if bound is not None:
        ok = ok and elapsed < bound
        detail += f", {elapsed:.2f}s (< {bound:g}s)"
    report(capsys, name, ok, detail)


def test_criterion_01_jacobian(capsys):
    """Disk-map symplecticity: |det - 1| <= 1e-6 at 1e3 points, < 5 s."""
    run_check(capsys, "criterion-01 jacobian", selftest.check_jacobian,
              bound=5.0, samples=1000, seed=101)


def test_criterion_02_level_mapping(capsys):
    """gauge(psi(z))^2 = pi|z|^2/a within 1e-10 on 1e4 points, all presets.

    This measures the round-off of R, S and S^-1, not psi independently
    (selftest.check_level_mapping)."""
    run_check(capsys, "criterion-02 level-mapping",
              selftest.check_level_mapping, samples=10000, seed=102)


def test_criterion_03_sandwich(capsys):
    """Two-factor epsilon-sandwich: zero violations at M=1e5, < 5 s."""
    run_check(capsys, "criterion-03 sandwich", selftest.check_sandwich,
              bound=5.0, samples=100000, seed=103, steps=64)


def test_criterion_04_volume(capsys):
    """mc_volume of area-(1,1) p-products, p = 1, 2, 3: each within 3 SE of
    the closed-form volume at M=1e6."""
    run_check(capsys, "criterion-04 volume", selftest.check_volume,
              bound=30.0, samples=1000000, seed=104)


def test_criterion_05_period(capsys):
    """Phi^area returns 20 random boundary points within 1e-8, all presets.

    This measures the round-off of R, S and S^-1, not the flow
    independently (selftest.check_period)."""
    run_check(capsys, "criterion-05 period", selftest.check_period,
              points=20, seed=105)


def test_criterion_06_conjugacy(capsys):
    """Reeb conjugacy residual over 1e3 random (z, t) <= 1e-6.

    This measures the round-off of R, S and S^-1, not psi or the flow
    independently (selftest.check_conjugacy)."""
    run_check(capsys, "criterion-06 conjugacy", selftest.check_conjugacy,
              samples=1000, seed=106)


def test_criterion_07_foliation(capsys):
    """Equal areas: all orbits close at t=a; (1, sqrt 2): no period found.

    The closing measures the round-off of R, S and S^-1, not the flow
    independently (selftest.check_foliation)."""
    run_check(capsys, "criterion-07 foliation", selftest.check_foliation,
              samples=1000, seed=107)


def test_criterion_08_capacities(capsys):
    """E(1,2) capacities (1,2,2,3); c1 = cn exactly for equal areas."""
    run_check(capsys, "criterion-08 capacities", selftest.check_capacities)


def test_criterion_09_boundary_minimal(capsys):
    """Shrink to a'=0.9a: zero containment violations at M=1e5, gap 0.1a."""
    run_check(capsys, "criterion-09 boundary-minimal",
              selftest.check_boundary_minimal, samples=100000, seed=109)


def test_criterion_10_fractal_dimension(capsys):
    """Box-counting: graph and disk patch, graph x interval, fractal patch."""
    boxdim_ok, boxdim_detail, boxdim_time = timed(selftest.check_boxdim,
                                                  seed=110)

    fn = fractal.Weierstrass(a=0.5, b=3.0, terms=30)
    coarse = 2.0 ** -np.arange(4, 10)
    base = fractal.count_scales(fractal.graph_sampler(fn), coarse, seed=110)
    prod_est = fractal.estimate_dimension(
        coarse, fractal.product_interval_count(base, coarse))

    # b = 4 so the graph excess and the Hoelder exponent coincide (1/2)
    wp = geometry2d.weierstrass_profile(amplitude=0.4, b=4.0)
    th = np.linspace(0.0, TWO_PI, 1 << 18)
    radii = wp.radius(th)
    # W with integer b is even about theta = pi, so its two minima (2.5127
    # and 3.7705 rad) tie up to rounding; take the one in [0, pi]
    tmin = th[np.argmin(np.where(th <= np.pi, radii, np.inf))]
    window = (th > tmin - 0.2) & (th < tmin + 0.2)
    r_lo = radii[window].min()
    frac_scales = 2.0 ** -np.arange(6.0, 8.25, 0.5)
    frac_counts = fractal.boundary_patch_counts(
        wp, [36.0], frac_scales, seed=110,
        r1_range=(0.7 * r_lo, 0.97 * r_lo),
        theta1_range=(tmin - 0.2, tmin + 0.2), theta2_range=(0.0, 0.45),
        oversample=1, pitch_factor=2, n_offsets=1)
    frac_est = fractal.estimate_dimension(frac_scales, frac_counts,
                                          bootstrap=200, seed=110)

    target1 = fn.graph_dimension  # 2 + log 0.5 / log 3 = 1.3691
    ok = (boxdim_ok and boxdim_time < 10.0 and
          abs(prod_est.slope - (target1 + 1.0)) <= 0.15 and
          abs(frac_est.slope - 3.5) <= 0.2)
    report(capsys, "criterion-10 boxdim", ok,
           f"{boxdim_detail}, {boxdim_time:.1f}s (< 10s), "
           f"product={prod_est.slope:.4f} (2.3691±0.15), "
           f"fractal patch={frac_est.slope:.4f}"
           f"±{frac_est.ci_halfwidth:.4f} (3.5±0.2)")


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
