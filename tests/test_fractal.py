"""Fractal families and the box-counting dimension estimator."""

import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from symprod import fractal, geometry2d
from symprod.geometry2d import TWO_PI


def box_count_dithered(points, eps, rng):
    """Mean occupied-cell count over random grid origins (lattice de-bias)."""
    d = np.asarray(points).shape[1]
    counts = [fractal.box_count(points, eps, offset=rng.uniform(0.0, eps, d))
              for _ in range(fractal.N_OFFSETS)]
    return float(np.mean(counts))


def reference_graph_counts(sampler, scales, seed=0):
    """count_scales through the filled point cloud and box_count.

    Same pitch, offsets and rng draws as the library's column-range
    counter, so the two must agree exactly.
    """
    rng = np.random.default_rng(seed)
    return np.asarray([
        box_count_dithered(sampler(eps / fractal.PITCH_FACTOR), eps, rng)
        for eps in scales])


def patch_points(profile, a2, eps, r1_range, theta1_range, oversample,
                 pitch_factor):
    """x_1, y_1 and r_2 of the library's patch samples and fill at eps."""
    pitch = eps / pitch_factor
    r1 = fractal._grid(r1_range[0], r1_range[1], pitch)
    t1 = fractal._grid(theta1_range[0], theta1_range[1], pitch / oversample)
    R1 = profile.radius(t1)
    rows = [(r, fractal.fill_segments(
        t1, np.sqrt(a2 * (1.0 - (r / R1) ** 2) / np.pi), pitch)) for r in r1]
    t1f = np.concatenate([pts[:, 0] for _, pts in rows])
    r2 = np.concatenate([pts[:, 1] for _, pts in rows])
    r1f = np.concatenate([np.full(pts.shape[0], r) for r, pts in rows])
    return r1f * np.cos(t1f), r1f * np.sin(t1f), r2


def patch_rmax(profile, a2, r1_range):
    return max(profile.max_radius * r1_range[1] * 1.5,
               np.sqrt(a2 / np.pi)) + 1.0


def reference_patch_counts(profile, tail_areas, scales, seed=0,
                           r1_range=(0.25, 0.5), theta1_range=(0.0, 1.0),
                           theta2_range=(0.0, 1.0), oversample=8,
                           n_offsets=2, pitch_factor=4.0):
    """The patch's cells met by a theta_2 grid: one 4-D key per (point,
    theta_2).

    Same point set, offsets and float expressions as the library's counter.
    Every sampled point lies in its z_1 cell's sector, so these counts bound
    the library's from below.
    """
    a2, = tail_areas
    rng = np.random.default_rng(seed)
    rmax = patch_rmax(profile, a2, r1_range)
    counts = []
    for eps in np.asarray(scales, dtype=float):
        x1, y1, r2 = patch_points(profile, a2, eps, r1_range, theta1_range,
                                  oversample, pitch_factor)
        t2 = fractal._grid(theta2_range[0], theta2_range[1],
                           eps / pitch_factor / max(np.sqrt(a2 / np.pi), 1.0))
        side = np.int64(np.ceil(2.0 * rmax / eps)) + 2
        scale_counts = []
        for _ in range(n_offsets):
            off = rng.uniform(0.0, eps, 4)
            i0 = np.floor((x1 + rmax - off[0]) / eps).astype(np.int64)
            i1 = np.floor((y1 + rmax - off[1]) / eps).astype(np.int64)
            base = (i0 * side + i1) * side
            xc = r2[:, None] * np.cos(t2)[None, :]
            yc = r2[:, None] * np.sin(t2)[None, :]
            i2 = np.floor((xc + rmax - off[2]) / eps).astype(np.int64)
            i3 = np.floor((yc + rmax - off[3]) / eps).astype(np.int64)
            scale_counts.append(
                np.unique((base[:, None] + i2) * side + i3).size)
        counts.append(float(np.mean(scale_counts)))
    return np.asarray(counts)


def in_window(x, y, window):
    t0, t1 = window
    return np.mod(np.arctan2(y, x) - t0, TWO_PI) <= t1 - t0


def sector_cells(lo, hi, window, rmax, off, eps):
    """Cells (i, j) of the grid floor((z + rmax - off) / eps) whose closed
    square meets {rho e^{i theta}: lo <= rho <= hi, theta in window}.

    Enumerates the cells of the box [-hi, hi]^2. Square and sector are
    connected and closed, so they meet just when a corner of the square
    lies in the sector or the square meets the sector's boundary: a radial
    edge, clipped to the square (which takes in the arcs' ends), or a point
    where a circle of radius lo or hi crosses an edge of the square at an
    angle in the window.
    """
    first = np.floor((-hi + rmax - off) / eps).astype(np.int64)
    last = np.floor((hi + rmax - off) / eps).astype(np.int64)
    i, j = (g.ravel() for g in np.meshgrid(
        np.arange(first[0], last[0] + 1), np.arange(first[1], last[1] + 1),
        indexing="ij"))
    x0, y0 = i * eps - rmax + off[0], j * eps - rmax + off[1]
    x1, y1 = x0 + eps, y0 + eps
    hit = np.zeros(i.size, dtype=bool)
    for x in (x0, x1):
        for y in (y0, y1):
            r2 = x * x + y * y
            hit |= (lo * lo <= r2) & (r2 <= hi * hi) & in_window(x, y, window)
    for t in window:
        # the radial edge lo..hi at angle t, clipped to the square; a tiny
        # cos or sin overflows q / d to +-inf, which clips correctly
        a, b = np.full(i.size, lo), np.full(i.size, hi)
        for d, q0, q1 in ((np.cos(t), x0, x1), (np.sin(t), y0, y1)):
            if d == 0.0:
                b = np.where((q0 <= 0.0) & (0.0 <= q1), b, -np.inf)
                continue
            with np.errstate(over="ignore"):
                e0, e1 = q0 / d, q1 / d
            a = np.maximum(a, np.minimum(e0, e1))
            b = np.minimum(b, np.maximum(e0, e1))
        hit |= a <= b
    for rho in (lo, hi):
        for v, w0, w1, vertical in ((x0, y0, y1, True), (x1, y0, y1, True),
                                    (y0, x0, x1, False), (y1, x0, x1, False)):
            h = np.sqrt(np.maximum(rho * rho - v * v, 0.0))
            for w in (h, -h):
                x, y = (v, w) if vertical else (w, v)
                hit |= ((rho * rho >= v * v) & (w0 <= w) & (w <= w1) &
                        in_window(x, y, window))
    return set(zip(i[hit].tolist(), j[hit].tolist()))


def geometric_patch_counts(profile, tail_areas, scales, seed=0,
                           r1_range=(0.25, 0.5), theta1_range=(0.0, 1.0),
                           theta2_range=(0.0, 1.0), oversample=8,
                           n_offsets=2, pitch_factor=4.0):
    """boundary_patch_counts from sector_cells, z_1 cell by z_1 cell.

    Same point set and offsets as the library's counter; each z_1 cell
    contributes the cells met by the sector of its r_2 values' span, from
    their least to their greatest, so the two must agree exactly.
    """
    a2, = tail_areas
    rng = np.random.default_rng(seed)
    rmax = patch_rmax(profile, a2, r1_range)
    counts = []
    for eps in np.asarray(scales, dtype=float):
        x1, y1, r2 = patch_points(profile, a2, eps, r1_range, theta1_range,
                                  oversample, pitch_factor)
        scale_counts = []
        for _ in range(n_offsets):
            off = rng.uniform(0.0, eps, 4)
            i0 = np.floor((x1 + rmax - off[0]) / eps).astype(np.int64)
            i1 = np.floor((y1 + rmax - off[1]) / eps).astype(np.int64)
            cells = {}
            for key, rho in zip(zip(i0.tolist(), i1.tolist()), r2):
                cells.setdefault(key, []).append(rho)
            sizes = {}
            total = 0
            for rhos in cells.values():
                span = min(rhos), max(rhos)
                if span not in sizes:
                    sizes[span] = len(sector_cells(*span, theta2_range, rmax,
                                                   off[2:], eps))
                total += sizes[span]
            scale_counts.append(total)
        counts.append(float(np.mean(scale_counts)))
    return np.asarray(counts)


def test_weierstrass_eval_matches_series():
    fn = fractal.Weierstrass(a=0.5, b=3.0, terms=10)
    x = np.linspace(0.0, 1.0, 7)
    expected = sum(0.5 ** k * np.cos(2.0 * np.pi * 3.0 ** k * x)
                   for k in range(11))
    assert np.allclose(fn(x), expected, atol=1e-12)


# Largest |W(j / 4096) - exact| over j = 0..4096 measured with numpy 2.4:
# 1.63e-10 at b = 3 (2.97e-10 before phases were reduced before cos), and
# 0 at b = 4, where b^k x is exact (5.88e-8 before).
DYADIC_BOUND = {3: 2e-10, 4: 1e-15}


@pytest.mark.parametrize("b", sorted(DYADIC_BOUND))
def test_weierstrass_series_matches_exact_dyadic_phases(b):
    """At x = j / 2^12 the phase b^k x mod 1 is (b^k j mod 2^12) / 2^12."""
    j = np.arange(4097)
    exact = sum(0.5 ** k * np.cos(TWO_PI * ((pow(b, k, 4096) * j) % 4096
                                             / 4096))
                for k in range(31))
    got = fractal.Weierstrass(a=0.5, b=float(b), terms=30)(j / 4096)
    assert np.max(np.abs(got - exact)) <= DYADIC_BOUND[b]


def test_graph_dimension_formula():
    fn = fractal.Weierstrass(a=0.5, b=3.0, terms=10)
    assert fn.graph_dimension == pytest.approx(
        2.0 + np.log(0.5) / np.log(3.0))


def test_weierstrass_rejects_divergent_parameters():
    with pytest.raises(ValueError):
        fractal.Weierstrass(a=1.2, b=3.0, terms=5)
    with pytest.raises(ValueError):
        fractal.Weierstrass(a=0.5, b=1.2, terms=5)  # a * b <= 1


def test_phase_shifted_family_seeded():
    """A seed shifts the terms by hunt_profile's phases for that seed."""
    f1 = fractal.Weierstrass(a=0.5, b=3.0, terms=8, seed=3)
    f2 = fractal.Weierstrass(a=0.5, b=3.0, terms=8, seed=3)
    x = np.linspace(0.0, 1.0, 50)
    assert np.allclose(f1(x), f2(x))
    assert f1.graph_dimension == pytest.approx(2.0 + np.log(0.5) / np.log(3.0))
    hunt = geometry2d.hunt_profile(r0=3.0, amplitude=1.0, terms=8, seed=3,
                                   N=64)
    np.testing.assert_allclose(hunt.samples - 3.0, f1(np.arange(64) / 64),
                               rtol=0.0, atol=1e-12)


def test_box_count_unit_segment():
    """[TRIVIAL] oracle: a unit segment meets ~1/eps grid cells."""
    t = np.linspace(0.0, 1.0, 100001)
    pts = np.stack([t, np.zeros_like(t)], axis=1)
    for k in (4, 16, 64):
        n = fractal.box_count(pts, 1.0 / k, offset=np.zeros(2))
        assert k <= n <= k + 1


def test_segment_dimension_is_one():
    scales = 2.0 ** -np.arange(4, 12)
    counts = fractal.count_scales(fractal.graph_sampler(lambda x: 0.3 * x),
                                  scales, seed=0)
    est = fractal.estimate_dimension(scales, counts)
    assert est.slope == pytest.approx(1.0, abs=0.02)


def test_counts_increase_as_scale_shrinks():
    fn = fractal.Weierstrass(a=0.5, b=3.0, terms=20)
    scales = 2.0 ** -np.arange(4, 11)
    counts = fractal.count_scales(fractal.graph_sampler(fn), scales, seed=1)
    assert np.all(np.diff(counts) > 0)


def test_weierstrass_graph_dimension_coarse():
    fn = fractal.Weierstrass(a=0.5, b=3.0, terms=30)
    scales = 2.0 ** -np.arange(4, 12)
    counts = fractal.count_scales(fractal.graph_sampler(fn), scales, seed=2)
    est = fractal.estimate_dimension(scales, counts)
    assert est.slope == pytest.approx(fn.graph_dimension, abs=0.1)
    assert est.r_squared > 0.999


def test_truncation_stability():
    """Estimates for K and K + 10 terms agree within confidence widths."""
    scales = 2.0 ** -np.arange(4, 12)
    ests = []
    for terms in (20, 30):
        fn = fractal.Weierstrass(a=0.5, b=3.0, terms=terms)
        counts = fractal.count_scales(fractal.graph_sampler(fn), scales,
                                      seed=3)
        ests.append(fractal.estimate_dimension(scales, counts, bootstrap=50))
    gap = abs(ests[0].slope - ests[1].slope)
    assert gap <= ests[0].ci_halfwidth + ests[1].ci_halfwidth + 1e-3


def test_product_rule_counts_multiply():
    base = np.array([10.0, 40.0, 160.0])
    scales = np.array([0.25, 0.125, 0.0625])
    out = fractal.product_interval_count(base, scales)
    assert np.allclose(out, base * np.ceil(1.0 / scales))


def test_estimate_dimension_requires_enough_scales():
    with pytest.raises(ValueError):
        fractal.estimate_dimension([0.5, 0.25], [2, 4])


FIVE_SCALES = 2.0 ** -np.arange(3.0, 8.0)
BAD_SCALES = {"zero": 0.0, "negative": -0.125, "nan": np.nan, "inf": np.inf}


@pytest.mark.parametrize("bad", sorted(BAD_SCALES))
def test_count_scales_rejects_bad_scale(bad):
    scales = FIVE_SCALES.copy()
    scales[2] = BAD_SCALES[bad]
    with pytest.raises(ValueError, match="scales"):
        fractal.count_scales(fractal.graph_sampler(WEIER), scales)


@pytest.mark.parametrize("bad", sorted(BAD_SCALES))
def test_estimate_dimension_rejects_bad_scale(bad):
    scales = FIVE_SCALES.copy()
    scales[2] = BAD_SCALES[bad]
    with pytest.raises(ValueError, match="scales"):
        fractal.estimate_dimension(scales, 1.0 / FIVE_SCALES)


SCALE_CONSUMERS = {
    "count_scales": lambda scales: fractal.count_scales(
        fractal.graph_sampler(WEIER), scales),
    "boundary_patch_counts": lambda scales: fractal.boundary_patch_counts(
        geometry2d.disk_profile(np.pi), [1.0], scales),
    "estimate_dimension": lambda scales: fractal.estimate_dimension(
        scales, np.ones_like(scales)),
}


@pytest.mark.parametrize("shape", ["scalar", "2-d"])
@pytest.mark.parametrize("consumer", sorted(SCALE_CONSUMERS))
def test_scales_must_be_one_dimensional(consumer, shape):
    scales = {"scalar": 0.1, "2-d": [[0.1, 0.05]]}[shape]
    with pytest.raises(ValueError, match="1-D"):
        SCALE_CONSUMERS[consumer](scales)


@pytest.mark.parametrize("consumer",
                         ["count_scales", "boundary_patch_counts"])
def test_counters_take_empty_scales(consumer):
    counts = SCALE_CONSUMERS[consumer](np.empty(0))
    assert counts.shape == (0,)


@pytest.mark.parametrize("bad", [0.0, -4.0, np.nan, np.inf])
def test_estimate_dimension_rejects_bad_count(bad):
    counts = 1.0 / FIVE_SCALES
    counts[2] = bad
    with pytest.raises(ValueError, match="counts"):
        fractal.estimate_dimension(FIVE_SCALES, counts)


@pytest.mark.parametrize("bootstrap", [-3, 2.5, True])
def test_estimate_dimension_rejects_bad_bootstrap(bootstrap):
    with pytest.raises(ValueError, match="bootstrap"):
        fractal.estimate_dimension(FIVE_SCALES, 1.0 / FIVE_SCALES,
                                   bootstrap=bootstrap)


def test_estimate_dimension_rejects_count_length_mismatch():
    with pytest.raises(ValueError, match="one count per scale"):
        fractal.estimate_dimension(FIVE_SCALES, 1.0 / FIVE_SCALES[:4])


def test_fill_segments_covers_jumps():
    x = np.array([0.0, 1.0])
    y = np.array([0.0, 1.0])
    pts = fractal.fill_segments(x, y, pitch=0.1)
    # vertical fill inserts intermediate y values at the jump
    assert pts.shape[0] >= 10
    assert np.max(np.abs(np.diff(np.sort(pts[:, 1])))) <= 0.1 + 1e-12


def test_boundary_patch_rejects_singular_box():
    profile = geometry2d.disk_profile(np.pi)
    with pytest.raises(ValueError):
        fractal.boundary_patch_counts(profile, [1.0],
                                      scales=2.0 ** -np.arange(3, 8),
                                      r1_range=(0.5, 1.0))


@pytest.mark.parametrize("config", [
    dict(n_offsets=0), dict(n_offsets=-1), dict(n_offsets=1.5),
    dict(n_offsets=2.0), dict(n_offsets=True),
    dict(oversample=0), dict(oversample=-8), dict(oversample=np.inf),
    dict(pitch_factor=0.0), dict(pitch_factor=-2.0),
    dict(pitch_factor=np.nan), dict(scales=[0.25, 0.0, 0.0625]),
    dict(scales=[0.25, np.inf]), dict(scales=[-0.25]),
    dict(r1_range=(0.5, 0.25)), dict(r1_range=(0.3, 0.3)),
    dict(r1_range=(np.nan, 0.5)), dict(theta1_range=(1.0, 0.0)),
    dict(theta1_range=(0.0, np.inf)), dict(theta2_range=(1.0, 0.0)),
    dict(theta2_range=(0.5, 0.5)), dict(theta2_range=(0.0, np.nan)),
    dict(theta2_range=(0.0, 100.0)), dict(theta2_range=(-3.2, 3.2)),
    dict(tail_areas=[0.0]), dict(tail_areas=[-1.0]),
    dict(tail_areas=[np.nan]), dict(tail_areas=[np.inf])],
    ids=["offsets-zero", "offsets-negative", "offsets-fraction",
         "offsets-float", "offsets-bool",
         "oversample-zero", "oversample-negative", "oversample-inf",
         "pitch-zero", "pitch-negative", "pitch-nan", "scale-zero",
         "scale-inf", "scale-negative", "r1-reversed", "r1-empty", "r1-nan",
         "theta1-reversed", "theta1-inf", "theta2-reversed", "theta2-empty",
         "theta2-nan", "theta2-wraps", "theta2-over-2pi", "tail-zero",
         "tail-negative", "tail-nan", "tail-inf"])
def test_boundary_patch_rejects_bad_parameters(config):
    config = {"scales": 2.0 ** -np.arange(3, 5), "tail_areas": [1.0],
              **config}
    with pytest.raises(ValueError):
        fractal.boundary_patch_counts(UnevaluatedProfile(), **config)


class UnevaluatedProfile:
    """A profile whose radius fails the test if a patch grid evaluates it."""

    max_radius = 1.1

    def radius(self, theta):
        raise AssertionError("the (r1, theta1) grid was evaluated")


def test_boundary_patch_checks_grid_budget_before_counting(monkeypatch):
    """Every scale's grid is checked before the first is counted. At the
    defaults the grid at 2^-4 holds 17 x 513 samples and the one at 2^-9
    513 x 16385, over the budget. A budget of 17 x 513 - 1 refuses 2^-4,
    and one of exactly 17 x 513 counts it."""
    with pytest.raises(ValueError, match="scale 0.00195312 .*budget"):
        fractal.boundary_patch_counts(UnevaluatedProfile(), [1.0],
                                      [2.0 ** -4, 2.0 ** -9])
    monkeypatch.setattr(fractal, "PATCH_GRID_BUDGET", 17 * 513 - 1)
    with pytest.raises(ValueError, match="scale 0.0625 "):
        fractal.boundary_patch_counts(UnevaluatedProfile(), [1.0],
                                      [2.0 ** -4])
    monkeypatch.setattr(fractal, "PATCH_GRID_BUDGET", 17 * 513)
    assert fractal.boundary_patch_counts(geometry2d.disk_profile(np.pi),
                                         [1.0], [2.0 ** -4])[0] > 0


def test_boundary_patch_rejects_multiple_tail_factors():
    profile = geometry2d.disk_profile(np.pi)
    with pytest.raises(NotImplementedError):
        fractal.boundary_patch_counts(profile, [1.0, 1.0],
                                      scales=2.0 ** -np.arange(3, 8))


def test_box_count_rejects_keys_past_int64():
    """(65533, 5, 65533, 1) packs to 2^64 over ranges of 65537 per axis."""
    pts = np.array([[0, 0, 0, 0], [65533, 5, 65533, 1], [65536] * 4],
                   dtype=float)
    with pytest.raises(ValueError, match="int64"):
        fractal.box_count(pts, 1.0)
    assert fractal.box_count(pts[:2], 1.0) == 2


BENCH_DISK = dict(r1_range=(0.2, 0.8), theta1_range=(0.0, TWO_PI),
                  theta2_range=(0.0, TWO_PI), oversample=1, pitch_factor=2,
                  n_offsets=1)
PATCH_CASES = {
    "disk": (geometry2d.disk_profile(np.pi), [1.0],
             2.0 ** -np.linspace(3.0, 4.0, 3), BENCH_DISK),
    "weierstrass": (geometry2d.weierstrass_profile(), [1.0],
                    2.0 ** -np.array([3.0, 4.0]), {}),
    "theta2-window": (geometry2d.weierstrass_profile(amplitude=0.3), [2.0],
                      2.0 ** -np.array([4.0, 5.0]),
                      dict(theta2_range=(0.3, 1.2), r1_range=(0.3, 0.6),
                           oversample=2)),
    # criterion-10's factors near the radius minimum: a cell's r_2 values
    # span several eps there, and their samples and fill leave gaps of eps
    # or more, which the cell's one interval spans
    "runs": (geometry2d.weierstrass_profile(amplitude=0.4, b=4.0), [36.0],
             2.0 ** -np.array([3.0, 4.0]),
             dict(r1_range=(0.26, 0.36), theta1_range=(2.31, 2.71),
                  theta2_range=(0.0, 0.45), oversample=1, pitch_factor=2,
                  n_offsets=1)),
    # crosses the quadrant boundaries at 0 and pi / 2
    "quadrant-crossing": (geometry2d.weierstrass_profile(amplitude=0.3),
                          [1.5], 2.0 ** -np.array([4.0, 5.0]),
                          dict(theta2_range=(-0.3, 2.0), r1_range=(0.3, 0.6),
                               oversample=2)),
}


@pytest.mark.parametrize("case", sorted(PATCH_CASES))
def test_boundary_patch_counts_match_reference(case):
    profile, tail, scales, config = PATCH_CASES[case]
    expected = geometric_patch_counts(profile, tail, scales, seed=5, **config)
    np.testing.assert_array_equal(
        fractal.boundary_patch_counts(profile, tail, scales, seed=5,
                                      **config), expected)


@pytest.mark.parametrize("case", sorted(PATCH_CASES))
def test_boundary_patch_counts_bound_sampled_theta2(case):
    """The continuous theta_2 window meets every cell its samples meet."""
    profile, tail, scales, config = PATCH_CASES[case]
    counts = fractal.boundary_patch_counts(profile, tail, scales, seed=5,
                                           **config)
    assert np.all(reference_patch_counts(profile, tail, scales, seed=5,
                                         **config) <= counts)


WINDOWS = st.one_of(
    st.sampled_from([(0.0, TWO_PI), (-0.3, 0.3), (1.0, 2.0)]),
    st.tuples(st.floats(-7.0, 7.0), st.floats(1e-3, TWO_PI)).map(
        lambda w: (w[0], w[0] + w[1])))
RUNS = st.lists(st.tuples(st.floats(0.01, 1.5), st.floats(0.0, 0.5),
                          st.integers(1, 5)),
                min_size=1, max_size=3)


@settings(max_examples=200, deadline=None)
@given(runs=RUNS, window=WINDOWS, eps=st.floats(0.02, 0.5),
       seed=st.integers(0, 2 ** 32 - 1))
@example(runs=[(0.5, 0.0, 1)], window=(0.0, TWO_PI), eps=0.1, seed=0)
def test_sector_cell_count_matches_geometry(runs, window, eps, seed):
    """Each interval counts the union of its sectors' cells, mult times.

    An interval is one z_1 cell's r_2 range, cut into one sector per
    quadrant piece; its count is the union over those pieces. 1-3
    intervals with multiplicities 1-5 test that a cell two intervals meet
    counts once for each. The grid origin is a uniform draw, as in the library: a grid
    line through a tangent point would be a tie between sector_cells'
    closed squares and the library's half-open cells.
    """
    lo = np.array([r[0] for r in runs])
    hi = lo + np.array([r[1] for r in runs])
    mult = np.array([r[2] for r in runs])
    rmax = 3.0
    off = np.random.default_rng(seed).uniform(0.0, eps, 4)
    got = fractal._sector_cell_count(
        lo, hi, mult, fractal._quadrant_pieces(*window), rmax, off, eps)
    assert got == sum(
        m * len(sector_cells(a, b, window, rmax, off[2:], eps))
        for a, b, m in zip(lo, hi, mult))


WEIER = fractal.Weierstrass(a=0.5, b=3.0, terms=30)
GRAPH_SCALES = 2.0 ** -np.arange(4, 11)
GRAPH_CASES = {
    **{f"seed{seed}": (fractal.graph_sampler(WEIER), seed)
       for seed in range(20)},
    "phase-shifted": (fractal.graph_sampler(
        fractal.Weierstrass(terms=20, seed=4)), 1),
    "xiao-zhou": (fractal.graph_sampler(
        lambda x: geometry2d.xz_series(x, 0.5, 1.2, 1.5, 12)), 2),
    "steep": (fractal.graph_sampler(lambda x: 40.0 * np.sin(7.0 * x)), 3),
    "flat": (fractal.graph_sampler(lambda x: np.full_like(x, 0.25)), 4),
    "segment": (fractal.graph_sampler(lambda x: 0.3 * x), 5),
    "chunk2": (fractal.graph_sampler(WEIER), 7),
    "chunk997": (fractal.graph_sampler(WEIER), 8),
    "ragged": (fractal.graph_sampler(WEIER), 10),
}
# Cases that evaluate the graph this many samples at a time.
GRAPH_CHUNKS = {"chunk2": 2, "chunk997": 997}
# Cases on other scales than GRAPH_SCALES. The pitches of "ragged" are
# integer multiples of the finest, but 1 / pitch is no integer, so the
# coarsest scale reaches past the finest's own samples.
GRAPH_CASE_SCALES = {"ragged": 0.3 * 2.0 ** -np.arange(2, 9)}


@pytest.mark.parametrize("case", sorted(GRAPH_CASES))
def test_count_scales_matches_point_cloud(case, monkeypatch):
    sampler, seed = GRAPH_CASES[case]
    scales = GRAPH_CASE_SCALES.get(case, GRAPH_SCALES)
    if case in GRAPH_CHUNKS:
        monkeypatch.setattr(fractal, "GRAPH_CHUNK", GRAPH_CHUNKS[case])
    np.testing.assert_array_equal(
        fractal.count_scales(sampler, scales, seed=seed),
        reference_graph_counts(sampler, scales, seed=seed))


def test_count_scales_rejects_unnested_scale():
    """Scales 2^-4, 2^-4.5, ..., 2^-7: 2^-4.5 is the first that is no
    integer multiple of the finest, and the error names it."""
    scales = 2.0 ** -np.linspace(4.0, 7.0, 7)
    with pytest.raises(ValueError, match=re.escape(
            f"scale {float(scales[1])!r} is not an integer multiple")):
        fractal.count_scales(fractal.graph_sampler(WEIER), scales)


@pytest.mark.parametrize("chunk", [None, 997])
def test_count_scales_evaluates_graph_once(chunk, monkeypatch):
    """GRAPH_SCALES nest, so fn sees only the finest scale's samples."""
    if chunk is not None:
        monkeypatch.setattr(fractal, "GRAPH_CHUNK", chunk)
    sizes = []

    def fn(x):
        sizes.append(x.size)
        return WEIER(x)

    fractal.count_scales(fractal.graph_sampler(fn), GRAPH_SCALES)
    n_fine = int(np.ceil(fractal.PITCH_FACTOR / GRAPH_SCALES.min())) + 1
    assert len(sizes) == -(-n_fine // fractal.GRAPH_CHUNK)
    assert sum(sizes) == n_fine


@settings(max_examples=200, deadline=None)
@given(y=st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=40),
       gaps=st.lists(st.floats(0.0, 2.0), min_size=40, max_size=40),
       pitch=st.floats(1e-3, 1.0),
       offset=st.tuples(st.floats(0.0, 1.0, exclude_max=True),
                        st.floats(0.0, 1.0, exclude_max=True)))
def test_column_cells_match_box_count(y, gaps, pitch, offset):
    """Hull column ranges count the filled polyline's cells exactly."""
    eps = fractal.PITCH_FACTOR * pitch
    x = pitch * np.cumsum(gaps[:len(y)])
    off = eps * np.asarray(offset)
    expected = fractal.box_count(fractal.fill_segments(x, y, pitch), eps,
                                 offset=off)
    assert fractal.column_cells(x, *fractal.fill_extents(y, pitch), eps,
                                off) == expected


def test_fill_extents_fill_each_row_of_a_2d_array():
    """Row by row, bit for bit: a rising row, a falling one (dy < 0) and
    one whose steps are all shorter than the pitch, so it has no fill."""
    pitch = 0.1
    y = np.array([[0.0, 0.35, 1.0, 0.95, 1.3],
                  [2.0, 1.1, 1.05, 0.3, -0.4],
                  [0.5, 0.52, 0.55, 0.51, 0.58]])
    lo, hi = fractal.fill_extents(y, pitch)
    assert np.any(lo[0] != hi[0]) and np.any(lo[1] != hi[1])
    np.testing.assert_array_equal(lo[2], hi[2])
    for row, row_lo, row_hi in zip(y, lo, hi):
        want_lo, want_hi = fractal.fill_extents(row, pitch)
        assert row_lo.tobytes() == want_lo.tobytes()
        assert row_hi.tobytes() == want_hi.tobytes()


INT64 = st.integers(-2 ** 63, 2 ** 63 - 1)


@settings(max_examples=300, deadline=None)
@given(keys=st.lists(st.one_of(INT64, st.integers(-3, 3)), max_size=200))
@example(keys=[])
@example(keys=[-7])
@example(keys=[5] * 9)
@example(keys=[-2 ** 63, 2 ** 63 - 1, -1, 0, -1, -2 ** 63])
def test_distinct_matches_np_unique(keys):
    keys = np.array(keys, dtype=np.int64)
    got = fractal._distinct(keys)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, np.unique(keys))


def padded_rows(sets):
    """Each set's ascending ids in one row, padded with -1."""
    rows = np.full((len(sets), max(map(len, sets))), -1, dtype=np.int64)
    for row, ids in zip(rows, sets):
        row[:len(ids)] = ids
    return rows


# A few small id sets, some with a run of 500+ further ids, so rows repeat
# and some are over 500 columns wide.
ID_SETS = st.lists(
    st.tuples(st.sets(st.integers(0, 9), min_size=1),
              st.sampled_from([0, 3, 501, 600])).map(
        lambda s: sorted(s[0]) + list(range(10, 10 + s[1]))),
    min_size=1, max_size=40)
# (lo, hi) pairs as boundary_patch_counts groups them, drawn mostly from a
# few values, so pairs repeat and equal lo values come with different hi.
ENDS = st.one_of(st.sampled_from([0.1, 1.0 / 3.0, 0.7]), st.floats(0.0, 2.0))
PAIRS = st.lists(st.tuples(ENDS, ENDS), min_size=1, max_size=40).map(
    lambda pairs: np.array(pairs, dtype=float))


@settings(max_examples=200, deadline=None)
@given(rows=st.one_of(ID_SETS.map(padded_rows), PAIRS))
@example(rows=padded_rows([[4]]))
@example(rows=padded_rows([[0, 2, 7]] * 6))
@example(rows=padded_rows(
    [list(range(700)), [1], list(range(700)), [0, 1], [1]]))
@example(rows=np.array([[0.3, 0.4], [0.3, 0.7], [0.3, 0.4], [0.1, 0.7],
                        [0.3, 0.4]]))
def test_distinct_rows_match_np_unique(rows):
    got, counts = fractal._distinct_rows(rows)
    want, want_counts = np.unique(rows, axis=0, return_counts=True)
    assert got.dtype == rows.dtype
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(counts, want_counts)


def test_box_counters_never_hash(monkeypatch):
    """box_count and boundary_patch_counts never take np.unique's hash path,
    nor its row path, which sorts rows as slow structured records.

    numpy >= 2.3 hashes exactly when np.unique is asked for no index,
    inverse or counts.
    """
    unique = np.unique

    def sorting_unique(ar, **kwargs):
        if kwargs.get("axis") is not None:
            raise AssertionError("np.unique(axis=...) sorts structured rows")
        if not any(kwargs.get(f"return_{k}") for k in
                   ("index", "inverse", "counts")):
            raise AssertionError("plain np.unique hashes its keys")
        return unique(ar, **kwargs)

    monkeypatch.setattr(np, "unique", sorting_unique)
    profile, tail, scales, config = PATCH_CASES["theta2-window"]
    assert np.all(fractal.boundary_patch_counts(profile, tail, scales,
                                                **config) > 0)
    pts = np.random.default_rng(0).uniform(-1.0, 1.0, (1000, 3))
    assert fractal.box_count(pts, 0.5) == 64


def test_count_scales_builds_no_point_cloud(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("count_scales built or hashed a point cloud")

    monkeypatch.setattr(fractal, "fill_segments", forbidden)
    monkeypatch.setattr(fractal, "box_count", forbidden)
    counts = fractal.count_scales(fractal.graph_sampler(WEIER),
                                  GRAPH_SCALES[:3], seed=0)
    assert np.all(counts > 0)
