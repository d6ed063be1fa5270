"""Profiles, sector areas, gauges."""

import os
import re
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.integrate
import scipy.interpolate
from hypothesis import given, reject, settings, strategies as st

from symprod import diskmap, dynamics, geometry2d
from symprod.geometry2d import RadialProfile, TWO_PI
from symprod.product import ProductDomain, ellipsoid_areas, ellipsoid_level
from symprod.selftest import SQUARE, _preset_profiles as preset_profiles

# Reference evaluation, independent of the per-cell tables: linear node
# interpolation or a scipy periodic spline for R and R', and S from a
# cumulative table of exact cell integrals (closed form for the linear
# interpolant, 4-point Gauss-Legendre, exact for the squared cubic).
GL_NODES = 0.5 * (1.0 + np.array(
    [-0.8611363115940526, -0.3399810435848563,
     0.3399810435848563, 0.8611363115940526]))
GL_WEIGHTS = 0.5 * np.array(
    [0.3478548451374538, 0.6521451548625461,
     0.6521451548625461, 0.3478548451374538])


def reference_wrap(theta):
    """Angles reduced to [0, 2 pi), and their winding numbers."""
    theta = np.asarray(theta, dtype=float)
    winds = np.floor(theta / TWO_PI)
    wrapped = theta - winds * TWO_PI
    over = wrapped >= TWO_PI
    return np.where(over, 0.0, wrapped), winds + over


def reference_nodes(profile, theta):
    """Closed node radii, wrapped angles, their cells and cell fractions."""
    closed = np.append(profile.samples, profile.samples[0])
    wrapped, _ = reference_wrap(theta)
    pos = wrapped / (TWO_PI / profile.N)
    j = np.minimum(pos.astype(np.int64), profile.N - 1)
    return closed, wrapped, j, pos - j


def reference_spline(profile):
    return reference_spline_of(profile.samples)


def reference_spline_of(samples):
    """scipy's periodic cubic spline through samples on the uniform grid."""
    grid = np.linspace(0.0, TWO_PI, len(samples) + 1)
    closed = np.append(samples, samples[0])
    return scipy.interpolate.CubicSpline(grid, closed, bc_type="periodic")


def reference_radius(profile, theta):
    closed, wrapped, j, frac = reference_nodes(profile, theta)
    if profile.interpolation == "cubic":
        return reference_spline(profile)(wrapped)
    return (1.0 - frac) * closed[j] + frac * closed[j + 1]


def reference_radius_derivative(profile, theta):
    closed, wrapped, j, _ = reference_nodes(profile, theta)
    if profile.interpolation == "cubic":
        return reference_spline(profile)(wrapped, 1)
    return (closed[j + 1] - closed[j]) * (profile.N / TWO_PI)


def reference_cell_integral(profile, k, s):
    """int of R(u)^2/2 from node theta_k over a length s <= h."""
    if profile.interpolation == "linear":
        closed = np.append(profile.samples, profile.samples[0])
        r0 = closed[k]
        m = (closed[k + 1] - r0) / (TWO_PI / profile.N)
        return 0.5 * (r0 * r0 * s + r0 * m * s * s + m * m * s ** 3 / 3.0)
    t0 = k * (TWO_PI / profile.N)
    acc = 0.0
    for node, weight in zip(GL_NODES, GL_WEIGHTS):
        r = reference_radius(profile, t0 + node * s)
        acc = acc + weight * 0.5 * r * r
    return s * acc


def reference_sector_area(profile, theta):
    h = TWO_PI / profile.N
    cells = np.arange(profile.N)
    cumulative = np.concatenate(([0.0], np.cumsum(
        reference_cell_integral(profile, cells, np.full(profile.N, h)))))
    wrapped, winds = reference_wrap(theta)
    k = np.minimum((wrapped / h).astype(np.int64), profile.N - 1)
    return (cumulative[k] + reference_cell_integral(profile, k, wrapped - k * h)
            + winds * cumulative[-1])


def trapezoid_area(profile, n=1 << 20):
    """Independent oracle: trapezoid rule for int 0.5 R^2 dtheta."""
    theta = np.linspace(0.0, TWO_PI, n + 1)
    r = profile.radius(theta)
    return scipy.integrate.trapezoid(0.5 * r * r, theta)


def test_disk_area_exact():
    assert geometry2d.disk_profile(2.5).area == pytest.approx(2.5, abs=1e-12)


def test_cosine_profile_area():
    assert geometry2d.cosine_profile(1.7).area == pytest.approx(1.7, abs=1e-9)


@pytest.mark.parametrize("name", list(preset_profiles()))
def test_area_against_trapezoid_oracle(name):
    profile = preset_profiles()[name]
    oracle = trapezoid_area(profile)
    assert profile.area == pytest.approx(oracle, rel=1e-6)


@pytest.mark.parametrize("name", list(preset_profiles()))
def test_sector_area_against_trapezoid_oracle(name):
    profile = preset_profiles()[name]
    for theta in [0.3, 1.0, np.pi, 5.0]:
        n = 1 << 18
        grid = np.linspace(0.0, theta, n + 1)
        r = profile.radius(grid)
        oracle = scipy.integrate.trapezoid(0.5 * r * r, grid)
        assert profile.sector_area(theta) == pytest.approx(
            oracle, rel=1e-6, abs=1e-9)


@pytest.mark.parametrize("name", list(preset_profiles()))
def test_inverse_sector_area_roundtrip(name):
    profile = preset_profiles()[name]
    rng = np.random.default_rng(42)
    theta = rng.uniform(0.0, TWO_PI, 5000)
    back = profile.inverse_sector_area(profile.sector_area(theta))
    err = np.abs(np.angle(np.exp(1j * (back - theta))))
    assert np.max(err) < 1e-9


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(16, 511),
       interpolation=st.sampled_from(["linear", "cubic"]))
def test_inverse_sector_area_roundtrip_random_profiles(seed, n,
                                                       interpolation):
    """|S(S^-1(s)) - s| <= 1e-10 area, s over three turns."""
    rng = np.random.default_rng(seed)
    try:
        profile = RadialProfile(rng.uniform(0.2, 2.0, n), interpolation)
    except ValueError:
        reject()  # cubic overshoot below zero
    s = rng.uniform(-1.0, 2.0, 200) * profile.area
    err = np.abs(profile.sector_area(profile.inverse_sector_area(s)) - s)
    assert np.max(err) / profile.area <= 1e-10


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(16, 511),
       flat=st.floats(0.0, 0.5))
def test_inverse_sector_area_closed_form_random_linear_profiles(seed, n, flat):
    """Linear cells over radii 1e-3 ... 10, a share ``flat`` of them constant.

    |S(S^-1(s)) - s| <= 1e-14 area for s over three turns, beyond the
    rounding of theta itself: two ulps of theta move S by R(theta)^2 ulp,
    up to 1.8e-13 at R = 10 and theta near 4 pi. S^-1 is nondecreasing to
    within one ulp of max(|theta|, 2 pi), also at and one ulp either side
    of the cell edges.
    """
    rng = np.random.default_rng(seed)
    radii = 10.0 ** rng.uniform(-3.0, 1.0, n)
    same = np.flatnonzero(rng.uniform(size=n - 1) < flat)
    radii[same + 1] = radii[same]  # constant cells, slope m = 0
    profile = RadialProfile(radii, "linear")
    s = rng.uniform(-1.0, 2.0, 2000) * profile.area
    theta = profile.inverse_sector_area(s)
    err = np.abs(profile.sector_area(theta) - s)
    rounding = profile.radius(theta) ** 2 * np.spacing(np.abs(theta))
    assert np.all(err <= 1e-14 * profile.area + rounding)

    turns = np.array([-1.0, 0.0, 1.0])[:, None] * profile.area
    edges = (profile._cumulative + turns).ravel()
    s = np.sort(np.concatenate((
        s, edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf))))
    theta = profile.inverse_sector_area(s)
    ulp = np.spacing(np.maximum(np.abs(theta[1:]), TWO_PI))
    assert np.all(np.diff(theta) >= -ulp)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(16, 511),
       interpolation=st.sampled_from(["linear", "cubic"]))
def test_inverse_sector_area_and_radius(seed, n, interpolation):
    """theta is inverse_sector_area's to the bit; R is radius(theta) up to
    the rounding of theta, |R - radius(theta)| <= 2 max|R'| ulp(theta) +
    4 ulp(R), where theta = start + x + turns is rounded at the scale of
    max(|theta|, 2 pi). s runs over several turns, at +- the cumulative
    nodes, one ulp either side of them, at multiples of the area and at NaN.

    A one-point call gives the bits of the one-element array call and of
    the whole array call, on cubic profiles too: Newton stops each point
    on its own residual, so no point's bits depend on the others.
    """
    rng = np.random.default_rng(seed)
    try:
        profile = RadialProfile(rng.uniform(0.2, 2.0, n), interpolation)
    except ValueError:
        reject()  # cubic overshoot below zero
    area = profile.area
    nodes = np.concatenate([profile._cumulative + k * area for k in (-2, 0, 3)])
    nodes = np.concatenate((nodes, -nodes))
    s = np.concatenate((
        rng.uniform(-3.0, 4.0, 200) * area, nodes,
        np.nextafter(nodes, -np.inf), np.nextafter(nodes, np.inf),
        np.arange(-3, 5) * area, [np.nan]))
    theta, radius = profile.inverse_sector_area_and_radius(s)
    assert theta.tobytes() == profile.inverse_sector_area(s).tobytes()

    rd = profile.cell_polynomials()[1]
    max_slope = np.max((profile._h ** np.arange(rd.shape[0])) @ np.abs(rd))
    bound = (2.0 * max_slope * np.spacing(np.maximum(np.abs(theta), TWO_PI))
             + 4.0 * np.spacing(radius))
    finite = ~np.isnan(s)
    assert np.all(np.abs(radius - profile.radius(theta))[finite]
                  <= bound[finite])
    assert np.isnan(theta[-1]) and np.isnan(radius[-1])
    assert np.all(np.isfinite(theta[finite]) & np.isfinite(radius[finite]))

    for i in rng.choice(s.size - 1, 10, replace=False).tolist() + [-1]:
        one = profile.inverse_sector_area_and_radius(s[i])
        assert all(isinstance(v, float) for v in one)
        single = profile.inverse_sector_area_and_radius(s[[i]])
        assert np.array(one).tobytes() == np.concatenate(single).tobytes()
        assert np.array(one).tobytes() == np.array(
            [theta[i], radius[i]]).tobytes()


def assert_per_point(fn, *args):
    """fn gives each point the same bits in the whole batch, in a permuted
    batch and in a one-point call. The points run along the first axis of
    every argument; a tuple result is one array per output."""
    def stacked(out):
        return np.array(out if isinstance(out, tuple) else [out])

    size = len(args[0])
    whole = stacked(fn(*args))
    perm = np.random.default_rng(size).permutation(size)
    permuted = stacked(fn(*(a[perm] for a in args)))
    assert permuted[:, np.argsort(perm)].tobytes() == whole.tobytes()
    for i in range(size):
        one = stacked(fn(*(a[i] for a in args)))
        assert one.tobytes() == whole[:, i].tobytes(), i


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(16, 511),
       interpolation=st.sampled_from(["linear", "cubic"]),
       size=st.integers(1, 40))
def test_results_are_per_point(seed, n, interpolation, size):
    """Every primitive gives a point the bits it has alone, whatever the
    other points of its call, on random linear and cubic profiles, for
    angles, areas and times over several turns; Newton stops each point of
    a cubic S^-1 on its own residual. The rows of cutoff_product_map, on
    the profile times a second random one, are per point too, and so is
    the product gauge at p = 1, 2 and 3."""
    rng = np.random.default_rng(seed)
    try:
        profile, other = (RadialProfile(rng.uniform(0.3, 1.5, n), kind)
                          for kind in (interpolation, "cubic"))
    except ValueError:
        reject()  # cubic overshoot below zero
    theta = rng.uniform(-3.0, 4.0, size) * TWO_PI
    s = rng.uniform(-3.0, 4.0, size) * profile.area
    t = rng.uniform(-3.0, 4.0, size) * profile.area
    z = rng.uniform(0.0, 1.5, size) * np.exp(1j * theta)
    for method in (profile.radius, profile.sector_area,
                   profile.radius_and_sector_area):
        assert_per_point(method, theta)
    for method in (profile.inverse_sector_area,
                   profile.inverse_sector_area_and_radius):
        assert_per_point(method, s)
    assert_per_point(profile.gauge, z)
    for fn in (diskmap.disk_to_domain, diskmap.domain_to_disk):
        assert_per_point(lambda w: fn(profile, w), z)
    assert_per_point(lambda w, dt: dynamics.char_flow_2d(profile, w, dt),
                     z, t)

    factors = [profile, other]
    deltas = [diskmap.sandwich_delta(f, 0.05, 2) for f in factors]
    u = rng.uniform(0.0, 4.0, (size, 2)) * [d / np.pi for d in deltas]
    pts = np.sqrt(u) * np.exp(1j * rng.uniform(-3.0, 4.0, u.shape) * TWO_PI)
    assert_per_point(
        lambda w, back: diskmap.cutoff_product_map(factors, deltas, 8, w,
                                                   back)[0],
        pts, rng.random(size) < 0.5)
    for p in (1.0, 2.0, 3.0):
        assert_per_point(ProductDomain(factors, p).gauge, pts)


def test_gauge_and_flow_at_origin_and_nan_keep_their_bits():
    """r / R at r = 0 is +0.0 without a special case, also at -0 - 0i.

    The reference is the explicit np.where(r == 0, 0, r / R) of the level;
    a NaN point gives the same NaN, and the flow of 0 and -0 - 0i is +0.
    """
    def bits(x):
        return np.asarray(x).tobytes()

    points = np.array([0j, complex(-0.0, -0.0), complex(np.nan, 0.0),
                       complex(0.0, np.nan), 0.3 - 0.2j])
    for interpolation in ("linear", "cubic"):
        profile = geometry2d.cosine_profile(np.pi, interpolation=interpolation)
        r = np.abs(points)
        level = np.where(r == 0.0, 0.0,
                         r / profile.radius(np.arctan2(points.imag,
                                                       points.real)))
        assert bits(profile.gauge(points)) == bits(level)
        flow = dynamics.char_flow_2d(profile, points, 0.7)
        assert bits(flow[:2]) == bits(np.zeros(2, dtype=complex))
        assert np.all(np.isnan(flow[2:4]))
        for w, g, f in zip(points, level, flow):
            assert bits(profile.gauge(w)) == bits(g)
            assert bits(dynamics.char_flow_2d(profile, w, 0.7)) == bits(f)


@pytest.mark.parametrize("name", ["weierstrass", "square", "cosine"])
def test_inverse_sector_area_newton_converges(name, monkeypatch):
    """Linear profiles invert in closed form; cubic ones by few Newton steps.

    Each Newton iteration evaluates the cell's S polynomial and, unless it
    has converged, its R polynomial, one ``horner`` call each, and R at the
    root is one more; from the secant point of the sample cell 20,000
    points need one iteration and a final check (4 calls in all),
    bisection about 28. A linear cell takes a cube root and evaluates no
    polynomial.
    """
    profile = preset_profiles()[name]
    most = 0 if profile.interpolation == "linear" else 7
    calls = []
    horner = geometry2d.horner

    def spy(coef, s):
        calls.append(None)
        return horner(coef, s)

    monkeypatch.setattr(geometry2d, "horner", spy)
    s = np.random.default_rng(8).uniform(0.0, profile.area, 20000)
    theta = profile.inverse_sector_area(s)
    assert len(calls) <= most
    monkeypatch.undo()
    err = np.abs(profile.sector_area(theta) - s)
    assert np.max(err) <= 1e-14 * profile.area


def test_inverse_sector_area_nan_does_not_stall_newton(monkeypatch):
    """A NaN area comes back NaN without holding the others' Newton loop
    to its 80-iteration cap: the iteration count stays that of the finite
    points alone."""
    profile = geometry2d.cosine_profile(np.pi)
    s = np.random.default_rng(8).uniform(0.0, profile.area, 100)
    counts = []
    horner = geometry2d.horner
    for values in (s, np.concatenate(([np.nan], s))):
        calls = []

        def spy(coef, x):
            calls.append(None)
            return horner(coef, x)

        monkeypatch.setattr(geometry2d, "horner", spy)
        theta = profile.inverse_sector_area(values)
        monkeypatch.undo()
        counts.append(len(calls))
    assert counts[1] == counts[0]
    assert np.isnan(theta[0]) and np.all(np.isfinite(theta[1:]))


# Every primitive on a profile, fed an empty float array.
EMPTY_PRIMITIVES = {
    "radius": RadialProfile.radius,
    "radius_derivative": RadialProfile.radius_derivative,
    "sector_area": RadialProfile.sector_area,
    "inverse_sector_area": RadialProfile.inverse_sector_area,
    "gauge": RadialProfile.gauge,
    "boundary_point": RadialProfile.boundary_point,
    "disk_to_domain": diskmap.disk_to_domain,
    "domain_to_disk": diskmap.domain_to_disk,
    "char_flow_2d": lambda f, e: dynamics.char_flow_2d(f, e, 0.3),
    "product_map": lambda f, e: diskmap.product_map(
        [f, f], e.reshape(0, 2))[:, 0],
}


@pytest.mark.parametrize("interpolation", ["linear", "cubic"])
@pytest.mark.parametrize("name", list(EMPTY_PRIMITIVES))
def test_primitives_map_empty_to_empty(name, interpolation):
    """An empty array gives an empty array, on cubic cells as on linear."""
    profile = geometry2d.cosine_profile(np.pi, interpolation=interpolation)
    assert EMPTY_PRIMITIVES[name](profile, np.empty(0)).shape == (0,)


def on_circle(angle):
    """The point e^{i angle}; its coordinates are NaN for a non-finite angle."""
    return np.exp(1j * np.asarray(angle))


# Every primitive that reads an angle (arg z for a point, the unwrapped
# angle sector_area + t for a time), fed one non-finite angle.
ANGLE_PRIMITIVES = {
    "radius": RadialProfile.radius,
    "radius_derivative": RadialProfile.radius_derivative,
    "sector_area": RadialProfile.sector_area,
    "inverse_sector_area": RadialProfile.inverse_sector_area,
    "boundary_point": RadialProfile.boundary_point,
    "gauge": lambda f, a: f.gauge(on_circle(a)),
    "disk_to_domain": lambda f, a: diskmap.disk_to_domain(f, on_circle(a)),
    "domain_to_disk": lambda f, a: diskmap.domain_to_disk(f, on_circle(a)),
    "char_flow_2d": lambda f, a: dynamics.char_flow_2d(f, on_circle(a), 0.3),
    "char_flow_2d_time": lambda f, a: dynamics.char_flow_2d(f, 0.5 + 0.1j, a),
}


@pytest.mark.parametrize("interpolation", ["linear", "cubic"])
@pytest.mark.parametrize("angle", [np.nan, np.inf, -np.inf],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("name", list(ANGLE_PRIMITIVES))
def test_primitives_map_non_finite_angle_to_nan(name, angle, interpolation):
    """NaN, alone or beside a finite angle; no IndexError, no cast warning.

    An infinite angle may still warn of the invalid inf - inf of its own
    reduction, which is IEEE's NaN and not a failed lookup.
    """
    profile = geometry2d.cosine_profile(np.pi, interpolation=interpolation)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        one = ANGLE_PRIMITIVES[name](profile, angle)
        pair = ANGLE_PRIMITIVES[name](profile, np.array([angle, 0.3]))
    assert np.isnan(one)
    assert np.isnan(pair[0]) and np.isfinite(pair[1])
    assert not [w for w in caught if "cast" in str(w.message)]


def random_profile(seed, n, interpolation):
    rng = np.random.default_rng(seed)
    try:
        return rng, RadialProfile(rng.uniform(0.2, 2.0, n), interpolation)
    except ValueError:
        reject()  # cubic overshoot below zero


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(16, 511),
       interpolation=st.sampled_from(["linear", "cubic"]))
def test_cell_polynomials_match_profile(seed, n, interpolation):
    """R, R' and S from one cell lookup agree with the reference evaluation."""
    rng, profile = random_profile(seed, n, interpolation)
    r, rd, s = profile.cell_polynomials()
    assert r.shape[0] == rd.shape[0] + 1 == s.shape[0] // 2
    theta = rng.uniform(0.0, TWO_PI, 400)
    j = np.minimum((theta / (TWO_PI / n)).astype(np.int64), n - 1)
    offset = theta - j * (TWO_PI / n)

    def poly(coef):
        return sum(coef[i, j] * offset ** i for i in range(coef.shape[0]))

    scale = profile.max_radius
    np.testing.assert_allclose(poly(r), reference_radius(profile, theta),
                               rtol=0.0, atol=1e-12 * scale)
    np.testing.assert_allclose(poly(rd),
                               reference_radius_derivative(profile, theta),
                               rtol=0.0, atol=1e-12 * n * scale)
    np.testing.assert_allclose(poly(s), reference_sector_area(profile, theta),
                               rtol=0.0, atol=1e-12 * profile.area)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(16, 511),
       interpolation=st.sampled_from(["linear", "cubic"]))
def test_profile_matches_reference_evaluation(seed, n, interpolation):
    """radius, radius_derivative, sector_area and area over three turns."""
    rng, profile = random_profile(seed, n, interpolation)
    theta = rng.uniform(-TWO_PI, 2.0 * TWO_PI, 400)
    scale = profile.max_radius
    np.testing.assert_allclose(profile.radius(theta),
                               reference_radius(profile, theta),
                               rtol=0.0, atol=1e-12 * scale)
    np.testing.assert_allclose(profile.radius_derivative(theta),
                               reference_radius_derivative(profile, theta),
                               rtol=0.0, atol=1e-12 * n * scale)
    np.testing.assert_allclose(profile.sector_area(theta),
                               reference_sector_area(profile, theta),
                               rtol=0.0, atol=1e-12 * profile.area)
    assert profile.area == pytest.approx(
        reference_sector_area(profile, TWO_PI), rel=0.0,
        abs=1e-12 * profile.area)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(16, 511),
       interpolation=st.sampled_from(["linear", "cubic"]))
def test_angle_wrap_at_turns_and_cell_edges(seed, n, interpolation):
    """At -2 pi, 0, 2 pi, 4 pi, the cell edges, and one ulp either side.

    S is nondecreasing to within what one ulp of max(|theta|, 2 pi) moves
    it (at most max_radius^2 / 2 per unit angle), and R is continuous
    across each of these angles within 1e-12 max_radius.
    """
    _, profile = random_profile(seed, n, interpolation)
    turns = TWO_PI * np.array([-1.0, 0.0, 1.0, 2.0])
    edges = (np.arange(n + 1) * (TWO_PI / n) + turns[:, None]).ravel()
    points = np.concatenate((turns, edges))
    theta = np.sort(np.concatenate((
        points, np.nextafter(points, -np.inf), np.nextafter(points, np.inf))))
    area = profile.sector_area(theta)
    ulp = np.spacing(np.maximum(np.abs(theta[1:]), TWO_PI))
    assert np.all(np.diff(area) >= -0.5 * profile.max_radius ** 2 * ulp)

    radius = profile.radius(points)
    for side in (-np.inf, np.inf):
        np.testing.assert_allclose(
            profile.radius(np.nextafter(points, side)), radius, rtol=0.0,
            atol=1e-12 * profile.max_radius)


def test_profile_copies_its_samples():
    """The caller's array stays writable and later writes do not leak in."""
    radii = np.linspace(1.0, 2.0, 32)
    RadialProfile(radii)
    assert radii.flags.writeable

    base = np.ones(32)
    profile = RadialProfile(base[:])
    area = profile.area
    base[0] = 5.0
    assert profile.samples[0] == 1.0
    assert profile.radius(0.0) == 1.0
    assert profile.area == area


def test_import_and_cubic_primitives_load_no_scipy():
    """Importing the package and its CLI, building a cubic profile and
    running its primitives never imports scipy."""
    code = textwrap.dedent("""
        import sys
        import numpy as np
        import symprod, symprod.cli
        from symprod.geometry2d import cosine_profile
        profile = cosine_profile(1.0)
        theta = np.linspace(-1.0, 7.0, 101)
        s = profile.sector_area(theta)
        assert np.all(profile.radius(theta) > 0.0)
        assert np.allclose(profile.inverse_sector_area(s), theta,
                           rtol=0.0, atol=1e-12)
        assert np.allclose(profile.gauge(profile.boundary_point(theta)), 1.0,
                           rtol=0.0, atol=1e-12)
        assert "scipy" not in sys.modules, sorted(sys.modules)
        """)
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": path})
    assert done.returncode == 0, done.stderr


def reference_extrema(samples):
    """Extrema of the scipy spline: its nodes and its critical values.

    A constant spline's derivative vanishes identically and its roots are
    NaN; its extrema are then its node values.
    """
    spline = reference_spline_of(samples)
    crit = spline.derivative().roots()
    values = np.concatenate((samples, spline(crit[np.isfinite(crit)])))
    return values.min(), values.max()


def assert_spline_matches_oracle(rng, profile):
    """R and R' of the cell table, and the extrema, against scipy."""
    n = profile.N
    r, rd, _ = profile.cell_polynomials()
    theta = rng.uniform(0.0, TWO_PI, 400)
    j = np.minimum((theta / (TWO_PI / n)).astype(np.int64), n - 1)
    offset = theta - j * (TWO_PI / n)
    spline = reference_spline(profile)
    scale = profile.max_radius
    np.testing.assert_allclose(geometry2d.horner(r[:, j], offset),
                               spline(theta), rtol=0.0, atol=1e-12 * scale)
    np.testing.assert_allclose(geometry2d.horner(rd[:, j], offset),
                               spline(theta, 1), rtol=0.0,
                               atol=1e-12 * n * scale)
    lo, hi = reference_extrema(profile.samples)
    assert abs(profile.min_radius - lo) <= 1e-12 * scale
    assert abs(profile.max_radius - hi) <= 1e-12 * scale


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(16, 511))
def test_spline_matches_scipy_oracle(seed, n):
    """The FFT-built spline is scipy's periodic spline, odd and even N."""
    rng, profile = random_profile(seed, n, "cubic")
    assert_spline_matches_oracle(rng, profile)


@pytest.mark.parametrize("n", [16, 17, 511])
def test_spline_matches_scipy_oracle_on_constant_profile(n):
    """q = 0 on every cell: no critical point, the node value is exact."""
    profile = geometry2d.disk_profile(1.0, N=n, interpolation="cubic")
    assert_spline_matches_oracle(np.random.default_rng(n), profile)
    assert profile.min_radius == profile.max_radius == profile.samples[0]


def test_spline_oracle_rejects_cubic_dip():
    """The dip below zero is the scipy spline's, to the six printed digits."""
    samples = np.array([0.69, 0.88, 0.73, 0.99, 1.34, 1.41, 1.16, 0.84, 0.85,
                        0.84, 1.31, 0.75, 1.28, 0.01, 1.07, 1.47])
    lo, _ = reference_extrema(samples)
    assert lo < 0.0
    with pytest.raises(ValueError, match="non-positive") as info:
        RadialProfile(samples, "cubic")
    found = re.search(r"min_radius=(\S+)\)", str(info.value)).group(1)
    assert float(found) == pytest.approx(lo, rel=1e-5)


def test_sector_area_monotone_and_total():
    profile = geometry2d.weierstrass_profile(terms=20)
    theta = np.linspace(0.0, TWO_PI, 10001)
    s = profile.sector_area(theta)
    assert np.all(np.diff(s) > 0.0)
    assert s[0] == pytest.approx(0.0, abs=1e-15)
    assert s[-1] == pytest.approx(profile.area, rel=1e-12)


@pytest.mark.parametrize("name", list(preset_profiles()))
def test_gauge_homogeneity(name):
    profile = preset_profiles()[name]
    rng = np.random.default_rng(7)
    z = rng.normal(size=200) + 1j * rng.normal(size=200)
    lam = rng.uniform(0.1, 5.0, 200)
    assert np.allclose(profile.gauge(lam * z), lam * profile.gauge(z),
                       rtol=1e-12, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(16, 511),
       interpolation=st.sampled_from(["linear", "cubic"]))
def test_gauge_homogeneity_random_profiles(seed, n, interpolation):
    """g(lam z) = lam g(z) for lam > 0, on random profiles."""
    rng = np.random.default_rng(seed)
    try:
        profile = RadialProfile(rng.uniform(0.2, 2.0, n), interpolation)
    except ValueError:
        reject()  # cubic overshoot below zero
    z = rng.normal(size=200) + 1j * rng.normal(size=200)
    lam = rng.uniform(0.1, 5.0, 200)
    assert np.allclose(profile.gauge(lam * z), lam * profile.gauge(z),
                       rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("name", list(preset_profiles()))
def test_boundary_point_has_unit_gauge(name):
    profile = preset_profiles()[name]
    theta = np.linspace(0.0, TWO_PI, 257)
    z = profile.boundary_point(theta)
    assert np.allclose(profile.gauge(z), 1.0, atol=1e-12)


def test_polygon_square_radius():
    profile = geometry2d.polygon_profile(SQUARE)
    # support function of the unit square: R = 1 / max(|cos|, |sin|)
    theta = np.arange(4096) * (TWO_PI / 4096)
    expected = 1.0 / np.maximum(np.abs(np.cos(theta)), np.abs(np.sin(theta)))
    assert np.allclose(profile.radius(theta), expected, atol=1e-12)
    assert profile.area == pytest.approx(4.0, rel=1e-5)


def test_polygon_orientation_insensitive():
    ccw = geometry2d.polygon_profile(SQUARE)
    cw = geometry2d.polygon_profile(list(reversed(SQUARE)))
    theta = np.linspace(0.0, TWO_PI, 100)
    assert np.allclose(cw.radius(theta), ccw.radius(theta), atol=1e-12)


def test_polygon_rejects_nonstar():
    # origin outside the polygon
    with pytest.raises(ValueError):
        geometry2d.polygon_profile([(2, 2), (3, 2), (3, 3), (2, 3)])


def test_profile_rejects_nonpositive_radius():
    samples = np.ones(32)
    samples[5] = -0.1
    with pytest.raises(ValueError):
        RadialProfile(samples)


def test_profile_rejects_cubic_dip_below_zero():
    """Positive samples whose spline dips to min_radius = -0.003."""
    samples = [0.69, 0.88, 0.73, 0.99, 1.34, 1.41, 1.16, 0.84, 0.85, 0.84,
               1.31, 0.75, 1.28, 0.01, 1.07, 1.47]
    RadialProfile(samples, "linear")
    with pytest.raises(ValueError, match="non-positive"):
        RadialProfile(samples, "cubic")


@pytest.mark.parametrize("bad", [np.inf, np.nan])
@pytest.mark.filterwarnings("error")
def test_profile_rejects_nonfinite_samples(bad):
    samples = np.ones(32)
    samples[5] = bad
    with pytest.raises(ValueError, match="finite"):
        RadialProfile(samples)


def test_ellipsoid_gauge_and_volume():
    areas = ellipsoid_areas([1.0, 2.0])
    disks = [geometry2d.disk_profile(a) for a in areas]
    assert ProductDomain(disks).volume == pytest.approx(1.0, abs=1e-15)
    z = np.array([np.sqrt(1.0 / np.pi), 0.0], dtype=complex)
    assert ellipsoid_level(areas, z) == pytest.approx(1.0, abs=1e-12)
    z = np.array([0.0, np.sqrt(2.0 / np.pi)], dtype=complex)
    assert ellipsoid_level(areas, z) == pytest.approx(1.0, abs=1e-12)


def test_ellipsoid_requires_positive_areas():
    with pytest.raises(ValueError):
        ellipsoid_areas([1.0, 0.0])


def test_weierstrass_requires_convergent_series():
    with pytest.raises(ValueError):
        geometry2d.weierstrass_profile(a=1.5, b=3.0)
    with pytest.raises(ValueError):
        geometry2d.weierstrass_profile(a=0.5, b=0.9)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("interpolation", ["linear", "cubic"])
def test_radius_extrema_of_interpolant(seed, interpolation):
    """min/max_radius bound the interpolant, spline overshoot included."""
    rng = np.random.default_rng(seed)
    profile = RadialProfile(1.0 + 0.3 * rng.random(64), interpolation)
    dense = profile.radius(np.linspace(0.0, TWO_PI, 64 * 32768 + 1))
    assert profile.min_radius == pytest.approx(dense.min(), abs=1e-9)
    assert profile.max_radius == pytest.approx(dense.max(), abs=1e-9)
    assert profile.min_radius <= dense.min() + 1e-12
    assert profile.max_radius >= dense.max() - 1e-12
    if interpolation == "cubic":
        assert profile.min_radius < profile.samples.min()
        assert profile.max_radius > profile.samples.max()


def test_radius_extrema_of_constant_cubic_profile():
    """A constant spline has a vanishing derivative; its extrema are exact."""
    profile = geometry2d.disk_profile(1.0, interpolation="cubic")
    assert profile.min_radius == pytest.approx(np.sqrt(1.0 / np.pi), abs=1e-15)
    assert profile.max_radius == pytest.approx(np.sqrt(1.0 / np.pi), abs=1e-15)


def test_bounding_box_contains_cubic_boundary():
    from symprod.product import ProductDomain
    rng = np.random.default_rng(5)
    factors = [RadialProfile(1.0 + 0.3 * rng.random(64), "cubic"),
               geometry2d.cosine_profile(1.0)]
    radii = ProductDomain(factors).bounding_radii()
    theta = np.linspace(0.0, TWO_PI, 1 << 16)
    for profile, r in zip(factors, radii):
        edge = profile.boundary_point(theta)
        assert np.all(np.abs(edge.real) <= r)
        assert np.all(np.abs(edge.imag) <= r)
