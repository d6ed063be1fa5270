"""Profiles, sector areas, gauges."""

import numpy as np
import pytest
from hypothesis import given, reject, settings, strategies as st

from symprod import geometry2d
from symprod.geometry2d import EllipsoidSpec, RadialProfile, TWO_PI

SQUARE = [(1, 1), (-1, 1), (-1, -1), (1, -1)]


def preset_profiles():
    return {
        "disk": geometry2d.disk_profile(np.pi),
        "cosine": geometry2d.cosine_profile(np.pi),
        "square": geometry2d.polygon_profile(SQUARE),
        "weierstrass": geometry2d.weierstrass_profile(terms=20),
        "hunt": geometry2d.hunt_profile(terms=20, seed=3),
        "xz": geometry2d.xz_profile(),
    }


def trapezoid_area(profile, n=1 << 20):
    """Independent oracle: trapezoid rule for int 0.5 R^2 dtheta."""
    theta = np.linspace(0.0, TWO_PI, n + 1)
    r = profile.radius(theta)
    return np.trapezoid(0.5 * r * r, theta)


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
        oracle = np.trapezoid(0.5 * r * r, grid)
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


@pytest.mark.parametrize("name", ["weierstrass", "square", "cosine"])
def test_inverse_sector_area_newton_converges(name, monkeypatch):
    """Linear profiles invert in closed form; cubic ones by few Newton steps.

    Each Newton iteration makes one _cell_integral call; from the secant
    point of the sample cell 20,000 points need at most 3, bisection about
    28. A linear cell takes a cube root and makes none.
    """
    profile = preset_profiles()[name]
    most = 0 if profile.interpolation == "linear" else 4
    calls = []
    cell_integral = profile._cell_integral

    def spy(k, s):
        calls.append(None)
        return cell_integral(k, s)

    monkeypatch.setattr(profile, "_cell_integral", spy)
    s = np.random.default_rng(8).uniform(0.0, profile.area, 20000)
    theta = profile.inverse_sector_area(s)
    assert len(calls) <= most
    monkeypatch.undo()
    err = np.abs(profile.sector_area(theta) - s)
    assert np.max(err) <= 1e-14 * profile.area


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
    spec = EllipsoidSpec([1.0, 2.0])
    assert spec.volume == pytest.approx(1.0, abs=1e-15)
    z = np.array([np.sqrt(1.0 / np.pi), 0.0], dtype=complex)
    assert spec.gauge(z) == pytest.approx(1.0, abs=1e-12)
    z = np.array([0.0, np.sqrt(2.0 / np.pi)], dtype=complex)
    assert spec.gauge(z) == pytest.approx(1.0, abs=1e-12)


def test_ellipsoid_requires_positive_areas():
    with pytest.raises(ValueError):
        EllipsoidSpec([1.0, 0.0])


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
