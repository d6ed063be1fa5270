"""Disk-to-domain maps, their inverses, and the cutoff flow."""

import dataclasses
import time

import numpy as np
import pytest
from hypothesis import given, reject, settings, strategies as st

from symprod import diskmap, geometry2d, product
from symprod.geometry2d import TWO_PI
from symprod.selftest import (SQUARE, _preset_profiles as preset_profiles,
                              _standard_factors)


def verify_cutoff_containment(profile, config, eps_prime, rings=5, angles=64):
    """Check that the cutoff map sends D(delta) inside eps' * domain.

    Scans concentric rings of D(delta); returns the worst gauge ratio
    (<= 1 means the containment of the sandwich construction holds).
    """
    worst = 0.0
    for level in np.linspace(0.2, 1.0, rings):
        radius = np.sqrt(level * config.delta / np.pi)
        theta = np.arange(angles) * (TWO_PI / angles)
        img = diskmap.cutoff_disk_map(profile, config,
                                      radius * np.exp(1j * theta))
        worst = max(worst, float(np.max(profile.gauge(img))) / eps_prime)
    return worst


def random_disk_points(profile, n, seed):
    rng = np.random.default_rng(seed)
    z = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
    return z * np.sqrt(profile.area / np.pi)


def test_disk_map_is_identity_on_disk():
    profile = geometry2d.disk_profile(np.pi)
    z = random_disk_points(profile, 500, 0)
    assert np.allclose(diskmap.disk_to_domain(profile, z), z, atol=1e-12)


def test_jacobian_determinant_one():
    """Central-difference Jacobian oracle on the smooth profile."""
    profile = geometry2d.cosine_profile(np.pi)
    z = random_disk_points(profile, 300, 1)
    z = z[np.abs(z) > 0.1]
    det = diskmap.jacobian_determinant(profile, z)
    assert np.max(np.abs(det - 1.0)) < 1e-6


@pytest.mark.parametrize("name", list(preset_profiles()))
def test_level_sets_map_to_gauge_levels(name):
    profile = preset_profiles()[name]
    z = random_disk_points(profile, 2000, 2)
    img = diskmap.disk_to_domain(profile, z)
    lhs = profile.gauge(img) ** 2
    rhs = np.pi * np.abs(z) ** 2 / profile.area
    assert np.max(np.abs(lhs - rhs)) < 1e-10


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(16, 511),
       interpolation=st.sampled_from(["linear", "cubic"]))
def test_level_sets_map_to_gauge_levels_random_profiles(seed, n,
                                                        interpolation):
    rng = np.random.default_rng(seed)
    try:
        profile = geometry2d.RadialProfile(rng.uniform(0.2, 2.0, n),
                                           interpolation)
    except ValueError:
        reject()  # cubic overshoot below zero
    z = random_disk_points(profile, 200, seed)
    lhs = profile.gauge(diskmap.disk_to_domain(profile, z)) ** 2
    assert np.max(np.abs(lhs - np.pi * np.abs(z) ** 2 / profile.area)) <= 1e-10


@pytest.mark.parametrize("name", list(preset_profiles()))
def test_map_roundtrip(name):
    profile = preset_profiles()[name]
    z = random_disk_points(profile, 2000, 3)
    back = diskmap.domain_to_disk(profile, diskmap.disk_to_domain(profile, z))
    assert np.max(np.abs(back - z)) < 1e-9


def test_map_homogeneity():
    profile = geometry2d.weierstrass_profile(terms=20)
    rng = np.random.default_rng(4)
    z = random_disk_points(profile, 200, 5)
    lam = rng.uniform(0.1, 3.0, 200)
    assert np.allclose(diskmap.disk_to_domain(profile, lam * z),
                       lam * diskmap.disk_to_domain(profile, z),
                       rtol=1e-11, atol=1e-11)


def test_product_map_sends_ellipsoid_levels_to_product_levels():
    factors = [geometry2d.cosine_profile(1.0),
               geometry2d.polygon_profile(SQUARE)]
    from symprod.product import ProductDomain
    areas = [f.area for f in factors]
    domain = ProductDomain(factors)
    rng = np.random.default_rng(6)
    z = rng.normal(size=(300, 2)) + 1j * rng.normal(size=(300, 2))
    z *= 0.3
    w = diskmap.product_map(factors, z)
    assert np.allclose(domain.gauge(w),
                       np.sqrt(product.ellipsoid_level(areas, z)), atol=1e-10)
    back = product.factorwise(diskmap.domain_to_disk, factors, w)
    assert np.max(np.abs(back - z)) < 1e-9


@pytest.mark.parametrize("width", [1, 3])
@pytest.mark.parametrize("fn", [diskmap.product_map], ids=["forward"])
def test_product_map_rejects_wrong_point_length(fn, width):
    """A point needs one complex coordinate per factor."""
    factors = [geometry2d.disk_profile(1.0), geometry2d.disk_profile(2.0)]
    with pytest.raises(ValueError, match="expected 2"):
        fn(factors, np.full((4, width), 0.1 + 0.2j))


def test_cutoff_map_matches_exact_map_above_cutoff():
    profile = geometry2d.cosine_profile(np.pi)
    config = diskmap.CutoffMapConfig(delta=0.05 * profile.area, steps=256)
    rng = np.random.default_rng(8)
    lev = rng.uniform(0.3, 0.9, 300)
    theta = rng.uniform(0.0, TWO_PI, 300)
    z = np.sqrt(lev * profile.area / np.pi) * np.exp(1j * theta)
    w = diskmap.cutoff_disk_map(profile, config, z)
    assert np.max(np.abs(w - diskmap.disk_to_domain(profile, z))) < 1e-8
    back = diskmap.cutoff_disk_map(profile, config, w, inverse=True)
    assert np.max(np.abs(back - z)) < 1e-8


def test_cutoff_map_is_identity_deep_inside():
    profile = geometry2d.weierstrass_profile(terms=20)
    config = diskmap.CutoffMapConfig(delta=0.05 * profile.area, steps=64)
    theta = np.linspace(0.0, TWO_PI, 33)
    z = np.sqrt(0.02 * diskmap.RAMP_LO * config.delta / np.pi) * \
        np.exp(1j * theta)
    w = diskmap.cutoff_disk_map(profile, config, z)
    assert np.allclose(w, z, atol=1e-14)


def test_cutoff_map_roundtrip_fractal():
    profile = geometry2d.weierstrass_profile(terms=20)
    config = diskmap.CutoffMapConfig(delta=0.05 * profile.area, steps=128)
    rng = np.random.default_rng(9)
    lev = rng.uniform(0.05, 0.95, 300)
    theta = rng.uniform(0.0, TWO_PI, 300)
    z = np.sqrt(lev * profile.area / np.pi) * np.exp(1j * theta)
    w = diskmap.cutoff_disk_map(profile, config, z)
    back = diskmap.cutoff_disk_map(profile, config, w, inverse=True)
    assert np.max(np.abs(back - z)) < 1e-3


@pytest.mark.parametrize("delta,steps,match", [
    (float("nan"), 64, "delta must be finite and positive"),
    (float("inf"), 64, "delta must be finite and positive"),
    (0.1, 8.5, "step count must be an integer")],
    ids=["delta-nan", "delta-inf", "steps-8.5"])
def test_cutoff_config_rejects_bad_values(delta, steps, match):
    """A non-finite delta would freeze every point; float steps break RK4.
    cutoff_product_map rejects both, also when cutoff_disk_map calls it."""
    profile = geometry2d.disk_profile(1.0)
    with pytest.raises(ValueError, match=match):
        diskmap.cutoff_product_map([profile], [delta], steps, [[0.1]])
    config = diskmap.CutoffMapConfig(delta=delta, steps=steps)
    with pytest.raises(ValueError, match=match):
        diskmap.cutoff_disk_map(profile, config, 0.1)


def test_verify_cutoff_containment():
    profile = geometry2d.weierstrass_profile(terms=20)
    eps_prime = 0.9 * np.sqrt(0.05 / 2)
    delta = diskmap.sandwich_delta(profile, 0.05, 2)
    config = diskmap.CutoffMapConfig(delta=delta, steps=64)
    assert verify_cutoff_containment(profile, config, eps_prime) <= 1.0


def test_sandwich_check_small():
    factors = list(_standard_factors())
    report = diskmap.sandwich_check(factors, epsilon=0.05, samples=2000,
                                    seed=11, steps=64)
    assert report.violations_outer == 0
    assert report.violations_inner == 0
    assert report.passed


def test_sandwich_check_cubic_disk():
    """A constant cubic profile has finite radii, so both samplers accept."""
    factors = [geometry2d.disk_profile(1.0, interpolation="cubic"),
               geometry2d.polygon_profile(SQUARE)]
    report = diskmap.sandwich_check(factors, epsilon=0.05, samples=500,
                                    seed=12, steps=64)
    assert np.isfinite(report.worst_outer_gauge)
    assert np.isfinite(report.worst_inner_gauge)
    assert report.passed


# -- bands of the cutoff map ------------------------------------------------

def sandwich_factors():
    return dict(zip(("weierstrass", "square"), _standard_factors()))


def sandwich_config(profile, steps=64):
    return diskmap.CutoffMapConfig(
        delta=diskmap.sandwich_delta(profile, 0.05, 2), steps=steps)


def exact_threshold(profile, config):
    """lev^2 at which the exact band starts."""
    return diskmap._exact_level(profile, config.delta)


def level_points(profile, lev2, theta, inverse):
    """Points of level lev^2: circles before the map, scaled boundaries after."""
    if inverse:
        return np.sqrt(lev2) * profile.boundary_point(theta)
    return np.sqrt(lev2 * profile.area / np.pi) * np.exp(1j * theta)


@pytest.mark.parametrize("inverse", [False, True])
@pytest.mark.parametrize("name", ["weierstrass", "square", "cosine"])
def test_exact_band_is_closed_form(name, inverse):
    profile = preset_profiles()[name]
    config = sandwich_config(profile)
    rng = np.random.default_rng(20)
    lev2 = exact_threshold(profile, config) * rng.uniform(1.0, 30.0, 500)
    z = level_points(profile, lev2, rng.uniform(0.0, TWO_PI, 500), inverse)
    closed_form = diskmap.domain_to_disk if inverse else diskmap.disk_to_domain
    w = diskmap.cutoff_disk_map(profile, config, z, inverse=inverse)
    assert np.max(np.abs(w - closed_form(profile, z))) <= 1e-12


@pytest.mark.parametrize("inverse", [False, True])
def test_frozen_band_is_identity(inverse):
    profile = geometry2d.weierstrass_profile(terms=20)
    config = sandwich_config(profile)
    rng = np.random.default_rng(21)
    u = diskmap.RAMP_LO * config.delta / np.pi * rng.uniform(0.0, 1.0, 300)
    z = np.sqrt(u) * np.exp(1j * rng.uniform(0.0, TWO_PI, 300))
    w = diskmap.cutoff_disk_map(profile, config, z, inverse=inverse)
    assert np.array_equal(w, z)


@pytest.mark.parametrize("name", ["weierstrass", "square", "cosine"])
def test_cutoff_map_takes_a_per_point_inverse_mask(name):
    """Each point of a masked call equals its scalar-flag call, bit for bit,
    in all three bands; the points and mask are 2-d."""
    profile = preset_profiles()[name]
    config = sandwich_config(profile)
    rng = np.random.default_rng(22)
    u = 2.0 * config.delta / np.pi * rng.uniform(0.0, 1.0, (3, 40))
    z = np.sqrt(u) * np.exp(1j * rng.uniform(0.0, TWO_PI, u.shape))
    inverse = rng.random(u.shape) < 0.5
    _, ramp = reference_bands(profile, config, z, inverse)
    assert 0 < np.count_nonzero(ramp) < ramp.size
    w = diskmap.cutoff_disk_map(profile, config, z, inverse=inverse)
    expected = [diskmap.cutoff_disk_map(profile, config, p, inverse=back)
                for p, back in zip(z.ravel(), inverse.ravel())]
    np.testing.assert_array_equal(w, np.reshape(expected, z.shape))


@pytest.mark.parametrize("inverse", [False, True])
@pytest.mark.parametrize("name", [*sandwich_factors(), "cosine"])
def test_trajectories_from_exact_threshold_stay_where_rho_is_one(name,
                                                                 inverse):
    """RK4 at 512 steps from l* and from (1 + 1e-3) l* never enters the
    ramp. On the cubic cosine profile, where RK4 converges, the end point
    is also psi (psi^-1 backwards): the lemma sandwich_bound rests on."""
    profile = {**sandwich_factors(),
               "cosine": geometry2d.cosine_profile(np.pi)}[name]
    config = sandwich_config(profile)
    theta = np.linspace(0.0, TWO_PI, 720, endpoint=False)
    lev2 = exact_threshold(profile, config) * np.array([[1.0], [1.0 + 1e-3]])
    start = level_points(profile, lev2, theta, inverse).ravel()
    steps = 512
    dt = -1.0 / steps if inverse else 1.0 / steps
    t = 1.0 if inverse else 0.0
    z = start
    lowest = np.min(np.abs(z) ** 2)
    field = library_field(profile, config, z.size)
    for _ in range(steps):
        k1 = field(z, t)
        k2 = field(z + 0.5 * dt * k1, t + 0.5 * dt)
        k3 = field(z + 0.5 * dt * k2, t + 0.5 * dt)
        k4 = field(z + dt * k3, t + dt)
        z = z + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += dt
        lowest = min(lowest, np.min(np.abs(z) ** 2))
    assert lowest >= diskmap.RAMP_HI * config.delta / np.pi * (1.0 - 1e-12)
    if name == "cosine":
        closed_form = (diskmap.domain_to_disk if inverse
                       else diskmap.disk_to_domain)
        assert np.max(np.abs(z - closed_form(profile, start))) <= 1e-13


@pytest.mark.parametrize("inverse", [False, True])
@pytest.mark.parametrize("name", list(sandwich_factors()))
def test_map_is_continuous_across_exact_threshold(name, inverse):
    """Just above (psi) and just below (RK4) the threshold, the map agrees
    with RK4 at 1024 steps to the first-order error 0.2 / steps of each."""
    profile = sandwich_factors()[name]
    config = sandwich_config(profile)
    theta = np.linspace(0.0, TWO_PI, 360, endpoint=False)
    lev2 = exact_threshold(profile, config)
    for factor in (1.0 + 1e-3, 1.0 - 1e-3):
        z = level_points(profile, factor * lev2, theta, inverse)
        w = diskmap.cutoff_disk_map(profile, config, z, inverse=inverse)
        ref = diskmap._rk4([profile], [config.delta], 1024, 0, z, inverse)
        assert np.max(np.abs(w - ref)) <= 0.2 / config.steps + 0.2 / 1024


def random_profile(seed, interpolation, n=64):
    rng = np.random.default_rng(seed)
    return geometry2d.RadialProfile(1.0 + 0.3 * rng.random(n), interpolation)


def off_node(profile, theta, h):
    """theta moved off the grid nodes so [theta - h, theta + h] is smooth."""
    cell = TWO_PI / profile.N
    offset = np.mod(theta, cell)
    return theta - offset + np.clip(offset, 10.0 * h, cell - 10.0 * h)


def library_field(profile, config, size):
    """The library's cutoff field of one factor on ``size`` points."""
    table = diskmap._cell_table([profile], [config.delta],
                                np.zeros(size, dtype=np.int64))
    return lambda z, t: diskmap._cutoff_velocity(table, z,
                                                 diskmap._stage(table, t))


def library_contact_hamiltonian(profile, theta, t):
    """f_t and its derivative, read off the library field where rho = 1.

    There the field is (pi/a) z (2i f - f'), so f and f' are the parts of
    velocity / z.
    """
    config = diskmap.CutoffMapConfig(delta=0.1)
    z = np.exp(1j * np.atleast_1d(theta))
    ratio = library_field(profile, config, z.size)(z, t) / z
    return (ratio.imag * profile.area / TWO_PI,
            -ratio.real * profile.area / np.pi)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       interpolation=st.sampled_from(["linear", "cubic"]),
       theta=st.floats(0.0, TWO_PI, exclude_max=True),
       t=st.floats(0.0, 1.0))
def test_analytic_derivatives_match_central_differences(seed, interpolation,
                                                        theta, t):
    profile = random_profile(seed, interpolation)
    h = 1e-6
    theta = off_node(profile, theta, h)
    central = (profile.radius(theta + h) - profile.radius(theta - h)) / (2 * h)
    assert profile.radius_derivative(theta) == pytest.approx(
        central, rel=1e-6, abs=1e-6)

    def f(th):
        return library_contact_hamiltonian(profile, th, t)[0]

    central = (f(theta + h) - f(theta - h)) / (2 * h)
    assert library_contact_hamiltonian(profile, theta, t)[1] == \
        pytest.approx(central, rel=1e-6, abs=1e-6)


# -- the reference field: the per-profile evaluation the kernel replaced ----

def reference_contact_hamiltonian(profile, theta, t):
    """f_t on the circle for the interpolated isotopy, plus its derivative.

    The isotopy interpolates cumulative sector areas linearly,
    S_t = (1 - t) S_disk + t S, and f_t = -(a/2pi)(S - S_disk)/S_t', with
    S_t' = (1 - t) a/2pi + t R^2/2. The derivative is analytic: with
    num = S - (a/2pi) theta and den = S_t', num' = R^2/2 - a/2pi and
    den' = t R R'.
    """
    rate = profile.area / TWO_PI
    r = profile.radius(theta)
    half_r2 = 0.5 * r * r
    num = profile.sector_area(theta) - rate * theta
    den = (1.0 - t) * rate + t * half_r2
    val = -rate * num / den
    deriv = -rate * ((half_r2 - rate) * den -
                     num * t * r * profile.radius_derivative(theta)) / den ** 2
    return val, deriv


def reference_rho(config, u):
    """Quintic smoothstep cutoff rho(u) and d rho / du in u = |z|^2."""
    span = (diskmap.RAMP_HI - diskmap.RAMP_LO) * config.delta / np.pi
    x = np.minimum(np.maximum(
        (u - diskmap.RAMP_LO * config.delta / np.pi) / span, 0.0), 1.0)
    return (x ** 3 * (10.0 + x * (-15.0 + 6.0 * x)),
            30.0 * (x * (1.0 - x)) ** 2 / span)


def reference_velocity(profile, config, z, t):
    """Hamiltonian vector field of rho(|z|^2) f_t(arg z) pi |z|^2 / a."""
    u = z.real ** 2 + z.imag ** 2
    rho, rho_d = reference_rho(config, u)
    f, fd = reference_contact_hamiltonian(profile,
                                          np.mod(np.angle(z), TWO_PI), t)
    scale = np.pi / profile.area
    return scale * (2.0 * (rho_d * u + rho) * f * 1j * z - rho * fd * z)


def test_wrap_angle_is_np_mod_bit_for_bit():
    """The field's angle wrap equals np.mod(arctan2, 2 pi) bit for bit on
    signed zeros, the smallest subnormal, NaN parts and random points."""
    y = [0.0, -0.0, 0.0, -0.0, 0.0, -0.0, 5e-324, -5e-324, 5e-324, -5e-324,
         np.nan, 1.0, np.nan, -np.nan]
    x = [0.0, 0.0, -0.0, -0.0, -1.0, -1.0, 1.0, 1.0, -1.0, -1.0,
         1.0, np.nan, np.nan, -1.0]
    rng = np.random.default_rng(32)
    y = np.concatenate([y, rng.normal(size=10 ** 5)])
    x = np.concatenate([x, rng.normal(size=10 ** 5)])
    theta = np.arctan2(y, x)
    np.testing.assert_array_equal(diskmap._wrap_angle(theta).view(np.int64),
                                  np.mod(theta, TWO_PI).view(np.int64))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(16, 511),
       interpolation=st.sampled_from(["linear", "cubic"]))
def test_field_matches_reference_field(seed, n, interpolation):
    """One cell lookup per point gives the per-profile field's values."""
    profile = random_profile(seed, interpolation, n)
    config = diskmap.CutoffMapConfig(delta=0.5 * profile.area)
    rng = np.random.default_rng(seed)
    u = config.delta / np.pi * rng.uniform(0.0, 1.2, 300)
    z = np.sqrt(u) * np.exp(1j * rng.uniform(-np.pi, np.pi, 300))
    t = rng.uniform(0.0, 1.0, 300)
    ref = reference_velocity(profile, config, z, t)
    got = library_field(profile, config, z.size)(z, t)
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_sandwich_report_counts_and_certificate():
    factors = list(sandwich_factors().values())
    report = diskmap.sandwich_check(factors, epsilon=0.05, samples=2000,
                                    seed=12, steps=64)
    assert report.closed_form + report.integrated == 2 * 2 * 2000
    assert 0 < report.integrated < 0.1 * report.closed_form
    assert report.passed
    assert report.outer_bound <= 1.05 and report.inner_bound <= 1.0
    assert report.worst_outer_gauge <= report.outer_bound
    assert report.worst_inner_gauge <= report.inner_bound


def rectangle(width, height):
    x, y = width / 2.0, height / 2.0
    return geometry2d.polygon_profile([(x, y), (-x, y), (-x, -y), (x, -y)])


def bound_products():
    """The products whose closed-form bounds were worked out by hand."""
    weier, square = sandwich_factors().values()
    return {"weierstrass-square": [weier, square],
            "rectangle(2x0.2)-squared": [rectangle(2.0, 0.2)] * 2,
            "rectangle(2x0.1)-weierstrass-square": [rectangle(2.0, 0.1),
                                                    weier, square],
            "weierstrass(0.4,b=4)-disk(36)": [
                geometry2d.weierstrass_profile(amplitude=0.4, b=4.0),
                geometry2d.disk_profile(36.0)],
            "weierstrass-square-disk(2)": [weier, square,
                                           geometry2d.disk_profile(2.0)],
            "four-weierstrass": [weier] * 4}


@pytest.mark.parametrize("name,outer,inner", [
    ("weierstrass-square", 1.01185, 0.96372),
    ("weierstrass(0.4,b=4)-disk(36)", 1.02468, 0.97656),
    ("rectangle(2x0.2)-squared", 1.04199, 0.99511),
    ("rectangle(2x0.1)-weierstrass-square", 1.02214, 0.97430),
    ("weierstrass-square-disk(2)", 1.01032, 0.96170),
    ("four-weierstrass", 1.01346, 0.96530)])
def test_sandwich_bound_values(name, outer, inner):
    """sqrt(1 + sum eta_out) and sqrt((1-eps)^2 + sum eta_in) at eps = 0.05,
    against the values computed by hand from the per-factor formulas."""
    bound = diskmap.sandwich_bound(bound_products()[name], 0.05)
    assert bound.outer_bound == pytest.approx(outer, rel=0.0, abs=1e-5)
    assert bound.inner_bound == pytest.approx(inner, rel=0.0, abs=1e-5)


@pytest.mark.parametrize("name", ["weierstrass-square-disk(2)",
                                  "four-weierstrass"])
def test_sandwich_check_passes_on_three_and_four_factors(name):
    """20,000 samples within 2 s: E is sampled without rejection."""
    factors = bound_products()[name]
    start = time.perf_counter()
    report = diskmap.sandwich_check(factors, epsilon=0.05, samples=20000,
                                    seed=14, steps=64)
    elapsed = time.perf_counter() - start
    assert report.integrated > 0
    assert report.violations_outer == report.violations_inner == 0
    assert report.worst_outer_gauge <= report.outer_bound
    assert report.worst_inner_gauge <= report.inner_bound
    assert report.passed
    assert elapsed < 2.0, f"{elapsed:.2f} s"


@pytest.mark.parametrize("name,seed", [
    ("rectangle(2x0.2)-squared", 5), ("rectangle(2x0.2)-squared", 14),
    ("rectangle(2x0.2)-squared", 21),
    ("rectangle(2x0.1)-weierstrass-square", 5)])
def test_sandwich_check_passes_on_eccentric_factors(name, seed):
    """A thin rectangle's k_min is 12.7 at 2 x 0.2: delta from the bound
    keeps its excesses within the sandwich, at 20,000 samples."""
    report = diskmap.sandwich_check(bound_products()[name], epsilon=0.05,
                                    samples=20000, seed=seed, steps=64)
    assert report.integrated > 0
    assert report.violations_outer == report.violations_inner == 0
    assert report.worst_outer_gauge <= report.outer_bound <= 1.05
    assert report.worst_inner_gauge <= report.inner_bound <= 1.0
    assert report.passed


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       sizes=st.lists(st.integers(16, 511), min_size=1, max_size=4),
       epsilon=st.floats(0.001, 0.5))
def test_sandwich_bound_passes_for_any_linear_factors(seed, sizes, epsilon):
    """delta from the bound proves the sandwich for any star-shaped
    factors; the construction's own delta is never exceeded."""
    rng = np.random.default_rng(seed)
    factors = [geometry2d.RadialProfile(rng.uniform(0.02, 2.0, n), "linear")
               for n in sizes]
    bound = diskmap.sandwich_bound(factors, epsilon)
    assert bound.outer_bound <= 1.0 + epsilon
    assert bound.inner_bound <= 1.0
    eps_prime = 0.9 * np.sqrt(epsilon / len(factors))
    for f, delta in zip(factors, bound.deltas):
        assert delta <= 0.9 * f.area * eps_prime ** 2


@pytest.mark.parametrize("name", [*preset_profiles(), "disk(2)", "disk(36)",
                                  "cubic-disk(1)"])
def test_sandwich_delta_is_the_construction_level_on_round_factors(name):
    """0.9 a eps'^2 with eps' = 0.9 sqrt(eps/n), for eps in [0.001, 0.9]
    and n in 1..4: the bound's delta is larger on these factors."""
    profile = {**preset_profiles(),
               "disk(2)": geometry2d.disk_profile(2.0),
               "disk(36)": geometry2d.disk_profile(36.0),
               "cubic-disk(1)": geometry2d.disk_profile(
                   1.0, interpolation="cubic")}[name]
    for n in (1, 2, 3, 4):
        for eps in np.geomspace(0.001, 0.9, 25):
            eps_prime = 0.9 * np.sqrt(eps / n)
            assert diskmap.sandwich_delta(profile, eps, n) == \
                0.9 * profile.area * eps_prime ** 2


def test_sandwich_delta_from_the_bound_on_an_eccentric_factor():
    """W(0.4, b=4) has k_min 8.1: at eps = 0.05 in a pair, its delta halves
    from 0.0648."""
    profile = geometry2d.weierstrass_profile(amplitude=0.4, b=4.0)
    assert diskmap.sandwich_delta(profile, 0.05, 2) == pytest.approx(
        0.032757, abs=1e-6)


# -- the one-loop sandwich against the frozen per-direction path ----------

def reference_rk4(profile, config, z, inverse, steps):
    """RK4 of one group: one direction, one step count, scalar t and dt."""
    dt = -1.0 / steps if inverse else 1.0 / steps
    t = 1.0 if inverse else 0.0
    for _ in range(steps):
        k1 = reference_velocity(profile, config, z, t)
        k2 = reference_velocity(profile, config, z + 0.5 * dt * k1,
                                t + 0.5 * dt)
        k3 = reference_velocity(profile, config, z + 0.5 * dt * k2,
                                t + 0.5 * dt)
        k4 = reference_velocity(profile, config, z + dt * k3, t + dt)
        z = z + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += dt
    return z


def reference_bands(profile, config, z, inverse):
    """The exact and ramp bands of z, from l* and RAMP_LO alone.

    lev^2 is pi|z|^2/a forwards and gauge^2 backwards; the exact band is
    lev^2 >= l*, the frozen band pi|z|^2 <= RAMP_LO delta.
    """
    pi_u = np.pi * np.abs(z) ** 2
    lev2 = np.where(inverse, profile.gauge(z) ** 2, pi_u / profile.area)
    exact = lev2 >= diskmap._exact_level(profile, config.delta)
    return exact, ~exact & (pi_u > diskmap.RAMP_LO * config.delta)


def reference_map_and_gauge(factors, configs, pts, inverse, gauge_fn):
    """Per-direction banded maps, each factor's ramp by its own RK4 run."""
    closed_form = diskmap.domain_to_disk if inverse else diskmap.disk_to_domain
    image = pts.copy()
    ramps = np.empty(pts.shape, dtype=bool)
    for i, (f, cfg) in enumerate(zip(factors, configs)):
        exact, ramps[:, i] = reference_bands(f, cfg, pts[:, i], inverse)
        if np.any(exact):
            image[exact, i] = closed_form(f, pts[exact, i])
        ramp = ramps[:, i]
        if np.any(ramp):
            image[ramp, i] = reference_rk4(f, cfg, pts[ramp, i], inverse,
                                           cfg.steps)
    return gauge_fn(image), ramps


def reference_sandwich_check(factors, epsilon, samples, seed, steps):
    """sandwich_check with one RK4 run per factor and direction.

    Same rng draws, bands and gauges as the library's one-loop check, so
    the two reports must agree exactly; the bounds are sandwich_bound's.
    Also returns the ramp masks of the outer and inner samples.
    """
    domain = product.two_product(factors)
    factors = domain.factors
    n = len(factors)
    areas = np.array(domain.factor_areas)
    deltas = [diskmap.sandwich_delta(f, epsilon, n) for f in factors]
    configs = [diskmap.CutoffMapConfig(delta=d, steps=steps) for d in deltas]
    def ellipsoid_gauge(z):
        return np.sqrt(product.ellipsoid_level(areas, z))

    bound = diskmap.sandwich_bound(factors, epsilon)
    rng = np.random.default_rng(seed)
    source = product.ellipsoid_sample(rng, areas, samples)
    outer, outer_ramps = reference_map_and_gauge(
        factors, configs, source, False, domain.gauge)
    target = (1.0 - epsilon) * diskmap.product_map(
        factors, product.ellipsoid_sample(rng, areas, samples))
    inner, inner_ramps = reference_map_and_gauge(
        factors, configs, target, True, ellipsoid_gauge)
    outer_bad, inner_bad = outer > 1.0 + epsilon, inner > 1.0
    offenders = (
        [("outer", source[i], float(outer[i]))
         for i in np.flatnonzero(outer_bad)[:5]] +
        [("inner", target[i], float(inner[i]))
         for i in np.flatnonzero(inner_bad)[:5]])
    integrated = int(np.count_nonzero(outer_ramps) +
                     np.count_nonzero(inner_ramps))
    report = diskmap.SandwichReport(
        epsilon=epsilon, samples=samples, seed=seed, deltas=deltas,
        violations_outer=int(np.count_nonzero(outer_bad)),
        violations_inner=int(np.count_nonzero(inner_bad)),
        worst_outer_gauge=float(np.max(outer)),
        worst_inner_gauge=float(np.max(inner)),
        closed_form=2 * n * samples - integrated, integrated=integrated,
        outer_bound=bound.outer_bound, inner_bound=bound.inner_bound,
        offenders=offenders)
    return report, outer_ramps, inner_ramps


def cubic_cosine_disk():
    return [geometry2d.cosine_profile(np.pi),
            geometry2d.disk_profile(1.0, interpolation="cubic")]


SANDWICH_PAIRS = {"weierstrass-square":
                  lambda: list(sandwich_factors().values()),
                  "cubic-cosine-disk": cubic_cosine_disk,
                  "weierstrass-square-cubic-disk":
                  lambda: [*sandwich_factors().values(),
                           geometry2d.disk_profile(2.0,
                                                   interpolation="cubic")]}


# Report fields that the kernel's rounding may move, by at most 1e-12.
GAUGE_FIELDS = ("worst_outer_gauge", "worst_inner_gauge")


def assert_same_report(report, ref):
    """Counts, violations and offenders equal; gauges within 1e-12."""
    for name in (f.name for f in dataclasses.fields(ref)):
        if name in GAUGE_FIELDS:
            assert getattr(report, name) == pytest.approx(
                getattr(ref, name), rel=0.0, abs=1e-12), name
        elif name != "offenders":
            assert getattr(report, name) == getattr(ref, name), name
    assert len(report.offenders) == len(ref.offenders)
    for (side, point, gauge), (ref_side, ref_point, ref_gauge) in zip(
            report.offenders, ref.offenders):
        assert side == ref_side
        assert gauge == pytest.approx(ref_gauge, rel=0.0, abs=1e-12)
        np.testing.assert_array_equal(point, ref_point)


@pytest.mark.parametrize("pair,seed,steps", [
    ("weierstrass-square", 1, 64), ("weierstrass-square", 3, 64),
    ("weierstrass-square", 9, 64), ("weierstrass-square", 77, 64),
    ("cubic-cosine-disk", 3, 64), ("weierstrass-square", 4, 9),
    ("cubic-cosine-disk", 103, 9), ("weierstrass-square-cubic-disk", 5, 64),
    ("weierstrass-square-cubic-disk", 6, 9)])
def test_one_loop_sandwich_matches_per_direction_path(pair, seed, steps):
    factors = SANDWICH_PAIRS[pair]()
    ref, _, _ = reference_sandwich_check(factors, 0.05, 500, seed, steps)
    assert_same_report(
        diskmap.sandwich_check(factors, 0.05, 500, seed, steps), ref)


def test_one_loop_sandwich_with_an_empty_direction():
    """Seed 139 puts no outer coordinate of the disk factor in its ramp."""
    factors = cubic_cosine_disk()
    ref, outer_ramps, inner_ramps = reference_sandwich_check(
        factors, 0.05, 300, 139, 64)
    assert not np.any(outer_ramps[:, 1]) and np.any(inner_ramps[:, 1])
    assert_same_report(diskmap.sandwich_check(factors, 0.05, 300, 139, 64),
                       ref)


def test_one_loop_sandwich_offenders_match(monkeypatch):
    """A field shifted by a constant pushes ramp points out both ways."""
    field = diskmap._cutoff_velocity
    monkeypatch.setattr(diskmap, "_cutoff_velocity",
                        lambda *args: field(*args) + 5.0)
    monkeypatch.setitem(globals(), "reference_velocity",
                        lambda *args, ref=reference_velocity: ref(*args) + 5.0)
    factors = SANDWICH_PAIRS["weierstrass-square"]()
    ref, _, _ = reference_sandwich_check(factors, 0.05, 300, 1, 9)
    assert ref.violations_outer > 0 and ref.violations_inner > 0
    assert_same_report(diskmap.sandwich_check(factors, 0.05, 300, 1, 9), ref)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n_factors=st.integers(1, 3),
       sizes=st.lists(st.integers(16, 511), min_size=3, max_size=3),
       cubic=st.lists(st.booleans(), min_size=3, max_size=3),
       size=st.integers(0, 24), steps=st.integers(8, 17))
def test_batched_rk4_matches_each_group_alone(seed, n_factors, sizes, cubic,
                                              size, steps):
    """Points of 1-3 factors and both directions, in one stacked call: each
    equals its one-factor run, and cutoff_disk_map's ramp, bit for bit."""
    rng = np.random.default_rng(seed)
    try:
        factors = [geometry2d.RadialProfile(
            rng.uniform(0.5, 1.5, size), "cubic" if c else "linear")
            for size, c in zip(sizes[:n_factors], cubic)]
    except ValueError:
        reject()  # cubic overshoot below zero
    deltas = [diskmap.sandwich_delta(f, 0.05, n_factors) for f in factors]
    which = rng.integers(0, n_factors, size)
    u = np.array(deltas)[which] / np.pi * rng.uniform(0.0, 1.0, size)
    z = np.sqrt(u) * np.exp(1j * rng.uniform(0.0, TWO_PI, size))
    inverse = rng.random(size) < 0.5
    out = diskmap._rk4(factors, deltas, steps, which, z, inverse)
    for i, (f, delta) in enumerate(zip(factors, deltas)):
        for back in (False, True):
            group = (which == i) & (inverse == back)
            alone = diskmap._rk4([f], [delta], steps, 0, z[group], back)
            np.testing.assert_array_equal(out[group], alone)
            w, ramp = diskmap.cutoff_product_map([f], [delta], steps,
                                                 z[group, None], back)
            np.testing.assert_array_equal(w[ramp], alone[ramp[:, 0]])


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n_factors=st.integers(1, 3),
       sizes=st.lists(st.integers(16, 511), min_size=3, max_size=3),
       cubic=st.lists(st.booleans(), min_size=3, max_size=3),
       rows=st.integers(1, 24), steps=st.integers(8, 17))
def test_product_map_is_the_factor_maps_side_by_side(seed, n_factors, sizes,
                                                     cubic, rows, steps):
    """Each column of cutoff_product_map is cutoff_disk_map of its factor,
    bit for bit, with rows of both directions; each ramp column is the
    reference ramp band of that factor."""
    rng = np.random.default_rng(seed)
    try:
        factors = [geometry2d.RadialProfile(
            rng.uniform(0.5, 1.5, size), "cubic" if c else "linear")
            for size, c in zip(sizes[:n_factors], cubic)]
    except ValueError:
        reject()  # cubic overshoot below zero
    configs = [diskmap.CutoffMapConfig(
        delta=diskmap.sandwich_delta(f, 0.05, n_factors), steps=steps)
        for f in factors]
    delta = np.array([c.delta for c in configs])
    u = delta / np.pi * rng.uniform(0.0, 4.0, (rows, n_factors))
    z = np.sqrt(u) * np.exp(1j * rng.uniform(0.0, TWO_PI, u.shape))
    inverse = rng.random(rows) < 0.5
    image, ramp = diskmap.cutoff_product_map(
        factors, [c.delta for c in configs], steps, z, inverse)
    for i, (f, cfg) in enumerate(zip(factors, configs)):
        np.testing.assert_array_equal(
            image[:, i], diskmap.cutoff_disk_map(f, cfg, z[:, i], inverse))
        np.testing.assert_array_equal(
            ramp[:, i], reference_bands(f, cfg, z[:, i], inverse)[1])


@pytest.mark.parametrize("n_deltas,width,match", [
    (1, 2, "got 1 and"), (2, 3, "got 2 and"), (2, 0, "got 2 and")],
    ids=["one-config", "three-coordinates", "scalar"])
def test_product_map_rejects_mismatched_configs(n_deltas, width, match):
    """One cutoff level and one coordinate per factor."""
    factors = list(sandwich_factors().values())
    z = np.zeros((1, width)) if width else 0.0
    with pytest.raises(ValueError, match=match):
        diskmap.cutoff_product_map(factors, [0.1] * n_deltas, 64, z)


@pytest.mark.parametrize("steps", [64, 9])
def test_sandwich_check_evaluates_field_four_times_per_step(monkeypatch,
                                                            steps):
    """One RK4 loop covers every factor, both directions and step counts."""
    calls = []
    field = diskmap._cutoff_velocity

    def counted(*args):
        calls.append(1)
        return field(*args)

    monkeypatch.setattr(diskmap, "_cutoff_velocity", counted)
    stack = SANDWICH_PAIRS["weierstrass-square-cubic-disk"]()
    for n_factors in (1, 2, 3):
        calls.clear()
        report = diskmap.sandwich_check(stack[:n_factors], 0.05, 300, 1, steps)
        assert report.integrated > 0
        assert len(calls) == 4 * steps, n_factors
    deltas = [diskmap.sandwich_delta(f, 0.05, 2) for f in stack]
    rng = np.random.default_rng(2)
    u = rng.uniform(0.0, 1.0, (200, 3)) * [d / np.pi for d in deltas]
    z = np.sqrt(u) * np.exp(1j * rng.uniform(0.0, TWO_PI, u.shape))
    calls.clear()
    _, ramp = diskmap.cutoff_product_map(stack, deltas, steps, z,
                                         np.arange(200) % 2 == 1)
    assert np.all(np.any(ramp[0::2], axis=0) & np.any(ramp[1::2], axis=0))
    assert len(calls) == 4 * steps
