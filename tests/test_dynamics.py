"""Characteristic flow, Reeb conjugacy, periods, foliation."""

import collections
import sys

import numpy as np
import pytest
from hypothesis import given, reject, settings, strategies as st

from symprod import diskmap, dynamics, geometry2d, product
from symprod.dynamics import FlowPoint
from symprod.geometry2d import RadialProfile, TWO_PI
from symprod.selftest import (_preset_profiles as preset_profiles,
                              _standard_factors)


def hamiltonian_flow_ode(profile, z0, t_final, steps):
    """RK4 integration of the gauge-squared Hamiltonian field (validation).

    The vector field i * grad H with H = gauge^2 is evaluated by central
    differences of the gauge; used only to cross-check the closed-form
    sector-area flow on C^1 profiles.
    """
    h = 1e-6 * np.sqrt(profile.area / np.pi)

    def velocity(z):
        z = np.atleast_1d(z)
        gx = (profile.gauge(z + h) ** 2 - profile.gauge(z - h) ** 2) / (2 * h)
        gy = (profile.gauge(z + 1j * h) ** 2 -
              profile.gauge(z - 1j * h) ** 2) / (2 * h)
        return 1j * (gx + 1j * gy)

    state = np.atleast_1d(np.asarray(z0, dtype=complex))
    dt = t_final / steps
    for _ in range(steps):
        k1 = velocity(state)
        k2 = velocity(state + 0.5 * dt * k1)
        k3 = velocity(state + 0.5 * dt * k2)
        k4 = velocity(state + dt * k3)
        state = state + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return state if np.asarray(z0).ndim else complex(state[0])


def test_flow_advances_sector_area_at_unit_rate():
    """Oracle: S(arg Phi^t z) - S(arg z) == t (mod area)."""
    profile = geometry2d.weierstrass_profile(terms=20)
    rng = np.random.default_rng(0)
    theta0 = rng.uniform(0.0, TWO_PI, 100)
    z0 = profile.boundary_point(theta0)
    for t in (0.1, 0.7, 2.3):
        z1 = dynamics.char_flow_2d(profile, z0, t)
        ds = profile.sector_area(np.angle(z1)) - \
            profile.sector_area(np.angle(z0))
        ds = np.mod(ds, profile.area)
        expected = t % profile.area
        assert np.allclose(ds, expected, atol=1e-9)


@pytest.mark.parametrize("name", ["disk", "cosine", "square", "weierstrass"])
def test_period_equals_area(name):
    profile = preset_profiles()[name]
    rng = np.random.default_rng(1)
    z = profile.boundary_point(rng.uniform(0.0, TWO_PI, 20))
    back = dynamics.char_flow_2d(profile, z, profile.area)
    assert np.max(np.abs(back - z)) < 1e-8


def test_flow_group_law():
    profile = geometry2d.cosine_profile(np.pi)
    rng = np.random.default_rng(2)
    z = profile.boundary_point(rng.uniform(0.0, TWO_PI, 50)) * 0.8
    s, t = 0.37, 1.21
    once = dynamics.char_flow_2d(profile, z, s + t)
    twice = dynamics.char_flow_2d(profile,
                                  dynamics.char_flow_2d(profile, z, s), t)
    assert np.max(np.abs(once - twice)) < 1e-10


def test_flow_preserves_gauge():
    profile = geometry2d.weierstrass_profile(terms=20)
    rng = np.random.default_rng(3)
    z = profile.boundary_point(rng.uniform(0.0, TWO_PI, 50)) * 0.6
    g0 = profile.gauge(z)
    g1 = profile.gauge(dynamics.char_flow_2d(profile, z, 0.9))
    assert np.max(np.abs(g1 - g0)) < 1e-12


def test_flow_matches_hamiltonian_ode():
    """Cross-check the closed form against direct RK4 of i grad(g^2)."""
    profile = geometry2d.cosine_profile(np.pi)
    z0 = profile.boundary_point(np.array([0.4]))[0]
    t_final = 0.5
    ode = hamiltonian_flow_ode(profile, z0, t_final, steps=4000)
    closed = dynamics.char_flow_2d(profile, z0, t_final)
    assert abs(ode - closed) < 1e-4


def test_reeb_flow_rotation():
    areas = [1.0, 2.0]
    z = np.array([0.3 + 0.1j, 0.2 - 0.4j])
    out = dynamics.reeb_ellipsoid(areas, z, 0.5)
    expected = z * np.exp(2j * np.pi * 0.5 / np.array(areas))
    assert np.allclose(out, expected, atol=1e-14)
    # period of the first factor
    assert np.allclose(dynamics.reeb_ellipsoid(areas, z, 1.0)[0], z[0],
                       atol=1e-14)


def test_conjugacy_residual_is_tiny():
    factors = list(_standard_factors())
    residuals = dynamics.sample_conjugacy_residuals(factors, 100, seed=4)
    assert residuals.shape == (100,)
    assert np.max(residuals) < 1e-8


def test_conjugacy_residual_batched_matches_per_point():
    """One call on 50 points equals 50 one-point calls, bit for bit.

    The benchmark's closed_form workload makes the one-point calls and
    selftest the batched one; both must report the same residuals.
    """
    factors = list(_standard_factors())
    areas = np.array([f.area for f in factors])
    seed = 6
    batched = dynamics.sample_conjugacy_residuals(factors, 50, seed)
    # The same draws, in the same order, as sample_conjugacy_residuals.
    rng = np.random.default_rng(seed)
    z = product.ellipsoid_sample(rng, areas, 50)
    z = z / np.sqrt(product.ellipsoid_level(areas, z))[:, None]
    times = rng.uniform(-2.0, 2.0, 50) * float(np.max(areas))
    per_point = [dynamics.conjugacy_residual(factors, z[j], times[j])
                 for j in range(50)]
    np.testing.assert_array_equal(batched, per_point)


def test_conjugacy_residual_maps_once(monkeypatch):
    """One call applies psi to Reeb^t z and to z in one product_map call."""
    factors = list(_standard_factors())
    calls = []
    product_map = dynamics.product_map

    def spy(fs, z):
        calls.append(np.shape(z))
        return product_map(fs, z)

    monkeypatch.setattr(dynamics, "product_map", spy)
    z = np.sqrt([f.area / TWO_PI for f in factors]) * np.exp([0.4j, 2.5j])
    assert dynamics.conjugacy_residual(factors, z, 0.7) < 1e-8
    assert calls == [(2, 2)]


def test_conjugacy_residual_rejects_interior_point():
    factors = [geometry2d.disk_profile(1.0), geometry2d.disk_profile(1.0)]
    z = np.array([0.1 + 0.0j, 0.1 + 0.0j])  # strictly inside E(1, 1)
    with pytest.raises(ValueError):
        dynamics.conjugacy_residual(factors, z, 0.3)


def test_conjugacy_residual_rejects_nan_point():
    """NaN fails the boundary test instead of passing it unnoticed."""
    factors = [geometry2d.disk_profile(1.0), geometry2d.disk_profile(1.0)]
    on = np.sqrt(0.5 / np.pi)
    with pytest.raises(ValueError, match="boundary"):
        dynamics.conjugacy_residual(factors, [complex(np.nan, 0.0), on], 0.3)
    batch = np.full((3, 2), on, dtype=complex)
    batch[1, 1] = complex(0.0, np.nan)
    with pytest.raises(ValueError, match="boundary"):
        dynamics.conjugacy_residual(factors, batch, np.zeros(3))


@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
def test_conjugacy_residual_rejects_non_finite_time(t):
    factors = [geometry2d.disk_profile(1.0), geometry2d.disk_profile(1.0)]
    z = np.full(2, np.sqrt(0.5 / np.pi), dtype=complex)
    with pytest.raises(ValueError, match="finite"):
        dynamics.conjugacy_residual(factors, z, t)
    with pytest.raises(ValueError, match="finite"):
        dynamics.conjugacy_residual(factors, np.stack([z, z]), [0.3, t])


# Python-level frames of one one-point conjugacy_residual call on W x square,
# 37 measured with numpy 2.4 (38 while the residual stacked Phi^t with
# factorwise and summed with .sum, 52 while psi and Phi^t read R by a second
# radius lookup after S^-1, 204 while the path called numpy's Python
# wrappers np.clip, np.take, np.searchsorted, np.angle, np.atleast_1d and
# np.stack); one such wrapper or radius call put back on the path exceeds
# the bound.
CONJUGACY_CALL_FRAMES = 41


def test_one_point_conjugacy_call_budget():
    """Count the profiler's call events: deterministic, unlike a timing."""
    factors = list(_standard_factors())
    areas = np.array([f.area for f in factors])
    z = np.sqrt(np.array([0.3, 0.7]) * areas / np.pi) * np.exp(
        1j * np.array([0.4, 2.9]))
    dynamics.conjugacy_residual(factors, z, 0.7)
    frames = collections.Counter()

    def count(frame, event, arg):
        if event == "call":
            frames[f"{frame.f_code.co_filename}:{frame.f_code.co_name}"] += 1

    sys.setprofile(count)
    try:
        dynamics.conjugacy_residual(factors, z, 0.7)
    finally:
        sys.setprofile(None)
    assert sum(frames.values()) <= CONJUGACY_CALL_FRAMES, frames.most_common()


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(16, 511),
       interpolation=st.sampled_from(["linear", "cubic"]))
def test_char_flow_shared_lookup_is_bit_identical(seed, n, interpolation):
    """char_flow_2d equals its composition from the profile's primitives.

    The reference reads gauge(z), then theta and R at S^-1(S(arg z) + t)
    from inverse_sector_area_and_radius, and gauge(z) R e^{i theta} with
    theta reduced mod 2 pi: separate lookups where char_flow_2d shares one
    for R and S at arg z. Points lie at random angles, at the
    origin, at arg z = +-pi and near cell edges, and some times carry them
    onto cell edges; arrays and one-point calls agree to the bit.
    """
    rng = np.random.default_rng(seed)
    try:
        profile = RadialProfile(rng.uniform(0.2, 2.0, n), interpolation)
    except ValueError:
        reject()  # cubic overshoot below zero
    edges = rng.integers(0, n + 1, 20) * (TWO_PI / n)
    angles = np.concatenate((rng.uniform(-np.pi, np.pi, 40), edges,
                             np.nextafter(edges, -np.inf),
                             np.nextafter(edges, np.inf)))
    z = rng.uniform(0.1, 2.0, angles.size) * np.exp(1j * angles)
    z = np.concatenate((z, [0j, -1.0 + 0.0j, complex(-1.0, -0.0)]))
    t = rng.uniform(-3.0, 3.0, z.size) * profile.area
    t[:edges.size] = (profile.sector_area(edges)
                      - profile.sector_area(np.angle(z[:edges.size])))

    def reference(w, time):
        level = profile.gauge(w)
        theta, radius = profile.inverse_sector_area_and_radius(
            profile.sector_area(np.angle(w)) + time)
        theta = np.mod(theta, TWO_PI)
        out = level * radius * np.exp(1j * theta)
        return np.where(level == 0.0, 0.0 + 0.0j, out)

    def bits(x):
        return np.asarray(x, dtype=complex).tobytes()

    assert bits(dynamics.char_flow_2d(profile, z, t)) == bits(reference(z, t))
    for w, time in zip(z[::7], t[::7]):
        assert bits(dynamics.char_flow_2d(profile, w, time)) == bits(
            reference(w, time))


def test_orbit_period_single_active_factor():
    factors = [geometry2d.disk_profile(1.0), geometry2d.disk_profile(1.5)]
    point = FlowPoint(angles=[0.2, 0.0], levels=[1.0, 0.0])
    assert dynamics.orbit_period(factors, point) == pytest.approx(1.0)


@pytest.mark.parametrize("k", [1, 3])
def test_orbit_period_rejects_wrong_coordinate_count(k):
    factors = [geometry2d.disk_profile(1.0), geometry2d.disk_profile(1.5)]
    point = FlowPoint(angles=np.zeros(k), levels=np.full(k, np.sqrt(1 / k)))
    with pytest.raises(ValueError,
                       match=f"point has {k} coordinates, expected 2"):
        dynamics.orbit_period(factors, point)


@pytest.mark.parametrize("bound", [0, -5, 2.5, True])
def test_orbit_period_rejects_bad_denominator_bound(bound):
    factors = [geometry2d.disk_profile(1.0), geometry2d.disk_profile(1.5)]
    point = FlowPoint(angles=[0.0, 0.0], levels=np.sqrt([0.5, 0.5]))
    with pytest.raises(ValueError, match="denominator_bound"):
        dynamics.orbit_period(factors, point, denominator_bound=bound)


def test_orbit_period_exact_rational_areas():
    f1 = geometry2d.disk_profile(0.5)
    f2 = geometry2d.disk_profile(0.75)
    point = FlowPoint(angles=[0.0, 0.0], levels=np.sqrt([0.5, 0.5]))
    # lcm(1/2, 3/4) = 3/2
    assert dynamics.orbit_period([f1, f2], point) == pytest.approx(1.5)


def test_orbit_period_float_commensurable():
    factors = [geometry2d.disk_profile(1.0), geometry2d.disk_profile(0.25)]
    point = FlowPoint(angles=[0.0, 1.0], levels=np.sqrt([0.5, 0.5]))
    assert dynamics.orbit_period(factors, point) == pytest.approx(1.0)


def test_orbit_period_irrational_pair_returns_none():
    """Continued-fraction oracle: |k sqrt(2) - m| > 1e-4 for k <= 1000."""
    k = np.arange(1, 1001)
    frac = np.abs(k * np.sqrt(2.0) - np.round(k * np.sqrt(2.0)))
    assert frac.min() > 1e-4
    factors = [geometry2d.disk_profile(1.0),
               geometry2d.disk_profile(np.sqrt(2.0))]
    point = FlowPoint(angles=[0.3, 1.1], levels=np.sqrt([0.5, 0.5]))
    assert dynamics.orbit_period(factors, point,
                                 denominator_bound=1000) is None


def test_foliation_equal_areas():
    report = dynamics.is_foliated_by_systoles(
        [geometry2d.cosine_profile(1.0), geometry2d.disk_profile(1.0)],
        100, seed=5)
    assert report.passed
    assert report.worst_deviation < 1e-8


def test_foliation_rejects_zero_samples():
    """No sample checked is no pass: zero samples is a ValueError."""
    with pytest.raises(ValueError, match="sample count must be at least 1"):
        dynamics.is_foliated_by_systoles(
            [geometry2d.cosine_profile(1.0), geometry2d.disk_profile(1.0)],
            0, seed=5)


def test_foliation_rejects_unequal_areas():
    with pytest.raises(ValueError):
        dynamics.is_foliated_by_systoles(
            [geometry2d.disk_profile(1.0), geometry2d.disk_profile(2.0)],
            10, seed=6)

