"""Capacity tables, Zoll check, boundary-minimality experiment."""

import numpy as np
import pytest

from symprod import capacities, diskmap, geometry2d, product
from symprod.dynamics import FlowPoint
from symprod.geometry2d import TWO_PI
from symprod.product import ProductDomain


def brute_force_capacities(areas, K):
    vals = sorted(i * a for a in areas for i in range(1, K + 1))
    return tuple(vals[:K])


def test_gh_capacities_e12():
    table = capacities.gh_capacities([1.0, 2.0], 4)
    assert table.values == (1.0, 2.0, 2.0, 3.0)


def test_gh_capacities_against_brute_force():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = rng.integers(1, 5)
        areas = rng.uniform(0.2, 5.0, n).tolist()
        K = int(rng.integers(1, 12))
        table = capacities.gh_capacities(areas, K)
        assert table.values == pytest.approx(
            brute_force_capacities(areas, K))


def test_gh_capacities_rejects_bad_count():
    with pytest.raises(ValueError):
        capacities.gh_capacities([1.0], 0)


@pytest.mark.parametrize("areas", [[1.0, -2.0], [0.0], [1.5, 0.0, 1.5]])
def test_capacities_reject_nonpositive_areas(areas):
    with pytest.raises(ValueError):
        capacities.gh_capacities(areas, 4)
    with pytest.raises(ValueError):
        capacities.zoll_check(areas)


def test_ball_is_zoll():
    zoll, c1, cn = capacities.zoll_check([1.5, 1.5, 1.5])
    assert zoll and c1 == cn == 1.5
    table = capacities.gh_capacities([1.5, 1.5, 1.5], 3)
    assert table.values == (1.5, 1.5, 1.5)


def test_unequal_areas_not_zoll():
    zoll, c1, cn = capacities.zoll_check([1.0, 2.0])
    assert not zoll
    assert c1 == 1.0 and cn == 2.0


def test_shrink_profile_hits_target_area():
    profile = geometry2d.cosine_profile(1.0)
    shrunk = capacities.shrink_profile(profile, direction=0.5, width=0.9,
                                       target_area=0.9)
    assert shrunk.area == pytest.approx(0.9, abs=1e-12 * profile.area)
    theta = np.linspace(0.0, 2.0 * np.pi, 4097)
    assert np.all(shrunk.radius(theta) <= profile.radius(theta) + 1e-12)


def test_shrink_profile_leaves_far_side_unchanged():
    profile = geometry2d.disk_profile(1.0)
    shrunk = capacities.shrink_profile(profile, direction=0.0, width=0.5,
                                       target_area=0.95)
    far = np.linspace(1.0, 2.0 * np.pi - 1.0, 100)
    assert np.allclose(shrunk.radius(far), profile.radius(far), atol=1e-12)


def test_shrink_profile_infeasible_target():
    profile = geometry2d.disk_profile(1.0)
    with pytest.raises(ValueError):
        capacities.shrink_profile(profile, direction=0.0, width=0.2,
                                  target_area=0.2)


def test_boundary_minimal_experiment():
    factors = [geometry2d.cosine_profile(1.0), geometry2d.disk_profile(1.0)]
    point = FlowPoint(angles=[0.5, 2.0], levels=np.sqrt([0.5, 0.5]))
    report = capacities.boundary_minimal_experiment(
        factors, point, width=0.9, target_area=0.9, samples=20000, seed=1)
    assert report.passed
    assert report.violations == 0
    assert report.capacity_gap == pytest.approx(0.1, abs=1e-9)
    assert report.checked > 0


def whole_array_report(factors, point, width, target_area, samples, seed):
    """boundary_minimal_experiment's checked, violations, worst gauge and
    first five offenders, with psi and both gauges run on every sample in
    one call; also the sample index of each of those offenders."""
    domain = ProductDomain(factors)
    shrunk = [capacities.shrink_profile(f, point.angles[i], width, target_area)
              for i, f in enumerate(factors)]
    eta = min(0.999, 0.02 + max(float(np.max(1.0 - s.samples / f.samples))
                                for f, s in zip(factors, shrunk)))
    pts = diskmap.product_map(factors, product.ellipsoid_sample(
        np.random.default_rng(seed), domain.factor_areas, samples))
    u = np.mod(np.angle(pts) - point.angles + np.pi, TWO_PI) - np.pi
    keep = ~(np.any(np.abs(u) < width, axis=-1)
             & (domain.gauge(pts) > 1.0 - eta))
    test = pts[keep]
    g2 = ProductDomain(shrunk).gauge(test)
    bad = np.flatnonzero(g2 > 1.0)[:5]
    return (test.shape[0], int(np.count_nonzero(g2 > 1.0)),
            float(np.max(g2, initial=0.0)),
            [(test[idx], float(g2[idx])) for idx in bad],
            np.flatnonzero(keep)[bad])


@pytest.mark.parametrize("mc_slice", [None, 37])
@pytest.mark.parametrize("violate", [False, True])
def test_boundary_minimal_slices_match_whole_array(monkeypatch, violate,
                                                   mc_slice):
    """Slices give the whole-array report, offenders in order. The violating
    case shrinks each factor by 3% more than eta covers outside the
    windows; its first five offenders lie in several slices of 37. The
    cubic cosine's psi runs Newton until every point of a call converges,
    so it is the factor that could tell a slice from the whole array."""
    if mc_slice is not None:
        monkeypatch.setattr(product, "MC_SLICE", mc_slice)
    if violate:
        shrink = capacities.shrink_profile
        monkeypatch.setattr(
            capacities, "shrink_profile", lambda f, *args:
            geometry2d.RadialProfile(0.97 * shrink(f, *args).samples,
                                     f.interpolation))
    factors = [geometry2d.cosine_profile(1.0), geometry2d.disk_profile(1.0)]
    point = FlowPoint(angles=[0.5, 2.0], levels=np.sqrt([0.5, 0.5]))
    config = dict(width=0.9, target_area=0.9, samples=3000, seed=4)
    report = capacities.boundary_minimal_experiment(factors, point, **config)
    checked, violations, worst, offenders, index = whole_array_report(
        factors, point, **config)
    assert (report.checked, report.violations, report.worst_gauge) == (
        checked, violations, worst)
    assert len(report.offenders) == len(offenders)
    for (z, g), (z_ref, g_ref) in zip(report.offenders, offenders):
        np.testing.assert_array_equal(z, z_ref)
        assert g == g_ref
    if violate:
        assert violations > 5
        assert np.unique(index // 37).size > 1
    else:
        assert violations == 0


@pytest.mark.parametrize("samples", [100.0, np.float64(1000.0), True])
def test_boundary_minimal_rejects_non_integer_samples(samples):
    factors = [geometry2d.disk_profile(1.0), geometry2d.disk_profile(1.0)]
    point = FlowPoint(angles=[0.0, 0.0], levels=np.sqrt([0.5, 0.5]))
    with pytest.raises(ValueError, match="samples must be an integer"):
        capacities.boundary_minimal_experiment(
            factors, point, width=0.9, target_area=0.9, samples=samples,
            seed=2)


def test_boundary_minimal_takes_numpy_integer_samples():
    factors = [geometry2d.disk_profile(1.0), geometry2d.disk_profile(1.0)]
    point = FlowPoint(angles=[0.0, 0.0], levels=np.sqrt([0.5, 0.5]))
    a, b = (capacities.boundary_minimal_experiment(
        factors, point, width=0.9, target_area=0.9, samples=n, seed=2)
        for n in (np.int64(1000), 1000))
    assert (a.checked, a.violations, a.worst_gauge) == (
        b.checked, b.violations, b.worst_gauge)


@pytest.mark.parametrize("k", [1, 3])
def test_boundary_minimal_rejects_wrong_coordinate_count(k):
    factors = [geometry2d.disk_profile(1.0), geometry2d.disk_profile(1.0)]
    point = FlowPoint(angles=np.zeros(k), levels=np.full(k, np.sqrt(1 / k)))
    with pytest.raises(ValueError,
                       match=f"point has {k} coordinates, expected 2"):
        capacities.boundary_minimal_experiment(
            factors, point, width=0.9, target_area=0.9, samples=1000, seed=2)


def test_boundary_minimal_requires_equal_areas():
    factors = [geometry2d.disk_profile(1.0), geometry2d.disk_profile(2.0)]
    point = FlowPoint(angles=[0.0, 0.0], levels=np.sqrt([0.5, 0.5]))
    with pytest.raises(ValueError):
        capacities.boundary_minimal_experiment(
            factors, point, width=0.9, target_area=0.9, samples=1000, seed=2)
