"""Capacity tables, Zoll check, boundary-minimality experiment."""

import numpy as np
import pytest

from symprod import capacities, geometry2d
from symprod.dynamics import FlowPoint


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
