"""Product domains, gauges, volumes."""

import numpy as np
import pytest

from symprod import capacities, diskmap, dynamics, geometry2d, product
from symprod.geometry2d import EllipsoidSpec
from symprod.product import ProductDomain
from symprod.specfile import parse_spec


def two_disks(a1=1.0, a2=1.0, p=2.0):
    return ProductDomain([geometry2d.disk_profile(a1),
                          geometry2d.disk_profile(a2)], p=p)


def test_ellipsoid_volume_oracle():
    assert EllipsoidSpec([1.0, 1.0]).volume == pytest.approx(0.5)
    assert EllipsoidSpec([1.0, 2.0, 3.0]).volume == pytest.approx(1.0)
    assert EllipsoidSpec([2.0]).volume == pytest.approx(2.0)


def test_two_product_of_disks_is_ellipsoid():
    """The p=2 product of disks has exactly the ellipsoid gauge."""
    domain = two_disks(1.0, 2.0)
    ell = EllipsoidSpec([1.0, 2.0])
    rng = np.random.default_rng(0)
    z = rng.normal(size=(500, 2)) + 1j * rng.normal(size=(500, 2))
    assert np.allclose(domain.gauge(z), ell.gauge(z), atol=1e-12)


def test_gauge_homogeneity():
    domain = ProductDomain([geometry2d.cosine_profile(1.0),
                            geometry2d.weierstrass_profile()], p=3.0)
    rng = np.random.default_rng(1)
    z = rng.normal(size=(200, 2)) + 1j * rng.normal(size=(200, 2))
    lam = rng.uniform(0.1, 4.0, 200)
    assert np.allclose(domain.gauge(lam[:, None] * z),
                       lam * domain.gauge(z), rtol=1e-12, atol=1e-12)


def test_membership_matches_union_over_simplex():
    """Oracle: x is in the p-product iff some split t works factor-wise."""
    factors = [geometry2d.cosine_profile(1.0),
               geometry2d.polygon_profile([(1, 1), (-1, 1), (-1, -1),
                                           (1, -1)])]
    for p in (1.0, 2.0, 4.0):
        domain = ProductDomain(factors, p=p)
        rng = np.random.default_rng(2)
        z = rng.normal(size=(300, 2)) + 1j * rng.normal(size=(300, 2))
        z *= 0.6
        t = np.linspace(1e-9, 1.0 - 1e-9, 4001)
        g = np.stack([f.gauge(z[:, i]) for i, f in enumerate(factors)])
        scaled = np.maximum(g[0][:, None] / t[None, :] ** (1.0 / p),
                            g[1][:, None] / (1.0 - t[None, :]) ** (1.0 / p))
        oracle = scaled.min(axis=1)
        assert np.allclose(domain.gauge(z), oracle, rtol=1e-3, atol=1e-6)


def test_large_p_approaches_max_gauge():
    factors = [geometry2d.disk_profile(1.0), geometry2d.disk_profile(2.0)]
    domain = ProductDomain(factors, p=64.0)
    rng = np.random.default_rng(3)
    z = rng.normal(size=(200, 2)) + 1j * rng.normal(size=(200, 2))
    g = np.stack([f.gauge(z[:, i]) for i, f in enumerate(factors)])
    gmax = g.max(axis=0)
    val = domain.gauge(z)
    assert np.all(val >= gmax - 1e-12)
    assert np.all(val <= gmax * 2.0 ** (1.0 / 64.0) + 1e-12)


def test_rejects_p_below_one():
    with pytest.raises(ValueError):
        two_disks(p=0.5)


def test_rejects_non_planar_factor():
    with pytest.raises(TypeError, match="EllipsoidSpec"):
        ProductDomain([geometry2d.disk_profile(1.0), EllipsoidSpec([1.0])])


def _flow_point():
    return dynamics.FlowPoint(angles=[0.5, 2.0], levels=np.sqrt([0.5, 0.5]))


GATED = {
    "sandwich_check": lambda d: diskmap.sandwich_check(d, 0.05, 100, 1),
    "conjugacy_residual": lambda d: dynamics.conjugacy_residual(
        d, np.sqrt([0.5 / np.pi, 0.5 / np.pi]) + 0j, 0.1),
    "sample_conjugacy_residuals": lambda d:
        dynamics.sample_conjugacy_residuals(d, 10, 1),
    "orbit_period": lambda d: dynamics.orbit_period(d, _flow_point()),
    "is_foliated_by_systoles": lambda d:
        dynamics.is_foliated_by_systoles(d, 10, 1),
    "boundary_minimal_experiment": lambda d:
        capacities.boundary_minimal_experiment(
            d, _flow_point(), width=0.9, target_area=0.9, samples=100,
            seed=1),
}


@pytest.mark.parametrize("name", list(GATED))
def test_two_product_experiments_reject_other_p(name):
    """The 2-product experiments accept a p = 2 domain and refuse p = 3."""
    GATED[name](two_disks())
    with pytest.raises(ValueError, match="p = 2"):
        GATED[name](two_disks(p=3.0))


def test_gauge_rejects_dimension_mismatch():
    domain = two_disks()
    with pytest.raises(ValueError):
        domain.gauge(np.zeros(3, dtype=complex))


def test_mc_volume_ball():
    domain = two_disks(1.0, 1.0)
    est = product.mc_volume(domain, 200000, seed=5)
    assert abs(est.volume - 0.5) <= 3.0 * est.std_error
    assert est.std_error < 0.01


def test_mc_volume_cubic_disks():
    domain = ProductDomain([geometry2d.disk_profile(1.0, interpolation="cubic"),
                            geometry2d.disk_profile(1.0, interpolation="cubic")])
    assert np.all(np.isfinite(domain.bounding_radii()))
    est = product.mc_volume(domain, 200000, seed=5)
    assert abs(est.volume - 0.5) <= 3.0 * est.std_error


def test_mc_volume_thread_count_invariant():
    domain = ProductDomain([geometry2d.cosine_profile(1.0),
                            geometry2d.disk_profile(1.0)])
    a = product.mc_volume(domain, 150000, seed=9, threads=1)
    b = product.mc_volume(domain, 150000, seed=9, threads=4)
    assert a.volume == b.volume
    assert a.hits == b.hits


def test_mc_volume_seed_reproducible():
    domain = two_disks()
    a = product.mc_volume(domain, 50000, seed=13)
    b = product.mc_volume(domain, 50000, seed=13)
    c = product.mc_volume(domain, 50000, seed=14)
    assert a.volume == b.volume
    assert a.volume != c.volume


@pytest.mark.parametrize("p", [1.0, 3.0, 6.0])
def test_closed_form_volume_matches_monte_carlo(p):
    domain = ProductDomain([geometry2d.weierstrass_profile(),
                            geometry2d.polygon_profile(
                                [(1, 1), (-1, 1), (-1, -1), (1, -1)])], p=p)
    est = product.mc_volume(domain, 200000, seed=31)
    assert abs(est.volume - domain.volume) <= 3.0 * est.std_error


def test_closed_form_volume_is_ellipsoid_volume_at_p2():
    areas = [1.0, 2.0, 3.0]
    domain = ProductDomain([geometry2d.disk_profile(a) for a in areas])
    assert domain.volume == pytest.approx(
        EllipsoidSpec([f.area for f in domain.factors]).volume, rel=1e-12)


def test_mixed_ellipsoid_factor_volume():
    """disk x_2 E(1,1) is E(1,1,1): volume 1/6."""
    domain = parse_spec("[factor]\ntype = disk\narea = 1\n"
                        "[factor]\ntype = ellipsoid\nareas = 1 1\n")
    est = product.mc_volume(domain, 400000, seed=21)
    assert abs(est.volume - 1.0 / 6.0) <= 3.0 * est.std_error


def test_boundary_sample_lies_on_boundary():
    domain = ProductDomain([geometry2d.weierstrass_profile(),
                            geometry2d.disk_profile(2.0)])
    pts = product.boundary_sample(domain, 500, seed=17)
    assert np.allclose(domain.gauge(pts), 1.0, atol=1e-9)


def test_boundary_sample_fixed_weights():
    domain = two_disks()
    pts = product.boundary_sample(domain, 100, seed=19, weights=[0.25, 0.75])
    g = domain.factor_gauges(pts)
    assert np.allclose(g[:, 0] ** 2, 0.25, atol=1e-12)
    assert np.allclose(g[:, 1] ** 2, 0.75, atol=1e-12)


def test_rejection_sample_count_and_body():
    domain = two_disks()
    rng = np.random.default_rng(4)
    pts = product.rejection_sample(rng, domain.bounding_radii(),
                                   domain.gauge, 5000)
    assert pts.shape == (5000, 2)
    assert np.all(domain.gauge(pts) <= 1.0)
    with pytest.raises(ValueError, match="at least one sample"):
        product.rejection_sample(rng, domain.bounding_radii(),
                                 domain.gauge, 0)
