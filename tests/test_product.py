"""Product domains, gauges, volumes."""

import functools
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.stats

from symprod import capacities, diskmap, dynamics, geometry2d, product
from symprod.product import ProductDomain
from symprod.selftest import SQUARE, _standard_factors
from symprod.specfile import load_spec, parse_spec

SPECS = Path(__file__).resolve().parents[1] / "specs"


def ellipsoid_gauge(areas, z):
    return np.sqrt(product.ellipsoid_level(areas, z))


def two_disks(a1=1.0, a2=1.0, p=2.0):
    return ProductDomain([geometry2d.disk_profile(a1),
                          geometry2d.disk_profile(a2)], p=p)


def test_ellipsoid_volume_oracle():
    """At p = 2 the closed form is the ellipsoid volume a_1 ... a_n / n!."""
    for areas, volume in (([1.0, 1.0], 0.5), ([1.0, 2.0, 3.0], 1.0),
                          ([2.0], 2.0)):
        disks = [geometry2d.disk_profile(a) for a in areas]
        assert ProductDomain(disks).volume == pytest.approx(volume,
                                                            rel=1e-12)


def test_two_product_of_disks_is_ellipsoid():
    """The p=2 product of disks has exactly the ellipsoid gauge."""
    domain = two_disks(1.0, 2.0)
    rng = np.random.default_rng(0)
    z = rng.normal(size=(500, 2)) + 1j * rng.normal(size=(500, 2))
    assert np.allclose(domain.gauge(z), ellipsoid_gauge([1.0, 2.0], z),
                       atol=1e-12)


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
               geometry2d.polygon_profile(SQUARE)]
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
    """An ellipsoid given by its areas is no factor; its disks are."""
    with pytest.raises(TypeError, match="tuple"):
        ProductDomain([geometry2d.disk_profile(1.0),
                       product.ellipsoid_areas([1.0])])


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
    """One point or many, a wrong coordinate count is named."""
    domain = two_disks()
    for shape in [(3,), (1,), (4, 3), (2, 5, 1)]:
        with pytest.raises(ValueError, match=f"point has {shape[-1]} complex "
                                             "coordinates, expected 2"):
            domain.gauge(np.zeros(shape, dtype=complex))


# Per-factor functions with complex (psi, the flow) and real (gauge) values.
FACTORWISE = {
    "gauge": lambda f, z: f.gauge(z),
    "disk_to_domain": diskmap.disk_to_domain,
    "char_flow_2d": lambda f, z: dynamics.char_flow_2d(f, z, 0.7),
}


@pytest.mark.parametrize("shape", [(), (5,), (2, 3)])
@pytest.mark.parametrize("name", list(FACTORWISE))
def test_factorwise_matches_stacked_calls(name, shape):
    """The filled array equals np.stack of the per-factor calls."""
    factors = [geometry2d.cosine_profile(1.0),
               geometry2d.weierstrass_profile(terms=20)]
    rng = np.random.default_rng(4)
    z = rng.normal(size=shape + (2,)) + 1j * rng.normal(size=shape + (2,))
    fn = FACTORWISE[name]
    expected = np.stack([fn(f, z[..., i]) for i, f in enumerate(factors)],
                        axis=-1)
    got = product.factorwise(fn, factors, z)
    assert got.dtype == expected.dtype
    np.testing.assert_array_equal(got, expected)


def test_factorwise_passes_per_point_arguments():
    """Extra arguments reach every factor; times broadcast per point."""
    factors = [geometry2d.disk_profile(1.0), geometry2d.cosine_profile(2.0)]
    z = np.array([[0.3 + 0.1j, -0.2 + 0.5j], [0.0j, 0.4 - 0.4j]])
    t = np.array([0.25, -1.5])
    expected = np.stack([dynamics.char_flow_2d(f, z[:, i], t)
                         for i, f in enumerate(factors)], axis=-1)
    np.testing.assert_array_equal(
        product.factorwise(dynamics.char_flow_2d, factors, z, t), expected)


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


def whole_block_hits(domain, samples, seed):
    """mc_volume's hit count with each block drawn as re + 1j * im and
    tested in one gauge call."""
    radii = domain.bounding_radii()
    hits = 0
    for index, start in enumerate(range(0, samples, product.MC_BLOCK)):
        shape = (min(product.MC_BLOCK, samples - start), radii.size)
        rng = np.random.default_rng([seed, index])
        re = rng.uniform(-1.0, 1.0, shape) * radii
        im = rng.uniform(-1.0, 1.0, shape) * radii
        hits += int(np.count_nonzero(domain.gauge(re + 1j * im) <= 1.0))
    return hits


def test_sample_complex_box_matches_separate_parts():
    radii = np.array([0.7, 1.3, 2.0])
    re = np.random.default_rng(4).uniform(-1.0, 1.0, (500, 3)) * radii
    rng = np.random.default_rng(4)
    rng.uniform(size=1500)
    im = rng.uniform(-1.0, 1.0, (500, 3)) * radii
    np.testing.assert_array_equal(
        product.sample_complex_box(np.random.default_rng(4), radii, 500),
        re + 1j * im)


@pytest.mark.parametrize("mc_slice", [None, 999])
@pytest.mark.parametrize("threads", [1, 3])
@pytest.mark.parametrize("samples", [1000, 4097, (1 << 16) + 1,
                                     3 * (1 << 16) + 5])
def test_mc_volume_slices_match_whole_blocks(monkeypatch, samples, threads,
                                             mc_slice):
    """Slicing a block changes no hit, at the module's slice or a small odd
    one; 4097 and 2^16 + 1 leave a one-point slice or block."""
    if mc_slice is not None:
        monkeypatch.setattr(product, "MC_SLICE", mc_slice)
    domain = load_spec(SPECS / "cosine_disk.spec")
    est = product.mc_volume(domain, samples, seed=17, threads=threads)
    assert est.hits == whole_block_hits(domain, samples, seed=17)


def step_overshoot_profile():
    """A cubic profile on 16 step-like radii; its spline overshoots the
    step, so its max_radius lies inside a cell, above every node."""
    profile = geometry2d.RadialProfile([1.0] * 8 + [2.0] * 8, "cubic")
    assert profile.max_radius > 2.0 * (1.0 + 1e-3)
    return profile


@pytest.mark.parametrize("threads", [1, 3])
@pytest.mark.parametrize("p", [1.0, 1.5, 3.0])
@pytest.mark.parametrize("factors", ["cosine_disk", "disks_1_1", "overshoot"])
def test_mc_volume_radius_bound_drops_no_hit(factors, p, threads):
    """The radius bound drops only misses, at several p, on factors whose
    R(theta) reaches max_radius everywhere (disks), at a node (cosine) or
    only at a spline overshoot inside a cell."""
    if factors == "overshoot":
        factors = [step_overshoot_profile(), geometry2d.cosine_profile(2.0)]
    else:
        factors = load_spec(SPECS / f"{factors}.spec").factors
    domain = ProductDomain(factors, p=p)
    samples = 2 * product.MC_BLOCK + 4097
    est = product.mc_volume(domain, samples, seed=23, threads=threads)
    assert est.hits == whole_block_hits(domain, samples, seed=23)


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_mc_volume_keeps_hits_just_above_the_bound(monkeypatch, p):
    """On two disks R(theta) is max_radius, so the bound's sum is the
    gauge's, bit for bit. Where that sum rounds one ulp or so above 1, its
    p-th root can still round to 1: a hit, which a bound without
    MC_BOUND_MARGIN would drop. Box samples drawn only there all count."""
    domain = two_disks(p=p)
    rng = np.random.default_rng(8)
    z = rng.normal(size=(20000, 2)) + 1j * rng.normal(size=(20000, 2))
    z /= domain.gauge(z)[:, None]
    total = sum((np.abs(z[:, i]) / r) ** p
                for i, r in enumerate(domain.bounding_radii()))
    edge = z[(total > 1.0) & (domain.gauge(z) <= 1.0)]
    assert len(edge) >= product.MC_MIN_SAMPLES
    monkeypatch.setattr(product, "sample_complex_box",
                        lambda rng, radii, count: edge[:count].copy())
    est = product.mc_volume(domain, len(edge), seed=1)
    assert est.hits == len(edge)


def test_mc_volume_gauges_only_the_survivors(monkeypatch):
    """At p = 2 on two factors the bound's ball is pi^2/32 = 30.8% of the
    box, so the gauge sees about that share of the samples."""
    domain = load_spec(SPECS / "cosine_disk.spec")
    hits = whole_block_hits(domain, product.MC_BLOCK, seed=5)
    seen = []
    gauge = domain.gauge
    monkeypatch.setattr(domain, "gauge", lambda z: seen.append(len(z))
                        or gauge(z))
    assert product.mc_volume(domain, product.MC_BLOCK, seed=5).hits == hits
    assert abs(sum(seen) / product.MC_BLOCK - np.pi ** 2 / 32) < 0.01
    assert max(seen) <= product.MC_SLICE


def test_mc_volume_peak_allocation():
    """One block and its draw, not the block's gauge temporaries: 6.6 MiB
    when each block was tested whole, 3.1 MiB in slices. A first call
    warms numpy's one-time allocations (0.7 MiB) out of the trace."""
    domain = load_spec(SPECS / "cosine_disk.spec")
    product.mc_volume(domain, 1000, seed=3, threads=1)
    tracemalloc.start()
    try:
        product.mc_volume(domain, 1 << 18, seed=3, threads=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2 ** 20


@pytest.mark.parametrize("samples", [5000.0, np.float64(5000.0), True,
                                     "5000"])
def test_mc_volume_rejects_non_integer_samples(samples):
    with pytest.raises(ValueError, match="samples must be an integer"):
        product.mc_volume(two_disks(), samples, seed=1)


@pytest.mark.parametrize("value, message", [
    (0, "--n must be at least 1, got 0"),
    (11, "--n must be at most 10, got 11"),
    (np.int64(11), "--n must be at most 10, got 11"),
    (True, "--n must be an integer, got True")])
def test_check_integer_words_each_bound(value, message):
    with pytest.raises(ValueError) as exc:
        product.check_integer("--n", value, least=1, most=10)
    assert str(exc.value) == message


def test_check_integer_takes_the_bounds_inclusive():
    for value in (1, 10, np.int64(5)):
        product.check_integer("--n", value, least=1, most=10)
    product.check_integer("--n", 10 ** 20)


def test_mc_volume_takes_numpy_integer_samples():
    est = product.mc_volume(two_disks(), np.int64(5000), seed=1)
    assert est.hits == product.mc_volume(two_disks(), 5000, seed=1).hits


@pytest.mark.parametrize("threads", [2.5, 2.0, np.float64(2.0), True,
                                     np.True_, "2"])
def test_mc_volume_rejects_non_integer_threads(threads):
    with pytest.raises(ValueError, match="threads must be an integer"):
        product.mc_volume(two_disks(), 5000, seed=1, threads=threads)


@pytest.mark.parametrize("threads", [0, -1, np.int64(0)])
def test_mc_volume_rejects_fewer_than_one_thread(threads):
    with pytest.raises(ValueError, match="threads must be at least 1, got"):
        product.mc_volume(two_disks(), 5000, seed=1, threads=threads)


def test_mc_volume_takes_numpy_integer_threads():
    est = product.mc_volume(two_disks(), 5000, seed=1, threads=np.int32(2))
    assert est.hits == product.mc_volume(two_disks(), 5000, seed=1).hits


@pytest.mark.parametrize("p", [1.0, 3.0, 6.0])
def test_closed_form_volume_matches_monte_carlo(p):
    domain = ProductDomain([geometry2d.weierstrass_profile(),
                            geometry2d.polygon_profile(SQUARE)], p=p)
    est = product.mc_volume(domain, 200000, seed=31)
    assert abs(est.volume - domain.volume) <= 3.0 * est.std_error


def test_closed_form_volume_is_ellipsoid_volume_at_p2():
    areas = [1.0, 2.0, 3.0]
    domain = ProductDomain([geometry2d.disk_profile(a) for a in areas])
    factor_areas = [f.area for f in domain.factors]
    ellipsoid_volume = math.prod(factor_areas) / math.factorial(len(areas))
    assert domain.volume == pytest.approx(ellipsoid_volume, rel=1e-12)


def test_mixed_ellipsoid_factor_volume():
    """disk x_2 E(1,1) is E(1,1,1): volume 1/6."""
    domain = parse_spec("[factor]\ntype = disk\narea = 1\n"
                        "[factor]\ntype = ellipsoid\nareas = 1 1\n")
    est = product.mc_volume(domain, 400000, seed=21)
    assert abs(est.volume - 1.0 / 6.0) <= 3.0 * est.std_error


def box_rejection_sample(rng, domain, count):
    """Oracle: uniform samples of the product by rejection from its box."""
    out, have = [], 0
    while have < count:
        pts = product.sample_complex_box(rng, domain.bounding_radii(), 4096)
        keep = pts[domain.gauge(pts) <= 1.0]
        out.append(keep)
        have += keep.shape[0]
    return np.concatenate(out)[:count]


def test_ellipsoid_sample_count_and_body():
    areas = [1.0, 2.0, 0.5]
    pts = product.ellipsoid_sample(np.random.default_rng(4), areas, 5000)
    assert pts.shape == (5000, 3)
    assert np.all(ellipsoid_gauge(areas, pts) <= 1.0)
    with pytest.raises(ValueError, match="sample count must be at least 1"):
        product.ellipsoid_sample(np.random.default_rng(4), areas, 0)


@pytest.mark.parametrize("count", [200.0, True], ids=["float", "bool"])
@pytest.mark.parametrize("name", ["sandwich_check",
                                  "sample_conjugacy_residuals",
                                  "is_foliated_by_systoles"])
def test_ellipsoid_samplers_reject_a_non_integer_count(name, count):
    """The count reaches ellipsoid_sample, which names it in a ValueError."""
    call = {"sandwich_check": lambda d: diskmap.sandwich_check(
                d, 0.05, count, 1),
            "sample_conjugacy_residuals": lambda d:
                dynamics.sample_conjugacy_residuals(d, count, 1),
            "is_foliated_by_systoles": lambda d:
                dynamics.is_foliated_by_systoles(d, count, 1)}[name]
    with pytest.raises(ValueError, match="sample count must be an integer"):
        call(two_disks())


@pytest.mark.parametrize("n", [2, 3, 4])
def test_ellipsoid_sample_is_uniform_in_volume(n):
    """The share of E inside gauge g is g^(2n), so G^(2n) is U(0, 1)."""
    areas = np.linspace(0.5, 2.0, n)
    pts = product.ellipsoid_sample(np.random.default_rng(30 + n), areas,
                                   20000)
    g = ellipsoid_gauge(areas, pts)
    assert scipy.stats.kstest(g ** (2 * n), "uniform").pvalue >= 0.01


def test_psi_of_ellipsoid_samples_matches_box_rejection():
    """psi(E) is X with its volume: per-factor gauges and angles of
    psi-samples and of box-rejection samples of W x square have one
    distribution each."""
    domain = ProductDomain(_standard_factors())
    rng = np.random.default_rng(12)
    mapped = diskmap.product_map(domain.factors, product.ellipsoid_sample(
        rng, domain.factor_areas, 5000))
    oracle = box_rejection_sample(rng, domain, 5000)
    assert np.all(domain.gauge(mapped) <= 1.0 + 1e-12)
    factor_gauges = functools.partial(
        product.factorwise, geometry2d.RadialProfile.gauge, domain.factors)
    for stat in (factor_gauges, np.angle):
        for i in range(2):
            assert scipy.stats.ks_2samp(stat(mapped)[:, i],
                                        stat(oracle)[:, i]).pvalue >= 0.01


def test_foliation_starts_on_product_boundary(monkeypatch):
    """is_foliated_by_systoles flows points of gauge 1 to within 1e-12."""
    domain = ProductDomain([geometry2d.cosine_profile(1.0),
                            geometry2d.disk_profile(1.0)])
    starts = []
    flow = dynamics.char_flow_2d

    def spy(profile, z, t):
        starts.append(z)
        return flow(profile, z, t)

    monkeypatch.setattr(dynamics, "char_flow_2d", spy)
    dynamics.is_foliated_by_systoles(domain, 500, seed=17)
    start = np.stack(starts, axis=-1)
    assert start.shape == (500, 2)
    np.testing.assert_allclose(domain.gauge(start), 1.0, rtol=0.0, atol=1e-12)
