"""Kernels that work one factor column at a time keep the bits of the
whole-array code they replaced.

Each oracle below is the earlier implementation, which reduced or
broadcast over the short factor axis. The rewritten kernels do the same
floating-point operations in another loop order, so results and draws
must agree bit for bit, one-point calls included.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from symprod import diskmap, dynamics, geometry2d, product
from symprod.geometry2d import TWO_PI
from symprod.product import ProductDomain
from symprod.selftest import SQUARE

LEADING = [(), (1,), (7,), (2, 3)]


@functools.cache
def profiles():
    return (geometry2d.disk_profile(1.0),
            geometry2d.cosine_profile(1.3),
            geometry2d.polygon_profile(SQUARE),
            geometry2d.weierstrass_profile(terms=12),
            geometry2d.cosine_profile(0.8, interpolation="cubic"))


def assert_same_bits(got, want):
    assert type(got) is type(want)
    got, want = np.asarray(got), np.asarray(want)
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()


def old_gauge(domain, x):
    """The stacked sum; one point as a one-row array, as the gauge takes it."""
    if np.ndim(x) == 1:
        return float(old_gauge(domain, np.asarray(x)[None])[0])
    g = product.factorwise(geometry2d.RadialProfile.gauge, domain.factors, x)
    out = (g ** domain.p).sum(axis=-1) ** (1.0 / domain.p)
    return float(out) if out.ndim == 0 else out


def old_ellipsoid_level(areas, z):
    return (np.pi * np.abs(z) ** 2 / np.asarray(areas, float)).sum(axis=-1)


def old_sample_complex_box(rng, radii, count):
    radii = np.asarray(radii)
    out = np.empty((count, radii.size), dtype=complex)
    for part in (out.real, out.imag):
        np.multiply(rng.uniform(-1.0, 1.0, out.shape), radii, out=part)
    return out


def old_ellipsoid_sample(rng, areas, count):
    areas = np.asarray(areas, dtype=float)
    n = areas.size
    levels = rng.dirichlet(np.ones(n + 1), count)[:, :n]
    theta = rng.uniform(0.0, TWO_PI, (count, n))
    return np.sqrt(levels * areas / np.pi) * np.exp(1j * theta)


def old_ellipsoid_boundary_sample(rng, areas, count):
    z = old_ellipsoid_sample(rng, areas, count)
    return z / np.sqrt(old_ellipsoid_level(areas, z))[:, None]


def old_conjugacy_residual(factors, z, t):
    areas = np.array([f.area for f in factors])
    z = np.asarray(z, dtype=complex)
    t = np.asarray(t, dtype=float)
    lhs, start = diskmap.product_map(
        factors, np.array([dynamics.reeb_ellipsoid(areas, z, t[..., None]), z]))
    rhs = product.factorwise(dynamics.char_flow_2d, factors, start, t)
    out = np.sqrt((np.abs(lhs - rhs) ** 2).sum(axis=-1))
    return float(out) if out.ndim == 0 else out


def old_foliation(domain, count, seed):
    """is_foliated_by_systoles' worst deviation and failure count."""
    a = product.common_area(domain)
    start = diskmap.product_map(domain.factors, old_ellipsoid_boundary_sample(
        np.random.default_rng(seed), domain.factor_areas, count))
    end = product.factorwise(dynamics.char_flow_2d, domain.factors, start, a)
    dev = np.max(np.abs(end - start), axis=-1)
    return float(np.max(dev, initial=0.0)), int(np.count_nonzero(dev > 1e-8))


def points(seed, shape, zeros):
    """Normal points with, if ``zeros``, about a fifth of coordinates 0."""
    rng = np.random.default_rng(seed)
    z = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    if zeros:
        z[rng.random(shape) < 0.2] = 0.0
    return z


factor_choice = st.lists(st.integers(0, 4), min_size=1, max_size=4)


@settings(max_examples=120, deadline=None)
@given(choice=factor_choice, p=st.sampled_from([1.0, 1.5, 2.0, 3.0]),
       lead=st.sampled_from(LEADING), seed=st.integers(0, 2 ** 32 - 1),
       zeros=st.booleans())
def test_product_gauge_matches_stacked_sum(choice, p, lead, seed, zeros):
    """Every leading shape, and each point of it as a one-point call."""
    domain = ProductDomain([profiles()[k] for k in choice], p=p)
    z = points(seed, lead + (len(choice),), zeros)
    assert_same_bits(domain.gauge(z), old_gauge(domain, z))
    for w in z.reshape(-1, len(choice))[:3]:
        assert_same_bits(domain.gauge(w), old_gauge(domain, w))


@settings(max_examples=120, deadline=None)
@given(n=st.integers(1, 4), lead=st.sampled_from(LEADING),
       seed=st.integers(0, 2 ** 32 - 1), zeros=st.booleans())
def test_ellipsoid_level_matches_stacked_sum(n, lead, seed, zeros):
    areas = np.random.default_rng(seed).uniform(0.1, 5.0, n)
    z = points(seed, lead + (n,), zeros)
    assert_same_bits(product.ellipsoid_level(areas, z),
                     old_ellipsoid_level(areas, z))
    for w in z.reshape(-1, n)[:3]:
        assert_same_bits(product.ellipsoid_level(areas, w),
                         old_ellipsoid_level(areas, w))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 4), count=st.integers(1, 300),
       seed=st.integers(0, 2 ** 32 - 1))
def test_samplers_draw_the_old_points(n, count, seed):
    """The box, ellipsoid and ellipsoid-boundary draws, and the generator
    state after them, are those of the old code at the same seed."""
    sizes = np.random.default_rng(seed).uniform(0.1, 5.0, n)
    for new, old in ((product.sample_complex_box, old_sample_complex_box),
                     (product.ellipsoid_sample, old_ellipsoid_sample),
                     (product.ellipsoid_boundary_sample,
                      old_ellipsoid_boundary_sample)):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        assert_same_bits(new(rng, sizes, count), old(ref, sizes, count))
        assert rng.random() == ref.random()


@settings(max_examples=40, deadline=None)
@given(choice=factor_choice, lead=st.sampled_from(LEADING),
       seed=st.integers(0, 2 ** 32 - 1))
def test_conjugacy_residual_matches_stacked_norm(choice, lead, seed):
    """Batched and one-point residuals on points of the ellipsoid boundary."""
    factors = [profiles()[k] for k in choice]
    areas = np.array([f.area for f in factors])
    rng = np.random.default_rng(seed)
    z = points(seed, lead + (len(choice),), False)
    z = z / np.sqrt(old_ellipsoid_level(areas, z))[..., None]
    t = rng.uniform(-4.0, 4.0, lead)
    assert_same_bits(dynamics.conjugacy_residual(factors, z, t),
                     old_conjugacy_residual(factors, z, t))
    for w, s in zip(z.reshape(-1, len(choice))[:3], t.reshape(-1)):
        assert_same_bits(dynamics.conjugacy_residual(factors, w, s),
                         old_conjugacy_residual(factors, w, s))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_foliation_matches_stacked_max(n):
    domain = ProductDomain([geometry2d.cosine_profile(1.0),
                            geometry2d.polygon_profile(SQUARE),
                            geometry2d.disk_profile(4.0)][:n])
    if n > 1:
        domain = ProductDomain([geometry2d.RadialProfile(
            f.samples * np.sqrt(1.0 / f.area), f.interpolation)
            for f in domain.factors])
    report = dynamics.is_foliated_by_systoles(domain, 300, seed=3)
    assert (report.worst_deviation, report.failures) == old_foliation(
        domain, 300, 3)


def test_mc_volume_hits_match_the_old_kernels():
    """mc_volume's hit count from the old box draw and stacked gauge."""
    domain = ProductDomain([geometry2d.cosine_profile(1.0),
                            geometry2d.weierstrass_profile(terms=12)])
    samples, seed = product.MC_BLOCK + 4097, 21
    hits = 0
    for index, start in enumerate(range(0, samples, product.MC_BLOCK)):
        rng = np.random.default_rng([seed, index])
        pts = old_sample_complex_box(rng, domain.bounding_radii(),
                                     min(product.MC_BLOCK, samples - start))
        hits += int(np.count_nonzero(old_gauge(domain, pts) <= 1.0))
    assert product.mc_volume(domain, samples, seed, threads=2).hits == hits
