"""Symplectic p-products of planar star-shaped domains.

The product is realized through its gauge: G(z_1, ..., z_n) =
(sum_i g_i(z_i)^p)^(1/p), with g_i the 1-homogeneous gauge of the i-th
RadialProfile and one complex coordinate z_i per factor. An ellipsoid
E(a_1, ..., a_m) is no factor type of its own: it is its areas
(ellipsoid_areas), and the 2-product of the disks D(a_1), ..., D(a_m),
whose squared gauges sum to its level (ellipsoid_level).
The equivalence with the union-over-simplex definition is exercised by a
brute-force test, not assumed here.

Monte Carlo experiments on a 2-product sample E of the factor areas in
closed form (ellipsoid_sample) and map it onto the product by the
volume-preserving psi; only mc_volume, a hit ratio, samples a box.
MC_BLOCK fixes mc_volume's draws: one seeded generator per block, so its
hits depend only on (samples, seed). MC_SLICE fixes only the working set:
the Monte Carlo checks evaluate their points MC_SLICE at a time
(mc_slices), which keeps each temporary inside the L2 cache and out of
the allocator's return to the kernel, and changes no result.
"""

from __future__ import annotations

import math
import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .geometry2d import TWO_PI, RadialProfile

# Sample block size for deterministic, worker-count-independent Monte Carlo.
MC_BLOCK = 1 << 16
# Points per evaluation slice of the Monte Carlo checks; no result depends
# on it. Of 2**11..2**14, 2**11 pays more per-call overhead and 2**14
# brings back about 1000 page faults per closed_form benchmark round;
# at 2**12 a two-factor slice is 128 KB and its temporaries fit in L2.
MC_SLICE = 1 << 12


def factorwise(fn, factors, z, *args):
    """Stack fn(factor_i, z[..., i], *args) over the factors on the last axis.

    ``z`` holds one complex coordinate per factor along its last axis; any
    other length is a ValueError. The results are copied into one array
    whose shape and dtype follow the first result (gauges are real), as
    np.stack would, without its Python-level wrapper calls. The array is
    made once every factor is done, so it does not add to the peak memory
    of the factor calls.
    """
    z = np.asarray(z, dtype=complex)
    if z.shape[-1] != len(factors):
        raise ValueError(f"point has {z.shape[-1]} complex coordinates, "
                         f"expected {len(factors)}")
    parts = [fn(f, z[..., i], *args) for i, f in enumerate(factors)]
    first = np.asarray(parts[0])
    out = np.empty(first.shape + (len(parts),), first.dtype)
    for i, part in enumerate(parts):
        out[..., i] = part
    return out


class ProductDomain:
    """Ordered p-product of RadialProfile factors.

    Ambient points are complex arrays whose last axis holds one coordinate
    per factor.
    """

    def __init__(self, factors, p=2.0):
        if not 1.0 <= p < np.inf:
            raise ValueError("product exponent must be finite with p >= 1")
        factors = tuple(factors)
        if not factors:
            raise ValueError("need at least one factor")
        for f in factors:
            if not isinstance(f, RadialProfile):
                raise TypeError(f"unsupported factor type {type(f).__name__}")
        self.factors = factors
        self.p = float(p)

    @property
    def factor_areas(self):
        """Symplectic areas, one per factor."""
        return [f.area for f in self.factors]

    @property
    def volume(self):
        """Closed-form volume prod_i a_i * Gamma(1 + 2/p)^n / Gamma(1 + 2n/p).

        In the level variables s_i = g_i^2 each factor contributes a_i ds_i,
        so the product is the positive l_{p/2} ball of the s_i scaled by the
        areas (Barthe-Guedon-Mendelson-Naor, Ann. Probab. 2005). At p = 2
        it is the ellipsoid volume a_1 ... a_n / n!.
        """
        n = len(self.factors)
        ball = math.gamma(1.0 + 2.0 / self.p) ** n / math.gamma(
            1.0 + 2.0 * n / self.p)
        return math.prod(self.factor_areas) * ball

    def factor_gauges(self, x):
        """Stack of factor gauge values, shape (..., n_factors)."""
        return factorwise(RadialProfile.gauge, self.factors, x)

    def gauge(self, x):
        """1-homogeneous product gauge (sum_i g_i^p)^(1/p)."""
        g = self.factor_gauges(x)
        out = (g ** self.p).sum(axis=-1) ** (1.0 / self.p)
        return float(out) if out.ndim == 0 else out

    def bounding_radii(self):
        """Per-factor radii of a box enclosing the product."""
        return np.array([f.max_radius for f in self.factors])

    def __repr__(self):
        return f"ProductDomain(n_factors={len(self.factors)}, p={self.p})"


def two_product(factors):
    """The 2-product of a factor sequence, or a ProductDomain with p = 2.

    The experiments on the 2-product (the epsilon-sandwich, the Reeb
    conjugacy, orbit periods, the systole foliation and boundary
    minimality) compare it with the ellipsoid of its factor areas or split
    its characteristic flow factor by factor; both hold only at p = 2, so
    a ProductDomain with any other p is a ValueError.
    """
    if isinstance(factors, ProductDomain):
        if factors.p != 2.0:
            raise ValueError(
                f"needs the 2-product (p = 2), got p = {factors.p:g}")
        return factors
    return ProductDomain(factors, p=2.0)


def common_area(domain):
    """The factors' common area; ValueError unless all agree to 1e-10."""
    areas = np.array(domain.factor_areas)
    if np.max(areas) - np.min(areas) > 1e-10:
        raise ValueError("needs equal factor areas")
    return float(areas[0])


def check_integer(name, value, least=None):
    """ValueError unless ``value`` is an integer, and at least ``least``
    when that is given; bools are not integers."""
    if (isinstance(value, (bool, np.bool_))
            or not isinstance(value, numbers.Integral)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")


def ellipsoid_areas(areas):
    """The areas of E(a_1, ..., a_n) as a tuple of floats; ValueError
    unless there is at least one and each is finite and positive."""
    areas = tuple(float(a) for a in np.atleast_1d(areas))
    if not areas:
        raise ValueError("need at least one ellipsoid area")
    if not all(0.0 < a < np.inf for a in areas):
        raise ValueError("ellipsoid areas must be finite and positive")
    return areas


def ellipsoid_level(areas, z):
    """sum_i pi|z_i|^2 / a_i over z's last axis: E(a_1, ..., a_n)'s level,
    1 on its boundary, and the square of its 1-homogeneous gauge."""
    return (np.pi * np.abs(z) ** 2 / np.asarray(areas, float)).sum(axis=-1)


def mc_slices(count):
    """Consecutive slices of MC_SLICE points covering range(count)."""
    return [slice(i, i + MC_SLICE) for i in range(0, count, MC_SLICE)]


def sample_complex_box(rng, radii, count):
    """Uniform samples from the product of squares [-r_i, r_i]^2.

    All real parts are drawn first, then all imaginary parts, each written
    straight into one complex array.
    """
    radii = np.asarray(radii)
    out = np.empty((count, radii.size), dtype=complex)
    for part in (out.real, out.imag):
        np.multiply(rng.uniform(-1.0, 1.0, out.shape), radii, out=part)
    return out


def ellipsoid_sample(rng, areas, count):
    """Uniform samples of the ellipsoid E(a_1, ..., a_n), shape (count, n).

    The volume form is prod_i (a_i / 2 pi) ds_i dtheta_i in the levels
    s_i = pi|z_i|^2 / a_i and angles, so the levels are uniform on the solid
    simplex (a flat Dirichlet on n + 1 parts, drawn first) and the angles
    uniform (drawn second). s / sum(s) is then uniform on the face sum = 1.
    """
    check_integer("sample count", count)
    if count < 1:
        raise ValueError("need at least one sample")
    areas = np.asarray(areas, dtype=float)
    n = areas.size
    levels = rng.dirichlet(np.ones(n + 1), count)[:, :n]
    theta = rng.uniform(0.0, TWO_PI, (count, n))
    return np.sqrt(levels * areas / np.pi) * np.exp(1j * theta)


def ellipsoid_boundary_sample(rng, areas, count):
    """ellipsoid_sample points divided by their E-gauge, the square root
    of ellipsoid_level: points of the boundary of E(a_1, ..., a_n), shape
    (count, n), drawn from ``rng`` exactly as ellipsoid_sample draws them."""
    z = ellipsoid_sample(rng, areas, count)
    return z / np.sqrt(ellipsoid_level(areas, z))[:, None]


@dataclass(frozen=True)
class VolumeEstimate:
    volume: float
    std_error: float
    samples: int
    hits: int
    seed: int


def mc_volume(domain, samples, seed, threads=1):
    """Monte Carlo volume of a product domain by box rejection.

    Samples are drawn in blocks of MC_BLOCK with per-block seeded
    generators, so the result depends only on (samples, seed), not on the
    worker count; each block is tested MC_SLICE points at a time.
    """
    check_integer("samples", samples)
    if samples < 1000:
        raise ValueError("need at least 1000 samples")
    check_integer("threads", threads)
    if threads < 1:
        raise ValueError(f"need at least one thread, got {threads}")
    radii = domain.bounding_radii()
    box_volume = float(np.prod((2.0 * radii) ** 2))
    blocks = [(b, min(MC_BLOCK, samples - b * MC_BLOCK))
              for b in range((samples + MC_BLOCK - 1) // MC_BLOCK)]

    def count_block(args):
        index, size = args
        rng = np.random.default_rng([seed, index])
        pts = sample_complex_box(rng, radii, size)
        return sum(int(np.count_nonzero(domain.gauge(pts[part]) <= 1.0))
                   for part in mc_slices(size))

    with ThreadPoolExecutor(max_workers=threads) as pool:
        hits = sum(pool.map(count_block, blocks))

    frac = hits / samples
    est = frac * box_volume
    stderr = box_volume * np.sqrt(frac * (1.0 - frac) / samples)
    return VolumeEstimate(est, stderr, samples, hits, seed)

