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

Per-factor arithmetic runs one factor column at a time: the gauge, the
ellipsoid level and the samplers never reduce or broadcast over the
short last axis, where numpy runs one inner loop per point. On a
(4096, 2) array, .sum(axis=-1) took 61 us against 3.1 us for the two
columns added, and a broadcast multiply by per-factor radii 26 us against
6.2 us (2-vCPU Xeon, numpy 2.4). Columns are added left to right, which
is numpy's own order for a reduction axis shorter than 8 (checked for
n = 1 ... 7; n = 8 differs), so each sum keeps the bits of .sum(axis=-1);
no spec or workload has more than 4 factors.
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
# Fewest samples mc_volume accepts.
MC_MIN_SAMPLES = 1000


def complex_points(z, n):
    """``z`` as a complex array with n coordinates on its last axis; any
    other count is a ValueError."""
    z = np.asarray(z, dtype=complex)
    if z.shape[-1] != n:
        raise ValueError(f"point has {z.shape[-1]} complex coordinates, "
                         f"expected {n}")
    return z


def factorwise(fn, factors, z, *args):
    """Stack fn(factor_i, z[..., i], *args) over the factors on the last axis.

    ``z`` holds one complex coordinate per factor along its last axis; any
    other length is a ValueError. The results are copied into one array
    whose shape and dtype follow the first result (gauges are real), as
    np.stack would, without its Python-level wrapper calls. The array is
    made once every factor is done, so it does not add to the peak memory
    of the factor calls.
    """
    z = complex_points(z, len(factors))
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

    def gauge(self, x):
        """1-homogeneous product gauge (sum_i g_i^p)^(1/p), summed one
        factor at a time (see the module docstring).

        One point is evaluated as a one-row array: a numpy scalar's **
        calls libm pow, which can differ in the last bit from the array
        loops (numpy's square and sqrt at p = 2).
        """
        x = complex_points(x, len(self.factors))
        one = x.ndim == 1
        if one:
            x = x[None]
        total = self.factors[0].gauge(x[..., 0]) ** self.p
        for i in range(1, len(self.factors)):
            total += self.factors[i].gauge(x[..., i]) ** self.p
        out = total ** (1.0 / self.p)
        return float(out[0]) if one else out

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
    1 on its boundary, and the square of its 1-homogeneous gauge. ``z``
    needs one coordinate per area; the sum runs one column at a time.

    The columns are the rows of w.T, so a one-point call divides and adds
    numpy scalars, whose IEEE division and addition give the array bits.
    """
    areas = np.asarray(areas, float).tolist()
    w = (np.pi * np.square(np.abs(complex_points(z, len(areas))))).T
    level = w[0] / areas[0]
    for i in range(1, len(areas)):
        level += w[i] / areas[i]
    return level.T


def mc_slices(count):
    """Consecutive slices of MC_SLICE points covering range(count)."""
    return [slice(i, i + MC_SLICE) for i in range(0, count, MC_SLICE)]


def sample_complex_box(rng, radii, count):
    """Uniform samples from the product of squares [-r_i, r_i]^2.

    All real parts are drawn first, then all imaginary parts, into one
    draw buffer: 2u - 1 for u uniform on [0, 1) is rng.uniform(-1, 1)'s
    own arithmetic, so the draws are its draws. Each column of the buffer
    is then scaled by its radius straight into one complex array.
    """
    radii = np.asarray(radii)
    out = np.empty((count, radii.size), dtype=complex)
    draw = np.empty(out.shape)
    for part in (out.real, out.imag):
        rng.random(out=draw)
        draw *= 2.0
        draw -= 1.0
        for i, r in enumerate(radii):
            np.multiply(draw[:, i], r, out=part[:, i])
    return out


def ellipsoid_sample(rng, areas, count):
    """Uniform samples of the ellipsoid E(a_1, ..., a_n), shape (count, n).

    The volume form is prod_i (a_i / 2 pi) ds_i dtheta_i in the levels
    s_i = pi|z_i|^2 / a_i and angles, so the levels are uniform on the solid
    simplex (a flat Dirichlet on n + 1 parts, drawn first) and the angles
    uniform (drawn second). s / sum(s) is then uniform on the face sum = 1.
    """
    check_integer("sample count", count, least=1)
    areas = np.asarray(areas, dtype=float)
    n = areas.size
    levels = rng.dirichlet(np.ones(n + 1), count)
    theta = rng.uniform(0.0, TWO_PI, (count, n))
    radius = np.empty((count, n))
    for i, a in enumerate(areas):
        np.multiply(levels[:, i], a, out=radius[:, i])
    radius /= np.pi
    return np.sqrt(radius, out=radius) * np.exp(1j * theta)


def ellipsoid_boundary_sample(rng, areas, count):
    """ellipsoid_sample points divided by their E-gauge, the square root
    of ellipsoid_level: points of the boundary of E(a_1, ..., a_n), shape
    (count, n), drawn from ``rng`` exactly as ellipsoid_sample draws them."""
    z = ellipsoid_sample(rng, areas, count)
    gauge = np.sqrt(ellipsoid_level(areas, z))
    for i in range(z.shape[-1]):
        np.divide(z[:, i], gauge, out=z[:, i])
    return z


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
    check_integer("samples", samples, least=MC_MIN_SAMPLES)
    check_integer("threads", threads, least=1)
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

