"""Symplectic p-products of planar star-shaped domains.

The product is realized through its gauge: G(z_1, ..., z_n) =
(sum_i g_i(z_i)^p)^(1/p), with g_i the 1-homogeneous gauge of the i-th
RadialProfile and one complex coordinate z_i per factor. An ellipsoid
E(a_1, ..., a_m) is no factor type of its own: it is the 2-product of the
disks D(a_1), ..., D(a_m), whose gauges square-sum to the ellipsoid's.
The equivalence with the union-over-simplex definition is exercised by a
brute-force test, not assumed here.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .geometry2d import RadialProfile

# Sample block size for deterministic, worker-count-independent Monte Carlo.
MC_BLOCK = 1 << 16


def factorwise(fn, factors, z, *args):
    """Stack fn(factor_i, z[..., i], *args) over the factors on the last axis.

    ``z`` holds one complex coordinate per factor along its last axis; any
    other length is a ValueError.
    """
    z = np.asarray(z, dtype=complex)
    if z.shape[-1] != len(factors):
        raise ValueError(f"point has {z.shape[-1]} complex coordinates, "
                         f"expected {len(factors)}")
    return np.stack([fn(f, z[..., i], *args) for i, f in enumerate(factors)],
                    axis=-1)


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
        out = np.sum(g ** self.p, axis=-1) ** (1.0 / self.p)
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


def sample_complex_box(rng, radii, count):
    """Uniform samples from the product of squares [-r_i, r_i]^2."""
    radii = np.asarray(radii)
    n = radii.size
    re = rng.uniform(-1.0, 1.0, (count, n)) * radii
    im = rng.uniform(-1.0, 1.0, (count, n)) * radii
    return re + 1j * im


def rejection_sample(rng, radii, gauge_fn, count):
    """Uniform samples of {gauge <= 1} by rejection from the bounding box.

    Draws boxes of max(4096, 1.5 x the shortfall) points until ``count``
    are accepted, and returns the first ``count`` in draw order.
    """
    if count < 1:
        raise ValueError("need at least one sample")
    out = []
    have = 0
    while have < count:
        draw = max(4096, int(1.5 * (count - have)))
        pts = sample_complex_box(rng, radii, draw)
        keep = pts[gauge_fn(pts) <= 1.0]
        out.append(keep)
        have += keep.shape[0]
    return np.concatenate(out)[:count]


@dataclass(frozen=True)
class VolumeEstimate:
    volume: float
    std_error: float
    samples: int
    hits: int
    seed: int


def mc_volume(domain, samples, seed, threads=1):
    """Monte Carlo volume of a product domain by box rejection.

    Samples are drawn in fixed-size blocks with per-block seeded generators,
    so the result depends only on (samples, seed), not on the worker count.
    """
    if samples < 1000:
        raise ValueError("need at least 1000 samples")
    radii = domain.bounding_radii()
    box_volume = float(np.prod((2.0 * radii) ** 2))
    blocks = [(b, min(MC_BLOCK, samples - b * MC_BLOCK))
              for b in range((samples + MC_BLOCK - 1) // MC_BLOCK)]

    def count_block(args):
        index, size = args
        rng = np.random.default_rng([seed, index])
        pts = sample_complex_box(rng, radii, size)
        return int(np.count_nonzero(domain.gauge(pts) <= 1.0))

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            hits = sum(pool.map(count_block, blocks))
    else:
        hits = sum(map(count_block, blocks))

    frac = hits / samples
    est = frac * box_volume
    stderr = box_volume * np.sqrt(frac * (1.0 - frac) / samples)
    return VolumeEstimate(est, stderr, samples, hits, seed)


def boundary_sample(domain, count, seed=None, weights=None):
    """Points on the product boundary, G = 1 by construction.

    ``weights``: simplex weights t_i (one per factor); if omitted they are
    drawn Dirichlet-uniform per point from the seeded stream. Factor i
    contributes t_i^(1/p) times a uniform-angle point of its boundary.
    """
    rng = np.random.default_rng(seed)
    nf = len(domain.factors)
    if weights is not None:
        t = np.broadcast_to(np.asarray(weights, dtype=float), (count, nf)).copy()
        if np.any(t < 0.0) or not np.allclose(t.sum(axis=1), 1.0, atol=1e-12):
            raise ValueError("weights must be nonnegative and sum to 1")
    else:
        t = rng.dirichlet(np.ones(nf), size=count)

    out = np.empty((count, nf), dtype=complex)
    for i, f in enumerate(domain.factors):
        theta = rng.uniform(0.0, 2.0 * np.pi, count)
        out[:, i] = t[:, i] ** (1.0 / domain.p) * f.boundary_point(theta)
    return out
