"""Symplectic p-products of planar profiles and ellipsoid blocks.

The product is realized through its gauge: G(x_1, ..., x_k) =
(sum_i g_i(x_i)^p)^(1/p) with g_i the 1-homogeneous factor gauges. The
equivalence with the union-over-simplex definition is exercised by a
brute-force test, not assumed here.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .geometry2d import EllipsoidSpec, RadialProfile

# Sample block size for deterministic, worker-count-independent Monte Carlo.
MC_BLOCK = 1 << 16


class ProductDomain:
    """Ordered p-product of RadialProfile and EllipsoidSpec factors.

    Ambient points are complex arrays of length ``n_complex``: one slot per
    planar factor, ``m`` consecutive slots per ellipsoid block E(a_1,...,a_m).
    """

    def __init__(self, factors, p=2.0):
        if p < 1.0:
            raise ValueError("product exponent must satisfy p >= 1")
        factors = tuple(factors)
        if not factors:
            raise ValueError("need at least one factor")
        for f in factors:
            if not isinstance(f, (RadialProfile, EllipsoidSpec)):
                raise TypeError(f"unsupported factor type {type(f).__name__}")
        self.factors = factors
        self.p = float(p)
        self._slots = []
        pos = 0
        for f in factors:
            width = f.n if isinstance(f, EllipsoidSpec) else 1
            self._slots.append((pos, pos + width))
            pos += width
        self.n_complex = pos
        self.dim = 2 * pos

    @property
    def factor_areas(self):
        """Flat list of symplectic areas, one per complex coordinate."""
        out = []
        for f in self.factors:
            if isinstance(f, EllipsoidSpec):
                out.extend(f.areas)
            else:
                out.append(f.area)
        return out

    def _split(self, x):
        x = np.asarray(x, dtype=complex)
        if x.shape[-1] != self.n_complex:
            raise ValueError(
                f"point has {x.shape[-1]} complex coordinates, "
                f"expected {self.n_complex}")
        return [x[..., lo] if hi - lo == 1 else x[..., lo:hi]
                for (lo, hi) in self._slots]

    def factor_gauges(self, x):
        """Stack of factor gauge values, shape (..., n_factors)."""
        blocks = self._split(x)
        vals = [f.gauge(b) for f, b in zip(self.factors, blocks)]
        return np.stack([np.asarray(v, dtype=float) for v in vals], axis=-1)

    def gauge(self, x):
        """1-homogeneous product gauge (sum_i g_i^p)^(1/p)."""
        g = self.factor_gauges(x)
        out = np.sum(g ** self.p, axis=-1) ** (1.0 / self.p)
        return float(out) if out.ndim == 0 else out

    def bounding_radii(self):
        """Per-complex-coordinate radii of a box enclosing the product."""
        out = []
        for f in self.factors:
            if isinstance(f, EllipsoidSpec):
                out.extend(np.sqrt(a / np.pi) for a in f.areas)
            else:
                out.append(f.max_radius)
        return np.asarray(out)

    def __repr__(self):
        return f"ProductDomain(n_factors={len(self.factors)}, p={self.p})"


def ellipsoid_volume(spec):
    """Exact Euclidean volume a_1 ... a_n / n! of E(a_1, ..., a_n)."""
    if not isinstance(spec, EllipsoidSpec):
        spec = EllipsoidSpec(spec)
    return spec.volume


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
    drawn Dirichlet-uniform per point from the seeded stream. Each factor
    block contributes a boundary point of t_i^(1/p) * factor_i.
    """
    rng = np.random.default_rng(seed)
    nf = len(domain.factors)
    if weights is not None:
        t = np.broadcast_to(np.asarray(weights, dtype=float), (count, nf)).copy()
        if np.any(t < 0.0) or not np.allclose(t.sum(axis=1), 1.0, atol=1e-12):
            raise ValueError("weights must be nonnegative and sum to 1")
    else:
        t = rng.dirichlet(np.ones(nf), size=count)

    out = np.empty((count, domain.n_complex), dtype=complex)
    for i, (f, (lo, hi)) in enumerate(zip(domain.factors, domain._slots)):
        scale = t[:, i] ** (1.0 / domain.p)
        if isinstance(f, EllipsoidSpec):
            g = rng.standard_normal((count, f.n)) + \
                1j * rng.standard_normal((count, f.n))
            norm = f.gauge(g)
            norm = np.where(norm == 0.0, 1.0, norm)
            out[:, lo:hi] = scale[:, None] * g / norm[:, None]
        else:
            theta = rng.uniform(0.0, 2.0 * np.pi, count)
            out[:, lo] = scale * f.boundary_point(theta)
    return out
