"""Characteristic flow on star-shaped boundaries and its ellipsoid model.

On a planar star-shaped boundary the characteristic advances at unit
sector-area rate: the angle moves so that the swept sector area equals the
elapsed time, and one period equals the enclosed area. The flow extends
1-homogeneously off the boundary (angles independent of the level). On a
2-product boundary the flow splits factor-wise at full speed, which makes it
conjugate, through the factor-wise disk map psi, to the Reeb rotation on the
matching ellipsoid. Sampled boundary points are psi of points of the
ellipsoid's boundary (product.ellipsoid_boundary_sample).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diskmap import product_map
from .geometry2d import TWO_PI
from .product import (check_integer, common_area, ellipsoid_boundary_sample,
                      ellipsoid_level, factorwise, two_product)


@dataclass
class FlowPoint:
    """Boundary point of a 2-product in per-factor (angle, level) form.

    The ambient point is z_i = level_i * R_i(angle_i) e^{i angle_i}; on the
    boundary the levels satisfy sum level_i^2 = 1.
    """

    angles: np.ndarray
    levels: np.ndarray

    def __post_init__(self):
        self.angles = np.mod(np.asarray(self.angles, dtype=float), TWO_PI)
        self.levels = np.asarray(self.levels, dtype=float)
        if self.angles.shape != self.levels.shape:
            raise ValueError("angles and levels must have matching shapes")
        if np.any(self.levels < 0.0):
            raise ValueError("levels must be nonnegative")

    def check_factors(self, n):
        """Raise ValueError unless the point has one coordinate per factor."""
        if self.levels.shape != (n,):
            raise ValueError(f"point has {self.levels.size} coordinates, "
                             f"expected {n}")


def char_flow_2d(profile, z, t):
    """Closed-form characteristic flow: sector area swept equals t.

    The gauge level is conserved exactly and the origin is fixed. Time is in
    area units; the minimal period on the boundary equals the domain area.
    R and S at arg z come from one angle reduction and cell lookup
    (RadialProfile.radius_and_sector_area), and so do the new angle
    S^-1(S + t) and R there (RadialProfile.inverse_sector_area_and_radius).
    A point with a NaN coordinate flows to NaN, and so does every point but
    the origin in a non-finite time.
    """
    z = np.asarray(z, dtype=complex)
    radius, sector = profile.radius_and_sector_area(np.arctan2(z.imag, z.real))
    level = np.abs(z) / radius
    theta, radius = profile.inverse_sector_area_and_radius(sector + t)
    theta = np.mod(theta, TWO_PI)
    out = level * radius * np.exp(1j * theta)
    out = np.where(level == 0.0, 0.0 + 0.0j, out)
    return complex(out) if out.ndim == 0 else out


def reeb_ellipsoid(areas, z, t):
    """Reeb flow on E(a_1, ..., a_n): z_i -> e^{i 2 pi t / a_i} z_i."""
    z = np.asarray(z, dtype=complex)
    return z * np.exp(1j * TWO_PI * t / np.asarray(areas, dtype=float))


# Largest |product.ellipsoid_level - 1| accepted as the ellipsoid boundary.
ELLIPSOID_BOUNDARY_TOL = 1e-8


def conjugacy_residual(factors, z, t):
    """Distance between psi(Reeb^t z) and Phi^t(psi(z)); zero up to rounding.

    psi is diskmap.product_map, which carries the boundary of the ellipsoid
    E(a_1, ..., a_n) onto the product boundary; Phi^t is char_flow_2d in
    every factor. ``z`` holds points of the ellipsoid boundary along its
    last axis and ``t`` one time per point; one point gives a float.
    ``factors`` is a sequence of profiles or a 2-product (two_product).
    A point off the boundary, NaN coordinates included, or a non-finite
    time is a ValueError.
    """
    factors = two_product(factors).factors
    areas = np.array([f.area for f in factors])
    z = np.asarray(z, dtype=complex)
    t = np.asarray(t, dtype=float)
    if not np.isfinite(t).all():
        raise ValueError("times must be finite")
    level = ellipsoid_level(areas, z)
    if not (np.abs(level - 1.0) <= ELLIPSOID_BOUNDARY_TOL).all():
        raise ValueError("point is not on the ellipsoid boundary")
    lhs, start = product_map(
        factors, np.array([reeb_ellipsoid(areas, z, t[..., None]), z]))
    rhs = factorwise(char_flow_2d, factors, start, t)
    out = np.sqrt((np.abs(lhs - rhs) ** 2).sum(axis=-1))
    return float(out) if out.ndim == 0 else out


def sample_conjugacy_residuals(factors, count, seed):
    """conjugacy_residual at ``count`` seeded points of the ellipsoid boundary.

    Draws product.ellipsoid_boundary_sample points, then times uniform in
    +-2 max(area); returns the residual per sample.
    """
    factors = two_product(factors).factors
    areas = np.array([f.area for f in factors])
    rng = np.random.default_rng(seed)
    z = ellipsoid_boundary_sample(rng, areas, count)
    times = rng.uniform(-2.0, 2.0, count) * float(np.max(areas))
    return conjugacy_residual(factors, z, times)


ACTIVE_LEVEL = 1e-12


def orbit_period(domain, point, denominator_bound=1000):
    """Least closing time of the product flow, or None within the bound.

    Closure requires t to be an integer multiple of every active factor's
    area. The candidates k * a_max, k = 1 ... denominator_bound, for the
    largest active area a_max are tested in one array pass; the first
    whose turn counts t / a_i all lie within 1e-8 of an integer is the
    period.
    """
    check_integer("denominator_bound", denominator_bound, least=1)
    factors = two_product(domain).factors
    point.check_factors(len(factors))
    areas = np.array([f.area for f in factors])[point.levels > ACTIVE_LEVEL]
    if areas.size < 2:
        return float(areas[0]) if areas.size else None
    t = np.arange(1, denominator_bound + 1) * np.max(areas)
    turns = t[:, None] / areas
    closed = np.flatnonzero(np.all(np.abs(turns - np.round(turns)) <= 1e-8,
                                   axis=1))
    return float(t[closed[0]]) if closed.size else None


@dataclass
class FoliationReport:
    area: float
    samples: int
    seed: int
    passed: bool
    worst_deviation: float
    failures: int


def is_foliated_by_systoles(domain, count, seed):
    """Check that every sampled boundary orbit closes at t = common area.

    The start points are psi of seeded product.ellipsoid_boundary_sample
    draws; an orbit closes when |Phi^a(z) - z| <= 1e-8.
    """
    domain = two_product(domain)
    a = common_area(domain)
    start = product_map(domain.factors, ellipsoid_boundary_sample(
        np.random.default_rng(seed), domain.factor_areas, count))
    end = factorwise(char_flow_2d, domain.factors, start, a)
    dev = np.max(np.abs(end - start), axis=-1)
    failures = int(np.count_nonzero(dev > 1e-8))
    return FoliationReport(area=a, samples=count, seed=seed,
                           passed=failures == 0,
                           worst_deviation=float(np.max(dev, initial=0.0)),
                           failures=failures)
