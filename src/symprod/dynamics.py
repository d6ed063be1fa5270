"""Characteristic flow on star-shaped boundaries and its ellipsoid model.

On a planar star-shaped boundary the characteristic advances at unit
sector-area rate: the angle moves so that the swept sector area equals the
elapsed time, and one period equals the enclosed area. The flow extends
1-homogeneously off the boundary (angles independent of the level). On a
2-product boundary the flow splits factor-wise at full speed, which makes it
conjugate, through the factor-wise disk map psi, to the Reeb rotation on the
matching ellipsoid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diskmap import product_map
from .geometry2d import EllipsoidSpec, TWO_PI
from .product import boundary_sample, common_area, factorwise, two_product


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

    def ambient(self, factors):
        """Reconstruct the point in complex coordinates."""
        radii = np.array([f.radius(t) for f, t in zip(factors, self.angles)])
        return self.levels * radii * np.exp(1j * self.angles)


def char_flow_2d(profile, z, t):
    """Closed-form characteristic flow: sector area swept equals t.

    The gauge level is conserved exactly and the origin is fixed. Time is in
    area units; the minimal period on the boundary equals the domain area.
    """
    z = np.asarray(z, dtype=complex)
    r = np.abs(z)
    theta = np.mod(np.angle(z), TWO_PI)
    level = np.where(r == 0.0, 0.0, r / profile.radius(theta))
    theta2 = np.mod(
        profile.inverse_sector_area(profile.sector_area(theta) + t), TWO_PI)
    out = level * profile.radius(theta2) * np.exp(1j * theta2)
    out = np.where(r == 0.0, 0.0 + 0.0j, out)
    return complex(out) if out.ndim == 0 else out


def reeb_ellipsoid(spec, z, t):
    """Reeb flow on E(a_1, ..., a_n): z_i -> e^{i 2 pi t / a_i} z_i."""
    if not isinstance(spec, EllipsoidSpec):
        spec = EllipsoidSpec(spec)
    z = np.asarray(z, dtype=complex)
    phases = np.exp(1j * TWO_PI * t / np.asarray(spec.areas))
    return z * phases


# Largest |sum pi |z_i|^2 / a_i - 1| accepted as the ellipsoid boundary.
ELLIPSOID_BOUNDARY_TOL = 1e-8


def conjugacy_residual(factors, z, t):
    """Distance between psi(Reeb^t z) and Phi^t(psi(z)); zero up to rounding.

    psi is diskmap.product_map, which carries the boundary of the ellipsoid
    E(a_1, ..., a_n) onto the product boundary; Phi^t is char_flow_2d in
    every factor. ``z`` holds points of the ellipsoid boundary along its
    last axis and ``t`` one time per point; one point gives a float.
    ``factors`` is a sequence of profiles or a 2-product (two_product).
    """
    factors = two_product(factors).factors
    areas = np.array([f.area for f in factors])
    z = np.asarray(z, dtype=complex)
    t = np.asarray(t, dtype=float)
    level = np.sum(np.pi * np.abs(z) ** 2 / areas, axis=-1)
    if np.any(np.abs(level - 1.0) > ELLIPSOID_BOUNDARY_TOL):
        raise ValueError("point is not on the ellipsoid boundary")
    lhs, start = product_map(
        factors, np.stack([reeb_ellipsoid(areas, z, t[..., None]), z]))
    rhs = factorwise(char_flow_2d, factors, start, t)
    out = np.sqrt(np.sum(np.abs(lhs - rhs) ** 2, axis=-1))
    return float(out) if out.ndim == 0 else out


def sample_conjugacy_residuals(factors, count, seed):
    """conjugacy_residual at ``count`` seeded points of the ellipsoid boundary.

    Draws, in this order: Dirichlet area fractions (count, n), uniform
    angles (count, n) and times uniform in +-2 max(area), then returns the
    residual per sample.
    """
    factors = two_product(factors).factors
    areas = np.array([f.area for f in factors])
    rng = np.random.default_rng(seed)
    t_frac = rng.dirichlet(np.ones(len(factors)), size=count)
    ang = rng.uniform(0.0, TWO_PI, size=(count, len(factors)))
    times = rng.uniform(-2.0, 2.0, count) * float(np.max(areas))
    z = np.sqrt(t_frac * areas / np.pi) * np.exp(1j * ang)
    return conjugacy_residual(factors, z, times)


ACTIVE_LEVEL = 1e-12


def orbit_period(domain, point, denominator_bound=1000):
    """Least closing time of the product flow, or None within the bound.

    Closure requires t to be an integer multiple of every active factor's
    area. Candidate multiples of the largest active area are scanned, and
    a fractional turn count within 1e-8 of an integer counts as closed.
    """
    factors = two_product(domain).factors
    areas = [f.area for f in factors]
    active = [i for i in range(len(factors))
              if point.levels[i] > ACTIVE_LEVEL]
    if not active:
        return None
    if len(active) == 1:
        return areas[active[0]]

    a_max = max(areas[i] for i in active)
    others = [areas[i] for i in active]
    for k in range(1, denominator_bound + 1):
        t = k * a_max
        turns = np.array([t / a for a in others])
        if np.all(np.abs(turns - np.round(turns)) <= 1e-8):
            return t
    return None


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

    The points are product.boundary_sample draws on the 2-product; an orbit
    closes when |Phi^a(z) - z| <= 1e-8.
    """
    domain = two_product(domain)
    a = common_area(domain)
    start = boundary_sample(domain, count, seed)
    end = factorwise(char_flow_2d, domain.factors, start, a)
    dev = np.max(np.abs(end - start), axis=-1)
    failures = int(np.count_nonzero(dev > 1e-8))
    return FoliationReport(area=a, samples=count, seed=seed,
                           passed=failures == 0,
                           worst_deviation=float(np.max(dev, initial=0.0)),
                           failures=failures)
