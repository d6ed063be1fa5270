"""Ellipsoid capacity tables, the Zoll criterion, and boundary shrinking.

Capacities of a 2-product are evaluated on its ellipsoid model (the factor
areas): the k-th value is the k-th smallest element of the multiset
{i * a_j : i >= 1}. The shrinking experiment removes a boundary window from
each factor and certifies, by sampling, that the product minus a
neighborhood of the removed boundary lands inside the shrunken product,
which drops the first capacity from a to a'.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from itertools import count

import numpy as np

from .geometry2d import EllipsoidSpec, RadialProfile, TWO_PI
from .product import ProductDomain, sample_complex_box


@dataclass(frozen=True)
class CapacityTable:
    areas: tuple
    values: tuple

    @property
    def c1(self):
        return self.values[0]

    def __getitem__(self, k):
        return self.values[k]


def _areas_of(spec):
    """Factor areas; a plain sequence must pass EllipsoidSpec's checks."""
    if isinstance(spec, ProductDomain):
        return tuple(spec.factor_areas)
    if not isinstance(spec, EllipsoidSpec):
        spec = EllipsoidSpec(spec)
    return spec.areas


def gh_capacities(spec, K):
    """First K ellipsoid capacities: an n-way merge of {i * a_j : i >= 1}."""
    if K < 1:
        raise ValueError("need K >= 1")
    areas = _areas_of(spec)
    streams = [map(float(a).__mul__, count(1)) for a in areas]
    merged = heapq.merge(*streams)
    values = tuple(v for v, _ in zip(merged, range(K)))
    return CapacityTable(areas=areas, values=values)


def zoll_check(spec):
    """True iff c_1 = c_n on the ellipsoid model (equal-area products)."""
    areas = _areas_of(spec)
    n = len(areas)
    table = gh_capacities(areas, n)
    c1, cn = table.values[0], table.values[-1]
    return c1 == cn, c1, cn


# -- boundary shrinking -----------------------------------------------------

def _bump(theta, center, width):
    """Raised-cosine window, 1 at the center, 0 outside [c - w, c + w]."""
    u = np.mod(theta - center + np.pi, TWO_PI) - np.pi
    inside = np.abs(u) < width
    return np.where(inside, 0.5 * (1.0 + np.cos(np.pi * u / width)), 0.0)


def _shrunken_samples(profile, center, width, amplitude):
    theta = np.arange(profile.N) * (TWO_PI / profile.N)
    return profile.samples * (1.0 - amplitude * _bump(theta, center, width))


def shrink_profile(profile, direction, width, target_area, tol=1e-8):
    """Remove area near one boundary direction, keeping star-shapedness.

    Multiplies R by 1 - A * bump(theta) inside the angular window and solves
    the amplitude A by bisection so the new area equals ``target_area``.
    Raises ValueError when the window cannot absorb the requested removal.
    """
    a = profile.area
    if target_area > a:
        raise ValueError("target area exceeds the current area")
    if target_area == a:
        return profile
    if not 0.0 < width < np.pi:
        raise ValueError("window half-width must lie in (0, pi)")

    def area_at(amp):
        return RadialProfile(
            _shrunken_samples(profile, direction, width, amp),
            profile.interpolation).area

    amp_cap = 0.999
    if area_at(amp_cap) > target_area:
        raise ValueError(
            "requested area removal exceeds what the window can absorb")

    lo, hi = 0.0, amp_cap
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        val = area_at(mid)
        if abs(val - target_area) <= tol:
            lo = hi = mid
            break
        if val > target_area:
            lo = mid
        else:
            hi = mid
    return RadialProfile(
        _shrunken_samples(profile, direction, width, 0.5 * (lo + hi)),
        profile.interpolation)


@dataclass
class BoundaryMinimalReport:
    area: float
    target_area: float
    capacity_gap: float
    eta: float
    samples: int
    checked: int
    seed: int
    violations: int
    worst_gauge: float
    offenders: list = field(default_factory=list)

    @property
    def passed(self):
        return self.violations == 0


def boundary_minimal_experiment(factors, point, width, target_area,
                                samples, seed, eta=None):
    """Shrink every factor near a boundary point and test the containment.

    ``point`` is a dynamics.FlowPoint on the product boundary with every
    level positive (windows centered on its factor angles). The excluded
    open set U consists of points whose product gauge lies in
    (1 - eta, 1 + eta) and whose angle in *some* factor falls inside that
    factor's window; eta defaults to the largest relative radial shrink
    plus a margin, which makes the containment
    product \\ U  subset  shrunken product hold with room to spare.
    """
    factors = list(factors)
    areas = np.array([f.area for f in factors])
    if np.max(areas) - np.min(areas) > 1e-10:
        raise ValueError("experiment requires equal factor areas")
    a = float(areas[0])
    if not target_area < a:
        raise ValueError("target area must be strictly below the common area")
    if np.any(point.levels <= 0.0):
        raise ValueError(
            "boundary point must have all factor coordinates nonzero")

    directions = point.angles
    shrunk = [shrink_profile(f, directions[i], width, target_area)
              for i, f in enumerate(factors)]
    rel_shrink = max(
        float(np.max(1.0 - s.samples / f.samples))
        for f, s in zip(factors, shrunk))
    if eta is None:
        eta = min(0.999, rel_shrink + 0.02)
    elif eta < rel_shrink:
        raise ValueError(
            f"eta={eta} is below the relative shrink {rel_shrink:.3f}; "
            "the excluded set would miss removed boundary")

    domain = ProductDomain(factors, p=2.0)
    shrunk_domain = ProductDomain(shrunk, p=2.0)

    rng = np.random.default_rng(seed)
    radii = domain.bounding_radii()
    checked = 0
    violations = 0
    worst = 0.0
    offenders = []
    remaining = samples
    while remaining > 0:
        draw = min(1 << 16, max(4096, remaining))
        pts = sample_complex_box(rng, radii, draw)
        gauge = domain.gauge(pts)
        inside = gauge <= 1.0
        pts = pts[inside]
        gauge = gauge[inside]
        remaining -= pts.shape[0]

        in_window = np.zeros(pts.shape[0], dtype=bool)
        for i in range(len(factors)):
            ang = np.mod(np.angle(pts[:, i]), TWO_PI)
            u = np.mod(ang - directions[i] + np.pi, TWO_PI) - np.pi
            in_window |= np.abs(u) < width
        in_u = in_window & (gauge > 1.0 - eta)
        test = pts[~in_u]
        if test.shape[0] == 0:
            continue
        g2 = shrunk_domain.gauge(test)
        bad = g2 > 1.0
        checked += test.shape[0]
        violations += int(np.count_nonzero(bad))
        if np.any(bad):
            for idx in np.flatnonzero(bad)[:5]:
                offenders.append((test[idx], float(g2[idx])))
        worst = max(worst, float(np.max(g2)))

    return BoundaryMinimalReport(
        area=a, target_area=target_area, capacity_gap=a - target_area,
        eta=float(eta), samples=samples, checked=checked, seed=seed,
        violations=violations, worst_gauge=worst, offenders=offenders)
