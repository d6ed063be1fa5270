"""Ellipsoid capacity tables, the Zoll criterion, and boundary shrinking.

Capacities of a 2-product are evaluated on its ellipsoid model (the factor
areas): the k-th value is the k-th smallest element of the multiset
{i * a_j : i >= 1}. The shrinking experiment removes a boundary window from
each factor and certifies, by sampling, that the product minus a
neighborhood of the removed boundary lands inside the shrunken product,
which drops the first capacity from a to a'. Its uniform samples of the
product are psi (diskmap.product_map) of uniform samples of the ellipsoid
of the factor areas (product.ellipsoid_sample).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from itertools import count

import numpy as np

from .diskmap import product_map
from .geometry2d import RadialProfile, TWO_PI
from .product import (ProductDomain, check_integer, common_area,
                      ellipsoid_areas, ellipsoid_sample, mc_slices,
                      two_product)


@dataclass(frozen=True)
class CapacityTable:
    areas: tuple
    values: tuple


def gh_capacities(areas, K):
    """First K ellipsoid capacities: an n-way merge of {i * a_j : i >= 1}."""
    areas = ellipsoid_areas(areas)
    check_integer("K", K, least=1)
    streams = [map(float(a).__mul__, count(1)) for a in areas]
    merged = heapq.merge(*streams)
    values = tuple(v for v, _ in zip(merged, range(K)))
    return CapacityTable(areas=areas, values=values)


def zoll_check(areas):
    """True iff c_1 = c_n on the ellipsoid model (equal-area products)."""
    values = gh_capacities(areas, len(areas)).values
    c1, cn = values[0], values[-1]
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


def shrink_profile(profile, direction, width, target_area):
    """Remove area near one boundary direction, keeping star-shapedness.

    Multiplies R by 1 - A * bump(theta) inside the angular window, with the
    amplitude A chosen so the new area equals ``target_area``. The samples,
    hence the linear or cubic interpolant, are linear in A, so the area is
    a quadratic q(A); builds at A = 0, 1/2 and 0.999 fix it, and A is its
    root in closed form. Raises ValueError when the window cannot absorb
    the requested removal.
    """
    a = profile.area
    if target_area > a:
        raise ValueError("target area exceeds the current area")
    if target_area == a:
        return profile
    if not 0.0 < width < np.pi:
        raise ValueError("window half-width must lie in (0, pi)")

    def build(amp):
        return RadialProfile(
            _shrunken_samples(profile, direction, width, amp),
            profile.interpolation)

    half, amp_cap = 0.5, 0.999
    area_cap = build(amp_cap).area
    if area_cap > target_area:
        raise ValueError(
            "requested area removal exceeds what the window can absorb")

    # q(A) = a + c1 A + c2 A^2 with c1 < 0 < c2; the smaller root of
    # q(A) = target, written to avoid cancellation.
    slope_half = (build(half).area - a) / half
    slope_cap = (area_cap - a) / amp_cap
    c2 = (slope_cap - slope_half) / (amp_cap - half)
    c1 = slope_half - c2 * half
    gap = a - target_area
    disc = max(c1 * c1 - 4.0 * c2 * gap, 0.0)
    return build(2.0 * gap / (np.sqrt(disc) - c1))


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
                                samples, seed):
    """Shrink every factor near a boundary point and test the containment.

    ``factors`` is a sequence of profiles or a ProductDomain with p = 2
    (product.two_product), all of one area. ``point`` is a
    dynamics.FlowPoint on the product boundary with every level positive
    (windows centered on its factor angles). The excluded open set U
    consists of points whose product gauge lies in (1 - eta, 1 + eta) and
    whose angle in *some* factor falls inside that factor's window; eta
    is the largest relative radial shrink plus a margin, which makes the
    containment product \\ U  subset  shrunken product hold with room to
    spare. The ``samples`` test points are psi of product.ellipsoid_sample
    draws seeded by ``seed``, uniform on the product. The draw is one call;
    psi and both gauges then run product.MC_SLICE points at a time.
    """
    check_integer("samples", samples)
    domain = two_product(factors)
    factors = domain.factors
    a = common_area(domain)
    if not target_area < a:
        raise ValueError("target area must be strictly below the common area")
    point.check_factors(len(factors))
    if np.any(point.levels <= 0.0):
        raise ValueError(
            "boundary point must have all factor coordinates nonzero")

    directions = point.angles
    shrunk = [shrink_profile(f, directions[i], width, target_area)
              for i, f in enumerate(factors)]
    rel_shrink = max(
        float(np.max(1.0 - s.samples / f.samples))
        for f, s in zip(factors, shrunk))
    eta = min(0.999, rel_shrink + 0.02)

    draws = ellipsoid_sample(
        np.random.default_rng(seed), domain.factor_areas, samples)
    shrunk_domain = ProductDomain(shrunk)
    checked = violations = 0
    worst = [0.0]
    offenders = []
    for part in mc_slices(samples):
        pts = product_map(factors, draws[part])
        u = np.mod(np.angle(pts) - directions + np.pi, TWO_PI) - np.pi
        in_window = np.any(np.abs(u) < width, axis=-1)
        test = pts[~(in_window & (domain.gauge(pts) > 1.0 - eta))]
        g2 = shrunk_domain.gauge(test)
        bad = np.flatnonzero(g2 > 1.0)
        offenders += [(test[idx], float(g2[idx]))
                      for idx in bad[:5 - len(offenders)]]
        checked += test.shape[0]
        violations += bad.size
        worst.append(np.max(g2, initial=0.0))

    return BoundaryMinimalReport(
        area=a, target_area=target_area, capacity_gap=a - target_area,
        eta=float(eta), samples=samples, checked=checked, seed=seed,
        violations=violations, worst_gauge=float(np.max(worst)),
        offenders=offenders)
