"""Area-preserving maps from disks onto star-shaped planar domains.

The primary object is the exact 1-homogeneous map

    psi(rho e^{i theta}) = rho sqrt(pi/a) R(phi(theta)) e^{i phi(theta)},

where phi is the monotone circle map solving S(phi(theta)) = (a / 2 pi) theta
for the cumulative sector area S. It preserves area wherever R is C^1 and
carries each circle of enclosed area A onto the sqrt(A/a)-scaled boundary.

A separate cutoff construction smooths the map near the origin: it is the
time-1 map of a time-dependent Hamiltonian rho(|z|^2) f_t(arg z) pi|z|^2/a,
with rho a cutoff that vanishes near 0. Where rho = 1 the flow is the
interpolated isotopy whose time-1 map is psi, and where rho = 0 it is the
identity, so cutoff_disk_map uses those closed forms for every trajectory
that stays in one of the two regions and integrates (RK4) only the points
whose trajectories meet the ramp in between. sandwich_check uses it for the
epsilon-sandwich, with a step-doubling error estimate for those points:
the ramp coordinates of every factor, of both directions and at both step
counts, go through one RK4 loop, since every operation of the loop is
elementwise. The field reads R, R' and S for each point from one table
that stacks the factors' per-cell polynomials (_CellTable), with one angle
reduction and one cell lookup per point.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from .geometry2d import EllipsoidSpec, TWO_PI, horner
from .product import factorwise, rejection_sample, two_product


def disk_to_domain(profile, z):
    """Exact 1-homogeneous area-preserving map of D(area) onto the domain."""
    z = np.asarray(z, dtype=complex)
    a = profile.area
    rho = np.abs(z)
    phi = profile.inverse_sector_area(np.angle(z) * (a / TWO_PI))
    out = rho * np.sqrt(np.pi / a) * profile.radius(phi) * np.exp(1j * phi)
    out = np.where(rho == 0.0, 0.0 + 0.0j, out)
    return complex(out) if out.ndim == 0 else out


def domain_to_disk(profile, w):
    """Inverse of disk_to_domain."""
    w = np.asarray(w, dtype=complex)
    a = profile.area
    alpha = np.angle(w)
    level = np.abs(w) / profile.radius(alpha)
    theta = profile.sector_area(alpha) * (TWO_PI / a)
    out = level * np.sqrt(a / np.pi) * np.exp(1j * theta)
    out = np.where(np.abs(w) == 0.0, 0.0 + 0.0j, out)
    return complex(out) if out.ndim == 0 else out


def jacobian_determinant(profile, z):
    """Central-difference Jacobian determinant of disk_to_domain at z.

    The step is h = 1e-5 |z| per point, so z must avoid the origin.
    """
    h = 1e-5 * np.abs(z)
    dx = (disk_to_domain(profile, z + h) -
          disk_to_domain(profile, z - h)) / (2.0 * h)
    dy = (disk_to_domain(profile, z + 1j * h) -
          disk_to_domain(profile, z - 1j * h)) / (2.0 * h)
    return dx.real * dy.imag - dx.imag * dy.real


def product_map(factors, z):
    """Factor-wise disk_to_domain on a point of R^{2n} (complex length n)."""
    return factorwise(disk_to_domain, factors, z)


# -- cutoff (smoothed) map --------------------------------------------------

# The smoothing ramp runs over [RAMP_LO, RAMP_HI] * delta / pi in |z|^2,
# leaving a safety band so trajectories started at pi |z|^2 >= delta stay
# in the exact regime whenever pi R_min^2 / a >= RAMP_HI (0.64 for the
# Weierstrass preset, 0.79 for the square).
RAMP_LO = 0.2
RAMP_HI = 0.6


@dataclass
class CutoffMapConfig:
    """Parameters of the smoothed disk map.

    delta is the cutoff level in area units: the Hamiltonian is frozen well
    below it and untouched for pi |z|^2 >= delta; the ramp in between is
    set by RAMP_LO and RAMP_HI. ``steps`` is the RK4 step count for points
    whose trajectories meet the ramp.
    """

    delta: float
    steps: int = 256
    epsilon: float = 0.05

    def __post_init__(self):
        if not 0.0 < self.delta < np.inf:
            raise ValueError("cutoff level delta must be finite and positive")
        if not isinstance(self.steps, numbers.Integral):
            raise ValueError("integration step count must be an integer")
        if self.steps < 8:
            raise ValueError("need at least 8 integration steps")


def sandwich_delta(profile, epsilon, n_factors):
    """Cutoff level delta = 0.9 a eps'^2 with eps' = 0.9 sqrt(eps/n)."""
    eps_prime = 0.9 * np.sqrt(epsilon / n_factors)
    return 0.9 * profile.area * eps_prime ** 2


class _CellTable:
    """The cutoff fields of several factors, stacked for one RK4 loop.

    ``coef`` holds every factor's per-cell polynomials of R, R' and S
    (RadialProfile.cell_polynomials, the tables behind the profile's own
    methods) in one column per cell, padded with zeros to the highest
    degree present, which leaves each factor's Horner values unchanged.
    ``params`` and ``cells`` hold one column per factor: cell width,
    a/2pi, pi/a, the ramp's lower end and width in |z|^2, then the last
    cell and the factor's first column in ``coef``.
    """

    def __init__(self, factors, configs):
        polys = [f.cell_polynomials() for f in factors]
        ends = np.cumsum([max(p[k].shape[1] for p in polys) for k in range(3)])
        self.rows = (slice(0, ends[0]), slice(ends[0], ends[1]),
                     slice(ends[1], ends[2]))
        sizes = np.array([f.N for f in factors])
        first = np.cumsum(sizes) - sizes
        self.coef = np.zeros((ends[-1], sizes.sum()))
        for poly, start, size in zip(polys, first, sizes):
            for c, rows in zip(poly, self.rows):
                self.coef[rows.start:rows.start + c.shape[1],
                          start:start + size] = c.T
        self.params = np.array([
            [TWO_PI / f.N for f in factors],
            [f.area / TWO_PI for f in factors],
            [np.pi / f.area for f in factors],
            [RAMP_LO * c.delta / np.pi for c in configs],
            [(RAMP_HI - RAMP_LO) * c.delta / np.pi for c in configs]])
        self.cells = np.array([sizes - 1, first])

    def points(self, which):
        """Per-point (params, cells) for points of factors ``which``."""
        return self.params[:, which], self.cells[:, which]


def _cutoff_velocity(table, points, z, t):
    """Hamiltonian vector field of rho(|z|^2) f_t(arg z) pi |z|^2 / a.

    rho is a quintic smoothstep across each point's ramp: 0 below
    RAMP_LO delta / pi in u = |z|^2, 1 above RAMP_HI delta / pi, C^2
    across. f_t is the contact Hamiltonian of the interpolated isotopy
    S_t = (1 - t) S_disk + t S on the circle: f_t = -(a/2pi)(S - S_disk)/S_t'
    with S_t' = (1 - t) a/2pi + t R^2/2. Its angle derivative is analytic:
    with num = S - (a/2pi) theta and den = S_t', num' = R^2/2 - a/2pi and
    den' = t R R'. R, R' and S come from one angle reduction and one cell
    lookup per point in ``table``; ``points`` is table.points(...) of z.
    """
    (h, rate, scale, lo, span), (last, first) = points
    u = z.real ** 2 + z.imag ** 2
    x = np.minimum(np.maximum((u - lo) / span, 0.0), 1.0)
    rho = x ** 3 * (10.0 + x * (-15.0 + 6.0 * x))
    rho_d = 30.0 * (x * (1.0 - x)) ** 2 / span

    # np.mod may round a tiny negative angle up to 2 pi; the clamp to the
    # last cell then evaluates that cell's end, where S = a.
    theta = np.mod(np.arctan2(z.imag, z.real), TWO_PI)
    j = np.minimum((theta / h).astype(np.int64), last)
    s = theta - j * h
    coef = np.take(table.coef, j + first, axis=1)
    r_rows, rd_rows, s_rows = table.rows
    r = horner(coef[r_rows], s)
    half_r2 = 0.5 * r * r
    num = horner(coef[s_rows], s) - rate * theta
    den = (1.0 - t) * rate + t * half_r2
    f = -rate * num / den
    fd = -rate * ((half_r2 - rate) * den -
                  num * t * r * horner(coef[rd_rows], s)) / den ** 2
    return scale * (2.0 * (rho_d * u + rho) * f * 1j * z - rho * fd * z)


def _rk4(table, which, z, inverse, steps, n_full=None):
    """Fixed-step RK4 of the cutoff field with per-point start times and steps.

    Each point moves in the field of its factor ``which`` (an index into
    ``table``, per point or one for all). Points with ``inverse`` set (a
    mask, or one flag for all) run backwards from t = 1, the others
    forwards from t = 0. The first ``n_full`` points (all by default) take
    ``steps`` steps of length 1/steps; the trailing points take steps // 2
    steps of length 1/(steps // 2) and then drop out of the loop. Every
    operation is elementwise, so each point's result is bit-identical to
    a run of its group alone, in a table of its factor alone.
    """
    out = np.array(z, dtype=complex)
    inverse = np.broadcast_to(inverse, out.shape)
    params, cells = table.points(np.broadcast_to(which, out.shape))
    n_full = out.size if n_full is None else n_full
    counts = np.full(out.shape, steps)
    counts[n_full:] = steps // 2
    dt = np.where(inverse, -1.0, 1.0) / counts
    t = np.where(inverse, 1.0, 0.0)
    z = out
    for i in range(steps):
        if i == steps // 2:
            z, t, dt = z[:n_full], t[:n_full], dt[:n_full]
            params, cells = params[:, :n_full], cells[:, :n_full]
        points = params, cells
        k1 = _cutoff_velocity(table, points, z, t)
        k2 = _cutoff_velocity(table, points, z + 0.5 * dt * k1, t + 0.5 * dt)
        k3 = _cutoff_velocity(table, points, z + 0.5 * dt * k2, t + 0.5 * dt)
        k4 = _cutoff_velocity(table, points, z + dt * k3, t + dt)
        z += (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t = t + dt
    return out


def _banded_map(profile, config, z, inverse):
    """Closed-form bands of cutoff_disk_map on a 1-d array, plus the ramp.

    ``inverse`` marks the points to map backwards (a mask, or one flag for
    all). Where rho = 1 the flow conserves lev^2 (pi|z|^2/a at t = 0,
    gauge^2 at t = 1) and moves points along |z_t|^2 = lev^2 R_t(phi)^2
    with R_t^2 = (1 - t) a/pi + t R^2 >= min(a/pi, R_min^2). A trajectory
    with lev^2 min(a, pi R_min^2) >= RAMP_HI delta therefore never leaves
    rho = 1, and its time-1 map is psi (psi^-1 backwards). The field
    vanishes where pi|z|^2 <= RAMP_LO delta, so such points are fixed.
    Points of the ramp band in between are returned unchanged, for _rk4.
    """
    inverse = np.broadcast_to(inverse, z.shape)
    pi_u = np.pi * np.abs(z) ** 2
    lev2 = pi_u / profile.area
    if np.any(inverse):
        lev2[inverse] = profile.gauge(z[inverse]) ** 2
    floor = min(profile.area, np.pi * profile.min_radius ** 2)
    exact = lev2 * floor >= RAMP_HI * config.delta
    ramp = ~exact & (pi_u > RAMP_LO * config.delta)
    out = z.copy()
    for closed_form, band in ((disk_to_domain, exact & ~inverse),
                              (domain_to_disk, exact & inverse)):
        if np.any(band):
            out[band] = closed_form(profile, z[band])
    return out, ramp


def cutoff_disk_map(profile, config, z, inverse=False):
    """Time-1 map of the cutoff Hamiltonian flow.

    Smooth at the origin (identity in a neighborhood of 0) and equal to
    disk_to_domain wherever pi |z|^2 min(1, pi R_min^2 / a) >= RAMP_HI delta.
    Each point is sorted into one of three bands: trajectories that stay
    where rho = 1 get psi exactly, points where rho = 0 are returned
    unchanged, and the rest are integrated by RK4 with ``config.steps``
    fixed steps. With ``inverse`` set, the flow runs backwards from t = 1
    (psi^-1 in the exact band).
    """
    z = np.asarray(z, dtype=complex)
    flat = z.reshape(-1)
    out, ramp = _banded_map(profile, config, flat, inverse)
    if np.any(ramp):
        out[ramp] = _rk4(_CellTable([profile], [config]), 0, flat[ramp],
                         inverse, config.steps)
    return complex(out[0]) if z.ndim == 0 else out.reshape(z.shape)


# -- epsilon-sandwich check -------------------------------------------------

@dataclass
class SandwichReport:
    """Outcome of sandwich_check.

    ``closed_form`` counts the mapped coordinates (one per factor, sample
    and direction) that took psi, psi^-1 or the identity; ``integrated``
    counts those integrated by RK4 in the cutoff ramp. ``outer_error`` and
    ``inner_error`` are the largest step-doubling estimates of the gauge
    error of an integrated sample: |gauge at steps - gauge at steps // 2|.
    """

    epsilon: float
    samples: int
    seed: int
    deltas: list
    violations_outer: int
    violations_inner: int
    worst_outer_gauge: float
    worst_inner_gauge: float
    closed_form: int
    integrated: int
    outer_error: float
    inner_error: float
    offenders: list = field(default_factory=list)

    @property
    def passed(self):
        """No violation, and none within the error estimate of the bounds."""
        return (self.violations_outer == 0 and self.violations_inner == 0
                and self.worst_outer_gauge + self.outer_error
                <= 1.0 + self.epsilon
                and self.worst_inner_gauge + self.inner_error <= 1.0)


def sandwich_check(factors, epsilon, samples, seed, steps=64):
    """Verify (1-eps) product  subset  Psi(E)  subset  (1+eps) product.

    ``factors`` is a sequence of profiles or a ProductDomain with p = 2
    (product.two_product). Outer direction: map seeded uniform samples of
    E(a_1, ..., a_n) through the cutoff map and check product gauge
    <= 1 + eps. Inner direction: draw samples of (1-eps) * product, pull
    back per factor by the inverse cutoff map, and check the preimage lies
    in E. ``steps`` is the RK4 step count for coordinates in the cutoff
    ramp; those are also run at steps // 2 for an error estimate, which
    the verdict adds to the worst gauges. Every factor's ramp coordinates,
    of both directions and at both step counts, go through one _rk4 call.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    domain = two_product(factors)
    factors = domain.factors
    n = len(factors)
    areas = np.array(domain.factor_areas)
    deltas = [sandwich_delta(f, epsilon, n) for f in factors]
    configs = [CutoffMapConfig(delta=d, steps=steps, epsilon=epsilon)
               for d in deltas]
    ellipsoid_gauge = EllipsoidSpec(areas).gauge
    rng = np.random.default_rng(seed)

    # Outer: samples of E, pushed forward. Inner: samples of
    # (1 - eps) * product, pulled back. Rows past ``samples`` are inner.
    ellipsoid_pts = rejection_sample(rng, np.sqrt(areas / np.pi),
                                     ellipsoid_gauge, samples)
    box_radii = (1.0 - epsilon) * domain.bounding_radii()
    target = rejection_sample(
        rng, box_radii, lambda pts: domain.gauge(pts) / (1.0 - epsilon),
        samples)
    pts = np.concatenate([ellipsoid_pts, target])
    inverse = np.arange(2 * samples) >= samples

    image = np.empty_like(pts)
    ramps = np.empty(pts.shape, dtype=bool)
    for i, (f, cfg) in enumerate(zip(factors, configs)):
        image[:, i], ramps[:, i] = _banded_map(f, cfg, pts[:, i], inverse)
    coarse = image.copy()
    # Every ramp coordinate, at steps and then at steps // 2, in one loop.
    rows, cols = np.nonzero(ramps)
    if rows.size:
        fine_and_coarse = _rk4(
            _CellTable(factors, configs), np.tile(cols, 2),
            np.tile(pts[rows, cols], 2), np.tile(inverse[rows], 2), steps,
            n_full=rows.size)
        image[rows, cols], coarse[rows, cols] = np.split(fine_and_coarse, 2)

    outer_gauge, outer_error = _gauge_and_error(
        domain.gauge, image[:samples], coarse[:samples], ramps[:samples])
    inner_gauge, inner_error = _gauge_and_error(
        ellipsoid_gauge, image[samples:], coarse[samples:], ramps[samples:])
    outer_bad = outer_gauge > 1.0 + epsilon
    inner_bad = inner_gauge > 1.0

    offenders = []
    for idx in np.flatnonzero(outer_bad)[:5]:
        offenders.append(("outer", ellipsoid_pts[idx], float(outer_gauge[idx])))
    for idx in np.flatnonzero(inner_bad)[:5]:
        offenders.append(("inner", target[idx], float(inner_gauge[idx])))

    integrated = int(np.count_nonzero(ramps))
    return SandwichReport(
        epsilon=epsilon,
        samples=samples,
        seed=seed,
        deltas=deltas,
        violations_outer=int(np.count_nonzero(outer_bad)),
        violations_inner=int(np.count_nonzero(inner_bad)),
        worst_outer_gauge=float(np.max(outer_gauge)),
        worst_inner_gauge=float(np.max(inner_gauge)),
        closed_form=2 * n * samples - integrated,
        integrated=integrated,
        outer_error=float(np.max(outer_error)),
        inner_error=float(np.max(inner_error)),
        offenders=offenders,
    )


def _gauge_and_error(gauge_fn, image, coarse, ramps):
    """Gauge of each mapped sample and its step-doubling error estimate.

    ``coarse`` is ``image`` with the ramp coordinates taken at steps // 2;
    the estimate is 0 for samples with no coordinate in a ramp band.
    """
    gauge = gauge_fn(image)
    rows = np.any(ramps, axis=1)
    error = np.zeros_like(gauge)
    if np.any(rows):
        error[rows] = np.abs(gauge[rows] - gauge_fn(coarse[rows]))
    return gauge, error
