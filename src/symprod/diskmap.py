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
whose trajectories meet the ramp in between.

The epsilon-sandwich of a 2-product is decided by sandwich_bound, a closed
form that proves both inclusions for every point of E in O(n).
sandwich_check reports that bound and cross-checks it by Monte Carlo: the
ramp coordinates of every factor and of both directions go through one
RK4 loop at the given step count, since every operation of the loop is
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
    whose trajectories meet the ramp. No library code reads ``epsilon``;
    the field stays only because perfbench/workloads.py still passes it.
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


def _exact_level(profile, delta):
    """lev^2 from which a trajectory stays where rho = 1: l* of _banded_map."""
    return RAMP_HI * delta / min(profile.area, np.pi * profile.min_radius ** 2)


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


def _rk4(table, which, z, inverse, steps):
    """Fixed-step RK4 of the cutoff field with per-point start times.

    Each point moves in the field of its factor ``which`` (an index into
    ``table``, per point or one for all). Points with ``inverse`` set (a
    mask, or one flag for all) run backwards from t = 1, the others
    forwards from t = 0, all in ``steps`` steps of length 1/steps. Every
    operation is elementwise, so each point's result is bit-identical to
    a run of its group alone, in a table of its factor alone.
    """
    z = np.array(z, dtype=complex)
    inverse = np.broadcast_to(inverse, z.shape)
    points = table.points(np.broadcast_to(which, z.shape))
    dt = np.where(inverse, -1.0, 1.0) / steps
    t = np.where(inverse, 1.0, 0.0)
    for _ in range(steps):
        k1 = _cutoff_velocity(table, points, z, t)
        k2 = _cutoff_velocity(table, points, z + 0.5 * dt * k1, t + 0.5 * dt)
        k3 = _cutoff_velocity(table, points, z + 0.5 * dt * k2, t + 0.5 * dt)
        k4 = _cutoff_velocity(table, points, z + dt * k3, t + dt)
        z += (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t = t + dt
    return z


def _banded_map(profile, config, z, inverse):
    """Closed-form bands of cutoff_disk_map on a 1-d array, plus the ramp.

    ``inverse`` marks the points to map backwards (a mask, or one flag for
    all). Where rho = 1 the flow conserves lev^2 (pi|z|^2/a at t = 0,
    gauge^2 at t = 1) and moves points along |z_t|^2 = lev^2 R_t(phi)^2
    with R_t^2 = (1 - t) a/pi + t R^2 >= min(a/pi, R_min^2). A trajectory
    with lev^2 >= l* = RAMP_HI delta / min(a, pi R_min^2) (_exact_level)
    therefore never leaves rho = 1, and its time-1 map is psi (psi^-1
    backwards). The field vanishes where pi|z|^2 <= RAMP_LO delta, so such
    points are fixed. Points of the ramp band in between are returned
    unchanged, for _rk4.
    """
    inverse = np.broadcast_to(inverse, z.shape)
    pi_u = np.pi * np.abs(z) ** 2
    lev2 = pi_u / profile.area
    if np.any(inverse):
        lev2[inverse] = profile.gauge(z[inverse]) ** 2
    exact = lev2 >= _exact_level(profile, config.delta)
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
class SandwichBound:
    """Outcome of sandwich_bound.

    Per factor: ``deltas`` is its cutoff level (sandwich_delta),
    ``eta_out`` and ``eta_in`` bound its outer and inner excesses, and
    ``exact_level`` is its l*. ``outer_bound`` bounds the product gauge
    on Psi(E), and ``inner_bound`` the E-gauge on the preimage of
    (1 - eps) X.
    """

    deltas: list
    eta_out: list
    eta_in: list
    exact_level: list
    outer_bound: float
    inner_bound: float


def sandwich_bound(factors, epsilon):
    """Closed-form proof of (1-eps) X  subset  Psi(E)  subset  (1+eps) X.

    ``factors`` is a sequence of profiles or a ProductDomain with p = 2;
    each factor's cutoff map Phi uses its sandwich_delta. Psi acts factor
    by factor, and at p = 2 both gauges are sums of squares over the
    factors, so it suffices to bound each factor's excesses

        eta_out = sup_z [g(Phi(z))^2 - pi|z|^2/a],
        eta_in  = sup_w [pi|Phi^-1(w)|^2/a - g(w)^2],

    with g the factor's gauge. Then every z in E has
    G(Psi(z))^2 <= 1 + sum eta_out = outer_bound^2, and every w in
    (1-eps) X has E-gauge(Psi^-1(w))^2 <= (1-eps)^2 + sum eta_in =
    inner_bound^2. The sandwich holds for all of E when
    outer_bound <= 1 + eps and inner_bound <= 1.

    Per factor write lev^2 = pi|z|^2/a, c = RAMP_LO delta / a,
    k_min = a / (pi R_min^2), k_max = a / (pi R_max^2) and l* for
    _exact_level. Phi has three regions:
    - lev^2 >= l*: the trajectory stays where rho = 1 (_banded_map), so
      Phi = psi and g(Phi(z))^2 = lev^2 (criterion-02). In particular Phi
      carries the circle C = {lev^2 = l*} onto the curve {g^2 = l*}.
    - lev^2 <= c: the field vanishes, so Phi(z) = z, and
      g(z)^2 = |z|^2 / R(arg z)^2 lies between k_max lev^2 and
      k_min lev^2.
    - In between: Phi is a homeomorphism of the plane, so (Jordan curve
      theorem) it carries the disk inside C onto {g^2 <= l*}; it fixes
      the disk {lev^2 <= c} pointwise, so it carries the annulus between
      onto {g^2 <= l*} minus that disk.
    Hence eta_out <= max(l* - c, c (k_min - 1)): an annulus point has
    lev^2 > c and g(Phi(z))^2 <= l*, and a fixed point gains at most
    c (k_min - 1). And eta_in <= max(l* - c k_max, c max(0, 1 - k_max)):
    an annulus image w has lev^2(Phi^-1(w)) <= l* and, being outside the
    fixed disk, g(w)^2 > c k_max; a fixed point gains at most
    c max(0, 1 - k_max). Both maxima are positive, since l* > c and
    l* > c k_max, so they also cover the exact region's excess of 0.

    Phi is a homeomorphism when the trajectories of its flow are unique.
    On cubic profiles the field is C^1, so they are. On linear profiles R'
    jumps at every node ray, and so does the field's radial term, but
    that jump carries the factor S - (a/2pi) theta of f_t, which the
    angular speed also carries, and the angular speed is continuous.
    Where it is not 0 a trajectory crosses the ray transversally; where
    it is 0 the field is continuous and the ray is invariant. The bound
    is about the exact flow: the RK4 map of sandwich_check is only its
    cross-check, and on linear profiles it is not continuous.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    factors = two_product(factors).factors
    deltas = [sandwich_delta(f, epsilon, len(factors)) for f in factors]
    eta_out, eta_in, levels = [], [], []
    for f, delta in zip(factors, deltas):
        level = _exact_level(f, delta)
        c = RAMP_LO * delta / f.area
        k_min = f.area / (np.pi * f.min_radius ** 2)
        k_max = f.area / (np.pi * f.max_radius ** 2)
        eta_out.append(max(level - c, c * (k_min - 1.0)))
        eta_in.append(max(level - c * k_max, c * max(0.0, 1.0 - k_max)))
        levels.append(level)
    return SandwichBound(
        deltas, eta_out, eta_in, levels, float(np.sqrt(1.0 + sum(eta_out))),
        float(np.sqrt((1.0 - epsilon) ** 2 + sum(eta_in))))


@dataclass
class SandwichReport:
    """Outcome of sandwich_check.

    ``outer_bound`` and ``inner_bound`` are sandwich_bound's. The other
    fields come from the Monte Carlo + RK4 cross-check: ``closed_form``
    counts the mapped coordinates (one per factor, sample and direction)
    that took psi, psi^-1 or the identity, and ``integrated`` counts those
    integrated by RK4 in the cutoff ramp.
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
    outer_bound: float
    inner_bound: float
    offenders: list = field(default_factory=list)

    @property
    def passed(self):
        """The bound proves the sandwich, and no sample exceeds the bound.

        The worst gauges within the bounds imply zero violations.
        """
        return (self.outer_bound <= 1.0 + self.epsilon
                and self.inner_bound <= 1.0
                and self.worst_outer_gauge <= self.outer_bound
                and self.worst_inner_gauge <= self.inner_bound)


def sandwich_check(factors, epsilon, samples, seed, steps=64):
    """Verify (1-eps) product  subset  Psi(E)  subset  (1+eps) product.

    ``factors`` is a sequence of profiles or a ProductDomain with p = 2
    (product.two_product). The verdict is sandwich_bound's closed form,
    cross-checked by Monte Carlo. Outer direction: map seeded uniform
    samples of E(a_1, ..., a_n) through the cutoff map and check product
    gauge <= 1 + eps. Inner direction: draw samples of (1-eps) * product,
    pull back per factor by the inverse cutoff map, and check the preimage
    lies in E. ``steps`` is the RK4 step count for coordinates in the
    cutoff ramp; every factor's ramp coordinates, of both directions, go
    through one _rk4 call.
    """
    bound = sandwich_bound(factors, epsilon)
    domain = two_product(factors)
    factors = domain.factors
    areas = np.array(domain.factor_areas)
    configs = [CutoffMapConfig(delta=d, steps=steps) for d in bound.deltas]
    ellipsoid_gauge = EllipsoidSpec(areas).gauge
    rng = np.random.default_rng(seed)

    # Outer: samples of E, pushed forward. Inner: samples of
    # (1 - eps) * product, pulled back. Rows past ``samples`` are inner.
    ellipsoid_pts = rejection_sample(rng, np.sqrt(areas / np.pi),
                                     ellipsoid_gauge, samples)
    target = rejection_sample(
        rng, (1.0 - epsilon) * domain.bounding_radii(),
        lambda pts: domain.gauge(pts) / (1.0 - epsilon), samples)
    pts = np.concatenate([ellipsoid_pts, target])
    inverse = np.arange(2 * samples) >= samples

    image = np.empty_like(pts)
    ramps = np.empty(pts.shape, dtype=bool)
    for i, (f, cfg) in enumerate(zip(factors, configs)):
        image[:, i], ramps[:, i] = _banded_map(f, cfg, pts[:, i], inverse)
    rows, cols = np.nonzero(ramps)
    if rows.size:
        image[rows, cols] = _rk4(_CellTable(factors, configs), cols,
                                 pts[rows, cols], inverse[rows], steps)

    outer_gauge = domain.gauge(image[:samples])
    inner_gauge = ellipsoid_gauge(image[samples:])
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
        deltas=bound.deltas,
        violations_outer=int(np.count_nonzero(outer_bad)),
        violations_inner=int(np.count_nonzero(inner_bad)),
        worst_outer_gauge=float(np.max(outer_gauge)),
        worst_inner_gauge=float(np.max(inner_gauge)),
        closed_form=ramps.size - integrated,
        integrated=integrated,
        outer_bound=bound.outer_bound,
        inner_bound=bound.inner_bound,
        offenders=offenders,
    )
