"""Area-preserving maps from disks onto star-shaped planar domains.

The primary object is the exact 1-homogeneous map

    psi(rho e^{i theta}) = rho sqrt(pi/a) R(phi(theta)) e^{i phi(theta)},

where phi is the monotone circle map solving S(phi(theta)) = (a / 2 pi) theta
for the cumulative sector area S. It preserves area wherever R is C^1 and
carries each circle of enclosed area A onto the sqrt(A/a)-scaled boundary.

A separate cutoff construction smooths the map near the origin: it is the
time-1 map Phi of a time-dependent Hamiltonian rho(|z|^2) f_t(arg z)
pi|z|^2/a, with rho a cutoff that vanishes near 0. Where rho = 1 the flow
is the interpolated isotopy whose time-1 map is psi, and where rho = 0 it
is the identity. The paper's product map Psi = Phi_1 x ... x Phi_n,
cutoff_product_map, uses those closed forms for every trajectory that
stays in one of the two regions. It integrates the rest, of every factor
and both directions, in one elementwise RK4 loop, whose field reads R, R'
and S for each point from one table of the factors' per-cell polynomials
(_cell_table): one cell lookup per point, at arctan2's angle moved onto
[0, 2 pi] by one add where it is negative (_wrap_angle, np.mod's bits at
a fraction of its cost). The loop makes its per-step constants once: dt/2
and dt/6 per run, and the time-only terms of the field (_stage) once per
RK4 time, so k2 and k3 share theirs.

The epsilon-sandwich of a 2-product is decided by sandwich_bound, a closed
form that proves both inclusions for every point of E in O(n). Each
factor's cutoff level (sandwich_delta) is 0.9 a eps'^2 with
eps' = 0.9 sqrt(eps/n), or less where the bound needs it: the factors'
excesses, linear in delta, use at most DELTA_MARGIN of the slack, so the
bound proves the sandwich for any factors at any eps in (0, 1).
sandwich_check reports that bound and cross-checks it by Monte Carlo
through cutoff_product_map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry2d import TWO_PI, horner
from .product import (check_integer, ellipsoid_level, ellipsoid_sample,
                      factorwise, two_product)


def disk_to_domain(profile, z):
    """Exact 1-homogeneous area-preserving map of D(area) onto the domain.

    phi = S^-1(a arg z / 2 pi) and R(phi) come from one angle reduction and
    cell lookup (RadialProfile.inverse_sector_area_and_radius).
    """
    z = np.asarray(z, dtype=complex)
    a = profile.area
    rho = np.abs(z)
    phi, radius = profile.inverse_sector_area_and_radius(
        np.arctan2(z.imag, z.real) * (a / TWO_PI))
    out = rho * math.sqrt(np.pi / a) * radius * np.exp(1j * phi)
    out = np.where(rho == 0.0, 0.0 + 0.0j, out)
    return complex(out) if out.ndim == 0 else out


def domain_to_disk(profile, w):
    """Inverse of disk_to_domain."""
    w = np.asarray(w, dtype=complex)
    a = profile.area
    radius, sector = profile.radius_and_sector_area(np.arctan2(w.imag, w.real))
    level = np.abs(w) / radius
    theta = sector * (TWO_PI / a)
    out = level * math.sqrt(a / np.pi) * np.exp(1j * theta)
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
# Share of the slack (1 + eps)^2 - 1 and 1 - (1 - eps)^2 that the factors'
# cutoff excesses may use at most (sandwich_delta); below 1, so that
# sandwich_bound proves the sandwich with room to spare.
DELTA_MARGIN = 0.9
# Fewest RK4 steps cutoff_product_map accepts.
MIN_STEPS = 8


@dataclass
class CutoffMapConfig:
    """Parameters of cutoff_disk_map, the one-factor cutoff map.

    delta is the cutoff level in area units: the Hamiltonian is frozen well
    below it and untouched for pi |z|^2 >= delta; the ramp in between is
    set by RAMP_LO and RAMP_HI. ``steps`` is the RK4 step count for points
    whose trajectories meet the ramp. No library code reads ``epsilon``;
    the field stays only because perfbench/workloads.py still passes it.
    """

    delta: float
    steps: int = 256
    epsilon: float = 0.05


def sandwich_delta(profile, epsilon, n_factors):
    """Cutoff level of one of n factors: min(0.9 a eps'^2, delta_bound).

    The first term, with eps' = 0.9 sqrt(eps/n), is the construction's
    own level. The factor's excesses in sandwich_bound are linear in
    delta: eta_out = delta A_out and eta_in = delta A_in, with A_out and
    A_in the excesses at delta = 1 (_excesses). So at

        delta_bound = DELTA_MARGIN min(((1+eps)^2 - 1) / (n A_out),
                                       (1 - (1-eps)^2) / (n A_in))

    the n factors' excesses sum to at most DELTA_MARGIN ((1+eps)^2 - 1)
    outwards and DELTA_MARGIN (1 - (1-eps)^2) inwards. Then
    outer_bound^2 = 1 + sum eta_out < (1+eps)^2 and inner_bound^2 =
    (1-eps)^2 + sum eta_in < 1, and a smaller delta only shrinks the
    excesses: the bound proves the sandwich for any factors at any eps in
    (0, 1). The first term is the smaller one unless the factor is
    eccentric (k_min = a / (pi R_min^2) well above 1, as on thin
    rectangles), and then delta_bound takes over.
    """
    eps_prime = 0.9 * np.sqrt(epsilon / n_factors)
    slope_out, slope_in, _ = _excesses(profile, 1.0)
    delta_bound = DELTA_MARGIN / n_factors * min(
        ((1.0 + epsilon) ** 2 - 1.0) / slope_out,
        (1.0 - (1.0 - epsilon) ** 2) / slope_in)
    return float(min(0.9 * profile.area * eps_prime ** 2, delta_bound))


def _exact_level(profile, delta):
    """l*, the lev^2 from which a trajectory stays where rho = 1."""
    return RAMP_HI * delta / min(profile.area, np.pi * profile.min_radius ** 2)


def _excesses(profile, delta):
    """(eta_out, eta_in, l*) of the factor's cutoff map at level delta.

    The excesses are sandwich_bound's, each linear in delta.
    """
    level = _exact_level(profile, delta)
    c = RAMP_LO * delta / profile.area
    k_min = profile.area / (np.pi * profile.min_radius ** 2)
    k_max = profile.area / (np.pi * profile.max_radius ** 2)
    return (max(level - c, c * (k_min - 1.0)),
            max(level - c * k_max, c * max(0.0, 1.0 - k_max)), level)


def _cell_table(factors, deltas, which):
    """The cutoff fields of several factors, stacked for one RK4 loop.

    Returns (coef, rows, points). ``coef`` holds every factor's per-cell
    polynomials of R, R' and S (RadialProfile.cell_polynomials, the tables
    behind the profile's own methods) in one column per cell, padded with
    zeros to the highest degree present, which leaves each factor's Horner
    values unchanged; ``rows`` slices out the R, R' and S rows. ``points``
    is (params, cells) of factor ``which`` per point: cell width, a/2pi,
    -a/2pi, pi/a, the ramp's lower end and width in |z|^2 (from
    ``deltas``), then the last cell and the factor's first column in
    ``coef``.
    """
    polys = [f.cell_polynomials() for f in factors]
    ends = np.cumsum([max(p[k].shape[0] for p in polys) for k in range(3)])
    rows = (slice(0, ends[0]), slice(ends[0], ends[1]),
            slice(ends[1], ends[2]))
    sizes = np.array([f.N for f in factors])
    first = np.cumsum(sizes) - sizes
    coef = np.zeros((ends[-1], sizes.sum()))
    for poly, start, size in zip(polys, first, sizes):
        for c, r in zip(poly, rows):
            coef[r.start:r.start + c.shape[0], start:start + size] = c
    params = np.array([
        [TWO_PI / f.N for f in factors],
        [f.area / TWO_PI for f in factors],
        [-f.area / TWO_PI for f in factors],
        [np.pi / f.area for f in factors],
        [RAMP_LO * delta / np.pi for delta in deltas],
        [(RAMP_HI - RAMP_LO) * delta / np.pi for delta in deltas]])
    cells = np.array([sizes - 1, first])
    return coef, rows, (params[:, which], cells[:, which])


def _wrap_angle(theta):
    """arctan2's angle in [-pi, pi] moved to [0, 2 pi] by adding 2 pi
    where it is negative: np.mod(theta, TWO_PI) bit for bit on that range,
    -0 and NaN included, in three cheap ufuncs instead of np.mod's floor
    division. A tiny negative angle rounds up to 2 pi, as under np.mod."""
    return theta + TWO_PI * (theta < 0.0)


def _stage(table, t):
    """The field's time argument at times t: (t, (1 - t) a/2pi) per point.

    (1 - t) a/2pi is the disk's share of S_t'. _rk4 makes one stage per
    RK4 time: k2 and k3 share one, and k4's is the next step's k1's.
    """
    (_, rate, *_), _ = table[2]
    return t, (1.0 - t) * rate


def _cutoff_velocity(table, z, stage):
    """Hamiltonian vector field of rho(|z|^2) f_t(arg z) pi |z|^2 / a.

    rho is a quintic smoothstep across each point's ramp: 0 below
    RAMP_LO delta / pi in u = |z|^2, 1 above RAMP_HI delta / pi, C^2
    across. f_t is the contact Hamiltonian of the interpolated isotopy
    S_t = (1 - t) S_disk + t S on the circle: f_t = -(a/2pi)(S - S_disk)/S_t'
    with S_t' = (1 - t) a/2pi + t R^2/2. Its angle derivative is analytic:
    with num = S - (a/2pi) theta and den = S_t', num' = R^2/2 - a/2pi and
    den' = t R R'. R, R' and S come from one cell lookup per point in
    ``table``, the _cell_table of z's points, which also holds -a/2pi;
    ``stage`` is _stage's (t, (1 - t) a/2pi). The angle is wrapped by
    _wrap_angle.
    """
    stack, (r_rows, rd_rows, s_rows), points = table
    (h, rate, neg_rate, scale, lo, span), (last, first) = points
    t, disk = stage
    re, im = z.real, z.imag
    u = re ** 2 + im ** 2
    x = np.minimum(np.maximum((u - lo) / span, 0.0), 1.0)
    rho = x ** 3 * (10.0 + x * (-15.0 + 6.0 * x))
    rho_d = 30.0 * (x * (1.0 - x)) ** 2 / span

    # The clamp to the last cell evaluates an angle wrapped up to 2 pi at
    # that cell's end, where S = a.
    theta = _wrap_angle(np.arctan2(im, re))
    j = np.minimum((theta / h).astype(np.int64), last)
    s = theta - j * h
    # A list of rows: horner's slices are then list slices, not new views.
    coef = list(stack.take(j + first, axis=1))
    r = horner(coef[r_rows], s)
    half_r2 = 0.5 * r * r
    num = horner(coef[s_rows], s) - rate * theta
    den = disk + t * half_r2
    f = neg_rate * num / den
    fd = neg_rate * ((half_r2 - rate) * den -
                     num * t * r * horner(coef[rd_rows], s)) / den ** 2
    return scale * (2.0 * (rho_d * u + rho) * f * 1j * z - rho * fd * z)


def _rk4(factors, deltas, steps, which, z, inverse):
    """Fixed-step RK4 of the cutoff field with per-point start times.

    Each point moves in the field of its factor ``which`` (an index into
    ``factors`` and their cutoff levels ``deltas``, per point or one for
    all), all tabled once by _cell_table. Points with ``inverse`` set (a
    mask, or one flag for all) run backwards from t = 1, the others
    forwards from t = 0, in ``steps`` steps of 1/steps. The step's
    fractions dt/2 and dt/6 are made once per run, and each RK4 time's
    _stage once, in the operations of the textbook update. Every operation
    is elementwise, so each point's result is bit-identical to a run of
    its group alone, with its factor alone.
    """
    z = np.array(z, dtype=complex)
    inverse = np.broadcast_to(inverse, z.shape)
    table = _cell_table(factors, deltas, np.broadcast_to(which, z.shape))
    dt = np.where(inverse, -1.0, 1.0) / steps
    half, sixth = 0.5 * dt, dt / 6.0
    t = np.where(inverse, 1.0, 0.0)
    start = _stage(table, t)
    for _ in range(steps):
        mid = _stage(table, t + half)
        t = t + dt
        end = _stage(table, t)
        k1 = _cutoff_velocity(table, z, start)
        k2 = _cutoff_velocity(table, z + half * k1, mid)
        k3 = _cutoff_velocity(table, z + half * k2, mid)
        k4 = _cutoff_velocity(table, z + dt * k3, end)
        z += sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        start = end
    return z


def cutoff_product_map(factors, deltas, steps, z, inverse=False):
    """Psi = Phi_1 x ... x Phi_n: each factor's cutoff map on its coordinate.

    Factor i has the cutoff level deltas[i], finite and positive, and every
    factor takes ``steps`` >= MIN_STEPS RK4 steps. ``z`` holds one
    coordinate per factor on its last axis, and ``inverse`` (one flag, or a
    mask that broadcasts to z.shape[:-1]) marks the rows to map backwards,
    from t = 1. Returns (image, ramp); ``ramp`` marks the coordinates that
    RK4 integrated.

    Where rho = 1 the flow conserves lev^2 (pi|z|^2/a at t = 0, gauge^2 at
    t = 1) and moves points along |z_t|^2 = lev^2 R_t(phi)^2 with R_t^2 =
    (1 - t) a/pi + t R^2 >= min(a/pi, R_min^2). A trajectory with lev^2 >= l*
    (_exact_level) therefore never leaves rho = 1, and its time-1 map is psi
    (psi^-1 backwards). Where pi|z|^2 <= RAMP_LO delta the field vanishes and
    the point is fixed. The ramp coordinates in between, of every factor and
    both directions, go through one _rk4 call.
    """
    z = np.asarray(z, dtype=complex)
    width = z.shape[-1] if z.ndim else 0
    if not width == len(deltas) == len(factors):
        raise ValueError(f"{len(factors)} factors need as many deltas and "
                         f"coordinates, got {len(deltas)} and {width}")
    if not all(0.0 < delta < np.inf for delta in deltas):
        raise ValueError("cutoff level delta must be finite and positive")
    check_integer("integration step count", steps, least=MIN_STEPS)
    flat = z.reshape(-1, z.shape[-1])
    inverse = np.broadcast_to(inverse, z.shape[:-1]).reshape(-1)
    image = flat.copy()
    ramp = np.empty(flat.shape, dtype=bool)
    for i, (f, delta) in enumerate(zip(factors, deltas)):
        col, out = flat[:, i], image[:, i]
        pi_u = np.pi * np.abs(col) ** 2
        lev2 = pi_u / f.area
        if np.any(inverse):
            lev2[inverse] = f.gauge(col[inverse]) ** 2
        exact = lev2 >= _exact_level(f, delta)
        ramp[:, i] = ~exact & (pi_u > RAMP_LO * delta)
        for closed_form, band in ((disk_to_domain, exact & ~inverse),
                                  (domain_to_disk, exact & inverse)):
            if np.any(band):
                out[band] = closed_form(f, col[band])
    rows, cols = np.nonzero(ramp)
    if rows.size:
        image[rows, cols] = _rk4(factors, deltas, steps, cols,
                                 flat[rows, cols], inverse[rows])
    return image.reshape(z.shape), ramp.reshape(z.shape)


def cutoff_disk_map(profile, config, z, inverse=False):
    """Time-1 map of the cutoff flow: cutoff_product_map of one factor.

    Smooth at the origin (identity in a neighborhood of 0) and equal to
    disk_to_domain wherever pi |z|^2 min(1, pi R_min^2 / a) >= RAMP_HI delta.
    With ``inverse`` set, the flow runs backwards from t = 1 (psi^-1 in the
    exact band); it is one flag or a mask that broadcasts to z.
    """
    z = np.asarray(z, dtype=complex)
    out, _ = cutoff_product_map([profile], [config.delta], config.steps,
                                z[..., None], inverse)
    return complex(out[..., 0]) if z.ndim == 0 else out[..., 0]


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
    outer_bound <= 1 + eps and inner_bound <= 1, and sandwich_delta
    chooses each delta so that both hold, for any factors.

    Per factor write lev^2 = pi|z|^2/a, c = RAMP_LO delta / a,
    k_min = a / (pi R_min^2), k_max = a / (pi R_max^2) and l* for
    _exact_level. Phi has three regions:
    - lev^2 >= l*: the trajectory stays where rho = 1 (cutoff_product_map),
      so Phi = psi and g(Phi(z))^2 = lev^2 (criterion-02). In particular Phi
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
    _excesses computes them.

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
    excesses = [_excesses(f, delta) for f, delta in zip(factors, deltas)]
    eta_out, eta_in, levels = (list(x) for x in zip(*excesses))
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
    cross-checked by Monte Carlo on two product.ellipsoid_sample draws from
    one generator seeded by ``seed``. Outer, drawn first: map the samples of
    E(a_1, ..., a_n) through the cutoff map; product gauge <= 1 + eps.
    Inner: (1 - eps) psi(samples) is uniform on (1 - eps) * product; pull it
    back per factor by the inverse cutoff map; the preimage lies in E.
    Both directions go through one cutoff_product_map call, whose ramp
    coordinates RK4 integrates in ``steps`` steps.
    """
    domain = two_product(factors)
    bound = sandwich_bound(domain, epsilon)
    factors = domain.factors
    areas = np.array(domain.factor_areas)
    rng = np.random.default_rng(seed)

    # Outer: samples of E, pushed forward. Inner: samples of
    # (1 - eps) * product, pulled back. Rows past ``samples`` are inner.
    ellipsoid_pts = ellipsoid_sample(rng, areas, samples)
    target = (1.0 - epsilon) * product_map(
        factors, ellipsoid_sample(rng, areas, samples))
    pts = np.concatenate([ellipsoid_pts, target])
    inverse = np.arange(2 * samples) >= samples

    image, ramps = cutoff_product_map(factors, bound.deltas, steps, pts,
                                      inverse)
    outer_gauge = domain.gauge(image[:samples])
    inner_gauge = np.sqrt(ellipsoid_level(areas, image[samples:]))
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
