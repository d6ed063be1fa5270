"""Radial-profile representation of star-shaped planar domains.

A domain is encoded by its boundary radius R(theta) sampled on a uniform
angular grid. Everything downstream (area-preserving maps, boundary flows,
volume estimates) reduces to three primitives implemented here: the radius
interpolant, the cumulative sector area S(theta) = int_0^theta R(u)^2/2 du,
and its inverse. All three read one table of per-cell polynomials of R, R'
and S, evaluated by ``horner``. Each primitive is one cell lookup, and the
inverse also yields R at the angle it finds from that same cell.
"""

from __future__ import annotations

import math
import sys

import numpy as np

TWO_PI = 2.0 * np.pi
# Fewest and most radius samples a RadialProfile takes. At MAX_NODES = 2**20
# a cubic cosine_profile builds in 0.34 s and peaks at 390 MB RSS with a
# Weierstrass profile beside it (single run, 2-vCPU Xeon); N = 10**14
# would ask numpy for 728 TiB.
MIN_NODES = 16
MAX_NODES = 1 << 20


def horner(coef, s):
    """Evaluate coefficient rows, lowest order first, at s (per column)."""
    out = coef[-1]
    for c in coef[-2::-1]:
        out = out * s + c
    return out


def _periodic_spline(samples, h):
    """Cell rows [y_j, b_j, c_j, d_j] of the periodic cubic spline.

    On a uniform periodic grid of spacing h the spline's second
    derivatives M solve M_{j-1} + 4 M_j + M_{j+1} = 6 (y_{j+1} - 2 y_j +
    y_{j-1}) / h^2. The system is circulant with eigenvalues
    4 + 2 cos(2 pi k / N), all in [2, 6], so one FFT pair solves it to
    round-off for any N. Cell j is then y_j + b_j s + c_j s^2 + d_j s^3 with
    b_j = (y_{j+1} - y_j)/h - h (2 M_j + M_{j+1})/6, c_j = M_j / 2 and
    d_j = (M_{j+1} - M_j) / (6 h).
    """
    n = samples.size
    nxt = np.roll(samples, -1)
    rhs = 6.0 * (nxt - 2.0 * samples + np.roll(samples, 1)) / (h * h)
    eig = 4.0 + 2.0 * np.cos(TWO_PI * np.arange(n // 2 + 1) / n)
    m = np.fft.irfft(np.fft.rfft(rhs) / eig, n)
    m_nxt = np.roll(m, -1)
    slope = (nxt - samples) / h - h * (2.0 * m + m_nxt) / 6.0
    return np.stack([samples, slope, 0.5 * m, (m_nxt - m) / (6.0 * h)])


def _critical_values(r, h):
    """Values of the cubic cells ``r`` at the zeros of R' inside [0, h].

    R' = b + 2c s + 3d s^2 has the roots q/A and C/q with A = 3d, B = 2c,
    C = b and q = -(B + sign(B) sqrt(B^2 - 4AC))/2, a form without
    cancellation. Complex roots and roots outside the cell are dropped, and
    so are the non-finite ones of a degenerate cell (q = 0 on a constant
    cell), which fail the range test.
    """
    a, b, c = 3.0 * r[3], 2.0 * r[2], r[1]
    disc = b * b - 4.0 * a * c
    real = disc >= 0.0
    q = -0.5 * (b + np.copysign(np.sqrt(np.where(real, disc, 0.0)), b))
    with np.errstate(divide="ignore", invalid="ignore"):
        roots = np.stack([q / a, c / q])
    keep = real & (roots >= 0.0) & (roots <= h)
    cells = np.broadcast_to(np.arange(r.shape[1]), roots.shape)[keep]
    return horner(r[:, cells], roots[keep])


class RadialProfile:
    """Star-shaped planar domain given by boundary radii on a uniform grid.

    Parameters
    ----------
    samples : array_like
        Finite, strictly positive radii R(theta_j) at theta_j = 2*pi*j/N;
        the profile keeps its own copy.
    interpolation : {"linear", "cubic"}
        Periodic interpolation rule between grid nodes.

    The build stores R, R' and S on each of the N sample cells as
    polynomials in the offset from the cell's left node
    (``cell_polynomials``): node radius and slope for a linear profile,
    the periodic cubic spline's coefficients for a cubic one (its second
    derivatives from one FFT solve of the circulant spline system, see
    ``_periodic_spline``), and for S the cumulative area at the node plus
    the exact antiderivative of R^2/2. The cumulative table and ``area``
    are these S polynomials at the cell width. ``radius``,
    ``radius_derivative`` and ``sector_area`` are each one cell lookup and
    one Horner evaluation. On a linear cell
    the swept area ((r0 + m*x)^3 - r0^3)/(6m) is a cubic in the offset x
    with an exact real root, so ``inverse_sector_area`` takes a cube root
    there and runs Newton on the cell's polynomials only on cubic
    profiles. ``inverse_sector_area_and_radius`` also returns R at that
    root from the same cell and offset, so a map that needs R at S^-1(s)
    looks up no second cell. ``min_radius`` and ``max_radius`` are the
    exact extrema of the interpolant, spline overshoot included (node
    values and the values at each cell's zeros of R'), and the build
    rejects ``min_radius <= 0``.

    The instance is immutable after construction; all methods are pure and
    accept scalars or arrays. A NaN or infinite angle, or a point with a
    NaN coordinate, gives NaN.
    """

    def __init__(self, samples, interpolation="linear"):
        samples = np.array(samples, dtype=float)
        if samples.ndim != 1:
            raise ValueError("radius samples must be a 1-d array")
        _check_nodes(samples.size)
        if interpolation not in ("linear", "cubic"):
            raise ValueError(f"unknown interpolation {interpolation!r}")
        if not np.all(np.isfinite(samples)):
            raise ValueError("radius samples must be finite")

        self.samples = samples
        self.samples.setflags(write=False)
        self.N = samples.size
        self.interpolation = interpolation
        self._h = TWO_PI / self.N

        # The interpolant's extrema lie at nodes or, for the spline, at
        # critical points inside a cell.
        extrema = samples
        if interpolation == "cubic":
            r = _periodic_spline(samples, self._h)
            extrema = np.concatenate((extrema, _critical_values(r, self._h)))
        else:
            r = np.stack([samples, (np.roll(samples, -1) - samples) / self._h])
        self.min_radius = float(np.min(extrema))
        self.max_radius = float(np.max(extrema))
        if self.min_radius <= 0.0:
            raise ValueError(
                "interpolated radius is non-positive "
                f"(min_radius={self.min_radius:.6g}); domain is not "
                "star-shaped with a single ray intersection")

        # Coefficient rows, lowest order first, one column per cell.
        degree = r.shape[0] - 1
        half_r2 = np.zeros((2 * degree + 1, self.N))
        for i in range(degree + 1):
            half_r2[i:i + degree + 1] += 0.5 * r[i] * r
        swept = half_r2 / np.arange(1, 2 * degree + 2)[:, None]
        cell = horner(swept, self._h) * self._h
        self._cumulative = np.concatenate(([0.0], np.cumsum(cell)))
        self.area = float(self._cumulative[-1])
        self._r = r
        self._rd = r[1:] * np.arange(1, degree + 1)[:, None]
        self._s = np.concatenate((self._cumulative[None, :-1], swept))
        for table in (self._r, self._rd, self._s):
            table.setflags(write=False)

    def _locate(self, theta):
        """Sample cell, offset from its left node and winding of each angle.

        An angle that rounds onto 2*pi lands at the end of the last cell,
        where the polynomials take their values at 2*pi. A NaN or infinite
        angle reduces to a NaN offset in the last cell (fmin drops the NaN
        before the integer cast), so every value read from it is NaN.
        """
        theta = np.asarray(theta, dtype=float)
        winds = np.floor(theta / TWO_PI)
        wrapped = theta - winds * TWO_PI
        j = np.fmin(wrapped / self._h, self.N - 1).astype(np.int64)
        return j, wrapped - j * self._h, winds

    def radius(self, theta):
        """Boundary radius R(theta), 2*pi-periodic."""
        j, s, _ = self._locate(theta)
        return horner(self._r.take(j, axis=1), s)

    def radius_derivative(self, theta):
        """R'(theta); at a node of a linear profile, the slope to its right."""
        j, s, _ = self._locate(theta)
        # A linear profile's R' is one constant per cell; 0 * s carries a
        # NaN offset into it and adds zero otherwise.
        return horner(self._rd.take(j, axis=1), s) + 0.0 * s

    def cell_polynomials(self):
        """R, R' and S on each sample cell as polynomials in the offset s.

        Returns the three read-only (k, N) coefficient tables the profile's
        own methods read: rows lowest order first, one column per cell,
        with R(theta_j + s) = sum_i r[i, j] s^i for 0 <= s <= h, and R', S
        the same way. A linear profile gives its node radius and slope
        (degree 1), a cubic one the periodic spline's coefficients (degree
        3), built by the FFT circulant solve of ``_periodic_spline``.
        The S rows are the cumulative table entry S(theta_j) followed by
        the exact antiderivative of R^2/2, of degree 3 or 7.
        """
        return self._r, self._rd, self._s

    # -- sector area and its inverse ---------------------------------------

    def sector_area(self, theta):
        """Cumulative sector area S(theta), unwrapped by +area per turn."""
        j, s, winds = self._locate(theta)
        out = horner(self._s.take(j, axis=1), s) + winds * self.area
        return float(out) if out.ndim == 0 else out

    def radius_and_sector_area(self, theta):
        """R(theta) and S(theta) from one angle reduction and cell lookup."""
        j, s, winds = self._locate(theta)
        return (horner(self._r.take(j, axis=1), s),
                horner(self._s.take(j, axis=1), s) + winds * self.area)

    def inverse_sector_area(self, s):
        """Angle theta with S(theta) = s, unwrapped like sector_area.

        The theta of inverse_sector_area_and_radius, which documents the
        inversion.
        """
        return self.inverse_sector_area_and_radius(s)[0]

    def inverse_sector_area_and_radius(self, s):
        """Angle theta with S(theta) = s, and R(theta), from one cell lookup.

        theta is unwrapped like sector_area. The sample cell k, 0 <= k < N,
        is the number of the table's interior nodes S(theta_1), ...,
        S(theta_{N-1}) at or below s reduced mod the area (a NaN sorts last,
        into cell N - 1); T = s - S(theta_k) is then the area to sweep
        inside it. On a linear cell the radius is r0 + m*x with
        m = (R_{k+1} - R_k)/h, and the area swept over its first x is
        ((r0 + m*x)^3 - r0^3)/(6m) = T, whose root is

            x = 6T / (r0^2 (c^2 + c + 1)),  c = cbrt(1 + 6mT/r0^3).

        This form has no cancellation and tends to 2T/r0^2 as m -> 0. The
        cube root's argument is (R(theta)/r0)^3, positive because the build
        rejects min_radius <= 0; x is clamped to [0, h]. A cubic cell runs
        safeguarded Newton from the cell's secant point on its S polynomial
        less the constant S(theta_k), so that the residual does not carry
        the rounding of S itself, with S'(theta) = R(theta)^2/2 from its R
        polynomial. Both meet |S - s| <= 1e-14 * area, beyond the rounding
        of theta itself (S'(theta) = R^2/2 per unit of theta). Newton stops
        each point once its own residual meets that tolerance (a NaN
        residual at once), so no point's bits depend on the other points of
        the call.

        R is the cell's R polynomial at the root's offset x before theta
        is rounded, so it can differ from radius(theta) by the rounding of
        theta times R'; on a constant cell it equals radius(theta). One
        point gives two floats.
        """
        s = np.asarray(s, dtype=float)
        winds = np.floor(s / self.area)
        s0 = s - winds * self.area
        over = s0 >= self.area
        s0 = np.where(over, 0.0, s0)
        winds = winds + over

        k = self._cumulative[1:-1].searchsorted(s0, side="right")
        start = k * self._h
        target = s0 - self._cumulative[k]
        r_coef = self._r.take(k, axis=1)
        if self.interpolation == "linear":
            r0, m = r_coef
            # The ufunc, not **: a numpy scalar's ** runs libm's pow, which
            # differs from the array loop's in the last bit of some cubes.
            c = np.cbrt(1.0 + 6.0 * m * target / np.power(r0, 3))
            x = 6.0 * target / (r0 * r0 * (c * c + c + 1.0))
            x = np.minimum(np.maximum(x, 0.0), self._h)
            theta = start + x
            radius = r0 + m * x
        else:
            swept = self._s[1:].take(k, axis=1)  # (S - S(theta_k)) / x
            lo, hi = start, start + self._h
            theta = start + self._h * target / (
                self._cumulative[k + 1] - self._cumulative[k])
            tol = 1e-14 * self.area
            for _ in range(80):
                x = theta - start
                val = horner(swept, x) * x - target
                active = np.abs(val) > tol
                if not active.any():
                    break
                r = horner(r_coef, x)
                # A stopped point steps by 0 to its own theta, which lies
                # in its bracket, so it keeps its bits.
                step = val * active / (0.5 * r * r)
                hi = np.where(val > 0.0, theta, hi)
                lo = np.where(val < 0.0, theta, lo)
                newton = theta - step
                bad = (newton < lo) | (newton > hi)
                theta = np.where(bad, 0.5 * (lo + hi), newton)
            radius = horner(r_coef, theta - start)
        theta = theta + winds * TWO_PI
        if theta.ndim == 0:
            return float(theta), float(radius)
        return theta, radius

    # -- gauge --------------------------------------------------------------

    def gauge(self, z):
        """Minkowski gauge g(z) = |z| / R(arg z); g(0) = +0.0 since R > 0."""
        z = np.asarray(z, dtype=complex)
        out = np.abs(z) / self.radius(np.arctan2(z.imag, z.real))
        return float(out) if out.ndim == 0 else out

    def boundary_point(self, theta):
        """Point R(theta) e^{i theta} on the boundary."""
        theta = np.asarray(theta, dtype=float)
        return self.radius(theta) * np.exp(1j * theta)

    def __repr__(self):
        return (f"RadialProfile(N={self.N}, interpolation={self.interpolation!r}, "
                f"area={self.area:.6g})")


# -- presets ----------------------------------------------------------------

def _check_nodes(N):
    """ValueError unless MIN_NODES <= N <= MAX_NODES. RadialProfile checks
    its sample count here, and every preset its N before any array."""
    if N < MIN_NODES:
        raise ValueError(f"need at least {MIN_NODES} radius samples, got {N}")
    if N > MAX_NODES:
        raise ValueError(f"need at most {MAX_NODES} radius samples, "
                         f"got N = {N}")


def node_angles(N):
    """2 pi k / N for k < N, once _check_nodes accepts N."""
    _check_nodes(N)
    return np.arange(N) * (TWO_PI / N)


def disk_profile(area=np.pi, N=4096, interpolation="linear"):
    """Disk of the given area centered at the origin."""
    if not 0.0 < area < np.inf:
        raise ValueError("disk area must be finite and positive")
    _check_nodes(N)
    r = np.sqrt(area / np.pi)
    return RadialProfile(np.full(N, r), interpolation)


def polygon_profile(vertices, N=4096):
    """Simple polygon star-shaped with respect to the origin.

    Vertices may be given in either orientation; each edge must keep the
    origin strictly on its interior side.
    """
    verts = np.asarray(vertices, dtype=float)
    if verts.ndim != 2 or verts.shape[1] != 2 or verts.shape[0] < 3:
        raise ValueError("vertices must be an (m, 2) array with m >= 3")
    nxt = np.roll(verts, -1, axis=0)
    cross = verts[:, 0] * nxt[:, 1] - verts[:, 1] * nxt[:, 0]
    if np.all(cross < 0.0):
        verts = verts[::-1]
        nxt = np.roll(verts, -1, axis=0)
        cross = verts[:, 0] * nxt[:, 1] - verts[:, 1] * nxt[:, 0]
    if not np.all(cross > 0.0):
        raise ValueError("polygon is not star-shaped with respect to the origin")

    ang = np.mod(np.arctan2(verts[:, 1], verts[:, 0]), TWO_PI)
    start = int(np.argmin(ang))
    verts = np.roll(verts, -start, axis=0)
    ang = np.roll(ang, -start)
    if np.any(np.diff(ang) <= 0.0):
        raise ValueError("polygon is not star-shaped with respect to the origin")

    theta = node_angles(N)
    edge = np.searchsorted(ang, theta, side="right") - 1
    edge = np.mod(edge, verts.shape[0])
    p = verts[edge]
    q = verts[(edge + 1) % verts.shape[0]]
    d = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    e = q - p
    denom = d[:, 0] * e[:, 1] - d[:, 1] * e[:, 0]
    numer = p[:, 0] * e[:, 1] - p[:, 1] * e[:, 0]
    radii = numer / denom
    return RadialProfile(radii, "linear")


def weierstrass_series(x, a, b, terms, phases=None):
    """Partial sum of sum a^k cos(2 pi (b^k x + phase_k)).

    Each phase y = b^k x + phase_k is reduced to y - floor(y) before the
    cosine, which adds no rounding for y >= 0. Unreduced, 2 pi y reaches
    1e15 rad at b = 3 and 30 terms, and numpy's cos takes its slow
    argument-reduction path there.
    """
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    y = np.empty_like(x)
    for k in range(terms + 1):
        np.multiply(x, b ** k, out=y)
        if phases is not None:
            y += phases[k]
        y -= np.floor(y)
        y *= TWO_PI
        np.cos(y, out=y)
        y *= a ** k
        out += y
    return out


def weierstrass_profile(r0=1.0, amplitude=0.1, a=0.5, b=3.0, terms=20, N=4096):
    """Disk-like profile perturbed by a Weierstrass series in the angle.

    Fractal presets force linear interpolation: cubic overshoot can drive
    the interpolated radius negative. It is hunt_profile with zero phases.
    """
    _check_weierstrass(a, b, terms)
    return hunt_profile(r0, amplitude, a, b, terms, np.zeros(terms + 1), N=N)


def hunt_profile(r0=1.0, amplitude=0.1, a=0.5, b=3.0, terms=20, phases=None,
                 seed=0, N=4096):
    """Phase-shifted Weierstrass perturbation; phases drawn i.i.d. if absent."""
    _check_weierstrass(a, b, terms)
    if phases is None:
        phases = hunt_phases(terms, seed)
    phases = np.asarray(phases, dtype=float)
    if phases.size != terms + 1:
        raise ValueError("need one phase per series term")
    theta = node_angles(N)
    radii = r0 + amplitude * weierstrass_series(theta / TWO_PI, a, b, terms, phases)
    return RadialProfile(radii, "linear")


def hunt_phases(terms, seed):
    """A Hunt series' terms + 1 phases, uniform on [0, 1), from ``seed``."""
    return np.random.default_rng(seed).uniform(0.0, 1.0, terms + 1)


def triangle_wave(x):
    """Even 1-periodic wave with phi(x) = 2x on [0, 1/2]."""
    x = np.abs(np.mod(np.asarray(x, dtype=float), 1.0))
    return 2.0 * np.minimum(x, 1.0 - x)


def xz_series(x, a, alpha, beta, terms):
    """Partial sum of sum a^(k^alpha) phi(a^(-k^beta) x), phi a triangle wave."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for k in range(1, terms + 1):
        out += a ** (k ** alpha) * triangle_wave(a ** (-(k ** beta)) * x)
    return out


def xz_profile(r0=1.0, amplitude=0.1, a=0.5, alpha=1.2, beta=1.5, terms=12,
               N=4096):
    """Triangle-wave series profile (dimension-2 boundary family)."""
    _check_xz(a, alpha, beta, terms)
    theta = node_angles(N)
    radii = r0 + amplitude * xz_series(theta / TWO_PI, a, alpha, beta, terms)
    return RadialProfile(radii, "linear")


def cosine_profile(area=np.pi, N=4096, interpolation="cubic"):
    """Smooth reference profile with R(theta)^2 = (area/pi)(1 + cos(theta)/2)."""
    if not 0.0 < area < np.inf:
        raise ValueError("cosine profile area must be finite and positive")
    theta = node_angles(N)
    radii = np.sqrt(area / np.pi * (1.0 + 0.5 * np.cos(theta)))
    return RadialProfile(radii, interpolation)


def _check_weierstrass(a, b, terms):
    """Parameters whose every term a^k cos(2 pi b^k x) is finite."""
    if not 0.0 < a < 1.0 < b < np.inf:
        raise ValueError("need 0 < a < 1 < b with b finite")
    if terms < 0:
        raise ValueError("term count must be nonnegative")
    if terms * math.log(b) >= math.log(sys.float_info.max):
        raise ValueError(f"b ** terms overflows a float (b={b:g}, "
                         f"terms={terms})")


def _check_xz(a, alpha, beta, terms):
    """Parameters whose every term a^(k^alpha) phi(a^(-k^beta) x) is a
    finite float; Python's float ** raises OverflowError past that."""
    if not 0.0 < a < 1.0:
        raise ValueError("need 0 < a < 1")
    if not 1.0 < alpha < beta:
        raise ValueError("need 1 < alpha < beta")
    if terms >= 1 and (beta * math.log(terms) + math.log(-math.log(a))
                       >= math.log(math.log(sys.float_info.max))):
        raise ValueError(f"a ** -(terms ** beta) overflows a float "
                         f"(a={a:g}, beta={beta:g}, terms={terms})")

