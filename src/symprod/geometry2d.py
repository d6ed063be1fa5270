"""Radial-profile representation of star-shaped planar domains.

A domain is encoded by its boundary radius R(theta) sampled on a uniform
angular grid. Everything downstream (area-preserving maps, boundary flows,
volume estimates) reduces to three primitives implemented here: the radius
interpolant, the cumulative sector area S(theta) = int_0^theta R(u)^2/2 du,
and its inverse.
"""

from __future__ import annotations

import numpy as np
from scipy.interpolate import CubicSpline

TWO_PI = 2.0 * np.pi

# 4-point Gauss-Legendre nodes/weights on [0, 1]; exact through degree 7,
# in particular for the square of a cubic radius interpolant.
_GL_NODES = 0.5 * (1.0 + np.array(
    [-0.8611363115940526, -0.3399810435848563,
     0.3399810435848563, 0.8611363115940526]))
_GL_WEIGHTS = 0.5 * np.array(
    [0.3478548451374538, 0.6521451548625461,
     0.6521451548625461, 0.3478548451374538])


def wrap_angle(theta):
    """Reduce angles to [0, 2*pi), returning (wrapped, winding number)."""
    theta = np.asarray(theta, dtype=float)
    winds = np.floor(theta / TWO_PI)
    wrapped = theta - winds * TWO_PI
    # Guard against wrapped == 2*pi from rounding.
    over = wrapped >= TWO_PI
    wrapped = np.where(over, 0.0, wrapped)
    winds = winds + over
    return wrapped, winds


class RadialProfile:
    """Star-shaped planar domain given by boundary radii on a uniform grid.

    Parameters
    ----------
    samples : array_like
        Finite, strictly positive radii R(theta_j) at theta_j = 2*pi*j/N.
    interpolation : {"linear", "cubic"}
        Periodic interpolation rule between grid nodes.

    The cumulative sector-area table lives on the N sample cells, where
    the cell integral is exact (closed form for the linear interpolant,
    4-point Gauss-Legendre for the squared cubic). On a linear cell the
    swept area ((r0 + m*x)^3 - r0^3)/(6m) is a cubic in the offset x with
    an exact real root, so ``inverse_sector_area`` takes a cube root there
    and runs Newton only on cubic profiles. ``min_radius`` and
    ``max_radius`` are the exact extrema of the interpolant, spline
    overshoot included, and the build rejects ``min_radius <= 0``.

    The instance is immutable after construction; all methods are pure and
    accept scalars or arrays.
    """

    def __init__(self, samples, interpolation="linear"):
        samples = np.asarray(samples, dtype=float)
        if samples.ndim != 1 or samples.size < 16:
            raise ValueError("need a 1-d array of at least 16 radius samples")
        if interpolation not in ("linear", "cubic"):
            raise ValueError(f"unknown interpolation {interpolation!r}")
        if not np.all(np.isfinite(samples)):
            raise ValueError("radius samples must be finite")

        self.samples = samples
        self.samples.setflags(write=False)
        self.N = samples.size
        self.interpolation = interpolation
        self._h = TWO_PI / self.N
        self._closed = np.append(samples, samples[0])

        # The interpolant's extrema lie at nodes or, for the spline, at
        # interior critical points. A piece whose derivative vanishes
        # identically (a constant profile) yields NaN roots, which are
        # dropped: its values are node values.
        extrema = samples
        if interpolation == "cubic":
            grid = np.linspace(0.0, TWO_PI, self.N + 1)
            self._spline = CubicSpline(grid, self._closed, bc_type="periodic")
            crit = self._spline.derivative().roots()
            crit = self._spline(crit[np.isfinite(crit)])
            extrema = np.concatenate((extrema, crit))
        else:
            self._spline = None
        self.min_radius = float(np.min(extrema))
        self.max_radius = float(np.max(extrema))
        if self.min_radius <= 0.0:
            raise ValueError(
                "interpolated radius is non-positive "
                f"(min_radius={self.min_radius:.6g}); domain is not "
                "star-shaped with a single ray intersection")

        cell = self._cell_integral(np.arange(self.N), np.full(self.N, self._h))
        self._cumulative = np.concatenate(([0.0], np.cumsum(cell)))
        self.area = float(self._cumulative[-1])

    # -- radius interpolant -------------------------------------------------

    def _segment(self, wrapped):
        """Grid segment [j, j + 1) holding each wrapped angle, and the offset."""
        pos = wrapped / self._h
        j = np.minimum(pos.astype(np.int64), self.N - 1)
        return j, pos - j

    def radius(self, theta):
        """Boundary radius R(theta), 2*pi-periodic."""
        wrapped, _ = wrap_angle(theta)
        if self._spline is not None:
            return self._spline(wrapped)
        j, frac = self._segment(wrapped)
        return (1.0 - frac) * self._closed[j] + frac * self._closed[j + 1]

    def radius_derivative(self, theta):
        """R'(theta); at a node of a linear profile, the slope to its right."""
        wrapped, _ = wrap_angle(theta)
        if self._spline is not None:
            return self._spline(wrapped, 1)
        j, _ = self._segment(wrapped)
        return (self._closed[j + 1] - self._closed[j]) * (self.N / TWO_PI)

    def cell_polynomials(self):
        """R, R' and S on each sample cell as polynomials in the offset s.

        Returns three (N, k) coefficient arrays, lowest order first, with
        R(theta_j + s) = sum_i r[j, i] s^i for 0 <= s <= h, and R', S the
        same way. A linear profile gives its node radius and slope (degree
        1), a cubic one the spline's coefficients (degree 3). The S rows
        are the cumulative table entry S(theta_j) followed by the exact
        antiderivative of R^2/2, of degree 3 or 7.
        """
        if self._spline is None:
            r = np.stack([self.samples,
                          (self._closed[1:] - self.samples) / self._h], axis=1)
        else:
            r = self._spline.c[::-1].T
        degree = r.shape[1] - 1
        rd = r[:, 1:] * np.arange(1, degree + 1)
        half_r2 = np.zeros((self.N, 2 * degree + 1))
        for i in range(degree + 1):
            half_r2[:, i:i + degree + 1] += 0.5 * r[:, i:i + 1] * r
        s = np.concatenate([self._cumulative[:-1, None],
                            half_r2 / np.arange(1, 2 * degree + 2)], axis=1)
        return r, rd, s

    # -- sector area and its inverse ---------------------------------------

    def _cell_integral(self, k, s):
        """int of R(u)^2/2 from sample node theta_k over a length s <= h.

        Exact for the linear interpolant; 4-point Gauss-Legendre (exact for
        the squared cubic) otherwise.
        """
        if self._spline is None:
            r0 = self._closed[k]
            m = (self._closed[k + 1] - r0) / self._h
            return 0.5 * (r0 * r0 * s + r0 * m * s * s + m * m * s ** 3 / 3.0)
        t0 = k * self._h
        acc = 0.0
        for node, weight in zip(_GL_NODES, _GL_WEIGHTS):
            r = self.radius(t0 + node * s)
            acc = acc + weight * 0.5 * r * r
        return s * acc

    def sector_area(self, theta):
        """Cumulative sector area S(theta), unwrapped by +area per turn."""
        theta = np.asarray(theta, dtype=float)
        scalar = theta.ndim == 0
        wrapped, winds = wrap_angle(theta)
        k = np.minimum((wrapped / self._h).astype(np.int64), self.N - 1)
        s = wrapped - k * self._h
        out = self._cumulative[k] + self._cell_integral(k, s) + winds * self.area
        return float(out) if scalar else out

    def inverse_sector_area(self, s):
        """Angle theta with S(theta) = s, unwrapped like sector_area.

        The sample cell k comes from the cumulative table; T = s - S(theta_k)
        is then the area to sweep inside it. On a linear cell the radius is
        r0 + m*x with m = (R_{k+1} - R_k)/h, and the area swept over its
        first x is ((r0 + m*x)^3 - r0^3)/(6m) = T, whose root is

            x = 6T / (r0^2 (c^2 + c + 1)),  c = cbrt(1 + 6mT/r0^3).

        This form has no cancellation and tends to 2T/r0^2 as m -> 0. The
        cube root's argument is (R(theta)/r0)^3, positive because the build
        rejects min_radius <= 0; x is clamped to [0, h]. A cubic cell runs
        safeguarded Newton with S'(theta) = R(theta)^2/2 from the cell's
        secant point. Both meet |S - s| <= 1e-14 * area, beyond the
        rounding of theta itself (S'(theta) = R^2/2 per unit of theta).
        """
        s = np.asarray(s, dtype=float)
        scalar = s.ndim == 0
        s = np.atleast_1d(s)
        winds = np.floor(s / self.area)
        s0 = s - winds * self.area
        over = s0 >= self.area
        s0 = np.where(over, 0.0, s0)
        winds = winds + over

        k = np.searchsorted(self._cumulative, s0, side="right") - 1
        k = np.clip(k, 0, self.N - 1)
        start = k * self._h
        target = s0 - self._cumulative[k]
        if self._spline is None:
            r0 = self._closed[k]
            m = (self._closed[k + 1] - r0) / self._h
            c = np.cbrt(1.0 + 6.0 * m * target / r0 ** 3)
            x = 6.0 * target / (r0 * r0 * (c * c + c + 1.0))
            theta = start + np.clip(x, 0.0, self._h)
        else:
            lo, hi = start, start + self._h
            theta = start + self._h * target / (
                self._cumulative[k + 1] - self._cumulative[k])
            tol = 1e-14 * self.area
            for _ in range(80):
                val = self._cell_integral(k, theta - start) - target
                if np.max(np.abs(val)) <= tol:
                    break
                r = self.radius(theta)
                step = val / (0.5 * r * r)
                hi = np.where(val > 0.0, theta, hi)
                lo = np.where(val < 0.0, theta, lo)
                newton = theta - step
                bad = (newton < lo) | (newton > hi)
                theta = np.where(bad, 0.5 * (lo + hi), newton)
        out = theta + winds * TWO_PI
        return float(out[0]) if scalar else out

    # -- gauge --------------------------------------------------------------

    def gauge(self, z):
        """Minkowski gauge g(z) = |z| / R(arg z); g(0) = 0 by definition."""
        z = np.asarray(z, dtype=complex)
        r = np.abs(z)
        ang = np.mod(np.angle(z), TWO_PI)
        out = np.where(r == 0.0, 0.0, r / self.radius(ang))
        return float(out) if out.ndim == 0 else out

    def boundary_point(self, theta):
        """Point R(theta) e^{i theta} on the boundary."""
        theta = np.asarray(theta, dtype=float)
        return self.radius(theta) * np.exp(1j * theta)

    def __repr__(self):
        return (f"RadialProfile(N={self.N}, interpolation={self.interpolation!r}, "
                f"area={self.area:.6g})")


class EllipsoidSpec:
    """Symplectic ellipsoid E(a_1, ..., a_n): sum_i pi|z_i|^2 / a_i <= 1."""

    def __init__(self, areas):
        areas = tuple(float(a) for a in np.atleast_1d(areas))
        if not all(0.0 < a < np.inf for a in areas):
            raise ValueError("ellipsoid areas must be finite and positive")
        self.areas = areas

    def gauge(self, z):
        """1-homogeneous gauge: sqrt(sum pi|z_i|^2 / a_i) over the block."""
        z = np.asarray(z, dtype=complex)
        a = np.asarray(self.areas)
        return np.sqrt(np.sum(np.pi * np.abs(z) ** 2 / a, axis=-1))

    @property
    def volume(self):
        """Euclidean volume a_1 ... a_n / n!."""
        vol = 1.0
        for i, a in enumerate(self.areas, start=1):
            vol *= a / i
        return vol

    def __repr__(self):
        return f"EllipsoidSpec(areas={self.areas})"


# -- presets ----------------------------------------------------------------

def disk_profile(area=np.pi, N=4096, interpolation="linear"):
    """Disk of the given area centered at the origin."""
    if not 0.0 < area < np.inf:
        raise ValueError("disk area must be finite and positive")
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

    theta = np.arange(N) * (TWO_PI / N)
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
    """Partial sum of sum a^k cos(2 pi (b^k x + phase_k))."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for k in range(terms + 1):
        shift = 0.0 if phases is None else phases[k]
        out += a ** k * np.cos(TWO_PI * (b ** k * x + shift))
    return out


def weierstrass_profile(r0=1.0, amplitude=0.1, a=0.5, b=3.0, terms=20, N=4096):
    """Disk-like profile perturbed by a Weierstrass series in the angle.

    Fractal presets force linear interpolation: cubic overshoot can drive
    the interpolated radius negative.
    """
    _check_weierstrass(a, b, terms)
    theta = np.arange(N) * (TWO_PI / N)
    radii = r0 + amplitude * weierstrass_series(theta / TWO_PI, a, b, terms)
    return RadialProfile(radii, "linear")


def hunt_profile(r0=1.0, amplitude=0.1, a=0.5, b=3.0, terms=20, phases=None,
                 seed=0, N=4096):
    """Phase-shifted Weierstrass perturbation; phases drawn i.i.d. if absent."""
    _check_weierstrass(a, b, terms)
    if phases is None:
        phases = np.random.default_rng(seed).uniform(0.0, 1.0, terms + 1)
    phases = np.asarray(phases, dtype=float)
    if phases.size != terms + 1:
        raise ValueError("need one phase per series term")
    theta = np.arange(N) * (TWO_PI / N)
    radii = r0 + amplitude * weierstrass_series(theta / TWO_PI, a, b, terms, phases)
    return RadialProfile(radii, "linear")


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
    _check_xz(a, alpha, beta)
    theta = np.arange(N) * (TWO_PI / N)
    radii = r0 + amplitude * xz_series(theta / TWO_PI, a, alpha, beta, terms)
    return RadialProfile(radii, "linear")


def cosine_profile(area=np.pi, N=4096, interpolation="cubic"):
    """Smooth reference profile with R(theta)^2 = (area/pi)(1 + cos(theta)/2)."""
    if not 0.0 < area < np.inf:
        raise ValueError("cosine profile area must be finite and positive")
    theta = np.arange(N) * (TWO_PI / N)
    radii = np.sqrt(area / np.pi * (1.0 + 0.5 * np.cos(theta)))
    return RadialProfile(radii, interpolation)


def _check_weierstrass(a, b, terms):
    if not 0.0 < a < 1.0 < b:
        raise ValueError("need 0 < a < 1 < b")
    if terms < 0:
        raise ValueError("term count must be nonnegative")


def _check_xz(a, alpha, beta):
    if not 0.0 < a < 1.0:
        raise ValueError("need 0 < a < 1")
    if not 1.0 < alpha < beta:
        raise ValueError("need 1 < alpha < beta")

