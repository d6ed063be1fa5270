"""The paper's experiments as invariant checks, behind ``symprod selftest``.

Each ``check_*`` function is the one implementation of its experiment and
of its sample sizes: it takes a seed and ``quick``, which picks the reduced
sizes of ``symprod selftest --quick``. ``symprod selftest`` runs the CHECKS
table at its seed's offsets and the acceptance suite
(tests/test_acceptance.py) runs each check at its own seed and time bound.
Each returns (name, passed, detail) with deterministic formatting, so two
runs with the same seed produce byte-identical reports regardless of the
worker count.
"""

from __future__ import annotations

import numpy as np

from . import capacities, diskmap, dynamics, fractal, geometry2d, product
from .geometry2d import TWO_PI


def _fmt(value):
    return f"{value:.12g}" if isinstance(value, float) else str(value)


def _fields(**values):
    """``name=value`` for each keyword, space-separated, in order."""
    return " ".join(f"{name}={_fmt(value)}" for name, value in values.items())


SQUARE = [(1, 1), (-1, 1), (-1, -1), (1, -1)]


def _standard_factors():
    """Weierstrass x square, the pair of the sandwich and conjugacy checks."""
    return (geometry2d.weierstrass_profile(terms=20),
            geometry2d.polygon_profile(SQUARE))


def _cosine_disk():
    """cos(1) x D(1), the equal-area pair of volume, foliation and
    boundary minimality."""
    return geometry2d.cosine_profile(1.0), geometry2d.disk_profile(1.0)


def _preset_profiles():
    wprof, square = _standard_factors()
    return {
        "disk": geometry2d.disk_profile(np.pi),
        "cosine": geometry2d.cosine_profile(np.pi),
        "square": square,
        "weierstrass": wprof,
        "hunt": geometry2d.hunt_profile(terms=20, seed=3),
        "xz": geometry2d.xz_profile(),
    }


def check_jacobian(seed, quick=False):
    """Finite-difference Jacobian of the disk map on the smooth profile."""
    samples = 200 if quick else 1000
    profile = geometry2d.cosine_profile(np.pi)
    rng = np.random.default_rng(seed)
    rho = np.sqrt(rng.uniform(0.04, 4.0, samples)) * np.sqrt(
        profile.area / np.pi)
    theta = rng.uniform(0.0, TWO_PI, samples)
    det = diskmap.jacobian_determinant(profile, rho * np.exp(1j * theta))
    worst = float(np.max(np.abs(det - 1.0)))
    return "jacobian", worst <= 1e-6, f"max|det-1|={_fmt(worst)} tol=1e-06"


def check_level_mapping(seed, quick=False):
    """gauge(psi(z))^2 = pi |z|^2 / a on every preset profile. psi scales by
    R(phi) and the gauge divides by it, so this measures the round-off of
    R, S and S^-1; it is no independent check of psi."""
    samples = 1000 if quick else 10000
    rng = np.random.default_rng(seed)
    worst = 0.0
    for name, profile in _preset_profiles().items():
        z = (rng.uniform(-1, 1, samples) + 1j * rng.uniform(-1, 1, samples))
        z *= 2.0 * np.sqrt(profile.area / np.pi)
        img = diskmap.disk_to_domain(profile, z)
        lhs = profile.gauge(img) ** 2
        rhs = np.pi * np.abs(z) ** 2 / profile.area
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return ("level-mapping", worst <= 1e-10,
            f"max|g^2-pi|z|^2/a|={_fmt(worst)} tol=1e-10")


def check_sandwich(seed, quick=False):
    wprof, square = _standard_factors()
    report = diskmap.sandwich_check(
        [wprof, square], epsilon=0.05, samples=2000 if quick else 100000,
        seed=seed, steps=32 if quick else 64)
    return "sandwich", report.passed, _fields(
        violations=f"{report.violations_outer}+{report.violations_inner}",
        worst_outer=report.worst_outer_gauge,
        worst_inner=report.worst_inner_gauge,
        outer_bound=report.outer_bound, inner_bound=report.inner_bound)


def check_volume(seed, quick=False, threads=1):
    """mc_volume against the closed-form ProductDomain.volume at p = 1, 2, 3.

    Each p draws the same seeded points and must land within 3 standard
    errors of the closed form.
    """
    samples = 50000 if quick else 1000000
    factors = _cosine_disk()
    ok, parts = True, []
    for p in (1, 2, 3):
        domain = product.ProductDomain(factors, p=p)
        est = product.mc_volume(domain, samples, seed, threads=threads)
        ok = ok and abs(est.volume - domain.volume) <= 3.0 * est.std_error
        parts.append(_fields(p=p, estimate=est.volume,
                             stderr=est.std_error, target=domain.volume))
    return "volume", ok, "; ".join(parts)


def check_period(seed, quick=False):
    """Phi^a(z) = z at 20 points of every preset boundary, in both modes.
    S^-1(S(theta) + a) = theta + 2 pi by construction, so this measures the
    round-off of R, S and S^-1; it is no independent check of the flow."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for name, profile in _preset_profiles().items():
        theta = rng.uniform(0.0, TWO_PI, 20)
        z = profile.boundary_point(theta)
        back = dynamics.char_flow_2d(profile, z, profile.area)
        worst = max(worst, float(np.max(np.abs(back - z))))
    return "period", worst <= 1e-8, f"max|Phi^a(z)-z|={_fmt(worst)} tol=1e-08"


def check_conjugacy(seed, quick=False):
    """psi(Reeb^t z) = Phi^t(psi(z)): both reach the angle S^-1(a theta/2pi
    + t), so this measures the round-off of R, S and S^-1; it is no
    independent check of psi or of the flow."""
    worst = float(np.max(dynamics.sample_conjugacy_residuals(
        _standard_factors(), 200 if quick else 1000, seed)))
    return "conjugacy", worst <= 1e-6, f"max_residual={_fmt(worst)} tol=1e-06"


def check_foliation(seed, quick=False):
    """Orbits close at t = a (check_period's identity, so the round-off of
    R, S and S^-1, no independent check of the flow); areas (1, sqrt 2)
    have no period up to 1000 turns."""
    cos1, disk1 = _cosine_disk()
    report = dynamics.is_foliated_by_systoles(
        [cos1, disk1], 100 if quick else 1000, seed)
    point = dynamics.FlowPoint(angles=[0.3, 1.1],
                               levels=np.sqrt([0.5, 0.5]))
    period = dynamics.orbit_period(
        [disk1, geometry2d.disk_profile(np.sqrt(2.0))], point,
        denominator_bound=1000)
    ok = report.passed and period is None
    return "foliation", ok, _fields(
        worst=report.worst_deviation,
        irrational_period="none" if period is None else period)


def check_capacities(seed, quick=False):
    """Exact capacity and Zoll identities; draws nothing, so the seed and
    ``quick`` change nothing."""
    table = capacities.gh_capacities([1.0, 2.0], 4)
    expect = (1.0, 2.0, 2.0, 3.0)
    ok = table.values == expect
    zoll, c1, cn = capacities.zoll_check([1.5, 1.5, 1.5])
    ok = ok and zoll and c1 == cn == 1.5
    notzoll, _, _ = capacities.zoll_check([1.0, 2.0])
    ok = ok and not notzoll
    return ("capacities", ok,
            "E(1,2)->" + ",".join(_fmt(v) for v in table.values))


def check_boundary_minimal(seed, quick=False):
    point = dynamics.FlowPoint(angles=[0.5, 2.0], levels=np.sqrt([0.5, 0.5]))
    report = capacities.boundary_minimal_experiment(
        _cosine_disk(), point, width=0.9, target_area=0.9,
        samples=5000 if quick else 100000, seed=seed)
    ok = report.passed and abs(report.capacity_gap - 0.1) < 1e-9
    return "boundary-minimal", ok, _fields(
        violations=report.violations, gap=report.capacity_gap,
        checked=report.checked)


# The graph x [0, 1] is read from the graph's counts at its first
# PRODUCT_SCALES scales, 2^-4 ... 2^-9.
PRODUCT_SCALES, PRODUCT_TOL = 6, 0.15

# criterion-10's disk patch: a patch of the boundary of D(pi) x_2 E(1),
# a smooth 3-manifold in R^4.
PATCH_SCALES = 2.0 ** -np.arange(3.0, 6.75, 0.5)
PATCH_CONFIG = dict(r1_range=(0.2, 0.8), theta1_range=(0.0, TWO_PI),
                    theta2_range=(0.0, TWO_PI), oversample=1, pitch_factor=2,
                    n_offsets=1)
PATCH_TARGET, PATCH_TOL = 3.0, 0.1

# criterion-10's fractal patch: a patch of the boundary of W(0.4, b=4) x_2
# D(36), around the profile's least radius. b = 4 makes the graph excess
# and the Hoelder exponent coincide (1/2), so the boundary's dimension is
# 2n - 1 + 1/2 = 3.5.
FRACTAL_SCALES = 2.0 ** -np.arange(6.0, 8.25, 0.5)
FRACTAL_TARGET, FRACTAL_TOL, FRACTAL_BOOTSTRAP = 3.5, 0.2, 200


def _fractal_patch_counts(seed):
    wp = geometry2d.weierstrass_profile(amplitude=0.4, b=4.0)
    th = np.linspace(0.0, TWO_PI, 1 << 18)
    radii = wp.radius(th)
    # W with integer b is even about theta = pi, so its two minima (2.5127
    # and 3.7705 rad) tie up to rounding; take the one in [0, pi]
    tmin = th[np.argmin(np.where(th <= np.pi, radii, np.inf))]
    window = (th > tmin - 0.2) & (th < tmin + 0.2)
    r_lo = radii[window].min()
    return fractal.boundary_patch_counts(
        wp, [36.0], FRACTAL_SCALES, seed=seed,
        r1_range=(0.7 * r_lo, 0.97 * r_lo),
        theta1_range=(tmin - 0.2, tmin + 0.2), theta2_range=(0.0, 0.45),
        oversample=1, pitch_factor=2, n_offsets=1)


def check_boxdim(seed, quick=False):
    """Box-counting: the Weierstrass graph, the graph x [0, 1], the disk
    patch and the fractal patch (slope with a bootstrap CI half-width)."""
    fn = fractal.Weierstrass(a=0.5, b=3.0, terms=30)
    target = fn.graph_dimension
    scales = 2.0 ** -np.arange(4, 11 if quick else 15)
    tol = 0.2 if quick else 0.08
    counts = fractal.count_scales(fractal.graph_sampler(fn), scales,
                                  seed=seed)
    est = fractal.estimate_dimension(scales, counts)
    coarse = scales[:PRODUCT_SCALES]
    prod = fractal.estimate_dimension(coarse, fractal.product_interval_count(
        counts[:PRODUCT_SCALES], coarse))
    patch_counts = fractal.boundary_patch_counts(
        geometry2d.disk_profile(np.pi), [1.0], PATCH_SCALES, seed=seed,
        **PATCH_CONFIG)
    patch = fractal.estimate_dimension(PATCH_SCALES, patch_counts)
    frac = fractal.estimate_dimension(
        FRACTAL_SCALES, _fractal_patch_counts(seed),
        bootstrap=FRACTAL_BOOTSTRAP, seed=seed)
    ok = (abs(est.slope - target) <= tol and
          abs(prod.slope - (target + 1.0)) <= PRODUCT_TOL and
          abs(patch.slope - PATCH_TARGET) <= PATCH_TOL and
          abs(frac.slope - FRACTAL_TARGET) <= FRACTAL_TOL)
    return "boxdim", ok, _fields(
        slope=est.slope, target=target, tol=tol, r2=est.r_squared,
        patch_slope=patch.slope, patch_target=PATCH_TARGET,
        patch_tol=PATCH_TOL, product_slope=prod.slope,
        product_target=target + 1.0, product_tol=PRODUCT_TOL,
        fractal_slope=frac.slope, fractal_ci=frac.ci_halfwidth,
        fractal_target=FRACTAL_TARGET, fractal_tol=FRACTAL_TOL)


# Every check with its seed's offset from selftest's --seed, in report order.
CHECKS = [
    (check_jacobian, 1), (check_level_mapping, 2), (check_sandwich, 3),
    (check_volume, 0), (check_period, 4), (check_conjugacy, 5),
    (check_foliation, 6), (check_capacities, 0),
    (check_boundary_minimal, 7), (check_boxdim, 8),
]


def run_selftest(seed=7, threads=1, quick=False, out=print):
    """Run every check of CHECKS; returns 0 when all pass."""
    failed = 0
    for check, offset in CHECKS:
        extra = {"threads": threads} if check is check_volume else {}
        name, ok, detail = check(seed + offset, quick, **extra)
        out(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        failed += 0 if ok else 1
    out(f"{'OK' if failed == 0 else 'FAILED'} ({len(CHECKS) - failed}/"
        f"{len(CHECKS)} checks passed)")
    return 0 if failed == 0 else 1
