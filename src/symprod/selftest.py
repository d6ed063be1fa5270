"""The paper's experiments as invariant checks, behind ``symprod selftest``.

Each ``check_*`` function is the one implementation of its experiment:
``symprod selftest`` runs them at its own sizes and the acceptance suite
(tests/test_acceptance.py) at its seeds, sizes and time bounds. Each
returns (name, passed, detail) with deterministic formatting, so two runs
with the same seed produce byte-identical reports regardless of the worker
count.
"""

from __future__ import annotations

import numpy as np

from . import capacities, diskmap, dynamics, fractal, geometry2d, product
from .geometry2d import TWO_PI


def _fmt(value):
    return f"{value:.12g}" if isinstance(value, float) else str(value)


def _standard_factors():
    wprof = geometry2d.weierstrass_profile(terms=20)
    square = geometry2d.polygon_profile(
        [(1, 1), (-1, 1), (-1, -1), (1, -1)])
    return wprof, square


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


def check_jacobian(samples=1000, seed=11):
    """Finite-difference Jacobian of the disk map on the smooth profile."""
    profile = geometry2d.cosine_profile(np.pi)
    rng = np.random.default_rng(seed)
    rho = np.sqrt(rng.uniform(0.04, 4.0, samples)) * np.sqrt(
        profile.area / np.pi)
    theta = rng.uniform(0.0, TWO_PI, samples)
    det = diskmap.jacobian_determinant(profile, rho * np.exp(1j * theta))
    worst = float(np.max(np.abs(det - 1.0)))
    return "jacobian", worst <= 1e-6, f"max|det-1|={_fmt(worst)} tol=1e-06"


def check_level_mapping(samples=10000, seed=12):
    """gauge(psi(z))^2 = pi |z|^2 / a on every preset profile. psi scales by
    R(phi) and the gauge divides by it, so this measures the round-off of
    R, S and S^-1; it is no independent check of psi."""
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


def check_sandwich(samples=100000, seed=13, steps=64):
    wprof, square = _standard_factors()
    report = diskmap.sandwich_check([wprof, square], epsilon=0.05,
                                    samples=samples, seed=seed, steps=steps)
    detail = (f"violations={report.violations_outer}+"
              f"{report.violations_inner} "
              f"worst_outer={_fmt(report.worst_outer_gauge)} "
              f"worst_inner={_fmt(report.worst_inner_gauge)} "
              f"outer_bound={_fmt(report.outer_bound)} "
              f"inner_bound={_fmt(report.inner_bound)}")
    return "sandwich", report.passed, detail


def check_volume(samples=1000000, seed=7, threads=1):
    """mc_volume against the closed-form ProductDomain.volume at p = 1, 2, 3.

    Each p draws ``samples`` points on the same seed and must land within
    3 standard errors of the closed form.
    """
    cos1 = geometry2d.cosine_profile(1.0)
    disk1 = geometry2d.disk_profile(1.0)
    ok, parts = True, []
    for p in (1, 2, 3):
        domain = product.ProductDomain([cos1, disk1], p=p)
        est = product.mc_volume(domain, samples, seed, threads=threads)
        ok = ok and abs(est.volume - domain.volume) <= 3.0 * est.std_error
        parts.append(f"p={p} estimate={_fmt(est.volume)} "
                     f"stderr={_fmt(est.std_error)} "
                     f"target={_fmt(domain.volume)}")
    return "volume", ok, "; ".join(parts)


def check_period(points=20, seed=14):
    """Phi^a(z) = z on every preset boundary. S^-1(S(theta) + a) = theta +
    2 pi by construction, so this measures the round-off of R, S and S^-1;
    it is no independent check of the flow."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for name, profile in _preset_profiles().items():
        theta = rng.uniform(0.0, TWO_PI, points)
        z = profile.boundary_point(theta)
        back = dynamics.char_flow_2d(profile, z, profile.area)
        worst = max(worst, float(np.max(np.abs(back - z))))
    return "period", worst <= 1e-8, f"max|Phi^a(z)-z|={_fmt(worst)} tol=1e-08"


def check_conjugacy(samples=1000, seed=15):
    """psi(Reeb^t z) = Phi^t(psi(z)): both reach the angle S^-1(a theta/2pi
    + t), so this measures the round-off of R, S and S^-1; it is no
    independent check of psi or of the flow."""
    worst = float(np.max(dynamics.sample_conjugacy_residuals(
        _standard_factors(), samples, seed)))
    return "conjugacy", worst <= 1e-6, f"max_residual={_fmt(worst)} tol=1e-06"


def check_foliation(samples=1000, seed=16):
    """Orbits close at t = a (check_period's identity, so the round-off of
    R, S and S^-1, no independent check of the flow); areas (1, sqrt 2)
    have no period up to 1000 turns."""
    cos1 = geometry2d.cosine_profile(1.0)
    disk1 = geometry2d.disk_profile(1.0)
    report = dynamics.is_foliated_by_systoles([cos1, disk1], samples, seed)

    disk_a = geometry2d.disk_profile(1.0)
    disk_b = geometry2d.disk_profile(np.sqrt(2.0))
    point = dynamics.FlowPoint(angles=[0.3, 1.1],
                               levels=np.sqrt([0.5, 0.5]))
    period = dynamics.orbit_period([disk_a, disk_b], point,
                                   denominator_bound=1000)
    ok = report.passed and period is None
    return ("foliation", ok,
            f"worst={_fmt(report.worst_deviation)} "
            f"irrational_period={'none' if period is None else _fmt(period)}")


def check_capacities():
    table = capacities.gh_capacities([1.0, 2.0], 4)
    expect = (1.0, 2.0, 2.0, 3.0)
    ok = table.values == expect
    zoll, c1, cn = capacities.zoll_check([1.5, 1.5, 1.5])
    ok = ok and zoll and c1 == cn == 1.5
    notzoll, _, _ = capacities.zoll_check([1.0, 2.0])
    ok = ok and not notzoll
    return ("capacities", ok,
            "E(1,2)->" + ",".join(_fmt(v) for v in table.values))


def check_boundary_minimal(samples=100000, seed=17):
    cos1 = geometry2d.cosine_profile(1.0)
    disk1 = geometry2d.disk_profile(1.0)
    point = dynamics.FlowPoint(angles=[0.5, 2.0], levels=np.sqrt([0.5, 0.5]))
    report = capacities.boundary_minimal_experiment(
        [cos1, disk1], point, width=0.9, target_area=0.9,
        samples=samples, seed=seed)
    ok = report.passed and abs(report.capacity_gap - 0.1) < 1e-9
    return ("boundary-minimal", ok,
            f"violations={report.violations} gap={_fmt(report.capacity_gap)} "
            f"checked={report.checked}")


# criterion-10's disk patch: a patch of the boundary of D(pi) x_2 E(1),
# a smooth 3-manifold in R^4.
PATCH_SCALES = 2.0 ** -np.arange(3.0, 6.75, 0.5)
PATCH_CONFIG = dict(r1_range=(0.2, 0.8), theta1_range=(0.0, TWO_PI),
                    theta2_range=(0.0, TWO_PI), oversample=1, pitch_factor=2,
                    n_offsets=1)
PATCH_TARGET, PATCH_TOL = 3.0, 0.1


def check_boxdim(quick=False, seed=18):
    fn = fractal.Weierstrass(a=0.5, b=3.0, terms=30)
    target = fn.graph_dimension
    if quick:
        scales = 2.0 ** -np.arange(4, 11)
        tol = 0.2
    else:
        scales = 2.0 ** -np.arange(4, 15)
        tol = 0.08
    counts = fractal.count_scales(fractal.graph_sampler(fn), scales,
                                  seed=seed)
    est = fractal.estimate_dimension(scales, counts)
    patch_counts = fractal.boundary_patch_counts(
        geometry2d.disk_profile(np.pi), [1.0], PATCH_SCALES, seed=seed,
        **PATCH_CONFIG)
    patch = fractal.estimate_dimension(PATCH_SCALES, patch_counts)
    ok = (abs(est.slope - target) <= tol and
          abs(patch.slope - PATCH_TARGET) <= PATCH_TOL)
    return ("boxdim", ok,
            f"slope={_fmt(est.slope)} target={_fmt(target)} tol={_fmt(tol)} "
            f"r2={_fmt(est.r_squared)} patch_slope={_fmt(patch.slope)} "
            f"patch_target={_fmt(PATCH_TARGET)} "
            f"patch_tol={_fmt(PATCH_TOL)}")


def run_selftest(seed=7, threads=1, quick=False, out=print):
    """Run every bundled check; returns 0 when all pass."""
    checks = [
        lambda: check_jacobian(samples=200 if quick else 1000, seed=seed + 1),
        lambda: check_level_mapping(samples=1000 if quick else 10000,
                                    seed=seed + 2),
        lambda: check_sandwich(samples=2000 if quick else 100000,
                               seed=seed + 3, steps=32 if quick else 64),
        lambda: check_volume(samples=50000 if quick else 1000000, seed=seed,
                             threads=threads),
        lambda: check_period(seed=seed + 4),
        lambda: check_conjugacy(samples=200 if quick else 1000,
                                seed=seed + 5),
        lambda: check_foliation(samples=100 if quick else 1000,
                                seed=seed + 6),
        check_capacities,
        lambda: check_boundary_minimal(samples=5000 if quick else 100000,
                                       seed=seed + 7),
        lambda: check_boxdim(quick=quick, seed=seed + 8),
    ]
    failed = 0
    for make in checks:
        name, ok, detail = make()
        out(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        failed += 0 if ok else 1
    out(f"{'OK' if failed == 0 else 'FAILED'} ({len(checks) - failed}/"
        f"{len(checks)} checks passed)")
    return 0 if failed == 0 else 1
