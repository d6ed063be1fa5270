"""Command-line surface: ``symprod <command> ...``.

All stochastic commands require a seed and produce byte-identical output
for identical configuration. Exit codes: 0 success, 1 check failure,
2 usage or spec-file error.
"""

from __future__ import annotations

import argparse
import contextlib
import sys

import numpy as np

from . import __version__, capacities, diskmap, dynamics, fractal, geometry2d
from . import product as product_mod
from .dynamics import FlowPoint
from .geometry2d import TWO_PI
from .selftest import run_selftest
from .specfile import SpecFileError, load_spec


def _fmt(value):
    return f"{value:.12g}" if isinstance(value, float) else str(value)


def _emit(args, lines):
    """Write the version header and ``lines`` to --output or stdout."""
    text = "".join(f"{ln}\n" for ln in [f"# symprod {__version__}", *lines])
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_fields(args, report, names, extra):
    """Emit ``name = value`` for the named report fields, then ``extra``."""
    _emit(args, [f"{name} = {_fmt(getattr(report, name))}" for name in names]
          + extra)


def _csv(columns, rows):
    return [",".join(columns)] + [",".join(map(_fmt, row)) for row in rows]


def _finite_floats(text, option):
    """The comma-separated numbers of ``text``; each must be finite."""
    values = [float(tok) for tok in text.split(",")]
    if not all(np.isfinite(values)):
        raise ValueError(f"{option} needs finite numbers, got {text!r}")
    return values


def _count(args, name):
    """The integer option ``--name``, which must be at least 1."""
    value = getattr(args, name)
    if value < 1:
        raise ValueError(f"--{name} must be at least 1, got {value}")
    return value


def _parse_point(text, n):
    parts = [p for p in text.split(";") if p.strip()]
    if len(parts) != n:
        raise ValueError(f"expected {n} 'x,y' pairs separated by ';'")
    out = np.empty(n, dtype=complex)
    for i, p in enumerate(parts):
        x, y = _finite_floats(p, "--point")
        out[i] = complex(x, y)
    return out


def cmd_area(args):
    domain = load_spec(args.spec)
    rows = [(i, float(a)) for i, a in enumerate(domain.factor_areas)]
    _emit(args, _csv(["factor", "area"], rows))
    return 0


def cmd_map(args):
    factors = load_spec(args.spec).factors
    if not 0 <= args.factor < len(factors):
        raise ValueError(f"--factor must lie in 0..{len(factors) - 1}")
    profile = factors[args.factor]
    k = _count(args, "grid")
    rho = np.sqrt(np.linspace(0.05, 1.0, k) * profile.area / np.pi)
    theta = np.linspace(0.0, TWO_PI, k, endpoint=False)
    rr, tt = np.meshgrid(rho, theta)
    z = (rr * np.exp(1j * tt)).ravel()
    w = diskmap.disk_to_domain(profile, z)
    det = diskmap.jacobian_determinant(profile, z)
    rows = [(float(a.real), float(a.imag), float(b.real), float(b.imag),
             float(d)) for a, b, d in zip(z, w, det)]
    _emit(args, _csv(["x", "y", "u", "v", "jacobian"], rows))
    return 0


def cmd_volume(args):
    domain = load_spec(args.spec)
    est = product_mod.mc_volume(domain, args.samples, args.seed,
                                threads=args.threads)
    lines = [f"estimate = {_fmt(est.volume)}",
             f"stderr = {_fmt(est.std_error)}",
             f"reference = {_fmt(domain.volume)}"]
    _emit(args, lines)
    return 0


def cmd_flow(args):
    domain = product_mod.two_product(load_spec(args.spec))
    factors = domain.factors
    z0 = _parse_point(args.point, len(factors))
    t0, t1 = _finite_floats(args.t_range, "--t-range")
    rows = []
    for t in np.linspace(t0, t1, _count(args, "steps")):
        zt = product_mod.factorwise(dynamics.char_flow_2d, factors, z0, t)
        row = [float(t)]
        for z in zt:
            row.extend([float(z.real), float(z.imag)])
        row.append(float(domain.gauge(zt)))
        rows.append(row)
    cols = ["t"]
    for i in range(len(factors)):
        cols.extend([f"x{i}", f"y{i}"])
    cols.append("gauge")
    _emit(args, _csv(cols, rows))
    return 0


def cmd_conjugacy(args):
    residuals = dynamics.sample_conjugacy_residuals(
        load_spec(args.spec), args.samples, args.seed)
    _emit(args, [f"samples = {args.samples}",
                 f"max_residual = {_fmt(residuals.max())}",
                 f"mean_residual = {_fmt(residuals.mean())}"])
    return 0 if residuals.max() <= args.tolerance else 1


def cmd_capacities(args):
    areas = [float(tok) for tok in args.areas.split(",")]
    table = capacities.gh_capacities(areas, args.count)
    zoll, c1, cn = capacities.zoll_check(areas)
    _emit(args, [",".join(map(_fmt, table.values)),
                 f"zoll = {'true' if zoll else 'false'} "
                 f"(c1={_fmt(c1)}, cn={_fmt(cn)})"])
    return 0


def cmd_sandwich(args):
    report = diskmap.sandwich_check(load_spec(args.spec), args.epsilon,
                                    args.samples, args.seed, steps=args.steps)
    _emit_fields(args, report, [
        "epsilon", "violations_outer", "violations_inner",
        "worst_outer_gauge", "worst_inner_gauge", "closed_form",
        "integrated", "outer_bound", "inner_bound"],
        [f"offender {kind} gauge={_fmt(gauge)} point={point}"
         for kind, point, gauge in report.offenders])
    return 0 if report.passed else 1


def cmd_boundary_minimal(args):
    domain = load_spec(args.spec)
    n = len(domain.factors)
    rng = np.random.default_rng(args.seed)
    point = FlowPoint(angles=rng.uniform(0.0, TWO_PI, n),
                      levels=np.full(n, np.sqrt(1.0 / n)))
    a = domain.factor_areas[0]
    report = capacities.boundary_minimal_experiment(
        domain, point, width=args.width, target_area=args.target_ratio * a,
        samples=args.samples, seed=args.seed)
    _emit_fields(args, report, [
        "area", "target_area", "capacity_gap", "eta", "checked",
        "violations"],
        [f"offender gauge={_fmt(gauge)} point={point_}"
         for point_, gauge in report.offenders])
    return 0 if report.passed else 1


def cmd_boxdim(args):
    scales = 2.0 ** -np.arange(args.min_exp, args.max_exp + 1)
    if args.target == "boundary":
        if args.family != "weierstrass":
            raise ValueError("--target boundary takes only --family "
                             f"weierstrass, got {args.family!r}")
        profile = geometry2d.weierstrass_profile(a=args.a, b=args.b,
                                                 terms=args.terms)
        counts = fractal.boundary_patch_counts(profile, [1.0], scales,
                                               seed=args.seed)
    else:
        fn = fractal.make_fractal(args.family, a=args.a, b=args.b,
                                  terms=args.terms)
        counts = fractal.count_scales(fractal.graph_sampler(fn), scales,
                                      seed=args.seed)
        if args.target == "product":
            counts = fractal.product_interval_count(counts, scales)
    est = fractal.estimate_dimension(scales, counts)
    rows = [(float(e), float(c), float(np.log(1 / e)), float(np.log(c)))
            for e, c in zip(scales, counts)]
    _emit(args, _csv(["eps", "count", "log_inv_eps", "log_count"], rows)
          + [f"# slope = {_fmt(est.slope)}",
             f"# r_squared = {_fmt(est.r_squared)}"])
    return 0


def cmd_selftest(args):
    """Stream the report lines, headerless, to --output or stdout."""
    threads = _count(args, "threads")
    with (open(args.output, "w", encoding="utf-8") if args.output
          else contextlib.nullcontext(sys.stdout)) as fh:
        return run_selftest(seed=args.seed, threads=threads,
                            quick=args.quick,
                            out=lambda line: print(line, file=fh))


def build_parser():
    parser = argparse.ArgumentParser(
        prog="symprod",
        description="Symplectic products of star-shaped planar domains.")
    parser.add_argument("--version", action="version",
                        version=f"symprod {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        p.add_argument("--output", help="write output here instead of stdout")
        return p

    p = add("area", cmd_area, help="factor areas of a domain spec")
    p.add_argument("--spec", required=True)

    p = add("map", cmd_map, help="disk-map grid CSV with Jacobians")
    p.add_argument("--spec", required=True)
    p.add_argument("--factor", type=int, default=0)
    p.add_argument("--grid", type=int, default=24)

    p = add("volume", cmd_volume, help="Monte Carlo volume of a product")
    p.add_argument("--spec", required=True)
    p.add_argument("--samples", type=int, default=1000000)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--threads", type=int, default=1)

    p = add("flow", cmd_flow, help="characteristic-flow trajectory CSV")
    p.add_argument("--spec", required=True)
    p.add_argument("--point", required=True,
                   help="per-factor 'x,y' pairs separated by ';'")
    p.add_argument("--t-range", default="0,1")
    p.add_argument("--steps", type=int, default=100)

    p = add("conjugacy", cmd_conjugacy, help="conjugacy residual statistics")
    p.add_argument("--spec", required=True)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--tolerance", type=float, default=1e-6)

    p = add("capacities", cmd_capacities, help="ellipsoid capacity table")
    p.add_argument("--areas", required=True, help="comma-separated areas")
    p.add_argument("--count", type=int, default=4)

    p = add("sandwich", cmd_sandwich, help="epsilon-sandwich verification")
    p.add_argument("--spec", required=True)
    p.add_argument("--epsilon", type=float, default=0.05)
    p.add_argument("--samples", type=int, default=100000)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--steps", type=int, default=64,
                   help="RK4 steps for points in the cutoff ramp")

    p = add("boundary-minimal", cmd_boundary_minimal,
            help="boundary-minimality shrinking experiment")
    p.add_argument("--spec", required=True)
    p.add_argument("--width", type=float, default=0.9)
    p.add_argument("--target-ratio", type=float, default=0.9)
    p.add_argument("--samples", type=int, default=100000)
    p.add_argument("--seed", type=int, required=True)

    p = add("boxdim", cmd_boxdim, help="box-counting dimension estimate")
    p.add_argument("--target", choices=["function", "product", "boundary"],
                   default="function")
    p.add_argument("--family", default="weierstrass",
                   help="weierstrass or weierstrass_phase; the boundary "
                        "target takes only weierstrass")
    p.add_argument("--a", type=float, default=0.5)
    p.add_argument("--b", type=float, default=3.0)
    p.add_argument("--terms", type=int, default=30)
    p.add_argument("--min-exp", type=int, default=4)
    p.add_argument("--max-exp", type=int, default=14)
    p.add_argument("--seed", type=int, required=True)

    p = add("selftest", cmd_selftest, help="run the bundled invariant suite")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--quick", action="store_true",
                   help="reduced sample counts for fast verification")

    return parser


def run(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except SpecFileError as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        # Library calls raise ValueError on invalid input (too few
        # samples or scales, non-positive areas, p != 2 for a 2-product);
        # OSError covers a spec or output path that cannot be opened.
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
