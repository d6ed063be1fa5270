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
from .selftest import _fmt, run_selftest
from .specfile import SpecFileError, load_spec


def _output(args):
    """--output opened for writing, or stdout, as a context manager."""
    return (open(args.output, "w", encoding="utf-8") if args.output
            else contextlib.nullcontext(sys.stdout))


def _emit(args, *parts):
    """Write the version header, then each line of ``parts`` as it comes."""
    with _output(args) as fh:
        fh.write(f"# symprod {__version__}\n")
        fh.writelines(f"{line}\n" for part in parts for line in part)


def _fields(report, *names, **values):
    """``name = value`` lines: ``report``'s named fields, then ``values``."""
    values = {**{name: getattr(report, name) for name in names}, **values}
    return [f"{name} = {_fmt(value)}" for name, value in values.items()]


CSV_CHUNK = 4096


def _csv(columns, *arrays):
    """The header ``columns``, then one row per index of ``arrays``. Each
    column goes through .tolist() CSV_CHUNK rows at a time, since numpy
    formats its own scalars about 30% slower than Python's."""
    yield ",".join(columns)
    arrays = [np.asarray(a) for a in arrays]
    for start in range(0, len(arrays[0]), CSV_CHUNK):
        chunk = [a[start:start + CSV_CHUNK].tolist() for a in arrays]
        for row in zip(*chunk, strict=True):
            yield ",".join(map(_fmt, row))


def _finite_floats(text, option, count=None):
    """The comma-separated numbers of ``text``, ``count`` of them when
    that is given; each must be finite."""
    try:
        values = [float(tok) for tok in text.split(",")]
    except ValueError:
        values = None
    if values is None or count not in (None, len(values)):
        what = "" if count is None else f"{count} "
        raise ValueError(f"{option} needs {what}comma-separated numbers, "
                         f"got {text!r}")
    if not all(np.isfinite(values)):
        raise ValueError(f"{option} needs finite numbers, got {text!r}")
    return values


def _count(args, name, least=1, most=None):
    """The integer option ``--name``, which must be at least ``least`` and,
    when ``most`` is given, at most ``most``."""
    value = getattr(args, name)
    product_mod.check_integer(f"--{name}", value, least, most)
    return value


def _check_seed(args):
    """Reject a negative --seed, for every command that takes one, before
    the command writes anything."""
    seed = getattr(args, "seed", 0)
    if seed < 0:
        raise ValueError(f"--seed must be non-negative, got {seed}")


def _parse_point(text, n):
    parts = [p for p in text.split(";") if p.strip()]
    if len(parts) != n:
        raise ValueError(f"expected {n} 'x,y' pairs separated by ';'")
    out = np.empty(n, dtype=complex)
    for i, p in enumerate(parts):
        x, y = _finite_floats(p, "--point", 2)
        out[i] = complex(x, y)
    return out


def cmd_area(args):
    areas = load_spec(args.spec).factor_areas
    _emit(args, _csv(["factor", "area"], range(len(areas)), areas))
    return 0


# Largest map --grid. 512^2 points took 0.6 s and 90 MB peak RSS on a
# 2-vCPU VM, 1024^2 took 1.8 s and 264 MB, mostly numpy's arrays.
MAP_GRID_MAX = 512


def cmd_map(args):
    factors = load_spec(args.spec).factors
    if not 0 <= args.factor < len(factors):
        raise ValueError(f"--factor must lie in 0..{len(factors) - 1}")
    profile = factors[args.factor]
    k = _count(args, "grid", most=MAP_GRID_MAX)
    rho = np.sqrt(np.linspace(0.05, 1.0, k) * profile.area / np.pi)
    theta = np.linspace(0.0, TWO_PI, k, endpoint=False)
    rr, tt = np.meshgrid(rho, theta)
    z = (rr * np.exp(1j * tt)).ravel()
    w = diskmap.disk_to_domain(profile, z)
    _emit(args, _csv(["x", "y", "u", "v", "jacobian"], z.real, z.imag,
                     w.real, w.imag, diskmap.jacobian_determinant(profile, z)))
    return 0


# Largest volume --samples. mc_volume holds one block per thread, so only
# its time grows: 10^9 samples took 14 s on 2 threads at 73 MB peak RSS
# (cosine x disk, 2-vCPU VM).
VOLUME_SAMPLES_MAX = 10 ** 9
# Largest --samples of conjugacy, sandwich and boundary-minimal, which hold
# every sample at once. 10^6 samples took 1.0 s and 496 MB peak RSS in
# conjugacy, 1.9 s and 488 MB in sandwich (both on weier_square_disk) and
# 0.3 s and 152 MB in boundary-minimal on a 2-vCPU VM; 10^12 asked numpy
# for 21.8 TiB.
SAMPLES_MAX = 10 ** 6


def cmd_volume(args):
    samples = _count(args, "samples", product_mod.MC_MIN_SAMPLES,
                     VOLUME_SAMPLES_MAX)
    threads = _count(args, "threads")
    domain = load_spec(args.spec)
    est = product_mod.mc_volume(domain, samples, args.seed, threads=threads)
    _emit(args, _fields(None, estimate=est.volume, stderr=est.std_error,
                        reference=domain.volume))
    return 0


# Largest flow --steps. 10^6 rows took 1.9 s and 169 MB peak RSS on a
# 2-vCPU VM, mostly the flow's arrays; 10^12 asked numpy for 7.3 TiB.
FLOW_STEPS_MAX = 10 ** 6


def cmd_flow(args):
    steps = _count(args, "steps", most=FLOW_STEPS_MAX)
    domain = product_mod.two_product(load_spec(args.spec))
    factors = domain.factors
    z0 = _parse_point(args.point, len(factors))
    t0, t1 = _finite_floats(args.t_range, "--t-range", 2)
    times = np.linspace(t0, t1, steps)
    # A finite but huge time unwraps the flowed angle past the float
    # range; report that once instead of numpy's warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        zt = product_mod.factorwise(dynamics.char_flow_2d, factors, z0,
                                    times)
    bad = ~np.isfinite(zt).all(axis=1)
    if bad.any():
        raise ValueError(f"the flowed position at t = {times[bad][0]:g} is "
                         "not finite; use a smaller --t-range")
    # zt.view(float)'s columns are x0, y0, x1, y1, ...
    cols = ["t", *(f"{c}{i}" for i in range(len(factors)) for c in "xy"),
            "gauge"]
    _emit(args, _csv(cols, times, *zt.view(float).T, domain.gauge(zt)))
    return 0


def cmd_conjugacy(args):
    if not 0.0 <= args.tolerance < np.inf:
        raise ValueError("--tolerance must be finite and nonnegative, "
                         f"got {args.tolerance}")
    samples = _count(args, "samples", most=SAMPLES_MAX)
    residuals = dynamics.sample_conjugacy_residuals(
        load_spec(args.spec), samples, args.seed)
    _emit(args, _fields(None, samples=samples, max_residual=residuals.max(),
                        mean_residual=residuals.mean()))
    return 0 if residuals.max() <= args.tolerance else 1


# Largest capacities --count. 10^6 values took 0.9 s and 144 MB peak RSS on
# a 2-vCPU VM, 10^7 took 8.3 s and 1.2 GB.
CAPACITY_COUNT_MAX = 10 ** 6


def cmd_capacities(args):
    areas = _finite_floats(args.areas, "--areas")
    count = _count(args, "count", most=CAPACITY_COUNT_MAX)
    table = capacities.gh_capacities(areas, count)
    zoll, c1, cn = capacities.zoll_check(areas)
    _emit(args, [",".join(map(_fmt, table.values)),
                 f"zoll = {'true' if zoll else 'false'} "
                 f"(c1={_fmt(c1)}, cn={_fmt(cn)})"])
    return 0


# Largest sandwich --steps. The RK4 time grows with the steps times the
# samples in the ramp: 2^14 steps took 1.5 s at 1000 samples and 16 s at
# 100 000 (weier_square, 2-vCPU VM, 74 MB peak RSS); 10^12 steps ran on
# until stopped.
SANDWICH_STEPS_MAX = 1 << 14


def cmd_sandwich(args):
    samples = _count(args, "samples", most=SAMPLES_MAX)
    steps = _count(args, "steps", diskmap.MIN_STEPS, SANDWICH_STEPS_MAX)
    report = diskmap.sandwich_check(load_spec(args.spec), args.epsilon,
                                    samples, args.seed, steps=steps)
    _emit(args, _fields(report, "epsilon", "violations_outer",
                        "violations_inner", "worst_outer_gauge",
                        "worst_inner_gauge", "closed_form", "integrated",
                        "outer_bound", "inner_bound"),
          (f"offender {kind} gauge={_fmt(gauge)} point={point}"
           for kind, point, gauge in report.offenders))
    return 0 if report.passed else 1


def cmd_boundary_minimal(args):
    samples = _count(args, "samples", most=SAMPLES_MAX)
    domain = load_spec(args.spec)
    n = len(domain.factors)
    rng = np.random.default_rng(args.seed)
    point = FlowPoint(angles=rng.uniform(0.0, TWO_PI, n),
                      levels=np.full(n, np.sqrt(1.0 / n)))
    a = domain.factor_areas[0]
    report = capacities.boundary_minimal_experiment(
        domain, point, width=args.width, target_area=args.target_ratio * a,
        samples=samples, seed=args.seed)
    _emit(args, _fields(report, "area", "target_area", "capacity_gap",
                        "eta", "checked", "violations"),
          (f"offender gauge={_fmt(gauge)} point={point_}"
           for point_, gauge in report.offenders))
    return 0 if report.passed else 1


# boxdim's --family names and the fractal.Weierstrass phase seed of each.
PHASE_SEEDS = {"weierstrass": None, "weierstrass_phase": 0}


def cmd_boxdim(args):
    with np.errstate(over="ignore"):  # inf scales are rejected downstream
        scales = 2.0 ** -np.arange(args.min_exp, args.max_exp + 1)
    if scales.size < fractal.MIN_SCALES:
        raise ValueError(f"--min-exp {args.min_exp} to --max-exp "
                         f"{args.max_exp} gives {scales.size} scales; need "
                         f"at least {fractal.MIN_SCALES}")
    if args.target == "boundary":
        if args.family != "weierstrass":
            raise ValueError("--target boundary takes only --family "
                             f"weierstrass, got {args.family!r}")
        profile = geometry2d.weierstrass_profile(a=args.a, b=args.b,
                                                 terms=args.terms)
        counts = fractal.boundary_patch_counts(profile, [1.0], scales,
                                               seed=args.seed)
    else:
        if args.family not in PHASE_SEEDS:
            raise ValueError(f"unknown fractal family {args.family!r}")
        fn = fractal.Weierstrass(a=args.a, b=args.b, terms=args.terms,
                                 seed=PHASE_SEEDS[args.family])
        counts = fractal.count_scales(fractal.graph_sampler(fn), scales,
                                      seed=args.seed)
        if args.target == "product":
            counts = fractal.product_interval_count(counts, scales)
    est = fractal.estimate_dimension(scales, counts)
    _emit(args, _csv(["eps", "count", "log_inv_eps", "log_count"],
                     scales, counts, np.log(1 / scales), np.log(counts)),
          [f"# slope = {_fmt(est.slope)}",
           f"# r_squared = {_fmt(est.r_squared)}"])
    return 0


def cmd_selftest(args):
    """Stream the report lines, headerless, to --output or stdout."""
    threads = _count(args, "threads")
    with _output(args) as fh:
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
    required = {"required": True}

    def add(name, fn, help, spec=True, samples=None, seed=required):
        """A subcommand with --output and, unless False or None, --spec,
        --samples with this default and --seed with these keywords."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(fn=fn)
        p.add_argument("--output", help="write output here instead of stdout")
        if spec:
            p.add_argument("--spec", required=True)
        if samples is not None:
            p.add_argument("--samples", type=int, default=samples)
        if seed is not None:
            p.add_argument("--seed", type=int, **seed)
        return p

    add("area", cmd_area, "factor areas of a domain spec", seed=None)

    p = add("map", cmd_map, "disk-map grid CSV with Jacobians", seed=None)
    p.add_argument("--factor", type=int, default=0)
    p.add_argument("--grid", type=int, default=24)

    p = add("volume", cmd_volume, "Monte Carlo volume of a product",
            samples=1000000)
    p.add_argument("--threads", type=int, default=1)

    p = add("flow", cmd_flow, "characteristic-flow trajectory CSV",
            seed=None)
    p.add_argument("--point", required=True,
                   help="per-factor 'x,y' pairs separated by ';'")
    p.add_argument("--t-range", default="0,1")
    p.add_argument("--steps", type=int, default=100)

    p = add("conjugacy", cmd_conjugacy, "conjugacy residual statistics",
            samples=1000)
    p.add_argument("--tolerance", type=float, default=1e-6)

    p = add("capacities", cmd_capacities, "ellipsoid capacity table",
            spec=False, seed=None)
    p.add_argument("--areas", required=True, help="comma-separated areas")
    p.add_argument("--count", type=int, default=4)

    p = add("sandwich", cmd_sandwich, "epsilon-sandwich verification",
            samples=100000)
    p.add_argument("--epsilon", type=float, default=0.05)
    p.add_argument("--steps", type=int, default=64,
                   help="RK4 steps for points in the cutoff ramp")

    p = add("boundary-minimal", cmd_boundary_minimal,
            "boundary-minimality shrinking experiment", samples=100000)
    p.add_argument("--width", type=float, default=0.9)
    p.add_argument("--target-ratio", type=float, default=0.9)

    p = add("boxdim", cmd_boxdim, "box-counting dimension estimate",
            spec=False)
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

    p = add("selftest", cmd_selftest, "run the bundled invariant suite",
            spec=False, seed={"default": 7})
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--quick", action="store_true",
                   help="reduced sample counts for fast verification")

    return parser


def run(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_seed(args)
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
