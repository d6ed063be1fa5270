#!/usr/bin/env python3
"""symprod benchmark: runs one workload and reports its metrics.

    python3 perfbench/run.py --workload {sandwich,boxdim,closed_form} \\
        --seed N --seconds S --trace {0,1} [--smoke]

Run from the root of a source checkout; the library is imported from its
``src/`` directory, never from an installed copy. Each workload is a closed
loop with one caller: round k gets seed N + k and starts only after round
k - 1 has returned. Rounds run until S seconds have passed.

``--trace 0`` times untraced rounds and reports the end-to-end metrics,
each timing scaled to reference machine speed (see ``speed.py``).
``--trace 1`` alternates untraced and traced rounds, then runs the layer
probes, and reports the per-layer metrics. ``--smoke`` runs small rounds,
a fixed number of them, for the benchmark's own tests. ``--workload all``
runs each workload in its own process, one after another, and reports
their metrics together, each name prefixed with its workload.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. Records are written under ``.bench_build/perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_build" / "perfbench"
WORKLOAD_NAMES = ("sandwich", "boxdim", "closed_form")
SETUP_PROBES = 5
SMOKE_ROUNDS = 2
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

def import_library():
    """Import symprod from this checkout's src/, or exit with status 1."""
    src = ROOT / "src"
    if not (src / "symprod" / "__init__.py").is_file():
        sys.exit(f"error: no symprod sources under {src}")
    sys.path.insert(0, str(src))
    import symprod
    if Path(symprod.__file__).resolve().parent != src / "symprod":
        sys.exit(f"error: imported symprod from {symprod.__file__}")


def setup_probe(args):
    """Fresh-process set-up time: import, load specs, build the inputs.

    Prints it with the median of five reference kernels timed right after
    in the same process, which is as warm and as fast as the set-up was.
    With ``--probe-round`` it then runs one round on ``--seed`` and prints
    the process's peak RSS in MB as well.
    """
    start = time.perf_counter()
    import_library()
    from workloads import WORKLOADS
    workload = WORKLOADS[args.setup_probe]
    ctx = workload.setup(ROOT)
    elapsed = time.perf_counter() - start
    from speed import Reference
    reference = Reference()
    kernel_s = reference.median(5)[0]
    out = [elapsed, kernel_s]
    if args.probe_round:
        workload.run(ctx, args.seed, "small" if args.smoke else "full")
        out.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    print(*map(repr, out))


def setup_probes(args, count):
    """Set-up times of ``count`` fresh processes, raw and at reference
    speed, and the peak RSS of the first, which also runs one round."""
    from speed import scale
    raw, scaled = [], []
    for k in range(count):
        out = subprocess.run(
            [sys.executable, __file__, "--setup-probe", args.workload,
             "--seed", str(args.seed)] + (["--smoke"] if args.smoke else [])
            + ([] if k else ["--probe-round"]),
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        elapsed, kernel_s, *rss = map(float, out.stdout.split())
        raw.append(elapsed)
        scaled.append(scale(elapsed, kernel_s))
        if rss:
            peak_rss_mb = rss[0]
    return raw, scaled, peak_rss_mb


def machine():
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy
    import scipy
    from workloads import NPROC
    return {"nproc": NPROC, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "cpu": cpu or "unknown",
            "thread_env": {v: os.environ.get(v, "unset") for v in THREAD_VARS}}


class Rounds:
    """Verdicts, wall and CPU seconds of the rounds run so far.

    With a ``speed.Reference`` the rounds are also timed at reference
    speed, in ``wall_ref`` and ``cpu_ref``.
    """

    def __init__(self, reference=None):
        self.wall, self.cpu, self.digests = [], [], {}
        self.wall_ref, self.cpu_ref = [], []
        self.reference = reference
        self.failed = 0

    def one(self, fn, seed):
        """Run fn(seed) as one round; a failed verdict or a raise fails it."""
        def timed():
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                verdict = fn(seed)
            except Exception:
                traceback.print_exc()
                verdict = None
            return verdict, time.perf_counter() - t0, time.process_time() - c0

        if self.reference is None:
            verdict, wall, cpu = timed()
        else:
            from speed import scale
            (verdict, wall, cpu), (kernel_wall, kernel_cpu) = \
                self.reference.around(timed)
            self.wall_ref.append(scale(wall, kernel_wall))
            self.cpu_ref.append(scale(cpu, kernel_cpu))
        self.wall.append(wall)
        self.cpu.append(cpu)
        if verdict is None or not verdict.passed:
            self.failed += 1
            print(f"round seed {seed} FAILED"
                  + (f": {verdict.text}" if verdict else ""))
        if verdict is not None:
            self.digests[seed] = verdict.digest

    @property
    def attempted(self):
        return len(self.wall)


def closed_loop(step, count=None, seconds=None):
    """Call step(k) for k = 0, 1, ...: ``count`` times, else for ``seconds``.

    One caller: step k + 1 starts only after step k has returned.
    """
    start = time.perf_counter()
    k = 0
    while (k < count if count is not None else
           k == 0 or time.perf_counter() - start < seconds):
        step(k)
        k += 1


def tail(values):
    """Highest order statistic with ten rounds beyond it, and its percentile.

    With ten or fewer rounds there is none; the maximum is reported.
    """
    ordered = sorted(values)
    n = len(ordered)
    rank = n - 11 if n > 10 else n - 1
    return ordered[rank], 100.0 * (rank + 1) / n


def run_end_to_end(args, workload, ctx):
    from speed import Reference
    size = "small" if args.smoke else "full"
    setup_raw, setup, peak_rss_mb = setup_probes(
        args, 1 if args.smoke else SETUP_PROBES)
    # Warm-up round on the base seed: fills caches, and round 0 repeats it.
    reference = workload.run(ctx, args.seed, size)
    rounds = Rounds(Reference())
    closed_loop(lambda k: rounds.one(
        lambda seed: workload.run(ctx, seed, size), args.seed + k),
        count=SMOKE_ROUNDS if args.smoke else None, seconds=args.seconds)
    checks = {"same_seed_digest": rounds.digests.get(args.seed)
              == reference.digest}
    if workload.name == "closed_form":
        one = workload.run(ctx, args.seed, size, threads=1)
        checks["threads_1_vs_nproc_digest"] = one.digest == reference.digest
    tail_value, tail_pct = tail(rounds.wall_ref)
    metrics = {
        "setup_s": statistics.median(setup),
        "round_s.p50": statistics.median(rounds.wall_ref),
        "round_s.tail": tail_value,
        "round_cpu_s.p50": statistics.median(rounds.cpu_ref),
        "peak_rss_mb": peak_rss_mb,
    }
    notes = {
        "rounds": rounds.attempted,
        "tail_percentile": round(tail_pct, 1),
        "setup_samples": len(setup),
        # Raw seconds on this machine, before scaling to reference speed.
        "raw.setup_s": statistics.median(setup_raw),
        "raw.round_s.p50": statistics.median(rounds.wall),
        "raw.round_s.tail": tail(rounds.wall)[0],
        "raw.round_cpu_s.p50": statistics.median(rounds.cpu),
        # Peak RSS of this process, after all its rounds and kernel runs.
        "process_peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "failed_frac": rounds.failed / rounds.attempted,
        "round0_verdict": reference.text,
        "round0_digest": reference.digest,
    }
    return rounds.attempted, rounds.failed, checks, metrics, notes


def run_traced(args, workload, contexts):
    from layers import layer_metrics, run_probes
    from tracing import Tracer, self_times_ok
    size = "small" if args.smoke else "full"
    ctx = contexts[workload.name]
    reference = workload.run(ctx, args.seed, size)
    tracer = Tracer()

    def traced_round(seed):
        with tracer.round(seed):
            return workload.traced(ctx, seed, size, tracer)

    # Untraced and traced rounds alternate on the same seed, so both see the
    # same machine state and the overhead is not drift between two phases.
    untraced, traced = Rounds(), Rounds()

    def pair(k):
        untraced.one(lambda seed: workload.run(ctx, seed, size), args.seed + k)
        traced.one(traced_round, args.seed + k)

    closed_loop(pair, count=1 if args.smoke else None,
                seconds=2 * args.seconds / 3)
    probes_ok = run_probes(ROOT, contexts, workload.name, args.seed, tracer)
    tracer.dump(OUT / f"spans-{workload.name}-{args.seed}.json")
    checks = {
        "same_seed_digest": untraced.digests.get(args.seed)
        == reference.digest,
        "probe_verdicts": probes_ok,
        "child_self_time_within_round": self_times_ok(tracer.spans),
    }
    attempted = untraced.attempted + traced.attempted
    failed = untraced.failed + traced.failed
    metrics = layer_metrics(tracer.spans, statistics.median(untraced.wall),
                            statistics.median(traced.wall))
    notes = {
        "untraced_rounds": untraced.attempted,
        "traced_rounds": traced.attempted,
        "spans": len(tracer.spans),
        # Traced rounds rebuild the experiment from its public calls; a
        # mismatch means the decomposition no longer mirrors the library.
        "traced_digests_match": traced.digests == untraced.digests,
        "failed_frac": failed / attempted,
    }
    return attempted, failed, checks, metrics, notes


def run_all(args):
    """Every workload in a child process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace",
               str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=600)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"error: workload {name} exited {proc.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update(
            {f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small rounds, fixed count (benchmark tests)")
    parser.add_argument("--setup-probe", choices=WORKLOAD_NAMES,
                        help=argparse.SUPPRESS)
    parser.add_argument("--probe-round", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)

    import_library()
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload]
    if args.trace:
        contexts = {name: w.setup(ROOT) for name, w in WORKLOADS.items()}
        result = run_traced(args, workload, contexts)
    else:
        result = run_end_to_end(args, workload, workload.setup(ROOT))
    attempted, failed, checks, metrics, notes = result
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    if metrics.keys() != units.keys():
        sys.exit("error: metrics differ from BENCHMARK.json: "
                 f"{sorted(metrics.keys() ^ units.keys())}")

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "smoke": args.smoke, "machine": machine(), "checks": checks,
              "notes": notes, "metrics": metrics}
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))

    print(f"workload {args.workload}  seed {args.seed}  "
          f"trace {args.trace}  machine {json.dumps(record['machine'])}")
    for key, value in {**notes, **checks}.items():
        print(f"  {key}: {value}")
    for name, value in metrics.items():
        print(f"  {name:52s} {value:14.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0 and all(checks.values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(value), "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
