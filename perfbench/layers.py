"""Per-layer metrics of the traced run, and the layer probes behind them.

A metric is computed from the spans of the workload's own traced rounds
when they contain the spans it needs. Otherwise it comes from the layer
probes: fixed-size, seeded calls of each layer's primitives plus one small
traced round of every other workload, each recorded as a round named
``probe:<what>``. Every workload therefore reports every metric, and a
workload whose rounds never call a layer reports the probe's figure for it.
"""

from __future__ import annotations

import statistics

import numpy as np

from symprod import capacities, geometry2d, product, specfile
from symprod.geometry2d import TWO_PI
from workloads import NPROC, WORKLOADS

SPECS = ("weier_square.spec", "cosine_disk.spec", "disks_1_1.spec")
PROBE_POINTS = 100_000


def run_probes(root, contexts, own, seed, tr):
    """Traced layer probes; ``contexts`` maps workload name to its setup."""
    rng = np.random.default_rng([seed, 99])
    weier = contexts["sandwich"]["factors"][0]
    cosine = geometry2d.cosine_profile(np.pi)

    with tr.round("probe:geometry2d"):
        for _ in range(3):
            tr.call("geometry2d.profile_build", geometry2d.RadialProfile,
                    weier.samples, "linear")
        for kind, prof, n in (("linear", weier, 20_000),
                              ("cubic", cosine, 4_000)):
            s = rng.uniform(0.0, prof.area, n)
            with tr.span(f"geometry2d.inverse_sector_area.{kind}",
                         work=n) as rec:
                theta = prof.inverse_sector_area(s)
            rec["residual"] = float(
                np.max(np.abs(prof.sector_area(theta) - s)) / prof.area)
        theta = rng.uniform(0.0, TWO_PI, PROBE_POINTS)
        z = rng.uniform(-1, 1, PROBE_POINTS) + 1j * rng.uniform(
            -1, 1, PROBE_POINTS)
        for name, fn, arg in (("sector_area", weier.sector_area, theta),
                              ("radius", weier.radius, theta),
                              ("gauge", weier.gauge, z)):
            tr.call(f"geometry2d.{name}", fn, arg, work=PROBE_POINTS)

    with tr.round("probe:specfile"):
        for name in SPECS:
            tr.call("specfile.load_spec", specfile.load_spec,
                    root / "specs" / name)

    with tr.round("probe:product"):
        domain = contexts["closed_form"]["domain"]
        samples = 1 << 18
        for threads in sorted({1, NPROC}):
            with tr.span("product.mc_volume", work=samples,
                         threads=threads) as rec:
                est = product.mc_volume(domain, samples, seed,
                                        threads=threads)
            rec["hits"] = est.hits
        pts = product.sample_complex_box(
            rng, contexts["sandwich"]["domain"].bounding_radii(),
            PROBE_POINTS)
        tr.call("product.gauge", contexts["sandwich"]["domain"].gauge, pts,
                work=PROBE_POINTS)

    with tr.round("probe:capacities"):
        cos1 = contexts["closed_form"]["factors"][0]
        for _ in range(2):
            tr.call("capacities.shrink_profile", capacities.shrink_profile,
                    cos1, 0.5, 0.9, 0.9)

    passed = True
    for name, workload in WORKLOADS.items():
        if name != own:
            with tr.round(f"probe:{name}"):
                passed &= workload.traced(contexts[name], seed, "small",
                                          tr).passed
    return passed


def _duration(span):
    return span["end"] - span["start"]


class _Spans:
    def __init__(self, spans):
        self.spans = spans
        self.rounds = {s["round"]: _duration(s) for s in spans
                       if s["name"] == "round"}

    def pick(self, name, **match):
        """Spans of ``name`` from the own rounds, else from the probes."""
        sel = [s for s in self.spans if s["name"] == name and
               all(s.get(k) == v for k, v in match.items())]
        own = [s for s in sel if isinstance(s["round"], int)]
        if not (own or sel):
            raise LookupError(f"no span named {name!r} {match or ''}")
        return own or sel

    def rate(self, name, key="work", **match):
        sel = self.pick(name, **match)
        return sum(s[key] for s in sel) / sum(map(_duration, sel))

    def median_s(self, name):
        return statistics.median(map(_duration, self.pick(name)))

    def busy(self, name):
        """Busy seconds, seconds of the rounds they ran in, round count."""
        sel = self.pick(name)
        rounds = {s["round"] for s in sel}
        return (sum(map(_duration, sel)),
                sum(self.rounds[r] for r in rounds), len(rounds))

    def ratio(self, name, num, den="work"):
        sel = self.pick(name)
        return sum(s[num] for s in sel) / sum(s[den] for s in sel)

    def attr_max(self, name, key):
        return max(s[key] for s in self.pick(name) if key in s)

    def attr_median(self, name, key):
        return statistics.median(s[key] for s in self.pick(name) if key in s)


def layer_metrics(spans, untraced_p50, traced_p50):
    """Every per-layer metric as a number, from the spans of one traced run."""
    t = _Spans(spans)
    cutoff_busy, cutoff_rounds, _ = t.busy("diskmap.cutoff_disk_map")
    box_busy, box_rounds, _ = t.busy("fractal.box_count")
    patch_busy, _, patch_n = t.busy("fractal.boundary_patch_counts")
    points_max = max(s["work"] for s in t.pick("fractal.graph_sample"))
    isa = "geometry2d.inverse_sector_area"
    values = {
        f"{isa}.linear.pts_per_s": t.rate(f"{isa}.linear"),
        f"{isa}.cubic.pts_per_s": t.rate(f"{isa}.cubic"),
        f"{isa}.max_residual": max(t.attr_max(f"{isa}.linear", "residual"),
                                   t.attr_max(f"{isa}.cubic", "residual")),
        "geometry2d.sector_area.pts_per_s": t.rate("geometry2d.sector_area"),
        "geometry2d.radius.pts_per_s": t.rate("geometry2d.radius"),
        "geometry2d.gauge.pts_per_s": t.rate("geometry2d.gauge"),
        "geometry2d.profile_build_s": t.median_s("geometry2d.profile_build"),
        "diskmap.cutoff_disk_map.pt_steps_per_s":
            t.rate("diskmap.cutoff_disk_map"),
        "diskmap.cutoff_disk_map.busy_share": cutoff_busy / cutoff_rounds,
        "diskmap.cutoff_disk_map.max_level_err":
            t.attr_max("diskmap.cutoff_disk_map", "level_err"),
        "diskmap.disk_to_domain.pts_per_s": t.rate("diskmap.disk_to_domain"),
        "product.gauge.pts_per_s": t.rate("product.gauge"),
        "product.mc_volume.nproc.pts_per_s":
            t.rate("product.mc_volume", threads=NPROC),
        "product.mc_volume.t1.pts_per_s":
            t.rate("product.mc_volume", threads=1),
        "product.mc_volume.hit_ratio": t.ratio("product.mc_volume", "hits"),
        "dynamics.char_flow_2d.pts_per_s": t.rate("dynamics.char_flow_2d"),
        "dynamics.conjugacy_residual.calls_per_s":
            t.rate("dynamics.conjugacy_residual"),
        "dynamics.foliation.pts_per_s":
            t.rate("dynamics.is_foliated_by_systoles"),
        "capacities.shrink_profile_s":
            t.median_s("capacities.shrink_profile"),
        "capacities.boundary_minimal.checked_per_s":
            t.rate("capacities.boundary_minimal_experiment", key="checked"),
        "capacities.boundary_minimal.checked_ratio":
            t.ratio("capacities.boundary_minimal_experiment", "checked"),
        "fractal.graph_sample.pts_per_s": t.rate("fractal.graph_sample"),
        "fractal.graph_sample.points_max": points_max,
        # (M, 2) float64 cloud: computed from the point count, not measured.
        "fractal.graph_sample.computed_bytes_max": points_max * 2 * 8,
        "fractal.box_count.pts_per_s": t.rate("fractal.box_count"),
        "fractal.box_count.busy_share": box_busy / box_rounds,
        "fractal.cells_per_point": t.ratio("fractal.box_count", "cells"),
        "fractal.boundary_patch.busy_s": patch_busy / patch_n,
        "fractal.boundary_patch.peak_alloc_mb":
            t.attr_max("fractal.boundary_patch_counts", "peak_alloc") / 2**20,
        "fractal.slope_err.graph":
            t.attr_median("fractal.estimate_dimension", "slope_err.graph"),
        "fractal.slope_err.patch":
            t.attr_median("fractal.estimate_dimension", "slope_err.patch"),
        "specfile.load_spec_s": t.median_s("specfile.load_spec"),
        "trace.overhead_frac": (traced_p50 - untraced_p50) / untraced_p50,
    }
    return values
