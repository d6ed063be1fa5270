"""Fractal function families and box-counting dimension estimation.

Dimension claims are verified in box-counting (Minkowski) form only, and
no counter builds the point cloud it counts. A graph is counted by column
ranges. Its filled-in form puts, at each sample x_k, the sample y_k and
vertical fill points toward y_{k+1} spaced at most the pitch eps / 4 apart,
so within one grid column the filled graph is a chain of values with steps
shorter than eps. The cells it meets there are therefore contiguous, and
since floor is monotone the column holds floor(hi / eps) - floor(lo / eps)
+ 1 cells, where lo and hi are the column's extreme values: exactly the
count of the cloud's distinct cells. The 4-D boundary patch of a 2-product
is counted without its point cloud: each occupied cell of the fractal
factor contributes the union of the cells that its circles in the
ellipsoid factor meet. Its (r_1, theta_1) parameter grid still holds
about (r_1 span)(theta_1 span) oversample (pitch_factor / eps)^2 samples,
32 / eps^2 at the defaults, so boundary_patch_counts refuses any scale
whose grid exceeds PATCH_GRID_BUDGET before it counts one.

Distinct cells are found by sorting their int64 keys and keeping each
key that differs from its predecessor (``_distinct``), never by a plain
np.unique: from numpy 2.3 on that runs a hash table, which is 20-50
times slower than the sort on 2e4 to 2e6 keys. Before 2.3 np.unique
itself sorted and masked, so the helper returns what np.unique does on
every numpy from 1.24 to 2.4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry2d import _check_weierstrass, weierstrass_series


def _check_graph(a, b, terms):
    """Weierstrass parameters whose graph is fractal (a * b > 1)."""
    _check_weierstrass(a, b, terms)
    if a * b <= 1.0:
        raise ValueError("need a * b > 1 for a fractal graph")


@dataclass(frozen=True)
class Weierstrass:
    """W_{a,b}(x) = sum a^k cos(2 pi b^k x), truncated at ``terms``.

    Truncation error is bounded by a^(terms+1) / (1 - a). The graph's
    box-counting dimension is 2 + log a / log b.
    """

    a: float = 0.5
    b: float = 3.0
    terms: int = 30

    def __post_init__(self):
        _check_graph(self.a, self.b, self.terms)

    def __call__(self, x):
        return weierstrass_series(x, self.a, self.b, self.terms)

    @property
    def graph_dimension(self):
        return 2.0 + np.log(self.a) / np.log(self.b)


@dataclass(frozen=True)
class PhaseShiftedWeierstrass(Weierstrass):
    """Weierstrass series with per-term phase shifts theta_k in [0, 1).

    The terms + 1 phases are uniform draws from a generator seeded with
    ``seed``.
    """

    seed: int = 0

    def __call__(self, x):
        phases = np.random.default_rng(self.seed).uniform(
            0.0, 1.0, self.terms + 1)
        return weierstrass_series(x, self.a, self.b, self.terms, phases)


_FAMILIES = {
    "weierstrass": Weierstrass,
    "weierstrass_phase": PhaseShiftedWeierstrass,
}


def make_fractal(family, **params):
    """Build a family by name from its parameters."""
    try:
        cls = _FAMILIES[family]
    except KeyError:
        raise ValueError(f"unknown fractal family {family!r}") from None
    return cls(**params)


# -- box counting -----------------------------------------------------------

# Most int64 keys boundary_patch_counts sorts in one _distinct call.
PATCH_KEY_BUDGET = 1 << 21
# Most (r_1, theta_1) samples boundary_patch_counts builds at one scale. At
# its defaults on weierstrass_profile(), one scale on a 2-vCPU Xeon peaked
# at 211 MB RSS in 13 s with 2^19 samples (eps = 2^-7) and at 346 MB in
# 96 s with 2^21 (2^-8): about 90 bytes per further sample, so some 0.55 GB
# at this budget, and about 7x the time for 4x the samples.
PATCH_GRID_BUDGET = 1 << 22
# Least 1 - (r_1 / R_1(theta_1))^2 on a patch, off the singular r_2 = 0.
PATCH_MARGIN = 0.05
# Fewest scales estimate_dimension fits a slope to.
MIN_SCALES = 5
# Samples a GraphSampler evaluates and fills at a time, bounding memory.
GRAPH_CHUNK = 1 << 20
# count_scales samples graphs at pitch eps / PITCH_FACTOR, so the fill
# spacing stays below eps, which column-range counting needs, and averages
# N_OFFSETS random grid origins per scale.
PITCH_FACTOR = 4.0
N_OFFSETS = 4


def _check_key_range(size):
    """Reject packed cell keys that would not fit in an int64."""
    if size >= 1 << 63:
        raise ValueError(f"{size} grid cells exceed the int64 key range; "
                         "use a coarser scale or a smaller point set")


def _run_starts(a):
    """Indices where a run of equal neighbours in the 1-D array a begins."""
    new = np.empty(a.size, dtype=bool)
    new[:1] = True
    np.not_equal(a[1:], a[:-1], out=new[1:])
    return np.flatnonzero(new)


def _distinct(keys):
    """Sorted distinct values of a 1-D array; np.unique by one sort."""
    keys = np.sort(keys)
    return keys[_run_starts(keys)]


def _check_scales(scales):
    """Box sizes as a float array, each positive and finite."""
    scales = np.asarray(scales, dtype=float)
    if not np.all((scales > 0.0) & np.isfinite(scales)):
        raise ValueError("scales must be positive and finite")
    return scales


def box_count(points, eps, offset=None):
    """Occupied cells of the grid eps * Z^d intersecting the point set."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise ValueError("points must be an (M, d) array")
    if offset is None:
        offset = np.zeros(points.shape[1])
    idx = np.floor((points - offset) / eps).astype(np.int64)
    # Collapse rows to single keys, mixed radix over the per-axis ranges.
    # Reduce column by column: an axis-0 reduction of (M, d) is far slower.
    cols = [c - c.min() for c in idx.T]
    ranges = [int(c.max()) + 1 for c in cols]
    _check_key_range(math.prod(ranges))
    key = cols[0]
    for c, r in zip(cols[1:], ranges[1:]):
        key = key * np.int64(r) + c
    return int(_distinct(key).size)


def column_cells(x, lo, hi, eps, offset):
    """Grid cells met by vertical segments [lo_k, hi_k] at nondecreasing x_k.

    Segments in one column must overlap or leave gaps shorter than eps, as
    the fill of a graph sampled at a pitch below eps does; then the cells a
    column meets are contiguous and it holds floor(max hi / eps) -
    floor(min lo / eps) + 1 of them.
    """
    start = _run_starts(np.floor((x - offset[0]) / eps))
    top = np.floor((np.maximum.reduceat(hi, start) - offset[1]) / eps)
    bottom = np.floor((np.minimum.reduceat(lo, start) - offset[1]) / eps)
    return int(np.sum(top - bottom)) + start.size


def count_scales(sampler, scales, seed=0):
    """Dithered box counts N(eps) of a graph sampler's filled graph.

    Each scale samples at pitch eps / PITCH_FACTOR and averages
    column_cells over N_OFFSETS random grid origins; the counts equal
    box_count over the filled point cloud sampler(pitch), which is never
    built.
    """
    scales = _check_scales(scales)
    rng = np.random.default_rng(seed)
    counts = []
    for eps in scales:
        x, lo, hi = sampler.column_extents(eps / PITCH_FACTOR)
        cells = [column_cells(x, lo, hi, eps, rng.uniform(0.0, eps, 2))
                 for _ in range(N_OFFSETS)]
        counts.append(float(np.mean(cells)))
    return np.asarray(counts)


@dataclass
class DimensionEstimate:
    scales: np.ndarray
    counts: np.ndarray
    slope: float
    r_squared: float
    ci_halfwidth: float = None


def estimate_dimension(scales, counts, bootstrap=0, seed=0):
    """OLS slope of log N versus log(1/eps) over the declared scale window."""
    scales = _check_scales(scales)
    counts = np.asarray(counts, dtype=float)
    if scales.size < MIN_SCALES:
        raise ValueError(f"need at least {MIN_SCALES} scales")
    if counts.shape != scales.shape:
        raise ValueError("need one count per scale")
    if not np.all((counts > 0.0) & np.isfinite(counts)):
        raise ValueError("counts must be positive and finite")
    if np.max(counts) == np.min(counts):
        raise ValueError("degenerate counts: constant over the scale window")
    x = np.log(1.0 / scales)
    y = np.log(counts)
    slope, intercept = np.polyfit(x, y, 1)
    fit = slope * x + intercept
    ss_res = float(np.sum((y - fit) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 - ss_res / ss_tot

    ci = None
    if bootstrap > 0:
        rng = np.random.default_rng(seed)
        slopes = []
        m = scales.size
        for _ in range(bootstrap):
            pick = rng.integers(0, m, m)
            if x[pick].min() == x[pick].max():
                continue
            slopes.append(np.polyfit(x[pick], y[pick], 1)[0])
        ci = float(1.96 * np.std(slopes))
    return DimensionEstimate(scales=scales, counts=counts, slope=float(slope),
                            r_squared=r2, ci_halfwidth=ci)


# -- samplers ---------------------------------------------------------------

def _fill_reps(y, pitch):
    """Segment rises dy and fill points per segment, ceil(|dy| / pitch) - 1."""
    dy = np.diff(y)
    return dy, np.maximum(np.ceil(np.abs(dy) / pitch).astype(np.int64) - 1, 0)


def _fill_values(y0, dy, idx, steps):
    """Fill point idx of a segment from y0 by dy, cut into ``steps`` parts."""
    return y0 + dy * idx / steps


def _fill_points(y, pitch):
    """Vertical fill of each row of y, and the sample each point sits over.

    Returns (fill, src): the fill values of every segment, row by row, and
    for each the flat index into y of its segment's left sample.
    """
    dy, reps = _fill_reps(y, pitch)
    seg = np.nonzero(reps)
    n = reps[seg]
    # per-segment running index 1..n
    idx = np.arange(n.sum()) - np.repeat(np.cumsum(n) - n, n) + 1
    fill = _fill_values(np.repeat(y[seg], n), np.repeat(dy[seg], n), idx,
                        np.repeat(n + 1, n))
    return fill, np.repeat(np.ravel_multi_index(seg, y.shape), n)


def fill_segments(x, y, pitch):
    """Points of the filled-in graph: samples plus vertical fill at jumps.

    Between consecutive samples, points are inserted along the y-segment at
    spacing <= pitch; the filled graph has the same box dimension as the
    graph for the families used here.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    fill, src = _fill_points(y, pitch)
    return np.concatenate([np.stack([x, y], axis=1),
                           np.stack([x[src], fill], axis=1)])


def fill_extents(y, pitch):
    """Per-sample (lo, hi) of the filled graph's points at each x_k.

    Those points are y_k and the fill of segment k. The fill expression is
    monotone in its index and equals y_k at index 0, so its last point
    (index reps) and y_k bound them all.
    """
    y = np.asarray(y, dtype=float)
    dy, reps = _fill_reps(y, pitch)
    last = np.append(_fill_values(y[:-1], dy, reps, reps + 1), y[-1])
    return np.minimum(y, last), np.maximum(y, last)


@dataclass(frozen=True)
class GraphSampler:
    """The filled graph of ``fn`` over [0, 1] at a given pitch.

    ``fn`` is evaluated GRAPH_CHUNK samples at a time, each chunk after the
    first repeating the previous sample so fill spans chunk boundaries.
    Calling the sampler returns the filled point cloud; column_extents
    returns the per-sample hulls that count_scales counts instead.
    """

    fn: object

    def _chunks(self, pitch):
        n = int(np.ceil(1.0 / pitch)) + 1
        for start in range(0, n, GRAPH_CHUNK):
            stop = min(start + GRAPH_CHUNK, n)
            x = pitch * np.arange(start, stop)
            if start > 0:
                x = np.concatenate(([pitch * (start - 1)], x))
            yield x, self.fn(x)

    def __call__(self, pitch):
        return np.concatenate([fill_segments(x, y, pitch)
                               for x, y in self._chunks(pitch)])

    def column_extents(self, pitch):
        """(x, lo, hi) per sample, in nondecreasing x; see fill_extents."""
        parts = [(x, *fill_extents(y, pitch)) for x, y in self._chunks(pitch)]
        return tuple(np.concatenate(p) for p in zip(*parts))


def graph_sampler(fn):
    """Sampler for the filled graph of ``fn`` over [0, 1]."""
    return GraphSampler(fn)


def product_interval_count(base_counts, scales):
    """Box counts of (point set) x [0, 1] from the point set's counts.

    For a Cartesian product of point sets with an axis-aligned grid the
    occupied-cell set is the product of the occupied sets, so the counts
    multiply exactly; the unit interval contributes ceil(1 / eps) cells.
    """
    scales = np.asarray(scales, dtype=float)
    return np.asarray(base_counts) * np.ceil(1.0 / scales)


def _grid_size(lo, hi, pitch):
    """Point count of _grid(lo, hi, pitch), as a float that may be inf."""
    return max(np.ceil((hi - lo) / pitch), 1.0) + 1.0


def _grid(lo, hi, pitch):
    """Inclusive grid over [lo, hi] that never oversteps hi."""
    return np.linspace(lo, hi, int(_grid_size(lo, hi, pitch)))


def boundary_patch_counts(profile, tail_areas, scales, seed=0,
                          r1_range=(0.25, 0.5), theta1_range=(0.0, 1.0),
                          theta2_range=(0.0, 1.0), oversample=8,
                          n_offsets=2, pitch_factor=4.0):
    """Dithered box counts of a boundary patch of (profile) x_2 E(a_2).

    The patch is the set of points (z_1, r_2 e^{i theta_2}): z_1 runs over
    the polar box r1_range x theta1_range, with r_2 = sqrt(a_2 (1 -
    g_1(z_1)^2) / pi) filled vertically along the fractal angle, which is
    oversampled by ``oversample`` relative to the base pitch eps /
    pitch_factor; theta_2 runs over a grid of theta2_range. Counts are
    exact for these points, but no (point x theta_2) array is built. The
    occupied 4-D cells are the union over occupied z_1 cells c of {c} x
    (the union of K(rho) over the r_2 values rho in c), where K(rho) is
    the set of z_2 cells hit by rho e^{i theta_2}; so the count is the sum
    over c of that union's size, and z_1 cells with the same r_2 set share
    one union. Every sample of the (r_1, theta_1) grid and its fill is
    built in one whole-array pass; a fill point's z_1 is that of the
    sample it sits over.

    A box with 1 - (r_1 / R_1(theta_1))^2 < PATCH_MARGIN is a ValueError,
    and so, before any scale is counted, is a scale whose (r_1, theta_1)
    grid exceeds PATCH_GRID_BUDGET samples.
    """
    scales = _check_scales(scales)
    for name, value in (("oversample", oversample),
                        ("pitch_factor", pitch_factor)):
        if not 0.0 < value < np.inf:
            raise ValueError(f"{name} must be positive and finite")
    if int(n_offsets) != n_offsets or n_offsets < 1:
        raise ValueError("n_offsets must be a positive integer")
    tail_areas = [float(a) for a in np.atleast_1d(tail_areas)]
    if len(tail_areas) != 1:
        raise NotImplementedError(
            "full-dimensional counting is limited to one ellipsoid factor")
    for eps in scales:
        pitch = eps / pitch_factor
        size = (_grid_size(r1_range[0], r1_range[1], pitch) *
                _grid_size(theta1_range[0], theta1_range[1],
                           pitch / oversample))
        if not size <= PATCH_GRID_BUDGET:
            raise ValueError(
                f"scale {eps:g} needs {size:.3g} (r1, theta1) samples, over "
                f"the budget of {PATCH_GRID_BUDGET}; use coarser scales or a "
                "smaller parameter box")
    a2 = tail_areas[0]
    rng = np.random.default_rng(seed)
    rmax = max(profile.max_radius * r1_range[1] * 1.5,
               np.sqrt(a2 / np.pi)) + 1.0

    counts = []
    for eps in scales:
        pitch = eps / pitch_factor
        r1 = _grid(r1_range[0], r1_range[1], pitch)[:, None]
        t1 = _grid(theta1_range[0], theta1_range[1], pitch / oversample)
        t2 = _grid(theta2_range[0], theta2_range[1],
                   pitch / max(np.sqrt(a2 / np.pi), 1.0))
        radicand = 1.0 - (r1 / profile.radius(t1)) ** 2
        if np.min(radicand) < PATCH_MARGIN:
            raise ValueError(
                "parameter box reaches the singular locus; shrink r1_range")
        # fill vertically along the fractal axis so no grid cell crossed by
        # the graph goes uncounted
        r2 = np.sqrt(a2 * radicand / np.pi)
        fill, src = _fill_points(r2, pitch)
        rho, rho_id = np.unique(np.concatenate((r2.ravel(), fill)),
                                return_inverse=True)
        x1 = r1 * np.cos(t1)
        y1 = r1 * np.sin(t1)
        circle = (np.cos(t2), np.sin(t2))

        side = np.int64(np.ceil(2.0 * rmax / eps)) + 2
        scale_counts = []
        for _ in range(n_offsets):
            off = rng.uniform(0.0, eps, 4)
            i0 = np.floor((x1 + rmax - off[0]) / eps).astype(np.int64)
            i1 = np.floor((y1 + rmax - off[1]) / eps).astype(np.int64)
            cell = (i0 * side + i1).ravel()
            sets, mult = _rho_sets(np.concatenate((cell, cell[src])), rho_id,
                                   rho.size, side)
            scale_counts.append(_union_cell_count(
                sets, mult, rho, circle, rmax, off, eps, side))
        counts.append(float(np.mean(scale_counts)))
    return np.asarray(counts)


def _rho_sets(cell, rho_id, n_rho, side):
    """Distinct r_2 sets of the occupied z_1 cells, with multiplicities.

    Returns (sets, mult): one row of sorted rho ids per distinct set,
    padded with -1, and the number of z_1 cells that carry it.
    """
    _check_key_range(int(side) ** 2 * n_rho)
    pair = _distinct(cell * n_rho + rho_id)
    start = _run_starts(pair // n_rho)
    size = np.diff(start, append=pair.size)
    rows = np.full((start.size, int(size.max())), -1, dtype=np.int64)
    rows[np.repeat(np.arange(start.size), size),
         np.arange(pair.size) - np.repeat(start, size)] = pair % n_rho
    return np.unique(rows, axis=0, return_counts=True)


def _union_cell_count(sets, mult, rho, circle, rmax, off, eps, side):
    """Sum over distinct sets of multiplicity x |union of K(rho)|.

    K(rho) holds the z_2 cells hit by rho e^{i theta_2} over the theta_2
    grid. Whole sets go through _distinct together, as many as fit in
    PATCH_KEY_BUDGET keys (a set larger than that alone).
    """
    cos2, sin2 = circle
    length = np.count_nonzero(sets >= 0, axis=1)
    members = sets[sets >= 0]
    end = np.cumsum(length)
    per_chunk = max(1, PATCH_KEY_BUDGET // cos2.size)
    plane = side * side
    total = 0
    lo = 0
    while lo < sets.shape[0]:
        first = end[lo - 1] if lo else 0
        hi = max(lo + 1, int(np.searchsorted(end, first + per_chunk,
                                             side="right")))
        _check_key_range((hi - lo) * int(plane))
        r = rho[members[first:end[hi - 1]]][:, None]
        i2 = np.floor((r * cos2 + rmax - off[2]) / eps).astype(np.int64)
        i3 = np.floor((r * sin2 + rmax - off[3]) / eps).astype(np.int64)
        owner = np.repeat(np.arange(hi - lo, dtype=np.int64), length[lo:hi])
        key = (owner[:, None] * side + i2) * side + i3
        # Drop keys equal to their neighbour above or to the left before
        # the sort: the first occurrence of each key survives, and since
        # rows run in ascending rho most repeats are such neighbours.
        fresh = np.ones(key.shape, dtype=bool)
        fresh[1:] = key[1:] != key[:-1]
        fresh[:, 1:] &= key[:, 1:] != key[:, :-1]
        total += int(mult[lo:hi][_distinct(key[fresh]) // plane].sum())
        lo = hi
    return total
