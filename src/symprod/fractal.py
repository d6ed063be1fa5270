"""The Weierstrass series, plain or phase-shifted, and box-counting
dimension estimation.

Dimension claims are verified in box-counting (Minkowski) form only, and
no counter builds the point cloud it counts. A graph is counted by column
ranges. Its filled-in form puts, at each sample x_k, the sample y_k and
vertical fill points toward y_{k+1} spaced at most the pitch eps / 4 apart,
so within one grid column the filled graph is a chain of values with steps
shorter than eps. The cells it meets there are therefore contiguous, and
since floor is monotone the column holds floor(hi / eps) - floor(lo / eps)
+ 1 cells, where lo and hi are the column's extreme values: exactly the
count of the cloud's distinct cells.

The 4-D boundary patch of a 2-product is counted the same way, by
intervals. Its r_2 is filled along the fractal angle as a graph is, and
each occupied cell of the fractal factor takes its r_2 values as one
interval, from the least to the greatest end of its samples' fill hulls,
as a graph column does. That interval times the continuous theta_2 window
is an annular sector of the ellipsoid factor's plane. Within a quadrant a
grid column meets such a sector in one range of rows, whose ends come in
closed form, so a sector costs one step per column it crosses. The sectors
hold every point the theta_2-sampled patch had, so the counts are at least
that point set's. The (r_1, theta_1) parameter grid still holds about (r_1
span)(theta_1 span) oversample (pitch_factor / eps)^2 samples, 32 / eps^2
at the defaults, so boundary_patch_counts refuses any scale whose grid
exceeds PATCH_GRID_BUDGET before it counts one.

count_scales evaluates the graph once, at the pitch of its finest scale,
and reads each coarser scale whose pitch is an exact integer multiple of
that pitch off every r-th sample; other scales are evaluated at their own
pitch.

Distinct cells are found by sorting their int64 keys and keeping each
key that differs from its predecessor (``_distinct``), never by a plain
np.unique: from numpy 2.3 on that runs a hash table, which is 20-50
times slower than the sort on 2e4 to 2e6 keys. Before 2.3 np.unique
itself sorted and masked, so the helper returns what np.unique does on
every numpy from 1.24 to 2.4. The patch's (lo, hi) intervals are
deduplicated the same way, by one lexsort of their rows
(``_distinct_rows``), not by np.unique(axis=0), which sorts the rows as
slow structured records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .geometry2d import (TWO_PI, _check_weierstrass, hunt_phases,
                         weierstrass_series)
from .product import check_integer


def _check_graph(a, b, terms):
    """Weierstrass parameters whose graph is fractal (a * b > 1)."""
    _check_weierstrass(a, b, terms)
    if a * b <= 1.0:
        raise ValueError("need a * b > 1 for a fractal graph")


@dataclass(frozen=True)
class Weierstrass:
    """W_{a,b}(x) = sum a^k cos(2 pi (b^k x + theta_k)), to k = ``terms``.

    The phases theta_k are zero, or with an integer ``seed`` the phases
    hunt_profile draws (geometry2d.hunt_phases), the phase-shifted family.
    Truncation error is bounded by a^(terms+1) / (1 - a). The graph's
    box-counting dimension is 2 + log a / log b.
    """

    a: float = 0.5
    b: float = 3.0
    terms: int = 30
    seed: int | None = None

    def __post_init__(self):
        _check_graph(self.a, self.b, self.terms)

    def __call__(self, x):
        phases = (None if self.seed is None
                  else hunt_phases(self.terms, self.seed))
        return weierstrass_series(x, self.a, self.b, self.terms, phases)

    @property
    def graph_dimension(self):
        return 2.0 + np.log(self.a) / np.log(self.b)


_FAMILIES = {
    "weierstrass": Weierstrass,
    "weierstrass_phase": partial(Weierstrass, seed=0),
}


def make_fractal(family, **params):
    """Build a family by name from its parameters."""
    try:
        cls = _FAMILIES[family]
    except KeyError:
        raise ValueError(f"unknown fractal family {family!r}") from None
    return cls(**params)


# -- box counting -----------------------------------------------------------

# Most (r_1, theta_1) samples boundary_patch_counts builds at one scale. At
# its defaults on weierstrass_profile(), one scale on a 2-vCPU Xeon peaked
# at 231 MB RSS in 0.4 s with 2^21 samples (eps = 2^-8) and at 459 MB in
# 0.8 s with 4.15 M (2^-8.49): about 112 bytes per further sample, all of
# it whole-grid arrays, so some 0.46 GB at this budget.
PATCH_GRID_BUDGET = 1 << 22
# Least 1 - (r_1 / R_1(theta_1))^2 on a patch, off the singular r_2 = 0.
PATCH_MARGIN = 0.05
# Fewest scales estimate_dimension fits a slope to.
MIN_SCALES = 5
# Samples a GraphSampler passes to fn at a time, bounding fn's temporaries.
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


def _distinct_rows(rows):
    """np.unique(rows, axis=0, return_counts=True) of a 2-D array.

    One lexsort with the first column as its primary key orders the rows as
    np.unique does; a row starts a run when any entry differs from the row
    before it.
    """
    rows = rows[np.lexsort(rows.T[::-1])]
    new = np.empty(rows.shape[0], dtype=bool)
    new[:1] = True
    np.any(rows[1:] != rows[:-1], axis=1, out=new[1:])
    start = np.flatnonzero(new)
    return rows[start], np.diff(start, append=rows.shape[0])


def _check_scales(scales):
    """Box sizes as a 1-D float array, each positive and finite."""
    scales = np.asarray(scales, dtype=float)
    if scales.ndim != 1:
        raise ValueError("scales must be a 1-D array of box sizes")
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


def _stride(pitch, fine):
    """The integer r with pitch == r * fine exactly, or 0 if there is none.

    fmod is exact, so it is 0 just when pitch is an integer multiple of
    fine; that integer is then a float, and pitch / fine rounds to it.
    """
    return int(pitch / fine) if math.fmod(pitch, fine) == 0.0 else 0


def count_scales(sampler, scales, seed=0):
    """Dithered box counts N(eps) of a graph sampler's filled graph.

    Each scale samples at pitch eps / PITCH_FACTOR and averages
    column_cells over N_OFFSETS random grid origins; the counts equal
    box_count over the filled point cloud sampler(pitch), which is never
    built. The graph is evaluated once, at the finest pitch. A scale whose
    pitch is exactly r times the finest takes every r-th finest sample:
    pitch * i and finest * (r * i) round the same real number, so its
    samples are bit for bit its own. Any other scale is evaluated at its
    own pitch.
    """
    scales = _check_scales(scales)
    rng = np.random.default_rng(seed)
    pitches = scales / PITCH_FACTOR
    fine = pitches.min(initial=np.inf)
    strides = [_stride(pitch, fine) for pitch in pitches]
    # a nested scale's samples are the finest ones up to index stop - 1,
    # which can lie past the finest scale's own last sample
    stops = [r * (_sample_count(pitch) - 1) + 1
             for r, pitch in zip(strides, pitches)]
    x, y = sampler.samples(fine, max(stops, default=0))
    counts = []
    for eps, pitch, r, stop in zip(scales, pitches, strides, stops):
        if r:
            xs, ys = x[:stop:r], y[:stop:r]
        else:
            xs, ys = sampler.samples(pitch)
        lo, hi = fill_extents(ys, pitch)
        cells = [column_cells(xs, lo, hi, eps, rng.uniform(0.0, eps, 2))
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
    check_integer("bootstrap", bootstrap, least=0)
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


def fill_segments(x, y, pitch):
    """Points of the filled-in graph: samples plus vertical fill at jumps.

    Between consecutive samples, points are inserted along the y-segment at
    spacing <= pitch; the filled graph has the same box dimension as the
    graph for the families used here. Segment k's fill sits over x_k.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    dy, reps = _fill_reps(y, pitch)
    seg = np.flatnonzero(reps)
    n = reps[seg]
    # per-segment running index 1..n
    idx = np.arange(n.sum()) - np.repeat(np.cumsum(n) - n, n) + 1
    fill = _fill_values(np.repeat(y[seg], n), np.repeat(dy[seg], n), idx,
                        np.repeat(n + 1, n))
    return np.concatenate([np.stack([x, y], axis=1),
                           np.stack([np.repeat(x[seg], n), fill], axis=1)])


def fill_extents(y, pitch):
    """Per-sample (lo, hi) of the filled graph's points at each x_k.

    Those points are y_k and the fill of segment k. The fill expression is
    monotone in its index and equals y_k at index 0, so its last point
    (index reps) and y_k bound them all. A 2-D y is filled along its last
    axis, each row as a graph of its own.
    """
    y = np.asarray(y, dtype=float)
    dy, reps = _fill_reps(y, pitch)
    last = np.concatenate((_fill_values(y[..., :-1], dy, reps, reps + 1),
                           y[..., -1:]), axis=-1)
    return np.minimum(y, last), np.maximum(y, last)


def _sample_count(pitch):
    """Samples x = pitch * i, i = 0, 1, ..., that cover [0, 1]."""
    return int(np.ceil(1.0 / pitch)) + 1


@dataclass(frozen=True)
class GraphSampler:
    """The filled graph of ``fn`` over [0, 1] at a given pitch.

    ``fn`` must act elementwise: samples() evaluates it GRAPH_CHUNK samples
    at a time, and count_scales reads a coarser scale's values off the
    finest scale's samples, from its one samples() call. Calling the
    sampler returns the filled point cloud; count_scales counts the
    per-sample hulls of that fill (fill_extents) instead.
    """

    fn: object

    def samples(self, pitch, n=None):
        """Abscissae x_i = pitch * i for i < n, and fn(x).

        n defaults to the _sample_count(pitch) samples that cover [0, 1].
        """
        if n is None:
            n = _sample_count(pitch)
        x = pitch * np.arange(n)
        y = np.empty_like(x)
        for start in range(0, n, GRAPH_CHUNK):
            y[start:start + GRAPH_CHUNK] = self.fn(
                x[start:start + GRAPH_CHUNK])
        return x, y

    def __call__(self, pitch):
        x, y = self.samples(pitch)
        return fill_segments(x, y, pitch)


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

    The patch is the set of points (z_1, rho e^{i theta_2}): z_1 runs over
    the polar box r1_range x theta1_range, whose r_2 = sqrt(a_2 (1 -
    g_1(z_1)^2) / pi) is filled vertically along the fractal angle, which
    is oversampled by ``oversample`` relative to the base pitch eps /
    pitch_factor; theta_2 runs over the continuous window theta2_range.
    Each sample's fill hull (fill_extents) sits at the sample's z_1, and
    each occupied z_1 cell c takes its r_2 values as one interval [rho_lo,
    rho_hi], the least lo and greatest hi of its samples' hulls: r_2 is
    continuous on c, so gaps between its sampled values are the sampling's.
    That interval times the window is an annular sector. The occupied 4-D
    cells are the union over c of {c} x (the z_2 cells that c's sector
    meets), so the count is the sum over c of that set's size, and z_1
    cells with the same interval share one count. Each sector is counted
    column by column in closed form (_sector_columns), so no theta_2 grid
    is built. Every sampled point (z_1, r_2 e^{i theta_2}) lies in its
    cell's sector, so the count is at least that of the sampled point set.
    The whole (r_1, theta_1) grid is built in one pass.

    Each range must be finite with lo < hi, theta2_range at most 2 pi wide,
    and the tail area positive and finite. A box with 1 - (r_1 /
    R_1(theta_1))^2 < PATCH_MARGIN is a ValueError, and so, before any
    scale is counted, is a scale whose (r_1, theta_1) grid exceeds
    PATCH_GRID_BUDGET samples.
    """
    scales = _check_scales(scales)
    for name, value in (("oversample", oversample),
                        ("pitch_factor", pitch_factor)):
        if not 0.0 < value < np.inf:
            raise ValueError(f"{name} must be positive and finite")
    check_integer("n_offsets", n_offsets, least=1)
    for name, (lo, hi) in (("r1_range", r1_range),
                           ("theta1_range", theta1_range),
                           ("theta2_range", theta2_range)):
        if not -np.inf < lo < hi < np.inf:
            raise ValueError(f"{name} must be finite with lo < hi, got "
                             f"({lo}, {hi})")
    if theta2_range[1] - theta2_range[0] > TWO_PI:
        raise ValueError("theta2_range must be at most 2 pi wide")
    tail_areas = [float(a) for a in np.atleast_1d(tail_areas)]
    if len(tail_areas) != 1:
        raise NotImplementedError(
            "full-dimensional counting is limited to one ellipsoid factor")
    a2 = tail_areas[0]
    if not 0.0 < a2 < np.inf:
        raise ValueError(f"tail area must be positive and finite, got {a2}")
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
    rng = np.random.default_rng(seed)
    rmax = max(profile.max_radius * r1_range[1] * 1.5,
               np.sqrt(a2 / np.pi)) + 1.0
    pieces = _quadrant_pieces(*theta2_range)

    counts = []
    for eps in scales:
        pitch = eps / pitch_factor
        r1 = _grid(r1_range[0], r1_range[1], pitch)[:, None]
        t1 = _grid(theta1_range[0], theta1_range[1], pitch / oversample)
        radicand = 1.0 - (r1 / profile.radius(t1)) ** 2
        if np.min(radicand) < PATCH_MARGIN:
            raise ValueError(
                "parameter box reaches the singular locus; shrink r1_range")
        # fill vertically along the fractal axis so no grid cell crossed by
        # the graph goes uncounted; a sample's hull holds its segment's fill
        lo, hi = (e.ravel() for e in
                  fill_extents(np.sqrt(a2 * radicand / np.pi), pitch))
        x1 = r1 * np.cos(t1)
        y1 = r1 * np.sin(t1)

        side = int(np.ceil(2.0 * rmax / eps)) + 2
        scale_counts = []
        for _ in range(n_offsets):
            off = rng.uniform(0.0, eps, 4)
            i0 = np.floor((x1 + rmax - off[0]) / eps).astype(np.int64)
            i1 = np.floor((y1 + rmax - off[1]) / eps).astype(np.int64)
            cell = (i0 * side + i1).ravel()
            order = np.argsort(cell)
            start = _run_starts(cell[order])
            ends, mult = _distinct_rows(np.stack(
                (np.minimum.reduceat(lo[order], start),
                 np.maximum.reduceat(hi[order], start)), axis=1))
            scale_counts.append(_sector_cell_count(
                ends[:, 0], ends[:, 1], mult, pieces, rmax, off, eps))
        counts.append(float(np.mean(scale_counts)))
    return np.asarray(counts)


def _quadrant_pieces(t0, t1):
    """The window [t0, t1] cut at multiples of pi / 2, as a (6, pieces) array.

    Each piece lies in one closed quadrant, where x = rho cos theta and y =
    rho sin theta keep their signs. Its column holds those signs, sx and
    sy, then |cos| and |sin| at the piece's end nearer the x axis, c0 and
    s0, and at its other end, c1 and s1.
    """
    half = 0.5 * np.pi
    pieces = []
    for k in range(math.floor(t0 / half), math.ceil(t1 / half)):
        lo, hi = max(t0, k * half), min(t1, (k + 1) * half)
        if lo < hi:
            (s0, c0), (s1, c1) = sorted((abs(math.sin(t)), abs(math.cos(t)))
                                        for t in (lo, hi))
            pieces.append((1.0 if k % 4 in (0, 3) else -1.0,
                           1.0 if k % 4 in (0, 1) else -1.0, c0, s0, c1, s1))
    return np.array(pieces).T


def _sector_columns(lo, hi, piece, rmax, off, eps):
    """Grid rows met by annular sectors, one grid column at a time.

    Sector k is {rho e^{i theta}: lo[k] <= rho <= hi[k], theta in the piece
    whose _quadrant_pieces column is piece[:, k]}, on the grid with cells
    floor((x + rmax - off[0]) / eps), floor((y + rmax - off[1]) / eps).
    Returns (sector, column, row_lo, row_hi) per column a sector meets.

    Fold the piece's quadrant onto the first: u = |x|, v = |y|, and the
    angle phi from the x axis runs over [phi_0, phi_1]. A line u = c meets
    the sector in the v interval [L(c), U(c)] with
        L(c) = max(c tan phi_0, sqrt(lo^2 - c^2)),
        U(c) = min(c tan phi_1, sqrt(hi^2 - c^2)),
    the maximum and the minimum of an increasing and a decreasing function.
    So over a column's u slab L is least at the clamp of their crossing lo
    cos phi_0 into the slab, U greatest at the clamp of hi cos phi_1, and
    the column's rows run from the row of the one to that of the other.
    """
    sx, sy, c0, s0, c1, s1 = piece
    flip = sx < 0
    x_lo = np.where(flip, -hi * c0, lo * c1)
    x_hi = np.where(flip, -lo * c1, hi * c0)
    first = np.floor((x_lo + rmax - off[0]) / eps).astype(np.int64)
    n = np.floor((x_hi + rmax - off[0]) / eps).astype(np.int64) - first + 1
    sector = np.repeat(np.arange(lo.size), n)
    column = np.arange(n.sum()) - np.repeat(np.cumsum(n) - n - first, n)
    left = column * eps - rmax + off[0]
    a = np.maximum(left, x_lo[sector])
    b = np.minimum(left + eps, x_hi[sector])
    flip = flip[sector]
    u_a = np.where(flip, -b, a)
    u_b = np.where(flip, -a, b)
    c = np.minimum(np.maximum((lo * c0)[sector], u_a), u_b)
    v_min = np.maximum(c * (s0 / c0)[sector],
                       np.sqrt(np.maximum((lo * lo)[sector] - c * c, 0.0)))
    c = np.minimum(np.maximum((hi * c1)[sector], u_a), u_b)
    v_max = np.minimum(c * (s1 / c1)[sector],
                       np.sqrt(np.maximum((hi * hi)[sector] - c * c, 0.0)))
    down = sy[sector] < 0
    y_lo = np.where(down, -v_max, v_min)
    y_hi = np.where(down, -v_min, v_max)
    return (sector, column,
            np.floor((y_lo + rmax - off[1]) / eps).astype(np.int64),
            np.floor((y_hi + rmax - off[1]) / eps).astype(np.int64))


def _sector_cell_count(lo, hi, mult, pieces, rmax, off, eps):
    """Sum over intervals k of mult[k] x |the union of their sectors' cells|.

    Interval k, from lo[k] to hi[k], meets the window in one sector per
    piece. One sort by (interval, column, first row) and a running maximum
    of the last row give the size of each column's union of row ranges.
    """
    count = pieces.shape[1]
    sector, column, row_lo, row_hi = _sector_columns(
        np.repeat(lo, count), np.repeat(hi, count),
        np.tile(pieces, lo.size), rmax, off[2:], eps)
    interval = sector // count
    column -= column.min()
    shift = row_lo.min()
    row_lo -= shift
    row_hi -= shift
    width = int(max(row_lo.max(), row_hi.max())) + 1
    columns = int(column.max()) + 1
    _check_key_range(mult.size * columns * width)
    base = (interval * columns + column) * width
    order = np.argsort(base + row_lo)
    base, row_lo, row_hi = base[order], row_lo[order], row_hi[order]
    # base + row_hi stays below the next (interval, column)'s base, so the
    # running maximum restarts at each of them
    top = np.maximum.accumulate(base + row_hi)
    new = np.maximum(base + row_lo, np.append(base[:1] - 1, top[:-1]) + 1)
    size = np.maximum(base + row_hi - new + 1, 0)
    return int(np.dot(size, mult[interval[order]]))
