"""Corner-form simplex homothets: predicates, arrangement counts, depth.

Every region here is a translated and scaled copy of one fixed shape, the
corner simplex ``{x : x_k >= a_k for all k, sum_k (x_k - a_k) <= s}`` with
corner ``a`` and size ``s >= 0`` (size zero degenerates to the point
``a``).  Regions are closed, so touching homothets intersect.

Two homothets ``(a, s)`` and ``(a', s')`` intersect exactly when the
componentwise-max corner fits under both diagonal caps::

    sum_k max(a_k, a'_k) <= min(sum(a) + s, sum(a') + s')

since that corner is the least point dominating both corners and every
common point dominates it.  The same reasoning gives the deepest-point
grid property used throughout: if a point lies in every member of a
subset, so does the componentwise max of that subset's corners, hence
some deepest point has every coordinate drawn from the per-axis corner
values.

Every query uses the float containment rule of :func:`contains`:
``x_k >= a_k`` on every axis and ``((0.0 + x_0) + x_1) + ... <= sum_cap``,
the corner summed in the same axis order (the package's cost rule) plus
``s``.  Rounding is monotone in each term, so every homothet contains its
own corner, and a deepest point's depth is the number of homothets
:func:`contains` accepts there.

The exact deepest point slices that corner grid one axis at a time.  A
homothet meets the grid lines through a fixed prefix ``x_0 .. x_{k-1}`` in
a contiguous run of axis-``k`` values (its slice is again a corner
simplex, of size ``s - sum_{i<k} (x_i - a_i)``), so each (prefix,
homothet) pair expands into the run of prefixes one axis longer; on the
last axis every grid line is stabbed by its runs at once.  The work is
the number of pairs expanded plus the stab events, which follows the
corner values inside each homothet's extent, not the grid's size nor
the arrangement's depth (dense values make it large at small depth); it
is counted before each expansion allocates anything, so an oversized
query is refused before it grows.  The corner values are sorted once per
set of homothets (``_CornerGrid``); any first ``m`` of them, as an
approximation level is, take their own grid lines from that sort.

The queries take homothets as arrays (:class:`SimplexArray`); one
homothet is a :class:`SimplexHomothet`, the form :func:`contains` and
:func:`intersects` test.  All structures are immutable once built and
queries are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionMismatchError, GuardExceededError
from .market import _axis_sum

# Pairs expanded plus stab events allowed in one exact deepest-point query;
# it also bounds the candidate pairs of one `arrangement_stats` query.
EXACT_DEPTH_GUARD = 300_000_000

# Pairs expanded at once, unless one key alone holds more: larger
# expansions are halved by key range (pair windows in `arrangement_stats`),
# which bounds a query's peak memory (about 100 bytes per pair).
_PAIR_BUDGET = 1 << 17

# Grids with fewer cells use their mixed-radix prefix keys as row numbers
# (stab codes below twice the cell count fit int64); larger grids rank the
# keys densely at each expansion, which costs one more sort of the pairs.
_DIRECT_KEY_CELLS = 1 << 61


@dataclass(frozen=True)
class SimplexHomothet:
    """A corner-form simplex: componentwise minimum ``corner`` and ``size``."""

    corner: tuple[float, ...]
    size: float

    def __post_init__(self):
        object.__setattr__(self, "corner", tuple(float(v) for v in self.corner))
        object.__setattr__(self, "size", float(self.size))
        if not self.corner:
            raise ValueError("corner needs at least one coordinate")
        if not all(math.isfinite(v) for v in self.corner) or not math.isfinite(
            self.size
        ):
            raise ValueError("corner and size must be finite")
        if self.size < 0:
            raise ValueError(f"size must be nonnegative, got {self.size}")

    @property
    def dim(self) -> int:
        return len(self.corner)

    @property
    def sum_cap(self) -> float:
        """Upper bound on coordinate sums inside the region: the corner
        summed by the package's cost rule (in axis order), plus the size."""
        return _axis_sum(self.corner) + self.size


def contains(simplex: SimplexHomothet, point: Sequence[float]) -> bool:
    """Closed membership: lower bounds, then the axis-order sum bound."""
    if len(point) != simplex.dim:
        raise DimensionMismatchError(
            f"point has {len(point)} coordinates, simplex has {simplex.dim}"
        )
    return all(x >= a for x, a in zip(point, simplex.corner)) and (
        _axis_sum(point) <= simplex.sum_cap
    )


def intersects(s1: SimplexHomothet, s2: SimplexHomothet) -> bool:
    """Whether the closed regions share a point: both hold the max corner."""
    if s1.dim != s2.dim:
        raise DimensionMismatchError(
            f"simplices have dimensions {s1.dim} and {s2.dim}"
        )
    meet = [max(a, b) for a, b in zip(s1.corner, s2.corner)]
    return contains(s1, meet) and contains(s2, meet)


class SimplexArray(Sequence[SimplexHomothet]):
    """Homothets stored as a corner matrix ``(n, d)`` and a size vector ``(n,)``.

    Validated once on construction with the same rules as
    :class:`SimplexHomothet`; indexing with an integer builds that object,
    and indexing with a slice, mask or index array gives another
    ``SimplexArray``.  The arrays are read-only copies.
    """

    __slots__ = ("corners", "sizes")

    def __init__(self, corners, sizes):
        c = np.array(corners, dtype=float)
        s = np.array(sizes, dtype=float)
        if c.ndim != 2 or c.shape[1] < 1:
            raise ValueError(
                f"corners must have shape (n, d) with d >= 1, got {c.shape}"
            )
        if s.shape != (c.shape[0],):
            raise DimensionMismatchError(
                f"sizes shape {s.shape} does not match {c.shape[0]} corners"
            )
        if not (np.isfinite(c).all() and np.isfinite(s).all()):
            raise ValueError("corner and size must be finite")
        if (s < 0).any():
            raise ValueError(f"size must be nonnegative, got {s[s < 0][0]}")
        c.setflags(write=False)
        s.setflags(write=False)
        self.corners = c
        self.sizes = s

    def __len__(self) -> int:
        return self.sizes.shape[0]

    def __getitem__(self, key):
        if isinstance(key, (int, np.integer)):
            return SimplexHomothet(tuple(self.corners[key]), self.sizes[key])
        return SimplexArray(self.corners[key], self.sizes[key])


def _rounding_pad(scale: float, d: int) -> float:
    """Bound on the rounding of a sum of ``d + 2`` terms no larger in
    magnitude than ``scale`` (a few spacings per term).  ``math.ulp`` is
    ``np.spacing`` without its overflow at the largest float."""
    return 4 * (d + 2) * math.ulp(scale)


def _as_arrays(simplices: SimplexArray) -> tuple[np.ndarray, np.ndarray]:
    if not isinstance(simplices, SimplexArray):
        raise TypeError(f"expected a SimplexArray, got {type(simplices).__name__}")
    if not len(simplices):
        raise ValueError("need at least one simplex")
    return simplices.corners, simplices.sizes


# ---------------------------------------------------------------------------
# Arrangement statistics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ArrangementStats:
    """Boundary complexity summary of a set of homothets."""

    vertex_count: int | None
    max_depth: int
    pairwise_intersections: int


def arrangement_stats(simplices: SimplexArray) -> ArrangementStats:
    """Count intersecting pairs and, in the plane, their boundary crossings.

    Pairs are tested with the float predicate of :func:`intersects`, so the
    pair count equals that predicate summed over all pairs.  For ``d == 2``
    every intersecting pair adds its boundary crossing points (a
    horizontal, a vertical and a diagonal edge per triangle; parallel edges
    add nothing, and a point where several facet pairs meet counts once per
    pair) as the arrangement's vertex count; in other dimensions
    ``vertex_count`` is ``None``.  Max depth is computed exactly.

    Homothets sorted by corner x are paired with the later ones whose
    corner x lies within their padded x-extent; a query with more of those
    candidate pairs than ``EXACT_DEPTH_GUARD`` raises
    :class:`GuardExceededError` before they are expanded, and at most
    ``_PAIR_BUDGET`` of them are expanded at once.
    """
    corners, sizes = _as_arrays(simplices)
    d = corners.shape[1]
    order = np.argsort(corners[:, 0], kind="stable")
    cols = [corners[order, k] for k in range(d)]
    size = sizes[order]
    cap = _axis_sum(cols) + size  # SimplexHomothet.sum_cap
    # A pair meets only if the later corner's x is within the earlier
    # one's x-extent: the meet corner's sum is at least that x plus the
    # earlier corner's other coordinates, and the cap is at most its own
    # x + s plus the same.  Rounding moves each side of the containment
    # rule's sum test by a few spacings of the largest partial sum, so
    # padding the extent by more than that keeps every pair it can accept.
    scale = np.abs(corners).max(axis=0).sum() + sizes.max()
    pad = _rounding_pad(scale, d)
    x = cols[0]
    cnt = np.searchsorted(x, x + size + pad, side="right") - np.arange(1, x.size + 1)
    first = np.cumsum(cnt) - cnt  # number of the row's first pair
    total = int(first[-1] + cnt[-1])
    if total > EXACT_DEPTH_GUARD:
        raise GuardExceededError(
            f"arrangement candidate pairs {total} exceed the "
            f"{EXACT_DEPTH_GUARD} guard"
        )
    pairwise = 0
    vertices = 0 if d == 2 else None
    for lo in range(0, total, _PAIR_BUDGET):
        t = np.arange(lo, min(lo + _PAIR_BUDGET, total))
        i = np.searchsorted(first, t, side="right") - 1
        j = i + 1 + t - first[i]
        meet = _axis_sum(np.maximum(col[i], col[j]) for col in cols)
        hit = meet <= np.minimum(cap[i], cap[j])
        i, j = i[hit], j[hit]
        pairwise += i.size
        if d == 2:
            vertices += _edge_crossings(cols, size, cap, i, j)
    return ArrangementStats(
        vertex_count=vertices,
        max_depth=deepest_point_exact(simplices).depth,
        pairwise_intersections=pairwise,
    )


def _edge_crossings(cols, size, cap, i, j) -> int:
    """Boundary crossings of the plane pairs ``(i, j)``: in both orders,
    the first triangle's horizontal edge against the second's vertical
    edge and diagonal, and its vertical edge against the diagonal."""

    def on(v, lo, s):  # v in [lo, lo + s]
        return (lo <= v) & (v <= lo + s)

    count = 0
    for f, s in ((i, j), (j, i)):
        fx, fy, fs = cols[0][f], cols[1][f], size[f]
        sx, sy, ss = cols[0][s], cols[1][s], size[s]
        x, y = cap[s] - fy, cap[s] - fx  # f's edge lines meet s's diagonal
        count += np.count_nonzero(on(sx, fx, fs) & on(fy, sy, ss))
        count += np.count_nonzero(on(x, fx, fs) & on(x, sx, ss))
        count += np.count_nonzero(on(y, fy, fs) & on(y, sy, ss))
    return int(count)


# ---------------------------------------------------------------------------
# Exact deepest point
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DepthResult:
    """A point and the number of input simplices :func:`contains` accepts."""

    point: tuple[float, ...]
    depth: int


class _CornerGrid:
    """Per-axis distinct corner values of a set of homothets, sorted once.

    ``values[k]`` holds the sorted distinct axis-``k`` values, every zero
    as ``0.0``, and ``inverse[k]`` each corner's position among them.  The
    corner sums ``csum`` (in axis order) are per corner.  A query on the
    first ``m`` corners keeps the values those corners take (see
    :class:`_GridSlicer`), so no prefix is sorted or searched again.
    """

    def __init__(self, corners: np.ndarray):
        self.d = corners.shape[1]
        self.cols = [np.ascontiguousarray(corners[:, k]) for k in range(self.d)]
        self.csum = _axis_sum(self.cols)  # as SimplexHomothet.sum_cap
        self.values, self.inverse = zip(
            *(np.unique(col + 0.0, return_inverse=True) for col in self.cols)
        )


class _GridSlicer:
    """Deepest corner-grid point of a set of homothets, one axis at a time.

    The homothets are the first ``m`` corners of a :class:`_CornerGrid`
    with the ``m`` given sizes, sliced on their own grid: grid points are
    indexed by their per-axis positions in the sorted distinct values
    ``axes[k]`` (``m_k`` of them) of those ``m`` corners only: the grid's
    values that some of them take, a corner's position being the number
    of those values up to its own (a ``cumsum``).  A homothet
    contains grid point ``x`` under the rule of :func:`contains`, whose sum
    never decreases when a coordinate grows, so the axis-``k`` values
    admitted for a fixed prefix form one run of positions ``[lo, hi)``:
    ``lo`` is the corner's own position and ``hi`` is where the prefix,
    completed by the corner's remaining coordinates (the smallest admitted
    completion), first exceeds the cap.  No run is empty: the prefix was
    admitted with that completion one axis earlier, the corner on axis 0.

    At stage ``k`` every (prefix row, homothet) pair is an interval of
    keys ``row * m_k + position``.  Row numbers grow with the prefixes in
    lexicographic order, so key order is lexicographic grid order.  A
    stage before the last expands each interval into one pair per key
    (``np.repeat``); the keys become the next stage's row numbers as they
    are (mixed-radix prefix keys) while the grid has fewer than
    ``_DIRECT_KEY_CELLS`` cells, and are ranked densely with ``np.unique``
    on larger grids, where codes stay below the pair count times the axis
    length.  The last stage stabs all its intervals with one sort and
    ``cumsum``, closes before opens at a key; the first maximum is the
    lexicographically smallest deepest point.  An expansion holds at most
    ``_PAIR_BUDGET`` pairs, unless one key alone holds more: larger ones
    are halved by key range first.  The work done so far is ``work``.
    """

    def __init__(self, grid: _CornerGrid, sizes: np.ndarray):
        self.n, self.d = sizes.size, grid.d
        self.cols = [col[: self.n] for col in grid.cols]
        self.caps = grid.csum[: self.n] + sizes
        self.axes, self.pos = [], []
        for values, inverse in zip(grid.values, grid.inverse):
            keep = np.zeros(values.size, dtype=bool)
            keep[inverse[: self.n]] = True
            self.axes.append(values[keep])
            self.pos.append((np.cumsum(keep) - 1)[inverse[: self.n]])
        self.rank_rows = math.prod(ax.size for ax in self.axes) >= _DIRECT_KEY_CELLS
        self.work = 0

    def solve(self) -> DepthResult:
        """Max depth and the lex-smallest grid point attaining it."""
        sim = np.arange(self.n)
        part = np.zeros(self.n)
        end = self._ends(0, sim, part)
        depth, key, tail = self._stage(0, sim, part, self.pos[0], end)
        at = (key,) + tail
        return DepthResult(tuple(float(ax[i]) for ax, i in zip(self.axes, at)), depth)

    def _charge(self, work: int):
        self.work += work
        if self.work > EXACT_DEPTH_GUARD:
            raise GuardExceededError(
                f"exact depth work {self.work} (pairs plus stab events) "
                f"exceeds the {EXACT_DEPTH_GUARD} guard"
            )

    def _ends(self, k, sim, part):
        """One past the last axis-``k`` position each pair admits."""
        axis = self.axes[k]
        m = axis.size
        cap = self.caps[sim]
        later = [col[sim] for col in self.cols[k + 1 :]]

        def fits(at, rows=slice(None)):
            # position `at` on axis k, completed by the rows' later
            # coordinates, under their caps: the rule of `contains`
            total = part[rows] + axis[at]
            for col in later:
                total = total + col[rows]
            return total <= cap[rows]

        hi = np.searchsorted(axis, cap - part - _axis_sum(later), side="right")
        # The subtracted bound is only an estimate of the float predicate:
        # keep `hi` where it is exact, bisect the rest on the predicate.
        above = (hi < m) & fits(np.minimum(hi, m - 1))
        below = (hi > 0) & ~fits(np.maximum(hi - 1, 0))
        wrong = np.flatnonzero(above | below)
        if wrong.size:
            lo = np.zeros(wrong.size, dtype=np.intp)
            up = np.full(wrong.size, m, dtype=np.intp)
            while (lo < up).any():
                mid = (lo + up) // 2
                ok = fits(np.minimum(mid, m - 1), wrong)
                active = lo < up
                lo = np.where(active & ok, mid + 1, lo)
                up = np.where(active & ~ok, mid, up)
            hi[wrong] = lo
        return hi

    def _stage(self, k, sim, part, start, end):
        """Best (depth, key, later positions) over the intervals at stage k."""
        if k == self.d - 1:
            if k == 0:
                self._charge(2 * start.size)
            codes = np.concatenate([end * 2, start * 2 + 1])
            codes.sort()
            running = np.cumsum((codes & 1) * 2 - 1)
            at = int(np.argmax(running))
            return int(running[at]), int(codes[at] >> 1), ()
        total = int((end - start).sum())
        # Every pair of the last expansion becomes one stab interval.
        self._charge(3 * total if k == self.d - 2 else total)
        return self._split(k, sim, part, start, end)

    def _split(self, k, sim, part, start, end):
        """Expand the intervals, halving their key range at its integer
        midpoint until a part holds at most ``_PAIR_BUDGET`` pairs or one
        key.  Each half keeps the intervals that reach into it (neither is
        empty), the lower is searched first and the upper wins only when
        strictly deeper, so the first maximum stays the answer."""
        lo, hi = int(start.min()), int(end.max())
        if hi - lo == 1 or int((end - start).sum()) <= _PAIR_BUDGET:
            return self._expand(k, sim, part, start, end)
        mid = (lo + hi) // 2
        low, high = start < mid, end > mid
        best = self._split(
            k, sim[low], part[low], start[low], np.minimum(end[low], mid)
        )
        found = self._split(
            k, sim[high], part[high], np.maximum(start[high], mid), end[high]
        )
        return found if found[0] > best[0] else best

    def _expand(self, k, sim, part, start, end):
        cnt = end - start
        total = int(cnt.sum())
        first = np.cumsum(cnt) - cnt
        keys = np.repeat(start - first, cnt) + np.arange(total)
        sim = np.repeat(sim, cnt)
        part = np.repeat(part, cnt) + self.axes[k][keys % self.axes[k].size]
        rows_of, row = None, keys
        if self.rank_rows:
            rows_of, row = np.unique(keys, return_inverse=True)
        m = self.axes[k + 1].size
        row = row * m
        start = row + self.pos[k + 1][sim]
        end = row + self._ends(k + 1, sim, part)
        depth, key, tail = self._stage(k + 1, sim, part, start, end)
        row_key = key // m if rows_of is None else int(rows_of[key // m])
        return depth, row_key, (key % m,) + tail


def deepest_point_exact(simplices: SimplexArray) -> DepthResult:
    """Deepest point of the homothets, by slicing the corner-value grid.

    Some optimum lies on the grid of per-axis corner values (see the
    module notes); this returns the maximum depth over that grid and the
    lexicographically smallest grid point attaining it, under the rule of
    :func:`contains` (see :class:`_GridSlicer`).  The work is the
    number of (grid-line prefix, homothet) pairs expanded plus two stab
    events per pair on the last axis, about ``n`` times the mean number of
    grid lines a homothet spans; it is counted before each expansion
    allocates anything, and a query whose count passes the module constant
    ``EXACT_DEPTH_GUARD`` (read at each call) raises
    :class:`GuardExceededError`.  Peak memory is bounded by
    expanding at most ``_PAIR_BUDGET`` pairs at once, unless the pairs of
    one grid-line prefix alone number more.
    """
    corners, sizes = _as_arrays(simplices)
    return _GridSlicer(_CornerGrid(corners), sizes).solve()


# ---------------------------------------------------------------------------
# Instance generators
# ---------------------------------------------------------------------------


def random_homothets(n: int, d: int, seed: int = 0) -> SimplexArray:
    """Deterministic random homothets with a healthy amount of overlap:
    corners uniform in ``[0, 8)`` per axis, sizes uniform in ``[0.5, 3)``."""
    if n < 1 or d < 1:
        raise ValueError("n and d must be positive")
    rng = np.random.default_rng(seed)
    corners = rng.uniform(0.0, 8.0, size=(n, d))
    sizes = rng.uniform(0.5, 3.0, size=n)
    return SimplexArray(corners, sizes)


def depth_controlled_family(n: int, k: int, *, seed: int = 0) -> SimplexArray:
    """Plane family of ``n`` triangles of size 4 with max depth exactly ``k``.

    Builds well-separated groups of ``k`` translates whose corners are
    jittered along an anti-diagonal short enough that each group shares a
    point; no point can be covered by more than one group, so the depth of
    the family is ``k`` (groups cross each other's boundaries, which keeps
    the arrangement nondegenerate).
    """
    if n < k or k < 1:
        raise ValueError("need n >= k >= 1")
    rng = np.random.default_rng(seed)
    size = 4.0
    shifts = []
    for first in range(0, n, k):  # one group of k (the last may be short)
        t = rng.uniform(0.0, size / 2.0, size=min(k, n - first))
        if t.size == k:
            t[0] = 0.0
            t[-1] = size / 2.0  # pin the spread so full groups reach depth k
        shifts.append(np.sort(t))
    t = np.concatenate(shifts)
    group = np.arange(n) // k
    spacing = 100.0 * size
    corners = np.c_[group * spacing + t, -group * spacing - t]
    return SimplexArray(corners, np.full(n, size))
