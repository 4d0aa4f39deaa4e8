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

The exact deepest point slices that corner grid one axis at a time.  A
homothet meets the grid lines through a fixed prefix ``x_0 .. x_{k-1}`` in
a contiguous run of axis-``k`` values (its slice is again a corner
simplex, of size ``s - sum_{i<k} (x_i - a_i)``), so each (prefix,
homothet) pair expands into the run of prefixes one axis longer; on the
last axis every grid line is stabbed by its runs at once.  The work is
the number of pairs expanded plus the stab events, which follows the
arrangement's local depth rather than the grid's size; it is counted
before each expansion allocates anything, so an oversized query is
refused before it grows.  The corner values are sorted once per set of
homothets (``_CornerGrid``); any first ``m`` of them, as an approximation
level is, take their own grid lines from that sort.

Homothets can be given one object at a time (:class:`SimplexHomothet`) or
as arrays (:class:`SimplexArray`); every query accepts either.  All
structures are immutable once built and queries are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionMismatchError, GuardExceededError

# Pairs expanded plus stab events allowed in one exact deepest-point query;
# it also bounds the candidate pairs of one `arrangement_stats` query.
EXACT_DEPTH_GUARD = 300_000_000

# Pairs expanded at once; larger expansions run in consecutive key windows
# (pair windows in `arrangement_stats`), which bounds a query's peak memory
# (about 100 bytes per pair).
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
        """Upper bound on coordinate sums inside the region."""
        return sum(self.corner) + self.size


def contains(simplex: SimplexHomothet, point: Sequence[float]) -> bool:
    """Closed membership test: all lower bounds plus the sum bound."""
    if len(point) != simplex.dim:
        raise DimensionMismatchError(
            f"point has {len(point)} coordinates, simplex has {simplex.dim}"
        )
    total = 0.0
    for x, a in zip(point, simplex.corner):
        if x < a:
            return False
        total += x - a
    return total <= simplex.size


def intersects(s1: SimplexHomothet, s2: SimplexHomothet) -> bool:
    """Whether the two closed regions share at least one point."""
    if s1.dim != s2.dim:
        raise DimensionMismatchError(
            f"simplices have dimensions {s1.dim} and {s2.dim}"
        )
    meet = sum(max(a, b) for a, b in zip(s1.corner, s2.corner))
    return meet <= min(s1.sum_cap, s2.sum_cap)


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


def _as_arrays(simplices: Sequence[SimplexHomothet]) -> tuple[np.ndarray, np.ndarray]:
    if not len(simplices):
        raise ValueError("need at least one simplex")
    if isinstance(simplices, SimplexArray):
        return simplices.corners, simplices.sizes
    d = simplices[0].dim
    for i, s in enumerate(simplices):
        if s.dim != d:
            raise DimensionMismatchError(
                f"simplex {i} has dimension {s.dim}, expected {d}"
            )
    corners = np.array([s.corner for s in simplices], dtype=float)
    sizes = np.array([s.size for s in simplices], dtype=float)
    return corners, sizes


# ---------------------------------------------------------------------------
# Arrangement statistics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ArrangementStats:
    """Boundary complexity summary of a set of homothets."""

    vertex_count: int | None
    max_depth: int
    pairwise_intersections: int


def arrangement_stats(simplices: Sequence[SimplexHomothet]) -> ArrangementStats:
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
    cap = sum(cols) + size  # SimplexHomothet.sum_cap, summed in axis order
    # A pair meets only if the later corner's x is within the earlier
    # one's x-extent: the meet corner's sum is at least that x plus the
    # earlier corner's other coordinates, and the cap is at most its own
    # x + s plus the same.  Rounding moves each side of the float predicate
    # by a few spacings of the largest partial sum, so padding the extent
    # by more than that keeps every pair the predicate can accept.
    scale = np.abs(corners).max(axis=0).sum() + sizes.max()
    pad = 4 * (d + 2) * float(np.spacing(scale))
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
        meet = sum(np.maximum(col[i], col[j]) for col in cols)  # as intersects
        hit = meet <= np.minimum(cap[i], cap[j])
        i, j = i[hit], j[hit]
        pairwise += i.size
        if d == 2:
            vertices += _edge_crossings(cols, size, cap, i, j)
    return ArrangementStats(
        vertex_count=vertices,
        max_depth=deepest_point_exact(SimplexArray(corners, sizes)).depth,
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
    """A point and the number of input simplices containing it."""

    point: tuple[float, ...]
    depth: int


class _CornerGrid:
    """Per-axis distinct corner values of a set of homothets, sorted once.

    ``values[k]`` holds the sorted distinct axis-``k`` values, ``first[k]``
    the index of the first corner with each value and ``inverse[k]`` each
    corner's position among them.  The grid of the first ``m`` corners
    keeps the values whose first corner is among them (a mask), and a
    corner's position on it is the number of kept values up to its own
    (a ``cumsum``), so no prefix is sorted or searched again.  The corner
    sums ``csum`` and the sums after each axis ``rest[k]`` are per-corner
    row sums, the same for a prefix as for the whole set.
    """

    def __init__(self, corners: np.ndarray):
        self.n, self.d = corners.shape
        self.cols = [np.ascontiguousarray(corners[:, k]) for k in range(self.d)]
        self.csum = corners.sum(axis=1)
        self.rest = [corners[:, k + 1 :].sum(axis=1) for k in range(self.d)]
        self.values, self.first, self.inverse = zip(
            *(
                np.unique(col, return_index=True, return_inverse=True)
                for col in self.cols
            )
        )

    def axes(self, m: int) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Sorted distinct values of the first ``m`` corners per axis, and
        each of those corners' positions among them."""
        if m == self.n:
            return list(self.values), list(self.inverse)
        axes, pos = [], []
        for values, first, inverse in zip(self.values, self.first, self.inverse):
            keep = first < m
            axes.append(values[keep])
            pos.append((np.cumsum(keep) - 1)[inverse[:m]])
        return axes, pos


class _GridSlicer:
    """Deepest corner-grid point of a set of homothets, one axis at a time.

    The homothets are the first ``m`` corners of a :class:`_CornerGrid`
    with the ``m`` given sizes, sliced on their own grid: grid points are
    indexed by their per-axis positions in the sorted distinct values
    ``axes[k]`` (``m_k`` of them) of those ``m`` corners only.  A homothet
    contains grid point ``x`` under the grid's own float predicate: every
    ``x_k >= a_k`` and ``((0.0 + x_0) + x_1) + ... <= sum(a) + s``, summed
    in axis order.  That sum never decreases when a coordinate grows, so
    the axis-``k`` values admitted for a fixed prefix form one run of
    positions ``[lo, hi)``: ``lo`` is the corner's own position and ``hi``
    is where the prefix, completed by the corner's remaining coordinates
    (the smallest admitted completion), first exceeds the cap.

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
    lexicographically smallest deepest point.  Expansions of more than
    ``_PAIR_BUDGET`` pairs run one key window at a time, in key order.
    The work done so far is ``work``.
    """

    def __init__(self, grid: _CornerGrid, sizes: np.ndarray):
        self.n, self.d = sizes.size, grid.d
        self.cols = [col[: self.n] for col in grid.cols]
        self.caps = grid.csum[: self.n] + sizes
        # Sum of the coordinates after axis k, for the estimate of `hi`.
        self.rest = [rest[: self.n] for rest in grid.rest]
        self.axes, self.pos = grid.axes(self.n)
        self.rank_rows = math.prod(ax.size for ax in self.axes) >= _DIRECT_KEY_CELLS
        self.work = 0

    def solve(self) -> DepthResult:
        """Max depth and the lex-smallest grid point attaining it."""
        sim = np.arange(self.n)
        part = np.zeros(self.n)
        end = self._ends(0, sim, part)
        depth, key, tail = self._stage(0, sim, part, self.pos[0], end)
        # depth 0 only if rounding keeps every homothet off the grid
        at = (key,) + tail if depth else (0,) * self.d
        return DepthResult(tuple(float(ax[i]) for ax, i in zip(self.axes, at)), depth)

    def _charge(self, work: int):
        self.work += work
        if self.work > EXACT_DEPTH_GUARD:
            raise GuardExceededError(
                f"exact depth work {self.work} (pairs plus stab events) "
                f"exceeds the {EXACT_DEPTH_GUARD} guard"
            )

    def _fits(self, k, sim, part, at):
        """Whether position ``at`` on axis ``k``, completed by the corners'
        remaining coordinates, is under each pair's cap."""
        total = part + self.axes[k][at]
        for i in range(k + 1, self.d):
            total = total + self.cols[i][sim]
        return total <= self.caps[sim]

    def _ends(self, k, sim, part):
        """One past the last axis-``k`` position each pair admits."""
        axis = self.axes[k]
        m = axis.size
        bound = self.caps[sim] - part - self.rest[k][sim]
        hi = np.searchsorted(axis, bound, side="right")
        # The subtracted bound is only an estimate of the float predicate:
        # keep `hi` where it is exact, bisect the rest on the predicate.
        above = (hi < m) & self._fits(k, sim, part, np.minimum(hi, m - 1))
        below = (hi > 0) & ~self._fits(k, sim, part, np.maximum(hi - 1, 0))
        wrong = np.flatnonzero(above | below)
        if wrong.size:
            s, p = sim[wrong], part[wrong]
            lo = np.zeros(wrong.size, dtype=np.intp)
            up = np.full(wrong.size, m, dtype=np.intp)
            while (lo < up).any():
                mid = (lo + up) // 2
                ok = self._fits(k, s, p, np.minimum(mid, m - 1))
                active = lo < up
                lo = np.where(active & ok, mid + 1, lo)
                up = np.where(active & ~ok, mid, up)
            hi[wrong] = lo
        return np.maximum(hi, self.pos[k][sim])

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
        if total <= _PAIR_BUDGET:
            return self._expand(k, sim, part, start, end)
        best = (0, 0, ())
        for lo, hi in _key_windows(start, end, total // _PAIR_BUDGET + 1):
            s, e = np.maximum(start, lo), np.minimum(end, hi)
            keep = s < e
            found = self._expand(k, sim[keep], part[keep], s[keep], e[keep])
            if found[0] > best[0]:
                best = found
        return best

    def _expand(self, k, sim, part, start, end):
        cnt = end - start
        total = int(cnt.sum())
        if total == 0:
            return 0, 0, ()
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
        if depth == 0:
            return 0, 0, ()
        row_key = key // m if rows_of is None else int(rows_of[key // m])
        return depth, row_key, (key % m,) + tail


def _key_windows(start: np.ndarray, end: np.ndarray, parts: int):
    """Consecutive key windows ``[lo, hi)`` that split the incidences of
    the intervals ``[start, end)`` into about ``parts`` equal shares."""
    # C(K), the incidences at keys below K, is piecewise linear between
    # interval ends; interpolate the keys where it crosses each share.
    base = start.min()
    marks = np.unique(np.concatenate([start, end]) - base).astype(float)
    s, e = np.sort(start - base).astype(float), np.sort(end - base).astype(float)
    cs, ce = np.r_[0.0, np.cumsum(s)], np.r_[0.0, np.cumsum(e)]
    a = np.searchsorted(s, marks)
    b = np.searchsorted(e, marks)
    below = (a * marks - cs[a]) - (b * marks - ce[b])
    total = below[-1]
    shares = total * np.arange(1, parts) / parts + 0.5
    cuts = base + np.floor(np.interp(shares, below, marks)).astype(np.int64)
    bounds = np.unique(np.r_[base, cuts, end.max()])
    return zip(bounds[:-1], bounds[1:])


def deepest_point_exact(simplices: Sequence[SimplexHomothet]) -> DepthResult:
    """Deepest point of the homothets, by slicing the corner-value grid.

    Some optimum lies on the grid of per-axis corner values (see the
    module notes); this returns the maximum depth over that grid and the
    lexicographically smallest grid point attaining it, with the grid's
    float membership predicate (see :class:`_GridSlicer`).  The work is the
    number of (grid-line prefix, homothet) pairs expanded plus two stab
    events per pair on the last axis, about ``n`` times the mean number of
    grid lines a homothet spans; it is counted before each expansion
    allocates anything, and a query whose count passes the module constant
    ``EXACT_DEPTH_GUARD`` (read at each call) raises
    :class:`GuardExceededError`.  Peak memory is bounded by
    expanding at most ``_PAIR_BUDGET`` pairs at once.
    """
    corners, sizes = _as_arrays(simplices)
    return _GridSlicer(_CornerGrid(corners), sizes).solve()


# ---------------------------------------------------------------------------
# Instance generators
# ---------------------------------------------------------------------------


def random_homothets(
    n: int,
    d: int,
    seed: int = 0,
    *,
    corner_range: tuple[float, float] = (0.0, 8.0),
    size_range: tuple[float, float] = (0.5, 3.0),
) -> SimplexArray:
    """Deterministic random homothets with a healthy amount of overlap."""
    if n < 1 or d < 1:
        raise ValueError("n and d must be positive")
    rng = np.random.default_rng(seed)
    corners = rng.uniform(corner_range[0], corner_range[1], size=(n, d))
    sizes = rng.uniform(size_range[0], size_range[1], size=n)
    return SimplexArray(corners, sizes)


def depth_controlled_family(
    n: int, k: int, *, seed: int = 0, size: float = 4.0
) -> SimplexArray:
    """Plane family of ``n`` equal-size triangles with max depth exactly ``k``.

    Builds well-separated groups of ``k`` translates whose corners are
    jittered along an anti-diagonal short enough that each group shares a
    point; no point can be covered by more than one group, so the depth of
    the family is ``k`` (groups cross each other's boundaries, which keeps
    the arrangement nondegenerate).
    """
    if n < k or k < 1:
        raise ValueError("need n >= k >= 1")
    rng = np.random.default_rng(seed)
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
