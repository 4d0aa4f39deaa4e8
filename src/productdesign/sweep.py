"""Exact single-quality solver: row maxima of the event matrix by monotone search.

Customers are taken as events in decreasing price order (ties by
decreasing quality).  In a Pareto-consistent market no customer pays
strictly less than another yet demands strictly more, so along that order
the qualities never increase either: the event prices are the price
column sorted in decreasing order, and the event qualities are the
quality column sorted the same way, each on its own, so two plain sorts
build the events.  A column already stored in ascending order (as
:func:`~productdesign.market.random_pareto_market` and most sorted
inputs store it) is not sorted: one O(n) comparison finds that, and the
column is read in reverse; a shuffled column fails the comparison within
its first few pairs.  That test is
:func:`~productdesign.market._ascending`, which the Pareto check of a
1-D market shares to skip its own sort.  Only values that compare equal
can end up in another order than a joint sort would give them, and of
those only ``-0.0`` and ``0.0`` differ, which the reported product does
not show: a :class:`~productdesign.market.Product` stores every zero as
``0.0``.  A market built with
``validate=False`` must already be Pareto-consistent: on any other
market the two sorted columns pair prices with other customers'
qualities.

Along the events, a product priced at event ``t``'s price with event
``j``'s quality (``j <= t``) is considered by at least the events ``j``
through ``t``; when ``j`` is the first event of its quality, those are
all the considering customers up to ``t``.  The optimum is therefore the
largest entry of

    M[t][j] = (p_t - q_j) * (t - j + 1),    j <= t,

where every event is a column.  A later event of a quality already seen
has the same margin as the first one and a smaller count, so it never
changes the report: with a positive margin its entry is no larger than
the first event's (and a tie names the same quality), and with a margin
of at most 0 its entry cannot beat the no-profit answer.  Taking every
event as a column saves the index arrays that would map rows to
distinct qualities and their columns to events.

Only positive entries can be reported, and for finite floats ``p - q >
0`` exactly when ``p > q``.  Row ``t``'s positive entries are therefore
its band ``j0(t) <= j <= t``, where ``j0(t)`` is the first event with
``q_j < p_t``; as the prices fall, ``j0`` never decreases from row to
row.  For rows ``t < t'`` and columns ``j < j'``,

    M[t][j] + M[t'][j'] - M[t][j'] - M[t'][j]
        = (p_t - p_t')(j' - j) + (q_j - q_j')(t' - t) >= 0,

so on the bands the rightmost maximizing column never decreases from
row to row: if row ``t``'s were some ``j' > j``, row ``t'``'s, all four
entries would lie in the bands (``j >= j0(t') >= j0(t)`` and ``j' <= t``),
and the identity would make ``j'`` maximize row ``t'`` as well.  The row
maxima are found by divide and conquer on that order, in the manner of
SMAWK (Aggarwal, Klawe, Moran, Shor & Wilber, 1987): the middle row of a
block of rows is scanned over its band within the block's column range,
and its argmax splits the range for the rows above and below.  A row
whose band is empty there has no positive entry; it is not scanned and
splits at the band's first column instead, since the rows below it reach
no positive entry left of that column and the rows above it none right
of it.  All blocks of one recursion level are scanned in a single numpy
pass, so a solve is ``ceil(log2(n + 1))`` vectorized passes of at most
``2n`` entries each (the column ranges of one pass overlap only at their
ends): O(n log n) overall.  A pass is evaluated in windows of at most
``_ENTRY_BUDGET`` consecutive entries, so its arrays keep one size
however large ``n`` is, and freed memory is reused by the next window
instead of being paged in again.  A block cut by a window edge merges
the maxima of its parts, the later (rightmost) column winning a tie, so
the windows change no row's maximum or argmax.

Only the overall maximum is needed, so before each pass every pending
block (rows ``lo..hi``, columns ``lo_col..hi_col``) is bounded and
trimmed.  Its positive entries lie in the columns ``low..top``, with
``low = max(lo_col, j0(lo))`` and ``top = min(hi_col, hi)``; a block with
``low > top`` has none and is dropped.  The rows ``lo..hi`` and the
columns ``low..top`` are each cut into ``k`` near-equal pieces, and the
piece of rows ``ra..rb`` and columns ``ca..cb`` is bounded by

    (p[ra] - q[min(cb, rb)]) * (rb + 1 - ca),

the highest price of its rows, less the lowest quality they reach in it,
times the largest count of an entry in it; it is empty when ``ca >
min(cb, rb)``.  Float subtraction and multiplication round
monotonically, so no positive float entry of a piece exceeds its float
bound.  A block is kept when a piece bound is at least the best entry
found so far (0 at the start), and its rows are trimmed to the first
through the last row of such pieces; every row dropped, inside a block or
with it, has all its entries below the best, so a row holding the maximum
is never dropped.  The columns are not trimmed, as a kept row's own
maximum may lie in a piece below the best: the block's column range
holds the rightmost maximizing column of every one of its rows, so it
holds those of the trimmed rows too, and each searched row keeps the
maximum and rightmost argmax of its whole row.  Ties with the best are
kept, so the first row holding the maximum, and its rightmost maximizing
column, are still the ones reported; dropping ties would let a
lower-priced row found in an earlier pass stand in for a higher-priced
row that only ties it.

The grid is ``k = isqrt(_PIECE_BUDGET // blocks)`` pieces a side, at
least 1, so a pruning step computes at most ``_PIECE_BUDGET`` piece
bounds, or one per block when more blocks are pending than that; with
``k = 1`` the one piece is the whole block.  The box bound of a whole
block pairs its highest price with its lowest quality, which sit at
opposite corners of the block, and so keeps most blocks long after the
best is within a few percent of the optimum; the pieces pair the price
and the quality of nearby rows.

The search returns only the rows it scanned, each with a positive
maximum and the same rightmost maximizing column a scan of the whole row
gives; the reported product is the first (highest-priced) of them
holding the maximum, at its rightmost maximizing column, re-evaluated
against the market with :func:`~productdesign.market.evaluate`.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

import numpy as np

from .errors import DimensionMismatchError
from .market import (
    NO_PROFITABLE_PRODUCT,
    Market,
    Product,
    ProfitReport,
    _ascending,
    evaluate,
)

# entries one window of a search pass evaluates at most: each window
# allocates a few arrays of this length, so the pass arrays keep one size
# from pass to pass and solve to solve
_ENTRY_BUDGET = 1 << 16
# piece bounds one pruning step computes at most (with fewer than that
# many pending blocks): each block gets a k x k grid of them
_PIECE_BUDGET = _ENTRY_BUDGET >> 4


@dataclass
class SweepStats:
    """Operation counts from one solve, for complexity monitoring.

    ``appended`` counts the distinct qualities and ``duplicate_skips``
    the events that repeat an earlier quality.  Every event is a matrix
    column: ``entries`` counts the entries the search evaluated, all in
    their rows' positive-margin bands, and ``rows_pruned`` the rows it
    never scanned: rows with no positive-margin entry in their column
    range, and rows whose every piece bound fell below the best entry
    already found, with their block or trimmed off its ends (each pending
    block is cut into a grid of at most ``_PIECE_BUDGET`` pieces over all
    blocks; a trimmed block keeps its columns, so every scanned row still
    gets its whole-row maximum and rightmost argmax).
    ``certificate_pushes`` is always 0; it is kept only because the
    benchmark in ``perfbench/`` reads it.
    """

    events: int = 0
    appended: int = 0
    duplicate_skips: int = 0
    entries: int = 0
    rows_pruned: int = 0
    certificate_pushes: int = 0


def solve_exact_1d(market: Market) -> ProfitReport:
    """Exact optimum for a one-dimensional market in O(n log n).

    Returns a report whose profit equals the exhaustive grid optimum; when
    no product earns a positive profit the no-profit report is returned.
    The events are the price column and the quality column, each sorted
    in decreasing order on its own: in a Pareto-consistent market that is
    the order of price, then quality, descending.  A market built with
    ``validate=False`` must therefore already be Pareto-consistent.
    """
    report, _ = solve_exact_1d_with_stats(market)
    return report


def solve_exact_1d_with_stats(market: Market) -> tuple[ProfitReport, SweepStats]:
    """As :func:`solve_exact_1d`, also returning operation counts."""
    if market.dim != 1:
        raise DimensionMismatchError("the sweep solver handles dim=1 markets only")
    n = len(market)

    # the event order, column by column (see the module docstring); a
    # column stored ascending is only reversed.  The search gathers the
    # negated qualities entry by entry and looks up the bands in them, so
    # they form one contiguous ascending array, while p is only read a
    # few rows at a time and may stay a reversed view
    p = market.prices
    if not _ascending(p):
        p = np.sort(p)
    p = p[::-1]
    q = market.qualities[:, 0]
    if _ascending(q):
        negq = -q[::-1]
    else:
        negq = -q
        negq.sort()

    rows, row_max, row_arg, entries = _row_maxima(p, negq)
    repeats = int(np.count_nonzero(negq[1:] == negq[:-1]))
    stats = SweepStats(
        events=n,
        appended=n - repeats,
        duplicate_skips=repeats,
        entries=entries,
        rows_pruned=n - rows.size,
    )
    # every searched row has a positive maximum
    if not rows.size:
        return NO_PROFITABLE_PRODUCT, stats

    # the first (highest-priced) row holding the maximum, and its
    # rightmost (lowest-quality) maximizing column
    at = np.flatnonzero(row_max == row_max.max())
    at = at[np.argmin(rows[at])]
    product = Product(float(p[rows[at]]), (-float(negq[row_arg[at]]),))
    return evaluate(market, product), stats


def _row_maxima(
    p: np.ndarray, negq: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Maximum and rightmost maximizing column of the searched rows of
    ``M[t][j] = (p[t] + negq[j]) * (t - j + 1)`` over ``j <= t``.

    ``p`` holds the event prices and ``negq`` the negated event
    qualities, so ``p[t] + negq[j]`` is the margin ``p_t - q_j`` to the
    last bit; ``negq`` is ascending, and as it is gathered entry by entry
    and searched for each row's band, it should be contiguous.  Each pass
    scans the middle row of every pending block of rows over its
    positive-margin band within that block's column range ``lo_col..hi_col``
    (cut at the row itself), at most ``_ENTRY_BUDGET`` entries at a time;
    its argmax, or for an empty band the band's first column, bounds the
    ranges of the rows above and below.  Before the next pass a block
    with no band is dropped, and so is a block whose every piece bound
    (a grid of at most ``_PIECE_BUDGET`` pieces over all blocks, each
    bounded by its highest price less the lowest quality it reaches,
    times its largest count; see the module docstring for why that
    bounds every positive float entry) is strictly below the best peak
    found so far; ties are kept.  A kept block's rows are trimmed to the
    pieces that reach the best, its columns are not, so each searched
    row's column range still holds its whole-row rightmost argmax.
    Returns the searched rows in search order, their maxima (all
    positive) and argmax columns, and the number of entries evaluated.
    """
    n = p.size
    found_rows, found_max, found_arg = [], [], []
    entries = 0
    best = 0.0
    lo = np.zeros(1, dtype=np.int64)
    hi = np.full(1, n - 1, dtype=np.int64)
    lo_col = np.zeros(1, dtype=np.int64)
    hi_col = hi.copy()
    while lo.size:
        mid = (lo + hi) >> 1
        # a row's band starts at the first column whose quality is below
        # its price; an empty band leaves the split at that column
        split = negq.searchsorted(-p[mid], "right")
        np.maximum(split, lo_col, out=split)
        lengths = np.minimum(hi_col, mid) - split + 1
        scanned = lengths > 0
        rows, first, lengths = mid[scanned], split[scanned], lengths[scanned]
        ends = lengths.cumsum()
        starts = ends - lengths
        total = int(ends[-1]) if ends.size else 0
        entries += total
        peak = np.full(rows.size, -np.inf)
        arg = np.empty(rows.size, dtype=np.int64)
        # flat entry f of scanned row b is column first[b] + f - starts[b]
        for w0 in range(0, total, _ENTRY_BUDGET):
            w1 = min(w0 + _ENTRY_BUDGET, total)
            b0 = int(ends.searchsorted(w0, "right"))
            b1 = int(starts.searchsorted(w1))
            cut = np.maximum(starts[b0:b1], w0)
            size = np.minimum(ends[b0:b1], w1) - cut
            cut -= w0
            col = (first[b0:b1] - starts[b0:b1]).repeat(size)
            col += np.arange(w0, w1)
            values = p[rows[b0:b1]].repeat(size)
            values += negq.take(col)
            count = (rows[b0:b1] + 1).repeat(size)
            count -= col
            values *= count
            part = np.maximum.reduceat(values, cut)
            hits = (values == part.repeat(size)).nonzero()[0]
            part_arg = col.take(hits.take(hits.searchsorted(cut + size) - 1))
            # a block cut by the window start merges with its earlier
            # part; on a tie the later (rightmost) column wins
            later = part >= peak[b0:b1]
            peak[b0:b1] = np.where(later, part, peak[b0:b1])
            arg[b0:b1] = np.where(later, part_arg, arg[b0:b1])
        found_rows.append(rows)
        found_max.append(peak)
        found_arg.append(arg)
        best = max(best, float(peak.max(initial=0.0)))
        split[scanned] = arg
        above, below = lo < mid, mid < hi
        lo, hi, lo_col, hi_col = (
            np.concatenate((lo[above], mid[below] + 1)),
            np.concatenate((mid[above] - 1, hi[below])),
            np.concatenate((lo_col[above], split[below])),
            np.concatenate((split[above], hi_col[below])),
        )
        # cut each block with a band into a k x k grid of pieces (see the
        # module docstring), keep the blocks with a piece bound >= best and
        # trim their rows to such pieces; their columns stay whole
        low = negq.searchsorted(-p[lo], "right")
        np.maximum(low, lo_col, out=low)
        top = np.minimum(hi_col, hi)
        band = low <= top
        lo, hi, lo_col, hi_col = lo[band], hi[band], lo_col[band], hi_col[band]
        low, top = low[band], top[band]
        k = max(1, isqrt(_PIECE_BUDGET // max(lo.size, 1)))
        cut = np.arange(k + 1)
        row_cut = lo[:, None] + (hi + 1 - lo)[:, None] * cut // k
        col_cut = low[:, None] + (top + 1 - low)[:, None] * cut // k
        ra, rb = row_cut[:, :-1], row_cut[:, 1:] - 1
        ca, cb = col_cut[:, None, :-1], col_cut[:, None, 1:] - 1
        last = np.minimum(cb, rb[:, :, None])
        bound = p[ra][:, :, None] + negq[last]
        bound *= rb[:, :, None] + 1 - ca
        reach = ((ca <= last) & (bound >= best)).any(axis=2)
        # more pieces than rows leaves some row pieces empty
        reach &= ra <= rb
        keep = reach.any(axis=1)
        first = reach.argmax(axis=1)[keep]
        final = k - 1 - reach[:, ::-1].argmax(axis=1)[keep]
        lo, hi = ra[keep, first], rb[keep, final]
        lo_col, hi_col = lo_col[keep], hi_col[keep]
    return (
        np.concatenate(found_rows),
        np.concatenate(found_max),
        np.concatenate(found_arg),
        entries,
    )
