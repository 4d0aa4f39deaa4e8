"""Exact single-quality solver: row maxima of the event matrix by monotone search.

Customers are taken as events in decreasing price order (ties by
decreasing quality).  In a Pareto-consistent market no customer pays
strictly less than another yet demands strictly more, so along that order
the qualities never increase either: the event prices are the price
column sorted in decreasing order, and the event qualities are the
quality column sorted the same way, each on its own, so two plain sorts
build the events.  Only values that compare equal can end up in another
order than a joint sort would give them, and of those only ``-0.0`` and
``0.0`` differ, so the reported price and quality are normalized to
``0.0``.  A market built
with ``validate=False`` must already be Pareto-consistent: on any other
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

For rows ``t < t'`` and columns ``j < j'``,

    M[t][j] + M[t'][j'] - M[t][j'] - M[t'][j]
        = (p_t - p_t')(j' - j) + (q_j - q_j')(t' - t) >= 0,

so once a later column is at least as good as an earlier one it stays so
in every later row, and the rightmost maximizing column of a row never
decreases from row to row.  The row maxima are found by divide and
conquer on that order, in the manner of SMAWK (Aggarwal, Klawe, Moran,
Shor & Wilber, 1987): the middle row of a block of rows is scanned over
its block's column range, and its argmax splits the range for the rows
above and below.  All blocks of one recursion level are scanned in a
single numpy pass, so a solve is ``ceil(log2(n + 1))`` vectorized passes
of at most ``2n`` entries each (the column ranges of one pass overlap
only at their ends): O(n log n) overall.  A pass is evaluated in windows
of at most ``_ENTRY_BUDGET`` consecutive entries, so its arrays keep one
size however large ``n`` is, and freed memory is reused by the next
window instead of being paged in again.  A block cut by a window edge
merges the maxima of its parts, the later (rightmost) column winning a
tie, so the windows change no row's maximum or argmax.

Only the overall maximum is needed, so before each pass a block (rows
``lo..hi``, columns ``lo_col..hi_col``) is dropped when its bound

    (p[lo] - q[min(hi_col, hi)]) * (hi + 1 - lo_col)

is strictly below the best entry found so far (0 at the start): the
highest price of the block, less the lowest quality any of its rows
reaches, times its largest count.  Float subtraction and multiplication
round monotonically, so no float entry with a nonnegative margin exceeds
the float bound; when the bound's margin is negative every entry of the
block is negative.  A row holding the maximum is therefore never dropped.
Ties with the best are kept, so the first row holding the maximum, and
its rightmost maximizing column, are still the ones reported; dropping
ties would let a lower-priced row found in an earlier pass stand in for
a higher-priced row that only ties it.

The search returns only the rows it scanned; the reported product is the
first (highest-priced) of them holding the maximum, at its rightmost
maximizing column, re-evaluated against the market with
:func:`~productdesign.market.evaluate`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError
from .market import NO_PROFITABLE_PRODUCT, Market, Product, ProfitReport, evaluate

# entries one window of a search pass evaluates at most: each window
# allocates a few arrays of this length, so the pass arrays keep one size
# from pass to pass and solve to solve
_ENTRY_BUDGET = 1 << 16


@dataclass
class SweepStats:
    """Operation counts from one solve, for complexity monitoring.

    ``appended`` counts the distinct qualities and ``duplicate_skips``
    the events that repeat an earlier quality.  Every event is a matrix
    column: ``entries`` counts the entries the search evaluated over the
    columns of all events, and ``rows_pruned`` the rows it never scanned,
    because their block's bound fell below the best entry already found.
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
    # the event order, column by column (see the module docstring); the
    # search gathers from q entry by entry, so q is sorted in place into
    # one contiguous array, while p is only read a few rows at a time
    p = np.sort(market.prices)[::-1]
    q = -market.qualities[:, 0]
    q.sort()
    np.negative(q, out=q)

    rows, row_max, row_arg, entries = _row_maxima(p, q)
    repeats = int(np.count_nonzero(q[1:] == q[:-1]))
    stats = SweepStats(
        events=n,
        appended=n - repeats,
        duplicate_skips=repeats,
        entries=entries,
        rows_pruned=n - rows.size,
    )

    # the first (highest-priced) row holding the maximum, and its
    # rightmost (lowest-quality) maximizing column
    top = row_max.max()
    if not top > 0.0:
        return NO_PROFITABLE_PRODUCT, stats
    at = np.flatnonzero(row_max == top)
    at = at[np.argmin(rows[at])]
    # + 0.0 turns -0.0 into 0.0: the sorts may order equal zeros either way
    best_price = float(p[rows[at]]) + 0.0
    best_quality = float(q[row_arg[at]]) + 0.0
    return evaluate(market, Product(best_price, (best_quality,))), stats


def _row_maxima(
    p: np.ndarray, q: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Maximum and rightmost maximizing column of the searched rows of
    ``M[t][j] = (p[t] - q[j]) * (t - j + 1)`` over ``j <= t``.

    ``p`` holds the event prices and ``q`` the event qualities; ``q`` is
    gathered entry by entry, so it should be contiguous.  Each pass scans
    the middle row of every pending block of rows over that block's
    column range ``lo_col..hi_col`` (cut at the row itself), at most
    ``_ENTRY_BUDGET`` entries at a time; its argmax bounds the ranges of
    the rows above and below.  A block whose bound (highest price less
    lowest reachable quality, times largest count; see the module
    docstring for why it bounds every float entry) is strictly below the
    best peak found so far is dropped before the next pass; ties are kept.
    Returns the searched rows in search order, their maxima and argmax
    columns, and the number of entries evaluated.
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
        lengths = np.minimum(hi_col, mid) - lo_col + 1
        ends = np.cumsum(lengths)
        starts = ends - lengths
        total = int(ends[-1])
        entries += total
        peak = np.full(mid.size, -np.inf)
        arg = np.empty(mid.size, dtype=np.int64)
        # flat entry f of block b is column lo_col[b] + f - starts[b]
        for w0 in range(0, total, _ENTRY_BUDGET):
            w1 = min(w0 + _ENTRY_BUDGET, total)
            b0 = int(np.searchsorted(ends, w0, side="right"))
            b1 = int(np.searchsorted(starts, w1))
            cut = np.maximum(starts[b0:b1], w0)
            size = np.minimum(ends[b0:b1], w1) - cut
            cut -= w0
            col = np.repeat(lo_col[b0:b1] - starts[b0:b1], size)
            col += np.arange(w0, w1)
            values = np.repeat(p[mid[b0:b1]], size)
            values -= q.take(col)
            count = np.repeat(mid[b0:b1] + 1, size)
            count -= col
            values *= count
            part = np.maximum.reduceat(values, cut)
            hits = np.flatnonzero(values == np.repeat(part, size))
            part_arg = col.take(hits.take(np.searchsorted(hits, cut + size) - 1))
            # a block cut by the window start merges with its earlier
            # part; on a tie the later (rightmost) column wins
            later = part >= peak[b0:b1]
            peak[b0:b1] = np.where(later, part, peak[b0:b1])
            arg[b0:b1] = np.where(later, part_arg, arg[b0:b1])
        found_rows.append(mid)
        found_max.append(peak)
        found_arg.append(arg)
        best = max(best, float(peak.max()))
        above, below = lo < mid, mid < hi
        lo, hi, lo_col, hi_col = (
            np.concatenate((lo[above], mid[below] + 1)),
            np.concatenate((mid[above] - 1, hi[below])),
            np.concatenate((lo_col[above], arg[below])),
            np.concatenate((arg[above], hi_col[below])),
        )
        bound = (p[lo] - q[np.minimum(hi_col, hi)]) * (hi + 1 - lo_col)
        keep = bound >= best
        lo, hi, lo_col, hi_col = lo[keep], hi[keep], lo_col[keep], hi_col[keep]
    return (
        np.concatenate(found_rows),
        np.concatenate(found_max),
        np.concatenate(found_arg),
        entries,
    )
