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

where only the first event of each distinct quality is a column (a later
event of the same quality has the same margin and a smaller count).

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
of at most ``n + columns`` entries each: O(n log n) overall.

Only the overall maximum is needed, so before each pass a block (rows
``lo..hi``, columns ``lo_col..hi_col``) is dropped when its bound

    (p[lo] - q[min(hi_col, last_column[hi])]) * (hi + 1 - columns[lo_col])

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

The chosen (price, quality) is re-evaluated against the market with
:func:`~productdesign.market.evaluate`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError
from .market import NO_PROFITABLE_PRODUCT, Market, Product, ProfitReport, evaluate


@dataclass
class SweepStats:
    """Operation counts from one solve, for complexity monitoring.

    ``appended`` counts the distinct qualities (the matrix columns) and
    ``duplicate_skips`` the events that repeat an earlier quality;
    ``entries`` counts the matrix entries the search evaluated and
    ``rows_pruned`` the rows it never scanned, because their block's bound
    fell below the best entry already found.
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
    # the event order, column by column (see the module docstring)
    p = np.sort(market.prices)[::-1]
    q = np.sort(market.qualities[:, 0])[::-1]
    new_quality = np.concatenate(([True], q[1:] != q[:-1]))
    columns = np.flatnonzero(new_quality)  # first event of each quality
    # per row: last column at or before it, as an index array
    last_column = np.cumsum(new_quality, dtype=np.int64)
    last_column -= 1
    q = q[columns]  # column qualities; event t's quality is q[last_column[t]]

    row_max, row_arg, entries, rows_pruned = _row_maxima(
        p, q, columns, last_column
    )
    stats = SweepStats(
        events=n,
        appended=columns.size,
        duplicate_skips=n - columns.size,
        entries=entries,
        rows_pruned=rows_pruned,
    )

    # the first (highest-priced) row holding the maximum, and its
    # rightmost (lowest-quality) maximizing column
    best_row = int(np.argmax(row_max))
    if not row_max[best_row] > 0.0:
        return NO_PROFITABLE_PRODUCT, stats
    # + 0.0 turns -0.0 into 0.0: the sorts may order equal zeros either way
    best_price = float(p[best_row]) + 0.0
    best_quality = float(q[row_arg[best_row]]) + 0.0
    return evaluate(market, Product(best_price, (best_quality,))), stats


def _row_maxima(
    p: np.ndarray, q: np.ndarray, columns: np.ndarray, last_column: np.ndarray
) -> tuple[np.ndarray, np.ndarray, int, int]:
    """Maximum and rightmost maximizing column of every row of
    ``M[t][c] = (p[t] - q[c]) * (t - columns[c] + 1)`` over ``c <= last_column[t]``.

    ``p`` holds the event prices, ``q`` the column qualities and
    ``columns`` the column event indices.  Each pass scans the middle row
    of every pending block of rows over that block's column range
    ``lo_col..hi_col`` (cut at the row's last column); its argmax bounds
    the ranges of the rows above and below.  A block whose bound (highest
    price less lowest reachable quality, times largest count; see the
    module docstring for why it bounds every float entry) is strictly
    below the best peak found so far is dropped before the next pass;
    ties are kept.
    Returns the row maxima (``-inf`` for the rows of dropped blocks), the
    argmax columns, the number of entries evaluated and the number of rows
    dropped.
    """
    n = p.size
    row_max = np.full(n, -np.inf)
    row_arg = np.empty(n, dtype=np.int64)
    entries = searched = 0
    best = 0.0
    lo = np.zeros(1, dtype=np.int64)
    hi = np.full(1, n - 1, dtype=np.int64)
    lo_col = np.zeros(1, dtype=np.int64)
    hi_col = last_column[-1:].copy()
    # counts as float - float: exact below 2**53, so the products are the
    # ones an integer count would give
    column_at = columns.astype(float)
    while lo.size:
        mid = (lo + hi) >> 1
        lengths = np.minimum(hi_col, last_column[mid]) - lo_col + 1
        starts = np.cumsum(lengths) - lengths
        total = int(starts[-1] + lengths[-1])
        entries += total
        searched += mid.size
        col = np.repeat(lo_col - starts, lengths)
        col += np.arange(total)
        values = np.repeat(p.take(mid), lengths)
        values -= q.take(col)
        count = np.repeat(mid + 1.0, lengths)
        count -= column_at.take(col)
        values *= count
        peak = np.maximum.reduceat(values, starts)
        hits = np.flatnonzero(values == np.repeat(peak, lengths))
        arg = col.take(hits.take(np.searchsorted(hits, starts + lengths) - 1))
        row_max[mid] = peak
        row_arg[mid] = arg
        best = max(best, float(peak.max()))
        above, below = lo < mid, mid < hi
        lo, hi, lo_col, hi_col = (
            np.concatenate((lo[above], mid[below] + 1)),
            np.concatenate((mid[above] - 1, hi[below])),
            np.concatenate((lo_col[above], arg[below])),
            np.concatenate((arg[above], hi_col[below])),
        )
        bound = (p[lo] - q[np.minimum(hi_col, last_column[hi])]) * (
            hi + 1 - columns[lo_col]
        )
        keep = bound >= best
        lo, hi, lo_col, hi_col = lo[keep], hi[keep], lo_col[keep], hi_col[keep]
    return row_max, row_arg, entries, n - searched

