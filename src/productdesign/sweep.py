"""Exact single-quality solver: row maxima of the event matrix by monotone search.

Customers are taken as events in decreasing price order (ties by
decreasing quality).  Because the market is Pareto-consistent, the event
qualities are then nonincreasing, so a product priced at event ``t``'s
price with event ``j``'s quality (``j <= t``) is considered by at least
the events ``j`` through ``t``; when ``j`` is the first event of its
quality, those are all the considering customers up to ``t``.  The
optimum is therefore the largest entry of

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
    ``entries`` counts the matrix entries the search evaluated.
    ``certificate_pushes`` is always 0; it is kept only because the
    benchmark in ``perfbench/`` reads it.
    """

    events: int = 0
    appended: int = 0
    duplicate_skips: int = 0
    entries: int = 0
    certificate_pushes: int = 0


def solve_exact_1d(market: Market, *, check_invariants: bool = False) -> ProfitReport:
    """Exact optimum for a one-dimensional market in O(n log n).

    Returns a report whose profit equals the exhaustive grid optimum; when
    no product earns a positive profit the no-profit report is returned.
    ``check_invariants`` compares every row maximum with a direct scan of
    its row (quadratic — for tests only).
    """
    report, _ = solve_exact_1d_with_stats(market, check_invariants=check_invariants)
    return report


def solve_exact_1d_with_stats(
    market: Market, *, check_invariants: bool = False
) -> tuple[ProfitReport, SweepStats]:
    """As :func:`solve_exact_1d`, also returning operation counts."""
    if market.dim != 1:
        raise DimensionMismatchError("the sweep solver handles dim=1 markets only")
    n = len(market)
    pr = market.prices
    ql = market.qualities[:, 0]
    order = np.lexsort((-ql, -pr))
    p = pr[order]
    q = ql[order]
    new_quality = np.concatenate(([True], q[1:] != q[:-1]))
    columns = np.flatnonzero(new_quality)  # first event of each quality
    last_column = np.cumsum(new_quality) - 1  # per row: last column at or before it

    row_max, row_arg, entries = _row_maxima(p, q[columns], columns, last_column)
    stats = SweepStats(
        events=n,
        appended=columns.size,
        duplicate_skips=n - columns.size,
        entries=entries,
    )
    if check_invariants:
        _check_row_maxima(p, q, row_max)

    # the first (highest-priced) row holding the maximum, and its
    # rightmost (lowest-quality) maximizing column
    best_row = int(np.argmax(row_max))
    best_profit = float(row_max[best_row])
    if not best_profit > 0.0:
        return NO_PROFITABLE_PRODUCT, stats
    best_quality = float(q[columns[row_arg[best_row]]])
    report = evaluate(market, Product(float(p[best_row]), (best_quality,)))
    if check_invariants and report.profit != best_profit:
        raise AssertionError(
            f"searched profit {best_profit} disagrees with "
            f"re-evaluation {report.profit}"
        )
    return report, stats


def _row_maxima(
    p: np.ndarray, q: np.ndarray, columns: np.ndarray, last_column: np.ndarray
) -> tuple[np.ndarray, np.ndarray, int]:
    """Maximum and rightmost maximizing column of every row of
    ``M[t][c] = (p[t] - q[c]) * (t - columns[c] + 1)`` over ``c <= last_column[t]``.

    ``p`` holds the event prices, ``q`` the column qualities and
    ``columns`` the column event indices.  Each pass scans the middle row
    of every pending block of rows over that block's column range
    ``lo_col..hi_col`` (cut at the row's last column); its argmax bounds
    the ranges of the rows above and below.  Returns the row maxima, the
    argmax columns and the number of entries evaluated.
    """
    n = p.size
    row_max = np.empty(n)
    row_arg = np.empty(n, dtype=np.int64)
    entries = 0
    lo = np.zeros(1, dtype=np.int64)
    hi = np.full(1, n - 1, dtype=np.int64)
    lo_col = np.zeros(1, dtype=np.int64)
    hi_col = last_column[-1:].copy()
    while lo.size:
        mid = (lo + hi) >> 1
        lengths = np.minimum(hi_col, last_column[mid]) - lo_col + 1
        starts = np.cumsum(lengths) - lengths
        total = int(starts[-1] + lengths[-1])
        entries += total
        col = np.arange(total) - np.repeat(starts - lo_col, lengths)
        values = (np.repeat(p[mid], lengths) - q[col]) * (
            np.repeat(mid + 1, lengths) - columns[col]
        )
        peak = np.maximum.reduceat(values, starts)
        hits = np.flatnonzero(values == np.repeat(peak, lengths))
        arg = col[hits[np.searchsorted(hits, starts + lengths) - 1]]
        row_max[mid] = peak
        row_arg[mid] = arg
        above, below = lo < mid, mid < hi
        lo, hi, lo_col, hi_col = (
            np.concatenate((lo[above], mid[below] + 1)),
            np.concatenate((mid[above] - 1, hi[below])),
            np.concatenate((lo_col[above], arg[below])),
            np.concatenate((arg[above], hi_col[below])),
        )
    return row_max, row_arg, entries


def _check_row_maxima(p: np.ndarray, q: np.ndarray, row_max: np.ndarray) -> None:
    """Debug-mode check: every row maximum against a direct scan of
    ``(p_t - q_j) * (t - j + 1)`` over all events ``j <= t``.

    The scan also takes the repeat events of a quality as columns.  Their
    smaller count only wins a row where every margin is negative, and such
    a row cannot hold the optimum, so both sides are compared clipped at 0.
    """
    for t in range(p.size):
        direct = float(np.max((p[t] - q[: t + 1]) * np.arange(t + 1, 0, -1)))
        if max(float(row_max[t]), 0.0) != max(direct, 0.0):
            raise AssertionError(
                f"event {t + 1}: searched row maximum {row_max[t]} != "
                f"direct scan {direct}"
            )
