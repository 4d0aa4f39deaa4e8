import itertools
import math
import tracemalloc

import numpy as np
import pytest

import productdesign as pd

from conftest import (
    check_row_maxima,
    event_arrays,
    float_market,
    market_of,
    unpruned_row_maxima,
)
from productdesign import sweep


def direct_scan_report(market):
    """Independent reference for the 1-D solver's report.

    Events in price-descending, quality-descending order; every event pair
    j <= t is scanned as (p_t - q_j) * (t - j + 1).  The reported product
    is the first row attaining the maximum, at that row's rightmost
    maximizing event, re-evaluated against the market.
    """
    q = market.qualities[:, 0]
    order = np.lexsort((-q, -market.prices))
    p, q = market.prices[order], q[order]
    best, at = 0.0, None
    for t in range(p.size):
        row = (p[t] - q[: t + 1]) * np.arange(t + 1, 0, -1)
        top = float(row.max())
        if top > best:
            best, at = top, (t, t - int(np.argmax(row[::-1])))
    if at is None:
        return pd.NO_PROFITABLE_PRODUCT, best
    t, j = at
    return pd.evaluate(market, pd.Product(float(p[t]), (float(q[j]),))), best


def tie_heavy_market(rng):
    """Small integer market with many ties and negative margins, pruned."""
    n = int(rng.integers(1, 41))
    q = rng.integers(0, 6, n)
    p = q + rng.integers(-2, 6, n)
    return pd.prune_dominated(
        [pd.Customer(float(pp), (float(qq),)) for pp, qq in zip(p, q)]
    )


def equal_price_market(rng):
    """Small market on three price levels with many customers per level,
    so most rows tie on price; negative margins included, pruned."""
    n = int(rng.integers(2, 41))
    p = rng.integers(0, 3, n) * 3.0 + 4.0
    q = p + rng.integers(-6, 2, n)
    return pd.prune_dominated(
        [pd.Customer(float(pp), (float(qq),)) for pp, qq in zip(p, q)]
    )


def shuffled(market, rng):
    """The same customers in a random row order."""
    perm = rng.permutation(len(market))
    return pd.Market.from_arrays(market.prices[perm], market.qualities[perm])


class TestSweepEvents:
    """The solver's event order: price descending, then quality descending.

    Among equal-profit products the report is the first row (highest
    price) at its rightmost column (lowest quality), so ties show the order.
    """

    def test_order_price_desc_then_quality_desc(self):
        # equal profit 4 at prices 4 and 2: the higher-priced event comes first
        rep = pd.solve_exact_1d(market_of((2, [0]), (4, [0])))
        assert rep.product == pd.Product(4, (0,)) and rep.profit == 4.0
        # equal price 6, equal profit 4 at qualities 4 and 2: the
        # lower-quality event comes later, so it is the rightmost column
        rep = pd.solve_exact_1d(market_of((6, [2]), (6, [4])))
        assert rep.product == pd.Product(6, (2,)) and rep.profit == 4.0
        m = market_of((5, [1]), (7, [4]), (5, [2]), (7, [2]))
        rep, stats = pd.solve_exact_1d_with_stats(m)
        assert rep.product == pd.Product(5, (2,)) and rep.profit == 9.0
        # events (7,4), (7,2), (5,2), (5,1): quality 2 repeats once
        assert (stats.events, stats.appended, stats.duplicate_skips) == (4, 3, 1)

    def test_rejects_multidimensional(self):
        with pytest.raises(pd.DimensionMismatchError):
            pd.solve_exact_1d_with_stats(pd.random_pareto_market(4, 2, seed=0))

    def test_two_sorts_give_the_joint_order(self, monkeypatch):
        # the solver sorts the price and the quality column each on its
        # own; on a Pareto-consistent market the search must still get the
        # arrays of the joint (price, quality) order, in any row order, and
        # the qualities it gathers from must be one contiguous array
        seen = []
        search = sweep._row_maxima

        def spy(*arrays):
            seen.append(arrays)
            return search(*arrays)

        monkeypatch.setattr(sweep, "_row_maxima", spy)
        rng = np.random.default_rng(23)
        markets = [tie_heavy_market(rng) for _ in range(150)]
        markets += [equal_price_market(rng) for _ in range(150)]
        markets += [float_market(rng, 60, 1) for _ in range(100)]
        for i, market in enumerate(markets):
            expected = event_arrays(market)
            for m in (market, shuffled(market, rng)):
                seen.clear()
                pd.solve_exact_1d(m)
                (got,) = seen
                assert len(got) == len(expected)
                for a, b in zip(got, expected):
                    assert np.array_equal(a, b), f"market {i}"
                assert got[1].flags.c_contiguous


class TestSignedZeros:
    """``-0.0`` and ``0.0`` compare equal, so the sorts may place either
    customer's zero in the event arrays; the report shows ``0.0``."""

    @pytest.mark.parametrize(
        "rows, product, profit",
        [
            # (2, 0) earns 2 from each price-2 customer
            ([(2.0, 0.0), (2.0, -0.0), (0.0, -1.0), (-0.0, -1.0)], "2.0 0.0", 4.0),
            # (0, -3) earns 3 from each price-0 customer
            ([(1.0, 0.0), (1.0, -0.0), (0.0, -3.0), (-0.0, -3.0)], "0.0 -3.0", 6.0),
        ],
    )
    def test_zero_is_reported_as_positive_zero(self, rows, product, profit):
        for order in itertools.permutations(rows):
            m = market_of(*((p, [q]) for p, q in order))
            rep = pd.solve_exact_1d(m)
            assert f"{rep.product.price!r} {rep.product.qualities[0]!r}" == product
            assert rep.profit == profit == pd.brute_force_optimum(m).profit
            assert rep == direct_scan_report(m)[0]


class TestSolveExact1d:
    def test_single_customer(self):
        rep = pd.solve_exact_1d(market_of((2, [1])))
        assert rep.profit == 1.0 and rep.product == pd.Product(2, (1,))

    def test_two_customers(self):
        assert pd.solve_exact_1d(market_of((3, [1]), (2, [0]))).profit == 2.0

    def test_all_distinct_instance_gives_half(self):
        rep = pd.solve_exact_1d(pd.element_uniqueness_instance([1, 2, 3]))
        assert rep.profit == 0.5

    def test_duplicate_instance_reaches_one(self):
        rep = pd.solve_exact_1d(pd.element_uniqueness_instance([5, 5, 7]))
        assert rep.profit == 1.0

    def test_no_profit_marker(self):
        rep = pd.solve_exact_1d(market_of((5, [5]), (3, [3])))
        assert rep == pd.NO_PROFITABLE_PRODUCT

    def test_rejects_multidimensional(self):
        with pytest.raises(pd.DimensionMismatchError):
            pd.solve_exact_1d(pd.random_pareto_market(4, 2, seed=0))

    def test_matches_oracle_on_random_markets(self):
        for seed in range(40):
            n = int(np.random.default_rng(seed).integers(1, 220))
            m = pd.random_pareto_market(n, 1, seed=seed, value_range=(0, 50))
            assert (
                pd.solve_exact_1d(m).profit == pd.brute_force_optimum(m).profit
            ), f"seed {seed}"

    def test_matches_oracle_on_tie_heavy_markets(self):
        for seed in range(250):
            rng = np.random.default_rng(10_000 + seed)
            n = int(rng.integers(1, 8))
            q = rng.integers(0, 4, n)
            p = q + rng.integers(0, 4, n)
            customers = [
                pd.Customer(float(pp), (float(qq),)) for pp, qq in zip(p, q)
            ]
            try:
                m = pd.Market(customers)
            except pd.ParetoViolationError:
                m = pd.prune_dominated(customers)
            rep = pd.solve_exact_1d(m)
            assert_search_checked(m, rep)
            assert rep.profit == pd.brute_force_optimum(m).profit, f"seed {seed}"

    def test_matches_direct_event_scan(self):
        markets = [
            pd.random_pareto_market(150, 1, seed=seed, value_range=(0, 2000))
            for seed in range(15)
        ]
        markets += [
            pd.random_pareto_market(6000, 1, seed=seed, value_range=(0, 10**6))
            for seed in range(8)
        ]
        # non-integer floats: the search relies on the rounded products
        # keeping the matrix's monotone argmax order
        rng = np.random.default_rng(99)
        q = np.sort(rng.uniform(0.0, 50.0, 400))
        p = q + np.cumsum(rng.uniform(0.0, 0.5, 400))
        markets.append(pd.Market.from_arrays(p, q))
        # equal prices, equal qualities and negative margins: these pin the
        # event order (price, then quality, descending) and the first-row,
        # rightmost-column tie-break
        rng = np.random.default_rng(4)
        markets += [tie_heavy_market(rng) for _ in range(400)]
        markets += [equal_price_market(rng) for _ in range(100)]
        markets += [float_market(rng, 80, 1, ties=k % 2 == 1) for k in range(100)]
        # random_pareto_market emits its rows in event order already, and
        # the solver must not depend on the row order
        markets += [shuffled(m, rng) for m in markets]
        for i, m in enumerate(markets):
            expected, best = direct_scan_report(m)
            rep = pd.solve_exact_1d(m)
            assert rep == expected and rep.profit == best, f"market {i}"

    def test_report_is_reevaluated(self):
        m = pd.random_pareto_market(80, 1, seed=12)
        rep = pd.solve_exact_1d(m)
        again = pd.evaluate(m, rep.product)
        assert (again.buyers, again.profit) == (rep.buyers, rep.profit)

    def test_equal_price_group(self):
        m = market_of((5, [3]), (5, [1]))
        # (5,[1]) sells to one buyer at margin 4; (5,[3]) sells to both at 2
        assert pd.solve_exact_1d(m).profit == 4.0

    def test_equal_quality_different_prices(self):
        m = market_of((10, [5]), (8, [5]))
        assert pd.solve_exact_1d(m).profit == pd.brute_force_optimum(m).profit == 6.0


def assert_search_checked(market, report):
    """Every searched row maximum and argmax against a direct scan of its
    row, every pruned row against the best, and the report's profit
    against the largest searched maximum."""
    p, q = event_arrays(market)
    rows, row_max, row_arg, _ = sweep._row_maxima(p, q)
    check_row_maxima(p, q, rows, row_max, row_arg)
    best = float(row_max.max())
    if best > 0.0:
        assert report.profit == best
    else:
        assert report == pd.NO_PROFITABLE_PRODUCT


def assert_matches_unpruned(market):
    """The pruned search against the unpruned one: the same report, the
    same maximum and argmax on every searched row, and no more entries."""
    p, q = event_arrays(market)
    rows, row_max, row_arg, entries = sweep._row_maxima(p, q)
    ref_max, ref_arg, ref_entries = unpruned_row_maxima(p, q)
    assert np.unique(rows).size == rows.size
    assert np.array_equal(row_max, ref_max[rows])
    assert np.array_equal(row_arg, ref_arg[rows])
    assert entries <= ref_entries
    pruned = p.size - rows.size
    best_row = int(np.argmax(ref_max))
    if ref_max[best_row] > 0.0:
        product = pd.Product(float(p[best_row]), (float(q[ref_arg[best_row]]),))
        expected = pd.evaluate(market, product)
    else:
        expected = pd.NO_PROFITABLE_PRODUCT
    report, stats = pd.solve_exact_1d_with_stats(market)
    assert report == expected
    assert (stats.entries, stats.rows_pruned) == (entries, pruned)
    return stats


class TestBlockPruning:
    """Dropping row blocks whose bound is below the running best changes
    neither the report nor any searched row, and only removes work."""

    def test_matches_unpruned_search_on_criterion8_markets(self):
        n = 20_000
        for seed in range(4):
            m = pd.random_pareto_market(n, 1, seed=seed, value_range=(0, 20 * n))
            stats = assert_matches_unpruned(m)
            # on this distribution the bound leaves only a few hundred rows
            assert stats.rows_pruned >= 0.95 * n, f"seed {seed}"

    def test_matches_unpruned_search_on_tie_heavy_markets(self):
        rng = np.random.default_rng(17)
        for _ in range(400):
            assert_matches_unpruned(tie_heavy_market(rng))
        for _ in range(100):
            assert_matches_unpruned(float_market(rng, 60, 1, ties=True))

    def test_higher_priced_row_that_only_ties_is_kept(self):
        # events (5,1), (3,0), (1,0): the first pass scans row 1, whose
        # best entry (3 - 1) * 2 = 4 at quality 1 becomes the running best;
        # row 0's block then has bound (5 - 1) * 1 = 4, a tie, and row 0
        # is the first row holding the maximum.  Row 2's block has bound
        # (1 - 0) * 3 = 3, so row 2 is the only row pruned.
        m = market_of((5, [1]), (3, [0]), (1, [0]))
        rep, stats = pd.solve_exact_1d_with_stats(m)
        assert_search_checked(m, rep)
        assert rep.product == pd.Product(5, (1,)) and rep.profit == 4.0
        assert rep == direct_scan_report(m)[0]
        assert stats.rows_pruned == 1
        assert_matches_unpruned(m)


class TestEntryWindows:
    """Each pass runs in windows of at most ``_ENTRY_BUDGET`` entries; a
    block cut by a window edge merges its parts, the later column winning
    ties, so the window size changes no searched row and no report."""

    def test_small_windows_match_the_default(self, monkeypatch):
        rng = np.random.default_rng(41)
        markets = [tie_heavy_market(rng) for _ in range(60)]
        markets += [equal_price_market(rng) for _ in range(60)]
        markets += [float_market(rng, 60, 1, ties=True) for _ in range(60)]
        markets.append(
            pd.random_pareto_market(600, 1, seed=8, value_range=(0, 12_000))
        )
        expected = [
            (pd.solve_exact_1d_with_stats(m), sweep._row_maxima(*event_arrays(m)))
            for m in markets
        ]
        for budget in (1, 2, 7):
            monkeypatch.setattr(sweep, "_ENTRY_BUDGET", budget)
            for i, (m, (solved, searched)) in enumerate(zip(markets, expected)):
                assert pd.solve_exact_1d_with_stats(m) == solved, f"market {i}"
                got = sweep._row_maxima(*event_arrays(m))
                for a, b in zip(got[:3], searched[:3]):
                    assert np.array_equal(a, b), f"budget {budget}, market {i}"


class TestWorkingSet:
    def test_solve_memory_is_two_columns_and_a_window(self):
        # criterion 8's smallest market: the solve holds the event prices
        # and qualities (two 8n-byte columns, a third for slack), and each
        # window allocates a few 8-byte arrays of at most _ENTRY_BUDGET
        # entries, so nothing else may grow with n
        n = 250_000
        m = pd.random_pareto_market(n, 1, seed=8, value_range=(0, 20 * n))
        tracemalloc.start()
        try:
            pd.solve_exact_1d(m)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * 8 * n + 64 * sweep._ENTRY_BUDGET


class TestSweepAccounting:
    def test_counts_within_bounds(self):
        m = pd.random_pareto_market(5000, 1, seed=3, value_range=(0, 10**6))
        _, stats = pd.solve_exact_1d_with_stats(m)
        n = len(m)
        distinct = len(set(m.qualities[:, 0].tolist()))
        assert stats.events == n
        assert stats.appended == distinct  # each quality enters exactly once
        assert stats.appended + stats.duplicate_skips == n
        # each of the ceil(log2(n + 1)) recursion levels scans at most one
        # entry per column plus one per row; a pruned row scans nothing
        levels = math.ceil(math.log2(n + 1))
        assert 0 <= stats.rows_pruned < n
        assert n - stats.rows_pruned <= stats.entries <= (n + stats.appended) * levels

    def test_invariant_checked_run(self):
        m = pd.random_pareto_market(300, 1, seed=5, value_range=(0, 10**5))
        rep = pd.solve_exact_1d(m)
        assert_search_checked(m, rep)
        assert rep.profit == pd.brute_force_optimum(m).profit
