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
from productdesign import market as market_mod, sweep


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


def negative_margin_market(rng):
    """Small integer market where most customers pay less than the
    quality they demand, pruned."""
    n = int(rng.integers(1, 60))
    q = rng.integers(0, 30, n)
    p = q + rng.integers(-10, 3, n)
    return pd.prune_dominated(
        [pd.Customer(float(pp), (float(qq),)) for pp, qq in zip(p, q)]
    )


def band_market(rng):
    """Distinct qualities at least 7 apart and margins in -3..3, so the
    customers whose margin is not positive have no positive-margin column
    at all and sit between profitable ones."""
    n = int(rng.integers(2, 300))
    q = np.cumsum(rng.integers(7, 12, n)).astype(float)
    return pd.Market.from_arrays(q + rng.integers(-3, 4, n), q)


def quarter_market(rng):
    """Small market on quarter steps, with ties, negative margins and
    zeros stored as both ``0.0`` and ``-0.0``, pruned."""
    n = int(rng.integers(1, 120))
    q = rng.integers(-8, 9, n) * 0.25
    p = q + rng.integers(-4, 9, n) * 0.25
    for col in (p, q):
        col[np.flatnonzero(col == 0)[::2]] = -0.0
    return pd.prune_dominated(
        [pd.Customer(float(pp), (float(qq),)) for pp, qq in zip(p, q)]
    )


def shuffled(market, rng, validate=True):
    """The same customers in a random row order."""
    perm = rng.permutation(len(market))
    return pd.Market.from_arrays(
        market.prices[perm], market.qualities[perm], validate=validate
    )


def ascending(market):
    """The same customers stored by ascending price, then quality: in a
    Pareto-consistent market both columns are then ascending."""
    order = np.lexsort((market.qualities[:, 0], market.prices))
    return pd.Market.from_arrays(market.prices[order], market.qualities[order])


def search(market):
    """The 1-D search on the market's events: the event prices and the
    event qualities in ascending order."""
    p, q = event_arrays(market)
    return sweep._row_maxima(p, np.ascontiguousarray(q[::-1]))


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
        # the qualities it gathers from and searches must be one
        # contiguous ascending array
        seen = []
        search_rows = sweep._row_maxima

        def spy(*arrays):
            seen.append(arrays)
            return search_rows(*arrays)

        monkeypatch.setattr(sweep, "_row_maxima", spy)
        rng = np.random.default_rng(23)
        markets = [tie_heavy_market(rng) for _ in range(150)]
        markets += [equal_price_market(rng) for _ in range(150)]
        markets += [float_market(rng, 60, 1) for _ in range(100)]
        for i, market in enumerate(markets):
            p, q = event_arrays(market)
            for m in (market, shuffled(market, rng), ascending(market)):
                seen.clear()
                pd.solve_exact_1d(m)
                (got,) = seen
                assert len(got) == 2
                assert np.array_equal(got[0], p), f"market {i}"
                assert np.array_equal(got[1], q[::-1]), f"market {i}"
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

    def test_no_positive_margin_searches_nothing(self):
        # every margin is at most 0, so no row has a positive-margin
        # column: nothing is scanned and every row counts as pruned
        rng = np.random.default_rng(5)
        markets = [market_of((1, [2]), (3, [3]), (5, [5]))]
        markets.append(market_of((0.0, [-0.0])))
        for _ in range(20):
            q = np.sort(rng.integers(0, 50, int(rng.integers(1, 40))))
            markets.append(pd.Market.from_arrays(q - rng.integers(0, 2), q))
        for m in markets:
            for stored in (m, shuffled(m, rng)):
                rep, stats = pd.solve_exact_1d_with_stats(stored)
                assert rep == pd.NO_PROFITABLE_PRODUCT
                assert (stats.entries, stats.rows_pruned) == (0, len(m))
                assert_search_checked(stored, rep)

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
    rows, row_max, row_arg, _ = search(market)
    check_row_maxima(p, q, rows, row_max, row_arg)
    # with no row searched, every row was pruned or has no positive entry
    best = float(row_max.max(initial=0.0))
    if best > 0.0:
        assert report.profit == best
    else:
        assert report == pd.NO_PROFITABLE_PRODUCT


def assert_matches_unpruned(market):
    """The pruned search against the unpruned one: the same report, the
    same maximum and argmax on every searched row, and no more entries."""
    p, q = event_arrays(market)
    rows, row_max, row_arg, entries = search(market)
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
            # on this distribution the piece bounds leave only a few dozen
            # rows, and the positive-margin bands cut the entries scanned in
            # them (over 90,000 when every row is scanned from its block's
            # first column, 55,000-60,000 under one box bound per block)
            assert stats.rows_pruned >= 0.95 * n, f"seed {seed}"
            assert stats.entries <= 20_000, f"seed {seed}"

    def test_matches_unpruned_search_on_tie_heavy_markets(self):
        rng = np.random.default_rng(17)
        for _ in range(400):
            assert_matches_unpruned(tie_heavy_market(rng))
        for _ in range(100):
            assert_matches_unpruned(float_market(rng, 60, 1, ties=True))

    def test_higher_priced_row_that_only_ties_is_kept(self):
        # events (5,1), (3,0), (1,0): three rows get one piece per entry,
        # each bounded by and probed at its entry, so before any scan the
        # best is the maximum 4, held by row 0, (5 - 1) * 1, and by row 1,
        # (3 - 1) * 2.  Row 0's piece only ties the best and is kept, and
        # row 0 is the first row holding the maximum.  Row 2's pieces
        # reach at most (1 - 0) * 2 = 2, so row 2 is the only row pruned.
        m = market_of((5, [1]), (3, [0]), (1, [0]))
        rep, stats = pd.solve_exact_1d_with_stats(m)
        assert_search_checked(m, rep)
        assert rep.product == pd.Product(5, (1,)) and rep.profit == 4.0
        assert rep == direct_scan_report(m)[0]
        assert stats.rows_pruned == 1
        assert_matches_unpruned(m)


class TestPositiveMarginBand:
    """Each row is scanned only over its positive-margin columns; a row
    with none is neither scanned nor returned and splits the column range
    at its band's first column, so every returned row keeps the maximum
    and rightmost argmax of its whole row."""

    def test_empty_bands_between_profitable_rows(self):
        rng = np.random.default_rng(29)
        for i in range(200):
            m = band_market(rng)
            assert_matches_unpruned(m)
            _, row_max, _, _ = search(m)
            assert (row_max > 0.0).all(), f"market {i}"

    def test_empty_middle_row_splits_at_its_band(self):
        # events (11,8), (5,6), (3,0); the positive entries are row 0's
        # (11 - 8) * 1 = 3 and row 2's (3 - 0) * 1 = 3, and row 1's price 5
        # is below every quality but event 2's, so its band starts at
        # column 2, past the row itself.  Three rows get one piece per
        # entry, whose bound is the entry and whose probe is the entry, so
        # the best starts at 3 and the block is trimmed to rows 0..2, the
        # first and last pieces reaching it.  The first pass's middle row,
        # row 1, has an empty band: it is not scanned and splits at column
        # 2, giving rows 0..0 columns 0..2 and rows 2..2 columns 2..2.
        # Both reach 3, so the second pass scans one entry in each.
        m = market_of((11, [8]), (5, [6]), (3, [0]))
        rows, row_max, row_arg, entries = search(m)
        assert rows.tolist() == [0, 2] and row_max.tolist() == [3.0, 3.0]
        assert row_arg.tolist() == [0, 2] and entries == 2
        rep, stats = pd.solve_exact_1d_with_stats(m)
        # the first row holding the maximum is reported
        assert rep.product == pd.Product(11, (8,)) and rep.profit == 3.0
        assert (stats.entries, stats.rows_pruned) == (2, 1)
        assert_matches_unpruned(m)

    def test_block_bound_counts_from_the_band(self, monkeypatch):
        # with the default grid, three rows get one piece per entry, whose
        # bound is the entry itself, so the band shows only in a coarser
        # piece: budget 1 bounds each block by one box.  Events (13,10),
        # (4,2), (2,1).  Before any scan the whole block (rows 0..2,
        # columns 0..2) probes its middle row 1 at its middle column 1,
        # (4 - 2) * 1 = 2, and its box bound (13 - 1) * 3 = 36 keeps it.
        # The first pass scans row 1 over its band, column 1 alone: the
        # best stays 2.  Row 2's block has columns 1..2, but only column
        # 2 has a quality below its price, so its bound is (2 - 1) * 1 = 1
        # < 2 and it is dropped; counted from column 1 the bound would be
        # (2 - 1) * 2 = 2, a tie, and row 2 would be scanned.  Row 0's
        # block, (13 - 10) * 1 = 3, is kept and scanned: 2 entries.
        monkeypatch.setattr(sweep, "_PIECE_BUDGET", 1)
        m = market_of((2, [1]), (4, [2]), (13, [10]))
        rows, _, _, _ = search(m)
        assert rows.tolist() == [1, 0]
        rep, stats = pd.solve_exact_1d_with_stats(m)
        assert rep.product == pd.Product(13, (10,)) and rep.profit == 3.0
        assert (stats.entries, stats.rows_pruned) == (2, 1)
        assert_matches_unpruned(m)


class TestStoredOrder:
    """A column stored in ascending order is read in reverse instead of
    sorted; either way the search gets the same events, so the report,
    the counts and every searched row are those of a shuffled copy, built
    with or without validation."""

    @staticmethod
    def markets(rng):
        yield from (tie_heavy_market(rng) for _ in range(60))
        yield from (equal_price_market(rng) for _ in range(60))
        yield from (float_market(rng, 60, 1) for _ in range(60))
        yield from (float_market(rng, 60, 1, ties=True) for _ in range(60))
        yield from (negative_margin_market(rng) for _ in range(60))
        yield from (band_market(rng) for _ in range(20))
        for seed in range(4):
            n = int(rng.integers(1, 3000))
            yield pd.random_pareto_market(n, 1, seed=seed, value_range=(0, 20 * n))
        yield from (quarter_market(rng) for _ in range(60))

    def test_ascending_and_shuffled_columns_agree(self, monkeypatch):
        seen = []
        search_rows = sweep._row_maxima

        def spy(p, q):
            seen.append(search_rows(p, q))
            return seen[-1]

        monkeypatch.setattr(sweep, "_row_maxima", spy)
        rng = np.random.default_rng(31)
        for i, m in enumerate(self.markets(rng)):
            # a market built with validate=False tests its columns' order
            # on its first solve, and must still sort shuffled ones
            copies = (
                ascending(m),
                shuffled(m, rng),
                shuffled(m, rng, validate=False),
            )
            got = []
            for stored in copies:
                seen.clear()
                got.append((pd.solve_exact_1d_with_stats(stored), seen[0]))
            (solved, rows), *others = got
            for solved_shuffled, rows_shuffled in others:
                assert solved == solved_shuffled, f"market {i}"
                for a, b in zip(rows, rows_shuffled):
                    assert np.array_equal(a, b), f"market {i}"

    def test_ascending_prices_are_read_in_place(self, monkeypatch):
        # a sorted copy would not share the market's memory
        seen = []
        search_rows = sweep._row_maxima

        def spy(p, q):
            seen.append(p)
            return search_rows(p, q)

        monkeypatch.setattr(sweep, "_row_maxima", spy)
        m = pd.random_pareto_market(500, 1, seed=3, value_range=(0, 10_000))
        rep = pd.solve_exact_1d(m)
        assert np.shares_memory(seen[0], m.prices)
        assert rep == direct_scan_report(m)[0]

    def test_ascending_qualities_are_read_in_place(self, monkeypatch):
        # neither a sorted nor a negated copy shares the market's memory
        seen = []
        search_rows = sweep._row_maxima

        def spy(p, q):
            seen.append(q)
            return search_rows(p, q)

        monkeypatch.setattr(sweep, "_row_maxima", spy)
        m = pd.random_pareto_market(500, 1, seed=3, value_range=(0, 10_000))
        rep = pd.solve_exact_1d(m)
        assert np.shares_memory(seen[0], m.qualities)
        assert rep == direct_scan_report(m)[0]

    def test_each_column_order_is_tested_once(self, monkeypatch):
        # a 1-D market keeps the answers of the Pareto check's order
        # tests, so a solve tests only a column the check left untested
        # (the qualities when the prices are not ascending, both columns
        # of a market built with validate=False), and only the first time
        tested = []
        order_test = market_mod._ascending

        def spy(x):
            tested.append(x)
            return order_test(x)

        def columns(m):
            return "".join(
                "p" if np.shares_memory(x, m.prices) else "q" for x in tested
            )

        monkeypatch.setattr(market_mod, "_ascending", spy)
        # a solver holding its own reference to the test is caught too
        monkeypatch.setattr(sweep, "_ascending", spy, raising=False)
        base = pd.random_pareto_market(500, 1, seed=3, value_range=(0, 10_000))
        perm = np.random.default_rng(5).permutation(len(base))
        cases = [
            # columns, validate, columns tested by the build, by the solves
            ((base.prices, base.qualities), True, "pq", ""),
            ((base.prices[perm], base.qualities[perm]), True, "p", "q"),
            ((base.prices, base.qualities), False, "", "pq"),
            ((base.prices[perm], base.qualities[perm]), False, "", "pq"),
        ]
        expected = pd.solve_exact_1d_with_stats(base)
        for arrays, validate, at_build, at_solve in cases:
            tested.clear()
            m = pd.Market.from_arrays(*arrays, validate=validate)
            assert columns(m) == at_build, (validate, at_build)
            tested.clear()
            for _ in range(2):
                assert pd.solve_exact_1d_with_stats(m) == expected
            assert columns(m) == at_solve, (validate, at_build)

    @pytest.mark.parametrize(
        "rows",
        [
            [(2.0, 0.0), (2.0, -0.0), (0.0, -1.0), (-0.0, -1.0)],
            [(1.0, 0.0), (1.0, -0.0), (0.0, -3.0), (-0.0, -3.0)],
            [(-0.0, -0.0), (0.0, 0.0), (1.0, 0.0)],
        ],
    )
    def test_signed_zeros_in_either_stored_order(self, rows):
        # ascending storage keeps -0.0 before 0.0 or after it, as given
        results = set()
        for order in itertools.permutations(rows):
            for stored in (order, sorted(order)):
                m = market_of(*((p, [q]) for p, q in stored))
                rep, stats = pd.solve_exact_1d_with_stats(m)
                product = rep.product
                results.add(
                    (
                        repr(product.price),
                        repr(product.qualities[0]),
                        rep.buyers,
                        rep.profit,
                        stats.entries,
                        stats.rows_pruned,
                    )
                )
        assert len(results) == 1


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
            (pd.solve_exact_1d_with_stats(m), search(m))
            for m in markets
        ]
        for budget in (1, 2, 7):
            monkeypatch.setattr(sweep, "_ENTRY_BUDGET", budget)
            for i, (m, (solved, searched)) in enumerate(zip(markets, expected)):
                assert pd.solve_exact_1d_with_stats(m) == solved, f"market {i}"
                got = search(m)
                for a, b in zip(got[:3], searched[:3]):
                    assert np.array_equal(a, b), f"budget {budget}, market {i}"


class TestPieceBounds:
    """Each pruning step bounds a k x k grid of pieces per pending block,
    ``k = isqrt(_PIECE_BUDGET // blocks)``, and trims each kept block's
    rows to the pieces that may reach the best; budget 1 is the single
    box bound per block.  Before the first pass each piece probes one
    real entry, so the best starts at most at the maximum.  No budget
    changes a report or a searched row's maximum and rightmost argmax,
    on markets with ties, quarter steps, zeros of both signs and
    negative margins."""

    BUDGETS = (1, 2, 7, 50, sweep._PIECE_BUDGET)

    def test_budgets_match_the_unpruned_search(self, monkeypatch):
        rng = np.random.default_rng(43)
        markets = list(TestStoredOrder.markets(rng))
        markets += [
            pd.random_pareto_market(n, 1, seed=8, value_range=(0, 20 * n))
            for n in (700, 5000)
        ]
        expected = [pd.solve_exact_1d(m) for m in markets]
        for budget in self.BUDGETS:
            monkeypatch.setattr(sweep, "_PIECE_BUDGET", budget)
            for i, (m, report) in enumerate(zip(markets, expected)):
                stats = assert_matches_unpruned(m)
                assert pd.solve_exact_1d_with_stats(m) == (report, stats), (
                    f"budget {budget}, market {i}"
                )

    @pytest.mark.parametrize(
        "rows, counts",
        [
            ([(5, [1]), (3, [0]), (1, [0])], (3, 1)),
            ([(10, [8]), (5, [6]), (3, [0])], (2, 1)),
            ([(2, [1]), (4, [2]), (13, [10])], (2, 1)),
        ],
    )
    def test_budget_one_is_the_box_bound(self, monkeypatch, rows, counts):
        # (entries, rows_pruned) of the hand-built markets above under one
        # box bound per block, (p[lo] - q[min(hi_col, hi)]) times the
        # largest count
        monkeypatch.setattr(sweep, "_PIECE_BUDGET", 1)
        _, stats = pd.solve_exact_1d_with_stats(market_of(*rows))
        assert (stats.entries, stats.rows_pruned) == counts

    def test_piece_grid_stays_within_the_budget(self, monkeypatch):
        # with windows of 256 entries, the piece grid is the largest thing
        # a pruning step allocates besides the event columns: at most
        # _PIECE_BUDGET pieces over all pending blocks, each a few 8-byte
        # values, however many blocks are pending
        monkeypatch.setattr(sweep, "_ENTRY_BUDGET", 256)
        n = 20_000
        m = pd.random_pareto_market(n, 1, seed=8, value_range=(0, 20 * n))
        tracemalloc.start()
        try:
            pd.solve_exact_1d(m)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * 8 * n + 64 * (sweep._ENTRY_BUDGET + sweep._PIECE_BUDGET)


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

    def test_stored_ascending_columns_are_not_copied(self):
        # criterion 8's largest market stores both columns ascending, so
        # the solve reads them in place: nothing of 8n bytes, only
        # index arrays of the pending blocks and the window arrays
        n = 1_000_000
        m = pd.random_pareto_market(n, 1, seed=8, value_range=(0, 20 * n))
        tracemalloc.start()
        try:
            pd.solve_exact_1d(m)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * n + 32 * sweep._ENTRY_BUDGET


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
