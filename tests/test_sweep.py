import math

import numpy as np
import pytest

import productdesign as pd

from conftest import market_of


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
            got = pd.solve_exact_1d(m, check_invariants=True).profit
            assert got == pd.brute_force_optimum(m).profit, f"seed {seed}"

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
        # entry per column plus one per row
        levels = math.ceil(math.log2(n + 1))
        assert n <= stats.entries <= (n + stats.appended) * levels

    def test_invariant_checked_run(self):
        m = pd.random_pareto_market(300, 1, seed=5, value_range=(0, 10**5))
        rep = pd.solve_exact_1d(m, check_invariants=True)
        assert rep.profit == pd.brute_force_optimum(m).profit
