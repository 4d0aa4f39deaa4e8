"""The approximation's level skip against a search of every level.

``search_every_level`` is the approximation with no level skipped: it
projects and searches each ladder level in order.  The skip must leave
the report and every searched level's outcome unchanged.
"""

import itertools

import numpy as np

import productdesign as pd
from conftest import float_market, market_of
from productdesign import approx, simplices


def search_every_level(market, epsilon):
    """Report and per-level outcomes with no level skipped."""
    r = pd.max_ppu(market)
    if r <= 0:
        return pd.NO_PROFITABLE_PRODUCT, []
    levels = pd.level_schedule(r, epsilon, len(market))
    # the own offer of the top customer the answer rule names (highest
    # price, then lexicographically smallest qualities): its margin is r
    # under the one cost rule, and that customer buys it, so best.profit > 0
    # from here on
    margins = approx._margins(market)
    top = min(
        (c for c, m in zip(market, margins) if m == margins.max()),
        key=lambda c: (-c.price, c.qualities),
    )
    best = pd.evaluate(market, pd.Product(top.price, top.qualities))
    outcomes = []
    for i, c in enumerate(levels):
        projected = pd.project_customers(market, c)
        if not projected:
            continue
        corners = np.array([s.corner for s, _ in projected])
        slicer = simplices._GridSlicer(
            simplices._CornerGrid(corners), np.array([s.size for s, _ in projected])
        )
        found = slicer.solve()
        product = pd.lift_point(found.point, c)
        report = pd.evaluate(market, product)
        outcomes.append(
            pd.LevelOutcome(
                i, c, len(projected), found.depth, product, report.profit,
                slicer.work,
            )
        )
        if report.profit > best.profit:
            best = report
    return best, outcomes


def fine_ladder_market(rng, n, d):
    """Margins of a few 1e-9 next to qualities of millions: adjacent
    ladder levels sit within the rounding pad, so the cap is not used."""
    q = rng.integers(0, 5, size=(n, d)) * 1e6
    margin = rng.integers(-3, 4, size=n) * 1e-9
    return pd.prune_dominated(
        pd.Customer(float(p), tuple(map(float, row)))
        for p, row in zip(q.sum(axis=1) + margin, q)
    )


def fuzz_markets():
    """Integer, two-decimal float, tie-heavy and fine-ladder markets with
    d = 2 and 3."""
    rng = np.random.default_rng(66)
    for case in range(120):
        d = 2 + case % 2
        n = int(rng.integers(1, 41))
        kind = case % 4
        if kind == 0:
            hi = int(rng.choice([4, 12, 100]))
            yield pd.random_pareto_market(n, d, seed=case, value_range=(0, hi))
        elif kind == 3:
            yield fine_ladder_market(rng, n, d)
        else:
            yield float_market(rng, n, d, ties=kind == 2)


def rounding_prone_markets():
    """Single two-decimal customers with a price in [3, 4) and qualities
    summing below 2, d = 2 and 3: the margin often shares the price's
    binade, where lifting the corner by it can round the price up."""
    yield market_of((3.93, [0.18, 1.27]))
    yield market_of((2.69, [0.0, 0.13, 0.44]))
    rng = np.random.default_rng(68)
    for case in range(80):
        d = 2 + case % 2
        q = np.round(rng.uniform(0, 2 / d, size=d), 2)
        yield market_of((round(float(rng.uniform(3, 4)), 2), q.tolist()))


def check_skip(market, epsilon):
    """Assert that the solve's report and searched levels are those of a
    search of every level; returns the solve's outcomes and ladder stats."""
    report, outcomes, ladder = pd.solve_approx_detailed(market, epsilon)
    ref_report, ref_outcomes = search_every_level(market, epsilon)
    assert repr(report) == repr(ref_report)
    by_index = {lv.index: lv for lv in ref_outcomes}
    for lv in outcomes:
        assert lv == by_index[lv.index]
    assert [lv.index for lv in outcomes] == sorted(lv.index for lv in outcomes)
    return outcomes, ladder


def test_skip_keeps_report_and_searched_outcomes():
    pairs = searched = skipped = uncapped = 0
    for market in fuzz_markets():
        for eps in (0.1, 0.25, 0.5):
            outcomes, ladder = check_skip(market, eps)
            if pd.max_ppu(market) > 0:
                ladder_length = len(
                    pd.level_schedule(pd.max_ppu(market), eps, len(market))
                )
                assert len(outcomes) + ladder.levels_skipped == ladder_length
                assert outcomes[-1].index == ladder_length - 1
                if ladder.depth_cap is not None:
                    assert ladder.depth_cap == outcomes[-1].depth
                elif ladder_length > 1:
                    uncapped += 1
            pairs += 1
            searched += len(outcomes)
            skipped += ladder.levels_skipped
    assert pairs >= 300
    # the skip, and its fall-back to the reach alone, must both engage on
    # this mix, or the test shows nothing
    assert skipped > searched
    assert uncapped > 0


def test_oracle_seeds_with_the_top_customers_offer():
    # where the top customer's corner lifted by their margin is priced
    # above their budget, only their own offer earns anything
    rounded = 0
    for market in rounding_prone_markets():
        top = market.customer(0)
        rounded += pd.lift_point(top.qualities, pd.ppu(top)).price > top.price
        for eps in (0.1, 0.25, 0.5):
            check_skip(market, eps)
    assert rounded >= 2


def test_deep_market_searches_few_levels():
    # every customer buys at the lowest level; the cap then rules out all
    # but a few levels near the top of the ladder
    rng = np.random.default_rng(0)
    q = rng.uniform(0, 10, size=(2000, 2))
    market = pd.Market.from_arrays(1.5 * q.sum(axis=1) + 140, q)
    report, outcomes, ladder = pd.solve_approx_detailed(market, 0.25)
    assert len(outcomes) <= 4
    assert ladder.depth_cap == 2000
    assert report.profit == max(lv.profit for lv in outcomes)


def test_windowed_and_ranked_levels_match_every_level(monkeypatch):
    # each level slices its own prefix of one corner grid; with a tiny
    # pair budget expansions split by key range, and a zero cell
    # threshold ranks the row keys, as the largest grids do
    splits = []
    split = simplices._GridSlicer._split

    def counted(self, k, sim, part, start, end):
        # more pairs than the budget over more than one key: a split
        pairs = (end - start).sum()
        if pairs > simplices._PAIR_BUDGET and end.max() - start.min() > 1:
            splits.append(1)
        return split(self, k, sim, part, start, end)

    monkeypatch.setattr(simplices._GridSlicer, "_split", counted)
    rng = np.random.default_rng(67)
    markets = [
        float_market(rng, int(rng.integers(2, 30)), 2 + i % 2, ties=i % 4 >= 2)
        for i in range(16)
    ]
    for cells, budget in itertools.product((1 << 61, 0), (1, 3, 40)):
        monkeypatch.setattr(simplices, "_DIRECT_KEY_CELLS", cells)
        monkeypatch.setattr(simplices, "_PAIR_BUDGET", budget)
        for market in markets:
            report, outcomes, _ = pd.solve_approx_detailed(market, 0.25)
            ref_report, ref_outcomes = search_every_level(market, 0.25)
            assert repr(report) == repr(ref_report)
            by_index = {lv.index: lv for lv in ref_outcomes}
            assert outcomes
            for lv in outcomes:
                assert lv == by_index[lv.index]
    assert splits
