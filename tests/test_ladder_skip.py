"""The approximation's level skip against a search of every level.

``search_every_level`` is the approximation with no level skipped: it
projects and searches each ladder level in order.  The skip must leave
the report and every searched level's outcome unchanged.
"""

import itertools
import math

import numpy as np

import productdesign as pd
from conftest import float_market
from productdesign import simplices


def search_every_level(market, epsilon):
    """Report and per-level outcomes with no level skipped."""
    r = pd.max_ppu(market)
    if r <= 0:
        return pd.NO_PROFITABLE_PRODUCT, []
    part = 1.0 - math.sqrt(1.0 - epsilon)
    levels = pd.level_schedule(r, part, len(market)).levels
    top = int(np.argmax(market.prices - market.qualities.sum(axis=1)))
    best = pd.evaluate(market, pd.lift_point(market.qualities[top], r))
    outcomes = []
    for i, c in enumerate(levels):
        projected = pd.project_customers(market, c)
        if not projected:
            continue
        found = pd.deepest_point_exact([s for s, _ in projected])
        product = pd.lift_point(found.point, c)
        report = pd.evaluate(market, product)
        outcomes.append(
            pd.LevelOutcome(
                i, c, len(projected), found.depth, product, report.profit
            )
        )
        if report.profit > best.profit:
            best = report
    if best.profit <= 0:
        return pd.NO_PROFITABLE_PRODUCT, outcomes
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


def test_skip_keeps_report_and_searched_outcomes():
    pairs = searched = skipped = uncapped = 0
    for market in fuzz_markets():
        for eps in (0.1, 0.25, 0.5):
            report, outcomes, ladder = pd.solve_approx_detailed(market, eps)
            ref_report, ref_outcomes = search_every_level(market, eps)
            assert repr(report) == repr(ref_report)
            by_index = {lv.index: lv for lv in ref_outcomes}
            for lv in outcomes:
                assert lv == by_index[lv.index]
            assert [lv.index for lv in outcomes] == sorted(
                lv.index for lv in outcomes
            )
            if pd.max_ppu(market) > 0:
                part = 1.0 - math.sqrt(1.0 - eps)
                ladder_length = len(
                    pd.level_schedule(pd.max_ppu(market), part, len(market)).levels
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
    # pair budget every expansion runs in key windows, and a zero cell
    # threshold ranks the row keys, as the largest grids do
    windows = []
    key_windows = simplices._key_windows

    def counted(*args):
        windows.append(1)
        return key_windows(*args)

    monkeypatch.setattr(simplices, "_key_windows", counted)
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
    assert windows
