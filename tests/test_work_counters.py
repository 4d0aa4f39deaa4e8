"""Deterministic work counters of the gated workloads, against committed values.

Time cannot gate a change on a shared host, but these counts can: work
done may not exceed its committed value, work avoided may not fall below
it, and results must equal it.  A change that moves a counter on purpose
updates ``COMMITTED`` and says why in CHANGES.md.
"""

import numpy as np
import pytest

import productdesign as pd
from productdesign import market as market_mod
from productdesign import simplices
from productdesign.sweep import solve_exact_1d_with_stats

COMMITTED = {
    # criterion 8's markets by n: (entries, rows_pruned, profit)
    "sweep": {
        250_000: (152_085, 249_973, 2842304596.0),
        1_000_000: (622_373, 999_964, 45349820544.0),
    },
    # `bench approx` float markets at epsilon 0.25 by (d, n): pruned n,
    # {searched level: its slicer work}, levels skipped, depth cap, profit
    "approx": {
        (2, 2_500): (
            2_154,
            {0: 3, 1: 6_126, 2: 33_558, 3: 84_417, 27: 386_607},
            23, 7, 11.249252599928354,
        ),
        (2, 10_000): (
            6_443,
            {0: 3, 1: 9_558, 2: 110_535, 3: 414_519, 4: 889_815, 5: 1_447_653,
             31: 2_999_916},
            25, 11, 11.242431697583697,
        ),
        (3, 1_000): (
            1_000,
            {0: 4, 1: 6_855, 2: 57_017, 25: 1_710_028},
            22, 2, 5.623046629224206,
        ),
    },
    # depth-controlled families by (n, k): pairwise intersections
    "arrangement": {
        (100, 2): 50, (100, 4): 150, (100, 8): 342,
        (400, 2): 200, (400, 4): 600, (400, 8): 1_400,
        (1_600, 2): 800, (1_600, 4): 2_400, (1_600, 8): 5_600,
    },
}


@pytest.mark.parametrize("n", sorted(COMMITTED["sweep"]))
def test_sweep_counts(n):
    entries, rows_pruned, profit = COMMITTED["sweep"][n]
    market = pd.random_pareto_market(n, 1, seed=8, value_range=(0, 20 * n))
    report, stats = solve_exact_1d_with_stats(market)
    assert stats.entries <= entries
    assert stats.rows_pruned >= rows_pruned
    assert report.profit == profit


@pytest.mark.parametrize(("d", "n"), sorted(COMMITTED["approx"]))
def test_approx_counts(monkeypatch, d, n):
    pruned_n, work, skipped, cap, profit = COMMITTED["approx"][(d, n)]
    done = []
    solve = simplices._GridSlicer.solve

    def spy(self):
        found = solve(self)
        done.append(self.work)
        return found

    monkeypatch.setattr(simplices._GridSlicer, "solve", spy)
    # the market of `productdesign bench approx --sizes n --d d`
    rng = np.random.default_rng(0)
    q = rng.uniform(0, 100, size=(n, d))
    market = market_mod._prune_arrays(q.sum(axis=1) + rng.uniform(1, 5, size=n), q)
    report, levels, ladder = pd.solve_approx_detailed(market, 0.25)
    assert len(market) == pruned_n
    # the lowest level is searched first, the others in ladder order
    searched = [lv.index for lv in levels[-1:] + levels[:-1]]
    assert set(searched) <= set(work)
    for i, w in zip(searched, done, strict=True):
        assert w <= work[i], f"level {i}"
    assert ladder.levels_skipped >= skipped
    assert ladder.depth_cap == cap
    assert report.profit == profit


@pytest.mark.parametrize(("n", "k"), sorted(COMMITTED["arrangement"]))
def test_arrangement_counts(n, k):
    stats = pd.arrangement_stats(pd.depth_controlled_family(n, k, seed=0))
    pairs = COMMITTED["arrangement"][(n, k)]
    assert stats.pairwise_intersections == pairs
    # every meeting pair of these families crosses at three points
    assert stats.vertex_count == 3 * pairs
    assert stats.max_depth == k
