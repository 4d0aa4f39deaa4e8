"""Deterministic work counters of the gated workloads, against committed values.

Time cannot gate a change on a shared host, but these counts can: work
done may not exceed its committed value, work avoided may not fall below
it, and results must equal it.  A change that moves a counter on purpose
updates ``COMMITTED`` and says why in CHANGES.md.  Criterion 8's sweep
markets and the float markets are the ones ``productdesign bench``
builds, and every count is read from the ``diagnostics`` of the solve
``productdesign solve`` runs.
"""

import pytest

import productdesign as pd
from conftest import deep_chain_solve
from productdesign import cli

COMMITTED = {
    # criterion 8's markets by n: (entries, rows_pruned, profit)
    "sweep": {
        250_000: (72_123, 249_976, 2842304596.0),
        1_000_000: (289_782, 999_972, 45349820544.0),
    },
    # the tie-heavy 1-D market, qualities 0..100 (101 distinct), by n:
    # (entries, rows_pruned, profit)
    "sweep_ties": {
        250_000: (254_283, 249_968, 31303340838.0),
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
    # deep chains (conftest.deep_chain) at epsilon 0.25 by (d, n):
    # {searched level: its slicer work}, levels skipped, depth cap, profit
    "deep_chain": {
        (2, 4_000): (
            {0: 3, 1: 267_156, 2: 786_468, 3: 1_358_319, 4: 1_891_572,
             29: 4_027_935},
            24, 391, 1590159.375,
        ),
        (3, 1_000): (
            {0: 4, 1: 632_689, 2: 3_186_527, 3: 6_845_013, 4: 10_869_453,
             25: 31_734_682},
            20, 98, 145632.9375,
        ),
    },
    # depth-controlled families by (n, k): pairwise intersections
    "arrangement": {
        (100, 2): 50, (100, 4): 150, (100, 8): 342,
        (400, 2): 200, (400, 4): 600, (400, 8): 1_400,
        (1_600, 2): 800, (1_600, 4): 2_400, (1_600, 8): 5_600,
    },
}


def check_sweep(market, entries, rows_pruned, profit):
    """The 1-D search's work and answer against their committed values."""
    report, diagnostics = cli._solve(market, "exact1d", None)
    assert diagnostics["entries"] <= entries
    assert diagnostics["rows_pruned"] >= rows_pruned
    assert report.profit == profit


@pytest.mark.parametrize("n", sorted(COMMITTED["sweep"]))
def test_sweep_counts(n):
    check_sweep(cli._sweep_market(n), *COMMITTED["sweep"][n])


@pytest.mark.parametrize("n", sorted(COMMITTED["sweep_ties"]))
def test_tie_heavy_sweep_counts(n):
    market = pd.random_pareto_market(n, 1, seed=8, value_range=(0, 100))
    check_sweep(market, *COMMITTED["sweep_ties"][n])


def check_ladder(report, diagnostics, work, skipped, cap, profit):
    """The searched levels' work, the skip and the answer of an approx
    solve against their committed values."""
    levels = diagnostics["levels"]
    assert {lv["index"] for lv in levels} <= set(work)
    for lv in levels:
        assert lv["work"] <= work[lv["index"]], f"level {lv['index']}"
    assert diagnostics["levels_skipped"] >= skipped
    assert diagnostics["depth_cap"] == cap
    assert report.profit == profit


@pytest.mark.parametrize(("d", "n"), sorted(COMMITTED["approx"]))
def test_approx_counts(d, n):
    pruned_n, *committed = COMMITTED["approx"][(d, n)]
    market = cli._approx_market(n, d)
    assert len(market) == pruned_n
    check_ladder(*cli._solve(market, "approx", cli.BENCH_EPSILON), *committed)


@pytest.mark.parametrize(("d", "n"), sorted(COMMITTED["deep_chain"]))
def test_deep_chain_counts(d, n):
    check_ladder(*deep_chain_solve(n, d), *COMMITTED["deep_chain"][(d, n)])


@pytest.mark.parametrize(("n", "k"), sorted(COMMITTED["arrangement"]))
def test_arrangement_counts(n, k):
    stats = pd.arrangement_stats(pd.depth_controlled_family(n, k, seed=0))
    pairs = COMMITTED["arrangement"][(n, k)]
    assert stats.pairwise_intersections == pairs
    # every meeting pair of these families crosses at three points
    assert stats.vertex_count == 3 * pairs
    assert stats.max_depth == k
