"""Invariances every solver keeps, checked at sizes where no oracle runs.

A report may not depend on the order of the market's rows; scaling every
price and quality by 4 (exact in floating point) scales the answer and
keeps its buyers; and an exact optimum stays optimal, at twice the
profit, when every customer is listed twice.
"""

import numpy as np
import pytest

import productdesign as pd
from productdesign import cli
from productdesign import market as market_mod


def small_market(seed: int) -> pd.Market:
    """A pruned integer market: qualities in 0..5, margins in -2..4."""
    rng = np.random.default_rng(seed)
    d = 1 + seed % 3
    n = 14 if d == 3 else 30
    q = rng.integers(0, 6, size=(n, d))
    prices = q.sum(axis=1) + rng.integers(-2, 5, size=n)
    return market_mod._prune_arrays(prices.astype(float), q.astype(float))


SMALL = [small_market(seed) for seed in range(400)]


def solvers(market: pd.Market):
    """(name, solver) for every solver that answers ``market``."""
    yield "approx", lambda m: pd.solve_approx(m, 0.25)
    yield "bruteforce", pd.brute_force_optimum
    if market.dim == 1:
        yield "exact1d", pd.solve_exact_1d


def permuted(market: pd.Market, seed: int) -> pd.Market:
    order = np.random.default_rng(seed).permutation(len(market))
    return pd.Market.from_arrays(market.prices[order], market.qualities[order])


def test_row_order_does_not_change_a_report():
    for seed, m in enumerate(SMALL):
        shuffled = permuted(m, seed)
        for name, solve in solvers(m):
            assert repr(solve(shuffled)) == repr(solve(m)), (seed, name)


def test_row_order_does_not_change_a_float_market_approx():
    m = cli._approx_market(10_000, 2)
    assert repr(pd.solve_approx(permuted(m, 0), 0.25)) == repr(pd.solve_approx(m, 0.25))


def test_row_order_and_duplicates_on_criterion_8s_largest_market():
    m = cli._sweep_market(1_000_000)
    report = pd.solve_exact_1d(m)
    # the permuted copy's columns are not stored ascending: the sort path
    assert repr(pd.solve_exact_1d(permuted(m, 0))) == repr(report)
    twice = pd.Market.from_arrays(
        np.concatenate((m.prices, m.prices)),
        np.concatenate((m.qualities, m.qualities)),
    )
    doubled = pd.solve_exact_1d(twice)
    assert doubled.product == report.product
    assert (doubled.profit, doubled.buyers) == (2 * report.profit, 2 * report.buyers)


def test_scaling_by_four_scales_the_answer():
    profitable = 0
    for seed, m in enumerate(SMALL):
        scaled = pd.Market.from_arrays(4 * m.prices, 4 * m.qualities)
        for name, solve in solvers(m):
            a, b = solve(m), solve(scaled)
            if a.product is None:
                assert b == a, (seed, name)
                continue
            profitable += 1
            assert b.buyers == a.buyers, (seed, name)
            assert b.profit == 4 * a.profit, (seed, name)
            assert b.product.price == 4 * a.product.price, (seed, name)
            assert b.product.qualities == tuple(
                4 * v for v in a.product.qualities
            ), (seed, name)
    assert profitable >= 800


@pytest.mark.parametrize("solver", ["bruteforce", "exact1d"])
def test_listing_every_customer_twice_doubles_the_profit(solver):
    checked = 0
    for seed, m in enumerate(SMALL):
        solve = dict(solvers(m)).get(solver)
        if solve is None:
            continue
        twice = pd.Market.from_arrays(
            np.concatenate((m.prices, m.prices)),
            np.concatenate((m.qualities, m.qualities)),
        )
        a, b = solve(m), solve(twice)
        assert b.product == a.product, seed
        assert (b.profit, b.buyers) == (2 * a.profit, 2 * a.buyers), seed
        checked += 1
    assert checked >= 130
