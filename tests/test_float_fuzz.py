"""Differential fuzz of every solver against the exhaustive oracle on
pruned float markets, some customers with negative margins."""

import builtins
import math

import numpy as np

import productdesign as pd
from conftest import float_market
from productdesign.cli import run


def test_exact_1d_equals_oracle():
    rng = np.random.default_rng(81)
    for case in range(200):
        market = float_market(rng, int(rng.integers(1, 60)), 1, ties=case % 4 == 0)
        swept = pd.solve_exact_1d(market)
        assert swept.profit == pd.brute_force_optimum(market).profit, case
        if swept.product is not None:
            assert pd.evaluate(market, swept.product) == swept, case


def signed_zero_market(rng, n: int, d: int) -> pd.Market:
    """Pruned market of prices and qualities drawn from a few values,
    zeros of both signs among them; many margins are 0 or negative."""
    q = rng.choice([-0.0, 0.0, 0.5, 1.0, 2.0], size=(n, d))
    p = rng.choice([-0.0, 0.0, 1.0, 1.5, 2.5, 4.0], size=n)
    return pd.prune_dominated(
        pd.Customer(float(x), tuple(map(float, row))) for x, row in zip(p, q)
    )


def uniform_market(rng, n: int, d: int) -> pd.Market:
    """Pruned market of unrounded uniform floats, some margins negative."""
    q = rng.uniform(0, 10, size=(n, d))
    p = q.sum(axis=1) + rng.uniform(-2, 5, size=n)
    return pd.prune_dominated(
        pd.Customer(float(x), tuple(map(float, row))) for x, row in zip(p, q)
    )


def test_exact_1d_names_the_oracle_product():
    """Both exact solvers break ties alike (the highest price, then the
    lowest quality) and report zeros as 0.0, so their whole reports agree
    on two-decimal, tie-heavy, signed-zero and uniform float markets."""
    rng = np.random.default_rng(85)
    for case in range(3000):
        n = int(rng.integers(1, 60))
        kind = case % 4
        if kind == 2:
            market = signed_zero_market(rng, n, 1)
        elif kind == 3:
            market = uniform_market(rng, n, 1)
        else:
            market = float_market(rng, n, 1, ties=kind == 1)
        swept = repr(pd.solve_exact_1d(market))
        assert swept == repr(pd.brute_force_optimum(market)), case
        assert "-0.0" not in swept, case
        if kind == 2:
            assert "-0.0" not in repr(pd.solve_approx(market, 0.25)), case


def test_approx_keeps_its_ratio():
    rng = np.random.default_rng(82)
    for case in range(120):
        d = 2 + case % 2
        market = float_market(rng, int(rng.integers(1, 30)), d, ties=case % 4 == 0)
        opt = pd.brute_force_optimum(market).profit
        for eps in (0.1, 0.5):
            assert pd.solve_approx(market, eps).profit >= (1 - eps) * opt, case


def test_cli_reverifies_every_bruteforce_result(tmp_path):
    rng = np.random.default_rng(83)
    path = tmp_path / "m.csv"
    for case in range(120):
        d = 1 + case % 3
        market = float_market(rng, int(rng.integers(1, 30)), d, ties=case % 4 == 0)
        path.write_text(pd.market_to_csv(market))
        report = run(str(path), "bruteforce")
        assert report["result"]["profit"] == pd.brute_force_optimum(market).profit


_builtin_sum = builtins.sum


def _neumaier_sum(iterable, /, start=0):
    """CPython 3.12's ``sum`` of Python floats, Neumaier-compensated;
    any other items are added as before."""
    items = list(iterable)
    if type(start) not in (int, float) or set(map(type, items)) != {float}:
        return _builtin_sum(items, start)
    total, comp = float(start), 0.0
    for x in items:
        t = total + x
        comp += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + comp if comp and math.isfinite(comp) else total


def test_cost_rule_ignores_the_builtin_sum(tmp_path, monkeypatch):
    """Costs keep their axis-order bits when ``sum`` compensates floats,
    as it does from Python 3.12, so every Python gets the same reports."""
    rng = np.random.default_rng(84)
    markets = [float_market(rng, 12, 1 + case % 3) for case in range(30)]
    items = [c for m in markets for c in m]

    def costs():
        return [
            (pd.ppu(c).hex(), pd.lift_point(c.qualities, 0.5).price.hex())
            for c in items
        ]

    before = costs()
    monkeypatch.setattr(builtins, "sum", _neumaier_sum)
    assert sum([0.1, 0.2, 0.3]) == 0.6 != (0.1 + 0.2) + 0.3
    assert costs() == before
    path = tmp_path / "m.csv"
    path.write_text("price,q1,q2,q3\n1.0,0.1,0.2,0.3\n")
    assert run(str(path), "bruteforce")["result"]["profit"] == 1.0 - ((0.1 + 0.2) + 0.3)
    test_cli_reverifies_every_bruteforce_result(tmp_path)
