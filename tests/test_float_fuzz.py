"""Differential fuzz of every solver against the exhaustive oracle on
pruned two-decimal float markets, some customers with negative margins."""

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
