"""Differential fuzz of every solver against the exhaustive oracle on
pruned two-decimal float markets, some customers with negative margins."""

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
