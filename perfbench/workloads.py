"""The benchmark's workloads: input generation, one timed op, result checks.

Every input is generated here with numpy from the seed; the package's own
``random_pareto_market`` is deliberately not used, so a change to that
generator cannot change a workload.  Each workload keeps its inputs as
plain arrays too, and re-evaluates every reported product against them
without calling the package.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import productdesign
from productdesign import cli, market as pd_market, sweep


@dataclass(frozen=True)
class Spec:
    """A workload's fixed shape (why each exists: ``README.md``)."""

    name: str
    n: int
    smoke_n: int
    min_ratio: float  # lowest accepted reported/reference profit


SPECS = {
    s.name: s
    for s in (
        Spec("exact1d-sweep", 250_000, 2_000, 1.0),
        Spec("approx-d2", 1_000, 60, 0.75),
    )
}

EPSILON = 0.25


def generate(name: str, seed: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Prices (n,) and qualities (n, d) of a Pareto-consistent market."""
    rng = np.random.default_rng(seed)
    if name == "exact1d-sweep":
        q = np.sort(rng.integers(0, 20 * n + 1, size=n))
        p = q + np.cumsum(rng.integers(1, 4, size=n))
        return p.astype(float), q.astype(float).reshape(-1, 1)
    # approx-d2: integer qualities 0..100, margins 1..5, dominated draws dropped.
    prices = np.empty(0)
    quals = np.empty((0, 2))
    while True:
        q = rng.integers(0, 101, size=(2 * n, 2)).astype(float)
        p = q.sum(axis=1) + rng.integers(1, 6, size=2 * n)
        prices = np.concatenate([prices, p])
        quals = np.concatenate([quals, q])
        keep = np.flatnonzero(~_dominated(prices, quals))
        if keep.size >= n:
            idx = keep[:n]
            return prices[idx], quals[idx]


def _dominated(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Customers some other customer undercuts in price while demanding
    strictly more in every quality (the package's Pareto rule).

    Compared a block of customers at a time, about 5e5 comparisons per
    block, so the generator's memory stays below the program's and does
    not set ``peak_rss_mb``.
    """
    out = np.empty(p.size, dtype=bool)
    step = max(1, 500_000 // (p.size * q.shape[1]))
    for j in range(0, p.size, step):
        block = slice(j, j + step)
        cheaper = p[:, None] < p[None, block]
        stricter = (q[:, None, :] > q[None, block, :]).all(axis=2)
        out[block] = (cheaper & stricter).any(axis=0)
    return out


def reevaluate(prices, qualities, price: float, product_q) -> tuple[float, int]:
    """Profit and buyers of a product, computed without the package."""
    x = np.asarray(product_q, dtype=float)
    buyers = int(np.count_nonzero((prices >= price) & (qualities <= x).all(axis=1)))
    return (price - sum(float(v) for v in product_q)) * buyers, buyers


class WrongResult(Exception):
    """An op returned a result that does not re-evaluate as reported."""


class Workload:
    """Inputs for one seed, the timed op, and the check of its result."""

    def __init__(self, spec: Spec, seed: int, n: int, workdir: Path):
        self.spec = spec
        self.prices, self.qualities = generate(spec.name, seed, n)
        self.market = productdesign.Market.from_arrays(self.prices, self.qualities)
        self.input = workdir / "market.json"
        self.output = workdir / "report.json"
        if spec.name == "approx-d2":
            self.input.write_text(pd_market.market_to_json(self.market))

    def describe(self) -> dict:
        return {
            "n": int(self.prices.size),
            "d": int(self.qualities.shape[1]),
            "distinct_qualities": [
                int(np.unique(self.qualities[:, k]).size)
                for k in range(self.qualities.shape[1])
            ],
            "distinct_prices": int(np.unique(self.prices).size),
        }

    def op(self):
        """One timed operation; returns what :meth:`check` needs."""
        if self.spec.name == "exact1d-sweep":
            return sweep.solve_exact_1d(self.market)
        self.output.unlink(missing_ok=True)
        return cli.main(
            ["solve", "--input", str(self.input), "--algorithm", "approx",
             "--epsilon", str(EPSILON), "--output", str(self.output)]
        )

    def check(self, result) -> float:
        """Reported profit, after checking the product re-evaluates to it.

        Raises :class:`WrongResult` on a mismatch or a nonzero exit code.
        """
        if self.spec.name == "exact1d-sweep":
            if result.product is None:
                raise WrongResult("no product reported")
            price, qs = result.product.price, result.product.qualities
            profit, buyers = result.profit, result.buyers
        else:
            if result != 0:
                raise WrongResult(f"cli exit code {result}")
            report = json.loads(self.output.read_text())["result"]
            if report.get("status") != "ok":
                raise WrongResult(f"cli status {report.get('status')!r}")
            price = report["product"]["price"]
            qs = report["product"]["qualities"]
            profit, buyers = report["profit"], report["buyers"]
        got, got_buyers = reevaluate(self.prices, self.qualities, price, qs)
        if got_buyers != buyers or not math.isclose(got, profit, rel_tol=1e-9):
            raise WrongResult(
                f"reported profit {profit} / buyers {buyers}, "
                f"re-evaluated {got} / {got_buyers}"
            )
        return float(profit)
