"""Near-optimal product design for any number of qualities.

Products with a fixed margin ``c`` live on the hyperplane
``price - sum(qualities) = c``.  In the natural quality coordinates, the
customers who could consider such a product trace out corner-form simplex
homothets on that plane: customer ``j`` with margin ``ppu_j >= c``
contributes the homothet with corner at their requirements and size
``ppu_j - c``, and a point lies in that homothet exactly when the lifted
product is considered by the customer.  The best product with margin
``c`` therefore earns ``c`` times the deepest point of those homothets.

Restricting the search to a geometric ladder of margins — the best
customer margin ``r`` scaled by powers of ``1 - eps`` down to roughly
``r / n`` — costs at most a ``1 - eps`` factor: an optimal product can be
slid down to the nearest ladder margin without losing any buyer, and a
product below the ladder floor earns at most what the best single
customer already pays.  Each level's deepest point is found exactly, so
the guarantee is deterministic.

The ladder is built with the tolerance ``1 - sqrt(1 - eps)``, half of the
budget in the multiplicative sense, and exact depth spends none of the
other half, so the guarantee holds with room to spare.  Giving the ladder
all of ``eps`` would search fewer levels, but it would change every
reported product, profit and level list, so the split is kept until a
change that measures its effect on profit makes that switch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .market import (
    NO_PROFITABLE_PRODUCT,
    Market,
    Product,
    ProfitReport,
    evaluate,
)
from .simplices import SimplexArray, SimplexHomothet, deepest_point_exact


@dataclass(frozen=True)
class LevelSchedule:
    """Geometric ladder of margins searched by the approximation."""

    r: float
    epsilon: float
    levels: tuple[float, ...]


@dataclass(frozen=True)
class LevelOutcome:
    """Diagnostics for one searched margin level."""

    index: int
    constant: float
    simplex_count: int
    depth: int
    product: Product
    profit: float


def max_ppu(market: Market) -> float:
    """Largest profit per unit any single customer allows."""
    return float(np.max(market.prices - market.qualities.sum(axis=1)))


def level_schedule(r: float, epsilon: float, n: int) -> LevelSchedule:
    """Margins ``r * (1 - eps)**i`` for ``i = 0..l`` with ``(1-eps)**l <= 1/n``.

    ``l`` is the rounded-up base-``1/(1-eps)`` logarithm of ``n``; the
    closing loop absorbs floating-point drift at exact integer powers and
    enforces the floor inequality the guarantee rests on.
    """
    if r <= 0:
        raise ValueError(f"level schedule needs a positive top margin, got {r}")
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    shrink = 1.0 - epsilon
    if n == 1:
        count = 0
    else:
        count = max(0, math.ceil(math.log(n) / math.log(1.0 / shrink) - 1e-12))
    while shrink**count > 1.0 / n:
        count += 1
    return LevelSchedule(r, epsilon, tuple(r * shrink**i for i in range(count + 1)))


def _projection(market: Market, c: float) -> tuple[SimplexArray, np.ndarray]:
    """Homothets of the customers with margin at least ``c``, and their indices."""
    if c <= 0:
        raise ValueError(f"level constant must be positive, got {c}")
    margins = market.prices - market.qualities.sum(axis=1)
    idx = np.flatnonzero(margins >= c)
    return SimplexArray(market.qualities[idx], margins[idx] - c), idx


def project_customers(market: Market, c: float) -> list[tuple[SimplexHomothet, int]]:
    """Customers' reach on the margin-``c`` plane, as (homothet, index) pairs.

    Customer ``j`` appears iff ``ppu_j >= c``, with corner at their
    requirements and size ``ppu_j - c``; customers with smaller margins
    cannot consider any product that profitable and are omitted.
    """
    sims, idx = _projection(market, c)
    return list(zip(sims, map(int, idx)))


def lift_point(x: Iterable[float], c: float) -> Product:
    """Product on the margin-``c`` plane located at quality point ``x``."""
    qs = tuple(float(v) for v in x)
    return Product(c + sum(qs), qs)


def solve_approx(market: Market, epsilon: float) -> ProfitReport:
    """Product whose true profit is at least ``(1 - epsilon)`` of optimal.

    The bound holds deterministically.  The chosen product is
    re-evaluated against the market, so the reported profit is always the
    returned product's true profit.  Markets whose best customer margin is
    nonpositive yield the no-profit report.
    """
    report, _ = solve_approx_detailed(market, epsilon)
    return report


def solve_approx_detailed(
    market: Market, epsilon: float
) -> tuple[ProfitReport, list[LevelOutcome]]:
    """As :func:`solve_approx`, also returning per-level diagnostics."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    r = max_ppu(market)
    if r <= 0:
        return NO_PROFITABLE_PRODUCT, []

    # The ladder takes half of the tolerance, multiplicatively (see the
    # module notes): (1 - part)**2 == 1 - epsilon.
    part = 1.0 - math.sqrt(1.0 - epsilon)
    schedule = level_schedule(r, part, len(market))

    # Seed the running best with the top customer's own product, which the
    # ladder floor argument needs; later winners must strictly beat it, so
    # ties resolve toward the lowest level.
    margins = market.prices - market.qualities.sum(axis=1)
    top = int(np.argmax(margins))
    best = evaluate(market, lift_point(market.qualities[top], r))
    outcomes: list[LevelOutcome] = []

    for i, c in enumerate(schedule.levels):
        sims, _ = _projection(market, c)
        if not sims:
            continue
        found = deepest_point_exact(sims)
        product = lift_point(found.point, c)
        report = evaluate(market, product)
        outcomes.append(
            LevelOutcome(i, c, len(sims), found.depth, product, report.profit)
        )
        if report.profit > best.profit:
            best = report

    if best.profit <= 0:
        return NO_PROFITABLE_PRODUCT, outcomes
    return best, outcomes
