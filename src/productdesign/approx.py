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
customer already pays, so the search starts from that customer's own
offer.  Under the one cost rule its margin is exactly ``r`` and that
customer buys it, so a market with a positive margin always gets a
product.  Each level's deepest point is found exactly, so the guarantee
is deterministic.

The ladder takes all of ``eps``: adjacent levels are a factor ``1 - eps``
apart, and exact depth loses nothing at a level, so the ladder's slide is
the only loss and the guarantee is ``1 - eps`` itself.  Splitting ``eps``
between the ladder and the depth query would only buy slack for an
approximate depth; here it would about double the ladder's length.

Most levels cannot change the answer, and they are skipped before they
are projected or searched.  A level replaces the running best only if it
beats it strictly, and level ``c`` earns at most ``c`` times its buyers.
Its buyers number at most ``reach(c) = #{j : ppu_j >= c}``, and at most
the depth of the lowest level, which is searched first: a customer's
homothet at a higher margin lies inside their homothet at a lower one,
on a grid that only gains lines, so no point of a higher level is deeper
than the lowest level's deepest point (``cap``).  A level is skipped when
``c * min(reach(c), cap)`` cannot exceed the running best; walking the
ladder in its usual order, with the lowest level's outcome reused when
the walk reaches it, every searched level and the winner, ties included,
are the ones a search of every level gives.

The searched levels share one setup.  The customers are sorted once by
descending margin; the first is the top customer, every ``reach(c)`` is
a binary search, and level ``c`` is the prefix of those with margin at
least ``c``, with sizes ``margin - c``.  The lowest level's corners are
sorted once per axis into one grid, and each level slices only its own
prefix's grid lines, picked out of that grid without another sort.  The
float operations are the ones a level projected on its own would do, so
every level's depth and point are unchanged.

In floating point the product lifted from level ``c`` has a margin and a
buyer set that differ from the real-number ones by rounding: its margin
may exceed ``c`` by an ulp, and a customer whose rounded margin is a few
ulps below ``c`` may buy it.  So the bound pads ``c`` up and the reach
threshold down by a few spacings of the market's largest magnitude per
coordinate.  The cap needs more: the lowest level's grid predicate counts
a buyer of a higher level's product only when the two margins are apart
by more than those rounding errors.  Every comparison involved is a
monotone float operation, so that holds once adjacent levels (a factor
``1 / (1 - eps)`` apart) differ by far more than the padding; on ladders
too fine for that, the cap is dropped and the reach alone bounds a level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import simplices
from .errors import GuardExceededError
from .market import (
    NO_PROFITABLE_PRODUCT,
    Market,
    Product,
    ProfitReport,
    _axis_sum,
    evaluate,
)
from .simplices import (
    SimplexArray,
    SimplexHomothet,
    _CornerGrid,
    _GridSlicer,
    _rounding_pad,
    deepest_point_exact,  # noqa: F401  (perfbench/spans.py wraps this name)
)


@dataclass(frozen=True)
class LevelOutcome:
    """Diagnostics for one searched margin level."""

    index: int
    constant: float
    simplex_count: int
    depth: int
    product: Product
    profit: float


@dataclass(frozen=True)
class LadderStats:
    """How much of the ladder a solve skipped.

    ``levels_skipped`` counts the levels that were not searched because
    they could not beat the running best; ``depth_cap`` is the lowest
    level's depth when it bounded the other levels, and ``None`` when the
    ladder is too fine for the cap to be sound in floating point (see the
    module notes) or has one level.
    """

    levels_skipped: int
    depth_cap: int | None


def _margins(market: Market) -> np.ndarray:
    return market.prices - _axis_sum(market.qualities.T)


def max_ppu(market: Market) -> float:
    """Largest profit per unit any single customer allows."""
    return float(np.max(_margins(market)))


def level_schedule(r: float, epsilon: float, n: int) -> tuple[float, ...]:
    """Margins ``r * (1 - eps)**i`` for ``i = 0..l`` with ``(1-eps)**l <= 1/n``.

    ``l`` is the rounded-up base-``1/(1-eps)`` logarithm of ``n``; the
    closing loop absorbs floating-point drift at exact integer powers and
    enforces the floor inequality the guarantee rests on.  A searched
    level evaluates its product against all ``n`` customers, so a ladder
    whose ``l + 1`` levels times ``n`` passes the module constant
    ``simplices.EXACT_DEPTH_GUARD`` (read at each call) raises
    :class:`GuardExceededError` before any margin is made.
    """
    if r <= 0:
        raise ValueError(f"level schedule needs a positive top margin, got {r}")
    shrink = 1.0 - epsilon
    if not 0.0 < epsilon < 1.0 or shrink == 1.0:
        raise ValueError(f"epsilon must be in (0, 1) and 1 - eps < 1, got {epsilon}")
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    # not log(1 / shrink), which rounds enough for epsilon below ~1e-11 to
    # leave the closing loop up to ~1e15 single steps before the guard
    count = max(0, math.ceil(math.log(n) / -math.log(shrink) - 1e-12))
    while shrink**count > 1.0 / n:
        count += 1
    if (count + 1) * n > simplices.EXACT_DEPTH_GUARD:
        raise GuardExceededError(
            f"margin ladder of {count + 1} levels over {n} customers exceeds "
            f"the {simplices.EXACT_DEPTH_GUARD} guard in levels times customers"
        )
    return tuple(r * shrink**i for i in range(count + 1))


def project_customers(market: Market, c: float) -> list[tuple[SimplexHomothet, int]]:
    """Customers' reach on the margin-``c`` plane, as (homothet, index) pairs.

    Customer ``j`` appears iff ``ppu_j >= c``, with corner at their
    requirements and size ``ppu_j - c``; customers with smaller margins
    cannot consider any product that profitable and are omitted.
    """
    if c <= 0:
        raise ValueError(f"level constant must be positive, got {c}")
    margins = _margins(market)
    idx = np.flatnonzero(margins >= c)
    sims = SimplexArray(market.qualities[idx], margins[idx] - c)
    return list(zip(sims, map(int, idx)))


def lift_point(x: Iterable[float], c: float) -> Product:
    """Product on the margin-``c`` plane located at quality point ``x``."""
    qs = tuple(float(v) for v in x)
    return Product(c + _axis_sum(qs), qs)


def solve_approx(market: Market, epsilon: float) -> ProfitReport:
    """Product whose true profit is at least ``(1 - epsilon)`` of optimal.

    The bound holds deterministically.  The chosen product is
    re-evaluated against the market, so the reported profit is always the
    returned product's true profit.  Markets whose best customer margin is
    nonpositive yield the no-profit report.
    """
    report, _, _ = solve_approx_detailed(market, epsilon)
    return report


def _search_level(
    market: Market, grid: _CornerGrid, ms: np.ndarray, i: int, c: float
) -> tuple[LevelOutcome, ProfitReport]:
    """Deepest product of level ``i`` and its report.  ``ms`` holds the
    margins of the grid's customers, in descending order; the top
    customer's margin is ``r``, at least every level's ``c``, so the
    level is never empty."""
    m = ms.size - int(np.searchsorted(ms[::-1], c))  # customers with margin >= c
    found = _GridSlicer(grid, ms[:m] - c).solve()
    product = lift_point(found.point, c)
    report = evaluate(market, product)
    return LevelOutcome(i, c, m, found.depth, product, report.profit), report


def solve_approx_detailed(
    market: Market, epsilon: float
) -> tuple[ProfitReport, list[LevelOutcome], LadderStats]:
    """As :func:`solve_approx`, also returning the searched levels'
    outcomes in ladder order and what the solve skipped."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    if 1.0 - epsilon == 1.0:
        raise ValueError(f"epsilon {epsilon} is too small: 1 - epsilon rounds to 1")
    margins = _margins(market)
    r = float(np.max(margins))
    if r <= 0:
        return NO_PROFITABLE_PRODUCT, [], LadderStats(0, None)
    levels = level_schedule(r, epsilon, len(market))

    # The customers by descending margin, ties in index order: the first
    # is the top customer, and every level is a prefix of them, on the
    # lowest level's corner grid.  ``neg`` is their negated margins,
    # ascending, in which searchsorted counts a level's customers.
    order = np.argsort(-margins, kind="stable")
    neg = -margins[order]

    # Seed the running best with the top customer's own offer (module
    # notes); later winners must strictly beat it, so ties resolve toward
    # the top customer's own offer, then the highest-margin level.
    top = market.customer(int(order[0]))
    best = evaluate(market, Product(top.price, top.qualities))

    low = order[: int(np.searchsorted(neg, -levels[-1], side="right"))]
    ms = margins[low]
    grid = _CornerGrid(market.qualities[low])

    # The lowest level's depth caps every level above it (module notes).
    last = len(levels) - 1
    lowest = _search_level(market, grid, ms, last, levels[last])
    # A few spacings per coordinate of the largest magnitude a price, a
    # margin or a partial quality sum can take.
    scale = np.abs(market.prices).max() + np.abs(market.qualities).max(axis=0).sum()
    pad = _rounding_pad(scale, market.dim)
    cap = None
    if last and levels[-2] - levels[-1] > 16 * pad:
        cap = lowest[0].depth
    # customers with margin >= c - pad, that is -margin <= pad - c
    reach = np.searchsorted(neg, pad - np.asarray(levels), side="right")
    bound = np.minimum(reach, len(market) if cap is None else cap).tolist()

    outcomes: list[LevelOutcome] = []
    skipped = 0
    for i, c in enumerate(levels):
        if i == last:
            outcome, report = lowest
        elif (c + pad) * bound[i] > best.profit:
            outcome, report = _search_level(market, grid, ms, i, c)
        else:
            skipped += 1
            continue
        outcomes.append(outcome)
        if report.profit > best.profit:
            best = report

    return best, outcomes, LadderStats(skipped, cap)
