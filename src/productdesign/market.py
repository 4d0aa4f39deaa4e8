"""Customers, products, markets, and profit accounting.

A product is a price plus ``d`` real-valued qualities and costs the sum of
its qualities to produce, so its margin (profit per unit) is price minus
that sum.  A customer has a maximum price and a minimum requirement per
quality, and considers any product that meets every requirement at a price
no higher than their budget (closed comparisons on both sides).  The
profit of a product against a market is its margin times the number of
considering customers.

Markets are kept Pareto-consistent: a customer who demands strictly less
in every quality than some other customer yet pays strictly more is
redundant (whatever the cheaper, stricter customer buys serves them too).
Such inputs are rejected by default and dropped only by an explicit prune.

All types are immutable after construction and all operations are pure,
so everything here is safe to use from multiple threads.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    DimensionMismatchError,
    EmptyMarketError,
    GuardExceededError,
    MarketFormatError,
    ParetoViolationError,
)

# Grid-candidate count allowed in the exhaustive optimum (roughly n**(d+1)).
BRUTE_FORCE_GUARD = 50_000_000


def _quality_tuple(qualities: Iterable[float]) -> tuple[float, ...]:
    q = tuple(float(v) for v in qualities)
    if not q:
        raise ValueError("at least one quality dimension is required")
    for v in q:
        if not math.isfinite(v):
            raise ValueError(f"qualities must be finite, got {v!r}")
    return q


@dataclass(frozen=True)
class Customer:
    """A buyer: the most they will pay and their minimum quality requirements."""

    price: float
    qualities: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "price", float(self.price))
        object.__setattr__(self, "qualities", _quality_tuple(self.qualities))
        if not math.isfinite(self.price):
            raise ValueError(f"price must be finite, got {self.price!r}")

    @property
    def dim(self) -> int:
        return len(self.qualities)


@dataclass(frozen=True)
class Product:
    """A sellable design: its price and the quality delivered per axis."""

    price: float
    qualities: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "price", float(self.price))
        object.__setattr__(self, "qualities", _quality_tuple(self.qualities))
        if not math.isfinite(self.price):
            raise ValueError(f"price must be finite, got {self.price!r}")

    @property
    def dim(self) -> int:
        return len(self.qualities)


def ppu(item: Customer | Product) -> float:
    """Profit per unit: price minus production cost (the sum of qualities)."""
    return item.price - sum(item.qualities)


@dataclass(frozen=True)
class ProfitReport:
    """Outcome of offering a product: margin, buyer count, and total profit.

    ``product`` is ``None`` when no positive-profit product exists; such a
    report carries zero margin, zero buyers, and zero profit.
    """

    product: Product | None
    ppu: float
    buyers: int
    profit: float

    @property
    def profitable(self) -> bool:
        return self.product is not None


#: Shared report for markets where every sellable product loses money.
NO_PROFITABLE_PRODUCT = ProfitReport(None, 0.0, 0, 0.0)


def _customer_arrays(
    customers: Iterable[Customer], empty_message: str
) -> tuple[np.ndarray, np.ndarray]:
    """Price vector and ``(n, d)`` quality matrix of a nonempty customer list
    of one dimension; ``empty_message`` is the error for an empty list."""
    cs = list(customers)
    if not cs:
        raise EmptyMarketError(empty_message)
    dim = cs[0].dim
    for i, c in enumerate(cs):
        if c.dim != dim:
            raise DimensionMismatchError(
                f"customer {i} has {c.dim} qualities, expected {dim}"
            )
    prices = np.array([c.price for c in cs], dtype=float)
    qualities = np.array([c.qualities for c in cs], dtype=float)
    return prices, qualities


class Market:
    """An ordered, Pareto-consistent set of customers with a fixed dimension.

    Storage is column oriented (a price vector and an ``(n, d)`` quality
    matrix) so million-customer instances stay cheap; iterating the market
    materializes :class:`Customer` objects on demand.  The arrays exposed
    by :attr:`prices` / :attr:`qualities` are read-only views.
    """

    __slots__ = ("_prices", "_qualities")

    def __init__(self, customers: Iterable[Customer], *, validate: bool = True):
        prices, qualities = _customer_arrays(
            customers, "a market needs at least one customer"
        )
        self._init_arrays(prices, qualities, validate)

    @classmethod
    def from_arrays(
        cls,
        prices: np.ndarray,
        qualities: np.ndarray,
        *,
        validate: bool = True,
    ) -> "Market":
        """Build a market directly from column arrays (copied)."""
        m = cls.__new__(cls)
        p = np.array(prices, dtype=float).reshape(-1)
        q = np.array(qualities, dtype=float)
        if q.ndim == 1:
            q = q.reshape(-1, 1)
        if p.size == 0:
            raise EmptyMarketError("a market needs at least one customer")
        if q.shape[0] != p.size or q.ndim != 2 or q.shape[1] < 1:
            raise DimensionMismatchError(
                f"qualities shape {q.shape} does not match {p.size} prices"
            )
        if not (np.isfinite(p).all() and np.isfinite(q).all()):
            raise ValueError("prices and qualities must be finite")
        m._init_arrays(p, q, validate)
        return m

    def _init_arrays(self, prices: np.ndarray, qualities: np.ndarray, validate: bool):
        prices.setflags(write=False)
        qualities.setflags(write=False)
        self._prices = prices
        self._qualities = qualities
        if validate:
            witness = _pareto_witness(prices, qualities)
            if witness is not None:
                i, j = witness
                raise ParetoViolationError(
                    f"market is not Pareto-consistent: customer {i} is dominated by "
                    f"customer {j} (strictly cheaper, strictly stricter in every "
                    f"quality); fix the input or prune dominated customers",
                    pair=witness,
                )

    @property
    def dim(self) -> int:
        return self._qualities.shape[1]

    @property
    def prices(self) -> np.ndarray:
        return self._prices

    @property
    def qualities(self) -> np.ndarray:
        return self._qualities

    @property
    def customers(self) -> tuple[Customer, ...]:
        return tuple(self)

    def customer(self, i: int) -> Customer:
        return Customer(float(self._prices[i]), tuple(map(float, self._qualities[i])))

    def __len__(self) -> int:
        return self._prices.shape[0]

    def __iter__(self) -> Iterator[Customer]:
        for i in range(len(self)):
            yield self.customer(i)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Market):
            return NotImplemented
        return (
            self.dim == other.dim
            and np.array_equal(self._prices, other._prices)
            and np.array_equal(self._qualities, other._qualities)
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"Market(n={len(self)}, dim={self.dim})"


# ---------------------------------------------------------------------------
# Pareto consistency
# ---------------------------------------------------------------------------


def _dominated_1d(prices: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stable price order, and per sorted row whether some strictly cheaper
    customer demands strictly more (one quality axis ``q``)."""
    order = np.argsort(prices, kind="stable")
    ps, qs = prices[order], q[order]
    new_group = np.r_[True, ps[1:] != ps[:-1]]
    starts = np.flatnonzero(new_group)
    group_max = np.maximum.reduceat(qs, starts)
    # max requirement among strictly cheaper customers, per price group
    prev_max = np.r_[-np.inf, np.maximum.accumulate(group_max)[:-1]]
    gid = np.cumsum(new_group) - 1
    return order, qs < prev_max[gid]


def _dominators(prices: np.ndarray, qualities: np.ndarray, a: int) -> np.ndarray:
    """Mask of the customers strictly cheaper and strictly stricter than ``a``."""
    dom = prices < prices[a]
    for k in range(qualities.shape[1]):
        dom &= qualities[:, k] > qualities[a, k]
    return dom


def _pareto_witness(
    prices: np.ndarray, qualities: np.ndarray
) -> tuple[int, int] | None:
    """One (dominated, dominating) index pair, or None if the set is valid.

    For ``d == 1`` the dominated customer is the cheapest one flagged;
    otherwise it is the lowest flagged index.  Its dominator is the lowest
    index dominating it.
    """
    if qualities.shape[1] == 1:
        order, flags = _dominated_1d(prices, qualities[:, 0])
        if not flags.any():
            return None
        dominated = int(order[np.argmax(flags)])
    else:
        mask = _dominated_mask(prices, qualities)
        if not mask.any():
            return None
        dominated = int(np.argmax(mask))
    return dominated, int(np.argmax(_dominators(prices, qualities, dominated)))


def _dominated_mask(prices: np.ndarray, qualities: np.ndarray) -> np.ndarray:
    """Boolean mask of customers dominated by some other customer."""
    n = prices.shape[0]
    mask = np.zeros(n, dtype=bool)
    if qualities.shape[1] == 1:
        order, flags = _dominated_1d(prices, qualities[:, 0])
        mask[order] = flags
        return mask
    cols = [np.ascontiguousarray(qualities[:, k]) for k in range(qualities.shape[1])]
    chunk = max(1, 2_000_000 // max(1, n))
    for lo in range(0, n, chunk):
        hi = min(n, lo + chunk)
        # dom[i, j]: customer i is cheaper than and stricter than lo + j
        dom = prices[:, None] < prices[None, lo:hi]
        for col in cols:
            dom &= col[:, None] > col[None, lo:hi]
        mask[lo:hi] = dom.any(axis=0)
    return mask


def validate_pareto(customers: Iterable[Customer]) -> list[tuple[int, int]]:
    """List every (dominated, dominating) pair; empty means the set is valid.

    Pair ``(i, j)`` is reported when customer ``j`` demands strictly more in
    every quality than customer ``i`` while paying strictly less, which makes
    customer ``i`` redundant in a saturated market.  Pairs come in order of
    ``i``, then ``j``.  One pass over the market per dominated customer.
    """
    prices, qualities = _customer_arrays(
        customers, "cannot validate an empty customer list"
    )
    pairs: list[tuple[int, int]] = []
    for a in np.flatnonzero(_dominated_mask(prices, qualities)).tolist():
        dominating = _dominators(prices, qualities, a)
        pairs.extend((a, int(b)) for b in np.flatnonzero(dominating))
    return pairs


def prune_dominated(customers: Iterable[Customer]) -> Market:
    """Drop every dominated customer and return the remaining market.

    Survivors cannot dominate each other (domination is transitive and
    irreflexive), so the result always validates.
    """
    prices, qualities = _customer_arrays(
        customers, "cannot prune an empty customer list"
    )
    keep = ~_dominated_mask(prices, qualities)
    if not keep.any():
        raise EmptyMarketError("pruning removed every customer")
    return Market.from_arrays(prices[keep], qualities[keep], validate=False)


# ---------------------------------------------------------------------------
# Profit evaluation and the exhaustive optimum
# ---------------------------------------------------------------------------


def evaluate(market: Market, product: Product) -> ProfitReport:
    """Count considering customers and report the product's total profit.

    A customer considers the product when its price is at most their budget
    and every quality meets their requirement; both comparisons are closed.
    One pass over the market.
    """
    if product.dim != market.dim:
        raise DimensionMismatchError(
            f"product has {product.dim} qualities, market has {market.dim}"
        )
    wants = (market.prices >= product.price) & (
        market.qualities <= np.asarray(product.qualities)
    ).all(axis=1)
    buyers = int(np.count_nonzero(wants))
    margin = ppu(product)
    return ProfitReport(product, margin, buyers, margin * buyers)


def brute_force_optimum(
    market: Market, *, max_candidates: int = BRUTE_FORCE_GUARD
) -> ProfitReport:
    """Exhaustive search over the grid of customer coordinates.

    For any fixed buyer set, raising the price to the cheapest buyer's
    budget and lowering each quality to the most demanding buyer's
    requirement never reduces profit, so some optimum has its price among
    customer prices and each quality among the customers' per-axis
    requirements.  Every such grid product is evaluated; ties are broken
    toward the lexicographically smallest ``(price, q_1, ..., q_d)``.

    Intended for desk-scale instances; raises
    :class:`~productdesign.errors.GuardExceededError` when the grid exceeds
    ``max_candidates`` cells.
    """
    d = market.dim
    prices = np.unique(market.prices)
    axes = [np.unique(market.qualities[:, k]) for k in range(d)]
    shape = (prices.size, *(a.size for a in axes))
    cells = int(np.prod([int(s) for s in shape], dtype=np.int64))
    if cells > max_candidates:
        raise GuardExceededError(
            f"candidate grid has {cells} cells, above the {max_candidates} guard"
        )

    # Histogram customers on the grid, then turn it into buyer counts:
    # a grid product is bought by everyone with price >= its price (suffix
    # along axis 0) and requirements <= its qualities (prefix per axis).
    hist = np.zeros(shape, dtype=np.int64)
    idx = (np.searchsorted(prices, market.prices),) + tuple(
        np.searchsorted(axes[k], market.qualities[:, k]) for k in range(d)
    )
    np.add.at(hist, idx, 1)
    counts = hist[::-1].cumsum(axis=0)[::-1]
    for k in range(d):
        counts = counts.cumsum(axis=k + 1)

    margin = prices.reshape((-1,) + (1,) * d).astype(float)
    for k in range(d):
        margin = margin - axes[k].reshape((1,) * (k + 1) + (-1,) + (1,) * (d - k - 1))
    profit = margin * counts

    flat_best = int(np.argmax(profit))  # first max in C-order == lex-smallest
    best = float(profit.reshape(-1)[flat_best])
    if best <= 0.0:
        return NO_PROFITABLE_PRODUCT
    at = np.unravel_index(flat_best, shape)
    product = Product(
        float(prices[at[0]]),
        tuple(float(axes[k][at[k + 1]]) for k in range(d)),
    )
    buyers = int(counts[at])
    m = float(margin[at])
    return ProfitReport(product, m, buyers, m * buyers)


# ---------------------------------------------------------------------------
# Instance generators
# ---------------------------------------------------------------------------


def random_pareto_market(
    n: int,
    d: int,
    seed: int = 0,
    value_range: tuple[int, int] = (0, 100),
) -> Market:
    """Deterministic random market with integer coordinates.

    For ``d == 1`` qualities are drawn and sorted, and prices are quality
    plus a strictly increasing positive offset, which is Pareto-consistent
    by construction.  For ``d > 1`` random customers with positive margins
    are drawn and dominated ones filtered until ``n`` survive.  Every
    result has at least one customer with positive margin.
    """
    if n < 1 or d < 1:
        raise ValueError("n and d must be positive")
    lo, hi = int(value_range[0]), int(value_range[1])
    if hi < lo:
        raise ValueError("value_range must be nondecreasing")
    rng = np.random.default_rng(seed)
    if d == 1:
        q = np.sort(rng.integers(lo, hi + 1, size=n))
        offsets = np.cumsum(rng.integers(1, 4, size=n))
        return Market.from_arrays(
            (q + offsets).astype(float), q.astype(float), validate=False
        )
    prices = np.empty(0, dtype=float)
    qualities = np.empty((0, d), dtype=float)
    while True:
        m = max(2 * n, 16)
        q = rng.integers(lo, hi + 1, size=(m, d)).astype(float)
        p = q.sum(axis=1) + rng.integers(1, 6, size=m)
        prices = np.concatenate([prices, p])
        qualities = np.concatenate([qualities, q])
        keep = ~_dominated_mask(prices, qualities)
        if keep.sum() >= n:
            idx = np.flatnonzero(keep)[:n]
            return Market.from_arrays(prices[idx], qualities[idx], validate=False)


def element_uniqueness_instance(values: Sequence[int]) -> Market:
    """One-dimensional market with a customer ``(x + 1/2, [x])`` per value.

    Against such a market, a value occurring twice or more admits a product
    with profit at least 1, while all-distinct values cap the optimum at
    exactly 1/2.
    """
    vals = [int(v) for v in values]
    if not vals:
        raise EmptyMarketError("need at least one value")
    q = np.array(vals, dtype=float)
    return Market.from_arrays(q + 0.5, q, validate=False)


# ---------------------------------------------------------------------------
# Customer file formats
# ---------------------------------------------------------------------------


def _check_finite_number(value: object, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise MarketFormatError(f"{where}: expected a number, got {value!r}")
    v = float(value)
    if not math.isfinite(v):
        raise MarketFormatError(f"{where}: non-finite value {value!r}")
    return v


def parse_customers_json(text: str) -> list[Customer]:
    """Parse the JSON market format.

    Expected shape: ``{"dim": d, "customers": [{"price": x, "qualities":
    [..]}, ...]}``.  NaN and infinities are rejected.
    """

    def _reject(token: str):
        raise MarketFormatError(f"non-finite literal {token!r} is not allowed")

    try:
        data = json.loads(text, parse_constant=_reject)
    except json.JSONDecodeError as e:
        raise MarketFormatError(f"invalid JSON: {e}") from e
    if not isinstance(data, dict):
        raise MarketFormatError("top-level JSON value must be an object")
    dim = data.get("dim")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise MarketFormatError(f"'dim' must be a positive integer, got {dim!r}")
    entries = data.get("customers")
    if not isinstance(entries, list) or not entries:
        raise MarketFormatError("'customers' must be a nonempty list")
    customers = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise MarketFormatError(f"customer {i}: expected an object")
        price = _check_finite_number(entry.get("price"), f"customer {i}: price")
        quals = entry.get("qualities")
        if not isinstance(quals, list):
            raise MarketFormatError(f"customer {i}: 'qualities' must be a list")
        if len(quals) != dim:
            raise MarketFormatError(
                f"customer {i}: has {len(quals)} qualities, expected dim={dim}"
            )
        qs = tuple(
            _check_finite_number(v, f"customer {i}: quality {k+1}")
            for k, v in enumerate(quals)
        )
        customers.append(Customer(price, qs))
    return customers


def parse_customers_csv(text: str) -> list[Customer]:
    """Parse the CSV market format: header ``price,q1,...,qd`` plus rows."""
    rows = list(csv.reader(io.StringIO(text)))
    rows = [(i + 1, r) for i, r in enumerate(rows) if any(f.strip() for f in r)]
    if not rows:
        raise MarketFormatError("empty CSV file")
    header_line, header = rows[0]
    expected = ["price"] + [f"q{k}" for k in range(1, len(header))]
    if [h.strip() for h in header] != expected or len(header) < 2:
        raise MarketFormatError(
            f"line {header_line}: header must be price,q1,...,qd, got {header!r}"
        )
    dim = len(header) - 1
    customers = []
    for line_no, row in rows[1:]:
        if len(row) != dim + 1:
            raise MarketFormatError(
                f"line {line_no}: expected {dim + 1} fields, got {len(row)}"
            )
        values = []
        for field_no, field in enumerate(row):
            name = "price" if field_no == 0 else f"q{field_no}"
            try:
                v = float(field)
            except ValueError:
                raise MarketFormatError(
                    f"line {line_no}: field {name}: not a number: {field!r}"
                ) from None
            if not math.isfinite(v):
                raise MarketFormatError(
                    f"line {line_no}: field {name}: non-finite value {field!r}"
                )
            values.append(v)
        customers.append(Customer(values[0], tuple(values[1:])))
    return customers


def market_to_json(market: Market) -> str:
    """Serialize to the JSON market format (round-trips exactly)."""
    payload = {
        "dim": market.dim,
        "customers": [
            {"price": c.price, "qualities": list(c.qualities)} for c in market
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def market_to_csv(market: Market) -> str:
    """Serialize to the CSV market format (round-trips exactly)."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["price"] + [f"q{k + 1}" for k in range(market.dim)])
    for c in market:
        writer.writerow([repr(c.price)] + [repr(v) for v in c.qualities])
    return out.getvalue()
