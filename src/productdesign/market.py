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
import itertools
import json
import math
from dataclasses import dataclass
from functools import reduce
from operator import add
from typing import Iterable, Iterator, NoReturn, Sequence

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

# Pairwise comparisons (n**2) allowed in the dense Pareto check for d >= 3.
PARETO_GUARD = 100_000_000


def _finite_float(value: object, what: str) -> float:
    try:
        v = float(value)
    except OverflowError:
        raise ValueError(
            f"{what} must be finite, got an integer too large for a float"
        ) from None
    if not math.isfinite(v):
        raise ValueError(f"{what} must be finite, got {v!r}")
    return v


def _quality_tuple(qualities: Iterable[float]) -> tuple[float, ...]:
    q = tuple(_finite_float(v, "qualities") for v in qualities)
    if not q:
        raise ValueError("at least one quality dimension is required")
    return q


@dataclass(frozen=True)
class _Priced:
    """A finite price and a nonempty tuple of finite qualities.  Each
    subclass is its own dataclass, so its instances equal only its own."""

    price: float
    qualities: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "price", _finite_float(self.price, "price"))
        object.__setattr__(self, "qualities", _quality_tuple(self.qualities))

    @property
    def dim(self) -> int:
        return len(self.qualities)


@dataclass(frozen=True)
class Customer(_Priced):
    """A buyer: the most they will pay and their minimum quality requirements."""


@dataclass(frozen=True)
class Product(_Priced):
    """A sellable design: its price and the quality delivered per axis.

    Every zero is stored as ``0.0`` (``v + 0.0`` turns ``-0.0`` into
    ``0.0`` and leaves any other float as it is), so no solver's report
    names ``-0.0``, whichever of two equal zeros its search met first.
    """

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "price", self.price + 0.0)
        object.__setattr__(self, "qualities", tuple(v + 0.0 for v in self.qualities))


def _axis_sum(terms):
    """The one float cost rule of every cost, margin and cap: scalars,
    columns or broadcast grids added ``((0.0 + t_0) + t_1) + ...``.  Not
    ``sum``, which compensates floats from Python 3.12, nor numpy's
    pairwise ``sum``, which differs from axis order from eight terms on."""
    return reduce(add, terms, 0.0)


def ppu(item: Customer | Product) -> float:
    """Profit per unit: price minus production cost (the sum of qualities)."""
    return item.price - _axis_sum(item.qualities)


def _check_magnitudes(prices: np.ndarray, qualities: np.ndarray):
    """Raise :class:`ValueError` unless every value is finite and
    ``n * (max |price| + sum_k max |q_k|)`` is a finite float.

    That product bounds every cost, margin, cap and profit a solver forms:
    float addition and multiplication round monotonically, so no cost
    exceeds the sum of the largest requirements, no margin that sum plus
    the largest price, and no profit ``n`` times that.  Each column's
    maximum and minimum are the only passes over its values; a column
    holding a NaN has both NaN, so its top is NaN.
    """
    tops = [float(max(c.max(), -c.min())) for c in (prices, *qualities.T)]
    if not all(map(math.isfinite, tops)):
        raise ValueError("prices and qualities must be finite")
    if not math.isfinite(prices.size * (tops[0] + _axis_sum(tops[1:]))):
        raise ValueError(
            f"prices and qualities too large: {prices.size} x (max |price| + "
            f"sum of max |quality|) overflows a float, and so could a profit"
        )


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
    by :attr:`prices` / :attr:`qualities` are read-only views.  Every
    constructor refuses a market whose arithmetic could overflow (see
    :func:`_check_magnitudes`).
    """

    __slots__ = ("_prices", "_qualities", "_ascending_tests")

    def __init__(self, customers: Iterable[Customer]):
        prices, qualities = _customer_arrays(
            customers, "a market needs at least one customer"
        )
        self._init_arrays(prices, qualities, validate=True)

    @classmethod
    def from_arrays(
        cls,
        prices: np.ndarray,
        qualities: np.ndarray,
        *,
        validate: bool = True,
    ) -> "Market":
        """Build a market directly from column arrays (copied).

        ``validate=False`` skips the Pareto check, for arrays that are
        consistent by construction; it is the one unvalidated constructor.
        """
        m = cls.__new__(cls)
        p = np.array(prices, dtype=float).reshape(-1)
        q = np.array(qualities, dtype=float)
        if q.ndim == 1:
            q = q.reshape(-1, 1)
        if p.size == 0:
            raise EmptyMarketError("a market needs at least one customer")
        if q.ndim != 2 or q.shape[0] != p.size or q.shape[1] < 1:
            raise DimensionMismatchError(
                f"qualities shape {q.shape} does not match {p.size} prices"
            )
        m._init_arrays(p, q, validate)
        return m

    def _init_arrays(self, prices: np.ndarray, qualities: np.ndarray, validate: bool):
        _check_magnitudes(prices, qualities)
        prices.setflags(write=False)
        qualities.setflags(write=False)
        self._prices = prices
        self._qualities = qualities
        # whether a 1-D market's price and quality columns are stored
        # ascending: each _ascending test's answer, None until it runs
        self._ascending_tests = (None, None)
        if validate:
            if qualities.shape[1] == 1:
                mask, self._ascending_tests = _dominated_1d(prices, qualities[:, 0])
            else:
                mask = _dominated_mask(prices, qualities)
            witness = _pareto_witness(prices, qualities, mask)
            if witness is not None:
                i, j = witness
                raise ParetoViolationError(
                    f"market is not Pareto-consistent: customer {i} is dominated by "
                    f"customer {j} (strictly cheaper, strictly stricter in every "
                    f"quality); fix the input or prune dominated customers",
                    pair=witness,
                )

    def _columns_ascending(self) -> tuple[bool, bool]:
        """Whether a 1-D market's price and quality columns are stored in
        ascending order.  Each column is tested by :func:`_ascending` once
        per market: the Pareto check's tests are kept, and a column it did
        not test (every column of a market built with ``validate=False``)
        is tested on the first call."""
        columns = self._prices, self._qualities[:, 0]
        self._ascending_tests = tuple(
            _ascending(x) if up is None else up
            for x, up in zip(columns, self._ascending_tests)
        )
        return self._ascending_tests

    @property
    def dim(self) -> int:
        return self._qualities.shape[1]

    @property
    def prices(self) -> np.ndarray:
        return self._prices

    @property
    def qualities(self) -> np.ndarray:
        return self._qualities

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


def _ascending(x: np.ndarray) -> bool:
    """Whether ``x`` is stored in ascending order, by one O(n) comparison.

    A shuffled column fails on its first few pairs, so only a column that
    starts in order is tested in full.  ``-0.0`` and ``0.0`` compare
    equal, so they may stand in either order."""
    return all((y[1:] >= y[:-1]).all() for y in (x[:9], x))


def _dominated_1d(
    prices: np.ndarray, q: np.ndarray
) -> tuple[np.ndarray, tuple[bool, bool | None]]:
    """Mask of the dominated customers for one quality axis ``q``: those
    with a strictly cheaper customer who demands strictly more, and the
    :func:`_ascending` tests of ``prices`` and ``q`` (``None`` for ``q``
    when the prices are not ascending, as it is then not tested).

    In price order (any order among equal prices; a price column stored
    ascending is used as it is), let ``run`` be the running maximum of
    the requirements.  A strictly cheaper customer comes earlier, so a
    dominated customer demands less than its ``run``.  A customer who
    does but is not dominated stands behind an equal-price customer who
    demands more, so only these candidates take the exact test: with
    ``g`` the first position of the candidate's price group, it is
    dominated when ``g > 0`` and it demands less than ``run[g - 1]``,
    the most any strictly cheaper customer demands.  Only comparisons
    and maxima are used, so the mask is exact in floating point, and
    ``-0.0`` and ``0.0`` prices form one group, as ``<`` treats them.

    When the requirements are stored ascending too, every strictly
    cheaper customer comes earlier and demands no more, so no customer is
    dominated and the mask is returned before any pass.
    """
    p_up = _ascending(prices)
    q_up = _ascending(q) if p_up else None
    if q_up:
        return np.zeros(prices.size, dtype=bool), (p_up, q_up)
    if p_up:
        order, ps, qs = None, prices, q
    else:
        order = np.argsort(prices)
        ps, qs = prices[order], q[order]
    run = np.maximum.accumulate(qs)
    cand = np.flatnonzero(qs < run)
    g = ps.searchsorted(ps[cand])
    cand = cand[(g > 0) & (qs[cand] < run[g - 1])]
    mask = np.zeros(prices.size, dtype=bool)
    mask[cand if order is None else order[cand]] = True
    return mask, (p_up, q_up)


def _dominators(prices: np.ndarray, qualities: np.ndarray, a: int) -> np.ndarray:
    """Mask of the customers strictly cheaper and strictly stricter than ``a``."""
    dom = prices < prices[a]
    for k in range(qualities.shape[1]):
        dom &= qualities[:, k] > qualities[a, k]
    return dom


def _pareto_witness(
    prices: np.ndarray, qualities: np.ndarray, mask: np.ndarray
) -> tuple[int, int] | None:
    """One (dominated, dominating) index pair, or None if the set is valid:
    the lowest dominated index and the lowest index dominating it, given
    the :func:`_dominated_mask` of the set."""
    if not mask.any():
        return None
    dominated = int(np.argmax(mask))
    return dominated, int(np.argmax(_dominators(prices, qualities, dominated)))


def _dominated_mask(prices: np.ndarray, qualities: np.ndarray) -> np.ndarray:
    """Boolean mask of customers dominated by some other customer.

    O(n log n) for one quality (O(n) when the prices are stored
    ascending) and O(n log^2 n) for two; three or more
    compare every pair, and raise :class:`GuardExceededError` before any
    work when the ``n**2`` comparisons exceed :data:`PARETO_GUARD`.
    """
    n, d = qualities.shape
    if d == 1:
        return _dominated_1d(prices, qualities[:, 0])[0]
    if d == 2:
        return _dominated_2d(prices, qualities[:, 0], qualities[:, 1])
    if n * n > PARETO_GUARD:
        raise GuardExceededError(
            f"Pareto check of {n} customers with {d} qualities needs {n * n} "
            f"comparisons, above the {PARETO_GUARD} guard"
        )
    mask = np.zeros(n, dtype=bool)
    cols = [np.ascontiguousarray(qualities[:, k]) for k in range(d)]
    chunk = max(1, 2_000_000 // max(1, n))
    for lo in range(0, n, chunk):
        hi = min(n, lo + chunk)
        # dom[i, j]: customer i is cheaper than and stricter than lo + j
        dom = prices[:, None] < prices[None, lo:hi]
        for col in cols:
            dom &= col[:, None] > col[None, lo:hi]
        mask[lo:hi] = dom.any(axis=0)
    return mask


def _dominated_2d(prices: np.ndarray, q1: np.ndarray, q2: np.ndarray) -> np.ndarray:
    """Dominated mask for two qualities, by divide and conquer in O(n log^2 n).

    In (price, q1) ascending order, an earlier customer at the same price
    never has a strictly larger q1, so "strictly cheaper and strictly
    stricter" becomes "earlier, with strictly larger q1 and q2": the 3-D
    maxima problem of Kung, Luccio & Preparata (1975).  Positions are
    split into blocks of ``2 * half``, whose right half queries its left
    half.  Each pass takes every block in descending q1 (queries before
    inserts on equal q1, so equal q1 never counts) and keeps a running
    maximum of the inserted q2 ranks; offsetting block ``b`` by
    ``b * (n + 1)`` stops the maximum at block boundaries.  A query is
    dominated when that maximum exceeds its own q2 rank.  All blocks of
    one level share one numpy pass, as in ``sweep._row_maxima``.
    """
    n = prices.shape[0]
    order = np.lexsort((q1, prices))
    r2 = np.unique(q2[order], return_inverse=True)[1] + 1  # 0 marks a query
    pos = np.arange(n)
    # processing rank: descending q1, later positions (the right half) first
    rank = np.empty(n, dtype=np.int64)
    rank[np.argsort(q1[order], kind="stable")[::-1]] = pos
    dominated = np.zeros(n, dtype=bool)
    half = 1
    while half < n:
        block = pos // (2 * half)
        seq = np.argsort(block * n + rank)
        left = (seq // half) % 2 == 0
        offset = block[seq] * (n + 1)
        r2_seq = r2[seq]
        best = np.maximum.accumulate(np.where(left, r2_seq, 0) + offset) - offset
        dominated[seq[~left & (best > r2_seq)]] = True
        half *= 2
    mask = np.zeros(n, dtype=bool)
    mask[order] = dominated
    return mask


_PRUNE_EMPTY = "cannot prune an empty customer list"


def prune_dominated(customers: Iterable[Customer]) -> Market:
    """Drop every dominated customer and return the remaining market.

    Survivors cannot dominate each other (domination is transitive and
    irreflexive), so the result always validates.
    """
    return _prune_arrays(*_customer_arrays(customers, _PRUNE_EMPTY))


def _prune_arrays(prices: np.ndarray, qualities: np.ndarray) -> Market:
    """:func:`prune_dominated` on a price vector and ``(n, d)`` quality matrix."""
    if prices.size == 0:
        raise EmptyMarketError(_PRUNE_EMPTY)
    keep = ~_dominated_mask(prices, qualities)
    return Market.from_arrays(prices[keep], qualities[keep], validate=False)


# ---------------------------------------------------------------------------
# Profit evaluation and the exhaustive optimum
# ---------------------------------------------------------------------------


def evaluate(market: Market, product: Product) -> ProfitReport:
    """Count considering customers and report the product's total profit.

    A customer considers the product when its price is at most their budget
    and every quality meets their requirement; both comparisons are closed.
    One pass over the prices, then one over each quality column.
    """
    if product.dim != market.dim:
        raise DimensionMismatchError(
            f"product has {product.dim} qualities, market has {market.dim}"
        )
    wants = market.prices >= product.price
    for k, v in enumerate(product.qualities):
        wants &= market.qualities[:, k] <= v
    buyers = int(np.count_nonzero(wants))
    margin = ppu(product)
    return ProfitReport(product, margin, buyers, margin * buyers)


def brute_force_optimum(market: Market) -> ProfitReport:
    """Exhaustive search over the grid of customer coordinates.

    For any fixed buyer set, raising the price to the cheapest buyer's
    budget and lowering each quality to the most demanding buyer's
    requirement never reduces profit, so some optimum has its price among
    customer prices and each quality among the customers' per-axis
    requirements.  Every such grid product is evaluated; ties are broken
    toward the highest price, then the lexicographically smallest
    ``(q_1, ..., q_d)``, the product :func:`~productdesign.solve_exact_1d`
    names.  The winner is reported by :func:`evaluate`.

    Intended for desk-scale instances; raises
    :class:`~productdesign.errors.GuardExceededError` when the grid exceeds
    the module constant ``BRUTE_FORCE_GUARD`` (read at each call) in cells.
    """
    d = market.dim
    # The grid's axes: negated prices (so prices run highest first), then
    # each quality, all ascending; ``cell`` is each customer's index on each.
    columns = (-market.prices, *market.qualities.T)
    axes, cell = zip(*(np.unique(v, return_inverse=True) for v in columns))
    shape = tuple(a.size for a in axes)
    cells = math.prod(shape)
    if cells > BRUTE_FORCE_GUARD:
        raise GuardExceededError(
            f"candidate grid has {cells} cells, above the {BRUTE_FORCE_GUARD} guard"
        )

    # Histogram customers on the grid, then sum it along every axis in
    # place: a grid product is bought by everyone with price >= its price
    # and requirements <= its qualities, a prefix on each axis.
    counts = np.bincount(np.ravel_multi_index(cell, shape), minlength=cells)
    counts = counts.reshape(shape)
    for k in range(d + 1):
        np.cumsum(counts, axis=k, out=counts)

    # Each cell's cost follows ppu's rule, ((0.0 + q_1) + q_2) + ..., so
    # its margin is bit-equal to what evaluate reports for it.  The costs
    # are summed in the profit grid's first row, which takes its own
    # margin last; the margins then become profits in place.
    profit = np.empty(shape)
    cost = profit[0]
    cost.fill(0.0)
    for k, a in enumerate(axes[1:]):
        cost += a.reshape((-1,) + (1,) * (d - 1 - k))
    prices = -axes[0].reshape((-1,) + (1,) * d)
    np.subtract(prices[1:], cost, out=profit[1:])
    np.subtract(prices[0], cost, out=cost)
    profit *= counts

    # the first maximum in C order: the highest price, then the
    # lexicographically smallest qualities
    at = np.unravel_index(int(np.argmax(profit)), shape)
    if profit[at] <= 0.0:
        return NO_PROFITABLE_PRODUCT
    price, *qualities = (float(a[i]) for a, i in zip(axes, at))
    return evaluate(market, Product(-price, tuple(qualities)))


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
    result has at least one customer with positive margin.  For ``d >= 3``
    the filter is the guarded pairwise check, so ``n`` above about 5000
    raises :class:`GuardExceededError`.
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


class _LongInteger(str):
    """A JSON integer literal with more digits than ``int()`` converts."""


def _parse_int(token: str) -> int | _LongInteger:
    try:
        return int(token)
    except ValueError:
        return _LongInteger(token)


def _check_finite_number(value: object, where: str) -> float:
    if isinstance(value, _LongInteger):
        digits = len(value.lstrip("-"))
    elif isinstance(value, bool) or not isinstance(value, (int, float)):
        raise MarketFormatError(f"{where}: expected a number, got {value!r}")
    else:
        try:
            v = float(value)
        except OverflowError:
            digits = len(str(abs(value)))
        else:
            if not math.isfinite(v):
                raise MarketFormatError(f"{where}: non-finite value {value!r}")
            return v
    raise MarketFormatError(f"{where}: integer too large for a float ({digits} digits)")


def parse_customers_json(text: str) -> list[Customer]:
    """Parse the JSON market format.

    Expected shape: ``{"dim": d, "customers": [{"price": x, "qualities":
    [..]}, ...]}``.  NaN and infinities are rejected.
    """
    prices, qualities = _json_arrays(text)
    return [Customer(p, tuple(q)) for p, q in zip(prices.tolist(), qualities.tolist())]


_NUMBER_TYPES = {int, float}


def _json_arrays(text: str) -> tuple[np.ndarray, np.ndarray]:
    """Prices ``(n,)`` and qualities ``(n, dim)`` of a JSON market file.

    Every entry is checked in bulk; only when a check fails are the
    entries scanned one by one, to name the first bad customer and field.
    """

    def _reject(token: str):
        raise MarketFormatError(f"non-finite literal {token!r} is not allowed")

    try:
        try:
            data = json.loads(text, parse_constant=_reject)
        except (json.JSONDecodeError, MarketFormatError):
            raise
        except ValueError:
            # an integer literal past int()'s digit limit: decode it as a
            # _LongInteger, which the per-entry scan reports
            data = json.loads(text, parse_constant=_reject, parse_int=_parse_int)
    except json.JSONDecodeError as e:
        raise MarketFormatError(f"invalid JSON: {e}") from e
    except RecursionError:
        # the decoder's depth limit, which differs between interpreters
        raise MarketFormatError("invalid JSON: nested too deeply") from None
    if not isinstance(data, dict):
        raise MarketFormatError("top-level JSON value must be an object")
    dim = data.get("dim")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise MarketFormatError(f"'dim' must be a positive integer, got {dim!r}")
    entries = data.get("customers")
    if not isinstance(entries, list) or not entries:
        raise MarketFormatError("'customers' must be a nonempty list")
    columns = _json_columns(entries, dim)
    if columns is None:
        _raise_json_entry_error(entries, dim)
    return columns


def _json_columns(entries: list, dim: int) -> tuple[np.ndarray, np.ndarray] | None:
    """The entries as column arrays, or None if any entry is malformed.

    JSON numbers decode to exactly ``int`` or ``float``, so checking
    ``type`` rejects booleans and strings as the per-entry scan does.
    """
    if set(map(type, entries)) != {dict}:
        return None
    prices = [e.get("price") for e in entries]
    quals = [e.get("qualities") for e in entries]
    if not set(map(type, prices)) <= _NUMBER_TYPES:
        return None
    if set(map(type, quals)) != {list} or set(map(len, quals)) != {dim}:
        return None
    flat = list(itertools.chain.from_iterable(quals))
    if not set(map(type, flat)) <= _NUMBER_TYPES:
        return None
    try:
        p = np.array(prices, dtype=float)
        q = np.array(flat, dtype=float).reshape(-1, dim)
    except OverflowError:  # an integer past the float range
        return None
    if not (np.isfinite(p).all() and np.isfinite(q).all()):
        return None
    return p, q


def _raise_json_entry_error(entries: list, dim: int) -> NoReturn:
    """Raise the error of the first malformed customer entry."""
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise MarketFormatError(f"customer {i}: expected an object")
        _check_finite_number(entry.get("price"), f"customer {i}: price")
        quals = entry.get("qualities")
        if not isinstance(quals, list):
            raise MarketFormatError(f"customer {i}: 'qualities' must be a list")
        if len(quals) != dim:
            raise MarketFormatError(
                f"customer {i}: has {len(quals)} qualities, expected dim={dim}"
            )
        for k, v in enumerate(quals):
            _check_finite_number(v, f"customer {i}: quality {k+1}")
    raise AssertionError("the bulk check rejected entries the scan accepts")


def _csv_arrays(text: str) -> tuple[np.ndarray, np.ndarray]:
    """Prices ``(n,)`` and qualities ``(n, d)`` of a CSV market file.

    Blank lines are skipped; ``n`` may be 0.  The fields are converted and
    checked in bulk; only when that fails are the rows scanned one by one,
    to name the first bad line and field.
    """
    reader = csv.reader(io.StringIO(text))
    try:
        records = list(reader)
    except csv.Error as e:  # such as a field past csv.field_size_limit()
        raise MarketFormatError(f"line {reader.line_num}: {e}") from None
    lines = [i for i, r in enumerate(records) if "".join(r).strip()]
    if not lines:
        raise MarketFormatError("empty CSV file")
    header = records[lines[0]]
    expected = ["price"] + [f"q{k}" for k in range(1, len(header))]
    if [h.strip() for h in header] != expected or len(header) < 2:
        raise MarketFormatError(
            f"line {lines[0] + 1}: header must be price,q1,...,qd, got {header!r}"
        )
    width = len(header)
    body = [records[i] for i in lines[1:]]
    values = None
    if set(map(len, body)) <= {width}:
        try:
            values = np.fromiter(
                map(float, itertools.chain.from_iterable(body)),
                dtype=float,
                count=len(body) * width,
            ).reshape(-1, width)
        except ValueError:  # a field that is not a number
            pass
    if values is None or not np.isfinite(values).all():
        _raise_csv_row_error(records, lines[1:], width)
    return values[:, 0], values[:, 1:]


def _raise_csv_row_error(records: list, lines: list[int], width: int) -> NoReturn:
    """Raise the error of the first malformed row among ``records[lines]``."""
    for i in lines:
        row = records[i]
        if len(row) != width:
            raise MarketFormatError(
                f"line {i + 1}: expected {width} fields, got {len(row)}"
            )
        for field_no, field in enumerate(row):
            name = "price" if field_no == 0 else f"q{field_no}"
            try:
                v = float(field)
            except ValueError:
                raise MarketFormatError(
                    f"line {i + 1}: field {name}: not a number: {field!r}"
                ) from None
            if not math.isfinite(v):
                raise MarketFormatError(
                    f"line {i + 1}: field {name}: non-finite value {field!r}"
                )
    raise AssertionError("the bulk check rejected rows the scan accepts")


def market_to_json(market: Market) -> str:
    """Serialize to the JSON market format (round-trips exactly)."""
    payload = {
        "dim": market.dim,
        "customers": [
            {"price": p, "qualities": q}
            for p, q in zip(market.prices.tolist(), market.qualities.tolist())
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def market_to_csv(market: Market) -> str:
    """Serialize to the CSV market format (round-trips exactly)."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["price"] + [f"q{k + 1}" for k in range(market.dim)])
    # the csv module writes floats with repr, so every value round-trips
    writer.writerows(np.column_stack((market.prices, market.qualities)).tolist())
    return out.getvalue()
