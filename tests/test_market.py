import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import productdesign as pd
from productdesign import market as market_mod
from conftest import customers_of, market_of


class TestDomainTypes:
    def test_customer_rejects_nonfinite_price(self):
        with pytest.raises(ValueError):
            pd.Customer(float("nan"), (1.0,))
        with pytest.raises(ValueError):
            pd.Customer(float("inf"), (1.0,))

    def test_customer_rejects_bad_qualities(self):
        with pytest.raises(ValueError):
            pd.Customer(1.0, ())
        with pytest.raises(ValueError):
            pd.Customer(1.0, (1.0, float("nan")))

    def test_integers_past_float_range_are_value_errors(self):
        # float() of such an integer raises OverflowError, not ValueError
        cases = ((10**400, (1,)), (1, (10**400,)), (1, (2, -(10**400))))
        for cls in (pd.Customer, pd.Product):
            for price, qualities in cases:
                with pytest.raises(ValueError, match="too large for a float"):
                    cls(price, qualities)

    def test_product_mirrors_customer_validation(self):
        with pytest.raises(ValueError):
            pd.Product(float("-inf"), (0.0,))
        assert pd.Product(2, (1,)).qualities == (1.0,)

    def test_product_stores_zeros_as_positive_zero(self):
        p = pd.Product(-0.0, (-0.0, 0.0, -1.5))
        assert repr(p) == "Product(price=0.0, qualities=(0.0, 0.0, -1.5))"
        # a customer keeps its values, signs included
        c = pd.Customer(-0.0, (-0.0, 0.0))
        assert repr(c) == "Customer(price=-0.0, qualities=(-0.0, 0.0))"

    def test_customer_and_product_keep_their_own_identity(self):
        c, p = pd.Customer(2, (1,)), pd.Product(2, (1,))
        assert repr(c) == "Customer(price=2.0, qualities=(1.0,))"
        assert repr(p) == "Product(price=2.0, qualities=(1.0,))"
        assert c != p and len({c, p}) == 2
        with pytest.raises(dataclasses.FrozenInstanceError):
            c.price = 3.0

    def test_market_requires_uniform_dimension(self):
        with pytest.raises(pd.DimensionMismatchError):
            pd.Market([pd.Customer(1, (0.0,)), pd.Customer(1, (0.0, 0.0))])

    def test_market_rejects_empty(self):
        with pytest.raises(pd.EmptyMarketError):
            pd.Market([])

    def test_market_preserves_order_and_roundtrips_customers(self):
        m = market_of((3, [1]), (2, [0]))
        assert tuple(m) == (pd.Customer(3, (1,)), pd.Customer(2, (0,)))
        assert len(m) == 2 and m.dim == 1

    def test_market_equality_and_repr(self):
        m = market_of((3, [1, 2]), (2, [0, 0]))
        assert m == market_of((3, [1, 2]), (2, [0, 0]))
        assert m.__eq__((3, [1, 2])) is NotImplemented and m != "market"
        assert repr(m) == "Market(n=2, dim=2)"

    def test_market_arrays_read_only(self):
        m = market_of((3, [1]), (2, [0]))
        with pytest.raises(ValueError):
            m.prices[0] = 99.0
        with pytest.raises(ValueError):
            m.qualities[0, 0] = 99.0

    def test_market_rejects_dominated_customer(self):
        with pytest.raises(pd.ParetoViolationError) as info:
            market_of((2, [5]), (3, [1]))
        assert info.value.pair == (1, 0)

    def test_from_arrays_matches_constructor(self):
        a = pd.Market.from_arrays(np.array([3.0, 2.0]), np.array([[1.0], [0.0]]))
        assert a == market_of((3, [1]), (2, [0]))

    def test_from_arrays_rejects_scalar_qualities(self):
        with pytest.raises(pd.DimensionMismatchError, match="shape"):
            pd.Market.from_arrays([1.0], 5.0)

    def test_from_arrays_rejects_non_finite_values(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="finite"):
                pd.Market.from_arrays([bad, 2.0], [[1.0], [0.0]])
            with pytest.raises(ValueError, match="finite"):
                pd.Market.from_arrays([3.0, 2.0], [[1.0], [bad]])

    @pytest.mark.parametrize(
        "rows",
        [
            # one customer: 1 x (1e308 + 1e308) overflows
            [(1e308, [-1e308])],
            # two customers: 2 x (1e308 + 1) overflows
            [(1e308, [0.0]), (1e308, [1.0])],
            # d = 2: 3 x (4e307 + 1e307 + 1e307) overflows
            [(4e307, [1e307, 0.0]), (-4e307, [0.0, -1e307]), (0.0, [0.0, 0.0])],
        ],
    )
    def test_every_constructor_refuses_overflowing_magnitudes(self, rows):
        # n x (max |price| + sum_k max |q_k|) must be a finite float: it
        # bounds every cost, margin and profit a solver forms
        prices = [p for p, _ in rows]
        qualities = [q for _, q in rows]
        message = "too large: .* overflows a float"
        with pytest.raises(ValueError, match=message):
            market_of(*rows)
        for validate in (True, False):
            with pytest.raises(ValueError, match=message):
                pd.Market.from_arrays(prices, qualities, validate=validate)


class TestPpu:
    def test_single_quality(self):
        assert pd.ppu(pd.Product(2, (1,))) == 1.0

    def test_two_qualities(self):
        assert pd.ppu(pd.Product(10, (2, 3))) == 5.0

    def test_negative_margin_allowed(self):
        assert pd.ppu(pd.Product(1, (1, 1))) == -1.0

    def test_applies_to_customers(self):
        assert pd.ppu(pd.Customer(3, (1,))) == 2.0


class TestEvaluate:
    def test_two_buyers(self):
        m = market_of((3, [1]), (2, [0]))
        rep = pd.evaluate(m, pd.Product(2, (1,)))
        assert (rep.buyers, rep.profit) == (2, 2.0)

    def test_boundary_equalities_count(self):
        rep = pd.evaluate(market_of((2, [1])), pd.Product(2, (1,)))
        assert (rep.buyers, rep.profit) == (1, 1.0)

    def test_price_above_every_budget(self):
        rep = pd.evaluate(market_of((3, [1]), (2, [0])), pd.Product(4, (0,)))
        assert (rep.buyers, rep.profit) == (0, 0.0)

    def test_dimension_mismatch(self):
        with pytest.raises(pd.DimensionMismatchError):
            pd.evaluate(market_of((3, [1])), pd.Product(2, (1, 1)))

    def test_deterministic(self):
        m = pd.random_pareto_market(50, 2, seed=3)
        prod = pd.Product(20, (5, 5))
        assert pd.evaluate(m, prod) == pd.evaluate(m, prod)

    def test_profit_equals_margin_times_buyers(self):
        m = pd.random_pareto_market(40, 1, seed=5)
        rng = np.random.default_rng(0)
        for _ in range(200):
            prod = pd.Product(float(rng.integers(0, 120)), (float(rng.integers(0, 100)),))
            rep = pd.evaluate(m, prod)
            assert rep.profit == rep.ppu * rep.buyers

    def test_matches_a_scan_of_every_customer(self):
        # few distinct values, signed zeros and shared prices, so products
        # meet budgets and requirements with equality on every axis
        rng = np.random.default_rng(21)
        values = [-0.0, 0.0, 1.0, 2.5, 4.0]
        for case in range(400):
            d = 1 + case % 4
            n = int(rng.integers(1, 40))
            m = pd.prune_dominated(
                pd.Customer(
                    float(rng.choice(values) + rng.choice(values)),
                    tuple(float(v) for v in rng.choice(values, size=d)),
                )
                for _ in range(n)
            )
            customers = [m.customer(j) for j in range(len(m))]
            for _ in range(5):
                c = customers[int(rng.integers(len(customers)))]
                prod = pd.Product(
                    float(rng.choice([c.price, *values])),
                    tuple(float(rng.choice([v, *values])) for v in c.qualities),
                )
                buyers = sum(
                    c.price >= prod.price
                    and all(a <= b for a, b in zip(c.qualities, prod.qualities))
                    for c in customers
                )
                rep = pd.evaluate(m, prod)
                assert rep.buyers == buyers
                assert rep.profit == pd.ppu(prod) * buyers


class TestParetoValidation:
    def test_valid_pair(self):
        assert len(market_of((3, [1]), (2, [0]))) == 2

    def test_flags_dominated_pair(self):
        with pytest.raises(pd.ParetoViolationError) as info:
            pd.Market.from_arrays([2.0, 3.0], [[5.0, 5.0], [1.0, 1.0]])
        assert info.value.pair == (1, 0)

    def test_equal_prices_never_violate(self):
        assert len(market_of((5, [2]), (5, [7]))) == 2

    def test_empty_raises(self):
        with pytest.raises(pd.EmptyMarketError):
            pd.Market.from_arrays(np.empty(0), np.empty((0, 1)))


def _dense_dominated(prices, qualities):
    """Customers some other one undercuts while demanding strictly more in
    every quality, by comparing every pair."""
    dom = prices[:, None] < prices[None, :]
    for k in range(qualities.shape[1]):
        dom &= qualities[:, None, k] > qualities[None, :, k]
    return dom


def _pareto_markets(rng, d):
    """Each of :func:`_drawn_markets` as drawn, then stored by ascending
    price with equal-price ties in ascending and in descending first
    quality; the second sorted copy writes every other 0.0 price as -0.0,
    so a price group can hold both zeros."""
    for prices, q in _drawn_markets(rng, d):
        yield prices, q
        for sign in (1, -1):
            order = np.lexsort((sign * q[:, 0], prices))
            p = prices[order]
            if sign < 0:
                p[np.flatnonzero(p == 0)[::2]] = -0.0
            yield p, q[order]


def _drawn_markets(rng, d):
    """Tie-heavy integer, equal-price float and larger integer inputs, and
    for one quality larger float inputs with many equal-price groups."""
    for t in range(300):
        n = int(rng.integers(1, 40))
        k = int(rng.integers(1, 5))
        prices = rng.integers(0, k, n).astype(float)
        yield prices, rng.integers(0, k, (n, d)).astype(float)
        q = np.round(rng.uniform(0, 10, (n, d)), 2)
        prices = np.round(q.sum(axis=1) + rng.integers(-2, 3, n) * 0.5, 2)
        prices[rng.random(n) < 0.4] = prices[0]
        yield prices, q
    for n in (500, 1500, 3000):
        q = rng.integers(0, 101, (n, d)).astype(float)
        yield q.sum(axis=1) + rng.integers(1, 6, n), q
    if d == 1:
        for n in (4000, 5000, 6000):
            prices = rng.integers(0, n // 20, n) * 0.3
            yield prices, np.round(prices + rng.uniform(-3, 3, n), 1)[:, None]


class TestDominatedMask:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_dense_definition(self, d):
        flagged = 0
        for prices, q in _pareto_markets(np.random.default_rng(17), d):
            want = _dense_dominated(prices, q).any(axis=0)
            assert np.array_equal(market_mod._dominated_mask(prices, q), want)
            flagged += int(want.sum())
        assert flagged > 1000

    def test_one_quality_both_columns_ascending(self):
        # both columns stored ascending, with ties and both zeros (-0.0 ==
        # 0.0, so every other zero written as -0.0 keeps them ascending):
        # nobody is dominated; one adjacent swap out of order takes the
        # full pass, which must still match the dense definition
        rng = np.random.default_rng(19)
        flagged = 0
        for _ in range(300):
            n = int(rng.integers(1, 40))
            prices, q = (np.sort(rng.integers(-2, 4, n)).astype(float) for _ in "pq")
            for col in (prices, q):
                col[np.flatnonzero(col == 0)[::2]] = -0.0
            assert market_mod._ascending(prices) and market_mod._ascending(q)
            want = _dense_dominated(prices, q[:, None]).any(axis=0)
            assert not want.any()
            assert not market_mod._dominated_mask(prices, q[:, None]).any()
            steps = np.flatnonzero(q[1:] > q[:-1])
            if steps.size:
                i = int(rng.choice(steps))
                q[[i, i + 1]] = q[[i + 1, i]]
                want = _dense_dominated(prices, q[:, None]).any(axis=0)
                got = market_mod._dominated_mask(prices, q[:, None])
                assert np.array_equal(got, want)
                flagged += int(want.sum())
        assert flagged > 50

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_witness_is_lowest_dominated_and_its_lowest_dominator(self, d):
        checked = 0
        for prices, q in _pareto_markets(np.random.default_rng(18), d):
            dom = _dense_dominated(prices, q)
            if not dom.any():
                pd.Market.from_arrays(prices, q)
                continue
            i = int(np.argmax(dom.any(axis=0)))
            with pytest.raises(pd.ParetoViolationError) as info:
                pd.Market.from_arrays(prices, q)
            assert info.value.pair == (i, int(np.argmax(dom[:, i])))
            checked += 1
        assert checked > 100

    def test_dense_guard_trips_before_allocating(self, monkeypatch):
        n = 2000
        monkeypatch.setattr(market_mod, "PARETO_GUARD", n * n - 1)
        prices = np.arange(n, dtype=float)
        q = np.zeros((n, 3))
        tracemalloc.start()
        try:
            with pytest.raises(pd.GuardExceededError, match="4000000 comparisons"):
                market_mod._dominated_mask(prices, q)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100_000  # one block of the scan is n * 1000 bytes
        monkeypatch.setattr(market_mod, "PARETO_GUARD", n * n)
        assert not market_mod._dominated_mask(prices, q).any()

    @pytest.mark.parametrize(
        ("shuffled", "bytes_per_customer"), [(False, 16), (True, 40)]
    )
    def test_one_quality_scratch_memory(self, shuffled, bytes_per_customer):
        # a price column stored ascending is not sorted or gathered
        n = 200_000
        market = pd.random_pareto_market(n, 1, seed=8, value_range=(0, 20 * n))
        prices, q = market.prices, market.qualities
        if shuffled:
            order = np.random.default_rng(8).permutation(n)
            prices, q = prices[order], q[order]
        tracemalloc.start()
        try:
            mask = market_mod._dominated_mask(prices, q)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not mask.any()
        assert peak <= bytes_per_customer * n

    def test_guard_applies_to_three_or_more_qualities_only(self, monkeypatch):
        monkeypatch.setattr(market_mod, "PARETO_GUARD", 0)
        for d in (1, 2):
            assert len(pd.random_pareto_market(50, d, seed=d)) == 50
        with pytest.raises(pd.GuardExceededError):
            pd.random_pareto_market(50, 3, seed=3)


class TestPrune:
    def test_noop_on_valid_market(self):
        cs = customers_of((3, [1]), (2, [0]))
        assert pd.prune_dominated(cs) == pd.Market(cs)

    def test_drops_dominated_customer(self):
        m = pd.prune_dominated(customers_of((2, [5]), (3, [1])))
        assert tuple(m) == (pd.Customer(2, (5,)),)

    def test_singleton(self):
        m = pd.prune_dominated(customers_of((1, [0])))
        assert tuple(m) == (pd.Customer(1, (0,)),)

    def test_mixed_dimensions_rejected(self):
        cs = [pd.Customer(3, (1,)), pd.Customer(5, (1, 2))]
        with pytest.raises(pd.DimensionMismatchError, match="customer 1"):
            pd.prune_dominated(cs)

    def test_empty_rejected(self):
        with pytest.raises(pd.EmptyMarketError, match="prune"):
            pd.prune_dominated([])

    def test_result_always_validates(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            n = int(rng.integers(1, 20))
            cs = customers_of(
                *[
                    (float(rng.integers(0, 9)), [float(rng.integers(0, 6))])
                    for _ in range(n)
                ]
            )
            m = pd.prune_dominated(cs)
            assert pd.Market.from_arrays(m.prices, m.qualities) == m


def _naive_grid_optimum(market: pd.Market) -> pd.ProfitReport:
    """Independent oracle: evaluate every grid product one by one, highest
    price first and qualities in lexicographic order, keeping the first
    strict maximum, so ties go to the product the tie rule names."""
    import itertools

    prices = sorted(set(market.prices.tolist()), reverse=True)
    axes = [
        sorted(set(market.qualities[:, k].tolist())) for k in range(market.dim)
    ]
    best = None
    for price in prices:
        for qs in itertools.product(*axes):
            rep = pd.evaluate(market, pd.Product(price, qs))
            if best is None or rep.profit > best.profit:
                best = rep
    if best.profit <= 0:
        return pd.NO_PROFITABLE_PRODUCT
    return best


class TestBruteForceOptimum:
    def test_singleton(self):
        rep = pd.brute_force_optimum(market_of((2, [1])))
        assert rep.profit == 1.0 and rep.product == pd.Product(2, (1,))

    def test_tie_breaks_to_highest_price_then_smallest_qualities(self):
        # profit 2.0 is reached by (2,[0]), (2,[1]) and (3,[1]); the
        # highest price picks (3,[1]), as solve_exact_1d does.
        market = market_of((3, [1]), (2, [0]))
        rep = pd.brute_force_optimum(market)
        assert rep.profit == 2.0
        assert rep.product == pd.Product(3, (1,))
        assert repr(rep) == repr(pd.solve_exact_1d(market))
        # at the one price, (5,[1,2]), (5,[2,1]) and (5,[2,2]) all earn 2.0;
        # the lexicographically smallest qualities win
        rep = pd.brute_force_optimum(market_of((5, [1, 2]), (5, [2, 1])))
        assert rep.profit == 2.0
        assert rep.product == pd.Product(5, (1, 2))

    def test_duplicate_value_instance(self):
        rep = pd.brute_force_optimum(
            market_of((5.5, [5]), (5.5, [5]), (7.5, [7]))
        )
        assert rep.profit == 1.0 and rep.product == pd.Product(5.5, (5,))

    def test_matches_naive_reference(self):
        # whole reports, on generated markets with many ties and on pruned
        # integer markets with negative margins and signed zeros
        rng = np.random.default_rng(21)
        for i in range(90):
            d = 1 + i % 3
            n = int(rng.integers(1, 15 - 3 * d))
            if i % 2:
                seed = int(rng.integers(10**6))
                m = pd.random_pareto_market(n, d, seed=seed, value_range=(0, 6))
            else:
                q = rng.integers(-2, 4, size=(n, d)).astype(float)
                q[rng.random((n, d)) < 0.25] = -0.0
                p = q.sum(axis=1) + rng.integers(-3, 4, size=n)
                p[rng.random(n) < 0.2] = -0.0
                m = market_mod._prune_arrays(p, q)
            assert repr(pd.brute_force_optimum(m)) == repr(_naive_grid_optimum(m))

    def test_no_profit_marker(self):
        m = market_of((5, [5]), (3, [3]))  # both margins are zero
        rep = pd.brute_force_optimum(m)
        assert rep == pd.NO_PROFITABLE_PRODUCT
        assert rep.product is None

    def test_size_guard(self, monkeypatch):
        m = pd.random_pareto_market(40, 2, seed=0)
        monkeypatch.setattr(market_mod, "BRUTE_FORCE_GUARD", 10)
        with pytest.raises(pd.GuardExceededError, match="above the 10 guard"):
            pd.brute_force_optimum(m)

    def test_size_guard_counts_past_int64(self):
        # 8192**4 * 4096 == 2**64 cells: a 64-bit product wraps to 0
        n = 8192
        rows = np.arange(n, dtype=float)
        m = pd.Market.from_arrays(
            rows + 1.0,
            np.stack([rows, rows, rows, rows // 2], axis=1),
            validate=False,
        )
        with pytest.raises(pd.GuardExceededError, match="18446744073709551616 cells"):
            pd.brute_force_optimum(m)

    @staticmethod
    def one_price_market(n):
        # one price, so every customer is valid: qualities all distinct
        rng = np.random.default_rng(3)
        q = np.stack([rng.permutation(n), rng.permutation(n)], axis=1)
        return pd.Market.from_arrays(np.full(n, 3.0 * n), q)

    @pytest.mark.parametrize(
        ("n", "d", "one_price"),
        [
            pytest.param(100, 2, False, id="100-2"),
            pytest.param(40, 3, False, id="40-3"),
            pytest.param(1000, 2, True, id="one-price"),
        ],
    )
    def test_grid_memory(self, n, d, one_price):
        # every coordinate distinct: n**(d + 1) cells, or n**d at one
        # price, each held once as int64 buyers and once as float64 profit
        if one_price:
            m, cells = self.one_price_market(n), n**d
        else:
            m = pd.random_pareto_market(n, d, seed=3, value_range=(0, 10**6))
            cells = n ** (d + 1)
        assert cells == math.prod(
            np.unique(v).size for v in (m.prices, *m.qualities.T)
        )
        tracemalloc.start()
        try:
            rep = pd.brute_force_optimum(m)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rep.profit > 0
        assert peak <= 17 * cells

    def test_grid_candidates_never_beat_optimum(self):
        import itertools

        m = pd.random_pareto_market(25, 2, seed=9, value_range=(0, 10))
        best = pd.brute_force_optimum(m).profit
        prices = set(m.prices.tolist())
        axes = [set(m.qualities[:, k].tolist()) for k in range(2)]
        for price in prices:
            for qs in itertools.product(*axes):
                assert pd.evaluate(m, pd.Product(price, qs)).profit <= best


class TestGenerators:
    def test_random_market_single(self):
        m = pd.random_pareto_market(1, 1, seed=7)
        assert len(m) == 1 and pd.Market.from_arrays(m.prices, m.qualities) == m

    def test_random_market_d2_valid_and_profitable(self):
        m = pd.random_pareto_market(100, 2, seed=1)
        assert len(m) == 100
        assert pd.Market.from_arrays(m.prices, m.qualities) == m
        assert pd.max_ppu(m) > 0

    def test_random_market_deterministic(self):
        assert pd.random_pareto_market(64, 2, seed=5) == pd.random_pareto_market(
            64, 2, seed=5
        )
        assert pd.random_pareto_market(64, 1, seed=5) == pd.random_pareto_market(
            64, 1, seed=5
        )

    def test_random_market_d1_properties(self):
        m = pd.random_pareto_market(300, 1, seed=2)
        assert pd.Market.from_arrays(m.prices, m.qualities) == m
        assert (m.prices - m.qualities[:, 0] > 0).any()
        assert np.all(m.prices == np.round(m.prices))  # integer coordinates

    @pytest.mark.parametrize(
        "args", [(0, 2, (0, 100)), (5, 0, (0, 100)), (5, 2, (5, 1))]
    )
    def test_random_market_rejects_bad_arguments(self, args):
        n, d, value_range = args
        with pytest.raises(ValueError):
            pd.random_pareto_market(n, d, value_range=value_range)

    def test_element_uniqueness_construction(self):
        m = pd.element_uniqueness_instance([5, 5, 7])
        assert tuple(m) == (
            pd.Customer(5.5, (5,)),
            pd.Customer(5.5, (5,)),
            pd.Customer(7.5, (7,)),
        )

    def test_element_uniqueness_singleton(self):
        assert tuple(pd.element_uniqueness_instance([0])) == (
            pd.Customer(0.5, (0,)),
        )

    def test_element_uniqueness_all_distinct_optimum(self):
        rep = pd.brute_force_optimum(pd.element_uniqueness_instance([1, 2, 3]))
        assert rep.profit == 0.5

    def test_element_uniqueness_rejects_empty(self):
        with pytest.raises(pd.EmptyMarketError):
            pd.element_uniqueness_instance([])


class TestProfitProperties:
    def test_profit_bounded_by_best_margin_times_n(self):
        rng = np.random.default_rng(31)
        for seed in range(10):
            m = pd.random_pareto_market(60, 1, seed=seed, value_range=(0, 30))
            cap = len(m) * max(pd.ppu(c) for c in m)
            for _ in range(200):
                prod = pd.Product(
                    float(rng.integers(0, 100)), (float(rng.integers(0, 40)),)
                )
                rep = pd.evaluate(m, prod)
                if rep.buyers > 0:
                    assert rep.profit <= cap

    def test_lower_price_keeps_cheaper_quality_ahead(self):
        # once the lower quality is at least as profitable at some price,
        # it stays at least as profitable at every lower price
        rng = np.random.default_rng(8)
        checked = 0
        for seed in range(6):
            m = pd.random_pareto_market(60, 1, seed=seed, value_range=(0, 30))
            for _ in range(800):
                q_hi = float(rng.integers(0, 31))
                q_lo = q_hi - float(rng.integers(0, 10))
                price = q_hi + float(rng.integers(0, 20))
                p_hi = pd.evaluate(m, pd.Product(price, (q_hi,))).profit
                p_lo = pd.evaluate(m, pd.Product(price, (q_lo,))).profit
                if not 0 < p_hi <= p_lo:
                    continue
                lower = price - float(rng.integers(0, 15))
                checked += 1
                assert (
                    pd.evaluate(m, pd.Product(lower, (q_hi,))).profit
                    <= pd.evaluate(m, pd.Product(lower, (q_lo,))).profit
                )
        assert checked > 300


class TestFileFormats:
    def test_csv_roundtrip(self):
        m = pd.random_pareto_market(20, 2, seed=3)
        again = pd.Market.from_arrays(*market_mod._csv_arrays(pd.market_to_csv(m)))
        assert again == m

    def test_json_roundtrip(self):
        m = pd.random_pareto_market(20, 3, seed=3)
        again = pd.Market(pd.parse_customers_json(pd.market_to_json(m)))
        assert again == m

    def test_csv_single_row(self):
        prices, qualities = market_mod._csv_arrays("price,q1\n2,1\n")
        assert tuple(pd.Market.from_arrays(prices, qualities)) == (
            pd.Customer(2, (1,)),
        )

    def test_csv_rejects_bad_header(self):
        with pytest.raises(pd.MarketFormatError, match="header"):
            market_mod._csv_arrays("cost,q1\n2,1\n")

    def test_csv_rejects_non_numeric_with_line(self):
        with pytest.raises(pd.MarketFormatError, match="line 3"):
            market_mod._csv_arrays("price,q1\n2,1\nx,1\n")

    def test_csv_rejects_nonfinite(self):
        with pytest.raises(pd.MarketFormatError, match="non-finite"):
            market_mod._csv_arrays("price,q1\nnan,1\n")
        with pytest.raises(pd.MarketFormatError, match="non-finite"):
            market_mod._csv_arrays("price,q1\n2,inf\n")

    def test_json_rejects_nonfinite(self):
        with pytest.raises(pd.MarketFormatError):
            pd.parse_customers_json('{"dim": 1, "customers": [{"price": NaN, "qualities": [1]}]}')

    def test_json_dimension_mismatch_names_customer(self):
        text = (
            '{"dim": 2, "customers": ['
            '{"price": 5, "qualities": [1, 2]},'
            '{"price": 4, "qualities": [1]}]}'
        )
        with pytest.raises(pd.MarketFormatError, match="customer 1"):
            pd.parse_customers_json(text)

    def test_json_rejects_malformed(self):
        with pytest.raises(pd.MarketFormatError):
            pd.parse_customers_json("[1, 2]")
        with pytest.raises(pd.MarketFormatError):
            pd.parse_customers_json('{"dim": 0, "customers": []}')

    def test_float_values_roundtrip_exactly(self):
        m = pd.Market([pd.Customer(0.1 + 0.2, (1 / 3,))])
        csv_arrays = market_mod._csv_arrays(pd.market_to_csv(m))
        assert pd.Market.from_arrays(*csv_arrays) == m
        assert pd.Market(pd.parse_customers_json(pd.market_to_json(m))) == m
