import math
import tracemalloc

import numpy as np
import pytest

import productdesign as pd
from conftest import (
    chain_optimum,
    deep_chain,
    deep_chain_solve,
    float_market,
    market_of,
)
from productdesign import market as market_mod
from productdesign import simplices


class TestMaxPpu:
    def test_two_customers(self):
        assert pd.max_ppu(market_of((3, [1]), (2, [0]))) == 2.0

    def test_zero_margin(self):
        assert pd.max_ppu(market_of((2, [1, 1]))) == 0.0

    def test_negative_margin(self):
        assert pd.max_ppu(market_of((1, [2]))) == -1.0

    def test_zero_margin_is_positive_zero(self):
        # -0.0 less a cost of 0.0 is -0.0
        for pairs in ([(-0.0, [-0.0])], [(-0.0, [0.0, -0.0])]):
            assert math.copysign(1.0, pd.max_ppu(market_of(*pairs))) == 1.0


class TestLevelSchedule:
    def test_halving_example(self):
        assert pd.level_schedule(8.0, 0.5, 4) == (8.0, 4.0, 2.0)

    def test_single_customer(self):
        assert pd.level_schedule(5.0, 0.5, 1) == (5.0,)

    def test_strictly_decreasing_and_positive(self):
        for eps in (0.1, 0.25, 0.5, 0.9):
            for n in (1, 2, 7, 100, 1000):
                levels = pd.level_schedule(3.0, eps, n)
                assert all(c > 0 for c in levels)
                assert all(a > b for a, b in zip(levels, levels[1:]))

    def test_floor_reaches_r_over_n(self):
        for eps in (0.1, 0.3, 0.5):
            for n in (2, 10, 64, 1000):
                levels = pd.level_schedule(1.0, eps, n)
                assert levels[-1] <= 1.0 / n

    def test_length_grows_as_epsilon_shrinks(self):
        lengths = [
            len(pd.level_schedule(1.0, eps, 500))
            for eps in (0.5, 0.25, 0.1, 0.05)
        ]
        assert lengths == sorted(lengths)

    def test_guard_counts_levels_times_customers(self, monkeypatch):
        monkeypatch.setattr(simplices, "EXACT_DEPTH_GUARD", 12)
        assert len(pd.level_schedule(8.0, 0.5, 4)) == 3
        monkeypatch.setattr(simplices, "EXACT_DEPTH_GUARD", 11)
        with pytest.raises(pd.GuardExceededError, match="3 levels over 4 customers"):
            pd.level_schedule(8.0, 0.5, 4)

    def test_epsilon_near_the_float_spacing_is_refused_at_once(self):
        # 1 - eps is within a few spacings of 1: the ladder would hold
        # about 1e15 levels, and the count must not be reached one by one
        for eps in (2.0**-53, 2.3e-16, 1e-15, 1e-12):
            with pytest.raises(pd.GuardExceededError, match="5 customers"):
                pd.level_schedule(1.0, eps, 5)
        with pytest.raises(pd.GuardExceededError):
            pd.solve_approx(pd.random_pareto_market(5, 2, seed=1), 1e-15)
        # no ladder shrinks when 1 - eps rounds to 1, even for one customer
        with pytest.raises(ValueError, match="and 1 - eps < 1, got 1e-17"):
            pd.level_schedule(1.0, 1e-17, 1)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            pd.level_schedule(0.0, 0.5, 4)
        with pytest.raises(ValueError):
            pd.level_schedule(1.0, 1.5, 4)
        with pytest.raises(ValueError):
            pd.level_schedule(1.0, 0.5, 0)


class TestProjection:
    def test_positive_slack(self):
        m = market_of((10, [2, 3]))
        [(s, j)] = pd.project_customers(m, 4.0)
        assert s == pd.SimplexHomothet((2.0, 3.0), 1.0) and j == 0

    def test_boundary_becomes_point(self):
        [(s, _)] = pd.project_customers(market_of((10, [2, 3])), 5.0)
        assert s.size == 0.0

    def test_below_level_omitted(self):
        assert pd.project_customers(market_of((10, [2, 3])), 6.0) == []

    def test_level_constant_must_be_positive(self):
        with pytest.raises(ValueError):
            pd.project_customers(market_of((10, [2, 3])), 0.0)


class TestLift:
    def test_arithmetic(self):
        prod = pd.lift_point((2.5, 3.2), 4.0)
        assert prod == pd.Product(9.7, (2.5, 3.2))

    def test_origin(self):
        assert pd.lift_point((0.0, 0.0, 0.0), 1.0) == pd.Product(1.0, (0, 0, 0))

    def test_lifted_margin_equals_level(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            x = rng.integers(0, 20, 3).astype(float)
            c = float(rng.integers(1, 9))
            assert pd.ppu(pd.lift_point(x, c)) == c


class TestProjectionIdentity:
    def test_containment_iff_consideration(self):
        rng = np.random.default_rng(7)
        trials = 0
        for seed in range(20):
            m = pd.random_pareto_market(30, 2, seed=seed, value_range=(0, 12))
            r = pd.max_ppu(m)
            projected_cache = {}
            for _ in range(400):
                c = float(rng.uniform(0.01, r))
                x = tuple(float(v) for v in rng.uniform(-1, 15, 2))
                if c not in projected_cache:
                    projected_cache[c] = pd.project_customers(m, c)
                projected = projected_cache[c]
                product = pd.lift_point(x, c)
                considered = {
                    j
                    for j in range(len(m))
                    if product.price <= m.prices[j]
                    and all(
                        product.qualities[k] >= m.qualities[j, k] for k in range(2)
                    )
                }
                contained = {j for s, j in projected if pd.contains(s, x)}
                assert contained == considered
                trials += 1
        assert trials == 8000

    def test_buyers_equal_depth(self):
        for seed in range(10):
            m = pd.random_pareto_market(25, 2, seed=seed, value_range=(0, 10))
            r = pd.max_ppu(m)
            for c in (r, r / 2, r / 4):
                projected = pd.project_customers(m, c)
                if not projected:
                    continue
                sims = pd.SimplexArray(
                    [s.corner for s, _ in projected], [s.size for s, _ in projected]
                )
                res = pd.deepest_point_exact(sims)
                rep = pd.evaluate(m, pd.lift_point(res.point, c))
                assert rep.buyers == res.depth


class TestSolveApprox:
    def test_no_profit_marker(self):
        assert pd.solve_approx(market_of((1, [2])), 0.5) == pd.NO_PROFITABLE_PRODUCT

    def test_rejects_bad_epsilon_and_mode(self):
        m = market_of((3, [1]))
        with pytest.raises(ValueError):
            pd.solve_approx(m, 1.5)
        with pytest.raises(ValueError):
            pd.solve_approx(m, 0.0)
        # a depth mode is no longer accepted
        with pytest.raises(TypeError):
            pd.solve_approx(m, 0.5, "exact")
        with pytest.raises(TypeError):
            pd.solve_approx_detailed(m, 0.5, "exact")

    def test_epsilon_whose_ladder_share_rounds_to_zero_is_named(self):
        # 1 - 1e-17 is 1.0 in floating point, so the ladder cannot shrink
        for m in (market_of((3, [1])), market_of((1, [2]))):
            with pytest.raises(ValueError, match="epsilon 1e-17 is too small"):
                pd.solve_approx(m, 1e-17)

    def test_fine_ladder_is_refused_before_it_is_built(self):
        # at eps = 1e-9 the ladder would hold about 6.9e9 margins
        m = pd.random_pareto_market(1000, 2, seed=1)
        tracemalloc.start()
        try:
            with pytest.raises(pd.GuardExceededError, match="1000 customers"):
                pd.solve_approx_detailed(m, 1e-9)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100_000  # the margins alone are 8000 bytes

    @pytest.mark.parametrize(
        "customer", [(3.57, [1.16]), (5.69, [0.93, 0.46]), (7.95, [0.29, 2.74, 0.03])]
    )
    def test_single_customer_gets_their_own_offer(self, customer):
        # fl(fl(p - S) + S) > p here, so a product lifted from the top
        # margin is priced above the one budget
        m = market_of(customer)
        assert pd.solve_approx(m, 0.25).profit == pd.brute_force_optimum(m).profit

    def test_top_margin_is_reached_at_nine_qualities(self):
        # numpy's pairwise row sum differs from axis order from d = 8 on
        rng = np.random.default_rng(3)
        for case in range(400):
            q = rng.uniform(0, 1, size=9)
            p = rng.uniform(q.sum(), q.sum() + 1)
            m = pd.Market.from_arrays([p], [q])
            top = pd.ppu(m.customer(0))
            assert pd.max_ppu(m) == top == pd.solve_approx(m, 0.25).profit, case

    def test_profit_is_reevaluation_of_product(self):
        for seed in range(8):
            m = pd.random_pareto_market(30, 2, seed=seed)
            rep = pd.solve_approx(m, 0.25)
            assert rep.profit == pd.evaluate(m, rep.product).profit

    def test_exact_mode_guarantee_d2(self):
        for seed in range(20):
            m = pd.random_pareto_market(30, 2, seed=seed, value_range=(0, 12))
            opt = pd.brute_force_optimum(m).profit
            assert pd.solve_approx(m, 0.25).profit >= 0.75 * opt

    def test_exact_mode_guarantee_d3(self):
        for seed in range(8):
            m = pd.random_pareto_market(18, 3, seed=seed, value_range=(0, 8))
            opt = pd.brute_force_optimum(m).profit
            assert pd.solve_approx(m, 0.5).profit >= 0.5 * opt

    def test_uniform_margin_market_is_solved_exactly(self):
        # every customer has margin 5; the top level alone carries the
        # optimum, so exact-depth mode must recover it in full
        m = market_of((7, [1, 1]), (7, [1, 1]), (9, [2, 2]))
        opt = pd.brute_force_optimum(m).profit
        assert opt == 10.0
        assert pd.solve_approx(m, 0.25).profit == opt

    def test_level_guarantee_lemma(self):
        # max over levels of (constant x exact depth) covers the optimum
        # up to the ladder's own tolerance
        for seed in range(12):
            for d in (1, 2, 3):
                m = pd.random_pareto_market(
                    16, d, seed=seed, value_range=(0, 8)
                )
                opt = pd.brute_force_optimum(m).profit
                eps_level = 0.25
                levels = pd.level_schedule(pd.max_ppu(m), eps_level, len(m))
                best = 0.0
                for c in levels:
                    projected = pd.project_customers(m, c)
                    if projected:
                        sims = pd.SimplexArray(
                            [s.corner for s, _ in projected],
                            [s.size for s, _ in projected],
                        )
                        depth = pd.deepest_point_exact(sims).depth
                        best = max(best, c * depth)
                assert best >= (1 - eps_level) * opt - 1e-9

    def test_d1_cross_validates_with_sweep(self):
        for seed in range(12):
            m = pd.random_pareto_market(150, 1, seed=seed, value_range=(0, 60))
            exact = pd.solve_exact_1d(m).profit
            got = pd.solve_approx(m, 0.25).profit
            assert exact >= got >= 0.75 * exact

    def test_monotone_epsilon_never_shortens_ladder(self):
        m = pd.random_pareto_market(40, 2, seed=0)
        lengths = []
        for eps in (0.6, 0.4, 0.2, 0.1):
            _, levels, ladder = pd.solve_approx_detailed(m, eps)
            lengths.append(len(levels) + ladder.levels_skipped)
        assert lengths == sorted(lengths)

    def test_ladder_takes_the_whole_epsilon(self):
        # searched plus skipped levels are the ladder of ratio 1 - eps
        rng = np.random.default_rng(21)
        markets = [
            pd.random_pareto_market(n, d, seed=n + d, value_range=(0, 60))
            for n, d in ((200, 1), (300, 2), (120, 3))
        ] + [float_market(rng, n, d) for n, d in ((300, 1), (400, 2), (150, 3))]
        for m in markets:
            for eps in (0.1, 0.25, 0.5, 0.9):
                _, levels, ladder = pd.solve_approx_detailed(m, eps)
                ladder_length = len(pd.level_schedule(pd.max_ppu(m), eps, len(m)))
                assert len(levels) + ladder.levels_skipped == ladder_length

    def test_detailed_outcomes_are_consistent(self):
        m = pd.random_pareto_market(20, 2, seed=3)
        rep, levels, _ = pd.solve_approx_detailed(m, 0.25)
        assert levels, "expected at least one searched level"
        for lv in levels:
            assert lv.profit == pd.evaluate(m, lv.product).profit
            assert math.isclose(pd.ppu(lv.product), lv.constant, rel_tol=1e-12)
        assert rep.profit >= max(lv.profit for lv in levels)


class TestChainOracle:
    @staticmethod
    def small_chain(seed: int, d: int) -> pd.Market:
        """A pruned strict chain of integers with price ties and some
        negative margins."""
        n = 20 if d == 2 else 12
        rng = np.random.default_rng(seed)
        q = np.stack([np.sort(rng.choice(60, n, replace=False)) for _ in range(d)], 1)
        prices = q.sum(axis=1) + rng.integers(-3, 6, n)
        return market_mod._prune_arrays(prices.astype(float), q.astype(float))

    def test_reduction_equals_the_exhaustive_oracle(self):
        zeros = tied = negative = 0
        for seed in range(300):
            for d in (2, 3):
                m = self.small_chain(seed, d)
                exact = pd.brute_force_optimum(m).profit
                assert chain_optimum(m) == exact, (seed, d)
                # every zero quality written as -0.0
                q = np.where(m.qualities == 0, -0.0, m.qualities)
                signed = pd.Market.from_arrays(m.prices, q)
                assert chain_optimum(signed) == exact, (seed, d)
                assert pd.brute_force_optimum(signed).profit == exact, (seed, d)
                zeros += bool((m.qualities == 0).any())
                tied += np.unique(m.prices).size < len(m)
                negative += bool((m.prices < m.qualities.sum(axis=1)).any())
        assert min(zeros, tied, negative) > 0

    @pytest.mark.parametrize(("n", "d"), [(4000, 2), (1000, 3)])
    def test_approx_keeps_its_ratio_on_deep_chains(self, n, d):
        report, _ = deep_chain_solve(n, d)
        exact = chain_optimum(deep_chain(n, d))
        assert 0.75 * exact <= report.profit <= exact
