"""Acceptance suite: one test per release criterion.

Each test prints a single ``[criterion N] PASS`` line with its headline
numbers (run pytest with ``-s`` to see them on success).  Tolerances are
fixed here, not tuned at runtime.
"""

import time

import numpy as np

import productdesign as pd

from conftest import vertex_oracle_depth


def test_criterion_1_exact_1d_matches_oracle():
    """solve_exact_1d names the exhaustive optimum on 200 seeded markets:
    the same product, margin, buyers and profit, to the last bit."""
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    for case in range(200):
        n = int(rng.integers(1, 401))
        spread = 25 if case % 2 else 5000  # tie-heavy and mostly-distinct mixes
        market = pd.random_pareto_market(n, 1, seed=case, value_range=(0, spread))
        swept = repr(pd.solve_exact_1d(market))
        brute = repr(pd.brute_force_optimum(market))
        assert swept == brute, f"case {case}: {swept} != {brute}"
    elapsed = time.perf_counter() - started
    print(f"[criterion 1] PASS — 200 markets, exact equality, {elapsed:.2f}s")


def test_criterion_2_duplicate_detection_gap():
    """Integer arrays map to markets whose optimum is 1/2 iff all values
    are distinct and at least 1 otherwise."""
    started = time.perf_counter()
    rng = np.random.default_rng(7)
    for case in range(50):
        length = int(rng.integers(2, 201))
        if case % 2 == 0:
            values = rng.choice(10 * length, size=length, replace=False)
            has_duplicate = False
        else:
            values = rng.integers(0, max(2, length // 2), size=length)
            values[rng.integers(length)] = values[rng.integers(length)]
            has_duplicate = len(set(values.tolist())) < length
        market = pd.element_uniqueness_instance(values.tolist())
        profit = pd.solve_exact_1d(market).profit
        if has_duplicate:
            assert profit >= 1.0, f"case {case}"
        else:
            assert profit == 0.5, f"case {case}"
    elapsed = time.perf_counter() - started
    print(f"[criterion 2] PASS — 50 reductions, {elapsed:.2f}s")


def test_criterion_3_lower_price_monotonicity_fuzz():
    """Once a cheaper-to-make quality is at least as profitable at some
    price, it stays so at every lower price: 1e5 sampled tuples, zero
    violations."""
    started = time.perf_counter()
    checked = 0
    violations = 0
    seed = 0
    while checked < 100_000:
        market = pd.random_pareto_market(80, 1, seed=seed, value_range=(0, 50))
        pi = market.prices
        qi = market.qualities[:, 0]
        rng = np.random.default_rng(555_000 + seed)
        batch = 8000
        q_hi = rng.uniform(qi.min() - 2.0, qi.max() + 2.0, batch)
        q_lo = q_hi - rng.uniform(0.0, 10.0, batch)
        price = q_hi + rng.uniform(0.0, 25.0, batch)
        lower = price - rng.uniform(0.0, 20.0, batch)

        def profit(p, q):
            buyers = ((pi[None, :] >= p[:, None]) & (qi[None, :] <= q[:, None])).sum(
                axis=1
            )
            return (p - q) * buyers

        ok = (profit(price, q_hi) > 0) & (profit(price, q_hi) <= profit(price, q_lo))
        bad = ok & (profit(lower, q_hi) > profit(lower, q_lo))
        checked += int(ok.sum())
        violations += int(bad.sum())
        seed += 1
    assert violations == 0
    elapsed = time.perf_counter() - started
    print(
        f"[criterion 3] PASS — {checked} tuples, 0 violations, {elapsed:.2f}s"
    )


def test_criterion_4_approximation_guarantee_d2():
    """eps=0.25, d=2: the approximation clears 0.75 x optimum on every
    market."""
    started = time.perf_counter()
    rng = np.random.default_rng(42)
    worst = 1.0
    for case in range(500):
        n = int(rng.integers(5, 51))
        market = pd.random_pareto_market(n, 2, seed=case, value_range=(0, 12))
        optimum = pd.brute_force_optimum(market).profit
        profit = pd.solve_approx(market, 0.25).profit
        assert profit >= 0.75 * optimum, f"case {case}"
        worst = min(worst, profit / optimum)
    elapsed = time.perf_counter() - started
    print(
        f"[criterion 4] PASS — 500 markets, "
        f"worst ratio {worst:.3f} >= 0.75, {elapsed:.2f}s"
    )


def test_criterion_5_approximation_guarantee_d3():
    """eps=0.5, d=3, exact depth: profit clears 0.5 x optimum."""
    started = time.perf_counter()
    rng = np.random.default_rng(5)
    worst = 1.0
    for case in range(20):
        n = int(rng.integers(4, 26))
        market = pd.random_pareto_market(n, 3, seed=case, value_range=(0, 8))
        optimum = pd.brute_force_optimum(market).profit
        got = pd.solve_approx(market, 0.5).profit
        assert got >= 0.5 * optimum, f"case {case}"
        worst = min(worst, got / optimum)
    elapsed = time.perf_counter() - started
    print(
        f"[criterion 5] PASS — 20 markets, worst ratio {worst:.3f} >= 0.5, "
        f"{elapsed:.2f}s"
    )


def test_criterion_6_depth_oracle_equivalence():
    """Grid-based exact depth equals the boundary-vertex oracle on 100
    seeded plane instances."""
    started = time.perf_counter()
    rng = np.random.default_rng(6)
    for case in range(100):
        n = int(rng.integers(2, 41))
        draw = np.random.default_rng(case)
        sims = pd.SimplexArray(draw.uniform(0, 6, (n, 2)), draw.uniform(0.5, 3, n))
        assert pd.deepest_point_exact(sims).depth == vertex_oracle_depth(sims), (
            f"case {case}"
        )
    elapsed = time.perf_counter() - started
    print(f"[criterion 6] PASS — 100 instances, exact equality, {elapsed:.2f}s")


def test_criterion_7_arrangement_vertex_bound():
    """Arrangement vertices stay below 100 * n * k on depth-controlled
    families; observed ratios are logged."""
    started = time.perf_counter()
    ratios = []
    for k in (2, 4, 8):
        for n in (100, 400, 1600):
            family = pd.depth_controlled_family(n, k, seed=n + k)
            stats = pd.arrangement_stats(family)
            assert stats.max_depth == k, f"family n={n} k={k}"
            assert stats.vertex_count <= 100 * n * k, f"family n={n} k={k}"
            ratios.append((n, k, round(stats.vertex_count / (n * k), 3)))
    elapsed = time.perf_counter() - started
    print(
        f"[criterion 7] PASS — vertex_count/(n*k) observed {ratios}, "
        f"bound 100, {elapsed:.2f}s"
    )


def test_criterion_8_sweep_scaling():
    """Doubling n at most triples the sweep's runtime, and n=1e6 solves
    in under ten seconds."""
    # Warm up on a fixed small market so one-time costs are not billed to
    # the first size.
    pd.solve_exact_1d(pd.random_pareto_market(5000, 1, seed=0, value_range=(0, 10**6)))
    timings = []
    for n in (250_000, 500_000, 1_000_000):
        market = pd.random_pareto_market(n, 1, seed=8, value_range=(0, 20 * n))
        best = float("inf")
        for _ in range(2):
            begin = time.perf_counter()
            pd.solve_exact_1d(market)
            best = min(best, time.perf_counter() - begin)
        timings.append((n, best))
    for (n_small, t_small), (n_big, t_big) in zip(timings, timings[1:]):
        assert t_big / t_small <= 3.0, f"{n_small}->{n_big}: x{t_big / t_small:.2f}"
    assert timings[-1][1] < 10.0, f"n=1e6 took {timings[-1][1]:.2f}s"
    pretty = ", ".join(f"n={n}: {t * 1000:.0f}ms" for n, t in timings)
    print(f"[criterion 8] PASS — {pretty}")


def test_criterion_9_projection_identity():
    """Containment in a projected homothet coincides with consideration
    of the lifted product: 1e5 random triples, zero violations."""
    started = time.perf_counter()
    checked = 0
    seed = 0
    while checked < 100_000:
        market = pd.random_pareto_market(40, 2, seed=seed, value_range=(0, 15))
        prices = market.prices
        quals = market.qualities
        margins = prices - quals.sum(axis=1)
        top = float(margins.max())
        rng = np.random.default_rng(777_000 + seed)
        batch = 4000
        cs = rng.uniform(0.01, top, batch)
        xs = rng.uniform(-1.0, 18.0, (batch, 2))
        # one random customer per triple
        js = rng.integers(0, len(market), batch)
        corner = quals[js]
        size = margins[js] - cs  # negative when the customer sits below the level
        contained = (xs >= corner).all(axis=1) & (
            (xs - corner).sum(axis=1) <= size
        )
        lifted_price = cs + xs.sum(axis=1)
        considered = (lifted_price <= prices[js]) & (xs >= corner).all(axis=1)
        assert (contained == considered).all()
        checked += batch
        seed += 1

    # push a sample of the same triples through the public scalar API
    market = pd.random_pareto_market(40, 2, seed=123, value_range=(0, 15))
    rng = np.random.default_rng(99)
    scalar_checked = 0
    for _ in range(2000):
        c = float(rng.uniform(0.01, pd.max_ppu(market)))
        x = tuple(float(v) for v in rng.uniform(-1.0, 18.0, 2))
        projected = dict()
        for s, j in pd.project_customers(market, c):
            projected[j] = pd.contains(s, x)
        product = pd.lift_point(x, c)
        for j in range(len(market)):
            considered = product.price <= market.prices[j] and all(
                product.qualities[k] >= market.qualities[j, k] for k in range(2)
            )
            assert projected.get(j, False) == considered
            scalar_checked += 1
    elapsed = time.perf_counter() - started
    print(
        f"[criterion 9] PASS — {checked} vectorized + {scalar_checked} scalar "
        f"checks, 0 violations, {elapsed:.2f}s"
    )
