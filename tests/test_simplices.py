import itertools

import numpy as np
import pytest

import productdesign as pd
from productdesign import simplices
from productdesign.simplices import EXACT_DEPTH_GUARD

from conftest import (
    arrangement_oracle,
    depth_at,
    grid_scan_deepest,
    vertex_oracle_depth,
)

S = pd.SimplexHomothet

FAMILIES = ("integer", "float", "step", "zero_size", "duplicate")
# plus a family whose sums round at every step, for the pair counts
PAIR_FAMILIES = FAMILIES + ("huge",)


def family_homothets(rng, family: str, n: int, d: int) -> pd.SimplexArray:
    """Random homothets whose coordinates stress one kind of input."""
    if family == "integer":
        corners = rng.integers(0, 10, (n, d)).astype(float)
        sizes = rng.integers(0, 5, n).astype(float)
    elif family == "float":
        corners = rng.uniform(0, 8, (n, d))
        sizes = rng.uniform(0, 3, n)
    elif family == "step":  # 0.01 steps: sums that round
        corners = np.round(rng.uniform(0, 1, (n, d)), 2)
        sizes = np.round(rng.uniform(0, 0.5, n), 2)
    elif family == "huge":  # x small, last axis near 2**52: sums round
        corners = rng.uniform(0, 8, (n, d))
        corners[:, -1] += 2.0**52
        sizes = rng.uniform(0, 3, n)
    elif family == "zero_size":
        corners = rng.integers(0, 6, (n, d)).astype(float)
        sizes = np.zeros(n)
    else:  # duplicate corners drawn from a few values
        corners = rng.integers(0, 3, (n, d)) * 0.1
        sizes = rng.integers(0, 4, n) * 0.1
    return pd.SimplexArray(corners, sizes)


class TestSimplexType:
    def test_validation(self):
        with pytest.raises(ValueError):
            S((), 1.0)
        with pytest.raises(ValueError):
            S((0.0,), -0.5)
        with pytest.raises(ValueError):
            S((float("nan"), 0.0), 1.0)

    def test_degenerate_point_allowed(self):
        s = S((2.0, 3.0), 0.0)
        assert pd.contains(s, (2.0, 3.0)) and not pd.contains(s, (2.0, 3.1))


class TestContains:
    def test_boundary_sum(self):
        assert pd.contains(S((0, 0), 2), (1, 1))

    def test_outside_sum(self):
        assert not pd.contains(S((0, 0), 2), (1.5, 1))

    def test_corner_itself(self):
        assert pd.contains(S((2, 3), 1), (2, 3))

    def test_dimension_mismatch(self):
        with pytest.raises(pd.DimensionMismatchError):
            pd.contains(S((0, 0), 1), (0, 0, 0))


class TestIntersects:
    def test_touching_counts(self):
        assert pd.intersects(S((0, 0), 1), S((0.5, 0.5), 1))

    def test_disjoint(self):
        assert not pd.intersects(S((0, 0), 1), S((2, 2), 1))

    def test_reflexive(self):
        s = S((1.5, -2.0), 0.25)
        assert pd.intersects(s, s)

    def test_dimension_mismatch(self):
        with pytest.raises(pd.DimensionMismatchError):
            pd.intersects(S((0,), 1), S((0, 0), 1))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_agrees_with_pair_grid_candidates(self, d):
        # intersection <=> some combination of the two corners' per-axis
        # values lies in both regions
        sims = pd.random_homothets(24, d, seed=d)
        for a, b in itertools.combinations(sims, 2):
            grid = itertools.product(
                *[(a.corner[k], b.corner[k]) for k in range(d)]
            )
            witness = any(pd.contains(a, x) and pd.contains(b, x) for x in grid)
            assert witness == pd.intersects(a, b)


class TestArrangementStats:
    def test_disjoint_pair(self):
        st = pd.arrangement_stats(pd.SimplexArray([(0, 0), (5, 5)], [1, 1]))
        assert st.vertex_count == 0
        assert st.pairwise_intersections == 0
        assert st.max_depth == 1

    def test_two_overlapping_triangles(self):
        # boundaries cross exactly at (1.5, 0.5) and (0.5, 1.5)
        st = pd.arrangement_stats(
            pd.SimplexArray([(0.0, 0.0), (0.5, 0.5)], [2.0, 2.0])
        )
        assert st.vertex_count == 2
        assert st.pairwise_intersections == 1
        assert st.max_depth == 2

    def test_translates_sharing_a_point(self):
        n = 12
        sims = pd.SimplexArray([(0.1 * j, -0.1 * j) for j in range(n)], [4.0] * n)
        st = pd.arrangement_stats(sims)
        assert st.max_depth == n
        assert st.pairwise_intersections == n * (n - 1) // 2
        assert 0 < st.vertex_count <= 100 * n * n

    def test_vertex_path_restricted_to_plane(self):
        for d in (1, 3):
            sims = pd.random_homothets(10, d, seed=0)
            st = pd.arrangement_stats(sims)
            assert st.vertex_count is None
            assert st.pairwise_intersections == arrangement_oracle(sims)[0]

    def test_depth_controlled_family_hits_target(self):
        for n, k in ((60, 3), (100, 8)):
            st = pd.arrangement_stats(pd.depth_controlled_family(n, k, seed=n))
            assert st.max_depth == k

    def test_max_depth_matches_exact_query(self):
        for seed in range(15):
            rng = np.random.default_rng(seed)  # denser than random_homothets
            sims = pd.SimplexArray(rng.uniform(0, 5, (30, 2)), rng.uniform(0.5, 3, 30))
            st = pd.arrangement_stats(sims)
            assert st.max_depth == pd.deepest_point_exact(sims).depth

    @pytest.mark.parametrize("family", PAIR_FAMILIES)
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_all_pairs_oracle(self, d, family):
        rng = np.random.default_rng(200 + 10 * d + PAIR_FAMILIES.index(family))
        sims = family_homothets(rng, family, 150, d)
        st = pd.arrangement_stats(sims)
        pairs, vertices = arrangement_oracle(sims)
        assert st.pairwise_intersections == pairs
        assert st.vertex_count == (vertices if d == 2 else None)

    def test_rounded_sums_count_like_intersects(self):
        # x + s = 1 < x' before rounding; every sum rounds to 2**52 + 1
        sims = pd.SimplexArray([(0.0, 2.0**52), (1.0000000000000002, 2.0**52)], [1, 1])
        a, b = sims
        assert pd.intersects(a, b)
        st = pd.arrangement_stats(sims)
        assert st.max_depth == 2
        assert st.pairwise_intersections == 1

    def test_guard_trips_before_expanding(self, monkeypatch):
        # one vertical line of unit triangles 10 apart: every one of the
        # 3.1e8 pairs is a candidate and none intersects
        n = 25_000
        sims = pd.SimplexArray(np.c_[np.zeros(n), 10.0 * np.arange(n)], np.ones(n))

        def no_expansion(*args, **kwargs):
            raise AssertionError("expanded past the guard")

        monkeypatch.setattr(np, "maximum", no_expansion)
        with pytest.raises(pd.GuardExceededError):
            pd.arrangement_stats(sims)


class TestSimplexArray:
    def test_items_match_objects(self):
        arr = pd.random_homothets(20, 3, seed=2)
        sims = [S(tuple(c), s) for c, s in zip(arr.corners, arr.sizes)]
        assert len(arr) == 20
        assert list(arr) == sims
        assert arr[4] == sims[4]
        assert list(arr[2:5]) == sims[2:5]
        mask = np.arange(20) % 3 == 0
        assert list(arr[mask]) == [s for s, keep in zip(sims, mask) if keep]

    def test_validation(self):
        with pytest.raises(ValueError):
            pd.SimplexArray(np.zeros((3, 0)), np.zeros(3))
        with pytest.raises(pd.DimensionMismatchError):
            pd.SimplexArray(np.zeros((3, 2)), np.zeros(2))
        with pytest.raises(ValueError):
            pd.SimplexArray([[0.0, 1.0]], [-0.5])
        with pytest.raises(ValueError):
            pd.SimplexArray([[float("nan"), 1.0]], [1.0])
        with pytest.raises(ValueError):  # ragged corners of mixed dimension
            pd.SimplexArray([[0.0, 0.0], [0.0]], [1.0, 1.0])

    def test_arrays_are_read_only_copies(self):
        corners = np.zeros((2, 2))
        arr = pd.SimplexArray(corners, [1.0, 2.0])
        corners[0, 0] = 5.0
        assert arr[0].corner == (0.0, 0.0)
        with pytest.raises(ValueError):
            arr.sizes[0] = 3.0

    def test_queries_take_arrays_only(self):
        arr = pd.random_homothets(30, 2, seed=6)
        for query in (pd.deepest_point_exact, pd.arrangement_stats):
            with pytest.raises(TypeError, match="SimplexArray"):
                query(list(arr))
        with pytest.raises(ValueError):
            pd.deepest_point_exact(arr[:0])


class TestDeepestPointExact:
    def test_single_simplex(self):
        res = pd.deepest_point_exact(pd.SimplexArray([(0, 0)], [1]))
        assert res == pd.DepthResult((0.0, 0.0), 1)

    def test_three_triangles(self):
        res = pd.deepest_point_exact(
            pd.SimplexArray([(0, 0), (0.2, 0), (0, 0.2)], [1, 1, 1])
        )
        assert res.point == (0.2, 0.2) and res.depth == 3

    def test_disjoint(self):
        sims = pd.SimplexArray([(0, 0), (5, 5)], [1, 1])
        assert pd.deepest_point_exact(sims).depth == 1

    def test_lexicographic_tie_break(self):
        res = pd.deepest_point_exact(pd.SimplexArray([(0, 0), (3, 3)], [1, 1]))
        assert res.point == (0.0, 0.0)  # both corners reach depth 1
        res = pd.deepest_point_exact(pd.SimplexArray([(1, 0), (0, 1)], [0, 0]))
        assert res.point == (0.0, 1.0)
        # depth-2 points (0, 1, 5) and (0, 2, 0): the smaller second
        # coordinate wins although its last coordinate is larger
        res = pd.deepest_point_exact(
            pd.SimplexArray([(0, 2, 0), (0, 2, 0), (0, 1, 5), (0, 1, 5)], [0] * 4)
        )
        assert res == pd.DepthResult((0.0, 1.0, 5.0), 2)

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_grid_scan(self, d, family):
        rng = np.random.default_rng(100 * d + FAMILIES.index(family))
        for _ in range(40):
            sims = family_homothets(rng, family, int(rng.integers(1, 40)), d)
            res = pd.deepest_point_exact(sims)
            assert (res.point, res.depth) == grid_scan_deepest(sims)

    def test_windowed_expansion_matches_grid_scan(self, monkeypatch):
        # a tiny pair budget makes every expansion split into many key
        # ranges; a zero cell threshold ranks the row keys, as the largest
        # grids do; d = 5 draws from five values per axis, so the scan
        # stays cheap
        rng = np.random.default_rng(5)
        few = [0.0, 0.1, 0.2, 0.3, 1.0]
        for cells, budget in itertools.product((1 << 61, 0), (1, 3, 40, 1 << 17)):
            monkeypatch.setattr(simplices, "_DIRECT_KEY_CELLS", cells)
            monkeypatch.setattr(simplices, "_PAIR_BUDGET", budget)
            for i in range(80):
                d = (2, 3, 4, 5)[i % 4]
                n = int(rng.integers(1, 30))
                if d == 5:
                    sims = pd.SimplexArray(
                        rng.choice(few, (n, d)), rng.choice(few, n)
                    )
                else:
                    sims = family_homothets(rng, FAMILIES[i % len(FAMILIES)], n, d)
                res = pd.deepest_point_exact(sims)
                assert (res.point, res.depth) == grid_scan_deepest(sims)

    def test_expansions_hold_the_pair_budget(self, monkeypatch):
        # every expansion holds at most `_PAIR_BUDGET` pairs, unless all of
        # them share one key, with and without ranked row keys
        expand = simplices._GridSlicer._expand
        oversized_single_keys = []

        def checked(self, k, sim, part, start, end):
            pairs = int((end - start).sum())
            if pairs > simplices._PAIR_BUDGET:
                assert int(end.max()) - int(start.min()) == 1, (
                    f"{pairs} pairs over several keys, budget "
                    f"{simplices._PAIR_BUDGET}"
                )
                oversized_single_keys.append(pairs)
            return expand(self, k, sim, part, start, end)

        monkeypatch.setattr(simplices._GridSlicer, "_expand", checked)
        rng = np.random.default_rng(29)
        for cells, budget in itertools.product((1 << 61, 0), (1, 3, 40, 100)):
            monkeypatch.setattr(simplices, "_DIRECT_KEY_CELLS", cells)
            monkeypatch.setattr(simplices, "_PAIR_BUDGET", budget)
            for i in range(30):
                d = 2 + i % 3
                family = FAMILIES[i % len(FAMILIES)]
                sims = family_homothets(rng, family, int(rng.integers(10, 40)), d)
                res = pd.deepest_point_exact(sims)
                assert res.depth == depth_at(sims, res.point)
        # duplicate corners put more pairs than a tiny budget on one key
        assert oversized_single_keys

    def test_rounded_sums_follow_the_grid_predicate(self):
        # 1e16 + 1.0 rounds down to 1e16, so the size-0 homothet at
        # (1e16, 0) holds (1e16, 0.5) and (1e16, 1.0) under the grid's sum
        sims = pd.SimplexArray(
            [(1e16, v) for v in (0.0, 0.5, 1.0, 1.5)] + [(0, 0)], [0, 0, 0, 0, 1]
        )
        res = pd.deepest_point_exact(sims)
        assert res == pd.DepthResult((1e16, 1.0), 3)
        assert (res.point, res.depth) == grid_scan_deepest(sims)
        rng = np.random.default_rng(9)
        values = [0.0, 1e-17, 3e-17, 1e-16, 0.1, 0.2, 0.3, 1.0, 1e16, 1e16 + 2]
        for i in range(150):
            d = 1 + i % 3
            n = int(rng.integers(1, 25))
            sims = pd.SimplexArray(
                rng.choice(values, (n, d)),
                rng.choice([0.0, 1e-16, 0.1, 1.0, 2.0, 1e16], n),
            )
            res = pd.deepest_point_exact(sims)
            assert (res.point, res.depth) == grid_scan_deepest(sims)

    def test_depth_is_the_contains_count(self, monkeypatch):
        # one float rule: the reported depth is the number of homothets
        # `contains` accepts at the reported point, and `intersects` holds
        # exactly when the pair's deepest point lies in both; under every
        # window and row-ranking setting, on sums that round
        rng = np.random.default_rng(17)
        values = [0.0, 1e-17, 3e-17, 1e-16, 0.1, 0.2, 0.3, 1.0, 1e16, 1e16 + 2]
        sizes = [0.0, 1e-16, 0.1, 1.0, 2.0, 1e16]
        for cells, budget in itertools.product((1 << 61, 0), (1, 3, 40, 1 << 17)):
            monkeypatch.setattr(simplices, "_DIRECT_KEY_CELLS", cells)
            monkeypatch.setattr(simplices, "_PAIR_BUDGET", budget)
            for i in range(50):
                d = 1 + i % 5
                n = int(rng.integers(1, 12))
                if i % 2:
                    sims = pd.SimplexArray(
                        rng.choice(values, (n, d)), rng.choice(sizes, n)
                    )
                else:  # two-decimal floats
                    sims = family_homothets(rng, "step", n, d)
                res = pd.deepest_point_exact(sims)
                assert res.depth == sum(pd.contains(s, res.point) for s in sims)
                for a, b in itertools.combinations(list(sims)[:5], 2):
                    pair = pd.deepest_point_exact(
                        pd.SimplexArray([a.corner, b.corner], [a.size, b.size])
                    )
                    assert pd.intersects(a, b) == (pair.depth == 2)

    def test_every_homothet_contains_its_corner(self):
        # numpy's pairwise row sum of these nine values rounds 4 below
        # their axis-order sum; the corner still lies in its own homothet
        corner = (2.0**53, 3, 3, -1, 2.0**53, -1, -1, -(2.0**53), 1)
        s = S(corner, 0.0)
        assert pd.contains(s, corner)
        sims = pd.SimplexArray([corner], [0.0])
        res = pd.deepest_point_exact(sims)
        assert res == pd.DepthResult(s.corner, 1)
        assert (res.point, res.depth) == grid_scan_deepest(sims)

    def test_high_dimensions_match_grid_scan(self):
        # d = 8 and 9, where numpy's row sums pair terms up: corners from
        # three values per axis, some far apart, so the sums round
        rng = np.random.default_rng(31)
        values = [-(2.0**53), -1.0, 0.0, 1.0, 3.0, 2.0**53]
        for i in range(40):
            d = 8 + i % 2
            n = int(rng.integers(1, 12))
            axis_values = [rng.choice(values, 3, replace=False) for _ in range(d)]
            corners = np.stack([rng.choice(v, n) for v in axis_values], axis=1)
            sims = pd.SimplexArray(corners, rng.choice([0.0, 1.0, 4.0], n))
            res = pd.deepest_point_exact(sims)
            assert (res.point, res.depth) == grid_scan_deepest(sims)

    def test_distinct_float_plane_beyond_the_grid_scan(self):
        # 4000 distinct values per axis: the grid scan would visit
        # 4000**2 cells 4000 times, far past the guard
        sims = pd.random_homothets(4000, 2, seed=5)
        assert 4000**3 > EXACT_DEPTH_GUARD
        res = pd.deepest_point_exact(sims)
        assert res.depth == depth_at(sims, res.point) > 1
        # independent max depth: stab the y-intervals [a_1, cap - x] cut
        # by the vertical line through every corner x-value
        corners = sims.corners
        caps = corners.sum(axis=1) + sims.sizes
        best = 0
        for x in np.unique(corners[:, 0]):
            on = (corners[:, 0] <= x) & (corners[:, 1] <= caps - x)
            ends = np.r_[corners[on, 1], caps[on] - x]
            opens = np.r_[np.ones(on.sum()), -np.ones(on.sum())]
            order = np.lexsort((-opens, ends))  # opens first at a coordinate
            best = max(best, int(np.cumsum(opens[order]).max(initial=0)))
        assert res.depth == best

    def test_huge_grid_renumbers_rows(self):
        # 50000 distinct integers per axis in d=4: the grid has more cells
        # than int64 codes, so the row numbers must be renumbered densely;
        # the deepest point has the largest x_0, whose mixed-radix codes
        # would pass 2**63
        rng = np.random.default_rng(8)
        corners = np.stack(
            [rng.permutation(10**6)[:50_000] for _ in range(4)], axis=1
        ).astype(float)
        p = corners[7]
        q = np.r_[corners[:, 0].max(), corners[11, 1:]]
        corners = np.vstack([corners, p, p, q, q, q, q])
        sims = pd.SimplexArray(corners, np.zeros(len(corners)))
        res = pd.deepest_point_exact(sims)
        assert res == pd.DepthResult(tuple(q), 4)

    def test_guard_counts_pairs_and_stab_events(self, monkeypatch):
        # d=2: one pair per admitted (x_0 value, homothet), then two stab
        # events per pair
        sims = pd.random_homothets(50, 2, seed=0)
        corners = sims.corners
        caps = corners.sum(axis=1) + sims.sizes
        xs = np.unique(corners[:, 0])[:, None]
        pairs = int(((xs >= corners[:, 0]) & (xs + corners[:, 1] <= caps)).sum())
        monkeypatch.setattr(simplices, "EXACT_DEPTH_GUARD", 3 * pairs)
        pd.deepest_point_exact(sims)
        monkeypatch.setattr(simplices, "EXACT_DEPTH_GUARD", 3 * pairs - 1)
        with pytest.raises(pd.GuardExceededError):
            pd.deepest_point_exact(sims)
        monkeypatch.setattr(simplices, "EXACT_DEPTH_GUARD", 3)
        with pytest.raises(pd.GuardExceededError):
            pd.deepest_point_exact(pd.SimplexArray([(0,), (1,)], [1, 1]))

    def test_guard_trips_before_expanding(self, monkeypatch):
        def no_expansion(*args, **kwargs):
            raise AssertionError("expanded past the guard")

        sims = pd.random_homothets(200, 3, seed=1)
        monkeypatch.setattr(simplices, "EXACT_DEPTH_GUARD", 199)
        monkeypatch.setattr(np, "repeat", no_expansion)
        with pytest.raises(pd.GuardExceededError):
            pd.deepest_point_exact(sims)

    def test_depth_field_matches_rescan(self):
        for seed in range(10):
            sims = pd.random_homothets(25, 2, seed=seed)
            res = pd.deepest_point_exact(sims)
            assert depth_at(sims, res.point) == res.depth

    def test_matches_vertex_oracle(self):
        for seed in range(30):
            rng = np.random.default_rng(seed)  # denser than random_homothets
            sims = pd.SimplexArray(rng.uniform(0, 6, (35, 2)), rng.uniform(0.5, 3, 35))
            assert pd.deepest_point_exact(sims).depth == vertex_oracle_depth(sims)

    def test_guard(self, monkeypatch):
        sims = pd.random_homothets(50, 2, seed=0)
        monkeypatch.setattr(simplices, "EXACT_DEPTH_GUARD", 100)
        with pytest.raises(pd.GuardExceededError, match="exceeds the 100 guard"):
            pd.deepest_point_exact(sims)

    def test_one_dimensional(self):
        sims = pd.SimplexArray([(0,), (1,), (5,)], [2, 2, 1])
        res = pd.deepest_point_exact(sims)
        assert res.point == (1.0,) and res.depth == 2


class TestCornerGrid:
    def test_zero_is_named_without_sign(self):
        # -0.0 and 0.0 are one grid line, named 0.0 in any corner order
        corners = [(-0.0, 1.0), (0.0, 1.0), (0.0, -0.0)]
        for order in (corners, corners[::-1]):
            res = pd.deepest_point_exact(pd.SimplexArray(order, [1, 1, 1]))
            assert res == pd.DepthResult((0.0, 1.0), 3)
            assert not np.signbit(res.point).any()

    def test_each_prefix_slices_its_own_lines(self):
        # a ladder level slices the first m corners of one grid: its lines
        # and positions are those of the m corners sorted on their own
        rng = np.random.default_rng(41)
        for t in range(30):
            n, d = int(rng.integers(1, 80)), 1 + t % 3
            if t % 2:
                corners = rng.choice([-0.0, 0.0, 0.5, 1.0, 2.5], size=(n, d))
            else:
                corners = np.round(rng.uniform(-2, 2, size=(n, d)), 1)
            sizes = rng.uniform(0, 2, size=n)
            margins = -np.sort(-rng.uniform(0.5, 4, size=n))
            grid = simplices._CornerGrid(corners)
            for c in pd.level_schedule(margins[0], 0.25, n):
                m = int(np.count_nonzero(margins >= c))
                slicer = simplices._GridSlicer(grid, sizes[:m])
                for k in range(d):
                    values, inverse = np.unique(
                        corners[:m, k] + 0.0, return_inverse=True
                    )
                    assert slicer.axes[k].tobytes() == values.tobytes()
                    assert np.array_equal(slicer.pos[k], inverse)


class TestGenerators:
    def test_random_homothets_rejects_empty_shapes(self):
        for n, d in ((0, 2), (3, 0)):
            with pytest.raises(ValueError):
                pd.random_homothets(n, d)

    def test_random_homothets_deterministic(self):
        a = pd.random_homothets(10, 2, seed=3)
        b = pd.random_homothets(10, 2, seed=3)
        assert isinstance(a, pd.SimplexArray)
        assert np.array_equal(a.corners, b.corners)
        assert np.array_equal(a.sizes, b.sizes)

    def test_depth_controlled_family_shape(self):
        fam = pd.depth_controlled_family(10, 4, seed=0)
        assert isinstance(fam, pd.SimplexArray)
        assert fam.corners.shape == (10, 2) and (fam.sizes == 4.0).all()
        with pytest.raises(ValueError):
            pd.depth_controlled_family(3, 5)

    def test_guard_constant_sane(self):
        assert EXACT_DEPTH_GUARD >= 10**8
