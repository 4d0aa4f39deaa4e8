import functools
import itertools

import numpy as np

import productdesign as pd
from productdesign import cli


def market_of(*pairs) -> pd.Market:
    """Build a market from (price, [q1, ...]) pairs."""
    return pd.Market([pd.Customer(p, tuple(q)) for p, q in pairs])


def customers_of(*pairs) -> list[pd.Customer]:
    return [pd.Customer(p, tuple(q)) for p, q in pairs]


def edge_crossings(a, b) -> list[tuple[float, float]]:
    """Crossing points of plane triangle ``a``'s horizontal and vertical
    edges with ``b``'s vertical and diagonal edges, by scalar float tests.

    Same-orientation edges are parallel and never counted; the other three
    edge pairs come from ``edge_crossings(b, a)``.
    """
    ax, ay = a.corner
    bx, by = b.corner
    pts = []
    # horizontal edge of a (y = ay) x vertical edge of b (x = bx)
    if ax <= bx <= ax + a.size and by <= ay <= by + b.size:
        pts.append((bx, ay))
    cap = bx + by + b.size
    # horizontal edge of a x diagonal edge of b
    x = cap - ay
    if ax <= x <= ax + a.size and bx <= x <= bx + b.size:
        pts.append((x, ay))
    # vertical edge of a x diagonal edge of b
    y = cap - ax
    if ay <= y <= ay + a.size and by <= y <= by + b.size:
        pts.append((ax, y))
    return pts


def arrangement_oracle(sims) -> tuple[int, int]:
    """All-pairs reference for ``arrangement_stats``: the pairs that
    ``intersects`` accepts and, in the plane, their boundary crossings."""
    sims = list(sims)
    pairs = vertices = 0
    for a, b in itertools.combinations(sims, 2):
        if pd.intersects(a, b):
            pairs += 1
            if a.dim == 2:
                vertices += len(edge_crossings(a, b)) + len(edge_crossings(b, a))
    return pairs, vertices


def axis_sums(points) -> np.ndarray:
    """Row sums ``((0.0 + x_0) + x_1) + ...``, added in axis order as the
    geometry's float rule sums (``cumsum`` never pairs terms up)."""
    return np.cumsum(points, axis=-1)[..., -1]


def depths(sims, points) -> np.ndarray:
    """Number of homothets containing each point, under the float rule of
    ``contains``: ``x_k >= a_k`` and the axis-order sum of ``x`` at most the
    corner's axis-order sum plus the size."""
    corners = np.array([s.corner for s in sims], dtype=float)
    caps = axis_sums(corners) + np.array([s.size for s in sims], dtype=float)
    x = np.asarray(points, dtype=float).reshape(-1, corners.shape[1])
    inside = (x[:, None, :] >= corners[None, :, :]).all(axis=2) & (
        axis_sums(x)[:, None] <= caps[None, :]
    )
    return inside.sum(axis=1)


def vertex_oracle_depth(sims) -> int:
    """Independent deepest-point oracle for plane homothets.

    Candidate points are every corner plus every crossing of two boundary
    edges; the deepest covered region's lowest corner is always one of
    these, so scanning their depths finds the true maximum.
    """
    pts = [s.corner for s in sims]
    for a, b in itertools.permutations(sims, 2):
        pts.extend(edge_crossings(a, b))
    return int(depths(sims, pts).max())


def depth_at(sims, point) -> int:
    """Number of homothets containing ``point``, by a full rescan."""
    return int(depths(sims, [point])[0])


def grid_scan_deepest(sims) -> tuple[tuple[float, ...], int]:
    """Reference deepest point: the depth of every corner-grid cell.

    Adds one homothet at a time over the full grid of per-axis corner
    values, with the grid's float predicate ``x_k >= a_k`` and
    ``((0.0 + x_0) + x_1) + ... <= sum(a) + s``; returns the
    lexicographically smallest deepest grid point (first maximum in
    C order) and its depth.  Costs grid cells times ``n``.
    """
    corners = np.array([s.corner for s in sims], dtype=float)
    sizes = np.array([s.size for s in sims], dtype=float)
    n, d = corners.shape
    axes = [np.unique(corners[:, k]) for k in range(d)]
    shape = tuple(int(a.size) for a in axes)
    grid = [axes[k].reshape((1,) * k + (-1,) + (1,) * (d - k - 1)) for k in range(d)]
    total = np.zeros(shape, dtype=float)
    for k in range(d):
        total = total + grid[k]
    caps = axis_sums(corners) + sizes
    depth = np.zeros(shape, dtype=np.int32)
    for j in range(n):
        mask = total <= caps[j]
        for k in range(d):
            mask &= grid[k] >= corners[j, k]
        depth += mask
    at = np.unravel_index(int(np.argmax(depth)), shape)
    return tuple(float(axes[k][at[k]]) for k in range(d)), int(depth[at])


def float_market(rng, n: int, d: int, ties: bool = False) -> pd.Market:
    """Pruned market with two-decimal prices and qualities, some customers
    with negative margins; ``ties`` draws from few distinct values."""
    if ties:
        q = rng.integers(0, 4, size=(n, d)) * 2.5
        margin = rng.integers(-2, 5, size=n) * 1.25
    else:
        q = np.round(rng.uniform(0, 10, size=(n, d)), 2)
        margin = np.round(rng.uniform(-2, 5, size=n), 2)
    prices = np.round(q.sum(axis=1) + margin, 2)
    return pd.prune_dominated(
        pd.Customer(float(p), tuple(map(float, row))) for p, row in zip(prices, q)
    )


def deep_chain(n: int, d: int) -> pd.Market:
    """A strict chain whose lowest approx level is deep: each quality
    column holds ``n`` distinct values of ``0..20n`` in ascending order, and
    the price is their sum plus ``d`` times a running sum of steps of
    1..3, so no customer is dominated."""
    rng = np.random.default_rng(1)
    q = np.stack([np.sort(rng.choice(20 * n, n, replace=False)) for _ in range(d)], 1)
    prices = q.sum(axis=1) + d * np.cumsum(rng.integers(1, 4, n))
    return pd.Market.from_arrays(prices.astype(float), q.astype(float))


@functools.cache
def deep_chain_solve(n: int, d: int) -> tuple[pd.ProfitReport, dict]:
    """``cli._solve`` of approx at epsilon 0.25 on ``deep_chain(n, d)``,
    run once per session for every test that reads it."""
    return cli._solve(deep_chain(n, d), "approx", 0.25)


def chain_optimum(market: pd.Market) -> float:
    """Exact optimal profit of a strict chain, whose quality columns each
    hold distinct values in ascending order.

    Customer ``i``'s requirements are then below customer ``j``'s on every
    axis exactly when ``i < j``, so a buyer set's componentwise maximum is
    its last member's requirements, and the product ``(P, q_t)`` sells to
    the customers ``i <= t`` with ``p_i >= P``: the 1-D market of prices
    and axis-order quality sums, at the same cost.  The values must be
    integers below 2**53, so that the sums are exact.
    """
    line = axis_sums(market.qualities)[:, None]
    return pd.solve_exact_1d(
        pd.Market.from_arrays(market.prices, line, validate=False)
    ).profit


def event_arrays(market: pd.Market):
    """The 1-D solver's search inputs: event prices and event qualities,
    price descending, then quality descending."""
    ql = market.qualities[:, 0]
    order = np.lexsort((-ql, -market.prices))
    return market.prices[order], ql[order]


def unpruned_row_maxima(p, q):
    """Reference row maxima: the monotone search without the block bound
    and without entry windows.

    Every row of ``M[t][j] = (p[t] - q[j]) * (t - j + 1)`` over all events
    ``j <= t`` is scanned, each pass taking the middle row of every
    pending block over its column range.  Returns the row maxima, the
    rightmost maximizing columns and the number of entries evaluated.
    """
    n = p.size
    row_max = np.empty(n)
    row_arg = np.empty(n, dtype=np.int64)
    entries = 0
    lo = np.zeros(1, dtype=np.int64)
    hi = np.full(1, n - 1, dtype=np.int64)
    lo_col = np.zeros(1, dtype=np.int64)
    hi_col = hi.copy()
    while lo.size:
        mid = (lo + hi) >> 1
        lengths = np.minimum(hi_col, mid) - lo_col + 1
        starts = np.cumsum(lengths) - lengths
        total = int(starts[-1] + lengths[-1])
        entries += total
        col = np.arange(total) - np.repeat(starts - lo_col, lengths)
        values = (np.repeat(p[mid], lengths) - q[col]) * (
            np.repeat(mid + 1, lengths) - col
        )
        peak = np.maximum.reduceat(values, starts)
        hits = np.flatnonzero(values == np.repeat(peak, lengths))
        arg = col[hits[np.searchsorted(hits, starts + lengths) - 1]]
        row_max[mid] = peak
        row_arg[mid] = arg
        above, below = lo < mid, mid < hi
        lo, hi, lo_col, hi_col = (
            np.concatenate((lo[above], mid[below] + 1)),
            np.concatenate((mid[above] - 1, hi[below])),
            np.concatenate((lo_col[above], arg[below])),
            np.concatenate((arg[above], hi_col[below])),
        )
    return row_max, row_arg, entries


def check_row_maxima(p, q, rows, row_max, row_arg) -> None:
    """The searched rows of the 1-D search against a direct scan of
    ``(p_t - q_j) * (t - j + 1)`` over all events ``j <= t``.

    Each searched row must appear once, with exactly the scanned maximum
    and the rightmost column attaining it.  A row the search never
    scanned must scan strictly below the best searched maximum or at most
    0: a pruned row that could tie or win is an error.
    """
    assert np.unique(rows).size == rows.size, "a row was searched twice"
    best = float(row_max.max(initial=0.0))
    searched = dict(zip(rows.tolist(), zip(row_max.tolist(), row_arg.tolist())))
    for t in range(p.size):
        scan = (p[t] - q[: t + 1]) * np.arange(t + 1, 0, -1)
        direct = float(scan.max())
        if t not in searched:
            assert direct < best or direct <= 0.0, (
                f"event {t + 1}: pruned row scans {direct}, "
                f"not below the best {best}"
            )
            continue
        top, arg = searched[t]
        assert top == direct, (
            f"event {t + 1}: searched row maximum {top} != direct scan {direct}"
        )
        assert arg == int(np.flatnonzero(scan == direct)[-1]), (
            f"event {t + 1}: column {arg} is not the rightmost maximizing one"
        )
