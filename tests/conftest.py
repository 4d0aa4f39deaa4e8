import itertools

import numpy as np

import productdesign as pd


def market_of(*pairs) -> pd.Market:
    """Build a market from (price, [q1, ...]) pairs."""
    return pd.Market([pd.Customer(p, tuple(q)) for p, q in pairs])


def customers_of(*pairs) -> list[pd.Customer]:
    return [pd.Customer(p, tuple(q)) for p, q in pairs]


def vertex_oracle_depth(sims) -> int:
    """Independent deepest-point oracle for plane homothets.

    Candidate points are every corner plus every crossing of two boundary
    edges; the deepest covered region's lowest corner is always one of
    these, so scanning their depths finds the true maximum.
    """
    pts = [s.corner for s in sims]
    for a, b in itertools.permutations(sims, 2):
        ax, ay = a.corner
        bx, by = b.corner
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
    corners = np.array([s.corner for s in sims])
    sizes = np.array([s.size for s in sims])
    arr = np.array(pts)
    inside = (arr[:, None, :] >= corners[None, :, :]).all(axis=2) & (
        (arr[:, None, :] - corners[None, :, :]).sum(axis=2) <= sizes[None, :]
    )
    return int(inside.sum(axis=1).max())


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
    caps = corners.sum(axis=1) + sizes
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
