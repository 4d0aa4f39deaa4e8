"""Reference optimum for one workload and seed, printed as JSON.

``run.py`` starts this in a child process, so the reference's time and
memory count in neither ``setup_s`` nor ``peak_rss_mb``:

    python3 perfbench/reference.py --workload approx-d2 --seed 1 --n 1000

``approx-d2`` uses the package's ``brute_force_optimum``.
``exact1d-sweep`` lies beyond that oracle's guard, so its optimum comes
from :func:`monotone_optimum`, which does not call the package.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import productdesign  # noqa: E402
from workloads import SPECS, generate  # noqa: E402


def monotone_optimum(prices: np.ndarray, qualities: np.ndarray) -> float:
    """Optimal profit of a 1-D market whose prices rise strictly with its
    sorted qualities, as ``exact1d-sweep`` generates them.

    Some optimum prices at a customer's price p[k] and sets its quality to
    a customer's requirement q[j].  In index order the customers k..j then
    all buy, and when j is the last customer with requirement q[j] they are
    the only buyers.  So the optimum is the largest entry of
    B[j, k] = (p[k] - q[j]) * (j - k + 1) over k <= j.  For j < j' and
    k < k', B[j, k] + B[j', k'] - B[j, k'] - B[j', k] equals
    (p[k'] - p[k]) (j' - j) + (q[j'] - q[j]) (k' - k) >= 0, so the leftmost
    maximising k of a row never decreases with j.  Rows are solved by
    divide and conquer on that order, every block of one level in a single
    numpy pass: O(n log n) entries in all.
    """
    p = prices.astype(np.int64)
    q = qualities[:, 0].astype(np.int64)
    if not (np.array_equal(p, prices) and np.array_equal(q, qualities[:, 0])):
        raise ValueError("prices and qualities must be integers")
    if not ((np.diff(q) >= 0).all() and (np.diff(p) > 0).all()):
        raise ValueError("prices must rise strictly with sorted qualities")
    best = 0
    # Blocks of rows lo..hi whose maximising k lies in kmin..kmax.
    lo, hi = np.array([0]), np.array([p.size - 1])
    kmin, kmax = np.array([0]), np.array([p.size - 1])
    while lo.size:
        mid = (lo + hi) // 2
        lengths = np.minimum(kmax, mid) - kmin + 1
        starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
        rows = np.repeat(mid, lengths)
        ks = np.arange(lengths.sum()) - np.repeat(starts - kmin, lengths)
        values = (p[ks] - q[rows]) * (rows - ks + 1)
        peak = np.maximum.reduceat(values, starts)
        hits = np.flatnonzero(values == np.repeat(peak, lengths))
        arg = ks[hits[np.searchsorted(hits, starts)]]
        best = max(best, int(peak.max()))
        left, right = lo < mid, mid < hi
        lo, hi, kmin, kmax = (
            np.concatenate((lo[left], mid[right] + 1)),
            np.concatenate((mid[left] - 1, hi[right])),
            np.concatenate((kmin[left], arg[right])),
            np.concatenate((arg[left], kmax[right])),
        )
    return float(best)


def reference(name: str, seed: int, n: int) -> tuple[float, str]:
    """The optimum of a workload's inputs, and the method that found it."""
    prices, qualities = generate(name, seed, n)
    if name == "exact1d-sweep":
        return monotone_optimum(prices, qualities), "monotone row maxima (child process)"
    market = productdesign.Market.from_arrays(prices, qualities, validate=False)
    profit = productdesign.brute_force_optimum(market).profit
    return profit, "brute_force_optimum (child process)"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--n", type=int, required=True)
    args = parser.parse_args()
    profit, method = reference(args.workload, args.seed, args.n)
    print(json.dumps({"profit": profit, "method": method}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
