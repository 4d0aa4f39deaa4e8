"""Command-line front end: load markets, run solvers, emit JSON reports.

Exit codes: 0 on success, 2 on input/validation problems, 3 when an
instance-size guard trips.
"""

from __future__ import annotations

import argparse
import functools
import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .approx import max_ppu, solve_approx_detailed
from .errors import GuardExceededError, MarketFormatError
from .market import (
    Market,
    _csv_arrays,
    _json_arrays,
    _prune_arrays,
    brute_force_optimum,
    element_uniqueness_instance,
    evaluate,
    market_to_csv,
    market_to_json,
    parse_customers_json,  # noqa: F401  (perfbench/spans.py wraps this name)
    random_pareto_market,
)
from .simplices import arrangement_stats, depth_controlled_family
from .sweep import solve_exact_1d_with_stats

SCHEMA_VERSION = 7
ALGORITHMS = ("exact1d", "approx", "bruteforce")
# Tolerance of `bench approx`, the one the benchmark's approx workload uses.
BENCH_EPSILON = 0.25
# Timed calls per `bench` row, after one untimed warm-up call.
_BENCH_REPEATS = 5


def load_market(path: str, prune: bool = False) -> tuple[Market, int]:
    """Read a market file; returns (market, number of pruned customers)."""
    p = Path(path)
    if not p.exists():
        raise MarketFormatError(f"no such file: {path}")
    text = p.read_text()
    suffix = p.suffix.lower()
    if suffix == ".json" or (suffix != ".csv" and text.lstrip().startswith("{")):
        prices, qualities = _json_arrays(text)
    else:
        prices, qualities = _csv_arrays(text)
    if prune:
        market = _prune_arrays(prices, qualities)
        dropped = prices.size - len(market)
        if dropped:
            print(
                f"warning: pruned {dropped} dominated customer(s)", file=sys.stderr
            )
        return market, dropped
    return Market.from_arrays(prices, qualities), 0


def _result_section(report) -> dict:
    if report.product is None:
        return {"status": "no_profitable_product", "profit": 0.0}
    return {
        "status": "ok",
        "product": {
            "price": report.product.price,
            "qualities": list(report.product.qualities),
        },
        "ppu": report.ppu,
        "buyers": report.buyers,
        "profit": report.profit,
    }


def run(
    input: str, algorithm: str, epsilon: float | None = None, prune: bool = False
) -> dict:
    """Execute one solve and build the report dict (result re-verified)."""
    if algorithm == "approx":
        if epsilon is None:
            raise ValueError("--epsilon is required for the approx algorithm")
    elif epsilon is not None:
        raise ValueError(f"--epsilon only applies to approx, not {algorithm}")
    market, pruned = load_market(input, prune)

    start = time.perf_counter()
    diagnostics: dict
    if algorithm == "exact1d":
        report, stats = solve_exact_1d_with_stats(market)
        diagnostics = {
            "events": stats.events,
            "distinct_qualities": stats.appended,
            "entries": stats.entries,
            "rows_pruned": stats.rows_pruned,
        }
    elif algorithm == "approx":
        report, levels, ladder = solve_approx_detailed(market, epsilon)
        diagnostics = {
            "levels": [
                {
                    "index": lv.index,
                    "constant": lv.constant,
                    "simplices": lv.simplex_count,
                    "depth": lv.depth,
                    "profit": lv.profit,
                }
                for lv in levels
            ],
            "levels_skipped": ladder.levels_skipped,
            "depth_cap": ladder.depth_cap,
        }
    else:
        report = brute_force_optimum(market)
        diagnostics = {"grid": "customer-coordinate product grid"}
    elapsed_ms = (time.perf_counter() - start) * 1000.0

    # Never emit an unverified result.
    top_margin = max_ppu(market)
    if report.product is not None:
        check = evaluate(market, report.product)
        if check.profit != report.profit or check.buyers != report.buyers:
            raise AssertionError("solver result failed re-evaluation")
    elif top_margin > 0:
        raise AssertionError("no-profit result despite a positive customer margin")

    return {
        "schema_version": SCHEMA_VERSION,
        "config": {
            "input": input,
            "algorithm": algorithm,
            "epsilon": epsilon,
            "prune": prune,
        },
        "market": {
            "n": len(market),
            "dim": market.dim,
            "max_ppu": top_margin,
            "pruned_customers": pruned,
        },
        "result": _result_section(report),
        "diagnostics": diagnostics,
        "timing_ms": round(elapsed_ms, 3),
    }


def _emit(payload: dict, output: str | None):
    text = json.dumps(payload, sort_keys=True, indent=2)
    if output:
        Path(output).write_text(text + "\n")
    else:
        print(text)


def _cmd_solve(args) -> int:
    _emit(run(args.input, args.algorithm, args.epsilon, args.prune), args.output)
    return 0


def _cmd_gen(args) -> int:
    if args.kind == "random":
        market = random_pareto_market(
            args.n, args.d, seed=args.seed, value_range=(args.low, args.high)
        )
    else:
        if args.values:
            values = [int(v) for v in args.values.split(",")]
        else:
            rng = np.random.default_rng(args.seed)
            values = [int(v) for v in rng.integers(args.low, args.high + 1, args.n)]
        market = element_uniqueness_instance(values)
    text = market_to_json(market) if args.format == "json" else market_to_csv(market)
    if args.output:
        Path(args.output).write_text(text if text.endswith("\n") else text + "\n")
    else:
        print(text, end="" if text.endswith("\n") else "\n")
    return 0


def _timed(call) -> tuple[object, float]:
    """``call()``'s result and its median wall time in ms over
    ``_BENCH_REPEATS`` calls, after one warm-up call."""
    result = call()
    times = []
    for _ in range(_BENCH_REPEATS):
        start = time.perf_counter()
        result = call()
        times.append((time.perf_counter() - start) * 1000.0)
    return result, statistics.median(times)


def _time_ratios(rows: list[dict]) -> list[float | None]:
    return [
        round(rows[i]["ms"] / rows[i - 1]["ms"], 3) if rows[i - 1]["ms"] else None
        for i in range(1, len(rows))
    ]


def _bench_sweep(args) -> int:
    rows = []
    for n in (int(s) for s in args.sizes.split(",")):
        # the distribution criterion 8 times: nearly every quality distinct
        market = random_pareto_market(n, 1, seed=args.seed, value_range=(0, 20 * n))
        (report, stats), ms = _timed(lambda: solve_exact_1d_with_stats(market))
        rows.append(
            {
                "n": n,
                "ms": round(ms, 3),
                "profit": report.profit,
                "entries": stats.entries,
                "rows_pruned": stats.rows_pruned,
            }
        )
    payload = {"bench": "sweep", "runs": rows, "time_ratios": _time_ratios(rows)}
    _emit(payload, args.output)
    return 0


def _bench_approx(args) -> int:
    rows = []
    for n in (int(s) for s in args.sizes.split(",")):
        # the float regime: every corner value distinct, so each level's
        # grid has about as many lines per axis as the level has customers
        rng = np.random.default_rng(args.seed)
        q = rng.uniform(0, 100, size=(n, args.d))
        market = _prune_arrays(q.sum(axis=1) + rng.uniform(1, 5, size=n), q)
        (report, levels, ladder), ms = _timed(
            lambda: solve_approx_detailed(market, BENCH_EPSILON)
        )
        rows.append(
            {
                "n": n,
                "pruned_n": len(market),
                "ms": round(ms, 3),
                "ladder_levels": len(levels) + ladder.levels_skipped,
                "levels_searched": len(levels),
                "levels_skipped": ladder.levels_skipped,
                "profit": report.profit,
            }
        )
    _emit(
        {
            "bench": "approx",
            "d": args.d,
            "epsilon": BENCH_EPSILON,
            "runs": rows,
            "time_ratios": _time_ratios(rows),
        },
        args.output,
    )
    return 0


def _bench_arrangement(args) -> int:
    sizes = [int(s) for s in args.sizes.split(",")]
    depths = [int(k) for k in args.depths.split(",")]
    rows = []
    for n in sizes:
        for k in depths:
            family = depth_controlled_family(n, k, seed=args.seed)
            stats, ms = _timed(lambda: arrangement_stats(family))
            rows.append(
                {
                    "n": n,
                    "k": k,
                    "ms": round(ms, 3),
                    "vertex_count": stats.vertex_count,
                    "max_depth": stats.max_depth,
                    "pairwise_intersections": stats.pairwise_intersections,
                    "vertices_per_nk": round(stats.vertex_count / (n * k), 4),
                }
            )
    _emit({"bench": "arrangement", "runs": rows}, args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="productdesign",
        description="Design a profit-maximizing product for a saturated market.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run a solver on a market file")
    solve.add_argument("--input", required=True, help="market file (CSV or JSON)")
    solve.add_argument("--algorithm", required=True, choices=ALGORITHMS)
    solve.add_argument("--epsilon", type=float, default=None)
    solve.add_argument(
        "--prune", action="store_true", help="drop dominated customers with a warning"
    )
    solve.add_argument("--output", default=None, help="write the report here")
    solve.set_defaults(func=_cmd_solve)

    gen = sub.add_parser("gen", help="generate a market file")
    gen.add_argument("--kind", required=True, choices=("random", "element-uniqueness"))
    gen.add_argument("--n", type=int, default=100)
    gen.add_argument("--d", type=int, default=1)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--low", type=int, default=0)
    gen.add_argument("--high", type=int, default=100)
    gen.add_argument("--values", default=None, help="comma-separated integers")
    gen.add_argument("--format", choices=("csv", "json"), default="csv")
    gen.add_argument("--output", default=None)
    gen.set_defaults(func=_cmd_gen)

    bench = sub.add_parser("bench", help="performance and complexity harnesses")
    bench_sub = bench.add_subparsers(dest="target", required=True)
    bsweep = bench_sub.add_parser("sweep", help="sweep-solver scaling measurement")
    bsweep.add_argument("--sizes", default="250000,500000,1000000")
    # criterion 8's seed
    bsweep.add_argument("--seed", type=int, default=8)
    bsweep.add_argument("--output", default=None)
    bsweep.set_defaults(func=_bench_sweep)
    bapprox = bench_sub.add_parser(
        "approx", help="approximation timing on pruned float markets"
    )
    bapprox.add_argument("--sizes", default="2500,5000,10000")
    bapprox.add_argument("--d", type=int, default=2)
    bapprox.add_argument("--seed", type=int, default=0)
    bapprox.add_argument("--output", default=None)
    bapprox.set_defaults(func=_bench_approx)
    barr = bench_sub.add_parser(
        "arrangement", help="arrangement vertex-count ratio logging"
    )
    barr.add_argument("--sizes", default="100,400,1600")
    barr.add_argument("--depths", default="2,4,8")
    barr.add_argument("--seed", type=int, default=0)
    barr.add_argument("--output", default=None)
    barr.set_defaults(func=_bench_arrangement)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser :func:`main` uses, built on its first call.  Each
    ``parse_args`` call fills a new namespace from the parser's defaults,
    so no option leaks from one call into the next."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except GuardExceededError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
