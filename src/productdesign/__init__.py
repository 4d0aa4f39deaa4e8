"""Profit-maximizing product design for saturated markets.

Given customers with minimum quality requirements and maximum prices,
find a new product (price plus quality vector) maximizing margin times
buyer count: exactly in O(n log n) for one quality dimension, and to
within a (1 - eps) factor for any constant number of dimensions via
deepest-point queries over simplex homothets on fixed-margin planes.
"""

__version__ = "0.1.0"

from .approx import (
    LevelOutcome,
    LevelSchedule,
    level_schedule,
    lift_point,
    max_ppu,
    project_customers,
    solve_approx,
    solve_approx_detailed,
)
from .errors import (
    DimensionMismatchError,
    EmptyMarketError,
    GuardExceededError,
    MarketFormatError,
    ParetoViolationError,
)
from .market import (
    NO_PROFITABLE_PRODUCT,
    Customer,
    Market,
    Product,
    ProfitReport,
    brute_force_optimum,
    element_uniqueness_instance,
    evaluate,
    market_to_csv,
    market_to_json,
    parse_customers_csv,
    parse_customers_json,
    ppu,
    prune_dominated,
    random_pareto_market,
    validate_pareto,
)
from .simplices import (
    ArrangementStats,
    DepthResult,
    IntersectionIndex,
    SimplexArray,
    SimplexHomothet,
    arrangement_stats,
    contains,
    deepest_point_approx,
    deepest_point_exact,
    depth_at,
    depth_controlled_family,
    intersects,
    random_homothets,
)
from .sweep import SweepStats, solve_exact_1d, solve_exact_1d_with_stats

__all__ = [
    "ArrangementStats",
    "Customer",
    "DepthResult",
    "DimensionMismatchError",
    "EmptyMarketError",
    "GuardExceededError",
    "IntersectionIndex",
    "LevelOutcome",
    "LevelSchedule",
    "Market",
    "MarketFormatError",
    "NO_PROFITABLE_PRODUCT",
    "ParetoViolationError",
    "Product",
    "ProfitReport",
    "SimplexArray",
    "SimplexHomothet",
    "SweepStats",
    "arrangement_stats",
    "brute_force_optimum",
    "contains",
    "deepest_point_approx",
    "deepest_point_exact",
    "depth_at",
    "depth_controlled_family",
    "element_uniqueness_instance",
    "evaluate",
    "intersects",
    "level_schedule",
    "lift_point",
    "market_to_csv",
    "market_to_json",
    "max_ppu",
    "parse_customers_csv",
    "parse_customers_json",
    "ppu",
    "project_customers",
    "prune_dominated",
    "random_homothets",
    "random_pareto_market",
    "solve_approx",
    "solve_approx_detailed",
    "solve_exact_1d",
    "solve_exact_1d_with_stats",
    "validate_pareto",
]
