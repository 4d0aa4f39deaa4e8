import argparse
import inspect
import types

import productdesign as pd
from productdesign import approx, market, simplices, sweep
from productdesign.cli import build_parser, run


def test_every_exported_name_resolves():
    assert [name for name in pd.__all__ if not hasattr(pd, name)] == []


def test_exports_have_no_duplicates():
    assert len(pd.__all__) == len(set(pd.__all__))


def test_every_public_package_name_is_exported():
    # a name imported into the package without being listed fails here
    public = {
        name
        for name, obj in vars(pd).items()
        if not name.startswith("_") and not isinstance(obj, types.ModuleType)
    }
    assert public - set(pd.__all__) == set()


def test_sweep_defines_only_the_search():
    # anything defined in the module besides the search and its stats
    # fails here
    defined = {
        name
        for name, obj in vars(sweep).items()
        if getattr(obj, "__module__", None) == sweep.__name__
    }
    assert defined == {
        "SweepStats",
        "solve_exact_1d",
        "solve_exact_1d_with_stats",
        "_row_maxima",
    }


def test_sweep_stats_fields():
    assert list(pd.SweepStats.__dataclass_fields__) == [
        "events",
        "appended",
        "duplicate_skips",
        "entries",
        "rows_pruned",
        "certificate_pushes",
    ]


def test_simplices_defines_only_the_exact_depth_toolkit():
    # a public function or class added to the module fails here
    defined = {
        name
        for name, obj in vars(simplices).items()
        if not name.startswith("_")
        and getattr(obj, "__module__", None) == simplices.__name__
    }
    assert defined == {
        "ArrangementStats",
        "DepthResult",
        "SimplexArray",
        "SimplexHomothet",
        "arrangement_stats",
        "contains",
        "deepest_point_exact",
        "depth_controlled_family",
        "intersects",
        "random_homothets",
    }


def test_market_defines_only_its_public_api():
    # the column-array parsers and pruning helper stay private
    defined = {
        name
        for name, obj in vars(market).items()
        if not name.startswith("_")
        and getattr(obj, "__module__", None) == market.__name__
    }
    assert defined == {
        "Customer",
        "Market",
        "NO_PROFITABLE_PRODUCT",
        "Product",
        "ProfitReport",
        "brute_force_optimum",
        "element_uniqueness_instance",
        "evaluate",
        "market_to_csv",
        "market_to_json",
        "parse_customers_json",
        "ppu",
        "prune_dominated",
        "random_pareto_market",
    }


def test_approx_defines_only_the_ladder_search():
    # a public function or class added to the module fails here
    defined = {
        name
        for name, obj in vars(approx).items()
        if not name.startswith("_")
        and getattr(obj, "__module__", None) == approx.__name__
    }
    assert defined == {
        "LadderStats",
        "LevelOutcome",
        "level_schedule",
        "lift_point",
        "max_ppu",
        "project_customers",
        "solve_approx",
        "solve_approx_detailed",
    }


def test_constructors_and_generators_take_no_unused_options():
    for fn, params in (
        (pd.Market.__init__, ["self", "customers"]),
        (pd.random_homothets, ["n", "d", "seed"]),
        (pd.depth_controlled_family, ["n", "k", "seed"]),
    ):
        assert list(inspect.signature(fn).parameters) == params, fn.__qualname__


def test_solve_approx_takes_market_and_epsilon_only():
    for fn in (pd.solve_approx, pd.solve_approx_detailed):
        assert list(inspect.signature(fn).parameters) == ["market", "epsilon"]


def test_solvers_and_queries_take_their_data_only():
    # guards are module constants, not keyword options
    for fn, data in (
        (pd.deepest_point_exact, "simplices"),
        (pd.arrangement_stats, "simplices"),
        (pd.brute_force_optimum, "market"),
        (pd.solve_exact_1d, "market"),
        (pd.solve_exact_1d_with_stats, "market"),
    ):
        assert list(inspect.signature(fn).parameters) == [data], fn.__name__


def test_depth_result_fields():
    assert list(pd.DepthResult.__dataclass_fields__) == ["point", "depth"]


def test_solve_command_options():
    parser = build_parser()
    commands = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    options = [a.option_strings for a in commands.choices["solve"]._actions]
    assert options == [
        ["-h", "--help"],
        ["--input"],
        ["--algorithm"],
        ["--epsilon"],
        ["--prune"],
        ["--output"],
    ]
    # every option but --output (where the report goes) reaches the report
    assert list(inspect.signature(run).parameters) == [
        "input",
        "algorithm",
        "epsilon",
        "prune",
    ]
