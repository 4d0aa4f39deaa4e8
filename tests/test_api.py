import types

import productdesign as pd
from productdesign import sweep


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
        "_check_row_maxima",
    }


def test_sweep_stats_fields():
    assert list(pd.SweepStats.__dataclass_fields__) == [
        "events",
        "appended",
        "duplicate_skips",
        "entries",
        "certificate_pushes",
    ]
