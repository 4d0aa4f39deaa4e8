import dataclasses
import json
import math
import os
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import productdesign as pd
from productdesign import cli, market as market_mod, simplices
from productdesign.cli import load_market, main, run


@pytest.fixture
def two_customer_csv(tmp_path):
    path = tmp_path / "market.csv"
    path.write_text("price,q1\n3,1\n2,0\n")
    return str(path)


class TestLoadMarket:
    def test_csv_single_row(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("price,q1\n2,1\n")
        market, pruned = load_market(str(path))
        assert tuple(market) == (pd.Customer(2, (1,)),) and pruned == 0

    def test_json_by_extension(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"dim": 1, "customers": [{"price": 2, "qualities": [1]}]}')
        market, _ = load_market(str(path))
        assert len(market) == 1

    def test_json_dim_mismatch_names_customer(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(
            '{"dim": 2, "customers": [{"price": 2, "qualities": [1]}]}'
        )
        with pytest.raises(pd.MarketFormatError, match="customer 0"):
            load_market(str(path))

    def test_dominated_market_rejected_without_prune(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("price,q1\n2,5\n3,1\n")
        with pytest.raises(pd.ParetoViolationError):
            load_market(str(path))

    def test_prune_drops_and_counts(self, tmp_path, capsys):
        path = tmp_path / "m.csv"
        path.write_text("price,q1\n2,5\n3,1\n")
        market, pruned = load_market(str(path), prune=True)
        assert pruned == 1 and tuple(market) == (pd.Customer(2, (5,)),)
        assert "pruned 1" in capsys.readouterr().err

    def test_missing_file(self):
        with pytest.raises(pd.MarketFormatError, match="no such file"):
            load_market("/nonexistent/market.csv")

    def test_roundtrip_through_serializers(self, tmp_path):
        market = pd.random_pareto_market(30, 2, seed=5)
        path = tmp_path / "m.csv"
        path.write_text(pd.market_to_csv(market))
        again, _ = load_market(str(path))
        assert again == market
        path2 = tmp_path / "m.json"
        path2.write_text(pd.market_to_json(market))
        assert load_market(str(path2))[0] == market


class TestRun:
    def test_exact1d_report(self, two_customer_csv):
        report = run(two_customer_csv, "exact1d")
        assert report["result"]["profit"] == 2.0
        assert report["result"]["status"] == "ok"
        assert report["market"] == {
            "n": 2,
            "dim": 1,
            "max_ppu": 2.0,
            "pruned_customers": 0,
        }
        assert report["schema_version"] == 8
        assert report["diagnostics"]["events"] == 2
        market, _ = load_market(two_customer_csv)
        _, stats = pd.solve_exact_1d_with_stats(market)
        assert report["diagnostics"] == {
            "events": 2,
            "distinct_qualities": 2,
            "entries": stats.entries,
            "rows_pruned": stats.rows_pruned,
        }
        assert stats.entries >= 2

    def test_bruteforce_agrees_with_approx_bound(self, tmp_path):
        market = pd.random_pareto_market(30, 2, seed=11, value_range=(0, 12))
        path = tmp_path / "m.csv"
        path.write_text(pd.market_to_csv(market))
        brute = run(str(path), "bruteforce")
        approx = run(str(path), "approx", epsilon=0.25)
        assert approx["result"]["profit"] >= 0.75 * brute["result"]["profit"]
        assert approx["diagnostics"]["levels"]

    def test_reports_are_deterministic_minus_timing(self, two_customer_csv):
        a, b = run(two_customer_csv, "exact1d"), run(two_customer_csv, "exact1d")
        a.pop("timing_ms"), b.pop("timing_ms")
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_approx_reports_are_deterministic_minus_timing(self, tmp_path):
        market = pd.random_pareto_market(25, 2, seed=2, value_range=(0, 10))
        path = tmp_path / "m.csv"
        path.write_text(pd.market_to_csv(market))
        a, b = (run(str(path), "approx", epsilon=0.25) for _ in range(2))
        a.pop("timing_ms"), b.pop("timing_ms")
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
        assert a["config"] == {
            "input": str(path),
            "algorithm": "approx",
            "epsilon": 0.25,
            "prune": False,
        }
        assert list(a["diagnostics"]) == ["levels", "levels_skipped", "depth_cap"]

    def test_approx_report_counts_skipped_levels(self, tmp_path):
        market = pd.random_pareto_market(60, 2, seed=4, value_range=(0, 30))
        path = tmp_path / "m.csv"
        path.write_text(pd.market_to_csv(market))
        report = run(str(path), "approx", epsilon=0.25)
        _, levels, ladder = pd.solve_approx_detailed(market, 0.25)
        diagnostics = report["diagnostics"]
        assert len(diagnostics["levels"]) == len(levels)
        assert diagnostics["levels_skipped"] == ladder.levels_skipped > 0
        assert diagnostics["depth_cap"] == ladder.depth_cap == levels[-1].depth

    def test_epsilon_required_for_approx(self, two_customer_csv):
        with pytest.raises(ValueError, match="epsilon"):
            run(two_customer_csv, "approx")

    def test_epsilon_rejected_elsewhere(self, two_customer_csv):
        with pytest.raises(ValueError, match="only applies"):
            run(two_customer_csv, "exact1d", epsilon=0.5)

    def test_no_profit_status(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("price,q1\n1,2\n")
        report = run(str(path), "bruteforce")
        assert report["result"] == {
            "status": "no_profitable_product",
            "profit": 0.0,
        }

    def test_no_report_shows_a_negative_zero(self, tmp_path):
        # -0.0 prices and qualities in CSV and JSON; every winner but the
        # exact solvers' (3, [1]) on a.csv carries a zero, shown as 0.0
        def customers(dim, *pairs):
            return json.dumps(
                {
                    "dim": dim,
                    "customers": [{"price": p, "qualities": q} for p, q in pairs],
                }
            )

        files = {
            "a.csv": "price,q1\n2,-0.0\n3,1\n",
            "b.csv": "price,q1\n-0.0,-1\n",
            "c.json": customers(1, (2.5, [-0.0]), (-0.0, [-0.0]), (3, [2])),
            "d.json": customers(
                2, (3, [-0.0, 1]), (-0.0, [-0.0, -0.0]), (2.5, [1, -0.0])
            ),
        }
        reports = 0
        for name, text in files.items():
            path = tmp_path / name
            path.write_text(text)
            assert "-0.0" in text
            algorithms = ["bruteforce", "approx"]
            if load_market(str(path))[0].dim == 1:
                algorithms.append("exact1d")
            for algorithm in algorithms:
                eps = 0.25 if algorithm == "approx" else None
                report = run(str(path), algorithm, epsilon=eps)
                assert report["result"]["status"] == "ok"
                assert "-0.0" not in json.dumps(report), (name, algorithm)
                reports += 1
        assert reports == 11

    def test_no_profit_report_shows_no_negative_zero(self, tmp_path):
        # each market's best margin is -0.0, which max_ppu reports as 0.0
        def customers(dim, *pairs):
            return json.dumps(
                {
                    "dim": dim,
                    "customers": [{"price": p, "qualities": q} for p, q in pairs],
                }
            )

        files = {
            "a.csv": "price,q1\n-0.0,-0.0\n",
            "b.csv": "price,q1,q2\n-0.0,0.0,-0.0\n-1,-2,2\n",
            "c.json": customers(1, (-0.0, [-0.0]), (-1, [-0.0])),
            "d.json": customers(2, (-0.0, [-0.0, 0.0]), (2, [3, -0.0])),
        }
        reports = 0
        for name, text in files.items():
            path = tmp_path / name
            path.write_text(text)
            algorithms = ["bruteforce", "approx"]
            if load_market(str(path))[0].dim == 1:
                algorithms.append("exact1d")
            for algorithm in algorithms:
                eps = 0.25 if algorithm == "approx" else None
                report = run(str(path), algorithm, epsilon=eps)
                assert report["result"]["status"] == "no_profitable_product"
                assert report["market"]["max_ppu"] == 0.0
                assert "-0.0" not in json.dumps(report), (name, algorithm)
                reports += 1
        assert reports == 10

    def test_approx_sells_to_a_lone_customer(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("price,q1\n3.57,1.16\n")
        result = run(str(path), "approx", epsilon=0.25)["result"]
        assert result["status"] == "ok" and result["profit"] == 2.41

    def test_approx_no_profit_report_is_rejected(self, tmp_path, monkeypatch):
        path = tmp_path / "m.csv"
        path.write_text("price,q1\n3.57,1.16\n")
        monkeypatch.setattr(
            cli,
            "solve_approx_detailed",
            lambda market, eps: (pd.NO_PROFITABLE_PRODUCT, [], pd.LadderStats(0, None)),
        )
        with pytest.raises(AssertionError, match="positive customer margin"):
            run(str(path), "approx", epsilon=0.25)

    def test_report_failing_reevaluation_is_rejected(
        self, two_customer_csv, tmp_path, monkeypatch
    ):
        solve = cli.solve_exact_1d_with_stats

        def profit_off_by_one(market):
            report, stats = solve(market)
            return dataclasses.replace(report, profit=report.profit + 1), stats

        monkeypatch.setattr(cli, "solve_exact_1d_with_stats", profit_off_by_one)
        out = tmp_path / "report.json"
        argv = ["solve", "--input", two_customer_csv, "--algorithm", "exact1d"]
        with pytest.raises(AssertionError, match="failed re-evaluation"):
            main(argv + ["--output", str(out)])
        assert not out.exists()


class TestMainExitCodes:
    def test_solve_ok(self, two_customer_csv, capsys):
        code = main(
            ["solve", "--input", two_customer_csv, "--algorithm", "exact1d"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["result"]["profit"] == 2.0

    def test_invalid_epsilon_is_usage_error(self, two_customer_csv, capsys):
        code = main(
            [
                "solve",
                "--input",
                two_customer_csv,
                "--algorithm",
                "approx",
                "--epsilon",
                "1.5",
            ]
        )
        assert code == 2
        assert "epsilon" in capsys.readouterr().err

    def test_missing_epsilon_is_2(self, two_customer_csv, capsys):
        code = main(["solve", "--input", two_customer_csv, "--algorithm", "approx"])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: --epsilon is required for the approx algorithm\n"
        )

    def test_stray_epsilon_is_2_before_the_file_is_read(self, tmp_path, capsys):
        # the input does not exist: the pairing error must come first
        missing = str(tmp_path / "missing.csv")
        code = main(["solve", "--input", missing, "--algorithm", "exact1d",
                     "--epsilon", "0.25"])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: --epsilon only applies to approx, not exact1d\n"
        )

    def test_exact1d_report_shows_positive_zero(self, tmp_path, capsys):
        path = tmp_path / "m.csv"
        path.write_text("price,q1\n2,-0.0\n2,0\n-0.0,-1\n0,-1\n")
        code = main(["solve", "--input", str(path), "--algorithm", "exact1d"])
        assert code == 0
        out = capsys.readouterr().out
        assert json.loads(out)["result"]["product"] == {
            "price": 2.0,
            "qualities": [0.0],
        }
        assert "-0.0" not in out

    def test_validation_failure_is_2(self, tmp_path, capsys):
        path = tmp_path / "m.csv"
        path.write_text("price,q1\n2,5\n3,1\n")
        code = main(["solve", "--input", str(path), "--algorithm", "exact1d"])
        assert code == 2

    @staticmethod
    def solve_args(path, algorithm):
        eps = ["--epsilon", "0.25"] if algorithm == "approx" else []
        return ["solve", "--input", str(path), "--algorithm", algorithm, *eps]

    @pytest.mark.parametrize(
        "text",
        ["price,q1\n1e308,-1e308\n", "price,q1\n1e308,0\n1e308,1\n"],
        ids=["one-customer", "two-customers"],
    )
    def test_overflowing_market_is_2_under_every_algorithm(
        self, tmp_path, capsys, text
    ):
        # finite inputs whose n x (max |price| + sum of max |quality|)
        # overflows: a profit could print as Infinity, which is not JSON
        path = tmp_path / "m.csv"
        path.write_text(text)
        for algorithm in cli.ALGORITHMS:
            for prune in ([], ["--prune"]):
                code = main(self.solve_args(path, algorithm) + prune)
                captured = capsys.readouterr()
                assert code == 2, algorithm
                assert captured.out == ""
                assert captured.err.startswith("error: prices and qualities too large")
                assert "overflows a float" in captured.err

    def test_emit_refuses_non_finite_floats(self, capsys):
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError):
                cli._emit({"profit": bad})
        assert capsys.readouterr().out == ""

    def test_market_just_under_the_bound_solves_finitely(self, tmp_path, capsys):
        # each market's n x (max |price| + sum of max |quality|) rounds to
        # the largest float; every report is finite JSON, with no warning
        top = sys.float_info.max
        files = {
            "a.csv": f"price,q1\n{top / 2!r},0\n{top / 2!r},1\n",
            "b.csv": f"price,q1\n{top / 2!r},{-top / 2!r}\n",
            "c.csv": "price,q1,q2\n"
            f"{top / 4!r},{-top / 8!r},{-top / 8!r}\n"
            f"{top / 4!r},{top / 8!r},{-top / 8!r}\n",
        }

        def reject(token):
            raise AssertionError(f"{token} in a report")

        for name, text in files.items():
            path = tmp_path / name
            path.write_text(text)
            algorithms = ["bruteforce", "approx"]
            if name != "c.csv":
                algorithms.append("exact1d")
            for algorithm in algorithms:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    code = main(self.solve_args(path, algorithm))
                assert code == 0, (name, algorithm)
                report = json.loads(capsys.readouterr().out, parse_constant=reject)
                result = report["result"]
                assert result["status"] == "ok"
                assert result["profit"] >= top / 2, (name, algorithm)

    def test_guard_breach_is_3(self, tmp_path, capsys):
        market = pd.random_pareto_market(220, 3, seed=0, value_range=(0, 200))
        path = tmp_path / "m.csv"
        path.write_text(pd.market_to_csv(market))
        code = main(["solve", "--input", str(path), "--algorithm", "bruteforce"])
        assert code == 3

    def test_pareto_guard_breach_is_3(self, tmp_path, capsys):
        # one customer past the d >= 3 guard's sqrt(PARETO_GUARD) == 10**4
        rows = np.arange(10_001)
        path = tmp_path / "m.csv"
        path.write_text(
            "price,q1,q2,q3\n" + "".join(f"{r + 1},{r},{r},0\n" for r in rows)
        )
        code = main(["solve", "--input", str(path), "--algorithm", "approx",
                     "--epsilon", "0.5"])
        assert code == 3
        assert "100020001 comparisons" in capsys.readouterr().err

    def test_integer_past_float_range_is_2(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text(
            '{"dim": 1, "customers": [{"price": 1%s, "qualities": [1]}]}' % ("0" * 400)
        )
        code = main(["solve", "--input", str(path), "--algorithm", "exact1d"])
        assert code == 2
        err = capsys.readouterr().err
        assert "customer 0: price: integer too large for a float" in err

    def test_integer_past_int_digit_limit_is_2(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text(
            '{"dim": 1, "customers": [{"price": 1%s, "qualities": [1]}]}' % ("0" * 5000)
        )
        code = main(["solve", "--input", str(path), "--algorithm", "exact1d"])
        assert code == 2
        err = capsys.readouterr().err
        assert err == (
            "error: customer 0: price: integer too large for a float (5001 digits)\n"
        )

    def test_bruteforce_float_market_reverifies(self, tmp_path, capsys):
        # brute force once summed this margin as ((p - q1) - q2) - q3, one
        # ulp off evaluate's p - (q1 + q2 + q3), and failed re-verification
        path = tmp_path / "m.csv"
        path.write_text("price,q1,q2,q3\n17.05,5.55,4.13,4.92\n")
        code = main(["solve", "--input", str(path), "--algorithm", "bruteforce"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        customer = pd.Customer(17.05, (5.55, 4.13, 4.92))
        assert payload["result"]["ppu"] == pd.ppu(customer)

    def test_depth_guard_breach_is_3(self, tmp_path, capsys, monkeypatch):
        market = pd.random_pareto_market(30, 2, seed=3, value_range=(0, 12))
        path = tmp_path / "m.csv"
        path.write_text(pd.market_to_csv(market))
        monkeypatch.setattr(simplices, "EXACT_DEPTH_GUARD", 10)
        argv = ["solve", "--input", str(path), "--algorithm", "approx"]
        code = main(argv + ["--epsilon", "0.25"])
        assert code == 3
        assert "guard" in capsys.readouterr().err

    def test_depth_guard_at_the_lowest_levels_work(self, tmp_path, capsys, monkeypatch):
        # the lowest level's slicer work, as the solve reports it, fits
        # every level of the solve; one less trips the guard
        market = pd.random_pareto_market(300, 2, seed=4, value_range=(0, 40))
        ladder = pd.level_schedule(pd.max_ppu(market), 0.9, len(market))
        _, levels, _ = pd.solve_approx_detailed(market, 0.9)
        work = levels[-1].work
        # the ladder's own guard charge (levels times customers) is below
        # that work, so the depth guard is the one at its edge here
        assert len(ladder) * len(market) < work
        monkeypatch.setattr(simplices, "EXACT_DEPTH_GUARD", work)
        _, levels, _ = pd.solve_approx_detailed(market, 0.9)
        assert len(levels) > 1
        assert max(lv.work for lv in levels) == work
        monkeypatch.setattr(simplices, "EXACT_DEPTH_GUARD", work - 1)
        path = tmp_path / "m.csv"
        path.write_text(pd.market_to_csv(market))
        argv = ["solve", "--input", str(path), "--algorithm", "approx"]
        assert main(argv + ["--epsilon", "0.9"]) == 3
        assert "guard" in capsys.readouterr().err

    def test_exact1d_requires_dim1(self, tmp_path, capsys):
        market = pd.random_pareto_market(10, 2, seed=0)
        path = tmp_path / "m.csv"
        path.write_text(pd.market_to_csv(market))
        code = main(["solve", "--input", str(path), "--algorithm", "exact1d"])
        assert code == 2

    def test_output_file(self, two_customer_csv, tmp_path):
        out = tmp_path / "report.json"
        code = main(
            [
                "solve",
                "--input",
                two_customer_csv,
                "--algorithm",
                "exact1d",
                "--output",
                str(out),
            ]
        )
        assert code == 0
        assert json.loads(out.read_text())["result"]["profit"] == 2.0

    def test_prune_flag(self, tmp_path, capsys):
        path = tmp_path / "m.csv"
        path.write_text("price,q1\n2,5\n3,1\n")
        code = main(
            ["solve", "--input", str(path), "--algorithm", "exact1d", "--prune"]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["market"]["pruned_customers"] == 1


class TestParserReuse:
    def test_second_call_sees_only_its_own_options(self, two_customer_csv, tmp_path):
        first, second, fresh = (tmp_path / f"{k}.json" for k in ("a", "b", "c"))
        solve = ["solve", "--input", two_customer_csv]
        approx = ["--prune", "--algorithm", "approx", "--epsilon", "0.25"]
        assert main(solve + approx + ["--output", str(first)]) == 0
        exact = ["--algorithm", "exact1d"]
        assert main(solve + exact + ["--output", str(second)]) == 0
        src = str(Path(pd.__file__).resolve().parents[1])
        subprocess.run(
            [sys.executable, "-m", "productdesign.cli"]
            + solve
            + exact
            + ["--output", str(fresh)],
            check=True,
            env={**os.environ, "PYTHONPATH": src},
            timeout=120,
        )
        reports = []
        for path in (second, fresh):
            report = json.loads(path.read_text())
            del report["timing_ms"]
            reports.append(report)
        assert reports[0] == reports[1]
        assert reports[0]["config"]["prune"] is False
        assert reports[0]["config"]["epsilon"] is None
        assert json.loads(first.read_text())["config"]["prune"] is True


class TestGen:
    def test_element_uniqueness_values_solve(self, tmp_path, capsys):
        path = tmp_path / "eu.csv"
        assert (
            main(
                [
                    "gen",
                    "--kind",
                    "element-uniqueness",
                    "--values",
                    "1,2,3",
                    "--output",
                    str(path),
                ]
            )
            == 0
        )
        code = main(["solve", "--input", str(path), "--algorithm", "exact1d"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["result"]["profit"] == 0.5

    def test_element_uniqueness_draws_values_from_the_seed(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["gen", "--kind", "element-uniqueness", "--n", "30", "--seed", "4"]
        args += ["--low", "-5", "--high", "12"]
        assert main(args + ["--output", str(a)]) == 0
        assert main(args + ["--output", str(b)]) == 0
        assert a.read_text() == b.read_text()
        market, _ = load_market(str(a))
        q = market.qualities[:, 0]
        assert len(market) == 30 and ((-5 <= q) & (q <= 12)).all()
        assert np.array_equal(market.prices, q + 0.5)
        code = main(["solve", "--input", str(a), "--algorithm", "exact1d"])
        assert code == 0
        # 30 values from 18 integers repeat one, which earns at least 1
        assert json.loads(capsys.readouterr().out)["result"]["profit"] >= 1

    def test_random_gen_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["gen", "--kind", "random", "--n", "40", "--d", "2", "--seed", "9"]
        assert main(args + ["--output", str(a)]) == 0
        assert main(args + ["--output", str(b)]) == 0
        assert a.read_text() == b.read_text()
        market, _ = load_market(str(a))
        assert len(market) == 40 and market.dim == 2

    def test_json_format(self, tmp_path):
        path = tmp_path / "m.json"
        assert (
            main(
                [
                    "gen",
                    "--kind",
                    "random",
                    "--n",
                    "5",
                    "--format",
                    "json",
                    "--output",
                    str(path),
                ]
            )
            == 0
        )
        assert load_market(str(path))[0].dim == 1

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_stdout_ends_in_one_newline_and_loads_back(self, tmp_path, capsys, fmt):
        args = ["gen", "--kind", "random", "--n", "40", "--d", "2", "--seed", "9"]
        assert main(args + ["--format", fmt]) == 0
        text = capsys.readouterr().out
        assert text.endswith("\n") and not text.endswith("\n\n")
        path = tmp_path / f"m.{fmt}"
        path.write_text(text)
        market, _ = load_market(str(path))
        assert market == pd.random_pareto_market(40, 2, seed=9, value_range=(0, 100))

    def test_files_are_read_and_written_as_utf8(self, tmp_path):
        # no open() may fall back to the locale's codec: under
        # warn_default_encoding each such call raises EncodingWarning
        src = str(Path(pd.__file__).resolve().parents[1])
        strict = [sys.executable, "-X", "warn_default_encoding"]
        strict += ["-W", "error::EncodingWarning", "-m", "productdesign.cli"]
        gen = ["gen", "--kind", "random", "--n", "30", "--output", "m.csv"]
        solve = ["solve", "--input", "m.csv", "--algorithm", "exact1d"]
        for argv in (gen, solve + ["--output", "r.json"]):
            done = subprocess.run(
                strict + argv,
                cwd=tmp_path,
                env={**os.environ, "PYTHONPATH": src},
                capture_output=True,
                text=True,
                timeout=120,
            )
            assert done.returncode == 0, f"{argv[0]}: {done.stderr}"
        report = json.loads((tmp_path / "r.json").read_text(encoding="utf-8"))
        assert report["market"]["n"] == 30


class TestBench:
    def test_sweep_bench_smoke(self, capsys):
        code = main(["bench", "sweep", "--sizes", "500,1000"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert [r["n"] for r in payload["runs"]] == [500, 1000]
        for r in payload["runs"]:
            # criterion 8's market: qualities drawn from 0..20n, seed 8
            market = pd.random_pareto_market(
                r["n"], 1, seed=8, value_range=(0, 20 * r["n"])
            )
            _, stats = pd.solve_exact_1d_with_stats(market)
            assert r["entries"] == stats.entries
            assert r["rows_pruned"] == stats.rows_pruned

    def test_arrangement_bench_smoke(self, capsys):
        code = main(
            ["bench", "arrangement", "--sizes", "60", "--depths", "3"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        run0 = payload["runs"][0]
        assert run0["max_depth"] == 3
        assert run0["vertex_count"] <= 100 * 60 * 3

    def test_approx_bench_smoke(self, capsys):
        argv = ["bench", "approx", "--sizes", "150,300", "--d", "3"]
        code = main(argv)
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert (payload["d"], payload["epsilon"]) == (3, 0.25)
        assert [r["n"] for r in payload["runs"]] == [150, 300]
        assert len(payload["time_ratios"]) == 1
        for r in payload["runs"]:
            # pruned float markets: q ~ U(0, 100)^d, margin ~ U(1, 5)
            rng = np.random.default_rng(0)
            q = rng.uniform(0, 100, size=(r["n"], 3))
            prices = q.sum(axis=1) + rng.uniform(1, 5, size=r["n"])
            market = market_mod._prune_arrays(prices, q)
            report, levels, ladder = pd.solve_approx_detailed(market, 0.25)
            assert set(r) == {
                "n", "pruned_n", "ms", "profit", "levels", "levels_skipped",
                "depth_cap",
            }
            assert r["pruned_n"] == len(market) <= r["n"]
            ladder_levels = pd.level_schedule(pd.max_ppu(market), 0.25, len(market))
            assert len(r["levels"]) + r["levels_skipped"] == len(ladder_levels)
            assert [lv["work"] for lv in r["levels"]] == [lv.work for lv in levels]
            assert r["levels_skipped"] == ladder.levels_skipped
            assert r["depth_cap"] == ladder.depth_cap
            assert r["profit"] == report.profit > 0

    @pytest.mark.parametrize("d", ["0", "-1"])
    def test_approx_bench_rejects_a_nonpositive_d(self, d, capsys):
        assert main(["bench", "approx", "--sizes", "10", "--d", d]) == 2
        assert "error: d must be positive" in capsys.readouterr().err


class TestReadme:
    def test_cli_block_runs(self, tmp_path):
        # every `productdesign ...` line of the README's shell examples, in
        # order and in one directory, as `python -m productdesign.cli`
        readme = Path(__file__).resolve().parents[1] / "README.md"
        blocks = readme.read_text().split("```sh\n")[1:]
        lines = [
            line
            for block in blocks
            for line in block.split("```")[0].splitlines()
            if line.startswith("productdesign ")
        ]
        assert len(lines) >= 9
        src = str(Path(pd.__file__).resolve().parents[1])
        for line in lines:
            done = subprocess.run(
                [sys.executable, "-m", "productdesign.cli"]
                + shlex.split(line, comments=True)[1:],
                cwd=tmp_path,
                env={**os.environ, "PYTHONPATH": src},
                capture_output=True,
                text=True,
                timeout=300,
            )
            assert done.returncode == 0, f"{line}: {done.stderr}"
