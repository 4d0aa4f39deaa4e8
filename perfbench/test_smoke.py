"""Smoke test of the benchmark: every workload once on a tiny market.

Checks that each run emits exactly the metrics ``BENCHMARK.json`` names,
with their units, and that no op failed; and that the ``exact1d-sweep``
reference agrees with ``brute_force_optimum`` where that oracle can run.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import productdesign  # noqa: E402
from reference import monotone_optimum  # noqa: E402
from workloads import generate  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_workload_emits_every_metric(workload, trace):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.2", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    if not trace:
        assert result["metrics"]["success_ratio"]["value"] == 1.0


@pytest.mark.parametrize("n", [1, 2, 7, 300])
def test_monotone_optimum_matches_brute_force(n):
    for seed in range(10):
        markets = [generate("exact1d-sweep", seed, n)]
        rng = np.random.default_rng(seed)  # few qualities, so many ties
        q = np.sort(rng.integers(0, 4, size=n))
        markets.append(((q + np.cumsum(rng.integers(1, 4, size=n))).astype(float),
                        q.astype(float).reshape(-1, 1)))
        for prices, qualities in markets:
            market = productdesign.Market.from_arrays(prices, qualities, validate=False)
            expected = productdesign.brute_force_optimum(market).profit
            assert monotone_optimum(prices, qualities) == expected
