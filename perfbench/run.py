"""Run one benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload exact1d-sweep --seed 1 --seconds 50 --trace 0

Single process, single thread, closed loop: one op at a time, each op
starting when the previous one has been checked.  The run sets up
``SETUPS`` times (generate inputs, write files, one warm-up op) and
reports the median as ``setup_s``; it then runs ops for ``--seconds``
and reports their median wall time as ``op_s``.  Every op's product is
re-evaluated against the generated inputs, and its profit is compared
with a reference optimum (see ``reference.py``).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced ops and prints per-layer metrics from the traced
ones (``spans.py``), plus the tracing overhead.  ``--smoke`` shrinks
every workload to a tiny market, for the benchmark's own test.

The last line of standard output is the result object; the line before
it describes the machine, the inputs and every sample.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
# numpy's OpenBLAS starts a thread per core at import; the package makes no
# BLAS calls, and one thread keeps the run single-threaded on a shared host.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402
import productdesign  # noqa: E402

if Path(productdesign.__file__).resolve().parent != ROOT / "src" / "productdesign":
    sys.exit(f"error: productdesign imported from {productdesign.__file__}, not src/")

from productdesign.simplices import EXACT_DEPTH_GUARD  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import SPECS, Workload, WrongResult  # noqa: E402

SETUPS = 3
REFERENCE_TIMEOUT_S = 150


def machine_stamp() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
        commit = out.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "platform": platform.platform(),
    }


def reference_profit(name: str, seed: int, n: int) -> tuple[float, str]:
    """The optimum to compare reported profits with, and how it was found."""
    out = subprocess.run(
        [sys.executable, str(HERE / "reference.py"),
         "--workload", name, "--seed", str(seed), "--n", str(n)],
        capture_output=True, text=True, timeout=REFERENCE_TIMEOUT_S, check=True,
    )
    answer = json.loads(out.stdout)
    return answer["profit"], answer["method"]


def measure(args, n: int, workdir: Path) -> tuple[dict, dict]:
    spec = SPECS[args.workload]
    setup_s = []
    for _ in range(SETUPS):
        gc.collect()
        start = time.perf_counter()
        workload = Workload(spec, args.seed, n, workdir)
        warm = workload.op()
        setup_s.append(time.perf_counter() - start)
        workload.check(warm)

    tracer = Tracer() if args.trace else None
    op_s, traced_s, layers, profits, errors = [], [], [], [], []
    deadline = time.perf_counter() + args.seconds
    while True:
        traced = tracer is not None and (len(op_s) + len(traced_s)) % 2 == 1
        gc.collect()
        if traced:
            tracer.install()
        start = time.perf_counter()
        error = None
        try:
            result = workload.op()
        except Exception as e:  # an op that raises counts as failed
            error = e
        elapsed = time.perf_counter() - start
        if traced:
            tracer.uninstall()
            traced_s.append(elapsed)
        else:
            op_s.append(elapsed)
        if error is None:
            try:
                profits.append(workload.check(result))
            except (WrongResult, KeyError, TypeError, ValueError) as e:
                error = e  # a malformed report is a wrong result too
        if error is not None:
            errors.append(repr(error))
        elif traced:
            layers.append(tracer.op_metrics(EXACT_DEPTH_GUARD))
        if tracer is not None:
            tracer.spans.clear()
        done = len(op_s) >= 1 and (tracer is None or len(traced_s) >= 1)
        if done and time.perf_counter() >= deadline:
            break
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    reference, source = reference_profit(spec.name, args.seed, n)
    wrong = sum(not spec.min_ratio * reference <= p <= reference for p in profits)
    profit_ratio = min(profits) / reference if profits else 0.0
    attempted = len(op_s) + len(traced_s)
    failed = len(errors) + wrong

    if tracer is None:
        metrics = {
            "op_s": (statistics.median(op_s), "s"),
            "setup_s": (statistics.median(setup_s), "s"),
            "peak_rss_mb": (rss_mb, "MB"),
            "profit_ratio": (profit_ratio, "ratio"),
            "success_ratio": (1.0 - failed / attempted, "ratio"),
        }
    else:
        samples = layers or [Tracer().op_metrics(1)]
        metrics = {
            k: (statistics.median(s[k] for s in samples), _unit(k)) for k in samples[0]
        }
        metrics["trace.op_s"] = (statistics.median(traced_s), "s")
        metrics["trace.overhead_ratio"] = (
            statistics.median(traced_s) / statistics.median(op_s), "ratio")

    info = {
        "workload": spec.name,
        "seed": args.seed,
        "trace": args.trace,
        "machine": machine_stamp(),
        "inputs": workload.describe(),
        "setup_s_samples": setup_s,
        "op_s_samples": op_s,
        "traced_op_s_samples": traced_s,
        "reference": {"profit": reference, "source": source},
        "errors": errors,
        "wrong_results": wrong,
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return info, result


def _unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_bytes"):
        return "bytes"
    if metric == "simplices.grid_work":
        return "computed_cells"
    if metric.endswith("_ratio") or metric.endswith("_headroom"):
        return "ratio"
    return "count"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny markets")
    args = parser.parse_args()
    spec = SPECS[args.workload]
    n = spec.smoke_n if args.smoke else spec.n

    workroot = ROOT / ".perfbench_work"
    workroot.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=workroot))
    try:
        info, result = measure(args, n, workdir)
    finally:
        shutil.rmtree(workdir)
        try:
            workroot.rmdir()
        except OSError:  # another run is still using it
            pass
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
