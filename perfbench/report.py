"""Run every workload and print each metric by name, with its unit.

    python3 perfbench/report.py --seed 1 --seconds 50          # end-to-end
    python3 perfbench/report.py --seed 1 --seconds 50 --trace  # per-layer too

Each workload runs in its own ``run.py`` process, one after another.  The
traced pass also prints the self time of each layer the workload was
chosen for, as a share of the untraced ``op_s`` of the same run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("exact1d-sweep", "approx-d2")
SHARES = {  # layer self time over op_s, as the workload's reason predicts
    "exact1d-sweep": ("sweep.solve_s",),
    "approx-d2": ("simplices.depth_s", "approx.project_s"),
}


def run(workload: str, args, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=600)
    info, result = (json.loads(line) for line in out.stdout.splitlines()[-2:])
    return info, result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", action="store_true", help="also run traced")
    args = parser.parse_args()
    for workload in WORKLOADS:
        info, result = run(workload, args, 0)
        print(f"== {workload}  inputs {json.dumps(info['inputs'])}")
        print(f"   machine {json.dumps(info['machine'])}")
        print(f"   op_s over {len(info['op_s_samples'])} timed ops, setup_s over "
              f"{len(info['setup_s_samples'])} set-ups, "
              f"reference: {info['reference']['source']}")
        print(f"   correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        _table(result["metrics"])
        if args.trace:
            traced_info, traced = run(workload, args, 1)
            print("   -- traced run")
            _table(traced["metrics"])
            op_s = statistics.median(traced_info["op_s_samples"])
            for layer in SHARES[workload]:
                share = traced["metrics"][layer]["value"] / op_s
                print(f"   share {layer} / op_s = {share:.3f}")
    return 0


def _table(metrics: dict):
    for name, m in metrics.items():
        print(f"   {name:<28} {m['value']:>16.6g} {m['unit']}")


if __name__ == "__main__":
    sys.exit(main())
