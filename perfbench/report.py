"""Run every workload once and print every metric by name, with its unit.

Usage (from the repository root):

    python3 perfbench/report.py [--seed 42] [--seconds 45] [--trace 0|1]

Each workload runs through run.py in its own process, one after another,
so they never share the machine.  Exits non-zero if any run fails or any
output check fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]  # fmt: skip
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=HERE.parent)
        try:
            # run.py prints its result line, then exits 1, when a check fails
            result = json.loads(proc.stdout.splitlines()[-1])
        except (IndexError, ValueError):
            print(f"{name}: run failed ({proc.returncode})\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        counts = f"attempted={result['attempted']} failed={result['failed']}"
        print(f"{name}: correct={result['correct']} {counts}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:40s} {m['value']:>14.6g} {m['unit']}")
        status |= 0 if result["correct"] and proc.returncode == 0 else 1
    return status


if __name__ == "__main__":
    sys.exit(main())
