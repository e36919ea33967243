"""crossarfima benchmark: one workload, one seed, one JSON result line.

Usage (from the repository root):

    python3 perfbench/run.py --workload mc-t1e4 --seed 42 --seconds 45 --trace 0

Builds nothing: the program is the ``src/`` tree next to this directory,
imported with ``PYTHONPATH=src`` by child interpreters (see child.py)
that have BLAS and OpenMP pinned to one thread each.  With ``--trace 0``
the last line of standard output holds the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` it holds the per-layer metrics of a
traced run.  The full record (environment, every pass, every check,
spans) goes to ``.perfbench_out/``.  The exit code is 1 when a CLI call
or an output check failed, after the result line is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
CHILD = HERE / "child.py"

CHILD_TIMEOUT_S = 160
# BLAS/OpenMP threads per process: pool workers x threads stays <= nproc.
PINNED_THREADS = "1"

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402


def benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = PINNED_THREADS
    return env


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside a clone."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def run_child(args, work: Path, result_path: Path, log) -> None:
    """Run ``child.py run`` to completion; raises on failure.

    The child gets its own process group, so that on a timeout its pool
    workers and set-up starts are killed with it.
    """
    cmd = [sys.executable, str(CHILD), "run", "--workload", args.workload,
           "--seed", str(args.seed), "--src", str(SRC), "--work", str(work),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--result", str(result_path)]  # fmt: skip
    proc = subprocess.Popen(
        cmd, env=child_env(), stdout=log, stderr=subprocess.STDOUT, start_new_session=True
    )
    try:
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if code != 0:
        raise subprocess.CalledProcessError(code, cmd)


def operations(result: dict) -> tuple[int, int]:
    """(attempted, failed) operations of a run.

    An operation is one distinct CLI call of the workload, failed if it
    exited non-zero in any pass, or one output check.  Counting each call
    once, not once per pass, keeps a single failure at about 1/25 of the
    total, whatever the number of passes.
    """
    passes = result["passes"] + (result.get("traced_passes") or [])
    calls_failed = [any(code != 0 for code in codes) for codes in zip(*(p["exit_codes"] for p in passes))]
    checks_failed = [not c["ok"] for c in result["checks"]]
    return len(calls_failed) + len(checks_failed), sum(calls_failed) + sum(checks_failed)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=42, help="workload seed, passed to the CLI as --seed")
    ap.add_argument("--seconds", type=float, default=45.0, help="time spent in measured passes")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "crossarfima" / "cli.py").is_file():
        print(f"error: no program source at {SRC}/crossarfima", file=sys.stderr)
        return 2
    spec = benchmark_spec()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / f"work-{tag}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    log_path = OUT / f"{tag}.log"
    try:
        with open(log_path, "w") as log:
            result_path = work / "result.json"
            run_child(args, work, result_path, log)
        result = json.loads(result_path.read_text())
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        print(f"error: {e}; see {log_path}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed = operations(result)
    if args.trace:
        # each traced pass directly follows an untraced one: compare in pairs
        pairs = zip(result["traced_passes"], result["passes"])
        overhead = statistics.median(t["wall_s"] - u["wall_s"] for t, u in pairs)
        metrics = dict(result["layers"], **{"trace.overhead_s": overhead})
        names = [m["name"] for m in spec["per_layer"]]
    else:
        metrics = {
            "wall_s": statistics.median(p["wall_s"] for p in result["passes"]),
            "cpu_s": statistics.median(p["cpu_s"] for p in result["passes"]),
            "setup_s": statistics.median(result["setup_s"]),
            "peak_rss_mb": result["peak_rss_mb"],
            "op_ok_frac": 1.0 - failed / attempted,
            "theory_ccf_err": result["theory_ccf_err"],
        }
        names = [m["name"] for m in spec["end_to_end"]]

    env = dict(result["env"], git_commit=git_commit())
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "setup_runs_s": result.get("setup_s"),
        "passes": result["passes"],
        "traced_passes": result.get("traced_passes"),
        "checks": result["checks"],
        "metrics": metrics,
    }
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1))
    if args.trace:
        (OUT / f"{tag}-spans.json").write_text(json.dumps(result["spans"]))

    print("env " + json.dumps(env, sort_keys=True))
    for c in result["checks"]:
        if not c["ok"]:
            print(f"check FAILED {c['name']}: {c['detail']}")
    print(f"{args.workload}: {len(result['passes'])} passes, {len(result['checks'])} checks")
    for name in names:
        print(f"  {name:40s} {metrics[name]!r:>24} {units[name]}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in names},
            }
        )
    )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
