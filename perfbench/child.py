"""One benchmark process: runs a workload's CLI calls in a fresh interpreter.

``child.py setup`` imports ``crossarfima.cli`` and builds each call's
config the way ``cli.main`` does before it dispatches, and nothing else;
its wall time is the set-up cost a user pays on every CLI call.

``child.py run`` imports the CLI, then repeats passes of the workload
(every CLI call once) until ``--seconds`` have passed and at least
``MIN_PASSES`` are done.  Each untraced pass is followed by one timed
``child.py setup`` start, so that set-up and passes sample the same
phases of the machine.  With ``--trace 1`` every untraced pass is
followed by one with the span tracer installed instead.  The output
checks run after the timed passes, on the last pass's outputs.
Everything is written as JSON to ``--result``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import workloads
from workloads import WORKLOADS, Workload

MIN_PASSES = 3
MIN_TRACED_PASSES = 2
# replications per model whose exponents are recomputed by the reference
CHECKED_REPS = 2
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _cpu_s() -> float:
    """User plus system CPU of this process and its reaped children."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    """Larger of this process's and its largest child's peak RSS (ru_maxrss is KiB)."""
    me = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(me, kids) / 1024.0


def _call(cli, argv: list[str]) -> int:
    """Exit code of one CLI call; an escaping exception counts as a failure."""
    try:
        return int(cli.main(argv))
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 1
    except Exception:
        traceback.print_exc()
        return -1


def run_pass(cli, calls: list[list[str]], out: Path) -> dict:
    """One pass of every call, timed; ``out`` is emptied first, untimed."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    codes = [_call(cli, argv) for argv in calls]
    wall = time.perf_counter() - t0
    return {"wall_s": wall, "cpu_s": _cpu_s() - cpu0, "exit_codes": codes}


def time_setup(setup_cmd: list[str]) -> float:
    """Wall time of one fresh ``child.py setup`` interpreter, start to exit.

    No timeout here: a wait with a timeout polls in steps of up to 50 ms,
    which would round the figure.  run.py's timeout kills the process
    group, set-up starts included.
    """
    t0 = time.perf_counter()
    subprocess.run(setup_cmd, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def run_passes(cli, calls, out: Path, seconds: float, setup_cmd) -> tuple[list[dict], list[float]]:
    """Alternate timed passes and set-up starts; returns (passes, set-up times)."""
    passes, setups = [], []
    deadline = time.perf_counter() + seconds
    while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
        passes.append(run_pass(cli, calls, out))
        setups.append(time_setup(setup_cmd))
    return passes, setups


def run_checks(wl: Workload, seed: int, out: Path) -> tuple[list, float]:
    """Output checks of the last pass; returns (checks, theory_ccf_err).

    A check that cannot read or parse its files fails; it does not stop
    the others.
    """
    import checks as ck
    from crossarfima.models import PRESETS, simulate

    results = []
    theory_err = float("nan")

    def run(label, make):
        try:
            found = make()
        except Exception as e:
            found = ck.Check(label, False, f"{type(e).__name__}: {e}")
        results.extend(found if isinstance(found, list) else [found])

    def theory(path, column):
        nonlocal theory_err
        check, theory_err = ck.theory_ccf_error(path, column)
        return check

    if wl.kind == "experiment":
        picker = random.Random(seed)
        first = wl.workers[0]
        for m in wl.models:
            d = workloads.experiment_dir(out, first, m)
            run(f"{m} summary", lambda: ck.check_summary(d, m))
            run(f"{m} ccf_mean", lambda: ck.check_ccf_mean(d / "ccf_mean.csv"))
            if m == "model1":
                run(f"{m} exact theory", lambda: theory(d / "ccf_mean.csv", "theory_rho"))
            if m == "model3":
                run(f"{m} spike", lambda: ck.check_spike_ccf(d / "ccf_mean.csv", "theory_rho"))
            for rep in sorted(picker.sample(range(wl.reps), min(CHECKED_REPS, wl.reps))):
                s = simulate(PRESETS[m](), wl.T, seed + rep)
                run(
                    f"{m} rep {rep} exponents",
                    lambda: ck.check_replication_exponents(d, rep, s.x, s.y, workloads.ALL_ESTIMATORS),
                )
            # criterion 8: every worker count writes the same bytes
            names = ("replications.csv", "summary.csv", "ccf_mean.csv")
            for w in wl.workers[1:]:
                other = workloads.experiment_dir(out, w, m)
                run(f"{m} workers {w} identical", lambda: ck.check_identical(d, other, names))
    else:
        est = out / "est"
        for path in workloads.series_files(wl, out):
            ccf = est / f"ccf_{path.stem}.csv"
            run(
                path.name,
                lambda: ck.check_series_outputs(
                    path, wl.T, ccf, ck.read_rows(est / "estimates.csv"), workloads.PIPELINE_ESTIMATORS
                ),
            )
        for m in workloads.PRESETS:
            d = out / f"theory-{m}"
            run(f"{m} exponents", lambda: ck.check_theory_exponents(d / "exponents.csv", m))
            run(
                f"{m} theoretical_ccf",
                lambda: ck.check_ccf_table(d / "theoretical_ccf.csv", "rho", workloads.THEORY_MAX_LAG),
            )
            if m == "model1":
                run(f"{m} exact theory", lambda: theory(d / "theoretical_ccf.csv", "rho"))
            if m == "model3":
                run(f"{m} spike", lambda: ck.check_spike_ccf(d / "theoretical_ccf.csv", "rho"))
    if not math.isfinite(theory_err):
        # unreadable or non-finite theory: the largest possible |rho - rho_exact|
        theory_err = 2.0
    return [vars(c) for c in results], theory_err


def environment() -> dict:
    """What ran, and where: versions, BLAS and thread pinning, CPU."""
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu_model = next(
                (line.split(":", 1)[1].strip() for line in f if line.startswith("model name")),
                cpu_model,
            )
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def _import_cli(src: Path):
    from crossarfima import cli

    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"crossarfima imported from {cli.__file__}, not from {src}")
    return cli


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("setup", "run"))
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--src", type=Path, required=True)
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--result", type=Path)
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]
    out = args.work / "out"
    calls = workloads.cli_calls(wl, args.seed, out)

    cli = _import_cli(args.src)
    if args.mode == "setup":
        for call in calls:
            cli._config_from_args(cli.build_parser().parse_args(call))
        return 0

    result: dict = {"env": environment()}
    if args.trace:
        import spans

        # Untraced and traced passes alternate, so that drift in machine
        # speed does not show up as tracing overhead.
        tracer = spans.Tracer()
        result["passes"], result["traced_passes"] = [], []
        deadline = time.perf_counter() + args.seconds
        while len(result["passes"]) < MIN_TRACED_PASSES or time.perf_counter() < deadline:
            result["passes"].append(run_pass(cli, calls, out))
            tracer.run = len(result["traced_passes"])
            tracer.install()
            try:
                result["traced_passes"].append(run_pass(cli, calls, out))
            finally:
                tracer.uninstall()
        layers = [spans.layer_metrics(tracer.spans, i) for i in range(len(result["traced_passes"]))]
        result["layers"] = {k: statistics.median(d[k] for d in layers) for k in layers[0]}
        result["spans"] = tracer.spans
    else:
        setup_cmd = [sys.executable, __file__, "setup", "--workload", args.workload,
                     "--seed", str(args.seed), "--src", str(args.src), "--work", str(args.work)]  # fmt: skip
        result["passes"], result["setup_s"] = run_passes(cli, calls, out, args.seconds, setup_cmd)
    result["peak_rss_mb"] = _peak_rss_mb()
    result["checks"], result["theory_ccf_err"] = run_checks(wl, args.seed, out)
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
