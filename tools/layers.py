"""Time each layer of crossarfima at T = 1e4 and 1e5, some at 1e6, and write the table as JSON.

The rows of each size are timed at T = 1e4 and at T = 1e5: the innovation
draw, ``simulate`` (a later draw, which
finds its weight spectra cached by the warm-up, and a first draw, which
clears that cache before each call and builds them), ``dfa``, ``dcca``,
the pair pass (``fluctuations`` with the dfa and dcca windows: the
DFA/DCCA part of the CLI's pass, which gives DFA of x and of y and DCCA
of the pair in one loop; a later call, which finds its coefficients
kept, and a first call, which clears them before each call; and a later
call with both windows at s_min = 11, whose box sizes share no factor,
so that its base boxes are single points, g = 1), the same pass on a
stack of 10 pairs (``stacked_fluctuations`` of 10 draws, as an
``experiment`` job runs its chunk of replications, reported per pair
and timed in turns with the later single-pair call, so that a drift in
the machine's speed reaches both alike), ``hxa`` and ``sample_ccf``,
plus the write and the
read of one series file as the CLI does them, a ``simulate`` CLI call of
4 replications and an ``estimate --estimators hxa,ccf`` CLI call on its
4 files, each run serially and on the process pool (the pool rows only
where at least 2 CPUs are usable; the serial and the pooled call take
turns in one timing loop), at T = 1e4 only an ``experiment`` CLI call of
10 replications with all four estimators, on 1 worker (one stack of 10)
and on 2 (two stacks of 5), taking turns in the same way, and the pooled
``estimate`` once more
in a fresh interpreter at the default BLAS threads, where pool children
that each ran a multi-threaded BLAS call on the same cores would show.
At T = 1e5 a pooled ``simulate`` CLI call of 4 model2 replications runs
in a fresh interpreter for each call, which reads the peak resident MB
of its largest pool child (``RUSAGE_CHILDREN``'s ``ru_maxrss``): what a
forked child inherits from a parent that has drawn nothing, which an
in-process row cannot show, as the rows before it have drawn.
Every timing is of model1 with fixed seeds, estimator windows are the
CLI's T-scaled defaults, and each row reports the median and the best of
its runs after one untimed warm-up call.  BLAS runs on one thread,
except in that last row.  Per size, the output also records the bytes
that the two caches hold after that size's rows: the default pass
grid's coefficients (``estimators._window_coefficients``, 0 where the
grid is too large to keep) and the model's weight spectra
(``models._weight_spectrum``).  Two
last rows time what a pool costs and what every CLI call pays: a
2-worker ``cli.ProcessPoolExecutor`` started (by one no-op job per
worker) and shut down, named with its start method
(``cli._pool_context``), and the start-up of a fresh interpreter that
imports ``crossarfima.cli`` and builds one config, with its peak
resident MB (``VmHWM``, which, unlike ``ru_maxrss``, a child does not
inherit from the process that started it).  Together with the serial and
pooled CLI rows they give the break-even of ``cli.POOL_ROWS`` on the
machine at hand; these last rows and ``theoretical_ccf`` (at L = 100 and
1000) have no size.  Four rows are timed at T = 1e6 only: ``hxa`` and
``sample_ccf`` (both O(T log T)) on one model1 draw, at the CLI's windows
for that T; the pair pass on that draw over a stated subset of the CLI's
box sizes (its windows at step 1000, which keeps their g = 10: 50 DFA
and 200 DCCA box sizes, against 5,000 and 20,000 at step 10); and one
model2 ``simulate``, in a fresh interpreter for each call that reads its
own peak resident MB after the draw, as the start-up row does.

Run from the repository root; it times the ``src/`` tree beside this
directory and takes about a minute and a half on a 2-core VM:

    python tools/layers.py --output layers.json
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ.setdefault(_var, "1")

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import crossarfima  # noqa: E402
from crossarfima import cli  # noqa: E402
from crossarfima.config import default_config  # noqa: E402
from crossarfima.estimators import (  # noqa: E402
    _grid,
    _window_coefficients,
    dcca,
    dfa,
    fluctuations,
    hxa,
    sample_ccf,
    stacked_fluctuations,
)
from crossarfima.innovations import sample  # noqa: E402
from crossarfima.models import _weight_spectrum, model1, simulate, theoretical_ccf, weight_spectra  # noqa: E402

SIZES = (10_000, 100_000)
LARGE_T = 1_000_000
# the step of the box sizes that the pair pass at LARGE_T times
LARGE_STEP = 1000
# windows whose box sizes share no factor (s_min = 11, step 10), so that base boxes are single points
G1 = {"s_min": 11}
SEED = 42
RUNS = 7
CCF_LAGS = (100, 1000)
# replications of the simulate CLI rows, and files of the estimate CLI rows
SIM_REPS = 4
# pairs of the stacked pass row, and replications of the experiment CLI rows (at SIZES[0] only)
STACK = 10
# a CLI call's start: import the CLI and build its config (as perfbench's
# setup_s does), then print the peak resident set in KiB
STARTUP = (
    "from crossarfima import cli\n"
    "cli._config_from_args(cli.build_parser().parse_args(['experiment']))\n"
    "with open('/proc/self/status') as f:\n"
    "    print(next(line.split()[1] for line in f if line.startswith('VmHWM:')))\n"
)
# a model2 draw at T = 1e6, the package imported first: prints the draw's
# seconds and the peak resident set in KiB
LARGE_DRAW = (
    "import time\n"
    "from crossarfima.models import model2, simulate\n"
    "start = time.perf_counter()\n"
    f"simulate(model2(), {LARGE_T}, {SEED})\n"
    "seconds = time.perf_counter() - start\n"
    "with open('/proc/self/status') as f:\n"
    "    print(seconds, next(line.split()[1] for line in f if line.startswith('VmHWM:')))\n"
)
# a simulate CLI call of SIM_REPS model2 replications at T = argv[1], which
# pools them where 2 CPUs are usable: prints the call's seconds and the peak
# resident set in KiB of its largest pool child (RUSAGE_CHILDREN's ru_maxrss,
# of the workers alone, as this interpreter starts no other child)
POOLED_DRAW = (
    "import contextlib, io, resource, sys, tempfile, time\n"
    "from crossarfima import cli\n"
    "with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):\n"
    "    start = time.perf_counter()\n"
    f"    argv = ['simulate', '--model', 'model2', '--T', sys.argv[1], '--reps', '{SIM_REPS}', '--seed', '{SEED}']\n"
    "    if cli.main([*argv, '--output', out]) != 0:\n"
    "        raise SystemExit(f'failed: {argv}')\n"
    "    seconds = time.perf_counter() - start\n"
    "print(seconds, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
)
# the CLI call of argv[2:] on the pool, once untimed and argv[1] times
# timed; prints the timed calls' seconds
POOLED_CALLS = (
    "import contextlib, io, sys, time\n"
    "from crossarfima import cli\n"
    "cli.POOL_ROWS = 0\n"
    "times = []\n"
    "for _ in range(1 + int(sys.argv[1])):\n"
    "    start = time.perf_counter()\n"
    "    with contextlib.redirect_stdout(io.StringIO()):\n"
    "        if cli.main(sys.argv[2:]) != 0:\n"
    "            raise SystemExit(f'failed: {sys.argv[2:]}')\n"
    "    times.append(time.perf_counter() - start)\n"
    "print(*times[1:])\n"
)


def _time_turns(calls: dict) -> dict:
    """_time of each of calls by name, the calls taking turns in one loop of RUNS rounds."""
    for call in calls.values():
        call()
    times = {name: [] for name in calls}
    for _ in range(RUNS):
        for name, call in calls.items():
            start = time.perf_counter()
            call()
            times[name].append(time.perf_counter() - start)
    return {name: {"median_ms": 1e3 * statistics.median(t), "best_ms": 1e3 * min(t)} for name, t in times.items()}


def _time(call) -> dict:
    """The median and best ms of RUNS calls, after one untimed warm-up call."""
    return _time_turns({None: call})[None]


def _write_series(cfg, series):
    """cli.cmd_simulate with the draw taken out: the file write alone."""
    draw = cli.simulate
    cli.simulate = lambda model, T, seed: series
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            cli.cmd_simulate(cfg)
    finally:
        cli.simulate = draw


def _estimate_argv(workdir: str) -> list[str]:
    """An estimate CLI call on the files the simulate CLI rows write."""
    files = [os.path.join(workdir, "sims", f"series_r{r:04d}.csv") for r in range(SIM_REPS)]
    return ["estimate", "--estimators", "hxa,ccf", "--output", os.path.join(workdir, "est"), *files]


def _cli(argv: list[str], pool: bool) -> None:
    """One CLI call, on the pool or serially, whatever its size."""
    gate = cli.POOL_ROWS
    cli.POOL_ROWS = 0 if pool else sys.maxsize
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            if cli.main(argv) != 0:
                raise RuntimeError(f"{argv[0]} failed: {argv}")
    finally:
        cli.POOL_ROWS = gate


def _simulate_cli(T: int, workdir: str, pool: bool) -> None:
    """One simulate CLI call of SIM_REPS replications, on the pool or serially."""
    _cli(["simulate", "--model", "model1", "--T", str(T), "--reps", str(SIM_REPS), "--seed", str(SEED),
          "--output", os.path.join(workdir, "sims")], pool)  # fmt: skip


def pooled_unpinned_row(workdir: str) -> dict:
    """_time's figures for the pooled estimate CLI call, timed in a fresh
    interpreter whose BLAS runs at its default thread count."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = str(SRC)
    proc = subprocess.run([sys.executable, "-c", POOLED_CALLS, str(RUNS), *_estimate_argv(workdir)],
                          env=env, check=True, capture_output=True, text=True)  # fmt: skip
    times = [float(t) for t in proc.stdout.split()]
    return {"median_ms": 1e3 * statistics.median(times), "best_ms": 1e3 * min(times)}


def _pool_start() -> None:
    """A 2-worker cli.ProcessPoolExecutor, started by one no-op job per worker, and shut down."""
    with cli.ProcessPoolExecutor(2) as pool:
        list(pool.map(abs, (0, 0)))


def layer_rows(T: int, workdir: str) -> dict:
    # empty caches, so that what they hold after the rows is this size's alone
    _weight_spectrum.cache_clear()
    _window_coefficients.cache_clear()
    model = model1()
    cfg = default_config("model1", t=str(T), replications="1", base_seed=str(SEED), output_dir=workdir)
    series = simulate(model, T, SEED)
    x, y = series.x, series.y
    path = os.path.join(workdir, "series_r0000.csv")
    calls = {
        "innovation draw": lambda: sample(model.covariance, T + series.truncation, SEED),
        "simulate": lambda: simulate(model, T, SEED),
        "simulate (first draw)": lambda: (_weight_spectrum.cache_clear(), simulate(model, T, SEED)),
        "dfa": lambda: dfa(x, **cfg.window("dfa")),
        "dcca": lambda: dcca(x, y, **cfg.window("dcca")),
        "pair pass (g = 1)": lambda: fluctuations(x, y, dfa=cfg.window("dfa") | G1, dcca=cfg.window("dcca") | G1),
        "pair pass (first call)": lambda: (
            _window_coefficients.cache_clear(), fluctuations(x, y, dfa=cfg.window("dfa"), dcca=cfg.window("dcca"))
        ),
        "hxa": lambda: hxa(x, y, **cfg.window("hxa")),
        "sample_ccf": lambda: sample_ccf(x, y, **cfg.window("ccf")),
        "csv write": lambda: _write_series(cfg, series),
        "csv read": lambda: cli._load_series_file(path),
    }
    rows = {name: _time(call) for name, call in calls.items()}
    windows = {"dfa": cfg.window("dfa"), "dcca": cfg.window("dcca")}
    pairs = [(s.x, s.y) for s in (simulate(model, T, SEED + r) for r in range(STACK))]
    stacked = f"pair pass, stack of {STACK} (per pair)"
    rows.update(_time_turns({
        "pair pass": lambda: fluctuations(x, y, **windows),
        stacked: lambda: stacked_fluctuations(pairs, **windows),
    }))  # fmt: skip
    rows[stacked] = {name: ms / STACK for name, ms in rows[stacked].items()}
    del pairs
    pooled = cli._usable_cpus() >= 2
    # the estimate rows read the files that the simulate rows write
    cli_calls = {
        f"simulate CLI, {SIM_REPS} reps": lambda pool: _simulate_cli(T, workdir, pool),
        f"estimate CLI, {SIM_REPS} files": lambda pool: _cli(_estimate_argv(workdir), pool),
    }
    if T == SIZES[0]:
        cli_calls[f"experiment CLI, {STACK} reps"] = lambda pool: _cli(
            ["experiment", "--model", "model1", "--T", str(T), "--reps", str(STACK), "--seed", str(SEED),
             "--workers", "2" if pool else "1", "--output", os.path.join(workdir, "exp")], pool
        )  # fmt: skip
    for name, call in cli_calls.items():
        turns = {f"{name}, serial": functools.partial(call, False)}
        if pooled:
            turns[f"{name}, pool"] = functools.partial(call, True)
        rows.update(_time_turns(turns))
    if pooled:
        rows[f"estimate CLI, {SIM_REPS} files, pool, default BLAS threads"] = pooled_unpinned_row(workdir)
    if pooled and T == SIZES[1]:
        rows[f"model2 simulate CLI, {SIM_REPS} reps, pool children"] = fresh_row(POOLED_DRAW, str(T))
    rows["csv write"]["bytes"] = os.path.getsize(path)
    return rows


def _child(script: str, *argv: str) -> list[str]:
    """The words that script prints, run with argv in a fresh interpreter on this src/ tree."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", script, *argv], env=env, check=True, capture_output=True, text=True)
    return proc.stdout.split()


def startup_row() -> dict:
    """_time of a fresh interpreter's STARTUP, plus the median of its peak resident MB."""
    peaks = []
    row = _time(lambda: peaks.append(int(_child(STARTUP)[0]) / 1024))
    row["MB"] = statistics.median(peaks)
    return row


def fresh_row(script: str, *argv: str) -> dict:
    """_time's figures for the one call of script (LARGE_DRAW, POOLED_DRAW), each
    in a fresh interpreter, plus the median of the peak resident MB it prints."""
    runs = [_child(script, *argv) for _ in range(1 + RUNS)][1:]
    times = [float(seconds) for seconds, _ in runs]
    return {
        "median_ms": 1e3 * statistics.median(times),
        "best_ms": 1e3 * min(times),
        "MB": statistics.median(int(kib) / 1024 for _, kib in runs),
    }


def large_rows() -> dict:
    """_time of hxa and sample_ccf at LARGE_T on one model1 draw, with the CLI's windows at that T, and of
    the pair pass on it over those windows' box sizes at LARGE_STEP."""
    cfg = default_config("model1", t=str(LARGE_T))
    series = simulate(model1(), LARGE_T, SEED)
    _weight_spectrum.cache_clear()
    x, y = series.x, series.y
    wd, wc = ({**cfg.window(name), "step": LARGE_STEP} for name in ("dfa", "dcca"))
    return {
        "hxa": _time(lambda: hxa(x, y, **cfg.window("hxa"))),
        "sample_ccf": _time(lambda: sample_ccf(x, y, **cfg.window("ccf"))),
        f"pair pass, box sizes at step {LARGE_STEP}": _time(lambda: fluctuations(x, y, dfa=wd, dcca=wc)),
    }


def held_bytes(T: int) -> dict:
    """Bytes that the two caches hold after layer_rows(T), read back by the keys its calls used."""
    cfg = default_config("model1", t=str(T))
    misses = _window_coefficients.cache_info().misses + _weight_spectrum.cache_info().misses
    # the pass's key: each (box size, order, g) of the two windows' grids, sorted
    grids = (_grid(T, **cfg.window(name)) for name in ("dfa", "dcca"))
    kept = _window_coefficients(tuple(sorted({(s, order, g) for sizes, order, g in grids for s in sizes})))
    # one array per distinct (kind, param), as the cache holds them
    spectra = {(c.kind, c.param): s for _, c, s in weight_spectra(model1(), T)[2] if s is not None}
    held = {
        "_window_coefficients": 0 if kept is None else kept[0].base.nbytes,
        "_weight_spectrum": sum(s.nbytes for s in spectra.values()),
    }
    if _window_coefficients.cache_info().misses + _weight_spectrum.cache_info().misses != misses:
        raise RuntimeError("a cache did not hold what the rows built")
    return held


def machine() -> dict:
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    return {
        "cpu": cpu,
        "cores": os.cpu_count(),
        "usable_cpus": cli._usable_cpus(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "crossarfima": crossarfima.__version__,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", required=True, help="JSON file to write")
    args = parser.parse_args(argv)

    started = time.perf_counter()
    result = {"machine": machine(), "model": "model1", "seed": SEED, "runs": RUNS, "layers": {}, "held_bytes": {}}
    with tempfile.TemporaryDirectory() as workdir:
        for T in SIZES:
            result["layers"][f"T={T}"] = layer_rows(T, workdir)
            result["held_bytes"][f"T={T}"] = held_bytes(T)
    result["layers"]["theoretical_ccf"] = {
        f"L={L}": _time(lambda: theoretical_ccf(model1(), max_lag=L)) for L in CCF_LAGS
    }
    result["layers"]["process pool"] = {
        f"2 workers, start + stop ({cli._pool_context().get_start_method()})": _time(_pool_start)
    }
    result["layers"]["start-up"] = {"import cli + config": startup_row()}
    result["layers"][f"T={LARGE_T}"] = {**large_rows(), "model2 simulate, fresh interpreter": fresh_row(LARGE_DRAW)}
    result["total_s"] = time.perf_counter() - started

    Path(args.output).write_text(json.dumps(result, indent=2) + "\n")
    for size, rows in result["layers"].items():
        for name, row in rows.items():
            mb = f"  {row['MB']:.1f} MB" if "MB" in row else ""
            print(f"{size:>16s}  {name:50s}  median {row['median_ms']:9.2f} ms  best {row['best_ms']:9.2f} ms{mb}")
    for size, held in result["held_bytes"].items():
        print(f"{size:>16s}  held bytes  " + "  ".join(f"{name} {n:,}" for name, n in held.items()))
    print(f"wrote {args.output} in {result['total_s']:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
