"""Time each layer of crossarfima at T = 1e4 and 1e5 and write the table as JSON.

The layers are the innovation draw, ``simulate`` (a later draw, which
finds its weight spectra cached by the warm-up, and a first draw, which
clears that cache before each call and builds them), ``dfa``, ``dcca``, the
pair pass (``fluctuations``: DFA of x and of y and DCCA of the pair in one
loop, as the CLI runs them; a later call, which finds its box bases kept,
and a first call, which clears them before each call), ``hxa``,
``sample_ccf`` and ``theoretical_ccf``, plus the write and the read of one
series file as the CLI does them.  Every timing is of model1 with fixed
seeds, estimator windows are the CLI's T-scaled defaults, and each row
reports the median and the best of its runs after one untimed warm-up
call.  BLAS runs on one thread.  Per size, the output also records the
bytes that the two caches hold after that size's rows: the pass grid's box
bases (``estimators._window_bases``, 0 where the grid is too large to keep)
and the model's weight spectra (``models._weight_spectrum``).

Run from the repository root; it times the ``src/`` tree beside this
directory and takes well under a minute on a 2-core VM:

    python tools/layers.py --output layers.json
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import statistics
import sys
import tempfile
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

import crossarfima  # noqa: E402
from crossarfima import cli  # noqa: E402
from crossarfima.config import default_config  # noqa: E402
from crossarfima.estimators import _grid, _window_bases, dcca, dfa, fluctuations, hxa, sample_ccf  # noqa: E402
from crossarfima.filters import WHITE, _smooth_length  # noqa: E402
from crossarfima.innovations import sample  # noqa: E402
from crossarfima.models import _weight_spectrum, model1, simulate, theoretical_ccf  # noqa: E402

SIZES = (10_000, 100_000)
SEED = 42
RUNS = 7
CCF_LAGS = (100, 1000)


def _time(call) -> dict:
    call()
    times = []
    for _ in range(RUNS):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return {"median_ms": 1e3 * statistics.median(times), "best_ms": 1e3 * min(times)}


def _write_series(cfg, series):
    """cli.cmd_simulate with the draw taken out: the file write alone."""
    draw = cli.simulate
    cli.simulate = lambda model, T, seed: series
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            cli.cmd_simulate(cfg)
    finally:
        cli.simulate = draw


def layer_rows(T: int, workdir: str) -> dict:
    # empty caches, so that what they hold after the rows is this size's alone
    _weight_spectrum.cache_clear()
    _window_bases.cache_clear()
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
        "pair pass": lambda: fluctuations(x, y, dfa=cfg.window("dfa"), dcca=cfg.window("dcca")),
        "pair pass (first call)": lambda: (
            _window_bases.cache_clear(), fluctuations(x, y, dfa=cfg.window("dfa"), dcca=cfg.window("dcca"))
        ),
        "hxa": lambda: hxa(x, y, **cfg.window("hxa")),
        "sample_ccf": lambda: sample_ccf(x, y, **cfg.window("ccf")),
        "csv write": lambda: _write_series(cfg, series),
        "csv read": lambda: cli._load_series_file(path),
    }
    rows = {name: _time(call) for name, call in calls.items()}
    rows["csv write"]["bytes"] = os.path.getsize(path)
    return rows


def held_bytes(T: int) -> dict:
    """Bytes that the two caches hold after layer_rows(T), read back by the keys its calls used."""
    cfg = default_config("model1", t=str(T))
    misses = _window_bases.cache_info().misses + _weight_spectrum.cache_info().misses
    bases = _window_bases(tuple(sorted(_grid(T, **cfg.window("dfa")) | _grid(T, **cfg.window("dcca")))))
    M = simulate(model1(), T, SEED).truncation
    spectra = {(c.kind, c.param) for c in model1().components if c.kind != WHITE}
    held = {
        "_window_bases": 0 if bases is None else bases[0].base.nbytes,
        "_weight_spectrum": sum(_weight_spectrum(k, p, M, _smooth_length(T + 2 * M)).nbytes for k, p in spectra),
    }
    if _window_bases.cache_info().misses + _weight_spectrum.cache_info().misses != misses:
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
    result["total_s"] = time.perf_counter() - started

    Path(args.output).write_text(json.dumps(result, indent=2) + "\n")
    for size, rows in result["layers"].items():
        for name, row in rows.items():
            print(f"{size:>16s}  {name:22s}  median {row['median_ms']:9.2f} ms  best {row['best_ms']:9.2f} ms")
    for size, held in result["held_bytes"].items():
        print(f"{size:>16s}  held bytes  " + "  ".join(f"{name} {n:,}" for name, n in held.items()))
    print(f"wrote {args.output} in {result['total_s']:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
