"""Run a fixed list of crossarfima CLI calls and keep every output, for byte comparison.

Each call runs in this process through ``crossarfima.cli.main``, with the
package imported from ``--src`` (put first on ``sys.path``), BLAS on one
thread and the working directory set to ``--output``.  Every path in the
calls is relative, so the file columns of ``estimates.csv`` read the same
in every run.  The script writes each call's argv, exit code, stdout and
stderr to ``calls.json`` beside the output files.  Two source trees give
the same outputs when the two output directories compare equal:

    python tools/golden.py --src src --output golden-new
    python tools/golden.py --src ../parent/src --output golden-old
    diff -r golden-old golden-new

The calls are ``simulate`` for each preset at T = 999, 3000 and 1e5;
``estimate`` on those files, on the 999- and 3000-row files together,
on a 150-row file beside one of them, and on inputs that fail (header
only, empty, four columns, 50 rows, a directory, a missing file);
``theory`` at the defaults and at ``--max-lag 1000``; ``experiment``
at T = 1e4 (10 replications, 1 and 2 workers) and at T = 300;
``experiment`` on 2 workers, then ``simulate``, ``theory`` and
``experiment`` at T = 1000 with 2 replications, on a ``--config`` file
holding the README's inline model with detrend order 2 (its AR(1) and
white terms and sigma_14 make the series a check that each component
reads its own innovation stream; the first call's pool children draw
the model before this process has built its weight spectra);
the CCF alone at ``--max-lag 7``, by ``estimate`` on the model1
999-row files and by ``experiment`` at T = 300 (3 replications); and, on
a ``--config`` file that pins ``[dcca] s_max = 999999``, ``simulate`` and
``theory``, which run no estimator, and ``experiment`` at T = 1000 with
``--estimators hxa`` and with ``--estimators dcca`` (a window is checked
only where its estimator runs, so only the last is a config error);
and last, ``experiment`` on model2 at T = 2e4 (2 replications, DFA and
DCCA), whose windows' box bases are too large to keep, so that the pass
builds each at its box size.  Each ``estimate`` input gets the windows of
its own length.  A run takes 3 to 5 s on a 2-core VM.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
import time
import warnings
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

PRESETS = ("model1", "model2", "model3")
SIM_T = (999, 3000, 100_000)
ALL_ESTIMATORS = "dfa,dcca,hxa,ccf"
# inputs estimate must fail one by one (50 rows are fewer than any config
# allows); missing.csv is never made
BAD_INPUTS = ("inputs/header_only.csv", "inputs/empty.csv", "inputs/four_columns.csv",
              "inputs/fifty_rows.csv", "inputs/adir")
INLINE_CONFIG = "inputs/inline.ini"
# a DCCA window that no T = 1000 or T = 1e4 call can fit
PINNED_CONFIG = "inputs/pinned.ini"
PINNED_INI = "[experiment]\n\n[dcca]\ns_max = 999999\n"
# the README's inline model; write_inputs adds the detrend order
INLINE_INI = """[experiment]
model = inline
t = 4000
replications = 7
base_seed = 5
estimators = dfa,dcca

[component.x1]
kind = fractional
weight = 1.0
param = 0.35

[component.x2]
kind = ar1
weight = 0.5
param = -0.2

[component.y1]
kind = white
weight = 2.0

[component.y2]
kind = fractional
weight = 1.0
param = 0.1

[covariance]
var_2 = 4.0
sigma_23 = 0.25
sigma_14 = -0.1
"""


def _series(model: str, T: int) -> list[str]:
    return [f"sim-{model}-{T}/series_r000{r}.csv" for r in range(2)]


def calls() -> list[list[str]]:
    out = []
    for m in PRESETS:
        for T in SIM_T:
            out.append(["simulate", "--model", m, "--T", str(T), "--reps", "2", "--seed", "42",
                        "--output", f"sim-{m}-{T}"])
    for m in PRESETS:
        for T in SIM_T:
            estimators = "hxa,ccf" if T == 100_000 else ALL_ESTIMATORS
            out.append(["estimate", "--estimators", estimators, "--output", f"est-{m}-{T}",
                        *_series(m, T)])
        # two lengths in one call; no CCF, whose tables the shared file names would clash on
        out.append(["estimate", "--estimators", "dfa,dcca,hxa", "--output", f"est-{m}-mixed",
                    *_series(m, 999), *_series(m, 3000)])
    good = _series("model1", 3000)[0]
    out += [
        ["estimate", "--estimators", "hxa,ccf", "--output", "est-bad-mixed",
         good, "inputs/short.csv", *BAD_INPUTS],
        ["estimate", "--estimators", ALL_ESTIMATORS, "--output", "est-bad-only", *BAD_INPUTS],
        ["estimate", "--estimators", "hxa", "--output", "est-bad-missing",
         good, "inputs/missing.csv"],
    ]
    for m in PRESETS:
        out.append(["theory", "--model", m, "--output", f"theory-{m}"])
        out.append(["theory", "--model", m, "--max-lag", "1000", "--output", f"theory-{m}-1000"])
    for m in PRESETS:
        for workers in (1, 2):
            out.append(["experiment", "--model", m, "--T", "10000", "--reps", "10", "--seed", "42",
                        "--estimators", ALL_ESTIMATORS, "--workers", str(workers),
                        "--output", f"exp-{m}-w{workers}"])
        out.append(["experiment", "--model", m, "--T", "300", "--reps", "3", "--seed", "7",
                    "--estimators", ALL_ESTIMATORS, "--output", f"exp-{m}-300"])
    out += [
        # before any draw of the inline model in this process: the pool's children
        # build its weight spectra themselves
        ["experiment", "--config", INLINE_CONFIG, "--reps", "2", "--T", "1000", "--workers", "2",
         "--output", "exp-inline-w2"],
        ["simulate", "--config", INLINE_CONFIG, "--T", "1000", "--reps", "2", "--output", "sim-inline"],
        ["theory", "--config", INLINE_CONFIG, "--output", "theory-inline"],
        ["experiment", "--config", INLINE_CONFIG, "--reps", "2", "--T", "1000", "--output", "exp-inline"],
        # a CCF length other than the default, which the lag columns follow
        ["estimate", "--estimators", "ccf", "--max-lag", "7", "--output", "est-model1-lag7",
         *_series("model1", 999)],
        ["experiment", "--model", "model1", "--T", "300", "--reps", "3", "--seed", "7",
         "--estimators", "ccf", "--max-lag", "7", "--output", "exp-model1-lag7"],
        ["simulate", "--config", PINNED_CONFIG, "--T", "1000", "--reps", "1", "--output", "sim-pinned"],
        ["theory", "--config", PINNED_CONFIG, "--output", "theory-pinned"],
    ]
    for estimators in ("hxa", "dcca"):
        out.append(["experiment", "--config", PINNED_CONFIG, "--estimators", estimators,
                    "--T", "1000", "--reps", "2", "--output", f"exp-pinned-{estimators}"])
    # windows whose box bases (12.8 MB) are too large to keep: each is built per box size
    out.append(["experiment", "--model", "model2", "--T", "20000", "--reps", "2", "--seed", "42",
                "--estimators", "dfa,dcca", "--output", "exp-model2-20000"])
    return out


def write_inputs(detrend_section: str) -> None:
    os.makedirs("inputs/adir")
    Path(INLINE_CONFIG).write_text(f"{INLINE_INI}\n[{detrend_section}]\ndetrend_order = 2\n")
    Path(PINNED_CONFIG).write_text(PINNED_INI)
    Path("inputs/header_only.csv").write_text("t,x,y\n")
    Path("inputs/empty.csv").write_text("")
    np.savetxt("inputs/four_columns.csv", np.ones((3000, 4)), delimiter=",")
    np.savetxt("inputs/short.csv", np.random.default_rng(8).standard_normal((150, 2)), delimiter=",")
    np.savetxt("inputs/fifty_rows.csv", np.random.default_rng(9).standard_normal((50, 2)), delimiter=",")


def run(cli, argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
        # each call shows its own warnings, whatever ran before it
        warnings.simplefilter("always")
        try:
            code = cli.main(argv)
        except SystemExit as e:
            code = e.code
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--src", type=Path, required=True, help="source tree holding crossarfima/")
    parser.add_argument("--output", type=Path, required=True, help="new or empty output directory")
    args = parser.parse_args()
    src = args.src.resolve()
    sys.path.insert(0, str(src))
    from crossarfima import cli

    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"crossarfima imported from {cli.__file__}, not from {src}")
    args.output.mkdir(parents=True, exist_ok=True)
    if any(args.output.iterdir()):
        raise SystemExit(f"{args.output} is not empty")
    os.chdir(args.output)
    start = time.perf_counter()
    # detrend_order goes in the section this tree declares for it ([fluctuation],
    # formerly [dcca]); the config files are removed after the calls, so that
    # trees which differ only in that section compare equal by their outputs
    write_inputs(cli.SETTINGS["detrend_order"].section)
    results = [run(cli, argv) for argv in calls()]
    os.remove(INLINE_CONFIG)
    os.remove(PINNED_CONFIG)
    with open("calls.json", "w") as f:
        json.dump(results, f, indent=1)
        f.write("\n")
    print(f"{len(results)} calls in {time.perf_counter() - start:.1f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
