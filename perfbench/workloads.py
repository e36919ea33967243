"""The benchmark's workloads: which crossarfima CLI calls one pass makes.

Every workload is a closed loop of ``crossarfima.cli.main(argv)`` calls
in one process: the next call starts when the previous one returns.
The workload seed goes to the CLI as ``--seed``; the rest of each
command line is fixed here.  Flags are limited to the ones the project
keeps (no ``--ccf-truncation``, ``--spectrum`` or ``--detrend-order``),
and estimator windows are the CLI's T-scaled defaults.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

PRESETS = ("model1", "model2", "model3")
ALL_ESTIMATORS = ("dfa", "dcca", "hxa", "ccf")
PIPELINE_ESTIMATORS = ("hxa", "ccf")
THEORY_MAX_LAG = 1000


@dataclass(frozen=True)
class Workload:
    """Why each workload was chosen is in BENCHMARK.json and README.md."""

    name: str
    kind: str  # "experiment" or "pipeline"
    T: int
    reps: int
    # an experiment pass runs every model once per worker count, in this order
    workers: tuple[int, ...] = (1,)
    models: tuple[str, ...] = PRESETS


WORKLOADS = {
    w.name: w
    for w in (
        Workload("mc-t1e4", "experiment", T=10_000, reps=10, workers=(1, 2)),
        Workload("pipeline-t1e5", "pipeline", T=100_000, reps=4, models=("model2",)),
    )
}


def experiment_argv(wl: Workload, model: str, seed: int, out: Path, workers: int) -> list[str]:
    return [
        "experiment",
        "--model", model,
        "--T", str(wl.T),
        "--reps", str(wl.reps),
        "--seed", str(seed),
        "--estimators", ",".join(ALL_ESTIMATORS),
        "--workers", str(workers),
        "--output", str(out),
    ]  # fmt: skip


def experiment_dir(out: Path, workers: int, model: str) -> Path:
    return out / f"w{workers}" / model


def series_files(wl: Workload, out: Path) -> list[Path]:
    """The files ``simulate`` writes in a pipeline pass (series_r0000.csv, ...)."""
    return [out / "sims" / f"series_r{r:04d}.csv" for r in range(wl.reps)]


def cli_calls(wl: Workload, seed: int, out: Path) -> list[list[str]]:
    """The argv of every CLI call in one pass, writing under ``out``."""
    if wl.kind == "experiment":
        return [
            experiment_argv(wl, m, seed, experiment_dir(out, w, m), w)
            for w in wl.workers
            for m in wl.models
        ]
    (model,) = wl.models
    calls = [
        ["simulate", "--model", model, "--T", str(wl.T), "--reps", str(wl.reps),
         "--seed", str(seed), "--output", str(out / "sims")],
        ["estimate", "--estimators", ",".join(PIPELINE_ESTIMATORS),
         "--output", str(out / "est"), *map(str, series_files(wl, out))],
    ]  # fmt: skip
    calls += [
        ["theory", "--model", m, "--max-lag", str(THEORY_MAX_LAG), "--output", str(out / f"theory-{m}")]
        for m in PRESETS
    ]
    return calls

