"""Command-line harness: simulate, estimate, theory and experiment runs.

Configuration comes from an INI file (see config module), from presets
by name, or from flags; flags always win.  Outputs are delimited text
with a header row and 12-significant-digit floats, written to the
configured output directory.  Runs are deterministic given the config
and base seed: replication r uses seed base_seed + r and the results
are kept in replication order, so worker count does not affect results.

Exit codes: 0 success, 1 configuration error, 2 runtime or estimation
failure.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
import warnings
from dataclasses import dataclass, replace
from operator import attrgetter

import numpy as np

from .config import SETTINGS, WINDOWS, ExperimentConfig, check_windows, parse_config, validate_config
from .errors import ConfigError, CrossArfimaError
from .estimators import dcca, fit_hurst, stacked_fluctuations  # noqa: F401 (dcca: bound for perfbench's tests)
from .models import cross_spectrum, simulate, theoretical_ccf, theoretical_exponents, weight_spectra

SPECTRUM_GRID = (1e-4, float(np.pi), 200)
# rows per write in _write_table; larger chunks write no faster and raise
# the peak memory of a T = 1e5 simulate (by about 2 MB at 8192 rows)
_CHUNK_ROWS = 1024
# series rows, summed over a command's jobs, from which simulate, estimate
# and an experiment without --workers run their jobs on a process pool (see
# _pool_workers)
POOL_ROWS = 60_000
# series rows of the replications of one experiment job at most: a chunk run as one
# stack (estimators.stacked_fluctuations), 10 at T = 1e4 with under 2 MB of base boxes
STACK_ROWS = 100_000
# bytes of one row of a t,x,y series file, about: estimate sizes its
# inputs by their length on disk, without reading them
SERIES_ROW_BYTES = 35


def _fmt(v) -> str:
    return format(float(v), ".12g")


def _write_csv(path: str, header, rows) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    print(f"wrote {path}")


def _write_table(path: str, header, columns) -> None:
    """Write numpy columns: the bytes _write_csv writes for the same cells.

    An integer column prints as str does, any other as _fmt does ("%d"
    and "%.12g" give that text).  Such cells hold no comma, quote or
    newline, so csv.writer would quote none of them.  Each chunk of
    _CHUNK_ROWS rows is one %-format of its cells, laid out row by row in
    one flat list filled column by column, and one write.  A table with
    text cells, such as the notes of estimates.csv, goes through
    _write_csv, whose csv.writer quotes them.  Unlike _write_csv it
    prints nothing, so a pool worker can write a file for its parent to
    report.
    """
    k, rows = len(columns), len(columns[0])
    line = ",".join("%d" if c.dtype.kind in "iu" else "%.12g" for c in columns) + "\n"
    with open(path, "w", newline="") as f:
        f.write(",".join(header) + "\n")
        for start in range(0, rows, _CHUNK_ROWS):
            n = min(_CHUNK_ROWS, rows - start)
            cells = [None] * (n * k)
            for j, column in enumerate(columns):
                cells[j::k] = column[start : start + n].tolist()
            f.write(line * n % tuple(cells))


def _write_ccf(path: str, **columns) -> None:
    """_write_table of named CCF columns over lags -L..L, after a lag column."""
    L = len(next(iter(columns.values()))) // 2
    _write_table(path, ["lag", *columns], [np.arange(-L, L + 1), *columns.values()])
    print(f"wrote {path}")


def _ensure_outdir(cfg: ExperimentConfig) -> str:
    os.makedirs(cfg.output_dir, exist_ok=True)
    return cfg.output_dir


@dataclass(frozen=True)
class EstimateRow:
    estimator: str
    target: str
    ok: bool
    exponent: float
    stderr: float
    n_points: int
    message: str


# One row per key of a pair's one pass, fluctuations: (estimator, target, theory
# attribute, key).  A Hurst estimate's row holds its fit; the CCF's, a failure only.
ESTIMATES = (
    ("dfa", "hx", "H_x", "x"),
    ("dfa", "hy", "H_y", "y"),
    ("dcca", "hxy", "H_xy", "xy"),
    ("hxa", "hxy", "H_xy", "hxa"),
    ("ccf", "rho", None, "ccf"),
)


def _made(make_pair):
    """make_pair()'s pair or, for one that cannot be made (read, parsed, sized or
    simulated), its error; a missing input is re-raised, so it stays a config error."""
    try:
        return make_pair()
    except FileNotFoundError:
        raise
    except (CrossArfimaError, ValueError, OSError) as e:
        return e


def _pair_rows(cfg: ExperimentConfig, pairs) -> list:
    """Estimate rows and CCF (an array over lags -L..L, or None) of each of pairs, in order.

    pairs gives each _made result when the stack reaches it, and all run as
    one stack at cfg's windows: a pair's error fails its every key, and a
    failed key or fit is a failed row.
    """
    table = []
    for result in stacked_fluctuations(pairs, **{name: cfg.window(name) for name in cfg.estimators}):
        rows, ccf = [], None
        for name, target, _, key in ESTIMATES:
            if name not in cfg.estimators:
                continue
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    value = result[key]
                    fit = None if key == "ccf" else fit_hurst(value)
                except (CrossArfimaError, ValueError, OSError) as e:
                    rows.append(EstimateRow(name, target, False, np.nan, np.nan, 0, str(e)))
                    continue
            if fit is None:
                ccf = value
            else:
                notes = "; ".join(str(w.message) for w in caught)
                rows.append(EstimateRow(name, target, True, fit.exponent, fit.stderr, fit.n_points, notes))
        table.append((rows, ccf))
    return table


ESTIMATE_COLUMNS = ["estimator", "target", "status", "exponent", "stderr", "n_points", "notes"]


def _write_estimates(path: str, prefix_columns: list[str], table) -> bool:
    """Write one line per estimate row of table's (prefix cells, rows, ccf)
    items.  True if any estimate is ok or any CCF was computed: a command
    whose pairs gave neither exits 2."""
    _write_csv(
        path,
        prefix_columns + ESTIMATE_COLUMNS,
        (
            prefix
            + [
                row.estimator,
                row.target,
                "ok" if row.ok else "failed",
                _fmt(row.exponent) if row.ok else "",
                _fmt(row.stderr) if row.ok else "",
                str(row.n_points),
                row.message,
            ]
            for prefix, rows, _ in table
            for row in rows
        ),
    )
    return any(row.ok for _, rows, _ in table for row in rows) or any(ccf is not None for *_, ccf in table)


def _simulate_worker(job: tuple[ExperimentConfig, int, int]) -> str:
    """Draw replication rep at seed and write its series file; the file's path.

    The draw is dropped when the call returns, before the next one is
    made: held through the next simulate, a T = 1e5 draw raised the peak
    memory by about 3 MB.
    """
    cfg, rep, seed = job
    series = simulate(cfg.model, cfg.T, seed)
    path = os.path.join(cfg.output_dir, f"series_r{rep:04d}.csv")
    _write_table(path, ["t", "x", "y"], [np.arange(cfg.T), series.x, series.y])
    return path


def cmd_simulate(cfg: ExperimentConfig) -> int:
    _ensure_outdir(cfg)
    workers = _pool_workers(cfg.replications, cfg.replications * cfg.T)
    # spectra built and numpy.random loaded before a pool forks, so that no child builds or imports them
    weight_spectra(cfg.model, cfg.T)
    jobs = [(cfg, rep, seed) for rep, seed in enumerate(cfg.seeds())]
    for path in _map_replications(_simulate_worker, jobs, workers):
        print(f"wrote {path}")
    return 0


def _load_series_file(path: str) -> tuple[np.ndarray, np.ndarray]:
    """Read a two- or three-column delimited file, tolerating a header row."""
    with open(path) as f:
        first = f.readline()
    try:
        [float(v) for v in first.split(",")]
        skip = 0
    except ValueError:
        skip = 1
    with warnings.catch_warnings():
        # an empty or header-only file is reported below, not by numpy
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        data = np.loadtxt(path, delimiter=",", skiprows=skip, ndmin=2)
    if data.shape[0] == 0:
        raise ValueError(f"{path}: no data rows")
    if data.shape[1] == 3:
        return data[:, 1], data[:, 2]
    if data.shape[1] == 2:
        return data[:, 0], data[:, 1]
    raise ValueError(f"{path}: expected 2 columns (x,y) or 3 (t,x,y), got {data.shape[1]}")


def _ccf_table_name(path: str) -> str:
    return f"ccf_{os.path.splitext(os.path.basename(path))[0]}.csv"


def _estimate_worker(job: tuple[ExperimentConfig, str]):
    """_pair_rows of one input file, at the windows of its own length; a window that does not fit fails its rows alone."""
    cfg, path = job

    def make_pair():
        x, y = _load_series_file(path)
        # a file shorter than config.MIN_T fails as a config of its length would
        return validate_config(replace(cfg, T=x.size)), (x, y)

    made = _made(make_pair)
    cfg, pair = (cfg, made) if isinstance(made, Exception) else made
    return _pair_rows(cfg, [pair])[0]


def _input_rows(path: str) -> int:
    """The rows a series file of path's size holds, about; 0 for a path that is no file."""
    return os.path.getsize(path) // SERIES_ROW_BYTES if os.path.isfile(path) else 0


def cmd_estimate(cfg: ExperimentConfig, inputs: list[str]) -> int:
    # cfg is read at T = sys.maxsize, as a file's row count is its T.  Every length
    # check only relaxes as T grows and every T-scaled default grows with T, so the
    # windows fail at that length exactly when no length can fix them: a config error.
    check_windows(cfg)
    if "ccf" in cfg.estimators:
        # one CCF table per file stem: two inputs must not share a stem
        owners: dict[str, str] = {}
        for path in inputs:
            name = _ccf_table_name(path)
            if owners.setdefault(name, path) != path:
                raise ConfigError(f"inputs {owners[name]} and {path} would both write {name}")
    outdir = _ensure_outdir(cfg)
    workers = _pool_workers(len(inputs), sum(map(_input_rows, inputs)))
    jobs = [(cfg, path) for path in inputs]
    table = []
    for path, (rows, ccf) in zip(inputs, _map_replications(_estimate_worker, jobs, workers)):
        table.append(([path], rows, ccf))
        if ccf is not None:
            _write_ccf(os.path.join(outdir, _ccf_table_name(path)), rho=ccf)
    if not _write_estimates(os.path.join(outdir, "estimates.csv"), ["file"], table):
        print("all estimations failed", file=sys.stderr)
        return 2
    return 0


def cmd_theory(cfg: ExperimentConfig, spectrum_points: int) -> int:
    if spectrum_points < 1:
        raise ConfigError(f"spectrum-points: must be >= 1, got {spectrum_points}")
    outdir = _ensure_outdir(cfg)
    rep = theoretical_exponents(cfg.model)
    rows = [[q, _fmt(getattr(rep, q))] for q in ("H_x", "H_y", "H_xy", "sigma_x", "sigma_y")]
    rows.append(["dominating_pair", "-".join(map(str, rep.dominating_pair or ()))])
    _write_csv(os.path.join(outdir, "exponents.csv"), ["quantity", "value"], rows)

    _write_ccf(os.path.join(outdir, "theoretical_ccf.csv"), rho=theoretical_ccf(cfg.model, **cfg.window("ccf")))

    lo, hi, _ = SPECTRUM_GRID
    grid = np.geomspace(lo, hi, spectrum_points)
    f = cross_spectrum(cfg.model, grid)
    # |f| by hypot, as abs(complex) gives it; numpy's complex abs loop can differ in the last bit
    columns = [grid, f.real, f.imag, np.hypot(f.real, f.imag)]
    path = os.path.join(outdir, "spectrum.csv")
    _write_table(path, ["lambda", "re", "im", "abs"], columns)
    print(f"wrote {path}")
    return 0


def _pool_context():
    """multiprocessing's fork context wherever there is one but on macOS,
    which advises against it, else its default: forked pool children start
    fast and inherit what the parent built, such as the weight spectra,
    whatever Python's default start method (forkserver from 3.14)."""
    import multiprocessing

    fork = sys.platform != "darwin" and "fork" in multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if fork else None)


class ProcessPoolExecutor:
    """concurrent.futures.ProcessPoolExecutor on _pool_context(), loaded when the first pool is made.

    Only experiment --workers > 1 and a simulate, estimate or experiment
    without --workers large enough to gain from one (_pool_workers) fork
    a pool, so no other run pays the time and memory of importing
    concurrent.futures.process and multiprocessing.  It stays a class of
    this module, so that a caller can subclass it or swap in another.
    """

    def __init__(self, max_workers):
        from concurrent.futures import ProcessPoolExecutor

        self._executor = ProcessPoolExecutor(max_workers, mp_context=_pool_context())

    def __enter__(self):
        self._executor.__enter__()
        return self

    def __exit__(self, *exc):
        return self._executor.__exit__(*exc)

    def map(self, fn, jobs):
        return self._executor.map(fn, jobs)


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the OS
    has one (a taskset or cpuset narrows it), else the installed count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _pool_workers(jobs: int, rows: int) -> int:
    """Workers for a command's jobs: min(jobs, usable CPUs) when that is at
    least 2 and the jobs hold POOL_ROWS series rows in all, else 1."""
    workers = min(jobs, _usable_cpus())
    return workers if workers > 1 and rows >= POOL_ROWS else 1


def _map_replications(worker, jobs, workers: int):
    """worker over jobs, yielding each result in job order as it arrives.

    More than one worker runs the jobs on a ProcessPoolExecutor of that
    many processes, open until the last result is taken; one runs them
    here.  A job that raises raises here, at its place in the order, and
    a worker process that dies (killed, out of memory) raises a
    CrossArfimaError.
    """
    if workers > 1:
        from concurrent.futures import BrokenExecutor

        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                yield from pool.map(worker, jobs)
        except BrokenExecutor as e:
            raise CrossArfimaError(str(e)) from None
    else:
        yield from map(worker, jobs)


def _replication_worker(job: tuple[ExperimentConfig, list[int]]):
    """_pair_rows of a chunk of replications, by their seeds: each is drawn when the stack reaches it."""
    cfg, seeds = job
    return _pair_rows(cfg, (_made(lambda: attrgetter("x", "y")(simulate(cfg.model, cfg.T, seed))) for seed in seeds))


def cmd_experiment(cfg: ExperimentConfig, workers: int | None) -> int:
    check_windows(cfg)
    if workers is None:
        workers = _pool_workers(cfg.replications, cfg.replications * cfg.T)
    elif workers < 1:
        raise ConfigError(f"workers: must be >= 1, got {workers}")
    outdir = _ensure_outdir(cfg)
    weight_spectra(cfg.model, cfg.T)  # before a pool forks, so no child builds them or imports numpy.random
    seeds = cfg.seeds()
    # a job is a chunk of seeds, as many as the workers share out, of STACK_ROWS series rows at most;
    # a fork pool starts all max_workers processes at the first submit
    workers = min(workers, _usable_cpus())
    size = min(-(-len(seeds) // workers), max(1, STACK_ROWS // cfg.T))
    chunks = [(cfg, seeds[i : i + size]) for i in range(0, len(seeds), size)]
    workers = min(workers, len(chunks))
    results = [pair for chunk in _map_replications(_replication_worker, chunks, workers) for pair in chunk]

    table = [([str(rep), str(seed)], *result) for rep, (seed, result) in enumerate(zip(seeds, results))]
    any_result = _write_estimates(os.path.join(outdir, "replications.csv"), ["replication", "seed"], table)

    theory = theoretical_exponents(cfg.model)
    summary_rows = []
    for name, target, attr, _ in ESTIMATES:
        vals = np.array(
            [r.exponent for _, rows, _ in table for r in rows if r.ok and (r.estimator, r.target) == (name, target)]
        )
        if vals.size == 0:
            continue
        summary_rows.append(
            [
                name,
                target,
                str(vals.size),
                _fmt(vals.mean()),
                _fmt(vals.std(ddof=1) if vals.size > 1 else 0.0),
                _fmt(vals.min()),
                _fmt(vals.max()),
                _fmt(getattr(theory, attr)),
            ]
        )
    _write_csv(
        os.path.join(outdir, "summary.csv"),
        ["estimator", "target", "n_ok", "mean", "sd", "min", "max", "theory"],
        summary_rows,
    )
    for row in summary_rows:
        print(
            f"{row[0]:>5s} {row[1]:>3s}  n={row[2]:>4s}  mean={float(row[3]):.4f}  "
            f"sd={float(row[4]):.4f}  theory={float(row[7]):.4f}"
        )

    ccfs = [ccf for _, ccf in results if ccf is not None]
    if ccfs:
        mean = np.mean(ccfs, axis=0)
        theory = theoretical_ccf(cfg.model, **cfg.window("ccf"))
        path = os.path.join(outdir, "ccf_mean.csv")
        _write_ccf(path, mean_sample_rho=mean, theory_rho=theory, abs_diff=np.abs(mean - theory))

    if not any_result:
        print("all replications failed", file=sys.stderr)
        return 2
    return 0


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to the config-error exit code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


_WINDOWS = ("estimators", *(n for n, s in SETTINGS.items() if any(s.section in w for w in WINDOWS.values())))
# the settings each subcommand reads, which it takes as flags in the table's
# order; theory reads T through the default max_lag, estimate from each file
COMMAND_SETTINGS = {
    "simulate": {"model_name", "T", "replications", "base_seed", "output_dir"},
    "estimate": {"output_dir", *_WINDOWS},
    "theory": {"model_name", "T", "output_dir", "ccf_max_lag"},
    "experiment": set(SETTINGS),
}
_COMMAND_HELP = {
    "simulate": "write simulated series files",
    "estimate": "estimate exponents from series files",
    "theory": "write theoretical exponents, CCF, spectrum",
    "experiment": "replicated simulate+estimate with summary",
}


def build_parser() -> _Parser:
    # no prefix matching: a mistyped or removed flag is a usage error, not
    # another flag it happens to abbreviate
    parser = _Parser(
        prog="crossarfima",
        description="Simulate correlated long-memory pairs and estimate Hurst exponents.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    parsers = {}
    for command, text in _COMMAND_HELP.items():
        parsers[command] = p = sub.add_parser(command, help=text, allow_abbrev=False)
        p.add_argument("--config", help="INI config file; flags override its values")
        for name, s in SETTINGS.items():
            if name in COMMAND_SETTINGS[command]:
                p.add_argument(s.flag, type=int if s.cast is int else None, help=s.help)

    parsers["estimate"].add_argument("inputs", nargs="+", help="series files (columns x,y or t,x,y)")
    parsers["theory"].add_argument(
        "--spectrum-points", type=int, default=SPECTRUM_GRID[2], help="spectrum grid size, >= 1"
    )
    parsers["experiment"].add_argument(
        "--workers", type=int,
        help="parallel replication workers, >= 1; at most one per replication and usable CPU "
        f"(default: that many where the replications hold {POOL_ROWS:,} series rows in all, else 1)",
    )
    return parser


def _config_from_args(args: argparse.Namespace, T: int | None = None) -> ExperimentConfig:
    """The config of the --config file and the flags, at length T; T None keeps the file's own T."""
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as f:
                text = f.read()
        except (OSError, UnicodeDecodeError) as e:
            raise ConfigError(str(e)) from None
    else:
        text = "[experiment]\n"
    overrides = {} if T is None else {("experiment", "t"): str(T)}
    for s in SETTINGS.values():
        # argparse stores --max-lag as max_lag
        value = getattr(args, s.flag[2:].replace("-", "_"), None)
        if value is not None:
            overrides[s.section, s.key] = str(value)
    return parse_config(text, overrides=overrides)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _config_from_args(args, sys.maxsize if args.command == "estimate" else None)
        if args.command == "estimate":
            return cmd_estimate(cfg, args.inputs)
        if args.command == "simulate":
            return cmd_simulate(cfg)
        if args.command == "theory":
            return cmd_theory(cfg, args.spectrum_points)
        return cmd_experiment(cfg, args.workers)
    # a missing estimate input is re-raised by _made as a config error
    except (ConfigError, FileNotFoundError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    except (CrossArfimaError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
