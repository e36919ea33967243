"""End-to-end command line runs: files written, exit codes, determinism."""

import csv
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import crossarfima
from crossarfima import cli, estimators, models
from crossarfima.cli import main
from crossarfima.estimators import sample_ccf
from crossarfima.models import cross_spectrum, model1, model2, simulate, theoretical_ccf


def read_csv(path):
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    return rows[0], rows[1:]


def read_bytes(path):
    with open(path, "rb") as f:
        return f.read()


# ----------------------------------------------------------------------
# simulate
# ----------------------------------------------------------------------


def test_simulate_writes_replication_files(tmp_path):
    out = tmp_path / "sims"
    rc = main(
        ["simulate", "--model", "model1", "--T", "200", "--reps", "3", "--seed", "42",
         "--output", str(out)]
    )
    assert rc == 0
    files = sorted(p.name for p in out.iterdir())
    assert files == ["series_r0000.csv", "series_r0001.csv", "series_r0002.csv"]
    header, rows = read_csv(out / "series_r0001.csv")
    assert header == ["t", "x", "y"]
    assert len(rows) == 200
    # replication r runs at seed base + r; values are printed to 12 digits
    ref = simulate(model1(), T=200, seed=43)
    got_x = np.array([float(r[1]) for r in rows])
    assert np.allclose(got_x, ref.x, rtol=1e-11, atol=1e-13)


def test_simulate_is_deterministic(tmp_path):
    args = ["simulate", "--model", "model2", "--T", "150", "--reps", "2", "--seed", "7"]
    assert main(args + ["--output", str(tmp_path / "a")]) == 0
    assert main(args + ["--output", str(tmp_path / "b")]) == 0
    for name in ("series_r0000.csv", "series_r0001.csv"):
        assert read_bytes(tmp_path / "a" / name) == read_bytes(tmp_path / "b" / name)


def run_in(run_dir, capsys, argv, output):
    """Exit code, stdout, stderr and {file name: bytes} of a CLI run from
    run_dir into its relative output, so that two runs print alike."""
    os.makedirs(run_dir)
    cwd = os.getcwd()
    os.chdir(run_dir)
    try:
        capsys.readouterr()
        code = main([*argv, "--output", output])
    finally:
        os.chdir(cwd)
    out, err = capsys.readouterr()
    return code, out, err, {p.name: read_bytes(p) for p in sorted((Path(run_dir) / output).iterdir())}


def simulate_in(run_dir, capsys, T, reps):
    """run_in of a model2 simulate into "sims"."""
    argv = ["simulate", "--model", "model2", "--T", str(T), "--reps", str(reps), "--seed", "42"]
    return run_in(run_dir, capsys, argv, "sims")


@pytest.fixture
def pools(monkeypatch):
    """The max_workers of each pool cli makes, with 2 usable CPUs; the pools fork real processes."""
    made = []

    class CountedPool(cli.ProcessPoolExecutor):
        def __init__(self, max_workers):
            super().__init__(max_workers)
            made.append(max_workers)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", CountedPool)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    return made


def test_simulate_pool_gate_and_results(tmp_path, pools, monkeypatch, capsys):
    # simulate forks cli's own pool only for more than one replication and
    # usable CPU and at least POOL_ROWS samples; its files and
    # stdout are the serial run's, byte for byte
    assert 3 * 200 < cli.POOL_ROWS
    assert simulate_in(tmp_path / "below", capsys, T=200, reps=3)[0] == 0
    assert pools == []

    monkeypatch.setattr(cli, "POOL_ROWS", 1000)
    assert simulate_in(tmp_path / "one", capsys, T=2000, reps=1)[0] == 0
    assert pools == []
    pooled = simulate_in(tmp_path / "pool", capsys, T=400, reps=3)
    assert pools == [2]
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
    serial = simulate_in(tmp_path / "serial", capsys, T=400, reps=3)
    assert pools == [2]
    assert pooled == serial
    code, out, err, files = serial
    assert (code, err) == (0, "")
    assert out.splitlines() == [f"wrote {os.path.join('sims', name)}" for name in files]
    assert list(files) == ["series_r0000.csv", "series_r0001.csv", "series_r0002.csv"]


def test_simulate_failed_draw_in_a_worker_exits_2(tmp_path, monkeypatch, capsys):
    # a draw that raises in a pool child ends the run as it ends a serial
    # one: exit 2 and the same message, after the files before it
    real = cli.simulate

    def flaky(model, T, seed):
        if seed == 43:
            raise ValueError("simulation blew up")
        return real(model, T, seed)

    monkeypatch.setattr(cli, "simulate", flaky)
    monkeypatch.setattr(cli, "POOL_ROWS", 0)
    runs = {}
    for cpus in (1, 2):
        monkeypatch.setattr(cli, "_usable_cpus", lambda n=cpus: n)
        runs[cpus] = simulate_in(tmp_path / f"cpus{cpus}", capsys, T=300, reps=4)
    (code, out, err, files), (code2, out2, err2, files2) = runs[1], runs[2]
    assert (code, out, err) == (code2, out2, err2) == (2, f"wrote {os.path.join('sims', 'series_r0000.csv')}\n",
                                                         "error: simulation blew up\n")
    assert list(files) == ["series_r0000.csv"]
    # with workers, replications after the failed one may already be written
    assert "series_r0001.csv" not in files2
    assert files2["series_r0000.csv"] == files["series_r0000.csv"]


@pytest.mark.parametrize("command", ["simulate", "estimate", "experiment"])
def test_a_worker_process_that_dies_exits_2(tmp_path, monkeypatch, capsys, command):
    # a pool child that dies in a job (by os._exit here, as when the kernel
    # kills one that runs out of memory) ends the run with exit 2 and one
    # error line, as a job that raises does, not with a traceback
    parent = os.getpid()

    def die():
        assert os.getpid() != parent, "the job ran in the parent"
        os._exit(9)

    argv = [command, "--output", str(tmp_path / "out")]
    if command == "estimate":
        files = simulate_files(tmp_path, T=300, reps=3)
        load = cli._load_series_file
        monkeypatch.setattr(cli, "_load_series_file", lambda path: die() if path == files[1] else load(path))
        argv += ["--estimators", "hxa", *files]
    else:
        real = cli.simulate
        monkeypatch.setattr(cli, "simulate", lambda model, T, seed: die() if seed == 43 else real(model, T, seed))
        argv += ["--model", "model1", "--T", "300", "--reps", "4", "--seed", "42"]
        argv += ["--estimators", "hxa", "--workers", "2"] if command == "experiment" else []
    monkeypatch.setattr(cli, "POOL_ROWS", 0)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


def pooled_draw_misses(tmp_path, monkeypatch, argv):
    """Run argv on a 2-worker pool with cli.simulate counted: each draw's
    (process, weight spectrum cache misses), in seed order from 42."""
    real = cli.simulate

    def counted(model, T, seed):
        before = models._weight_spectrum.cache_info().misses
        series = real(model, T, seed)
        misses = models._weight_spectrum.cache_info().misses - before
        (tmp_path / f"draw-{seed}").write_text(f"{os.getpid()} {misses}")
        return series

    monkeypatch.setattr(cli, "simulate", counted)
    monkeypatch.setattr(cli, "POOL_ROWS", 0)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    models._weight_spectrum.cache_clear()
    assert main(argv) == 0
    return [tuple(map(int, (tmp_path / f"draw-{seed}").read_text().split())) for seed in range(42, 46)]


def test_simulate_pool_children_find_their_weight_spectra_built(tmp_path, monkeypatch):
    # the parent builds the draws' weight spectra before it forks, so no
    # child misses the cache
    draws = pooled_draw_misses(tmp_path, monkeypatch, ["simulate", "--model", "model2", "--T", "300", "--reps",
                                                       "4", "--seed", "42", "--output", str(tmp_path / "sims")])
    assert os.getpid() not in {pid for pid, _ in draws}
    assert [misses for _, misses in draws] == [0, 0, 0, 0]
    # model2's two distinct filtered components, built once, in this process
    assert models._weight_spectrum.cache_info().misses == 2


def test_experiment_pool_children_find_their_weight_spectra_built(tmp_path, monkeypatch):
    draws = pooled_draw_misses(tmp_path, monkeypatch, ["experiment", "--model", "model2", "--T", "300", "--reps",
                                                       "4", "--seed", "42", "--estimators", "hxa", "--workers", "2",
                                                       "--output", str(tmp_path / "exp")])
    assert os.getpid() not in {pid for pid, _ in draws}
    assert [misses for _, misses in draws] == [0, 0, 0, 0]
    assert models._weight_spectrum.cache_info().misses == 2


@pytest.mark.skipif(cli._pool_context().get_start_method() != "fork", reason="pools fork here only where they may")
@pytest.mark.parametrize("method", ["forkserver", "spawn"])
def test_pools_fork_whatever_the_default_start_method(tmp_path, method):
    # Python 3.14 makes forkserver the default on Linux and other POSIX systems
    # but macOS.  cli's pool forks all the same, so the tests that rest on fork pass in a process whose default
    # is another method: pooled runs write the serial run's bytes, and their
    # children see this process's patched simulate and find its spectra built
    tests = ["test_simulate_pool_gate_and_results", "test_experiment_worker_count_does_not_change_results",
             "test_simulate_pool_children_find_their_weight_spectra_built",
             "test_experiment_pool_children_find_their_weight_spectra_built"]  # fmt: skip
    src = str(Path(crossarfima.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    code = "import multiprocessing, sys, pytest\n" \
           "multiprocessing.set_start_method(sys.argv[1], force=True)\n" \
           "sys.exit(pytest.main(sys.argv[2:]))\n"  # fmt: skip
    proc = subprocess.run([sys.executable, "-c", code, method, "-q", "-p", "no:cacheprovider",
                           f"--basetemp={tmp_path / 'inner'}", *(f"{__file__}::{name}" for name in tests)],
                          capture_output=True, text=True, env=env)  # fmt: skip
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "4 passed" in proc.stdout


def test_usable_cpus_is_the_affinity_mask(monkeypatch):
    # a taskset or cpuset mask leaves a process fewer CPUs than are installed;
    # without a mask to read, the installed count stands in
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
    assert cli._usable_cpus() == 1
    monkeypatch.delattr(os, "sched_getaffinity")
    assert cli._usable_cpus() == 8
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert cli._usable_cpus() == 1


# the printed forms these take are the edge cases of "%.12g": signed zero,
# the smallest subnormal, exponent notation at 1e16 and above, rounding at
# the twelfth digit, and small negative exponents
AWKWARD_FLOATS = [-0.0, 5e-324, 1e22, 1e16 + 1, 123456789012.5, -1.5e-7, 0.1, -np.inf, np.nan]


@pytest.mark.parametrize("n_rows", [0, 1, cli._CHUNK_ROWS, cli._CHUNK_ROWS + 1])
def test_write_table_matches_csv_writer(tmp_path, n_rows):
    # the column writer must give the bytes of csv.writer over str and _fmt cells
    rng = np.random.default_rng(n_rows)
    # integers past 12 digits, which a float format would round
    ints = np.arange(n_rows) * 1_000_000_007 - 10**12
    awkward = np.resize(AWKWARD_FLOATS, n_rows)
    wide = rng.standard_normal(n_rows) * 10.0 ** rng.integers(-20, 20, n_rows)
    header = ["int", "awkward", "wide"]
    cli._write_table(str(tmp_path / "table.csv"), header, [ints, awkward, wide])
    rows = ([str(k), cli._fmt(a), cli._fmt(w)] for k, a, w in zip(ints, awkward, wide))
    cli._write_csv(str(tmp_path / "reference.csv"), header, rows)
    assert read_bytes(tmp_path / "table.csv") == read_bytes(tmp_path / "reference.csv")


def test_simulate_rejects_short_series(tmp_path, capsys):
    rc = main(["simulate", "--model", "model1", "--T", "50", "--output", str(tmp_path / "o")])
    assert rc == 1
    assert "config error" in capsys.readouterr().err


def test_unknown_flag_exits_with_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--frequency", "2"])
    assert exc.value.code == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["experiment", "--model", "model3", "--T", "300", "--rep", "2"],
        ["simulate", "--model", "model1", "--T", "200", "--truncation", "500"],
        ["estimate", "series.csv", "--model", "model1"],
        ["estimate", "series.csv", "--seed", "3"],
        ["estimate", "series.csv", "--T", "3000"],
        ["theory", "--model", "model1", "--seed", "3"],
    ],
    ids=["rep", "truncation", "estimate-model", "estimate-seed", "estimate-T", "theory-seed"],
)
def test_abbreviated_or_removed_flag_is_usage_error(tmp_path, capsys, argv):
    # no prefix matching: --rep is not --reps, and the removed --truncation
    # matches nothing (theory's --spectrum is checked with theory's flags);
    # a subcommand takes no flag for a setting it does not read (estimate
    # takes each file's T from its row count)
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--output", str(tmp_path / "o")])
    assert exc.value.code == 1
    assert f"unrecognized arguments: {argv[-2]} {argv[-1]}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


# x = F(0.3) on stream 2 and y = F(0.3) on stream 3 with |sigma_23| > sigma_2 sigma_3
INADMISSIBLE_INI = """
[experiment]
model = inline

[component.x1]
kind = white
weight = 0.0

[component.x2]
kind = fractional
weight = 1.0
param = 0.3

[component.y1]
kind = fractional
weight = 1.0
param = 0.3

[component.y2]
kind = white
weight = 0.0

[covariance]
sigma_23 = 1.5
"""


@pytest.mark.parametrize("command", ["simulate", "estimate", "theory", "experiment"])
def test_inadmissible_covariance_is_a_config_error(tmp_path, capsys, command):
    ini = tmp_path / "bad.ini"
    ini.write_text(INADMISSIBLE_INI)
    out = tmp_path / "o"
    argv = [command, "--config", str(ini), "--output", str(out)]
    if command == "estimate":
        argv.append(str(tmp_path / "series.csv"))
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "config error: [covariance] covariance matrix is not positive semi-definite" in err
    assert not out.exists()


def test_param_on_a_white_component_is_a_config_error(tmp_path, capsys):
    # a white component has no param: one given would have no effect
    ini = tmp_path / "white.ini"
    ini.write_text(
        INADMISSIBLE_INI.replace("sigma_23 = 1.5", "sigma_23 = 0.5").replace(
            "kind = white\nweight = 0.0\n", "kind = white\nweight = 0.0\nparam = 0.3\n", 1
        )
    )
    out = tmp_path / "o"
    assert main(["experiment", "--config", str(ini), "--output", str(out)]) == 1
    assert "config error: [component.x1]: white component takes no param, got 0.3" in capsys.readouterr().err
    assert not out.exists()


# ----------------------------------------------------------------------
# estimate
# ----------------------------------------------------------------------


def simulate_files(tmp_path, model="model1", T=2000, reps=1, seed=42):
    out = tmp_path / "series"
    rc = main(
        ["simulate", "--model", model, "--T", str(T), "--reps", str(reps), "--seed", str(seed),
         "--output", str(out)]
    )
    assert rc == 0
    return sorted(str(p) for p in out.iterdir())


def test_series_file_round_trip_keeps_12_digits(tmp_path):
    # reading a written series file back gives each value rounded to 12
    # significant digits, exactly
    path = simulate_files(tmp_path, T=3000)[0]
    x, y = cli._load_series_file(path)
    ref = simulate(model1(), T=3000, seed=42)
    for got, want in ((x, ref.x), (y, ref.y)):
        assert np.array_equal(got, [float(format(v, ".12g")) for v in want.tolist()])


def test_estimate_reports_all_estimators(tmp_path):
    files = simulate_files(tmp_path)
    out = tmp_path / "est"
    rc = main(
        ["estimate", "--estimators", "dfa,dcca,hxa,ccf", "--output", str(out), *files]
    )
    assert rc == 0
    header, rows = read_csv(out / "estimates.csv")
    assert header == ["file", "estimator", "target", "status", "exponent", "stderr",
                      "n_points", "notes"]
    seen = {(r[1], r[2]): r[3] for r in rows}
    assert seen == {("dfa", "hx"): "ok", ("dfa", "hy"): "ok",
                    ("dcca", "hxy"): "ok", ("hxa", "hxy"): "ok"}
    for r in rows:
        assert 0.3 < float(r[4]) < 1.1
    ccf_header, ccf_rows = read_csv(out / "ccf_series_r0000.csv")
    assert ccf_header == ["lag", "rho"]
    assert len(ccf_rows) == 201  # default max_lag 100
    lag0 = [r for r in ccf_rows if r[0] == "0"]
    assert float(lag0[0][1]) > 0.3  # strongly cross-correlated preset


def test_estimate_is_deterministic(tmp_path):
    files = simulate_files(tmp_path, model="model3", T=1500, seed=11)
    args = ["estimate", "--estimators", "dfa,hxa"]
    assert main(args + ["--output", str(tmp_path / "e1"), *files]) == 0
    assert main(args + ["--output", str(tmp_path / "e2"), *files]) == 0
    assert read_bytes(tmp_path / "e1" / "estimates.csv") == read_bytes(tmp_path / "e2" / "estimates.csv")


def test_estimate_headerless_two_column_input(tmp_path):
    rng = np.random.default_rng(3)
    path = tmp_path / "plain.csv"
    np.savetxt(path, rng.standard_normal((1200, 2)), delimiter=",")
    rc = main(["estimate", "--estimators", "dfa", "--output",
               str(tmp_path / "o"), str(path)])
    assert rc == 0
    _, rows = read_csv(tmp_path / "o" / "estimates.csv")
    assert all(r[3] == "ok" for r in rows)
    # every row is data, although each holds an exponent letter ('e')
    x, y = cli._load_series_file(str(path))
    assert x.size == y.size == 1200


def test_detrend_order_also_sets_dfa(tmp_path):
    # [fluctuation] detrend_order is shared by DFA and DCCA: order 2 must change the dfa rows
    files = simulate_files(tmp_path)
    args = ["estimate", "--estimators", "dfa", *files]
    assert main(args + ["--output", str(tmp_path / "o1")]) == 0
    assert main(args + ["--detrend-order", "2", "--output", str(tmp_path / "o2")]) == 0
    _, rows1 = read_csv(tmp_path / "o1" / "estimates.csv")
    _, rows2 = read_csv(tmp_path / "o2" / "estimates.csv")
    assert [r[1:3] for r in rows1] == [r[1:3] for r in rows2] == [["dfa", "hx"], ["dfa", "hy"]]
    for a, b in zip(rows1, rows2):
        assert a[3] == b[3] == "ok"
        assert float(a[4]) != float(b[4])


def test_estimate_short_input_fails_alone(tmp_path, capsys):
    # a file too short for a pinned CCF max_lag fails its own rows, with the
    # config's message at the file's length; the good file's tables are
    # still written
    good = simulate_files(tmp_path, T=3000)[0]
    rng = np.random.default_rng(8)
    short = tmp_path / "short.csv"
    np.savetxt(short, rng.standard_normal((150, 2)), delimiter=",")
    out = tmp_path / "o"
    args = ["estimate", "--estimators", "hxa,ccf", "--max-lag", "100"]
    rc = main(args + ["--output", str(out), good, str(short)])
    assert rc == 0
    _, rows = read_csv(out / "estimates.csv")
    assert [(r[0], r[1], r[3]) for r in rows] == [
        (good, "hxa", "ok"), (str(short), "hxa", "failed"), (str(short), "ccf", "failed"),
    ]
    note = "ccf.max_lag: need T > 2*max_lag, got T=150, max_lag=100"
    assert [r[1:] for r in rows[1:]] == [
        ["hxa", "hxy", "failed", "", "", "0", note], ["ccf", "rho", "failed", "", "", "0", note],
    ]
    assert sorted(os.listdir(out)) == ["ccf_series_r0000.csv", "estimates.csv"]
    # the short file alone: every estimate failed
    rc = main(args + ["--output", str(tmp_path / "o2"), str(short)])
    assert rc == 2
    assert "all estimations failed" in capsys.readouterr().err


def test_estimate_unreadable_input_fails_alone(tmp_path, capsys):
    # a file that exists but does not parse fails every requested row with
    # the load message; the other files are still estimated
    good = simulate_files(tmp_path, T=3000)[0]
    bad = tmp_path / "bad.csv"
    np.savetxt(bad, np.ones((3000, 4)), delimiter=",")
    message = f"{bad}: expected 2 columns (x,y) or 3 (t,x,y), got 4"
    out = tmp_path / "o"
    rc = main(["estimate", "--estimators", "hxa", "--output", str(out),
               good, str(bad)])
    assert rc == 0
    _, rows = read_csv(out / "estimates.csv")
    assert [(r[0], r[1], r[3]) for r in rows] == [(good, "hxa", "ok"), (str(bad), "hxa", "failed")]
    assert rows[1][1:] == ["hxa", "hxy", "failed", "", "", "0", message]
    # every estimator and the CCF get their own failed row
    text = tmp_path / "text.csv"
    text.write_text("t,x,y\n0,1.5,oops\n")
    rc = main(["estimate", "--estimators", "dfa,dcca,hxa,ccf", "--output",
               str(tmp_path / "o2"), str(bad), str(text)])
    assert rc == 2
    assert "all estimations failed" in capsys.readouterr().err
    _, rows = read_csv(tmp_path / "o2" / "estimates.csv")
    targets = [("dfa", "hx"), ("dfa", "hy"), ("dcca", "hxy"), ("hxa", "hxy"), ("ccf", "rho")]
    assert [(r[0], r[1], r[2], r[3]) for r in rows] == [
        (path, *t, "failed") for path in (str(bad), str(text)) for t in targets
    ]
    assert {r[7] for r in rows[:5]} == {message}
    assert all("oops" in r[7] for r in rows[5:])
    # a path that does not exist is still a config error
    rc = main(["estimate", "--estimators", "hxa", "--output",
               str(tmp_path / "o3"), good, str(tmp_path / "missing.csv")])
    assert rc == 1
    assert "missing.csv" in capsys.readouterr().err


def test_estimate_empty_or_header_only_input_fails_alone(tmp_path, capsys):
    # a file with no data rows fails its own rows with that message, and
    # numpy's empty-input warning does not leak
    good = simulate_files(tmp_path, T=3000)[0]
    header_only = tmp_path / "header_only.csv"
    header_only.write_text("t,x,y\n")
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    out = tmp_path / "o"
    args = ["estimate", "--estimators", "hxa,ccf"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(args + ["--output", str(out), good, str(header_only), str(empty)])
    assert rc == 0
    assert not caught
    _, rows = read_csv(out / "estimates.csv")
    assert [(r[0], r[1], r[3]) for r in rows] == [
        (good, "hxa", "ok"),
        *((str(p), name, "failed") for p in (header_only, empty) for name in ("hxa", "ccf")),
    ]
    assert [r[7] for r in rows[1:]] == [f"{header_only}: no data rows"] * 2 + [f"{empty}: no data rows"] * 2
    assert sorted(os.listdir(out)) == ["ccf_series_r0000.csv", "estimates.csv"]
    # the two alone: nothing succeeded
    rc = main(args + ["--output", str(tmp_path / "o2"), str(header_only), str(empty)])
    assert rc == 2
    assert capsys.readouterr().err == "all estimations failed\n"


def test_estimate_directory_input_fails_alone(tmp_path, capsys):
    # a path that exists but cannot be opened as a file fails its own rows
    # with the OS message; the good file's rows and CCF table are written
    good = simulate_files(tmp_path, T=3000)[0]
    adir = tmp_path / "adir"
    adir.mkdir()
    out = tmp_path / "o"
    rc = main(["estimate", "--estimators", "hxa,ccf", "--output", str(out),
               good, str(adir)])
    assert rc == 0
    _, rows = read_csv(out / "estimates.csv")
    assert [(r[0], r[1], r[3]) for r in rows] == [
        (good, "hxa", "ok"), (str(adir), "hxa", "failed"), (str(adir), "ccf", "failed"),
    ]
    assert all("Is a directory" in r[7] and str(adir) in r[7] for r in rows[1:])
    assert sorted(os.listdir(out)) == ["ccf_series_r0000.csv", "estimates.csv"]
    # the directory alone: nothing succeeded
    rc = main(["estimate", "--estimators", "hxa", "--output",
               str(tmp_path / "o2"), str(adir)])
    assert rc == 2
    assert "all estimations failed" in capsys.readouterr().err


def test_estimate_rejects_inputs_sharing_a_ccf_table(tmp_path, capsys):
    a = simulate_files(tmp_path / "a")[0]
    b = simulate_files(tmp_path / "b", seed=4)[0]
    out = tmp_path / "o"
    rc = main(["estimate", "--estimators", "ccf", "--output", str(out), a, b])
    assert rc == 1
    err = capsys.readouterr().err
    assert "config error" in err and a in err and b in err and "ccf_series_r0000.csv" in err
    assert not out.exists()
    # without the CCF nothing is named after the file, so the two may share a name
    rc = main(["estimate", "--estimators", "hxa", "--output", str(out), a, b])
    assert rc == 0


def estimate_in(run_dir, capsys, inputs, *flags):
    """run_in of an estimate of HXA and the CCF over inputs into "est"."""
    return run_in(run_dir, capsys, ["estimate", "--estimators", "hxa,ccf", *flags, *inputs], "est")


def test_estimate_pool_gate_and_results(tmp_path, pools, monkeypatch, capsys):
    # estimate forks cli's own pool only for more than one input and usable
    # CPU and inputs of at least POOL_ROWS rows in all, sized by their bytes
    # on disk; its files and stdout are the serial run's, byte for byte
    inputs = simulate_files(tmp_path, model="model2", T=400, reps=3)
    assert 3 * 400 < cli.POOL_ROWS
    assert estimate_in(tmp_path / "below", capsys, inputs)[0] == 0
    assert pools == []

    monkeypatch.setattr(cli, "POOL_ROWS", 1000)
    assert estimate_in(tmp_path / "two", capsys, inputs[:2])[0] == 0
    assert pools == []
    pooled = estimate_in(tmp_path / "pool", capsys, inputs)
    assert pools == [2]
    monkeypatch.setattr(cli, "POOL_ROWS", 0)
    assert estimate_in(tmp_path / "one", capsys, inputs[:1])[0] == 0
    assert pools == [2]
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
    serial = estimate_in(tmp_path / "serial", capsys, inputs)
    assert pools == [2]
    assert pooled == serial
    code, out, err, files = serial
    assert (code, err) == (0, "")
    assert out.splitlines() == [f"wrote {os.path.join('est', name)}" for name in files]
    assert list(files) == ["ccf_series_r0000.csv", "ccf_series_r0001.csv", "ccf_series_r0002.csv", "estimates.csv"]


def test_estimate_missing_input_on_a_pool_fails_at_its_place(tmp_path, pools, monkeypatch, capsys):
    # a missing input is a config error at its place in the order, pooled as
    # serially: the CCF tables of the inputs before it are written, no later
    # one and no estimates.csv
    good = simulate_files(tmp_path, model="model2", T=400, reps=2)
    inputs = [good[0], str(tmp_path / "missing.csv"), good[1]]
    monkeypatch.setattr(cli, "POOL_ROWS", 0)
    pooled = estimate_in(tmp_path / "pool", capsys, inputs)
    assert pools == [2]
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
    assert estimate_in(tmp_path / "serial", capsys, inputs) == pooled
    assert pooled == (
        1,
        f"wrote {os.path.join('est', 'ccf_series_r0000.csv')}\n",
        f"config error: [Errno 2] No such file or directory: '{inputs[1]}'\n",
        {"ccf_series_r0000.csv": read_bytes(tmp_path / "pool" / "est" / "ccf_series_r0000.csv")},
    )


def test_estimate_short_or_empty_input_fails_alone_on_a_pool(tmp_path, pools, monkeypatch, capsys):
    # a file too short for the CCF, or with no rows, fails its own rows in
    # its worker, and the good file between them is estimated
    good = simulate_files(tmp_path, model="model2", T=400)[0]
    short = tmp_path / "short.csv"
    np.savetxt(short, np.random.default_rng(8).standard_normal((150, 2)), delimiter=",")
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    inputs = [str(short), good, str(empty)]
    monkeypatch.setattr(cli, "POOL_ROWS", 0)
    pooled = estimate_in(tmp_path / "pool", capsys, inputs, "--max-lag", "100")
    assert pools == [2]
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
    assert estimate_in(tmp_path / "serial", capsys, inputs, "--max-lag", "100") == pooled
    code, _, err, files = pooled
    assert (code, err) == (0, "")
    assert list(files) == ["ccf_series_r0000.csv", "estimates.csv"]
    _, rows = read_csv(tmp_path / "pool" / "est" / "estimates.csv")
    short_note = "ccf.max_lag: need T > 2*max_lag, got T=150, max_lag=100"
    assert [(r[0], r[1], r[3], r[7]) for r in rows] == [
        (str(short), "hxa", "failed", short_note), (str(short), "ccf", "failed", short_note),
        (good, "hxa", "ok", ""),
        *((str(empty), name, "failed", f"{empty}: no data rows") for name in ("hxa", "ccf")),
    ]


@pytest.mark.parametrize("command", ["estimate", "experiment"])
def test_a_ccf_alone_is_a_result(tmp_path, command):
    # both commands exit 2 only when no pair gave an ok estimate or a CCF
    args = [command, "--estimators", "ccf", "--output", str(tmp_path / "o")]
    args += simulate_files(tmp_path) if command == "estimate" else ["--T", "2000", "--reps", "2"]
    assert main(args) == 0


def test_estimate_degenerate_input_fails_cleanly(tmp_path, capsys):
    path = tmp_path / "flat.csv"
    with open(path, "w") as f:
        f.write("x,y\n" + "1.0,1.0\n" * 500)
    rc = main(["estimate", "--estimators", "dfa,dcca",
               "--output", str(tmp_path / "o"), str(path)])
    assert rc == 2
    assert "failed" in capsys.readouterr().err


@pytest.mark.parametrize("bad, good", [("y", "hx"), ("x", "hy")])
def test_a_non_finite_series_fails_only_the_rows_that_use_it(tmp_path, bad, good):
    # each failed row names the series it estimates, and the other margin's DFA stands
    s = simulate(model1(), 2000, seed=42)
    pair = {"x": s.x.copy(), "y": s.y.copy()}
    pair[bad][100] = np.nan
    path = tmp_path / "pair.csv"
    path.write_text("x,y\n" + "".join(f"{a!r},{b!r}\n" for a, b in zip(pair["x"].tolist(), pair["y"].tolist())))
    out = tmp_path / "o"
    assert main(["estimate", "--estimators", "dfa,dcca,hxa,ccf", "--output", str(out), str(path)]) == 0
    _, rows = read_csv(out / "estimates.csv")
    status = {r[2] if r[1] == "dfa" else r[1]: r[3:] for r in rows}
    assert status.pop(good)[0] == "ok"
    assert status == {
        key: ["failed", "", "", "0", f"{bad} contains non-finite values"]
        for key in ({"hx", "hy"} - {good}) | {"dcca", "hxa", "ccf"}
    }


def test_the_fluctuation_pass_runs_once_per_chunk_and_only_where_asked(tmp_path, monkeypatch):
    # one stacked pass per chunk of replications, with the windows of the estimators named and no other
    calls = []
    real = cli.stacked_fluctuations

    def counted(pairs, **windows):
        pairs = list(pairs)
        calls.append((len(pairs), sorted(windows)))
        return real(pairs, **windows)

    monkeypatch.setattr(cli, "stacked_fluctuations", counted)
    base = ["experiment", "--T", "1000", "--reps", "3"]
    for estimators, want in (("hxa,ccf", ["ccf", "hxa"]), ("dfa,dcca,hxa", ["dcca", "dfa", "hxa"]),
                             ("dfa,hxa", ["dfa", "hxa"]), ("dcca", ["dcca"])):
        calls.clear()
        assert main([*base, "--estimators", estimators, "--output", str(tmp_path / estimators)]) == 0
        assert calls == [(3, want)], estimators

    # a chunk holds STACK_ROWS series rows at most, and the workers share the replications out
    class InlinePool:
        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    for reps, workers, stack_rows, want in ((3, 1, 2000, [2, 1]), (5, 2, 10**5, [3, 2]), (5, 2, 1000, [1] * 5),
                                            (5, 2, 999, [1] * 5), (1, 2, 10**5, [1])):
        calls.clear()
        monkeypatch.setattr(cli, "STACK_ROWS", stack_rows)
        out = tmp_path / f"r{reps}w{workers}s{stack_rows}"
        argv = ["experiment", "--T", "1000", "--reps", str(reps), "--estimators", "dcca", "--workers", str(workers)]
        assert main([*argv, "--output", str(out)]) == 0
        assert [n for n, _ in calls] == want


@pytest.mark.parametrize("command", ["estimate", "experiment"])
def test_a_pair_is_demeaned_and_profiled_once_per_series(tmp_path, monkeypatch, command):
    # all four estimators of a pair share one demeaned copy and one profile of each series
    args = [command, "--estimators", "dfa,dcca,hxa,ccf", "--output", str(tmp_path / "o")]
    args += simulate_files(tmp_path) if command == "estimate" else ["--T", "2000", "--reps", "1"]
    demeaned, profiled = [], []
    demean, profile = estimators._demean, estimators._profile
    monkeypatch.setattr(estimators, "_demean", lambda z, name: demeaned.append(name) or demean(z, name))
    monkeypatch.setattr(estimators, "_profile", lambda z: profiled.append(z.size) or profile(z))
    assert main(args) == 0
    assert demeaned == ["x", "y"]
    assert profiled == [2000, 2000]
    _, rows = read_csv(tmp_path / "o" / ("estimates.csv" if command == "estimate" else "replications.csv"))
    assert [r[-5] for r in rows] == ["ok"] * 4


def test_estimate_constant_x_writes_a_failed_ccf_row(tmp_path, capsys):
    # x is constant, so corr(x_{t+k}, y_t) has a zero denominator
    path = tmp_path / "flat_x.csv"
    y = np.random.default_rng(1).standard_normal(500).tolist()
    path.write_text("x,y\n" + "".join(f"1.0,{v!r}\n" for v in y))
    out = tmp_path / "o"
    assert main(["estimate", "--estimators", "hxa,ccf", "--output", str(out), str(path)]) == 2
    assert "all estimations failed" in capsys.readouterr().err
    _, rows = read_csv(out / "estimates.csv")
    assert rows[-1] == [str(path), "ccf", "rho", "failed", "", "", "0",
                        "zero-variance input, cross-correlation undefined"]
    assert sorted(p.name for p in out.iterdir()) == ["estimates.csv"]


# ----------------------------------------------------------------------
# theory
# ----------------------------------------------------------------------


def test_theory_tables_model1(tmp_path):
    out = tmp_path / "th"
    rc = main(["theory", "--model", "model1", "--max-lag", "50", "--output", str(out)])
    assert rc == 0
    _, rows = read_csv(out / "exponents.csv")
    table = dict(rows)
    assert float(table["H_x"]) == 0.9
    assert float(table["H_xy"]) == 0.8
    assert table["dominating_pair"] == "2-3"
    header, ccf = read_csv(out / "theoretical_ccf.csv")
    assert header == ["lag", "rho"]
    assert len(ccf) == 101
    values = {int(r[0]): float(r[1]) for r in ccf}
    ref = theoretical_ccf(model1(), max_lag=50)
    assert values[0] == pytest.approx(ref[50], rel=1e-11)
    assert values[-7] == pytest.approx(values[7], rel=1e-11)
    # the exact limit, not a truncated weight sum
    assert dict(ccf)["20"] == "0.110845342897"
    header, spec = read_csv(out / "spectrum.csv")
    assert header == ["lambda", "re", "im", "abs"]
    assert len(spec) == 200
    lams = np.array([float(r[0]) for r in spec])
    assert lams[0] == pytest.approx(1e-4) and lams[-1] == pytest.approx(np.pi)


def test_theory_model3_ccf_is_a_spike(tmp_path):
    out = tmp_path / "th3"
    rc = main(["theory", "--model", "model3", "--max-lag", "20", "--output", str(out)])
    assert rc == 0
    _, ccf = read_csv(out / "theoretical_ccf.csv")
    values = {int(r[0]): float(r[1]) for r in ccf}
    assert values[0] == pytest.approx(0.3, abs=0.02)
    off = [abs(v) for k, v in values.items() if k != 0]
    assert max(off) < 1e-15


def test_theory_spectrum_written_for_mixed_models(tmp_path):
    out = tmp_path / "th2"
    rc = main(["theory", "--model", "model2", "--spectrum-points", "20", "--output", str(out)])
    assert rc == 0
    assert (out / "theoretical_ccf.csv").exists()
    header, spec = read_csv(out / "spectrum.csv")
    assert header == ["lambda", "re", "im", "abs"]
    lams = np.geomspace(1e-4, np.pi, 20)
    assert np.allclose([float(r[0]) for r in spec], lams, rtol=1e-11)
    ref = cross_spectrum(model2(), lams)
    assert np.allclose([float(r[1]) for r in spec], ref.real, rtol=1e-11, atol=1e-13)
    assert np.allclose([float(r[2]) for r in spec], ref.imag, rtol=1e-11, atol=1e-13)
    # each cell is the 12-digit text of the value, |f| as Python's abs gives it
    assert [r[1:] for r in spec] == [[cli._fmt(v.real), cli._fmt(v.imag), cli._fmt(abs(v))] for v in ref]


def test_theory_output_on_an_existing_file_is_an_error(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("kept")
    assert main(["theory", "--output", str(taken)]) == 2
    assert capsys.readouterr().err.startswith("error: [Errno 17] File exists")
    assert taken.read_text() == "kept"


@pytest.mark.parametrize("flag", ["--ccf-truncation", "--truncation", "--spectrum"])
def test_theory_rejects_truncation_and_spectrum_flags(tmp_path, capsys, flag):
    # theory is exact and writes the spectrum for every model: none of these
    # remain, and with prefix matching off --spectrum is not --spectrum-points
    with pytest.raises(SystemExit) as exc:
        main(["theory", "--model", "model2", flag, "5000", "--output", str(tmp_path / "o")])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert "error:" in err and flag in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("points", ["0", "-5"])
def test_theory_rejects_nonpositive_spectrum_points(tmp_path, capsys, points):
    out = tmp_path / "o"
    argv = ["theory", "--model", "model1", "--spectrum-points", points, "--output", str(out)]
    assert main(argv) == 1
    assert f"spectrum-points: must be >= 1, got {points}" in capsys.readouterr().err
    assert not out.exists()


# ----------------------------------------------------------------------
# experiment
# ----------------------------------------------------------------------


def run_experiment(outdir, workers):
    return main(
        ["experiment", "--model", "model1", "--T", "2000", "--reps", "3", "--seed", "42",
         "--estimators", "dfa,dcca,hxa,ccf", "--workers", str(workers), "--output", str(outdir)]
    )


def test_experiment_summary_and_replication_tables(tmp_path, capsys):
    out = tmp_path / "exp"
    assert run_experiment(out, workers=1) == 0
    header, reps = read_csv(out / "replications.csv")
    assert header == ["replication", "seed", "estimator", "target", "status", "exponent",
                      "stderr", "n_points", "notes"]
    assert {r[1] for r in reps} == {"42", "43", "44"}
    assert len(reps) == 12  # 4 estimate rows per replication

    header, rows = read_csv(out / "summary.csv")
    assert header == ["estimator", "target", "n_ok", "mean", "sd", "min", "max", "theory"]
    table = {(r[0], r[1]): r for r in rows}
    assert table[("dfa", "hx")][7] == "0.9"
    assert table[("dcca", "hxy")][7] == "0.8"
    # the summary mean is the average of the ok replication rows
    vals = [float(r[5]) for r in reps if (r[2], r[3]) == ("dcca", "hxy") and r[4] == "ok"]
    assert float(table[("dcca", "hxy")][3]) == pytest.approx(np.mean(vals), rel=1e-11)
    assert int(table[("dcca", "hxy")][2]) == len(vals) == 3

    header, ccf = read_csv(out / "ccf_mean.csv")
    assert header == ["lag", "mean_sample_rho", "theory_rho", "abs_diff"]
    assert len(ccf) == 201
    # the theory column is the model's exact CCF at lags -100..100
    assert [r[2] for r in ccf] == [cli._fmt(v) for v in theoretical_ccf(model1(), max_lag=100)]
    # abs_diff is the gap between the two columns before it
    for lag, mean, theory, diff in ccf:
        assert float(diff) == pytest.approx(abs(float(mean) - float(theory)), abs=1e-11), lag
    stdout = capsys.readouterr().out
    assert "dfa" in stdout and "hxy" in stdout  # summary table echoed


def test_experiment_worker_count_does_not_change_results(tmp_path, pools):
    # two workers run in cli's own pool, which forks real processes
    a = tmp_path / "w1"
    b = tmp_path / "w2"
    assert run_experiment(a, workers=1) == 0
    assert pools == []
    assert run_experiment(b, workers=2) == 0
    assert pools == [2]
    for name in ("replications.csv", "summary.csv", "ccf_mean.csv"):
        assert read_bytes(a / name) == read_bytes(b / name)


def experiment_runs(tmp_path, monkeypatch, argv, T):
    """{(workers, stack cap): {file name: bytes}} of argv's experiment on 1, 2 and
    3 workers (3 usable CPUs), each with stacks of at most 1, 3 and the default
    STACK_ROWS // T replications."""
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 3)
    runs, rows = {}, cli.STACK_ROWS
    for workers in (1, 2, 3):
        for cap in (1, 3, None):
            monkeypatch.setattr(cli, "STACK_ROWS", rows if cap is None else cap * T)
            out = tmp_path / f"w{workers}-cap{cap}"
            assert main([*argv, "--workers", str(workers), "--output", str(out)]) == 0
            runs[workers, cap] = {p.name: read_bytes(p) for p in sorted(out.iterdir())}
    return runs


@pytest.mark.parametrize("window", [[], ["--s-min", "11"]], ids=["default", "g1"])
def test_experiment_outputs_do_not_depend_on_workers_or_stacks(tmp_path, monkeypatch, window):
    # a job is a chunk of seeds run as one stack, and a stack keeps each pair's
    # bits: at --s-min 11 the box sizes share no factor, so that each dot
    # product of a box size runs to T = 1e4 terms, beyond numpy's buffer
    argv = ["experiment", "--model", "model2", "--T", "10000", "--reps", "5", "--seed", "7",
            "--estimators", "dfa,dcca,hxa,ccf", *window]
    runs = experiment_runs(tmp_path, monkeypatch, argv, 10_000)
    assert list(runs[1, None]) == ["ccf_mean.csv", "replications.csv", "summary.csv"]
    assert all(files == runs[1, None] for files in runs.values())


def test_experiment_failed_simulation_becomes_failed_rows(tmp_path, monkeypatch):
    # one replication's simulate raises: its rows fail, the rest are kept,
    # and a forked pool sees the same patched simulate as the serial run,
    # whether the failed draw is alone, in the middle or last of its stack
    real = cli.simulate

    def flaky(model, T, seed):
        if seed == 43:
            raise ValueError("simulation blew up")
        return real(model, T, seed)

    monkeypatch.setattr(cli, "simulate", flaky)
    argv = ["experiment", "--model", "model1", "--T", "2000", "--reps", "3", "--seed", "42",
            "--estimators", "dfa,dcca,hxa,ccf"]
    runs = experiment_runs(tmp_path, monkeypatch, argv, 2000)
    assert all(files == runs[1, None] for files in runs.values())
    _, reps = read_csv(tmp_path / "w1-capNone" / "replications.csv")
    failed = [r for r in reps if r[0] == "1"]
    assert [(r[2], r[3]) for r in failed] == [
        ("dfa", "hx"), ("dfa", "hy"), ("dcca", "hxy"), ("hxa", "hxy"), ("ccf", "rho"),
    ]
    assert all(r[1] == "43" and r[4:] == ["failed", "", "", "0", "simulation blew up"]
               for r in failed)
    assert {r[0] for r in reps if r[4] == "ok"} == {"0", "2"}
    _, summary = read_csv(tmp_path / "w1-capNone" / "summary.csv")
    assert len(summary) == 4 and all(row[2] == "2" for row in summary)
    # the CCF mean is over the two replications that ran
    _, ccf = read_csv(tmp_path / "w1-capNone" / "ccf_mean.csv")
    lag0 = [sample_ccf(s.x, s.y, 100)[100] for s in (real(model1(), 2000, seed) for seed in (42, 44))]
    assert float(ccf[100][1]) == pytest.approx(np.mean(lag0), rel=1e-11)


def test_experiment_with_every_replication_failed_exits_2(tmp_path, monkeypatch, capsys):
    def broken(model, T, seed):
        raise ValueError("simulation blew up")

    monkeypatch.setattr(cli, "simulate", broken)
    assert run_experiment(tmp_path / "o", 1) == 2
    assert "all replications failed" in capsys.readouterr().err
    _, reps = read_csv(tmp_path / "o" / "replications.csv")
    assert len(reps) == 15 and {r[4] for r in reps} == {"failed"}
    assert not (tmp_path / "o" / "ccf_mean.csv").exists()


def replication_file(tmp_path, preset, T, estimators):
    """Replication 1 of an experiment at length T, saved to the bit: the
    file's path and the cells of that replication's rows."""
    exp = tmp_path / f"exp-{preset}-{T}"
    assert main(["experiment", "--model", preset, "--T", str(T), "--reps", "2", "--seed", "42",
                 *estimators, "--output", str(exp)]) == 0
    s = simulate(getattr(crossarfima, preset)(), T=T, seed=43)
    path = tmp_path / f"{preset}-{T}.csv"
    np.savetxt(path, np.column_stack([s.x, s.y]), fmt="%.17g", delimiter=",")
    _, reps = read_csv(exp / "replications.csv")
    return str(path), [r[2:] for r in reps if r[:2] == ["1", "43"]]


ALL_ESTIMATORS = ["--estimators", "dfa,dcca,hxa,ccf"]


@pytest.mark.parametrize(
    "preset, T",
    [pytest.param(p, T, id=p if T == 2000 else f"{p}-T{T}")
     for T in (2000, 1500, 3000) for p in ("model1", "model2", "model3")],
)
def test_estimate_and_experiment_give_the_same_rows(tmp_path, preset, T):
    # estimate on a file holding replication 1 to the bit gives that
    # replication's rows: the two commands share one per-pair path, and
    # the file's row count is its T
    path, want = replication_file(tmp_path, preset, T, ALL_ESTIMATORS)
    est = tmp_path / "est"
    assert main(["estimate", *ALL_ESTIMATORS, "--output", str(est), path]) == 0
    _, rows = read_csv(est / "estimates.csv")
    assert len(rows) == 4
    assert [r[1:] for r in rows] == want


def test_estimate_sizes_each_file_by_its_length(tmp_path):
    # one call over files of 1500 and 3000 rows: each file gets the windows
    # experiment uses at its length, so each gives its own replication's rows
    cases = [replication_file(tmp_path, "model1", T, ALL_ESTIMATORS) for T in (1500, 3000)]
    est = tmp_path / "est"
    assert main(["estimate", *ALL_ESTIMATORS, "--output", str(est), *(p for p, _ in cases)]) == 0
    _, rows = read_csv(est / "estimates.csv")
    for path, want in cases:
        assert len(want) == 4
        assert [r[1:] for r in rows if r[0] == path] == want


def test_estimate_impossible_window_is_a_config_error(tmp_path, capsys):
    # a window that no length can fit fails before any output is made
    path = simulate_files(tmp_path)[0]
    out = tmp_path / "o"
    assert main(["estimate", "--s-min", "30", "--s-max", "20", "--output", str(out), path]) == 1
    assert "config error: dcca.s_max: scale range [30, 20] is empty" in capsys.readouterr().err
    assert not out.exists()
    # one that only a file longer than the default T = 10000 can fit is not
    long = tmp_path / "long.csv"
    np.savetxt(long, np.random.default_rng(5).standard_normal((10_100, 2)), delimiter=",")
    args = ["estimate", "--estimators", "hxa", "--tau-max", "1010", "--output", str(out)]
    assert main(args + [path, str(long)]) == 0
    _, rows = read_csv(out / "estimates.csv")
    assert rows[0][7] == "hxa.tau_max = 1010 exceeds T/10 = 200"
    assert rows[1][:4] == [str(long), "hxa", "hxy", "ok"]


def test_experiment_without_workers_takes_the_pool_rule(tmp_path, pools, monkeypatch, capsys):
    # with no --workers, experiment forks cli's own pool of min(reps, usable
    # CPUs) workers only from POOL_ROWS series rows, as simulate does; its
    # files and stdout are those of one worker, byte for byte
    argv = ["experiment", "--model", "model2", "--T", "400", "--seed", "42", "--estimators", "dfa,hxa,ccf"]
    assert 3 * 400 < cli.POOL_ROWS
    assert run_in(tmp_path / "below", capsys, [*argv, "--reps", "3"], "exp")[0] == 0
    assert pools == []

    monkeypatch.setattr(cli, "POOL_ROWS", 1000)
    assert run_in(tmp_path / "one", capsys, [*argv, "--reps", "1"], "exp")[0] == 0
    assert pools == []
    pooled = run_in(tmp_path / "pool", capsys, [*argv, "--reps", "3"], "exp")
    assert pools == [2]
    serial = run_in(tmp_path / "serial", capsys, [*argv, "--reps", "3", "--workers", "1"], "exp")
    assert pools == [2]
    assert pooled == serial
    assert (pooled[0], pooled[2]) == (0, "")


def test_experiment_workers_validated_and_clamped(tmp_path, monkeypatch, capsys):
    base = ["experiment", "--model", "model3", "--T", "300", "--seed", "1", "--estimators", "hxa"]
    for bad in ("0", "-3"):
        out = tmp_path / f"bad{bad}"
        assert main(base + ["--reps", "2", "--workers", bad, "--output", str(out)]) == 1
        assert "workers" in capsys.readouterr().err
        assert not out.exists()

    # a pool is never asked for more processes than chunks of replications or cores
    started = []

    class FakePool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 8)
    for i, (workers, reps) in enumerate((("500", "3"), ("500", "10"), ("2", "10"), ("8", "1"))):
        out = tmp_path / f"w{i}"
        assert main(base + ["--reps", reps, "--workers", workers, "--output", str(out)]) == 0
        assert (out / "summary.csv").exists()
    # 10 replications on 8 workers are 5 chunks of 2, and one replication runs without a pool
    assert started == [3, 5, 2]


def test_experiment_rejects_empty_estimators(tmp_path, capsys):
    rc = main(["experiment", "--model", "model1", "--estimators", " ",
               "--output", str(tmp_path / "o")])
    assert rc == 1
    assert "estimator" in capsys.readouterr().err


# ----------------------------------------------------------------------
# config file plumbing
# ----------------------------------------------------------------------


def test_config_file_with_flag_override(tmp_path):
    cfg_path = tmp_path / "run.ini"
    cfg_path.write_text(
        "[experiment]\nmodel = model3\nt = 150\nreplications = 1\nbase_seed = 5\n"
    )
    out1 = tmp_path / "c1"
    assert main(["simulate", "--config", str(cfg_path), "--output", str(out1)]) == 0
    out2 = tmp_path / "c2"
    assert main(["simulate", "--config", str(cfg_path), "--seed", "9",
                 "--output", str(out2)]) == 0
    ref5 = simulate(__import__("crossarfima").model3(), T=150, seed=5)
    ref9 = simulate(__import__("crossarfima").model3(), T=150, seed=9)
    x1 = np.loadtxt(out1 / "series_r0000.csv", delimiter=",", skiprows=1)[:, 1]
    x2 = np.loadtxt(out2 / "series_r0000.csv", delimiter=",", skiprows=1)[:, 1]
    assert np.allclose(x1, ref5.x, rtol=1e-11)
    assert np.allclose(x2, ref9.x, rtol=1e-11)


@pytest.mark.parametrize("command", ["simulate", "estimate", "theory", "experiment"])
def test_misspelled_config_key_is_a_config_error(tmp_path, capsys, command):
    # a dropped key would run 100 replications where 7 were asked for
    ini = tmp_path / "typo.ini"
    ini.write_text("[experiment]\nmodel = model1\nrepliactions = 7\n")
    out = tmp_path / "o"
    argv = [command, "--config", str(ini), "--output", str(out)]
    if command == "estimate":
        argv.append(str(tmp_path / "series.csv"))
    assert main(argv) == 1
    assert "config error: [experiment] unknown key 'repliactions'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "edit, flags, message",
    [
        (("weight = 0.0\n", ""), [], "[component.x1] missing required key 'weight'"),
        (None, ["--seed", "-1"], "base_seed: must be >= 0, got -1"),
        (None, ["--output", ""], "output_dir: must be non-empty"),
    ],
    ids=["missing-weight", "negative-seed", "empty-output"],
)
def test_config_value_errors_exit_1(tmp_path, monkeypatch, capsys, edit, flags, message):
    monkeypatch.chdir(tmp_path)
    text = INADMISSIBLE_INI.replace("sigma_23 = 1.5", "sigma_23 = 0.5")
    Path("run.ini").write_text(text.replace(*edit, 1) if edit else text)
    argv = ["experiment", "--config", "run.ini", "--output", "o", *flags]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert os.listdir(tmp_path) == ["run.ini"]


# a DCCA window that no length in these runs can fit
PINNED_INI = "[experiment]\n[dcca]\ns_max = 999999\n"


@pytest.mark.parametrize(
    "ini, argv",
    [
        (PINNED_INI, ["simulate", "--T", "1000", "--reps", "1"]),
        (PINNED_INI, ["theory"]),
        (PINNED_INI, ["experiment", "--estimators", "hxa", "--T", "1000", "--reps", "2"]),
        ("[experiment]\n[dcca]\nstep = 0\n", ["experiment", "--estimators", "hxa", "--T", "1000", "--reps", "2"]),
    ],
    ids=["simulate", "theory", "experiment-hxa", "experiment-hxa-step-0"],
)
def test_a_window_binds_only_where_its_estimator_runs(tmp_path, ini, argv):
    # a command that runs no DCCA ignores its window: the outputs are those without it
    (tmp_path / "run.ini").write_text(ini)
    assert main([*argv, "--config", str(tmp_path / "run.ini"), "--output", str(tmp_path / "o")]) == 0
    assert main([*argv, "--output", str(tmp_path / "ref")]) == 0
    names = sorted(os.listdir(tmp_path / "ref"))
    assert sorted(os.listdir(tmp_path / "o")) == names and names
    for name in names:
        assert read_bytes(tmp_path / "o" / name) == read_bytes(tmp_path / "ref" / name), name


def test_a_pinned_window_still_binds_its_estimator(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    Path("run.ini").write_text(PINNED_INI)
    argv = ["experiment", "--config", "run.ini", "--estimators", "dcca", "--T", "1000", "--reps", "2"]
    assert main(argv + ["--output", "o"]) == 1
    assert capsys.readouterr().err == "config error: dcca.s_max = 999999 exceeds T/2 = 500\n"
    assert os.listdir(tmp_path) == ["run.ini"]
    # estimate checks it at each file's length: a 1000-row file fails its rows
    path = simulate_files(tmp_path, T=1000)[0]
    assert main(["estimate", "--config", "run.ini", "--output", "est", path]) == 2
    _, rows = read_csv(tmp_path / "est" / "estimates.csv")
    note = "dcca.s_max = 999999 exceeds T/2 = 500"
    assert [r[1:] for r in rows] == [
        [name, target, "failed", "", "", "0", note]
        for name, target in (("dfa", "hx"), ("dfa", "hy"), ("dcca", "hxy"), ("hxa", "hxy"))
    ]


def test_theory_checks_max_lag_at_no_length(tmp_path, capsys):
    # theory computes no sample CCF, so T > 2*max_lag does not bind it; max_lag >= 0 does
    assert main(["theory", "--T", "1000", "--max-lag", "1000", "--output", str(tmp_path / "o")]) == 0
    _, rows = read_csv(tmp_path / "o" / "theoretical_ccf.csv")
    assert len(rows) == 2001
    capsys.readouterr()
    assert main(["theory", "--max-lag", "-1", "--output", str(tmp_path / "bad")]) == 1
    assert capsys.readouterr().err == "config error: ccf.max_lag: must be >= 0, got -1\n"
    assert not (tmp_path / "bad").exists()


def test_missing_config_file(tmp_path, capsys):
    rc = main(["simulate", "--config", str(tmp_path / "nope.ini"), "--output",
               str(tmp_path / "o")])
    assert rc == 1
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["directory", "non-utf8"])
def test_unreadable_config_file_is_a_config_error(tmp_path, capsys, kind):
    path = tmp_path / "run.ini"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"[experiment]\nmodel = model\xe91\n")
    out = tmp_path / "o"
    assert main(["theory", "--config", str(path), "--output", str(out)]) == 1
    assert capsys.readouterr().err.startswith("config error: ")
    assert not out.exists()


def runs_at_blas_threads(tmp_path, argv):
    """(stdout, {file name: bytes}) of the CLI call argv, run in a fresh
    interpreter from tmp_path into "out" at 1 and at 2 BLAS threads."""
    src = str(Path(crossarfima.__file__).resolve().parents[1])
    runs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads}
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        run_dir = tmp_path / f"threads{threads}"
        run_dir.mkdir()
        proc = subprocess.run([sys.executable, "-m", "crossarfima.cli", *argv, "--output", "out"],
                              cwd=run_dir, capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        runs.append((proc.stdout, {p.name: read_bytes(p) for p in sorted((run_dir / "out").iterdir())}))
    return runs


def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    # hxa and sample_ccf reduce in numpy's own loop: a BLAS dot product
    # splits a sum of more than about 1e4 terms across its threads, and
    # its last bits, and some 12-digit cells, then follow the thread count
    argv = ["experiment", "--model", "model1", "--T", "50000", "--reps", "2", "--seed", "1",
            "--estimators", "hxa,ccf"]
    runs = runs_at_blas_threads(tmp_path, argv)
    assert list(runs[0][1]) == ["ccf_mean.csv", "replications.csv", "summary.csv"]
    assert runs[0] == runs[1]


def test_dfa_and_dcca_do_not_depend_on_the_blas_thread_count(tmp_path):
    # the projections of a stack of 2 pairs are BLAS matmuls, run pair by
    # pair, that split no sum across threads; the sums of products reduce
    # in np.einsum
    argv = ["experiment", "--model", "model1", "--T", "50000", "--reps", "2", "--seed", "1",
            "--estimators", "dfa,dcca", "--workers", "1"]
    assert cli.STACK_ROWS // 50_000 == 2
    runs = runs_at_blas_threads(tmp_path, argv)
    assert list(runs[0][1]) == ["replications.csv", "summary.csv"]
    assert runs[0] == runs[1]


def test_console_script_smoke(tmp_path):
    # the entry point must behave like main(): run it as a module from the
    # package found on this path, and as the console script where installed
    env = dict(os.environ)
    src = str(Path(crossarfima.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    commands = [[sys.executable, "-m", "crossarfima.cli"]]
    script = shutil.which("crossarfima")
    if script:
        commands.append([script])
    for i, command in enumerate(commands):
        out = tmp_path / f"o{i}"
        proc = subprocess.run(
            command + ["theory", "--model", "model3", "--max-lag", "5", "--output", str(out)],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert (out / "exponents.csv").exists()

    # the console script is registered, with numpy the only runtime dependency;
    # simulate's FFTs write into buffers (out=), which numpy has since 2.0
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as f:
        project = tomllib.load(f)["project"]
    assert project["scripts"]["crossarfima"] == "crossarfima.cli:entry_point"
    assert project["dependencies"] == ["numpy>=2.0"]
    assert project["optional-dependencies"]["test"] == ["pytest>=7", "scipy>=1.10", "hypothesis", "mpmath"]
