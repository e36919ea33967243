"""Each output check accepts the CLI's real output and rejects a perturbed copy.

Run from the repository root: python3 -m pytest -q perfbench/tests
"""

import contextlib
import io
import shutil
import sys
from pathlib import Path

_BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(_BENCH), str(_BENCH.parent / "src")]

import pytest  # noqa: E402

import checks  # noqa: E402
from crossarfima import cli  # noqa: E402
from crossarfima.models import PRESETS, simulate  # noqa: E402

T = 2000
SEED = 7


def _cli(*argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main([str(a) for a in argv]) == 0


def _edit_line(path: Path, row: int, column: str, delta: float) -> None:
    """Add delta to one numeric field of one data row of a CSV file."""
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    fields = lines[row + 1].split(",")
    i = header.index(column)
    fields[i] = repr(float(fields[i]) + delta)
    lines[row + 1] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")


@pytest.fixture(scope="module")
def experiment(tmp_path_factory):
    out = tmp_path_factory.mktemp("exp")
    for m in PRESETS:
        _cli("experiment", "--model", m, "--T", T, "--reps", 2, "--seed", SEED,
             "--estimators", "dfa,dcca,hxa,ccf", "--output", out / m)  # fmt: skip
    return out


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    out = tmp_path_factory.mktemp("pipe")
    _cli("simulate", "--model", "model2", "--T", T, "--reps", 1, "--seed", SEED, "--output", out / "sims")
    series = out / "sims" / "series_r0000.csv"
    _cli("estimate", "--estimators", "hxa,ccf", "--output", out / "est", series)
    for m in PRESETS:
        _cli("theory", "--model", m, "--max-lag", 50, "--output", out / f"theory-{m}")
    return out


def _copy(src: Path, tmp_path: Path) -> Path:
    dst = tmp_path / src.name
    shutil.copytree(src, dst)
    return dst


@pytest.mark.parametrize("model", PRESETS)
def test_exponent_check_rejects_a_nudge(experiment, tmp_path, model):
    s = simulate(PRESETS[model](), T, SEED + 1)
    estimators = ("dfa", "dcca", "hxa")
    assert checks.check_replication_exponents(experiment / model, 1, s.x, s.y, estimators).ok
    d = _copy(experiment / model, tmp_path)
    rows = checks.read_rows(d / "replications.csv")
    row = next(i for i, r in enumerate(rows) if r["replication"] == "1" and r["status"] == "ok")
    _edit_line(d / "replications.csv", row, "exponent", 1e-6)
    assert not checks.check_replication_exponents(d, 1, s.x, s.y, estimators).ok


def test_summary_check_rejects_a_changed_mean(experiment, tmp_path):
    assert checks.check_summary(experiment / "model2", "model2").ok
    d = _copy(experiment / "model2", tmp_path)
    _edit_line(d / "summary.csv", 0, "mean", 1e-6)
    assert not checks.check_summary(d, "model2").ok


def test_identity_check_rejects_one_flipped_byte(experiment, tmp_path):
    names = ("replications.csv", "summary.csv", "ccf_mean.csv")
    d = _copy(experiment / "model1", tmp_path)
    assert checks.check_identical(experiment / "model1", d, names).ok
    data = bytearray((d / "ccf_mean.csv").read_bytes())
    data[len(data) // 2] ^= 0x01
    (d / "ccf_mean.csv").write_bytes(bytes(data))
    assert not checks.check_identical(experiment / "model1", d, names).ok


def test_ccf_mean_check_rejects_a_changed_difference(experiment, tmp_path):
    assert checks.check_ccf_mean(experiment / "model1" / "ccf_mean.csv").ok
    d = _copy(experiment / "model1", tmp_path)
    _edit_line(d / "ccf_mean.csv", 3, "abs_diff", 1e-6)
    assert not checks.check_ccf_mean(d / "ccf_mean.csv").ok


def test_series_checks_reject_a_changed_ccf_lag(pipeline, tmp_path):
    series = pipeline / "sims" / "series_r0000.csv"
    rows = checks.read_rows(pipeline / "est" / "estimates.csv")
    ccf = pipeline / "est" / "ccf_series_r0000.csv"
    assert all(c.ok for c in checks.check_series_outputs(series, T, ccf, rows, ("hxa",)))
    d = _copy(pipeline / "est", tmp_path)
    _edit_line(d / "ccf_series_r0000.csv", 57, "rho", 1e-6)
    results = checks.check_series_outputs(series, T, d / "ccf_series_r0000.csv", rows, ("hxa",))
    assert [c.ok for c in results] == [True, False, True]


def test_series_checks_reject_a_nudged_estimate(pipeline, tmp_path):
    series = pipeline / "sims" / "series_r0000.csv"
    d = _copy(pipeline / "est", tmp_path)
    _edit_line(d / "estimates.csv", 0, "exponent", 1e-6)
    rows = checks.read_rows(d / "estimates.csv")
    results = checks.check_series_outputs(series, T, d / "ccf_series_r0000.csv", rows, ("hxa",))
    assert [c.ok for c in results] == [True, True, False]


def test_theory_check_rejects_a_wrong_value(pipeline, tmp_path):
    path = pipeline / "theory-model1" / "theoretical_ccf.csv"
    check, err = checks.theory_ccf_error(path, "rho")
    assert check.ok and 0.0 < err < checks.THEORY_TOL
    d = _copy(pipeline / "theory-model1", tmp_path)
    _edit_line(d / "theoretical_ccf.csv", 50, "rho", 1e-2)
    assert not checks.theory_ccf_error(d / "theoretical_ccf.csv", "rho")[0].ok


def test_spike_check_rejects_a_nonzero_lag(pipeline, tmp_path):
    assert checks.check_spike_ccf(pipeline / "theory-model3" / "theoretical_ccf.csv", "rho").ok
    d = _copy(pipeline / "theory-model3", tmp_path)
    _edit_line(d / "theoretical_ccf.csv", 10, "rho", 1e-6)
    assert not checks.check_spike_ccf(d / "theoretical_ccf.csv", "rho").ok


def test_theory_exponent_check_rejects_a_wrong_preset(pipeline):
    path = pipeline / "theory-model2" / "exponents.csv"
    assert checks.check_theory_exponents(path, "model2").ok
    assert not checks.check_theory_exponents(path, "model1").ok


def test_exact_cross_covariance_matches_weight_sums_plus_tail():
    import math

    import numpy as np

    d, K = 0.3, 1_000_000
    n = np.arange(1, K + 1)
    a = np.concatenate([[1.0], np.cumprod((n - 1 + d) / n)])
    # a_n ~ n^(d-1) / Gamma(d), so the sum beyond K is ~ K^(2d-1) / ((1-2d) Gamma(d)^2)
    tail = K ** (2 * d - 1) / ((1 - 2 * d) * math.gamma(d) ** 2)
    for k in (0, 1, 20):
        direct = a[k:] @ a[: a.size - k]
        exact = checks.fractional_cross_cov(d, d, np.array([float(k)]))[0]
        assert abs(exact - direct - tail) < 1e-5 * exact


def test_one_failed_operation_leaves_op_ok_frac_outside_its_bound():
    import json

    import run

    bound = next(
        m["bound"]
        for m in json.loads((_BENCH.parent / "BENCHMARK.json").read_text())["end_to_end"]
        if m["name"] == "op_ok_frac"
    )
    ok_pass = {"exit_codes": [0] * 5}
    result = {"passes": [ok_pass] * 30, "checks": [{"ok": True}] * 20}
    assert run.operations(result) == (25, 0)
    for bad in (
        dict(result, checks=[{"ok": False}] + result["checks"][1:]),
        dict(result, passes=[{"exit_codes": [0, 0, 2, 0, 0]}] + result["passes"][1:]),
    ):
        attempted, failed = run.operations(bad)
        assert failed == 1 and 1 - failed / attempted < 1 - bound


def test_malformed_outputs_fail_their_checks_without_stopping_the_run(tmp_path):
    import child
    from workloads import WORKLOADS

    theory = tmp_path / "theory-model1"
    theory.mkdir()
    # a truncated row: csv.DictReader fills the missing field with None
    (theory / "theoretical_ccf.csv").write_text("lag,rho\n0,1.0\n1\n")
    found, theory_err = child.run_checks(WORKLOADS["pipeline-t1e5"], SEED, tmp_path)
    assert found and not any(c["ok"] for c in found)
    assert any("TypeError" in c["detail"] for c in found)
    assert theory_err == 2.0
