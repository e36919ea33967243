"""tools/golden.py --compare: the size of a difference between two output directories."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parents[1] / "tools" / "golden.py"


@pytest.fixture(scope="module")
def golden():
    spec = importlib.util.spec_from_file_location("golden", GOLDEN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_tree(root: Path, files: dict) -> Path:
    for name, text in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text)
    return root


BEFORE = {
    "calls.json": '[{"argv": ["theory"], "exit": 0}]\n',
    "exp/summary.csv": "estimator,mean,sd\ndfa,0.8,0.02\ndcca,-4.0,0.01\n",
    "exp/replications.csv": "rep,status\n0,ok\n",
    "theory/ccf.csv": "lag,rho\n0,0.5\n",
}


def test_identical_directories_compare_equal(golden, tmp_path, capsys):
    a, b = write_tree(tmp_path / "a", BEFORE), write_tree(tmp_path / "b", BEFORE)
    assert golden.compare(a, b) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["calls.json: identical", "0 tables differ: 0 of 17 cells changed, by at most 0 of their "
                   "column's largest |value|"]  # fmt: skip


def test_changes_are_counted_and_sized_per_column(golden, tmp_path, capsys):
    after = {
        **BEFORE,
        # 0.8 -> 0.8 + 4e-12 in a column whose largest |value| is 4.0; sd's 0.01 -> 0.0100000001
        "exp/summary.csv": "estimator,mean,sd\ndfa,0.800000000004,0.02\ndcca,-4.0,0.0100000001\n",
        "exp/replications.csv": "rep,status\n0,failed\n",
        "theory/ccf.csv": "lag,rho\n0,0.5\n1,0.1\n",
        "theory/extra.csv": "a\n1\n",
    }
    a, b = write_tree(tmp_path / "a", BEFORE), write_tree(tmp_path / "b", after)
    assert golden.compare(a, b) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[:5] == [
        "calls.json: identical",
        "exp/replications.csv: 1 of 4 cells changed, by at most inf relative",
        "exp/summary.csv: 2 of 9 cells changed, by at most 5e-09 relative",
        "theory/ccf.csv: rows or columns differ",
        f"theory/extra.csv: only in {b}",
    ]
    assert out[5].startswith("2 tables differ: 3 of 13 cells changed, by at most inf")
    count, changed, worst = golden.table_change(a / "exp/summary.csv", b / "exp/summary.csv")
    assert (count, changed) == (9, 2)
    assert worst == pytest.approx(1e-10 / 0.02)


def test_calls_json_that_differs_is_reported(golden, tmp_path, capsys):
    a = write_tree(tmp_path / "a", BEFORE)
    b = write_tree(tmp_path / "b", {**BEFORE, "calls.json": '[{"argv": ["theory"], "exit": 1}]\n'})
    assert golden.compare(a, b) == 1
    assert capsys.readouterr().out.splitlines()[0] == "calls.json: differs"


def test_compare_runs_from_the_command_line(tmp_path):
    a, b = write_tree(tmp_path / "a", BEFORE), write_tree(tmp_path / "b", BEFORE)
    proc = subprocess.run([sys.executable, str(GOLDEN), "--compare", str(a), str(b)], capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stdout.startswith("calls.json: identical")
    proc = subprocess.run([sys.executable, str(GOLDEN), "--src", str(a)], capture_output=True, text=True)
    assert proc.returncode == 2 and "--src and --output are required" in proc.stderr
