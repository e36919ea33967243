"""numpy is the package's only runtime dependency: no scipy import anywhere.

scipy's stats and signal imports cost over a second per CLI start, far
more than the work of a short run, so they must not come back, not even
as an import deferred into a function body.  Nor may the package import
the test suite: the closed forms in tests/protocol_expectations.py are an
independent oracle for the theory only while the package cannot use them.
And estimators may not import models, which imports estimators.
"""

import ast
import functools
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np

import crossarfima

PACKAGE_DIR = Path(crossarfima.__file__).resolve().parent


def modules_after(statement: str) -> tuple[str, ...]:
    """sys.modules after `import crossarfima, crossarfima.cli` and statement,
    in a fresh interpreter that takes the package from this source tree."""
    env = dict(os.environ)
    src = str(PACKAGE_DIR.parent)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code = (
        "import sys, crossarfima, crossarfima.cli\n"
        "assert crossarfima.__file__.startswith(sys.argv[1]), crossarfima.__file__\n"
        f"{statement}\n"
        "print(*sorted(sys.modules))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, src], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    # the modules are the last line, after anything the statement printed
    return tuple(proc.stdout.splitlines()[-1].split())


@functools.cache
def modules_loaded_by_cli_import() -> tuple[str, ...]:
    return modules_after("pass")


def package_sources() -> list[Path]:
    """The package's source files; fails if one the CLI import loads is missing."""
    sources = sorted(PACKAGE_DIR.glob("*.py"))
    loaded = {m.split(".")[1] for m in modules_loaded_by_cli_import() if m.startswith("crossarfima.")}
    assert loaded <= {path.stem for path in sources}
    return sources


def test_cli_import_loads_no_scipy_module():
    assert [m for m in modules_loaded_by_cli_import() if m.split(".")[0] == "scipy"] == []


def test_only_a_process_pool_loads_its_modules(tmp_path):
    # experiment --workers > 1 and a large simulate, estimate or experiment
    # without --workers alone fork a pool: importing the CLI, a theory run, or
    # a simulate, an estimate or a default experiment below the pool's size
    # loads neither concurrent.futures.process nor multiprocessing
    theory = f"crossarfima.cli.main(['theory', '--model', 'model1', '--output', {str(tmp_path)!r}])"
    simulate = (
        "crossarfima.cli.main(['simulate', '--model', 'model1', '--T', '200', '--reps', '2',"
        f" '--output', {str(tmp_path / 'sims')!r}])"
    )
    sims = [str(tmp_path / "sims" / f"series_r000{r}.csv") for r in range(2)]
    estimate = (
        f"crossarfima.cli.main(['estimate', '--estimators', 'hxa', '--output', {str(tmp_path / 'est')!r}, *{sims!r}])"
    )
    experiment = (
        "crossarfima.cli.main(['experiment', '--T', '300', '--reps', '3', '--estimators', 'hxa',"
        f" '--output', {str(tmp_path / 'exp')!r}])"
    )
    # the simulate runs first, and writes the estimate's inputs
    runs = (modules_after(theory), modules_after(simulate), modules_after(estimate), modules_after(experiment))
    for modules in (modules_loaded_by_cli_import(), *runs):
        assert [m for m in modules if m.split(".")[0] == "multiprocessing" or m == "concurrent.futures.process"] == []
    assert (tmp_path / "exponents.csv").exists()
    assert sorted(p.name for p in (tmp_path / "sims").iterdir()) == ["series_r0000.csv", "series_r0001.csv"]
    assert (tmp_path / "est" / "estimates.csv").read_text().count(",ok,") == 2
    assert (tmp_path / "exp" / "replications.csv").read_text().count(",ok,") == 3


def test_only_the_draw_set_up_loads_numpy_random(tmp_path):
    # weight_spectra, which simulate and experiment call before a pool forks,
    # loads numpy.random, so that every forked child inherits it rather than
    # importing it; importing the CLI, a theory run and an estimate run leave
    # it unloaded, so a CLI start and a run that draws nothing do not pay for it
    t = np.arange(300)
    np.savetxt(tmp_path / "series.csv", np.column_stack([t, np.sin(0.1 * t) + 0.01 * t, np.cos(0.07 * t)]),
               delimiter=",")  # fmt: skip
    theory = f"crossarfima.cli.main(['theory', '--model', 'model1', '--output', {str(tmp_path / 'th')!r}])"
    estimate = (
        "crossarfima.cli.main(['estimate', '--estimators', 'dfa,dcca,hxa,ccf',"
        f" '--output', {str(tmp_path / 'est')!r}, {str(tmp_path / 'series.csv')!r}])"
    )
    for modules in (modules_loaded_by_cli_import(), modules_after(theory), modules_after(estimate)):
        assert "numpy.random" not in modules
    assert (tmp_path / "th" / "exponents.csv").exists()
    assert (tmp_path / "est" / "estimates.csv").read_text().count(",ok,") == 4
    assert "numpy.random" in modules_after("crossarfima.models.weight_spectra(crossarfima.models.model2(), 1000)")


def test_all_lists_exactly_the_public_names():
    # a name left in __all__ after its definition is deleted breaks `from crossarfima import *`
    public = {
        name
        for name, value in vars(crossarfima).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(crossarfima.__all__) - {"__version__"} == public
    assert len(set(crossarfima.__all__)) == len(crossarfima.__all__)


TEST_MODULES = ("tests", "protocol_expectations", "conftest")


def imports_of(path: Path, roots) -> list[str]:
    """Every `import X...` or `from X... import` with X in roots, at any depth."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            continue
        found += [f"{path.name}:{node.lineno} {n}" for n in names if n.split(".")[0] in roots]
    return found


def test_no_source_file_imports_scipy(tmp_path):
    sources = package_sources()
    assert [hit for path in sources for hit in imports_of(path, ("scipy",))] == []
    # the scan sees an import hidden in a function body
    probe = tmp_path / "probe.py"
    probe.write_text("def f():\n    from scipy import stats\n    import scipy.signal as sg\n")
    assert imports_of(probe, ("scipy",)) == ["probe.py:2 scipy", "probe.py:3 scipy.signal"]


def test_no_source_file_imports_the_tests(tmp_path):
    sources = package_sources()
    assert [hit for path in sources for hit in imports_of(path, TEST_MODULES)] == []
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import protocol_expectations as pe\n"
        "def f():\n    from tests.protocol_expectations import limit_ccf\n"
        "    import conftest\n"
    )
    assert imports_of(probe, TEST_MODULES) == [
        "probe.py:1 protocol_expectations",
        "probe.py:3 tests.protocol_expectations",
        "probe.py:4 conftest",
    ]


def test_the_protocol_oracle_imports_nothing_from_the_package():
    # the closed forms and fft_convolve there check the package only while
    # they share no code with it, not even a helper such as _smooth_length
    oracle = Path(__file__).resolve().parent / "protocol_expectations.py"
    assert imports_of(oracle, ("crossarfima",)) == []
    assert imports_of(oracle, ("numpy", "scipy")) != []


def package_imports(path: Path) -> list[str]:
    """The package modules that path imports, relatively or by name, at any depth."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ("crossarfima" if node.level else "", node.module)))
            names = [f"{module}.{alias.name}" for alias in node.names] if module == "crossarfima" else [module]
        else:
            continue
        found += [n.split(".")[1] for n in names if n.startswith("crossarfima.")]
    return found


def test_estimators_imports_nothing_from_models(tmp_path):
    # models takes check_max_lag and _smooth_length from estimators, so an
    # import the other way, even one deferred into a function, closes a cycle
    assert "estimators" in package_imports(PACKAGE_DIR / "models.py")
    assert "models" not in package_imports(PACKAGE_DIR / "estimators.py")
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from .errors import E\nfrom . import models\n"
        "def f():\n    from .models import simulate\n    import crossarfima.models\n"
        "    from crossarfima import models\n"
    )
    assert package_imports(probe) == ["errors", "models", "models", "models", "models"]
