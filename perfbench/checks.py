"""Output checks for the benchmark, against references computed here.

No check compares against stored bytes of an earlier run: every
reference is recomputed from the run's own inputs (the series, the seed
schedule, the model definitions in the README table), so a declared
correctness fix in the program, such as exact theory, is not counted as
a failure.  Each check returns a ``Check``; the benchmark counts every
check as one operation.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import gammaln

# Exponents are written with 12 significant digits and the reference
# fits per-box least squares in closed form where the program projects
# with a QR basis; the two agree to ~1e-12 (see README).  1e-9 leaves
# room for that and still rejects a nudge of 1e-6.
EXPONENT_TOL = 1e-9
# Sample CCF values: 12-digit rounding of the series and of the output,
# plus FFT rounding in the reference.
CCF_TOL = 1e-9
# Summary statistics recomputed from replications.csv, relative.
SUMMARY_RTOL = 1e-9
# The program's theoretical CCF cuts its weight sums at K = 1e5; for
# model1 that leaves up to 2.4e-3 (at lag 0) against the exact closed
# form.  The tolerance covers that truncation error and rejects a wrong
# lag convention or normalization, which are off by more than 1e-2.
THEORY_TOL = 5e-3
# A theoretical CCF that is exactly zero away from lag 0 (model3) may
# carry FFT rounding.
SPIKE_TOL = 1e-12

MIN_FIT_POINTS = 4

# Theoretical exponents (H_x, H_y, H_xy) of the presets, from the README.
PRESET_EXPONENTS = {
    "model1": (0.9, 0.9, 0.8),
    "model2": (0.9, 0.9, 0.5),
    "model3": (0.9, 0.9, 0.5),
}
SIGMA_23 = 0.9


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str


def read_rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


# --- estimator references -------------------------------------------------


def estimator_windows(T: int) -> dict[str, tuple[int, int, int]]:
    """The CLI's documented T-scaled windows: (min, max, step) per estimator."""
    return {
        "dfa": (10, max(T // 20, 10 + 3 * 10), 10),
        "dcca": (10, max(T // 5, 1), 10),
        "hxa": (1, min(100, T // 10), 1),
    }


def ccf_max_lag(T: int) -> int:
    return min(100, (T - 1) // 2)


def _profile(z: np.ndarray) -> np.ndarray:
    return np.cumsum(z - z.mean())


def _box_residuals(P: np.ndarray, s: int) -> np.ndarray:
    """Residuals of a separate least-squares line through each box of size s.

    Closed-form OLS on centred time: intercept is the box mean, slope is
    sum(t * b) / sum(t^2).  Boxes run from the start of the series.
    """
    n = P.size // s
    t = np.arange(s) - (s - 1) / 2.0
    b = P[: n * s].reshape(n, s)
    b = b - b.mean(axis=1, keepdims=True)
    slope = (b @ t) / (t @ t)
    return b - slope[:, None] * t


def detrended_covariance(x: np.ndarray, y: np.ndarray, scales) -> np.ndarray:
    """F^2(s) of DCCA (DFA when x is y) with order-1 per-box detrending."""
    X = _profile(x)
    Y = X if y is x else _profile(y)
    values = []
    for s in scales:
        rx = _box_residuals(X, s)
        ry = rx if y is x else _box_residuals(Y, s)
        values.append(float(np.mean(rx * ry)))
    return np.array(values)


def height_covariance(x: np.ndarray, y: np.ndarray, taus) -> np.ndarray:
    """HXA K(tau): mean product of profile increments, divisor T - tau."""
    X, Y = _profile(x), _profile(y)
    T = X.size
    return np.array([float((X[t:] - X[:-t]) @ (Y[t:] - Y[:-t])) / (T - t) for t in taus])


def hurst_fit(scales, values) -> tuple[float, int] | None:
    """Half the log-log slope over positive values; None with < 4 of them."""
    scales = np.asarray(scales, dtype=float)
    keep = values > 0.0
    if np.count_nonzero(keep) < MIN_FIT_POINTS:
        return None
    slope = np.polyfit(np.log(scales[keep]), np.log(values[keep]), 1)[0]
    return 0.5 * float(slope), int(np.count_nonzero(keep))


def reference_exponents(x: np.ndarray, y: np.ndarray, estimators) -> dict:
    """{(estimator, target): (H, n_points) or None} for one (x, y) pair."""
    win = estimator_windows(x.size)
    rng = {k: range(lo, hi + 1, step) for k, (lo, hi, step) in win.items()}
    out = {}
    if "dfa" in estimators:
        out[("dfa", "hx")] = hurst_fit(rng["dfa"], detrended_covariance(x, x, rng["dfa"]))
        out[("dfa", "hy")] = hurst_fit(rng["dfa"], detrended_covariance(y, y, rng["dfa"]))
    if "dcca" in estimators:
        out[("dcca", "hxy")] = hurst_fit(rng["dcca"], detrended_covariance(x, y, rng["dcca"]))
    if "hxa" in estimators:
        out[("hxa", "hxy")] = hurst_fit(rng["hxa"], height_covariance(x, y, rng["hxa"]))
    return out


def compare_exponents(name: str, rows: list[dict[str, str]], expected: dict) -> Check:
    """Match written estimate rows against reference exponents."""
    by_key = {(r["estimator"], r["target"]): r for r in rows}
    if set(by_key) != set(expected) or len(rows) != len(expected):
        return Check(name, False, f"rows {sorted(by_key)} != expected {sorted(expected)}")
    worst = 0.0
    for key, ref in expected.items():
        row = by_key[key]
        if ref is None:
            if row["status"] != "failed":
                return Check(name, False, f"{key}: reference fit fails, output says {row['status']}")
            continue
        if row["status"] != "ok":
            return Check(name, False, f"{key}: reference fits H={ref[0]:.6f}, output failed")
        if int(row["n_points"]) != ref[1]:
            return Check(name, False, f"{key}: n_points {row['n_points']} != reference {ref[1]}")
        err = abs(float(row["exponent"]) - ref[0])
        if not err <= EXPONENT_TOL:
            return Check(name, False, f"{key}: |H - reference| = {err:.3e} > {EXPONENT_TOL:g}")
        worst = max(worst, err)
    return Check(name, True, f"max |H - reference| = {worst:.2e}")


def check_replication_exponents(
    outdir: Path, rep: int, x: np.ndarray, y: np.ndarray, estimators
) -> Check:
    """Exponents of one replication in replications.csv against the reference."""
    rows = [r for r in read_rows(outdir / "replications.csv") if int(r["replication"]) == rep]
    return compare_exponents(
        f"{outdir.name}/replications.csv rep {rep}", rows, reference_exponents(x, y, estimators)
    )


def check_summary(outdir: Path, model_name: str) -> Check:
    """summary.csv recomputed from replications.csv, theory from the README table."""
    name = f"{outdir.name}/summary.csv"
    groups: dict[tuple[str, str], list[float]] = {}
    for r in read_rows(outdir / "replications.csv"):
        if r["status"] == "ok":
            groups.setdefault((r["estimator"], r["target"]), []).append(float(r["exponent"]))
    h_x, h_y, h_xy = PRESET_EXPONENTS[model_name]
    theory = {("dfa", "hx"): h_x, ("dfa", "hy"): h_y, ("dcca", "hxy"): h_xy, ("hxa", "hxy"): h_xy}
    summary = read_rows(outdir / "summary.csv")
    if {(r["estimator"], r["target"]) for r in summary} != set(groups):
        return Check(name, False, "summary rows do not match the ok groups of replications.csv")
    for r in summary:
        key = (r["estimator"], r["target"])
        vals = np.array(groups[key])
        sd = vals.std(ddof=1) if vals.size > 1 else 0.0
        want = [vals.mean(), sd, vals.min(), vals.max(), theory[key]]
        got = [float(r[c]) for c in ("mean", "sd", "min", "max", "theory")]
        if int(r["n_ok"]) != vals.size or not np.allclose(got, want, rtol=SUMMARY_RTOL, atol=0):
            return Check(name, False, f"{key}: {got} (n={r['n_ok']}) != recomputed {want} (n={vals.size})")
    return Check(name, True, f"{len(summary)} rows")


def check_identical(a: Path, b: Path, names) -> Check:
    """Byte identity of the named files in two output directories."""
    differ = [n for n in names if (a / n).read_bytes() != (b / n).read_bytes()]
    label = f"{a.parent.name}/{a.name} == {b.parent.name}/{b.name}"
    if differ:
        return Check(label, False, f"differ: {differ}")
    return Check(label, True, f"{len(names)} files identical")


# --- cross-correlation references -----------------------------------------


def reference_ccf(x: np.ndarray, y: np.ndarray, max_lag: int) -> np.ndarray:
    """corr(x_{t+k}, y_t) at k = -L..L by FFT, global means, divisor T - |k|."""
    xc, yc = x - x.mean(), y - y.mean()
    T = xc.size
    n = 1 << (2 * T - 1).bit_length()
    c = np.fft.irfft(np.fft.rfft(xc, n) * np.conj(np.fft.rfft(yc, n)), n)
    k = np.arange(-max_lag, max_lag + 1)
    raw = c[k % n]
    return raw / ((T - np.abs(k)) * np.sqrt(np.mean(xc**2) * np.mean(yc**2)))


def read_series(path: Path) -> tuple[str, np.ndarray]:
    """Header line and data rows of a series file."""
    with open(path) as f:
        header = f.readline().strip()
    return header, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def read_lag_table(path: Path, column: str) -> tuple[np.ndarray, np.ndarray]:
    rows = read_rows(path)
    return np.array([int(r["lag"]) for r in rows]), np.array([float(r[column]) for r in rows])


def check_series_outputs(
    series_csv: Path, T: int, ccf_csv: Path, estimate_rows: list[dict[str, str]], estimators
) -> list[Check]:
    """One simulated series file and what ``estimate`` wrote for it.

    The file must hold t = 0..T-1 with finite x, y; the written sample CCF
    must match the CCF recomputed from the file; the file's rows in
    estimates.csv must match the reference exponents.
    """
    header, data = read_series(series_csv)
    name = series_csv.name
    if header != "t,x,y" or data.shape != (T, 3):
        return [Check(name, False, f"header {header!r}, shape {data.shape}, want (T={T}, 3)")]
    if not np.array_equal(data[:, 0], np.arange(T)) or not np.all(np.isfinite(data)):
        return [Check(name, False, "t column is not 0..T-1 or values are not finite")]
    x, y = data[:, 1], data[:, 2]
    checks = [Check(name, True, f"{T} rows")]

    lags, rho = read_lag_table(ccf_csv, "rho")
    L = ccf_max_lag(T)
    if not np.array_equal(lags, np.arange(-L, L + 1)):
        checks.append(Check(ccf_csv.name, False, f"lags are not -{L}..{L}"))
    else:
        err = float(np.max(np.abs(rho - reference_ccf(x, y, L))))
        ok = err <= CCF_TOL
        checks.append(Check(ccf_csv.name, ok, f"max |rho - reference| = {err:.3e} (tol {CCF_TOL:g})"))

    mine = [r for r in estimate_rows if r["file"] == str(series_csv)]
    checks.append(
        compare_exponents(f"estimates.csv {name}", mine, reference_exponents(x, y, estimators))
    )
    return checks


# --- theory references ----------------------------------------------------


def fractional_cross_cov(d_lead: float, d_lag: float, k: np.ndarray) -> np.ndarray:
    """sum_m a_{m+k}(d_lead) a_m(d_lag) for k >= 0, exact (ROADMAP section 3).

    Gamma(1-d_i-d_j) Gamma(k+d_i) / (Gamma(d_i) Gamma(1-d_i) Gamma(k+1-d_j))
    with d_i the lead (shifted) side, for 0 < d_i, d_j and d_i + d_j < 1.
    """
    return np.exp(
        gammaln(1.0 - d_lead - d_lag)
        + gammaln(k + d_lead)
        - gammaln(d_lead)
        - gammaln(1.0 - d_lead)
        - gammaln(k + 1.0 - d_lag)
    )


def model1_exact_ccf(lags: np.ndarray) -> np.ndarray:
    """Exact CCF of model1: x = 0.2 f(0.4) + f(0.3), y = f(0.3) + 0.2 f(0.4), sigma_23."""
    zero = np.array([0.0])
    var = 0.2**2 * fractional_cross_cov(0.4, 0.4, zero)[0] + fractional_cross_cov(0.3, 0.3, zero)[0]
    # Only the d = 0.3 streams (slots 2 and 3) are correlated; equal d makes it even in k.
    return SIGMA_23 * fractional_cross_cov(0.3, 0.3, np.abs(lags).astype(float)) / var


def theory_ccf_error(path: Path, column: str) -> tuple[Check, float]:
    """Largest |rho - exact| of model1's theoretical CCF over the lags written."""
    lags, rho = read_lag_table(path, column)
    err = float(np.max(np.abs(rho - model1_exact_ccf(lags))))
    name = f"{path.parent.name}/{path.name} exact theory"
    if not err <= THEORY_TOL:
        return Check(name, False, f"max |rho - exact| = {err:.3e} > {THEORY_TOL:g}"), err
    return Check(name, True, f"max |rho - exact| = {err:.3e}"), err


def check_spike_ccf(path: Path, column: str) -> Check:
    """model3 is cross-correlated only at lag 0: the theory must be a spike."""
    lags, rho = read_lag_table(path, column)
    name = f"{path.parent.name}/{path.name} spike"
    off = float(np.max(np.abs(rho[lags != 0]))) if lags.size > 1 else 0.0
    at0 = rho[lags == 0]
    if at0.size != 1 or not 0.0 < at0[0] <= 1.0 or off > SPIKE_TOL:
        return Check(name, False, f"rho(0) = {at0}, max |rho(k != 0)| = {off:.3e}")
    return Check(name, True, f"rho(0) = {at0[0]:.6f}")


def check_ccf_table(path: Path, column: str, max_lag: int) -> Check:
    """A CCF table covers lags -L..L with finite values in [-1, 1]."""
    lags, rho = read_lag_table(path, column)
    name = f"{path.parent.name}/{path.name}"
    if not np.array_equal(lags, np.arange(-max_lag, max_lag + 1)):
        return Check(name, False, f"lags are not -{max_lag}..{max_lag}")
    if not (np.all(np.isfinite(rho)) and np.all(np.abs(rho) <= 1.0)):
        return Check(name, False, "values not finite or outside [-1, 1]")
    return Check(name, True, f"{lags.size} lags")


def check_ccf_mean(path: Path) -> Check:
    """ccf_mean.csv: abs_diff column equals |mean_sample_rho - theory_rho|."""
    rows = read_rows(path)
    name = f"{path.parent.name}/{path.name}"
    for r in rows:
        m, t, d = (float(r[c]) for c in ("mean_sample_rho", "theory_rho", "abs_diff"))
        if not math.isclose(d, abs(m - t), rel_tol=1e-9, abs_tol=1e-12):
            return Check(name, False, f"lag {r['lag']}: abs_diff {d} != |{m} - {t}|")
    return Check(name, True, f"{len(rows)} lags")


def check_theory_exponents(path: Path, model_name: str) -> Check:
    """exponents.csv H values against the README table."""
    values = {r["quantity"]: r["value"] for r in read_rows(path)}
    want = PRESET_EXPONENTS[model_name]
    got = tuple(float(values.get(q, "nan")) for q in ("H_x", "H_y", "H_xy"))
    name = f"{path.parent.name}/{path.name}"
    if got != want:
        return Check(name, False, f"(H_x, H_y, H_xy) = {got} != {want}")
    return Check(name, True, f"H = {got}")
