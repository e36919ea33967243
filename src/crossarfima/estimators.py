"""Scaling-exponent estimators: sample CCF, DFA, DCCA, HXA and the Hurst fit.

All estimators are pure functions of their inputs.  DFA/DCCA/HXA operate
on profiles (cumulative sums of demeaned series) and return fluctuation
series whose log-log slope against scale gives the Hurst estimate; the
slope-to-H mapping lives in fit_hurst.  DFA and DCCA share one per-scale
loop, fluctuations, which gives DFA of x and of y and DCCA of the pair
from one set of box projections; dfa and dcca are thin calls into it.
Fluctuation values are kept as computed, including negative detrended
covariances; sign filtering happens only at the fitting step, with a
warning, never via absolute values.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSeriesError, InsufficientDataError

DFA = "dfa"
DCCA = "dcca"
HXA = "hxa"

MIN_FIT_POINTS = 4


@dataclass(frozen=True)
class FluctuationSeries:
    """Fluctuation values versus scale for one of the dfa/dcca/hxa methods.

    ``values`` holds F^2(s) for dfa/dcca and K(tau) for hxa, so the H
    estimate is always half the log-log slope.
    """

    scales: np.ndarray
    values: np.ndarray
    method: str

    def __post_init__(self):
        scales = np.asarray(self.scales, dtype=int)
        values = np.asarray(self.values, dtype=float)
        if scales.shape != values.shape or scales.ndim != 1:
            raise ValueError("scales and values must be 1-d arrays of equal length")
        if scales.size and (np.any(scales < 1) or np.any(np.diff(scales) <= 0)):
            raise ValueError("scales must be strictly increasing positive integers")
        if self.method not in (DFA, DCCA, HXA):
            raise ValueError(f"unknown method {self.method!r}")
        scales.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "scales", scales)
        object.__setattr__(self, "values", values)

    def __reduce__(self):
        # rebuild through __init__, so that unpickled arrays are read-only again
        return FluctuationSeries, (self.scales, self.values, self.method)


@dataclass(frozen=True)
class ScalingFit:
    """Hurst fit of a fluctuation series: half the log-log slope and stderr (see fit_hurst)."""

    exponent: float
    intercept: float
    stderr: float
    n_points: int
    range: tuple[int, int]


def _demean(z: np.ndarray, name: str) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    if z.ndim != 1:
        raise ValueError(f"{name} must be a 1-d sequence")
    if not np.all(np.isfinite(z)):
        raise ValueError(f"{name} contains non-finite values")
    return z - z.mean()


def _centred_pair(x, y) -> tuple[np.ndarray, np.ndarray, int]:
    """Both series demeaned, checked to have one length T, and T."""
    xc = _demean(x, "x")
    yc = _demean(y, "y")
    if xc.size != yc.size:
        raise ValueError("x and y must have equal length")
    return xc, yc, xc.size


# Window preconditions, shared with config validation.  Each message
# starts with the offending parameter's name, so that a caller can put
# its config section in front.


def check_scales(s_min: int, s_max: int, step: int, detrend_order: int, T: int) -> None:
    """DFA/DCCA box sizes s_min, s_min + step, ..., s_max for a series of length T."""
    if detrend_order < 0:
        raise ValueError(f"detrend_order: must be >= 0, got {detrend_order}")
    if s_min < detrend_order + 2:
        raise ValueError(f"s_min: must be >= detrend_order + 2 = {detrend_order + 2}, got {s_min}")
    if step < 1:
        raise ValueError(f"step: must be >= 1, got {step}")
    if s_max > T // 2:
        raise ValueError(f"s_max = {s_max} exceeds T/2 = {T // 2}")
    if s_max < s_min:
        raise ValueError(f"s_max: scale range [{s_min}, {s_max}] is empty")


def check_taus(tau_min: int, tau_max: int, T: int) -> None:
    """HXA lags: 1 <= tau_min < tau_max <= T/10."""
    if not 1 <= tau_min < tau_max:
        raise ValueError(f"tau_min: need 1 <= tau_min < tau_max, got [{tau_min}, {tau_max}]")
    if tau_max > T // 10:
        raise ValueError(f"tau_max = {tau_max} exceeds T/10 = {T // 10}")


def check_max_lag(max_lag: int, T: int | None = None) -> None:
    """CCF lags: max_lag >= 0 and, where the length T is given, T > 2*max_lag."""
    if max_lag < 0:
        raise ValueError(f"max_lag: must be >= 0, got {max_lag}")
    if T is not None and T <= 2 * max_lag:
        raise ValueError(f"max_lag: need T > 2*max_lag, got T={T}, max_lag={max_lag}")


def sample_ccf(x, y, max_lag: int) -> np.ndarray:
    """Sample cross-correlation rho(k) = corr(x_{t+k}, y_t) for k = -L..L.

    Returns rho(-L..L), rho(k) at index L + k, as theoretical_ccf does.
    Uses global means and (ddof=0) standard deviations with divisor
    T - |k|, so rho(0) of a series with itself is exactly 1.  Requires
    T > 2L.
    """
    L = int(max_lag)
    xc, yc, T = _centred_pair(x, y)
    check_max_lag(L, T)
    sx = np.sqrt(np.mean(xc**2))
    sy = np.sqrt(np.mean(yc**2))
    if sx == 0.0 or sy == 0.0:
        raise DegenerateSeriesError("zero-variance input, cross-correlation undefined")

    values = np.empty(2 * L + 1)
    for k in range(L + 1):
        # lag +k pairs x_{t+k} with y_t, lag -k pairs x_t with y_{t+k}
        n = T - k
        values[L + k] = (xc[k:] @ yc[: n]) / (n * sx * sy)
        values[L - k] = (xc[: n] @ yc[k:]) / (n * sx * sy)
    return values


def _profile(z: np.ndarray) -> np.ndarray:
    return np.cumsum(z)


def _box_vander(s: int, order: int) -> np.ndarray:
    """Powers 0..order of in-box time, rescaled to u in [-1, 1]: the bits of
    np.vander(np.linspace(-1, 1, s), order + 1, increasing=True), whose call
    overhead was a large share of a pass over many small boxes."""
    u = np.arange(s, dtype=float) * (2.0 / (s - 1)) - 1.0
    u[-1] = 1.0
    V = np.empty((s, order + 1))
    V[:, 0] = 1.0
    for k in range(1, order + 1):
        np.multiply(V[:, k - 1], u, out=V[:, k])
    return V


# One small entry per (s, order): a default DCCA window at T = 1e6 has
# 20,000 box sizes, well inside the bound.
@functools.lru_cache(maxsize=1 << 16)
def _basis_factor(s: int, order: int) -> np.ndarray:
    """Coefficients, in powers of u, of the orthonormal in-box polynomials.

    Column k is the degree-k polynomial orthonormal over the s points of
    _box_vander (a discrete Chebyshev polynomial), so
    ``_box_vander(s, order) @ factor`` is an orthonormal basis of the
    polynomials of degree <= order: R^-1 of its thin QR, up to signs.
    The monic polynomials follow p_{k+1} = u p_k - beta_k p_{k-1} with
    beta_k = k^2 (s^2 - k^2) / ((s - 1)^2 (4k^2 - 1)), and
    |p_k|^2 = s beta_1 ... beta_k.  This (order+1)^2 factor is cached
    per (s, order); the s x (order+1) bases, whose size summed over a
    window's scales grows as T^2/step, are kept only by _window_bases.
    """
    beta = [k * k * (s * s - k * k) / ((s - 1) ** 2 * (4 * k * k - 1)) for k in range(order + 1)]
    monic = np.zeros((order + 1, order + 1))
    monic[0, 0] = 1.0
    for k in range(order):
        monic[1:, k + 1] = monic[:-1, k]
        if k:
            monic[:, k + 1] -= beta[k] * monic[:, k - 1]
    factor = monic / np.sqrt(s * np.cumprod([1.0, *beta[1:]]))
    factor.setflags(write=False)
    return factor


# 3.07 MiB holds the default windows' bases at T = 1e4 and order 1; they fit up to T of about 11,400
_BASES_CAP = 4 << 20


@functools.lru_cache(maxsize=1)
def _window_bases(grid: tuple[tuple[int, int], ...]) -> tuple[np.ndarray, ...] | None:
    """Each Q = _box_vander(s, order) @ _basis_factor(s, order) of a pass grid, as read-only views
    of one block; None if they take more than _BASES_CAP bytes (their size grows as T^2/step)."""
    sizes = [s * (order + 1) for s, order in grid]
    if 8 * sum(sizes) > _BASES_CAP:
        return None
    block = np.empty(sum(sizes))
    bases = tuple(b.reshape(s, order + 1) for b, (s, order) in zip(np.split(block, np.cumsum(sizes)[:-1]), grid))
    for (s, order), Q in zip(grid, bases):
        np.matmul(_box_vander(s, order), _basis_factor(s, order), out=Q)
        Q.setflags(write=False)
    block.setflags(write=False)
    return bases


def _anchored_boxes(profiles: np.ndarray, n_boxes: int, s: int, out: np.ndarray) -> np.ndarray:
    """Each row's complete boxes of size s, each minus its middle value, written to the head of out as (k, n_boxes, s)."""
    boxes = profiles[:, : n_boxes * s].reshape(len(profiles), n_boxes, s)
    return np.subtract(boxes, boxes[:, :, s // 2, None], out=out[: boxes.size].reshape(boxes.shape))


def _grid(T: int, s_min=10, s_max=None, step=10, detrend_order=1) -> set[tuple[int, int]]:
    """A dfa or dcca window's (box size, detrend order) pairs at length T; s_max defaults to T//5."""
    s_min, s_max, step, order = int(s_min), int(T // 5 if s_max is None else s_max), int(step), int(detrend_order)
    check_scales(s_min, s_max, step, order, T)
    return {(s, order) for s in range(s_min, s_max + 1, step)}


class Fluctuations(dict):
    """DFA of x and y and DCCA of the pair by key "x", "y", "xy"; a key whose series failed raises its error."""

    def __getitem__(self, key):
        value = super().__getitem__(key)
        if isinstance(value, ValueError):
            raise value
        return value


def fluctuations(x, y=None, dfa: dict | None = None, dcca: dict | None = None) -> Fluctuations:
    """DFA of x and of y over the dfa window and DCCA of the pair over the
    dcca window, in one loop over the box sizes of both.

    A window holds the keyword arguments of dfa or dcca, or None to skip
    it.  The result holds "x" and, given y, "y" for a dfa window, and "xy"
    for a dcca window and a y.  A series that fails its check fails only
    the keys that use it.  At each box size, each profile's complete boxes
    from the start are anchored at their middle point (b - b[s//2], which
    the detrend removes but which keeps values near s^H, not T^H) and
    projected once on Q, an orthonormal basis of the in-box polynomials;
    the residuals then sum in closed form, sum r_x r_y = sum X'Y' - (Q^T X') . (Q^T Y').
    Repeated passes over one grid share its Q (_window_bases); a grid too
    large to keep them builds each Q at its box size, with the same bits.
    """
    series = {"x": x} if y is None else {"x": x, "y": y}
    windows = {k: w for k, w in (("x", dfa), ("y", dfa), ("xy", dcca)) if w is not None and set(k) <= series.keys()}
    out, profiles = Fluctuations(), {}
    for name, z in series.items():
        try:
            profiles[name] = _profile(_demean(z, name))
        except ValueError as e:
            out.update((key, e) for key in windows if name in key and key not in out)
    windows = {key: w for key, w in windows.items() if key not in out}
    if not windows:
        return out
    T = len(next(iter(profiles.values())))
    if any(P.size != T for P in profiles.values()):
        raise ValueError("x and y must have equal length")
    grids = {key: _grid(T, **w) for key, w in windows.items()}
    row = {name: i for i, name in enumerate(profiles)}
    stack = np.stack(list(profiles.values()))
    buffer = np.empty(stack.size)
    values = {key: [] for key in grids}
    grid = tuple(sorted(set().union(*grids.values())))
    bases = _window_bases(grid)
    for n, (s, order) in enumerate(grid):
        Q = _box_vander(s, order) @ _basis_factor(s, order) if bases is None else bases[n]
        boxes = _anchored_boxes(stack, T // s, s, buffer)
        proj = boxes @ Q
        for key in grids:
            if (s, order) in grids[key]:
                i, j = row[key[0]], row[key[-1]]
                bx, by, px, py = boxes[i], boxes[j], proj[i], proj[j]
                values[key].append(float((np.einsum("ij,ij->", bx, by) - np.einsum("ij,ij->", px, py)) / bx.size))
    for key, grid in grids.items():
        out[key] = FluctuationSeries(sorted(s for s, _ in grid), values[key], DCCA if key == "xy" else DFA)
    return out


def dcca(
    x, y, s_min: int = 10, s_max: int | None = None, step: int = 10, detrend_order: int = 1
) -> FluctuationSeries:
    """Detrended cross-covariance F^2(s): the mean product of the two profiles' residuals
    over all complete boxes of size s (see fluctuations).  Values may be negative for
    anti-correlated inputs.  s_max defaults to T//5 and must not exceed T//2."""
    return fluctuations(x, y, dcca=dict(s_min=s_min, s_max=s_max, step=step, detrend_order=detrend_order))["xy"]


def dfa(
    x, s_min: int = 10, s_max: int | None = None, step: int = 10, detrend_order: int = 1
) -> FluctuationSeries:
    """Detrended fluctuation F^2(s): the x = y special case of dcca."""
    return fluctuations(x, dfa=dict(s_min=s_min, s_max=s_max, step=step, detrend_order=detrend_order))["x"]


def hxa(x, y, tau_min: int = 1, tau_max: int = 100) -> FluctuationSeries:
    """Height cross-correlation K(tau) of the two profiles at q = 2.

    K(tau) = mean over t of (X_{t+tau} - X_t)(Y_{t+tau} - Y_t) with
    divisor T - tau; scales as tau^(2 H_xy).  Requires
    1 <= tau_min < tau_max <= T/10.
    """
    xc, yc, T = _centred_pair(x, y)
    tau_min, tau_max = int(tau_min), int(tau_max)
    check_taus(tau_min, tau_max, T)

    X = _profile(xc)
    Y = _profile(yc)
    taus = np.arange(tau_min, tau_max + 1)
    values = np.empty(taus.size)
    for i, tau in enumerate(taus):
        dX = X[tau:] - X[:-tau]
        dY = Y[tau:] - Y[:-tau]
        values[i] = (dX @ dY) / (T - tau)
    return FluctuationSeries(scales=taus, values=values, method=HXA)


def ols(x, y) -> tuple[float, float, float]:
    """Least-squares line y = intercept + slope*x: (slope, intercept, stderr).

    The arithmetic of scipy.stats.linregress, step for step, so the three
    values are bit-identical to it: moments from np.cov with bias=1, the
    correlation clamped to [-1, 1], and the slope's standard error on
    n - 2 degrees of freedom.  Fewer than three points, or identical x
    values, raise ValueError.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or x.shape != y.shape or x.size < 3:
        raise ValueError("x and y must be 1-d arrays of equal length with at least 3 points")
    n = x.size
    if np.amax(x) == np.amin(x):
        raise ValueError("Cannot calculate a linear regression if all x values are identical")
    ssxm, ssxym, _, ssym = np.cov(x, y, bias=1).flat
    slope = ssxym / ssxm
    intercept = np.mean(y) - slope * np.mean(x)
    if ssxm == 0.0 or ssym == 0.0:
        r = np.nan if ssxym == 0 else 0.0
    else:
        r = min(max(ssxym / np.sqrt(ssxm * ssym), -1.0), 1.0)
    stderr = np.sqrt((1 - r**2) * ssym / ssxm / (n - 2))
    return float(slope), float(intercept), float(stderr)


def fit_hurst(fluct: FluctuationSeries) -> ScalingFit:
    """Hurst estimate from a fluctuation series: H = slope/2 in log-log.

    F^2 scales as s^(2H) and K as tau^(2H), so the ols slope of
    log(value) on log(scale) is halved (stderr too).  Non-positive
    fluctuation values cannot enter the log fit; they are dropped with a
    warning, and fewer than 4 surviving points raises InsufficientData.
    """
    keep = fluct.values > 0.0
    dropped = int(np.count_nonzero(~keep))
    if dropped:
        warnings.warn(
            f"{fluct.method}: {dropped} non-positive fluctuation value(s) "
            f"at scales {fluct.scales[~keep].tolist()} skipped in the fit"
        )
    scales = fluct.scales[keep]
    values = fluct.values[keep]
    if scales.size < MIN_FIT_POINTS:
        raise InsufficientDataError(
            f"{fluct.method}: only {scales.size} positive fluctuation values, "
            f"need >= {MIN_FIT_POINTS} for a fit"
        )
    slope, intercept, stderr = ols(np.log(scales), np.log(values))
    return ScalingFit(
        exponent=0.5 * slope,
        intercept=intercept,
        stderr=0.5 * stderr,
        n_points=scales.size,
        range=(int(scales[0]), int(scales[-1])),
    )
