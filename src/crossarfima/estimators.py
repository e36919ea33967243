"""Scaling-exponent estimators: sample CCF, DFA, DCCA, HXA and the Hurst fit.

All estimators are pure functions of their inputs, and thin calls into one
pass per pair, fluctuations.  DFA/DCCA/HXA measure profiles (cumulative sums
of demeaned series): DFA and DCCA by moments of base boxes, HXA by the lag
sums that also give the sample CCF.  They return fluctuation series whose
log-log slope gives the Hurst estimate, by fit_hurst.  Fluctuation values are
kept as computed, including negative detrended covariances; sign filtering
happens only at the fitting step, with a warning, never via absolute values.
"""

from __future__ import annotations

import functools
import math
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


def check_max_lag(max_lag: int, T: int | None = None) -> None:
    """CCF lags: max_lag >= 0 and, where the length T is given, T > 2*max_lag (see size_window)."""
    if max_lag < 0:
        raise ValueError(f"max_lag: must be >= 0, got {max_lag}")
    if T is not None and T <= 2 * max_lag:
        raise ValueError(f"max_lag: need T > 2*max_lag, got T={T}, max_lag={max_lag}")


def _smooth_length(n: int) -> int:
    """Smallest 2**a * 3**b * 5**c >= n, for n >= 1: a fast real FFT size."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # smallest power-of-two multiple of p35 that reaches n
            best = min(best, (1 << (-(-n // p35) - 1).bit_length()) * p35)
            p35 *= 3
        p5 *= 5
    return best


def _lag_sums(xc: np.ndarray, yc: np.ndarray, k_max: int) -> np.ndarray:
    """S_k = sum_t x_{t+k} y_t, k = -k_max..k_max at index k_max + k, by one rfft of each series at a length
    where no lag wraps, with no BLAS to tie a bit to the thread count.  The irfft of Re(X conj Y) is S's even
    part, that of i Im(X conj Y) its odd part, which swapping x and y negates exactly: S mirrors bit for bit."""
    n = _smooth_length(xc.size + k_max)
    fx, fy = np.fft.rfft(xc, n), np.fft.rfft(yc, n)
    even = np.fft.irfft(fx.real * fy.real + fx.imag * fy.imag, n)[: k_max + 1]
    odd = np.fft.irfft(1j * (fx.imag * fy.real - fx.real * fy.imag), n)[: k_max + 1]
    return np.concatenate(((even - odd)[:0:-1], even + odd))


def _ccf(S: np.ndarray, xc: np.ndarray, yc: np.ndarray, L: int) -> np.ndarray | DegenerateSeriesError:
    """sample_ccf of two demeaned series of one length from their lag sums S, or for a zero-variance pair its error."""
    sx, sy = np.sqrt(np.mean(xc**2)), np.sqrt(np.mean(yc**2))
    if sx == 0.0 or sy == 0.0:
        return DegenerateSeriesError("zero-variance input, cross-correlation undefined")
    k = np.arange(-L, L + 1)
    return S[S.size // 2 + k] / ((xc.size - np.abs(k)) * sx * sy)


def _window_sums(S: np.ndarray, tau_max: int) -> np.ndarray:
    """sum_{|k|<tau} (tau - |k|) S_k for tau = 1..tau_max, S_k at index len(S)//2 + k: with S the lag sums of
    x and y, the sum over all windows of tau steps of x's window sum times y's, both padded with zeros."""
    mid = S.size // 2
    pairs = np.concatenate((S[mid : mid + 1], S[mid + 1 : mid + tau_max] + S[mid - tau_max + 1 : mid][::-1]))
    return np.cumsum(np.cumsum(pairs))


def _hxa(S: np.ndarray, xc: np.ndarray, yc: np.ndarray, taus: range) -> FluctuationSeries:
    """hxa of two demeaned series of one length from their lag sums S: _window_sums less the windows over the
    start, whose sums are the profile's head X_j, j < tau, and over the end, of the last i < tau values."""
    taus = np.asarray(taus)
    heads = np.cumsum(np.cumsum(xc[: taus[-1]]) * np.cumsum(yc[: taus[-1]]))
    tails = np.cumsum(np.cumsum(xc[: -taus[-1] : -1]) * np.cumsum(yc[: -taus[-1] : -1]))
    sums = _window_sums(S, taus[-1]) - heads - np.concatenate(([0.0], tails))
    return FluctuationSeries(scales=taus, values=sums[taus - 1] / (xc.size - taus), method=HXA)


def _taus(T: int, tau_min=1, tau_max=None) -> range:
    tau_min, tau_max = int(tau_min), int(min(100, T // 10) if tau_max is None else tau_max)
    if not 1 <= tau_min < tau_max:
        raise ValueError(f"tau_min: need 1 <= tau_min < tau_max, got [{tau_min}, {tau_max}]")
    if tau_max > T // 10:
        raise ValueError(f"tau_max = {tau_max} exceeds T/10 = {T // 10}")
    return range(tau_min, tau_max + 1)


def _lags(T: int, max_lag=None) -> int:
    max_lag = int(min(100, (T - 1) // 2) if max_lag is None else max_lag)
    check_max_lag(max_lag, T)
    return max_lag


def _profile(z: np.ndarray) -> np.ndarray:
    return np.cumsum(z)


def _box_basis(s: int, order: int, g: int = 1) -> np.ndarray:
    """D, which projects a box of s points of g-point base boxes on Q, an orthonormal basis of the polynomials of
    degree <= order: row j sums Q over base box j (at g = 1, D is Q), row s/g + j order + l - 1 (g > 1) is the
    coefficient of tau^l, l = 1..order, in Q(j g + g//2 + tau).  Q's column k is the discrete Chebyshev p_k(u),
    u = np.linspace(-1, 1, s), p_{k+1} = u p_k - beta_k p_{k-1}, beta_k = k^2 (s^2 - k^2) / ((s - 1)^2 (4k^2 - 1)),
    over its norm sqrt(s beta_1 ... beta_k), each p_k kept by its coefficients in tau."""
    beta = [0.0] + [k * k * (s * s - k * k) / ((s - 1) ** 2 * (4 * k * k - 1)) for k in range(1, order + 1)]
    L, h = 1 if g == 1 else order + 1, 2.0 / (s - 1)
    u = np.linspace(-1.0, 1.0, s) if g == 1 else np.arange(g // 2, s, g) * h - 1.0  # at the base boxes' middles
    p = [[0.0] * L, [1.0] + [0.0] * (L - 1), ([u, h] + [0.0] * L)[:L]]  # p_{-1}, p_0, p_1, ...
    for k in range(1, order):
        q = [u * a - beta[k] * b for a, b in zip(p[-1], p[-2])]
        p.append(q[:1] + [c + h * a for c, a in zip(q[1:], p[-1])])
    sums = [sum(t**l for t in range(-(g // 2), g - g // 2)) for l in range(L)]
    D = np.empty((order + 1, u.size * L)).T  # written by contiguous rows of D^T
    for k in range(order + 1):
        norm = 1.0 / math.sqrt(s * math.prod(beta[1 : k + 1]))
        np.multiply(p[k + 1][0], sums[0] * norm, out=D[: u.size, k])
        for l in range(1, L):
            D[: u.size, k] += sums[l] * norm * p[k + 1][l]
            np.multiply(p[k + 1][l], norm, out=D[u.size + l - 1 :: L - 1, k])
    return D


# 0.61 MiB holds the default windows' D at T = 1e4 and order 1; they fit up to T of about 25,000
_COEFFICIENTS_CAP = 4 << 20


@functools.lru_cache(maxsize=1)
def _window_coefficients(grid: tuple[tuple[int, int, int], ...]) -> tuple[np.ndarray, ...] | None:
    """Each D = _box_basis(s, order, g) of a pass grid, as read-only views of one block;
    None if they take more than _COEFFICIENTS_CAP bytes (their size grows as T^2/(step g))."""
    sizes = [s // g * (1 if g == 1 else order + 1) * (order + 1) for s, order, g in grid]
    if 8 * sum(sizes) > _COEFFICIENTS_CAP:
        return None
    block = np.concatenate([_box_basis(s, order, g).T.ravel() for s, order, g in grid])
    block.setflags(write=False)
    return tuple(b.reshape(o + 1, -1).T for b, (_, o, _) in zip(np.split(block, np.cumsum(sizes)[:-1]), grid))


def _base_boxes(stack: np.ndarray, g: int, order: int) -> tuple:
    """The two rows' base boxes of g points: their means and, for g > 1, the moments sum_tau tau^l z_tau, l = 1..order,
    of z, the base box less its mean, tau counted from its middle point, and the products sum_tau z_a z_b of the rows
    a and b summed over the base boxes up to each, every step's rounding error (TwoSum) added back."""
    if g == 1:
        return stack, None, None
    boxes = stack[:, : stack.shape[1] // g * g].reshape(2, -1, g)
    xi = boxes - boxes[:, :, g // 2, None]  # less the middle value, so that z keeps its digits
    z = xi - xi.mean(axis=-1, keepdims=True)
    products = np.einsum("ajt,bjt->abj", z, z)
    c = np.cumsum(products, axis=-1)
    b = c[..., 1:] - c[..., :-1]
    c[..., 1:] += np.cumsum((c[..., :-1] - (c[..., 1:] - b)) + (products[..., 1:] - b), axis=-1)
    return boxes.mean(axis=-1), z @ (np.arange(g, dtype=float) - g // 2)[:, None] ** np.arange(1, order + 1), c


def _box_sums(means, moments, s: int, g: int, D: np.ndarray, pairs: list) -> list[tuple[np.ndarray, np.ndarray]]:
    """sum_j delta_ja delta_jb and the projections' sum of products, over the stacked pairs, for the rows a, b of each
    of pairs, from _base_boxes stacked on axis 1.  A box is m = s/g base boxes: delta_j, base box j's mean less the
    middle one's (the box's anchor), and their moments project it with D (_box_basis); its sum of products is
    g sum_j delta_j delta_j^T plus its base boxes' own (Chan, Golub & LeVeque).  The matmuls run pair by pair and
    np.einsum row by row, one row per call past its buffer (np.getbufsize()), where a row's bits follow the rows'."""
    m, n, R = s // g, means.shape[-1] // (s // g), means.shape[1]
    boxes = means[..., : n * m].reshape(2, R, n, m)
    delta = boxes - boxes[..., m // 2, None]
    proj = delta @ D[:m]
    if D.shape[0] > m:
        proj += moments[:, :, : n * m].reshape(2, R, n, -1) @ D[m:]
    delta, proj = delta.reshape(2, R, -1), proj.reshape(2, R, -1)
    if R > 1 and max(delta.shape[-1], proj.shape[-1]) > np.getbufsize():
        return [tuple(np.array([np.einsum("j,j->", u, v) for u, v in zip(z[a], z[b])]) for z in (delta, proj))
                for a, b in pairs]
    return [(np.einsum("rj,rj->r", delta[a], delta[b]), np.einsum("rj,rj->r", proj[a], proj[b])) for a, b in pairs]


def _grid(T: int, s_min=10, s_max=None, step=10, detrend_order=1) -> tuple[range, int, int]:
    """A dfa or dcca window at length T: (its box sizes s_min, s_min + step, ..., s_max, its detrend order, g the
    gcd of its box sizes), in O(1) at any T; s_max must not exceed T//2 and defaults to T//5, DCCA's default."""
    s_min, s_max, step, order = int(s_min), int(T // 5 if s_max is None else s_max), int(step), int(detrend_order)
    if order < 0:
        raise ValueError(f"detrend_order: must be >= 0, got {order}")
    if s_min < order + 2:
        raise ValueError(f"s_min: must be >= detrend_order + 2 = {order + 2}, got {s_min}")
    if step < 1:
        raise ValueError(f"step: must be >= 1, got {step}")
    if s_max > T // 2:
        raise ValueError(f"s_max = {s_max} exceeds T/2 = {T // 2}")
    if s_max < s_min:
        raise ValueError(f"s_max: scale range [{s_min}, {s_max}] is empty")
    sizes = range(s_min, s_max + 1, step)
    return sizes, order, math.gcd(*sizes[:2])


def _dfa_grid(T: int, s_min=10, s_max=None, step=10, detrend_order=1) -> tuple[range, int, int]:
    """A dfa window at length T, as _grid sizes it, but s_max defaults to max(T//20, s_min + 3 step): DFA boxes
    larger than T/20 sit in the finite-size saturation regime and drag the slope down (Kantelhardt et al. 2001)."""
    s_max = max(T // 20, int(s_min) + 3 * int(step)) if s_max is None else s_max
    return _grid(T, s_min, s_max, step, detrend_order)


# an estimator's keys and how its window is sized at a length T; a key's series and rows (x's profile, y's) of a pair
_ESTIMATORS = {DFA: (("x", "y"), _dfa_grid), DCCA: (("xy",), _grid), HXA: ((HXA,), _taus), "ccf": (("ccf",), _lags)}
_USES = {"x": "x", "y": "y", "xy": "xy", HXA: "xy", "ccf": "xy"}
_ROWS = {"x": (0, 0), "y": (1, 1), "xy": (0, 1)}


def size_window(name: str, T: int, window: dict):
    """Estimator name's window (keyword arguments of dfa, dcca, hxa or sample_ccf) sized at length T by its sizer, the
    one holder of its defaults, for the pass and check_windows alike; an error names the estimator ("dcca.s_max ...")."""
    try:
        return _ESTIMATORS[name][1](T, **window)
    except ValueError as e:
        raise ValueError(f"{name}.{e}") from None


class Fluctuations(dict):
    """A pass's results by key (see fluctuations); a key that failed raises its error."""

    def __getitem__(self, key):
        value = super().__getitem__(key)
        if isinstance(value, Exception):
            raise value
        return value


def fluctuations(x, y=None, dfa=None, dcca=None, hxa=None, ccf=None) -> Fluctuations:
    """DFA of x and of y, DCCA and HXA of the pair and its sample CCF, over the
    windows dfa, dcca, hxa and ccf: each the keyword arguments of the estimator
    of its name (sample_ccf for ccf), or None to skip it.

    The result holds "x" and, given y, "y" for dfa, and given y, "xy",
    "hxa" and "ccf" for the others.  Each series is demeaned and checked
    once, and profiled once where dfa or dcca asks for it; hxa and ccf need
    no profile, but the pair's lag sums, taken once for both (_lag_sums).  A
    series that fails its check fails only the keys that use it, a window
    that does not fit T only its estimator's keys, and a zero-variance pair
    only "ccf".  DFA and DCCA run in one loop over the box sizes of both, from
    base boxes of g points, g the gcd of each window's box sizes: their means
    and moments are taken once (_base_boxes), then each box size costs O(T/g)
    (_box_sums), with coefficients kept for repeated passes over one grid
    (_window_coefficients) where they fit.  A pair is a stack of one.
    """
    return stacked_fluctuations([(x, y)], dfa=dfa, dcca=dcca, hxa=hxa, ccf=ccf)[0]


def stacked_fluctuations(pairs, dfa=None, dcca=None, hxa=None, ccf=None) -> list[Fluctuations]:
    """fluctuations of each (x, y) of pairs, an iterable of pairs of one length, y None or not, in order.

    One failure rule, key by key: an exception in place of a pair fails its every key, a series that fails its check
    the keys that use it, and a window that does not fit the stack's length T its estimator's keys, by the error that
    size_window names after it; the first pair that gives T sizes each window with it, once, in O(1) at any T.  Each
    pair is demeaned, checked, profiled and given its lag sums alone, then held only by its result and its base boxes
    (_base_boxes) at each g and order of the windows that fit, from its own rows (one series twice), on which one
    loop over the box sizes serves every pair (_box_sums): no step mixes two pairs, so each keeps its bits.
    """
    windows = {name: w for name, w in zip(_ESTIMATORS, (dfa, dcca, hxa, ccf)) if w is not None}
    sized, grids, bases, T = {}, {}, set(), None

    def summarise(pair):
        """pair's result, the keys of it that the stack is to give, and its base boxes"""
        nonlocal T
        if isinstance(pair, Exception):  # a pair that could not be made fails every key
            return Fluctuations.fromkeys(_USES, pair), [], {}
        series = {"x": pair[0]} if pair[1] is None else {"x": pair[0], "y": pair[1]}
        asked = [key for name in windows for key in _ESTIMATORS[name][0] if set(_USES[key]) <= series.keys()]
        out, centred = Fluctuations(), {}
        for name, z in series.items():
            try:
                centred[name] = _demean(z, name)
            except ValueError as e:
                out.update((key, e) for key in asked if name in _USES[key] and key not in out)
        if out.keys() == set(asked):
            return out, [], {}
        if T is None:  # each window sized once, at the stack's length
            T = next(iter(centred.values())).size
            for name, window in windows.items():
                try:
                    window = size_window(name, T, window)
                except ValueError as e:
                    window = e
                sized.update(dict.fromkeys(_ESTIMATORS[name][0], window))
            bases.update((w[2], w[1]) for w in map(sized.get, ("x", "xy")) if isinstance(w, tuple))
        if any(c.size != T for c in centred.values()):
            raise ValueError("x and y must have equal length, as must the pairs of a stack")
        out.update((key, sized[key]) for key in asked if key not in out and isinstance(sized[key], Exception))
        live = {key: sized[key] for key in asked if key not in out}
        grids.update((key, window) for key, window in live.items() if key in _ROWS)
        if "ccf" in live or HXA in live:
            L, taus = live.get("ccf", 0), live.get(HXA, range(1, 2))
            xc, yc = centred["x"], centred["y"]
            S = _lag_sums(xc, yc, max(L, int(taus[-1]) - 1))
            out.update((key, lags(S, xc, yc, live[key])) for key, lags in (("ccf", _ccf), (HXA, _hxa)) if key in live)
        keys = [key for key in live if key in _ROWS]
        if not keys:
            return out, [], {}
        profiles = [_profile(c) for c in centred.values()]
        stack = np.stack([profiles[0], profiles[-1]])
        return out, keys, {base: _base_boxes(stack, *base) for base in bases}

    # each pair is dropped once summarised, before the next is made
    outs = list(map(summarise, pairs))
    stacked = [summary for summary in outs if summary[1]]
    if not stacked:
        return [out for out, _, _ in outs]
    sizes = {key: {(s, order, g) for s in box_sizes} for key, (box_sizes, order, g) in grids.items()}
    grid = {size: [key for key in sizes if size in sizes[key]] for size in sorted(set().union(*sizes.values()))}
    kept = _window_coefficients(tuple(grid))
    # each pair's base boxes stacked on axis 1, popped so that the pair's own are freed
    stacks = {base: [None if p[0] is None else np.stack(p, axis=1) for p in zip(*[b.pop(base) for *_, b in stacked])]
              for base in bases}
    values = {key: [] for key in grids}
    for n, ((s, order, g), keys) in enumerate(grid.items()):
        D = _box_basis(s, order, g) if kept is None else kept[n]
        means, moments, _ = stacks[g, order]
        for key, value in zip(keys, _box_sums(means, moments, s, g, D, [_ROWS[key] for key in keys])):
            values[key] += value
    for key, (box_sizes, order, g) in grids.items():
        (a, b), (means, _, products) = _ROWS[key], stacks[g, order]
        scales = np.array(box_sizes)
        n, sums = means.shape[-1] // (scales // g), np.concatenate(values[key]).reshape(len(scales), 2, -1)
        own = 0.0 if products is None else products[a, :, b][:, n * (scales // g) - 1].T
        rows = ((g * sums[:, 0] - sums[:, 1] + own) / (n * scales)[:, None]).T
        for (out, keys, _), row in zip(stacked, rows):
            if key in keys:
                out[key] = FluctuationSeries(scales, row, DCCA if key == "xy" else DFA)
    return [out for out, _, _ in outs]


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
    """Detrended fluctuation F^2(s): the x = y special case of dcca.

    s_max defaults to max(T//20, s_min + 3 step), the CLI's default, since
    larger boxes drag the slope down, and must not exceed T//2."""
    return fluctuations(x, dfa=dict(s_min=s_min, s_max=s_max, step=step, detrend_order=detrend_order))["x"]


def hxa(x, y, tau_min: int = 1, tau_max: int | None = None) -> FluctuationSeries:
    """Height cross-correlation K(tau) of the two profiles at q = 2.

    K(tau) = mean over t of (X_{t+tau} - X_t)(Y_{t+tau} - Y_t) with
    divisor T - tau; scales as tau^(2 H_xy).  Requires
    1 <= tau_min < tau_max <= T/10; tau_max defaults to min(100, T//10),
    the CLI's default.
    """
    return fluctuations(x, y, hxa=dict(tau_min=tau_min, tau_max=tau_max))[HXA]


def sample_ccf(x, y, max_lag: int) -> np.ndarray:
    """Sample cross-correlation rho(k) = corr(x_{t+k}, y_t) for k = -L..L.

    Returns rho(-L..L), rho(k) at index L + k, as theoretical_ccf does.
    Uses global means and (ddof=0) standard deviations with divisor
    T - |k|, so rho(0) of a series with itself is exactly 1.  Requires
    T > 2L.
    """
    return fluctuations(x, y, ccf=dict(max_lag=max_lag))["ccf"]


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
