"""Moving-average weight sequences and causal FIR filtering.

A fractionally integrated component, an AR(1) component and a plain
white-noise component can all be written as one-sided moving averages of
an innovation stream.  This module generates the (truncated) weight
sequences and applies them as causal convolution filters, with a direct
and an FFT-based implementation that are interchangeable.
"""

from __future__ import annotations

import numpy as np
from scipy.signal import fftconvolve

FRACTIONAL = "fractional"
AR1 = "ar1"
WHITE = "white"

# Above this operation count the FFT path wins on constant factors.
_FFT_CROSSOVER_OPS = 10_000_000


def ma_weights(d: float, M: int) -> np.ndarray:
    """Fractional-integration MA weights a_0..a_M for memory parameter d.

    Uses the multiplicative recursion a_0 = 1, a_n = a_{n-1} * (n-1+d)/n,
    which is numerically stable and avoids Gamma evaluation.  d = 0 yields
    the identity filter [1, 0, ..., 0] (the analytic limit).

    Parameters
    ----------
    d : float
        Memory parameter, 0 <= d < 0.5 (stationarity bound).
    M : int
        Truncation horizon, M >= 0.

    Returns
    -------
    numpy.ndarray
        The M + 1 weights, read-only.
    """
    if not np.isfinite(d):
        raise ValueError(f"memory parameter d must be finite, got {d!r}")
    if not 0.0 <= d < 0.5:
        raise ValueError(f"memory parameter d must be in [0, 0.5), got {d}")
    if M < 0:
        raise ValueError(f"truncation M must be >= 0, got {M}")
    n = np.arange(1, M + 1, dtype=float)
    w = np.empty(M + 1)
    w[0] = 1.0
    # a_n = prod_{k=1..n} (k-1+d)/k; for d = 0 the first factor is 0, which
    # zeroes the whole tail and leaves the exact identity filter.
    np.cumprod((n - 1.0 + d) / n, out=w[1:])
    w.setflags(write=False)
    return w


def ar1_weights(theta: float, M: int) -> np.ndarray:
    """AR(1) impulse-response weights theta^n for n = 0..M, read-only.

    Requires |theta| < 1 (stationary AR(1)); theta = 0 degenerates to the
    white-noise identity filter.
    """
    if not np.isfinite(theta):
        raise ValueError(f"AR coefficient must be finite, got {theta!r}")
    if abs(theta) >= 1.0:
        raise ValueError(f"|theta| must be < 1 for a stationary AR(1), got {theta}")
    if M < 0:
        raise ValueError(f"truncation M must be >= 0, got {M}")
    w = theta ** np.arange(M + 1, dtype=float)
    w.setflags(write=False)
    return w


def causal_filter(
    innovations: np.ndarray,
    weights: np.ndarray,
    method: str = "auto",
) -> np.ndarray:
    """Apply a causal FIR filter to an innovation stream.

    The first M samples of ``innovations`` are burn-in: with M + 1 weights
    and T + M input samples the output has length T and

        output[t] = sum_{n=0..M} weights[n] * innovations[t + M - n].

    ``method`` selects the implementation: "direct" (time-domain
    summation), "fft" (transform-based fast convolution) or "auto"
    (direct below roughly 1e7 multiply-adds, fft above).  The two
    implementations agree to within 1e-8 absolute.
    """
    x = np.asarray(innovations, dtype=float)
    w = np.asarray(weights, dtype=float)
    if x.ndim != 1 or w.ndim != 1:
        raise ValueError("innovations and weights must be 1-d")
    M = w.size - 1
    T = x.size - M
    if T < 1:
        raise ValueError(
            f"innovation stream too short: need at least {M + 1} samples "
            f"(M + 1) for M = {M}, got {x.size}"
        )
    if method == "auto":
        method = "direct" if T * (M + 1) <= _FFT_CROSSOVER_OPS else "fft"
    if method == "direct":
        out = np.zeros(T)
        for n in range(M + 1):
            out += w[n] * x[M - n : M - n + T]
        return out
    if method == "fft":
        return fftconvolve(x, w, mode="valid")
    raise ValueError(f"unknown method {method!r}")
