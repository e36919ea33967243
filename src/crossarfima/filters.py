"""Moving-average weight sequences and FFT convolution.

A fractionally integrated component, an AR(1) component and a plain
white-noise component can all be written as one-sided moving averages of
an innovation stream.  This module generates the (truncated) weight
sequences, the 2-3-5-smooth FFT lengths that models.simulate filters at,
and fft_convolve, a full linear convolution by numpy's real FFT.
"""

from __future__ import annotations

import numpy as np

FRACTIONAL = "fractional"
AR1 = "ar1"
WHITE = "white"


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


def fft_convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Full linear convolution of two real 1-d arrays, by FFT.

    Both inputs are zero-padded to the smallest 2-3-5-smooth length that
    holds the n1 + n2 - 1 output samples, multiplied in the frequency
    domain and transformed back.  This is the padding and the transform
    of scipy.signal.fftconvolve, so the two agree to the last bit or
    nearly so, and both agree with np.convolve to rounding.  A length-1
    input is a plain scaling and is applied exactly, as fftconvolve does.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 1 or b.ndim != 1 or a.size == 0 or b.size == 0:
        raise ValueError("fft_convolve needs two non-empty 1-d arrays")
    if a.size == 1 or b.size == 1:
        return a * b
    n = a.size + b.size - 1
    nfft = _smooth_length(n)
    return np.fft.irfft(np.fft.rfft(a, nfft) * np.fft.rfft(b, nfft), nfft)[:n]
