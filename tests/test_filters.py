"""MA weights (models.ma_weights, models.ar1_weights), the FFT length
simulate filters at (models._smooth_length), and the test oracle
protocol_expectations.fft_convolve that the filtering checks use."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.fft import next_fast_len
from scipy.signal import fftconvolve
from scipy.special import gammaln

from crossarfima.models import _smooth_length, ar1_weights, ma_weights

from protocol_expectations import fft_convolve


def gamma_ratio_weights(d, M):
    """Reference weights a_n = Gamma(n+d) / (Gamma(n+1) Gamma(d)) in log space.

    Independent of the cumulative-product recursion under test; the
    log-gamma route stays accurate out to large n where the direct
    Gamma ratio would overflow.
    """
    n = np.arange(M + 1, dtype=float)
    out = np.exp(gammaln(n + d) - gammaln(n + 1.0) - gammaln(d))
    out[0] = 1.0
    return out


# ----------------------------------------------------------------------
# fractional weights
# ----------------------------------------------------------------------


@pytest.mark.parametrize("d", [0.05, 0.1, 0.25, 0.3, 0.4, 0.45, 0.499])
def test_ma_weights_match_gamma_ratio(d):
    # recursion vs log-gamma closed form, relative error < 1e-10 up to n=1000
    w = ma_weights(d, 1000)
    ref = gamma_ratio_weights(d, 1000)
    rel = np.abs(w - ref) / ref
    assert rel.max() < 1e-10


def test_ma_weights_hand_values():
    # a_0 = 1, a_1 = d, a_2 = d(1+d)/2 from the recursion a_n = a_{n-1}(n-1+d)/n
    for d in (0.1, 0.3, 0.4):
        w = ma_weights(d, 2)
        assert w[0] == 1.0
        assert np.isclose(w[1], d, rtol=0, atol=1e-15)
        assert np.isclose(w[2], d * (1.0 + d) / 2.0, rtol=0, atol=1e-15)


def test_ma_weights_d_zero_is_identity():
    w = ma_weights(0.0, 50)
    assert w[0] == 1.0
    assert np.all(w[1:] == 0.0)


def test_ma_weights_are_positive_and_decreasing():
    w = ma_weights(0.4, 5000)
    assert np.all(w > 0.0)
    assert np.all(np.diff(w[1:]) < 0.0)  # a_1 > a_2 > ... for 0 < d < 1


@pytest.mark.parametrize("d", [0.1, 0.25, 0.4])
def test_squared_weight_sum_approaches_gamma_form(d):
    """Partial sums of a_n^2 climb to Gamma(1-2d)/Gamma(1-d)^2 from below.

    The truncation gap is the integral tail ~ K^(2d-1)/((1-2d)Gamma(d)^2),
    so the partial sum must sit within that envelope of the limit.
    """
    import math

    limit = math.gamma(1.0 - 2.0 * d) / math.gamma(1.0 - d) ** 2
    for K in (1000, 10_000, 100_000):
        partial = float(np.sum(ma_weights(d, K) ** 2))
        tail = K ** (2.0 * d - 1.0) / ((1.0 - 2.0 * d) * math.gamma(d) ** 2)
        assert partial < limit
        assert limit - partial < 2.0 * tail


def test_ma_weight_tail_slope():
    # log a_n vs log n slope approaches d - 1 over n in [100, 1000]
    for d in (0.1, 0.3, 0.4):
        w = ma_weights(d, 1000)
        n = np.arange(100, 1001)
        slope = np.polyfit(np.log(n), np.log(w[100:1001]), 1)[0]
        assert abs(slope - (d - 1.0)) < 0.01


def test_ma_weights_rejects_bad_d():
    for d in (-0.1, 0.5, 0.7, np.nan, np.inf):
        with pytest.raises(ValueError):
            ma_weights(d, 10)
    with pytest.raises(ValueError):
        ma_weights(0.3, -1)


# ----------------------------------------------------------------------
# ar1 weights
# ----------------------------------------------------------------------


def test_ar1_weights_are_powers():
    for theta in (0.8, -0.5, 0.0):
        w = ar1_weights(theta, 20)
        assert np.array_equal(w, theta ** np.arange(21.0))


def test_ar1_weights_rejects_unit_root():
    for theta in (1.0, -1.0, 1.5):
        with pytest.raises(ValueError):
            ar1_weights(theta, 10)


def test_weight_vector_is_read_only():
    for w in (ma_weights(0.3, 10), ar1_weights(0.5, 10)):
        assert w.shape == (11,)
        with pytest.raises(ValueError):
            w[0] = 2.0


# ----------------------------------------------------------------------
# causal filtering: the "valid" slice of the oracle's fft_convolve
# ----------------------------------------------------------------------


def causal(x, w):
    """output[t] = sum_n w[n] x[t+M-n] for the T = len(x) - M outputs, M = len(w) - 1."""
    return fft_convolve(x, w)[len(w) - 1 : len(x)]


def test_impulse_response_recovers_weights():
    """A unit impulse at the end of the warmup window plays back the weights.

    output[t] = sum_n w[n] x[t+M-n], so x = e_M makes output[t] = w[t].
    """
    M, T = 40, 30
    w = ma_weights(0.4, M)
    x = np.zeros(M + T)
    x[M] = 1.0
    out = causal(x, w)
    assert np.allclose(out, w[:T], rtol=0, atol=1e-14)


def test_filter_matches_double_loop():
    # brute-force oracle: out[t] = sum_n w[n] x[t+M-n]
    rng = np.random.default_rng(7)
    for trial in range(25):
        M = int(rng.integers(0, 30))
        T = int(rng.integers(1, 40))
        kind = rng.choice(["frac", "ar1"])
        w = ma_weights(0.35, M) if kind == "frac" else ar1_weights(0.6, M)
        x = rng.standard_normal(M + T)
        expected = np.array(
            [sum(w[n] * x[t + M - n] for n in range(M + 1)) for t in range(T)]
        )
        out = causal(x, w)
        assert out.shape == (T,)
        assert np.allclose(out, expected, rtol=0, atol=1e-10)


def test_fft_agrees_with_direct_on_long_input():
    rng = np.random.default_rng(11)
    w = ma_weights(0.45, 400)
    x = rng.standard_normal(400 + 5000)
    assert np.max(np.abs(causal(x, w) - np.convolve(x, w, "valid"))) < 1e-10


def test_filter_is_linear():
    rng = np.random.default_rng(3)
    w = ma_weights(0.2, 50)
    x1 = rng.standard_normal(200)
    x2 = rng.standard_normal(200)
    lhs = causal(3.0 * x1 - 0.5 * x2, w)
    rhs = 3.0 * causal(x1, w) - 0.5 * causal(x2, w)
    assert np.allclose(lhs, rhs, rtol=0, atol=1e-12)


def test_white_filter_is_identity():
    # a one-tap filter is applied exactly, as in fftconvolve: simulate
    # passes white-noise streams through unchanged
    rng = np.random.default_rng(5)
    x = rng.standard_normal(64)
    assert np.array_equal(causal(x, np.ones(1)), x)


# ----------------------------------------------------------------------
# FFT convolution
# ----------------------------------------------------------------------


def test_smooth_length_is_scipys_real_fast_length():
    # the padded length decides the transform's rounding, so simulate's
    # length must be the one fftconvolve and the oracle fft_convolve pad to
    for n in range(1, 5000):
        assert _smooth_length(n) == next_fast_len(n, real=True), n
    for n in (10_007, 20_000, 30_001, 200_000, 200_001, 100_101 + 100_000, 201_000):
        assert _smooth_length(n) == next_fast_len(n, real=True), n


@pytest.mark.parametrize(
    "n1, n2",
    [
        (1, 1), (1, 7), (2, 3), (7, 13), (97, 89), (101, 1),
        # the output length n1 + n2 - 1 lands on and just past 2-3-5-smooth sizes
        (257, 256), (258, 256), (500, 501), (501, 501), (7_919, 7_907),
        # simulate at T = M = 1e4 and 1e5: T + M innovations, M + 1 weights
        (20_000, 10_001), (200_000, 100_001),
        # theoretical_ccf at K = 1e5: K + L + 1 weights against K + 1, L = 100 and 1000
        (100_101, 100_001), (101_001, 100_001),
    ],
)  # fmt: skip
def test_fft_convolve_matches_scipy_fftconvolve(n1, n2):
    rng = np.random.default_rng(n1 + 7 * n2)
    a = rng.standard_normal(n1)
    b = ma_weights(0.4, n2 - 1) if n2 > 1000 else rng.standard_normal(n2)
    got = fft_convolve(a, b)
    ref = fftconvolve(a, b, mode="full")
    assert got.shape == (n1 + n2 - 1,)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_fft_convolve_rejects_bad_input():
    with pytest.raises(ValueError, match="1-d"):
        fft_convolve(np.zeros(0), np.ones(3))
    with pytest.raises(ValueError, match="1-d"):
        fft_convolve(np.ones((2, 2)), np.ones(3))


_signals = arrays(
    np.float64,
    st.integers(1, 300),
    elements=st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
)


@settings(max_examples=150, deadline=None)
@given(a=_signals, b=_signals)
def test_fft_convolve_is_symmetric_and_matches_np_convolve(a, b):
    ab = fft_convolve(a, b)
    scale = max(1.0, np.max(np.abs(a)) * np.max(np.abs(b)) * min(a.size, b.size))
    assert np.max(np.abs(ab - fft_convolve(b, a))) <= 1e-12 * scale
    assert np.max(np.abs(ab - np.convolve(a, b))) <= 1e-12 * scale
