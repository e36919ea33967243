"""Expected values of the study statistics under the simulation protocol.

The acceptance criteria for the finite-sample study compare replication
means with what the protocol itself predicts: the MA(inf) representation
cut at the simulation truncation M, global demeaning, the estimators'
windows and divisors.  Everything here is computed from the model
definition alone (gamma-ratio and theta^n weights, the innovation
covariance), with numpy and scipy only, so these references are
independent of the simulator and of the theory module they check.

Conventions follow the package: gamma_uv(k) = Cov(u_{t+k}, v_t), and a
covariance array of a length-T protocol holds lags k = -(T-1)..(T-1)
with lag k at index k + T - 1.
"""

import numpy as np
from scipy.fft import next_fast_len
from scipy.signal import fftconvolve
from scipy.special import gammaln, hyp2f1


def gamma_ratio_weights(d, M):
    """Fractional MA weights a_n = Gamma(n + d) / (Gamma(n + 1) Gamma(d)), n = 0..M."""
    n = np.arange(M + 1, dtype=float)
    out = np.exp(gammaln(n + d) - gammaln(n + 1.0) - gammaln(d))
    out[0] = 1.0
    return out


def fft_convolve(a, b):
    """Full linear convolution of two real 1-d arrays, by FFT.

    Both inputs are zero-padded to scipy's fast real length for the
    n1 + n2 - 1 output samples, multiplied in the frequency domain and
    transformed back.  This is the padding and the transform of
    scipy.signal.fftconvolve, so the two agree to the last bit or nearly
    so, and both agree with np.convolve to rounding.  A length-1 input is
    a plain scaling and is applied exactly, as fftconvolve does.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 1 or b.ndim != 1 or a.size == 0 or b.size == 0:
        raise ValueError("fft_convolve needs two non-empty 1-d arrays")
    if a.size == 1 or b.size == 1:
        return a * b
    n = a.size + b.size - 1
    nfft = next_fast_len(n, real=True)
    return np.fft.irfft(np.fft.rfft(a, nfft) * np.fft.rfft(b, nfft), nfft)[:n]


def _component_weights(comp, M):
    if comp.kind == "fractional":
        return gamma_ratio_weights(comp.param, M)
    if comp.kind == "ar1":
        return comp.param ** np.arange(M + 1, dtype=float)
    return np.ones(1)  # white noise: the one-tap identity filter


# the innovation streams of each side: stream i drives component i of
# x_components + y_components, as in the model definition
_STREAMS = {"x": (1, 2), "y": (3, 4)}


def _pair_factors(model, left, right):
    """(w_i w_j sigma_ij, c_i, c_j) over streams i of side left, j of side right ("x" or "y")."""
    comps = model.x_components + model.y_components
    for i in _STREAMS[left]:
        for j in _STREAMS[right]:
            ci, cj = comps[i - 1], comps[j - 1]
            w = ci.weight * cj.weight * model.covariance.sigma(i, j)
            if w != 0.0:
                yield w, ci, cj


def truncated_cross_cov(model, left, right, M, T):
    """gamma_uv(k), k = -(T-1)..(T-1), of the MA process with weights cut at M.

    ``left`` and ``right`` name the sides u and v, "x" or "y".  Each
    pair contributes w_i w_j sigma_ij sum_n a^(i)_{n+k} a^(j)_n, which is
    the exact cross-covariance of what a simulation with truncation M
    produces.
    """
    out = np.zeros(2 * T - 1)
    for w, ci, cj in _pair_factors(model, left, right):
        a = _component_weights(ci, M)
        b = _component_weights(cj, M)
        c = fftconvolve(a, b[::-1])
        lags = np.arange(c.size) - (b.size - 1)
        keep = np.abs(lags) < T
        out[lags[keep] + T - 1] += w * c[keep]
    return out


def protocol_covariances(model, T, M):
    """Truncated auto- and cross-covariances of x and y out to lag T - 1."""
    return {
        "xx": truncated_cross_cov(model, "x", "x", M, T),
        "yy": truncated_cross_cov(model, "y", "y", M, T),
        "xy": truncated_cross_cov(model, "x", "y", M, T),
    }


def _memory(comp):
    return comp.param if comp.kind == "fractional" else 0.0


def _fractional_weight(d, k):
    """a_k(d) = Gamma(k + d) / (Gamma(k + 1) Gamma(d)) at k >= 0; d = 0 is the identity filter."""
    if d == 0.0:
        return (k == 0).astype(float)
    return np.exp(gammaln(k + d) - gammaln(k + 1.0) - gammaln(d))


def _lead_lag_limit(ci, cj, k):
    """sum_{m>=0} a^(i)_{m+k} a^(j)_m of the untruncated weights at lags k >= 0.

    ar1 leading ar1 is a geometric series, theta_i^k / (1 - theta_i theta_j);
    ar1 leading a fractional (or white) stream is theta^k times the
    generating function (1 - theta)^(-d); a fractional stream leading an
    ar1 one is a_k(d) 2F1(1, k + d; k + 1; theta); two fractional streams
    give the gamma-ratio closed form, with white noise as d = 0.
    """
    if ci.kind == "ar1":
        if cj.kind == "ar1":
            return ci.param**k / (1.0 - ci.param * cj.param)
        return ci.param**k * (1.0 - ci.param) ** (-_memory(cj))
    p = _memory(ci)
    if cj.kind == "ar1":
        return _fractional_weight(p, k) * hyp2f1(1.0, k + p, k + 1.0, cj.param)
    if p == 0.0:
        return (k == 0).astype(float)
    q = _memory(cj)
    return np.exp(
        gammaln(1.0 - p - q) + gammaln(k + p)
        - gammaln(p) - gammaln(1.0 - p) - gammaln(k + 1.0 - q)
    )


def limit_cross_cov(model, left, right, lags):
    """gamma_uv(k) of the untruncated process, for every component kind.

    For k >= 0 a pair contributes w_i w_j sigma_ij sum_m a^(i)_{m+k} a^(j)_m
    in closed form (log-gamma ratios and the hypergeometric 2F1, so lags
    of any size work); negative lags swap i and j.
    """
    lags = np.asarray(lags)
    m = np.abs(lags).astype(float)
    out = np.zeros(lags.shape)
    for w, ci, cj in _pair_factors(model, left, right):
        out += w * np.where(lags >= 0, _lead_lag_limit(ci, cj, m), _lead_lag_limit(cj, ci, m))
    return out


def limit_ccf(model, lags):
    """rho(k) of the untruncated process."""
    var_x = limit_cross_cov(model, "x", "x", [0])[0]
    var_y = limit_cross_cov(model, "y", "y", [0])[0]
    return limit_cross_cov(model, "x", "y", lags) / np.sqrt(var_x * var_y)


def truncated_cross_spectrum(model, lam, N):
    """f_xy(lam) of the MA weights cut at N, as a double sum over weight indices (m, n).

    The double sum factorizes exactly into
    (1/2pi) sum_pairs w (sum_m a_m e^{i m lam}) (sum_n a_n e^{-i n lam}).
    """
    phase = np.exp(1j * lam * np.arange(N + 1))
    out = 0j
    for w, ci, cj in _pair_factors(model, "x", "y"):
        a = _component_weights(ci, N)
        b = _component_weights(cj, N)
        out += w * (a @ phase[: a.size]) * (b @ phase[: b.size].conj())
    return out / (2.0 * np.pi)


def _prefix(v):
    return np.concatenate(([0.0], np.cumsum(v)))


def _mean_terms(g, T):
    """T Cov(u_a, v_bar) and T Cov(u_bar, v_a) for a = 0..T-1, from gamma_uv."""
    C = _prefix(g)
    a = np.arange(T)
    return C[a + T] - C[a], C[2 * T - 1 - a] - C[T - 1 - a]


def expected_lagged_products(g, T, lags):
    """E[sum_t (u_{t+k} - u_bar)(v_t - v_bar)] over the T - |k| pairs at each lag k.

    Global means are those of the whole length-T sample, as in the
    package's sample CCF.
    """
    rows, cols = _mean_terms(g, T)
    R, C = _prefix(rows), _prefix(cols)
    total = R[-1]  # T^2 Cov(u_bar, v_bar)
    out = np.empty(len(lags))
    for i, k in enumerate(lags):
        n = T - abs(k)
        a0, b0 = (k, 0) if k >= 0 else (0, -k)
        out[i] = (
            n * g[k + T - 1]
            - (R[a0 + n] - R[a0]) / T
            - (C[b0 + n] - C[b0]) / T
            + n * total / T**2
        )
    return out


def expected_sample_ccf(cov, T, lags):
    """Expected sample CCF under the protocol, as the ratio of expectations.

    Numerator: expected centred cross-products with divisor T - |k|;
    denominator: expected ddof-0 variances.  The ratio is the first-order
    expectation of the ratio, exact up to O(1/T) fluctuation terms.
    """
    lags = np.asarray(lags)
    num = expected_lagged_products(cov["xy"], T, lags) / (T - np.abs(lags))
    var_x = expected_lagged_products(cov["xx"], T, [0])[0] / T
    var_y = expected_lagged_products(cov["yy"], T, [0])[0] / T
    return num / np.sqrt(var_x * var_y)


def dfa_kernel(s):
    """W_s(k), k = -(s-1)..(s-1): diagonal sums of L^T (I - Q Q^T) L.

    L is the s x s lower-triangular matrix of ones (the in-box profile)
    and Q the orthonormal basis of constant and linear trends, so one
    box's sum of residual products is x^T L^T (I - QQ^T) L y.  The L^T L
    part has closed-form diagonal sums m(m+1)/2 with m = s - |k|; the
    projection part is the FFT autocorrelation of the columns of L^T Q.
    """
    Q, _ = np.linalg.qr(np.vander(np.arange(s, dtype=float), 2, increasing=True))
    B = np.cumsum(Q[::-1], axis=0)[::-1]  # (L^T Q)[a] = sum_{i >= a} Q[i]
    proj = sum(fftconvolve(B[:, c], B[::-1, c]) for c in range(B.shape[1]))
    m = s - np.abs(np.arange(-(s - 1), s))
    return m * (m + 1) / 2.0 - proj


def expected_dfa(g, scales):
    """E[F^2(s)] of order-1 DFA/DCCA: sum_k gamma(k) W_s(k) / s.

    Every box has the same expectation by stationarity.  Linear
    detrending removes the profile's offset and the global mean's
    linear ramp exactly, so demeaning does not enter.
    """
    T = (g.size + 1) // 2
    return np.array([g[T - s : T + s - 1] @ dfa_kernel(s) / s for s in scales])


def expected_hxa(g, T, taus):
    """E[K(tau)] of the height cross-correlation with global demeaning.

    K(tau) averages (S^u_t - tau u_bar)(S^v_t - tau v_bar) over
    t = 0..T-tau-1, where S_t sums the tau points after t.  Its
    expectation is sum_{|k|<tau} (tau-|k|) gamma(k), less tau times the
    t-average of E[S^u_t v_bar] + E[u_bar S^v_t], plus tau^2 E[u_bar v_bar].
    """
    rows, cols = _mean_terms(g, T)
    PP = _prefix(_prefix(rows + cols))
    total = rows.sum()
    out = np.empty(len(taus))
    for i, tau in enumerate(taus):
        k = np.arange(-(tau - 1), tau)
        n = T - tau
        window = (PP[tau + 1 + n] - PP[tau + 1]) - (PP[1 + n] - PP[1])
        out[i] = (
            (tau - np.abs(k)) @ g[k + T - 1]
            - tau * window / (T * n)
            + tau**2 * total / T**2
        )
    return out
