"""Bivariate long-memory model specifications and their theory.

A model pairs two series, each a weighted sum of two filtered innovation
streams: x's components use streams 1 and 2 and y's use 3 and 4, in
order.  Components are fractionally integrated, AR(1) or plain white
noise; all cross-dependence between x and y enters through the
contemporaneous innovation covariances sigma_ij.  This module builds such
specifications (including the three published presets), simulates
realizations, and computes theoretical quantities: Hurst exponents,
process variances, the cross-correlation function and the cross-power
spectrum.

The truncated MA weights of the components (ma_weights, ar1_weights) live
here too; simulate's FFT length comes from estimators._smooth_length.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .estimators import _smooth_length, check_max_lag
from .innovations import CovarianceSpec, sample

DEFAULT_SIM_TRUNCATION = 10_000

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


@dataclass(frozen=True)
class ComponentSpec:
    """One additive term of a series: a filtered innovation stream.

    ``param`` is the memory parameter d (fractional), the AR coefficient
    theta (ar1) or 0 (white, which has none).  ``weight`` is the mixing
    coefficient (one of alpha, beta, gamma, delta).  Its innovation stream
    is fixed by its position in the model (see ModelSpec).
    """

    kind: str
    weight: float
    param: float = 0.0

    def __post_init__(self):
        if self.kind not in (FRACTIONAL, AR1, WHITE):
            raise ValueError(f"unknown component kind {self.kind!r}; use {FRACTIONAL}, {AR1} or {WHITE}")
        if not np.isfinite(self.weight):
            raise ValueError("component weight must be finite")
        if self.kind == FRACTIONAL and not (np.isfinite(self.param) and 0.0 <= self.param < 0.5):
            raise ValueError(f"fractional component needs 0 <= d < 0.5, got {self.param}")
        if self.kind == AR1 and not (np.isfinite(self.param) and abs(self.param) < 1.0):
            raise ValueError(f"ar1 component needs |theta| < 1, got {self.param}")
        if self.kind == WHITE and self.param != 0.0:
            raise ValueError(f"white component takes no param, got {self.param}")

    @property
    def memory(self) -> float:
        """Memory parameter d: param for fractional, 0 for ar1 and white."""
        return self.param if self.kind == FRACTIONAL else 0.0

    @property
    def hurst(self) -> float:
        """Component Hurst exponent: 0.5 + d for fractional, 0.5 otherwise."""
        return 0.5 + self.memory

    def transfer(self, z):
        """Transfer function at z: (1 - z)^(-d), 1/(1 - theta z), or 1 for white."""
        if self.kind == AR1:
            return 1.0 / (1.0 - self.param * z)
        return (1.0 - z) ** (-self.memory)

    def ma_coefficients(self, truncation: int) -> np.ndarray:
        """MA weights a_0..a_M at M = truncation; a white component's are the one tap [1]."""
        if self.kind == FRACTIONAL:
            return ma_weights(self.param, truncation)
        if self.kind == AR1:
            return ar1_weights(self.param, truncation)
        return np.ones(1)


def fractional(d: float, weight: float) -> ComponentSpec:
    return ComponentSpec(FRACTIONAL, weight, d)


def ar1(theta: float, weight: float) -> ComponentSpec:
    return ComponentSpec(AR1, weight, theta)


def white(weight: float) -> ComponentSpec:
    return ComponentSpec(WHITE, weight)


@dataclass(frozen=True)
class ModelSpec:
    """Two 2-component series plus the 4x4 innovation covariance; stream i drives components[i - 1]."""

    x_components: tuple[ComponentSpec, ComponentSpec]
    y_components: tuple[ComponentSpec, ComponentSpec]
    covariance: CovarianceSpec = field(default_factory=CovarianceSpec)

    def __post_init__(self):
        object.__setattr__(self, "x_components", tuple(self.x_components))
        object.__setattr__(self, "y_components", tuple(self.y_components))
        sizes = (len(self.x_components), len(self.y_components))
        if sizes != (2, 2):
            raise ValueError(f"x and y need two components each, got {sizes[0]} and {sizes[1]}")

    @property
    def components(self) -> tuple[ComponentSpec, ...]:
        return self.x_components + self.y_components

    def coupled_pairs(self, left=(1, 2), right=(3, 4)):
        """(w_i w_j sigma_ij, c_i, c_j, (i, j)) for each pair of streams i in left,
        j in right with a nonzero factor; the defaults pair x's streams with y's."""
        for i in left:
            for j in right:
                ci, cj = self.components[i - 1], self.components[j - 1]
                w = ci.weight * cj.weight * self.covariance.sigma(i, j)
                if w != 0.0:
                    yield w, ci, cj, (i, j)


@dataclass(frozen=True)
class ExponentReport:
    """Theoretical scaling exponents and standard deviations of a model."""

    H_x: float
    H_y: float
    H_xy: float
    sigma_x: float
    sigma_y: float
    dominating_pair: tuple[int, int] | None


@dataclass(frozen=True)
class BivariateSeries:
    """One paired realization {x_t}, {y_t} with its provenance."""

    x: np.ndarray
    y: np.ndarray
    seed: int
    model: ModelSpec
    truncation: int

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if x.shape != y.shape or x.ndim != 1:
            raise ValueError("x and y must be 1-d arrays of equal length")
        x.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    def __reduce__(self):
        # rebuild through __init__, so that unpickled arrays are read-only again
        return BivariateSeries, (self.x, self.y, self.seed, self.model, self.truncation)

    def __len__(self) -> int:
        return self.x.size


def _standard_covariance(sigma_23: float = 0.9) -> CovarianceSpec:
    return CovarianceSpec(variances=(1.0, 1.0, 1.0, 1.0), covariances={(2, 3): sigma_23})


def model1() -> ModelSpec:
    """Preset 1: x = 0.2*F(0.4) + F(0.3), y = F(0.3) + 0.2*F(0.4).

    F(d) is a fractionally integrated stream; unit innovation variances,
    sigma_23 = 0.9.  Long-range cross-correlated: H_x = H_y = 0.9 while
    H_xy = 0.8, dominated by the correlated d=0.3 pair in streams (2, 3).
    """
    return ModelSpec(
        x_components=(fractional(0.4, 0.2), fractional(0.3, 1.0)),
        y_components=(fractional(0.3, 1.0), fractional(0.4, 0.2)),
        covariance=_standard_covariance(),
    )


def model2() -> ModelSpec:
    """Preset 2: x = ARFIMA(0.4) + AR1(0.8), y = AR1(0.8) + ARFIMA(0.4).

    Unit weights, unit variances, sigma_23 = 0.9.  Long-range correlated
    but only short-range cross-correlated: H_x = H_y = 0.9, H_xy = 0.5.
    """
    return ModelSpec(
        x_components=(fractional(0.4, 1.0), ar1(0.8, 1.0)),
        y_components=(ar1(0.8, 1.0), fractional(0.4, 1.0)),
        covariance=_standard_covariance(),
    )


def model3() -> ModelSpec:
    """Preset 3: x = ARFIMA(0.4) + white, y = white + ARFIMA(0.4).

    Unit weights, unit variances, sigma_23 = 0.9.  Long-range correlated
    and contemporaneously correlated, but not cross-correlated:
    rho_xy(0) = sigma_23/(sigma_x*sigma_y) and rho_xy(k) = 0 for k != 0.
    """
    return ModelSpec(
        x_components=(fractional(0.4, 1.0), white(1.0)),
        y_components=(white(1.0), fractional(0.4, 1.0)),
        covariance=_standard_covariance(),
    )


PRESETS = {"model1": model1, "model2": model2, "model3": model3}


def lead_lag_sums(lead: ComponentSpec, lag: ComponentSpec, max_lag: int) -> np.ndarray:
    """Exact sum_{m>=0} a^lead_{m+k} a^lag_m of the untruncated MA weights, k = 0..L.

    Closed forms per pair of kinds, with white noise as fractional d = 0:
    fractional leading fractional,
        G(1-d_i-d_j) G(k+d_i) / (G(d_i) G(1-d_i) G(k+1-d_j)),
    by the recurrence g(k+1) = g(k) (k+d_i)/(k+1-d_j) from one log-gamma
    value at k = 0; fractional leading ar1, c_k = a_k(d) 2F1(1, k+d; k+1; theta),
    by c_k = a_k + theta c_{k+1} down from c_L summed as its series; ar1 leading fractional,
    theta^k (1-theta)^(-d); ar1 leading ar1, theta_i^k / (1 - theta_i theta_j).
    """
    L = int(max_lag)
    if lead.kind == AR1:
        if lag.kind == AR1:
            return ar1_weights(lead.param, L) / (1.0 - lead.param * lag.param)
        return ar1_weights(lead.param, L) * (1.0 - lead.param) ** (-lag.memory)
    d = lead.memory
    if lag.kind == AR1:
        theta, r = lag.param, abs(lag.param)
        # n terms of c_L's series leave a tail below a_L eps, as a_{L+m} <= a_L.  Blocks of 2**16 terms, each
        # summed pairwise by np.sum, carry ma_weights' cumprod on: a_{L+start}, then the ratios a_{L+m}/a_{L+m-1}.
        # theta^m is |theta|^m signed on odd m, as numpy's pow is several times slower for a negative base
        n = 1 if r == 0.0 else math.ceil(math.log(np.finfo(float).eps * (1.0 - r)) / math.log(r)) + 1
        a = ma_weights(d, L)
        sums, weight = [], a[L]
        for start in range(0, n, 1 << 16):
            m = np.arange(start, min(start + (1 << 16), n) + 1, dtype=float)
            weights = np.cumprod(np.concatenate(([weight], (m[1:] + L - 1.0 + d) / (m[1:] + L))))
            terms = np.power(r, m[:-1]) * weights[:-1]
            terms[1::2] *= math.copysign(1.0, theta)
            sums.append(np.sum(terms))
            weight = weights[-1]
        c = np.full(L + 1, math.fsum(sums))
        for k in range(L - 1, -1, -1):
            c[k] = a[k] + theta * c[k + 1]
        return c
    k = np.arange(L + 1, dtype=float)
    e = lag.memory
    g0 = math.exp(math.lgamma(1.0 - d - e) - math.lgamma(1.0 - d) - math.lgamma(1.0 - e))
    return np.cumprod(np.concatenate(([g0], (k[:-1] + d) / (k[:-1] + 1.0 - e))))


def _cross_covariance(model: ModelSpec, left, right, max_lag: int) -> np.ndarray:
    """Cov(u_{t+k}, v_t) at k = -L..L for the sides u, v driven by the streams left, right."""
    L = int(max_lag)
    out = np.zeros(2 * L + 1)
    for w, ci, cj, _ in model.coupled_pairs(left, right):
        out[L:] += w * lead_lag_sums(ci, cj, L)
        out[:L] += w * lead_lag_sums(cj, ci, L)[:0:-1]
    return out


def theoretical_exponents(model: ModelSpec) -> ExponentReport:
    """Theoretical H_x, H_y, H_xy and process standard deviations.

    Component exponents are 0.5 + d for fractional components and 0.5 for
    ar1/white.  H_x (H_y) is the maximum over components with nonzero
    weight.  H_xy is the maximum of (H_i + H_j)/2 over cross pairs whose
    weights and innovation covariance are all nonzero, floored at 0.5.
    Standard deviations are exact for the untruncated process:
    sigma_x^2 = sum_{i,j} w_i w_j sigma_ij sum_k a_k^(i) a_k^(j).
    """

    def side_sigma(streams):
        return math.sqrt(max(_cross_covariance(model, streams, streams, 0)[0], 0.0))

    def side_hurst(comps):
        hs = [c.hurst for c in comps if c.weight != 0.0]
        return max(hs) if hs else 0.5

    best = None
    best_pair = None
    for _, ci, cj, pair in model.coupled_pairs():
        h = 0.5 * (ci.hurst + cj.hurst)
        if best is None or h > best:
            best = h
            best_pair = pair

    return ExponentReport(
        H_x=side_hurst(model.x_components),
        H_y=side_hurst(model.y_components),
        H_xy=max(best, 0.5) if best is not None else 0.5,
        sigma_x=side_sigma((1, 2)),
        sigma_y=side_sigma((3, 4)),
        dominating_pair=best_pair,
    )


# keyed on plain values (a ModelSpec is unhashable); 4 entries hold one model's components
@functools.lru_cache(maxsize=4)
def _weight_spectrum(kind: str, param: float, M: int, nfft: int) -> np.ndarray:
    """Read-only rfft at length nfft of a component's MA weights a_0..a_M."""
    spectrum = np.fft.rfft(ComponentSpec(kind, 1.0, param).ma_coefficients(M), nfft)
    spectrum.setflags(write=False)
    return spectrum


def weight_spectra(model: ModelSpec, T: int):
    """(M, nfft, terms) of a length-T draw: the MA cut M = max(T, 10000),
    the FFT length nfft >= T + M, and (stream, component, weight spectrum
    or None for white) per component of non-zero weight.  The spectra are
    cached, so a call before a pool forks builds them for every child."""
    M = max(T, DEFAULT_SIM_TRUNCATION)
    nfft = _smooth_length(T + M)
    terms = [
        (i, c, None if c.kind == WHITE else _weight_spectrum(c.kind, c.param, M, nfft))
        for i, c in enumerate(model.components)
        if c.weight != 0.0
    ]
    return M, nfft, terms


def simulate(model: ModelSpec, T: int, seed: int) -> BivariateSeries:
    """Draw one realization of length T from the model.

    One innovation block of length T + M is sampled, M = max(T, 10000).
    A side adds its white components' streams and one irfft of the sum of
    its other components' spectra: w_c rfft(stream_c) times the cached
    rfft of a_0..a_M.  The FFTs are circular at nfft >= T + M, which wraps
    the convolution's tail onto outputs below M only; outputs M..M+T-1 are
    kept, the first M are burn-in.  Deterministic given (model, T, seed).
    """
    if T < 1:
        raise ValueError(f"series length T must be >= 1, got {T}")
    # spectra first: their build temporaries are freed before the streams exist
    M, nfft, terms = weight_spectra(model, T)
    streams = sample(model.covariance, T + M, seed)

    x, y = np.zeros(T), np.zeros(T)
    acc, f = np.empty((2, nfft // 2 + 1), dtype=complex)
    r = f.view(float)[:nfft]  # f's memory, free once its product is in acc: a white product, the irfft
    for s, side in enumerate((x, y)):
        acc[:] = 0.0
        for i, c, spectrum in (term for term in terms if term[0] // 2 == s):
            if spectrum is None:
                side += np.multiply(streams[i][M : M + T], c.weight, out=r[:T])
            else:
                np.fft.rfft(streams[i], nfft, out=f)
                f *= spectrum
                acc += np.multiply(f, c.weight, out=f)
        side += np.fft.irfft(acc, nfft, out=r)[M : M + T]

    return BivariateSeries(x=x, y=y, seed=seed, model=model, truncation=M)


def theoretical_ccf(model: ModelSpec, max_lag: int = 1000) -> np.ndarray:
    """Theoretical cross-correlation function at lags -L..L.

    For lag i >= 0 each cross pair contributes
    (w_i w_j sigma_ij / (sigma_x sigma_y)) * sum_{k>=0} a_{k+i}^(x) a_k^(y);
    negative lags shift the y weights instead.  Every sum is the exact
    infinite one (see lead_lag_sums), so all values lie in [-1, 1].
    """
    L = int(max_lag)
    check_max_lag(L)
    rep = theoretical_exponents(model)
    denom = rep.sigma_x * rep.sigma_y
    if denom == 0.0:
        raise ValueError("model has zero process variance; cross-correlations undefined")
    return _cross_covariance(model, (1, 2), (3, 4), L) / denom


def cross_spectrum(model: ModelSpec, freq) -> complex | np.ndarray:
    """Cross-power spectrum f_xy at angular frequency lambda in (0, pi].

    f_xy(l) = (1/2pi) sum_pairs w_i w_j sigma_ij H_i(e^{il}) H_j(e^{-il}),
    with the component transfer functions H (see ComponentSpec.transfer).
    Rejects lambda = 0, a pole when d_i + d_j > 0.
    """
    lam = np.asarray(freq, dtype=float)
    if np.any(lam <= 0.0) or np.any(lam > np.pi):
        raise ValueError("frequency must lie in (0, pi]")
    scalar = lam.ndim == 0
    lam = np.atleast_1d(lam)
    plus = np.exp(1j * lam)
    minus = np.exp(-1j * lam)
    out = np.zeros(lam.shape, dtype=complex)
    for w, ci, cj, _ in model.coupled_pairs():
        out += w * ci.transfer(plus) * cj.transfer(minus)
    out /= 2.0 * np.pi
    return out[0] if scalar else out
