"""Bivariate long-memory model specifications and their theory.

A model pairs two series, each a weighted sum of two filtered innovation
streams: x uses streams 1-2, y uses streams 3-4.  Components are
fractionally integrated, AR(1) or plain white noise; all cross-dependence
between x and y enters through the contemporaneous innovation covariances
sigma_ij.  This module builds such specifications (including the three
published presets), simulates realizations, and computes theoretical
quantities: Hurst exponents, process variances, the cross-correlation
function and the cross-power spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .filters import AR1, FRACTIONAL, WHITE, ar1_weights, causal_filter, fft_convolve, ma_weights
from .innovations import CovarianceSpec, sample

DEFAULT_EXPONENT_TRUNCATION = 10_000
DEFAULT_CCF_TRUNCATION = 100_000

X_SLOTS = (1, 2)
Y_SLOTS = (3, 4)


@dataclass(frozen=True)
class ComponentSpec:
    """One additive term of a series: a filtered innovation stream.

    ``param`` is the memory parameter d (fractional), the AR coefficient
    theta (ar1) or ignored (white).  ``weight`` is the mixing coefficient
    (one of alpha, beta, gamma, delta) and ``slot`` the 1-based innovation
    stream index in 1..4.
    """

    kind: str
    weight: float
    slot: int
    param: float = 0.0

    def __post_init__(self):
        if self.kind not in (FRACTIONAL, AR1, WHITE):
            raise ValueError(f"unknown component kind {self.kind!r}")
        if not np.isfinite(self.weight):
            raise ValueError("component weight must be finite")
        if self.slot not in (1, 2, 3, 4):
            raise ValueError(f"innovation slot must be in 1..4, got {self.slot}")
        if self.kind == FRACTIONAL and not (np.isfinite(self.param) and 0.0 <= self.param < 0.5):
            raise ValueError(f"fractional component needs 0 <= d < 0.5, got {self.param}")
        if self.kind == AR1 and not (np.isfinite(self.param) and abs(self.param) < 1.0):
            raise ValueError(f"ar1 component needs |theta| < 1, got {self.param}")

    @property
    def hurst(self) -> float:
        """Component Hurst exponent: 0.5 + d for fractional, 0.5 otherwise."""
        return 0.5 + self.param if self.kind == FRACTIONAL else 0.5

    def ma_coefficients(self, truncation: int) -> np.ndarray:
        """MA weights a_0..a_M at M = truncation; a white component's are [1, 0, ..., 0]."""
        if self.kind == FRACTIONAL:
            return ma_weights(self.param, truncation)
        if self.kind == AR1:
            return ar1_weights(self.param, truncation)
        out = np.zeros(truncation + 1)
        out[0] = 1.0
        return out


def fractional(d: float, weight: float, slot: int) -> ComponentSpec:
    return ComponentSpec(FRACTIONAL, weight, slot, d)


def ar1(theta: float, weight: float, slot: int) -> ComponentSpec:
    return ComponentSpec(AR1, weight, slot, theta)


def white(weight: float, slot: int) -> ComponentSpec:
    return ComponentSpec(WHITE, weight, slot)


@dataclass(frozen=True)
class ModelSpec:
    """Two 2-component series plus the 4x4 innovation covariance."""

    x_components: tuple[ComponentSpec, ComponentSpec]
    y_components: tuple[ComponentSpec, ComponentSpec]
    covariance: CovarianceSpec = field(default_factory=CovarianceSpec)

    def __post_init__(self):
        object.__setattr__(self, "x_components", tuple(self.x_components))
        object.__setattr__(self, "y_components", tuple(self.y_components))
        x_slots = tuple(c.slot for c in self.x_components)
        y_slots = tuple(c.slot for c in self.y_components)
        if x_slots != X_SLOTS or y_slots != Y_SLOTS:
            raise ValueError(
                f"x components must use slots {X_SLOTS} and y components {Y_SLOTS} "
                f"in order, got x={x_slots}, y={y_slots}"
            )

    @property
    def components(self) -> tuple[ComponentSpec, ...]:
        return self.x_components + self.y_components

    @property
    def all_fractional(self) -> bool:
        return all(c.kind == FRACTIONAL for c in self.components)


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

    def __len__(self) -> int:
        return self.x.size


def _standard_covariance(sigma_23: float = 0.9) -> CovarianceSpec:
    return CovarianceSpec(variances=(1.0, 1.0, 1.0, 1.0), covariances={(2, 3): sigma_23})


def model1() -> ModelSpec:
    """Preset 1: x = 0.2*F(0.4) + F(0.3), y = F(0.3) + 0.2*F(0.4).

    F(d) is a fractionally integrated stream; unit innovation variances,
    sigma_23 = 0.9.  Long-range cross-correlated: H_x = H_y = 0.9 while
    H_xy = 0.8, dominated by the correlated d=0.3 pair in slots (2, 3).
    """
    return ModelSpec(
        x_components=(fractional(0.4, 0.2, slot=1), fractional(0.3, 1.0, slot=2)),
        y_components=(fractional(0.3, 1.0, slot=3), fractional(0.4, 0.2, slot=4)),
        covariance=_standard_covariance(),
    )


def model2() -> ModelSpec:
    """Preset 2: x = ARFIMA(0.4) + AR1(0.8), y = AR1(0.8) + ARFIMA(0.4).

    Unit weights, unit variances, sigma_23 = 0.9.  Long-range correlated
    but only short-range cross-correlated: H_x = H_y = 0.9, H_xy = 0.5.
    """
    return ModelSpec(
        x_components=(fractional(0.4, 1.0, slot=1), ar1(0.8, 1.0, slot=2)),
        y_components=(ar1(0.8, 1.0, slot=3), fractional(0.4, 1.0, slot=4)),
        covariance=_standard_covariance(),
    )


def model3() -> ModelSpec:
    """Preset 3: x = ARFIMA(0.4) + white, y = white + ARFIMA(0.4).

    Unit weights, unit variances, sigma_23 = 0.9.  Long-range correlated
    and contemporaneously correlated, but not cross-correlated:
    rho_xy(0) = sigma_23/(sigma_x*sigma_y) and rho_xy(k) = 0 for k != 0.
    """
    return ModelSpec(
        x_components=(fractional(0.4, 1.0, slot=1), white(1.0, slot=2)),
        y_components=(white(1.0, slot=3), fractional(0.4, 1.0, slot=4)),
        covariance=_standard_covariance(),
    )


PRESETS = {"model1": model1, "model2": model2, "model3": model3}


def theoretical_exponents(
    model: ModelSpec, truncation: int = DEFAULT_EXPONENT_TRUNCATION
) -> ExponentReport:
    """Theoretical H_x, H_y, H_xy and process standard deviations.

    Component exponents are 0.5 + d for fractional components and 0.5 for
    ar1/white.  H_x (H_y) is the maximum over components with nonzero
    weight.  H_xy is the maximum of (H_i + H_j)/2 over cross pairs whose
    weights and innovation covariance are all nonzero, floored at 0.5.
    Standard deviations come from the truncated weight sums
    sigma_x^2 = sum_{i,j} w_i w_j sigma_ij sum_k a_k^(i) a_k^(j).
    """
    coeffs = {c.slot: c.ma_coefficients(truncation) for c in model.components}

    def side_variance(comps):
        var = 0.0
        for ci in comps:
            for cj in comps:
                s = model.covariance.sigma(ci.slot, cj.slot)
                if ci.weight == 0.0 or cj.weight == 0.0 or s == 0.0:
                    continue
                var += ci.weight * cj.weight * s * float(coeffs[ci.slot] @ coeffs[cj.slot])
        return var

    def side_hurst(comps):
        hs = [c.hurst for c in comps if c.weight != 0.0]
        return max(hs) if hs else 0.5

    H_x = side_hurst(model.x_components)
    H_y = side_hurst(model.y_components)

    best = None
    best_pair = None
    for ci in model.x_components:
        for cj in model.y_components:
            s = model.covariance.sigma(ci.slot, cj.slot)
            if ci.weight * cj.weight * s == 0.0:
                continue
            h = 0.5 * (ci.hurst + cj.hurst)
            if best is None or h > best:
                best = h
                best_pair = (ci.slot, cj.slot)
    H_xy = max(best, 0.5) if best is not None else 0.5

    return ExponentReport(
        H_x=H_x,
        H_y=H_y,
        H_xy=H_xy,
        sigma_x=math.sqrt(max(side_variance(model.x_components), 0.0)),
        sigma_y=math.sqrt(max(side_variance(model.y_components), 0.0)),
        dominating_pair=best_pair,
    )


def simulate(
    model: ModelSpec,
    T: int,
    seed: int,
    truncation: int | None = None,
    method: str = "auto",
) -> BivariateSeries:
    """Draw one realization of length T from the model.

    One innovation block of length T + M is sampled (M defaults to
    max(T, 10000)) and each component filters its stream through its
    truncated MA weights; the first M outputs are burn-in and discarded
    by construction of the causal filter.  Deterministic given
    (model, T, seed, M).
    """
    if T < 1:
        raise ValueError(f"series length T must be >= 1, got {T}")
    M = max(T, DEFAULT_EXPONENT_TRUNCATION) if truncation is None else int(truncation)
    if M < 0:
        raise ValueError(f"truncation must be >= 0, got {M}")
    block = sample(model.covariance, T + M, seed)

    def build(comps):
        out = np.zeros(T)
        for c in comps:
            if c.weight == 0.0:
                continue
            # white noise filters through its one tap: M zero taps would only
            # add work, and could switch causal_filter to its FFT path
            w = np.ones(1) if c.kind == WHITE else c.ma_coefficients(M)
            stream = block.streams[c.slot - 1]
            out += c.weight * causal_filter(stream[M + 1 - w.size :], w, method=method)
        return out

    return BivariateSeries(
        x=build(model.x_components),
        y=build(model.y_components),
        seed=seed,
        model=model,
        truncation=M,
    )


def _pair_lag_sums(ax: np.ndarray, ay: np.ndarray, max_lag: int, truncation: int) -> np.ndarray:
    """sum_{k=0..K} a^x_{k+i} a^y_k for i = -L..L (negative i shifts the y weights).

    ``ax`` and ``ay`` must have length K + L + 1; the shifted side keeps
    its full K + L + 1 coefficients while the unshifted side is cut at K,
    so every lag uses exactly K + 1 products.
    """
    K, L = truncation, max_lag
    # Positive lags: conv[m] = sum_j ax[j + m - K] * ay[j] over j = 0..K.
    pos = fft_convolve(ax, ay[: K + 1][::-1])[K : K + L + 1]
    neg = fft_convolve(ay, ax[: K + 1][::-1])[K + 1 : K + L + 1]
    return np.concatenate([neg[::-1], pos])


def theoretical_ccf(
    model: ModelSpec,
    max_lag: int = 1000,
    truncation: int = DEFAULT_CCF_TRUNCATION,
) -> np.ndarray:
    """Theoretical cross-correlation function at lags -L..L.

    For lag i >= 0 each cross pair contributes
    (w_i w_j sigma_ij / (sigma_x sigma_y)) * sum_{k=0..K} a_{k+i}^(x) a_k^(y);
    negative lags shift the y weights instead.  The normalizing standard
    deviations use the same truncation K, so all values lie in [-1, 1].
    The truncation tail is O(K^{d_i + d_j - 1}).
    """
    L = int(max_lag)
    K = int(truncation)
    if L < 0:
        raise ValueError(f"max_lag must be >= 0, got {L}")
    if K < L + 100:
        raise ValueError(f"truncation K = {K} too small: need K >= max_lag + 100 = {L + 100}")

    coeffs = {c.slot: c.ma_coefficients(K + L) for c in model.components}
    rep = theoretical_exponents(model, truncation=K)
    denom = rep.sigma_x * rep.sigma_y
    if denom == 0.0:
        raise ValueError("model has zero process variance; cross-correlations undefined")

    values = np.zeros(2 * L + 1)
    for ci in model.x_components:
        for cj in model.y_components:
            s = model.covariance.sigma(ci.slot, cj.slot)
            w = ci.weight * cj.weight * s
            if w == 0.0:
                continue
            values += (w / denom) * _pair_lag_sums(coeffs[ci.slot], coeffs[cj.slot], L, K)
    return values


def cross_spectrum(model: ModelSpec, freq) -> complex | np.ndarray:
    """Cross-power spectrum f_xy at angular frequency lambda in (0, pi].

    Closed form for all-fractional models:
    f_xy(l) = (1/2pi) sum_pairs w_i w_j sigma_ij
              (1 - e^{il})^{-d_i} (1 - e^{-il})^{-d_j}.
    Rejects lambda = 0 (pole for d_i + d_j > 0) and models with ar1 or
    white components, for which this closed form does not hold.
    """
    if not model.all_fractional:
        raise ValueError("cross_spectrum requires all components fractional")
    lam = np.asarray(freq, dtype=float)
    if np.any(lam <= 0.0) or np.any(lam > np.pi):
        raise ValueError("frequency must lie in (0, pi]")
    scalar = lam.ndim == 0
    lam = np.atleast_1d(lam)
    plus = 1.0 - np.exp(1j * lam)
    minus = 1.0 - np.exp(-1j * lam)
    out = np.zeros(lam.shape, dtype=complex)
    for ci in model.x_components:
        for cj in model.y_components:
            s = model.covariance.sigma(ci.slot, cj.slot)
            w = ci.weight * cj.weight * s
            if w == 0.0:
                continue
            out += w * plus ** (-ci.param) * minus ** (-cj.param)
    out /= 2.0 * np.pi
    return out[0] if scalar else out
