"""Diagnostic artifacts in data form: lag scatters and CCF comparison tables.

These functions produce the numbers behind the usual plots (lagged
scatter clouds with least-squares lines, sample versus theoretical
cross-correlation functions) without rendering anything.  The CLI
writes one of them: ``experiment``'s ``ccf_mean.csv`` is the comparison
of the replication-mean sample CCF.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimators import CcfSeries, ols
from .models import BivariateSeries, ModelSpec, theoretical_ccf

MAX_SCATTER_POINTS = 5_000


@dataclass(frozen=True)
class LagScatter:
    """Aligned (x_{t+lag}, y_t) point cloud and its least-squares line.

    The fit regresses x_{t+lag} on y_t over all n_pairs = T - |lag|
    aligned points.  ``pairs`` is capped at MAX_SCATTER_POINTS by
    deterministic stride subsampling (plotting payload only; the fit
    always uses every point).
    """

    lag: int
    pairs: np.ndarray
    n_pairs: int
    ls_slope: float
    ls_intercept: float
    ls_stderr: float

    def __post_init__(self):
        pairs = np.asarray(self.pairs, dtype=float)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ValueError("pairs must be an (n, 2) array")
        pairs.setflags(write=False)
        object.__setattr__(self, "pairs", pairs)


def lag_scatter(series: BivariateSeries, lag: int) -> LagScatter:
    """Aligned point set at one lag with its OLS slope and intercept.

    Positive lag pairs x_{t+lag} with y_t, negative lag shifts y, the
    same alignment sample_ccf uses.  |lag| must be < T.
    """
    lag = int(lag)
    T = len(series)
    if abs(lag) >= T:
        raise ValueError(f"|lag| = {abs(lag)} must be < T = {T}")
    k = abs(lag)
    if lag >= 0:
        xs, ys = series.x[k:], series.y[: T - k]
    else:
        xs, ys = series.x[: T - k], series.y[k:]
    slope, intercept, stderr = ols(ys, xs)
    stride = max(1, math.ceil(xs.size / MAX_SCATTER_POINTS))
    pairs = np.column_stack([xs[::stride], ys[::stride]])
    return LagScatter(
        lag=lag,
        pairs=pairs,
        n_pairs=xs.size,
        ls_slope=slope,
        ls_intercept=intercept,
        ls_stderr=stderr,
    )


@dataclass(frozen=True)
class CcfComparison:
    """Sample versus theoretical CCF at lags -L..L with disagreement flags.

    ``flagged`` marks lags where |sample - theory| exceeds the
    Bartlett-style band 3/sqrt(T).
    """

    lags: np.ndarray
    sample: np.ndarray
    theory: np.ndarray
    abs_diff: np.ndarray
    flagged: np.ndarray
    T: int
    threshold: float

    def rows(self):
        """Iterate (lag, sample, theory, abs_diff, flagged) tuples."""
        for i in range(self.lags.size):
            yield (
                int(self.lags[i]),
                float(self.sample[i]),
                float(self.theory[i]),
                float(self.abs_diff[i]),
                bool(self.flagged[i]),
            )


def ccf_comparison(sample: CcfSeries, model: ModelSpec) -> CcfComparison:
    """Join a sample CCF, of one realization or a mean over several of
    length sample.T, with the model's theoretical CCF at the same lags."""
    theory = theoretical_ccf(model, max_lag=sample.max_lag)
    diff = np.abs(sample.values - theory)
    threshold = 3.0 / math.sqrt(sample.T)
    return CcfComparison(
        lags=sample.lags,
        sample=sample.values,
        theory=theory,
        abs_diff=diff,
        flagged=diff > threshold,
        T=sample.T,
        threshold=threshold,
    )
