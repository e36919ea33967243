"""Correlated bivariate long-memory processes: simulation and estimation.

Simulate pairs of series built from fractionally integrated, AR(1) or
white-noise components with correlated innovations, compute their
theoretical cross-correlation structure, and estimate univariate and
bivariate Hurst exponents with DFA, DCCA and HXA.
"""

from .config import ExperimentConfig, default_config, parse_config, serialize_config
from .errors import (
    ConfigError,
    CrossArfimaError,
    DegenerateSeriesError,
    InsufficientDataError,
    NotPositiveSemiDefiniteError,
)
from .estimators import (
    FluctuationSeries,
    ScalingFit,
    dcca,
    dfa,
    fit_hurst,
    hxa,
    sample_ccf,
)
from .innovations import CovarianceSpec, cholesky_factor, sample
from .models import (
    BivariateSeries,
    ComponentSpec,
    ExponentReport,
    ModelSpec,
    ar1,
    ar1_weights,
    cross_spectrum,
    fractional,
    ma_weights,
    model1,
    model2,
    model3,
    simulate,
    theoretical_ccf,
    theoretical_exponents,
    white,
)

__version__ = "0.1.0"

__all__ = [
    "ExperimentConfig",
    "default_config",
    "parse_config",
    "serialize_config",
    "CrossArfimaError",
    "ConfigError",
    "DegenerateSeriesError",
    "InsufficientDataError",
    "NotPositiveSemiDefiniteError",
    "FluctuationSeries",
    "ScalingFit",
    "dcca",
    "dfa",
    "fit_hurst",
    "hxa",
    "sample_ccf",
    "ar1_weights",
    "ma_weights",
    "CovarianceSpec",
    "cholesky_factor",
    "sample",
    "BivariateSeries",
    "ComponentSpec",
    "ExponentReport",
    "ModelSpec",
    "ar1",
    "cross_spectrum",
    "fractional",
    "model1",
    "model2",
    "model3",
    "simulate",
    "theoretical_ccf",
    "theoretical_exponents",
    "white",
    "__version__",
]
