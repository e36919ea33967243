"""Correlated Gaussian innovation streams.

Four innovation streams drive one bivariate model.  They are jointly
Gaussian with zero mean, correlated only contemporaneously (the 4-vector
at each time step has covariance Sigma; different time steps are
independent), and reproducible from an integer seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .errors import NotPositiveSemiDefiniteError

N_STREAMS = 4

PAIRS = tuple((i, j) for i in range(1, 5) for j in range(i + 1, 5))
# columns per in-place mix in sample: a 256 KiB block of the four streams
_MIX_COLUMNS = 8192


@dataclass(frozen=True)
class CovarianceSpec:
    """Contemporaneous covariance of the four innovation streams.

    ``variances`` are the diagonal entries sigma^2_1..sigma^2_4;
    ``covariances`` maps 1-based stream pairs (i, j) with i < j to sigma_ij.
    Missing pairs are zero.  A matrix that is not positive semi-definite
    raises NotPositiveSemiDefiniteError (see cholesky_factor); ``factor``
    is the lower-triangular factor, computed once at construction.
    """

    variances: tuple[float, float, float, float] = (1.0, 1.0, 1.0, 1.0)
    covariances: Mapping[tuple[int, int], float] = field(default_factory=dict)
    factor: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        v = tuple(float(x) for x in self.variances)
        if len(v) != N_STREAMS:
            raise ValueError(f"need {N_STREAMS} variances, got {len(v)}")
        if not all(np.isfinite(v)):
            raise ValueError("variances must be finite")
        if any(x <= 0 for x in v):
            raise ValueError("variances must be positive")
        cov = {}
        for (i, j), s in dict(self.covariances).items():
            if (i, j) not in PAIRS:
                raise ValueError(f"covariance key must be a pair (i, j) with 1 <= i < j <= 4, got {(i, j)}")
            s = float(s)
            if not np.isfinite(s):
                raise ValueError(f"covariance sigma_{i}{j} must be finite")
            if s != 0.0:
                cov[(i, j)] = s
        object.__setattr__(self, "variances", v)
        object.__setattr__(self, "covariances", cov)
        factor = cholesky_factor(self)
        factor.setflags(write=False)
        object.__setattr__(self, "factor", factor)

    def __reduce__(self):
        # rebuild through __init__, so that an unpickled factor is read-only again
        return CovarianceSpec, (self.variances, self.covariances)

    def matrix(self) -> np.ndarray:
        """The assembled symmetric 4x4 covariance matrix."""
        m = np.diag(np.asarray(self.variances, dtype=float))
        for (i, j), s in self.covariances.items():
            m[i - 1, j - 1] = m[j - 1, i - 1] = s
        return m

    def sigma(self, i: int, j: int) -> float:
        """sigma_ij for 1-based streams (order-insensitive; i = j gives the variance)."""
        if i == j:
            return self.variances[i - 1]
        key = (i, j) if i < j else (j, i)
        return self.covariances.get(key, 0.0)


def cholesky_factor(spec: CovarianceSpec, tol: float = 1e-12) -> np.ndarray:
    """Validate a covariance spec and return its lower-triangular factor.

    Runs an outer-product Cholesky factorization that tolerates zero
    pivots, so exactly singular but positive semi-definite matrices are
    accepted.  Raises :class:`NotPositiveSemiDefiniteError` for an
    inadmissible sigma_ij combination (e.g. |sigma_23| > sigma_2*sigma_3).
    The result satisfies L @ L.T == Sigma to within 1e-12.
    """
    sigma = spec.matrix()
    scale = max(float(np.max(np.abs(sigma))), 1.0)
    n = sigma.shape[0]
    L = np.zeros_like(sigma)
    for k in range(n):
        pivot = sigma[k, k] - L[k, :k] @ L[k, :k]
        if pivot < -tol * scale:
            raise NotPositiveSemiDefiniteError(
                f"covariance matrix is not positive semi-definite "
                f"(negative pivot {pivot:.3e} at index {k + 1})"
            )
        if pivot <= tol * scale:
            # Singular direction: the remaining column must vanish too.
            resid = sigma[k + 1 :, k] - L[k + 1 :, :k] @ L[k, :k]
            if np.any(np.abs(resid) > np.sqrt(tol) * scale):
                raise NotPositiveSemiDefiniteError(
                    f"covariance matrix is not positive semi-definite "
                    f"(rank deficiency at index {k + 1} with nonzero residual column)"
                )
            continue
        L[k, k] = np.sqrt(pivot)
        L[k + 1 :, k] = (sigma[k + 1 :, k] - L[k + 1 :, :k] @ L[k, :k]) / L[k, k]
    if not np.allclose(L @ L.T, sigma, atol=1e-12 * scale, rtol=0.0):
        raise NotPositiveSemiDefiniteError("factorization failed to reproduce the covariance")
    return L


def sample(spec: CovarianceSpec, length: int, seed: int) -> np.ndarray:
    """Draw four jointly Gaussian innovation streams of the given length.

    Returns a read-only (4, length) array whose row i - 1 is stream i.
    At each time step the 4-vector of innovations has mean zero and
    covariance ``spec.matrix()``; different time steps are independent.
    The draw is deterministic given ``seed`` (NumPy PCG64 generator), and
    distinct seeds may be sampled concurrently.
    """
    if length < 1:
        raise ValueError(f"length must be positive, got {length}")
    streams = np.empty((N_STREAMS, length))
    np.random.default_rng(seed).standard_normal(out=streams)
    # mixed in place, so that only one block is held twice.  Even blocks of
    # at most _MIX_COLUMNS columns give the bits of factor @ streams; a lone
    # trailing column would not, as numpy takes its product by gemv, not gemm
    for block in np.array_split(streams, -(-length // _MIX_COLUMNS), axis=1):
        np.matmul(spec.factor, block, out=block)
    streams.setflags(write=False)
    return streams
