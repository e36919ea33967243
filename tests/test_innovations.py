"""Covariance specs, the tolerant Cholesky factor, and stream sampling."""

import pickle

import numpy as np
import pytest

from crossarfima import innovations
from crossarfima.errors import NotPositiveSemiDefiniteError
from crossarfima.innovations import CovarianceSpec, cholesky_factor, sample


def random_psd_spec(rng):
    # Sigma = A A^T is PSD by construction; read the spec back off it
    A = rng.standard_normal((4, 4))
    sigma = A @ A.T + 0.1 * np.eye(4)
    variances = tuple(sigma[i, i] for i in range(4))
    covariances = {(i + 1, j + 1): sigma[i, j] for i in range(4) for j in range(i + 1, 4)}
    return CovarianceSpec(variances=variances, covariances=covariances), sigma


# ----------------------------------------------------------------------
# spec validation and assembly
# ----------------------------------------------------------------------


def test_default_spec_is_identity():
    spec = CovarianceSpec()
    assert np.array_equal(spec.matrix(), np.eye(4))


def test_matrix_is_symmetric_with_requested_entries():
    spec = CovarianceSpec(variances=(1.0, 2.0, 3.0, 4.0), covariances={(2, 3): 0.9, (1, 4): -0.5})
    m = spec.matrix()
    assert np.array_equal(m, m.T)
    assert m[1, 2] == 0.9 and m[0, 3] == -0.5
    assert np.array_equal(np.diag(m), [1.0, 2.0, 3.0, 4.0])


def test_sigma_lookup_is_order_insensitive():
    spec = CovarianceSpec(covariances={(2, 3): 0.9})
    assert spec.sigma(2, 3) == 0.9
    assert spec.sigma(3, 2) == 0.9
    assert spec.sigma(1, 4) == 0.0
    assert spec.sigma(2, 2) == 1.0


def test_zero_covariances_are_dropped():
    spec = CovarianceSpec(covariances={(1, 2): 0.0, (2, 3): 0.5})
    assert (1, 2) not in spec.covariances
    assert spec.covariances == {(2, 3): 0.5}


def test_spec_rejects_bad_variances():
    with pytest.raises(ValueError):
        CovarianceSpec(variances=(1.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        CovarianceSpec(variances=(1.0, 0.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        CovarianceSpec(variances=(1.0, -2.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        CovarianceSpec(variances=(1.0, np.nan, 1.0, 1.0))


def test_spec_rejects_bad_covariance_keys():
    for key in [(1, 1), (2, 1), (0, 3), (3, 5)]:
        with pytest.raises(ValueError):
            CovarianceSpec(covariances={key: 0.1})
    with pytest.raises(ValueError):
        CovarianceSpec(covariances={(2, 3): np.inf})


# ----------------------------------------------------------------------
# cholesky factor
# ----------------------------------------------------------------------


def test_cholesky_hand_case():
    """Unit variances with sigma_23 = 0.9: the factor is known in closed form.

    Row 3 must be (0, 0.9, sqrt(1 - 0.81), 0); every other row is a
    standard basis vector.
    """
    spec = CovarianceSpec(covariances={(2, 3): 0.9})
    L = cholesky_factor(spec)
    expected = np.eye(4)
    expected[2, 1] = 0.9
    expected[2, 2] = np.sqrt(1.0 - 0.81)
    assert np.allclose(L, expected, rtol=0, atol=1e-12)


def test_cholesky_rejects_inadmissible_correlation():
    # |sigma_23| > sigma_2 sigma_3 = 1 cannot come from any joint distribution
    with pytest.raises(NotPositiveSemiDefiniteError):
        CovarianceSpec(covariances={(2, 3): 1.1})


def test_cholesky_rejects_jointly_inadmissible_pairs():
    # each pairwise correlation is fine alone, together the matrix is indefinite
    with pytest.raises(NotPositiveSemiDefiniteError):
        CovarianceSpec(covariances={(1, 2): 0.9, (2, 3): 0.9, (1, 3): -0.9})


def test_cholesky_accepts_singular_psd():
    # perfect correlation is on the PSD boundary and must still factor
    spec = CovarianceSpec(covariances={(1, 2): 1.0})
    L = cholesky_factor(spec)
    assert np.allclose(L @ L.T, spec.matrix(), rtol=0, atol=1e-12)


def test_cholesky_reproduces_random_psd_matrices():
    rng = np.random.default_rng(17)
    for _ in range(25):
        spec, sigma = random_psd_spec(rng)
        L = cholesky_factor(spec)
        assert np.all(np.triu(L, 1) == 0.0)
        assert np.allclose(L @ L.T, sigma, rtol=0, atol=1e-10)


# ----------------------------------------------------------------------
# sampling
# ----------------------------------------------------------------------


def test_sample_shape_and_determinism():
    spec = CovarianceSpec(covariances={(2, 3): 0.9})
    a = sample(spec, 500, seed=42)
    b = sample(spec, 500, seed=42)
    c = sample(spec, 500, seed=43)
    assert a.shape == (4, 500)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_spec_keeps_its_factor_through_a_pickle():
    # the process pool pickles the spec: the copy must equal it and draw the same streams
    spec = CovarianceSpec(variances=(1.0, 4.0, 1.0, 1.0), covariances={(2, 3): 0.9, (1, 4): -0.5})
    assert np.array_equal(spec.factor, cholesky_factor(spec))
    again = pickle.loads(pickle.dumps(spec))
    assert again == spec
    assert np.array_equal(again.factor, spec.factor)
    assert np.array_equal(sample(again, 300, seed=5), sample(spec, 300, seed=5))
    assert not again.factor.flags.writeable


def test_sample_is_the_factor_times_standard_normals_to_the_bit():
    # sample mixes its normals in place by column blocks; every length, a
    # lone column past the last full block included, gives factor @ z's bits
    spec = CovarianceSpec(variances=(1.0, 4.0, 1.0, 2.0), covariances={(1, 2): 0.3, (2, 3): 0.9, (1, 4): -0.5})
    cols = innovations._MIX_COLUMNS
    for length in (1, 2, 3, cols - 1, cols + 1, cols + 2, 2 * cols + 1, 3 * cols + 777):
        z = np.random.default_rng(7).standard_normal((4, length))
        assert np.array_equal(sample(spec, length, seed=7), spec.factor @ z), length


def test_sample_streams_are_read_only():
    streams = sample(CovarianceSpec(), 10, seed=0)
    with pytest.raises(ValueError):
        streams[0, 0] = 1.0


def test_sample_rejects_nonpositive_length():
    with pytest.raises(ValueError):
        sample(CovarianceSpec(), 0, seed=1)


def test_sample_moments():
    """Empirical first and second moments of a long draw track the spec.

    With L = 1e6 the standard error of a covariance entry is about
    sqrt(2)/1000, so 0.01 bands are seven-sigma safe.
    """
    spec = CovarianceSpec(variances=(1.0, 2.0, 1.0, 1.0), covariances={(2, 3): 0.9, (1, 4): -0.4})
    z = sample(spec, 1_000_000, seed=123)
    assert np.max(np.abs(z.mean(axis=1))) < 0.01
    emp = (z @ z.T) / z.shape[1]
    assert np.max(np.abs(emp - spec.matrix())) < 0.01


def test_sample_has_no_serial_correlation():
    # contemporaneous-only coupling: lag-1 cross moments vanish
    spec = CovarianceSpec(covariances={(2, 3): 0.9})
    z = sample(spec, 1_000_000, seed=7)
    lag1 = (z[:, 1:] @ z[:, :-1].T) / (z.shape[1] - 1)
    assert np.max(np.abs(lag1)) < 0.01
