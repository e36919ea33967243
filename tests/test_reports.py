"""Lag scatter diagnostics and sample-versus-theory CCF comparison tables."""

import math
import warnings

import numpy as np
import pytest

from crossarfima.estimators import sample_ccf
from crossarfima.models import BivariateSeries, model1, model2, model3, simulate, theoretical_ccf
from crossarfima.reports import MAX_SCATTER_POINTS, ccf_comparison, lag_scatter

from protocol_expectations import expected_sample_ccf, protocol_covariances


def toy_series(x, y):
    # reports only need the arrays and the model handle
    return BivariateSeries(x=x, y=y, seed=0, model=model3(), truncation=0)


# ----------------------------------------------------------------------
# lag scatter
# ----------------------------------------------------------------------


def test_identical_series_scatter_is_the_diagonal():
    z = np.random.default_rng(0).standard_normal(400)
    sc = lag_scatter(toy_series(z, z), 0)
    assert sc.ls_slope == pytest.approx(1.0, abs=1e-12)
    assert sc.ls_intercept == pytest.approx(0.0, abs=1e-12)
    assert sc.n_pairs == 400
    assert np.array_equal(sc.pairs[:, 0], sc.pairs[:, 1])


def test_scatter_pair_count_tracks_the_lag():
    z = np.random.default_rng(1).standard_normal(300)
    w = np.random.default_rng(2).standard_normal(300)
    for lag in (0, 1, 7, -7, 298, 299, -299):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sc = lag_scatter(toy_series(z, w), lag)
        assert sc.lag == lag
        assert sc.n_pairs == 300 - abs(lag)
        # |lag| = T - 1 leaves one pair: no line, NaN fit, and no warning
        assert np.isnan(sc.ls_slope) == (abs(lag) == 299)
    # two pairs fix the line exactly, with a zero stderr
    assert lag_scatter(toy_series(z, w), 298).ls_stderr == 0.0


def test_scatter_alignment_matches_ccf_convention():
    # x repeats y three steps later, so the lag +3 cloud is the diagonal
    rng = np.random.default_rng(21)
    y = rng.standard_normal(2000)
    x = np.concatenate([rng.standard_normal(3), y[:-3]])
    s = toy_series(x, y)
    assert lag_scatter(s, 3).ls_slope == pytest.approx(1.0, abs=0.01)
    assert abs(lag_scatter(s, -3).ls_slope) < 0.1
    assert abs(lag_scatter(s, 0).ls_slope) < 0.1


def test_scatter_slope_is_ordinary_least_squares():
    # regression of x on y, cross-checked against polyfit
    rng = np.random.default_rng(9)
    y = rng.standard_normal(500)
    x = 0.7 * y + rng.standard_normal(500)
    sc = lag_scatter(toy_series(x, y), 2)
    xs, ys = x[2:], y[:-2]
    coef = np.polyfit(ys, xs, 1)
    assert sc.ls_slope == pytest.approx(coef[0], abs=1e-10)
    assert sc.ls_intercept == pytest.approx(coef[1], abs=1e-10)


def test_scatter_downsamples_large_clouds():
    z = np.random.default_rng(3).standard_normal(10_000)
    w = np.random.default_rng(4).standard_normal(10_000)
    sc = lag_scatter(toy_series(z, w), 20)
    assert sc.n_pairs == 9980  # full pair count is reported
    assert sc.pairs.shape[0] <= MAX_SCATTER_POINTS
    assert sc.pairs.shape[0] == math.ceil(9980 / 2)  # stride 2
    # the retained points are an every-other-pair subsample, not a reshuffle
    assert np.array_equal(sc.pairs[:3, 0], z[20:25:2])


def test_scatter_rejects_out_of_range_lag():
    z = np.zeros(50)
    with pytest.raises(ValueError, match="< T"):
        lag_scatter(toy_series(z, z), 50)


def test_scatter_separates_real_from_spurious_dependence():
    """Preset 1 keeps genuine dependence out to long lags, preset 3 does not.

    At lag 20 the preset-1 slope stays several standard errors above
    zero; at lag 5 the preset-3 slope is statistically indistinguishable
    from zero while its lag-0 slope is strongly significant.
    """
    sc1 = lag_scatter(simulate(model1(), T=10_000, seed=42), 20)
    assert sc1.ls_slope > 3.0 * sc1.ls_stderr

    s3 = simulate(model3(), T=10_000, seed=43)
    off = lag_scatter(s3, 5)
    assert abs(off.ls_slope) < 3.0 * off.ls_stderr
    on = lag_scatter(s3, 0)
    assert on.ls_slope > 10.0 * on.ls_stderr


# ----------------------------------------------------------------------
# CCF comparison tables
# ----------------------------------------------------------------------


def test_comparison_table_is_internally_consistent():
    s = simulate(model1(), T=10_000, seed=42)
    cmp = ccf_comparison(sample_ccf(s.x, s.y, 30), s.model)
    assert np.array_equal(cmp.lags, np.arange(-30, 31))
    assert cmp.T == 10_000
    assert np.array_equal(cmp.abs_diff, np.abs(cmp.sample - cmp.theory))
    assert np.array_equal(cmp.flagged, cmp.abs_diff > cmp.threshold)
    assert cmp.threshold == 3.0 / math.sqrt(10_000)
    assert np.array_equal(cmp.theory, theoretical_ccf(model1(), max_lag=30))
    rows = list(cmp.rows())
    assert len(rows) == 61
    assert rows[30][0] == 0 and rows[30][1] == pytest.approx(cmp.sample[30])


def test_comparison_model2_tails():
    """Beyond lag 30 the preset-2 theory is tiny; the sample is only noise-tiny.

    The theoretical tail is below 2e-2 by a wide margin (the AR1 core
    decays geometrically and the d = 0.4 shells are uncoupled).  The
    sample tail carries Bartlett noise inflated by the marginal long
    memory, so it only obeys a looser 0.12 envelope at this length.
    """
    s = simulate(model2(), T=10_000, seed=42)
    cmp = ccf_comparison(sample_ccf(s.x, s.y, 100), s.model)
    tail = np.abs(cmp.lags) > 30
    assert np.max(np.abs(cmp.theory[tail])) < 0.02
    assert np.max(np.abs(cmp.sample[tail])) < 0.12


def test_comparison_model3_spike_dominates_noise():
    """The lag-0 spike stands an order of magnitude above the off-lag noise.

    No within-band assertion off lag 0: the marginal long memory leaves a
    common demeaning offset in every off-lag estimate, so the plain
    3/sqrt(T) band is regularly exceeded even though the estimates are
    small in absolute terms.  At lag 0 the theory is the exact limit,
    while the simulation cuts its weights at M: the band there is widened
    by the gap between the two, the protocol expectation of rho(0) less
    the limit (+0.019 at M = T = 1e5).
    """
    s = simulate(model3(), T=100_000, seed=7)
    cmp = ccf_comparison(sample_ccf(s.x, s.y, 50), s.model)
    off = cmp.lags != 0
    assert np.all(cmp.theory[off] == 0.0)
    assert np.max(np.abs(cmp.sample[off])) < 0.05
    assert cmp.sample[50] > 0.25
    cov = protocol_covariances(s.model, len(s), s.truncation)
    bias = expected_sample_ccf(cov, len(s), [0])[0] - cmp.theory[50]
    assert 0.0 < bias < 0.03
    assert cmp.abs_diff[50] < cmp.threshold + bias
