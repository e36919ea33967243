"""Sample CCF, DFA/DCCA/HXA fluctuation functions, and power-law fitting."""

import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.stats import linregress

from crossarfima import estimators
from crossarfima.config import default_config
from crossarfima.errors import DegenerateSeriesError, InsufficientDataError
from crossarfima.estimators import (
    FluctuationSeries,
    dcca,
    dfa,
    fit_hurst,
    fluctuations,
    hxa,
    ols,
    sample_ccf,
    stacked_fluctuations,
)
from crossarfima.models import PRESETS, ma_weights, simulate


def brute_dcca(x, y, scales, order):
    """Reference DCCA: per-box polyfit, no shared-QR shortcut."""
    xc = np.asarray(x, float) - np.mean(x)
    yc = np.asarray(y, float) - np.mean(y)
    X, Y = np.cumsum(xc), np.cumsum(yc)
    T = len(xc)
    out = []
    for s in scales:
        t = np.arange(s, dtype=float)
        prods = []
        for b in range(T // s):
            xb = X[b * s : (b + 1) * s]
            yb = Y[b * s : (b + 1) * s]
            rx = xb - np.polyval(np.polyfit(t, xb, order), t)
            ry = yb - np.polyval(np.polyfit(t, yb, order), t)
            prods.append(rx * ry)
        out.append(float(np.mean(np.concatenate(prods))))
    return np.array(out)


def _longdouble_basis(s, order):
    """Orthonormal in-box polynomials in long double, Gram-Schmidt twice."""
    t = np.arange(s, dtype=np.longdouble) - np.longdouble(s - 1) / 2
    Q = np.empty((s, order + 1), dtype=np.longdouble)
    for k in range(order + 1):
        v = t**k
        for _ in range(2):
            for j in range(k):
                v = v - (Q[:, j] @ v) * Q[:, j]
        Q[:, k] = v / np.sqrt(v @ v)
    return Q


def longdouble_dcca(x, y, scales, order):
    """F^2_xy, F^2_xx and F^2_yy from each box's residuals, all in long double."""
    x = np.asarray(x, np.longdouble)
    y = np.asarray(y, np.longdouble)
    X, Y = np.cumsum(x - x.mean()), np.cumsum(y - y.mean())
    T = x.size
    out = np.empty((3, len(scales)), dtype=np.longdouble)
    for i, s in enumerate(scales):
        n = T // s
        Q = _longdouble_basis(s, order)
        bx = X[: n * s].reshape(n, s)
        by = Y[: n * s].reshape(n, s)
        rx = bx - (bx @ Q) @ Q.T
        ry = by - (by @ Q) @ Q.T
        out[:, i] = np.sum(rx * ry), np.sum(rx * rx), np.sum(ry * ry)
        out[:, i] /= n * s
    return out


def brute_hxa(x, y, taus):
    xc = np.asarray(x, float) - np.mean(x)
    yc = np.asarray(y, float) - np.mean(y)
    X, Y = np.cumsum(xc), np.cumsum(yc)
    T = len(xc)
    out = []
    for tau in taus:
        acc = 0.0
        for t in range(T - tau):
            acc += (X[t + tau] - X[t]) * (Y[t + tau] - Y[t])
        out.append(acc / (T - tau))
    return np.array(out)


def arfima_draw(d, T, seed):
    w = ma_weights(d, T)
    z = np.random.default_rng(seed).standard_normal(2 * T)
    return np.convolve(z, w, "valid")


# ----------------------------------------------------------------------
# sample CCF
# ----------------------------------------------------------------------


def test_sample_ccf_hand_case():
    # x = y = 1..4: rho(0) = 1 and rho(+-1) = 1.25/3.75 = 1/3 by hand
    ccf = sample_ccf([1, 2, 3, 4], [1, 2, 3, 4], max_lag=1)
    # one float per lag -1, 0, 1
    assert ccf.dtype == float and ccf.shape == (3,)
    assert np.allclose(ccf, [1 / 3, 1.0, 1 / 3], rtol=0, atol=1e-15)


def test_sample_ccf_hand_case_reversed():
    # y = 5 - x flips every sign: (-1/3, -1, -1/3)
    ccf = sample_ccf([1, 2, 3, 4], [4, 3, 2, 1], max_lag=1)
    assert np.allclose(ccf, [-1 / 3, -1.0, -1 / 3], rtol=0, atol=1e-15)


def test_self_ccf_is_one_at_lag_zero():
    x = np.random.default_rng(0).standard_normal(500)
    ccf = sample_ccf(x, x, max_lag=5)
    assert ccf[5] == pytest.approx(1.0, abs=1e-14)
    assert np.all(np.abs(ccf) <= 1.0 + 1e-12)


def test_ccf_lag_convention_positive_lag_leads_x():
    """rho(k) pairs x_{t+k} with y_t, so a delayed copy peaks at +delay.

    x reproduces y three steps later; the mass must land at lag +3,
    not -3.
    """
    rng = np.random.default_rng(21)
    y = rng.standard_normal(5000)
    x = np.concatenate([rng.standard_normal(3), y[:-3]])
    L = 10
    ccf = sample_ccf(x, y, max_lag=L)
    assert ccf[L + 3] > 0.99
    others = [ccf[L + k] for k in range(-L, L + 1) if k != 3]
    assert np.max(np.abs(others)) < 0.1


def test_ccf_white_noise_within_bartlett_band():
    # independent white pairs: every lag inside 5/sqrt(T), ten seeds
    T = 10_000
    for seed in range(10):
        rng = np.random.default_rng(seed)
        ccf = sample_ccf(rng.standard_normal(T), rng.standard_normal(T), max_lag=20)
        assert np.max(np.abs(ccf)) < 5.0 / np.sqrt(T)


def test_ccf_invariant_under_positive_affine_maps():
    rng = np.random.default_rng(4)
    x = rng.standard_normal(800)
    y = rng.standard_normal(800)
    a = sample_ccf(x, y, 10)
    b = sample_ccf(3.0 * x + 7.0, 0.5 * y - 2.0, 10)
    assert np.allclose(a, b, rtol=0, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(T=st.integers(3, 400), lag_frac=st.floats(0, 1), seed=st.integers(0, 2**32 - 1),
       mix=st.floats(-1, 1), scale=st.floats(1e-3, 1e3))
def test_ccf_swapping_the_series_mirrors_the_lags(T, lag_frac, seed, mix, scale):
    # rho_xy(k) = rho_yx(-k); the denominators multiply in another order,
    # so the two agree to rounding, not bit for bit
    L = int(lag_frac * (T - 1) / 2)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(T)
    y = scale * (mix * x + rng.standard_normal(T)) + 5.0
    xy = sample_ccf(x, y, L)
    yx = sample_ccf(y, x, L)
    np.testing.assert_allclose(xy, yx[::-1], rtol=1e-15, atol=0)


def test_ccf_preconditions():
    x = np.arange(10.0)
    with pytest.raises(ValueError, match="max_lag"):
        sample_ccf(x, x, -1)
    with pytest.raises(ValueError, match="equal length"):
        sample_ccf(x, x[:-1], 1)
    with pytest.raises(ValueError, match="T > 2"):
        sample_ccf(x, x, 5)  # needs T > 2L = 10
    with pytest.raises(DegenerateSeriesError):
        sample_ccf(np.ones(50), x[:5].repeat(10), 2)
    with pytest.raises(ValueError, match="finite"):
        sample_ccf([1.0, np.nan, 2.0, 0.0, 1.0], np.arange(5.0), 1)


# ----------------------------------------------------------------------
# DCCA / DFA
# ----------------------------------------------------------------------


@pytest.mark.parametrize("order", [0, 1, 2])
def test_dcca_matches_per_box_polyfit(order):
    # T = 60 toy series against the O(boxes) reference, every order
    rng = np.random.default_rng(33)
    x = np.cumsum(rng.standard_normal(60))
    y = np.cumsum(rng.standard_normal(60)) + 0.4 * x
    got = dcca(x, y, s_min=5, s_max=20, step=5, detrend_order=order)
    assert np.array_equal(got.scales, [5, 10, 15, 20])
    ref = brute_dcca(x, y, [5, 10, 15, 20], order)
    assert np.allclose(got.values, ref, rtol=1e-9, atol=1e-12)


def test_dcca_incomplete_tail_boxes_are_dropped():
    # T = 64, s = 10: only 6 boxes enter, the trailing 4 points do not
    rng = np.random.default_rng(8)
    x = rng.standard_normal(64)
    y = rng.standard_normal(64)
    got = dcca(x, y, s_min=10, s_max=10, step=1)
    ref = brute_dcca(x, y, [10], 1)
    assert got.values[0] == pytest.approx(ref[0], rel=1e-10)


def test_fluctuation_series_stays_read_only_through_a_pickle():
    # the process pool pickles results; the copy must stay frozen like the original
    f = dfa(np.random.default_rng(3).standard_normal(500), s_min=10, s_max=50, step=10)
    again = pickle.loads(pickle.dumps(f))
    assert np.array_equal(again.scales, f.scales) and np.array_equal(again.values, f.values)
    assert again.method == f.method
    assert not again.scales.flags.writeable and not again.values.flags.writeable


def test_dfa_equals_self_dcca_exactly():
    """dfa(z) and dcca(z, z) agree to the last bit on varied inputs."""
    rng = np.random.default_rng(99)
    cases = []
    for i in range(8):
        cases.append(rng.standard_normal(200 + 40 * i))
        cases.append(np.cumsum(rng.standard_normal(300)))
    cases.append(np.sin(np.arange(400) / 7.0) + rng.standard_normal(400))
    cases.append(rng.standard_normal(256) * 1e6)
    cases.append(rng.standard_normal(256) * 1e-6)
    cases.append(np.arange(300.0) + rng.standard_normal(300))
    assert len(cases) == 20
    for z in cases:
        a = dfa(z, s_min=4, s_max=40, step=4)
        b = dcca(z, z, s_min=4, s_max=40, step=4)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.scales, b.scales)
        assert a.method == "dfa" and b.method == "dcca"


@pytest.mark.parametrize("order", [0, 1, 2])
@pytest.mark.parametrize(
    "T, dfa_window, dcca_window",
    [
        (10_000, {}, {}),
        # the defaults at T = 100: DFA's scales 10-40 are not inside DCCA's 10-20
        (100, {}, {}),
        (3000, dict(s_min=7, s_max=300, step=7), dict(s_min=12, s_max=600, step=25)),
    ],
    ids=["defaults-T10000", "defaults-T100", "own-windows"],
)
def test_one_pass_equals_separate_dfa_and_dcca_calls(T, dfa_window, dcca_window, order):
    # the pass runs the union of both windows' scales, and keeps each sum at its own
    cfg = default_config(t=T)
    wd = {**cfg.window("dfa"), **dfa_window, "detrend_order": order}
    wc = {**cfg.window("dcca"), **dcca_window, "detrend_order": order}
    s = simulate(PRESETS["model1"](), T, seed=42)
    got = fluctuations(s.x, s.y, dfa=wd, dcca=wc)
    for key, want in (("x", dfa(s.x, **wd)), ("y", dfa(s.y, **wd)), ("xy", dcca(s.x, s.y, **wc))):
        assert got[key].method == want.method
        assert np.array_equal(got[key].scales, want.scales)
        assert np.array_equal(got[key].values, want.values), key
    if T == 100:
        assert got["x"].scales.tolist() == [10, 20, 30, 40] and got["xy"].scales.tolist() == [10, 20]


def test_a_failed_series_fails_only_the_keys_that_use_it():
    x, y = np.random.default_rng(5).standard_normal((2, 300))
    w = dict(s_min=10, s_max=60, step=10)
    wh, wc = dict(tau_min=1, tau_max=20), dict(max_lag=5)
    for bad, good in (("x", "y"), ("y", "x")):
        pair = {"x": x.copy(), "y": y.copy()}
        pair[bad][7] = np.nan
        got = fluctuations(pair["x"], pair["y"], dfa=w, dcca=w, hxa=wh, ccf=wc)
        assert np.array_equal(got[good].values, dfa(pair[good], **w).values)
        for key in (bad, "xy", "hxa", "ccf"):
            with pytest.raises(ValueError, match=f"^{bad} contains non-finite values$"):
                got[key]
    # a zero-variance series fails only the CCF, by the error sample_ccf raises
    got = fluctuations(np.ones(300), y, dfa=w, dcca=w, hxa=wh, ccf=wc)
    assert np.array_equal(got["y"].values, dfa(y, **w).values)
    assert np.array_equal(got["hxa"].values, hxa(np.ones(300), y, **wh).values)
    assert not np.any(got["xy"].values)
    with pytest.raises(DegenerateSeriesError, match="^zero-variance input, cross-correlation undefined$"):
        got["ccf"]
    # each key holds what its own estimator gives
    got = fluctuations(x, y, dfa=w, dcca=w, hxa=wh, ccf=wc)
    assert np.array_equal(got["hxa"].values, hxa(x, y, **wh).values) and got["hxa"].method == "hxa"
    assert np.array_equal(got["ccf"], sample_ccf(x, y, **wc))
    # the result holds only the keys its windows ask for
    assert set(fluctuations(x, y, dfa=w)) == {"x", "y"}
    assert set(fluctuations(x, y, dcca=w)) == {"xy"}
    assert set(fluctuations(x, y, hxa=wh, ccf=wc)) == {"hxa", "ccf"}
    assert set(fluctuations(x, dfa=w, dcca=w, hxa=wh, ccf=wc)) == {"x"}
    assert fluctuations(x, y) == {}


def _assert_stacks_keep_each_pairs_bits(pairs, windows, seed=0):
    # stacks of every size from 1 to len(pairs), each a random subset in a
    # random order: each pair's result holds the bits and errors of its own call
    alone = [fluctuations(x, y, **windows) for x, y in pairs]
    rng = np.random.default_rng(seed)
    for size in range(1, len(pairs) + 1):
        picked = rng.permutation(len(pairs))[:size].tolist()
        for i, got in zip(picked, stacked_fluctuations([pairs[i] for i in picked], **windows), strict=True):
            assert got.keys() == alone[i].keys(), (picked, i)
            for key, want in alone[i].items():
                value = dict.__getitem__(got, key)
                if isinstance(want, Exception):
                    assert (type(value), str(value)) == (type(want), str(want)), (picked, i, key)
                elif isinstance(want, FluctuationSeries):
                    assert np.array_equal(value.scales, want.scales), (picked, i, key)
                    assert np.array_equal(value.values, want.values), (picked, i, key)
                else:
                    assert np.array_equal(value, want), (picked, i, key)


@pytest.mark.parametrize("order", [0, 1, 2])
@pytest.mark.parametrize(
    "dfa_window, dcca_window",
    [({}, {}), ({"s_min": 11}, {"s_min": 11}), ({"s_min": 14, "step": 7}, {})],
    ids=["g10", "g1", "dfa-g7-dcca-g10"],
)
def test_a_stack_keeps_each_pairs_bits(dfa_window, dcca_window, order):
    # at g = 1 a box size's dot products run to T = 1e4 terms, beyond the
    # 8,192 of numpy's buffer, past which np.einsum's row bits follow the
    # number of rows it reduces
    T = 10_000
    cfg = default_config(t=T)
    wd = {**cfg.window("dfa"), **dfa_window, "detrend_order": order}
    wc = {**cfg.window("dcca"), **dcca_window, "detrend_order": order}
    if dfa_window.get("s_min") == 11:
        assert (T // 11) * 11 > np.getbufsize()
    pairs = [(s.x, s.y) for s in (simulate(PRESETS["model2"](), T, seed) for seed in range(5))]
    _assert_stacks_keep_each_pairs_bits(pairs, dict(dfa=wd, dcca=wc))


def test_a_failed_series_in_a_stack_fails_only_its_own_keys():
    # DFA on base boxes of 7 points, DCCA of 10: the pair whose y fails
    # keeps only DFA of x, and takes its base boxes of both from x alone
    T = 3000
    cfg = default_config(t=T)
    windows = dict(dfa={**cfg.window("dfa"), "s_min": 14, "step": 7}, dcca=cfg.window("dcca"),
                   hxa=cfg.window("hxa"), ccf=cfg.window("ccf"))
    pairs = [(s.x.copy(), s.y.copy()) for s in (simulate(PRESETS["model1"](), T, seed) for seed in range(5))]
    pairs[1][1][100] = np.nan
    pairs[2][0][5] = np.inf
    pairs[3][0][0] = pairs[3][1][0] = np.nan
    _assert_stacks_keep_each_pairs_bits(pairs, windows)
    got = stacked_fluctuations(pairs, **windows)
    failed = [{key for key, value in result.items() if isinstance(value, Exception)} for result in got]
    assert failed == [set(), {"y", "xy", "hxa", "ccf"}, {"x", "xy", "hxa", "ccf"}, {"x", "y", "xy", "hxa", "ccf"}, set()]
    with pytest.raises(ValueError, match="^y contains non-finite values$"):
        got[1]["xy"]
    # the pairs of a stack share one length
    with pytest.raises(ValueError, match="equal length"):
        stacked_fluctuations([pairs[0], (pairs[4][0][:-1], pairs[4][1][:-1])], **windows)


@pytest.mark.parametrize(
    "bad, window, message",
    [
        ("dfa", {"s_max": 1501}, "dfa.s_max = 1501 exceeds T/2 = 1500"),
        ("dcca", {"s_max": 2000}, "dcca.s_max = 2000 exceeds T/2 = 1500"),
        ("hxa", {"tau_max": 301}, "hxa.tau_max = 301 exceeds T/10 = 300"),
        ("ccf", {"max_lag": 1500}, "ccf.max_lag: need T > 2*max_lag, got T=3000, max_lag=1500"),
    ],
    ids=["dfa", "dcca", "hxa", "ccf"],
)
def test_a_window_that_does_not_fit_fails_only_its_own_keys(bad, window, message):
    # a stack of 4 pairs, the third with a NaN in y, DFA on base boxes of 7
    # points beside DCCA's 10: the bad window fails its estimator's keys in
    # every pair, where no failed series did first, and every other key holds
    # the bits and errors of the pair's own call without that window
    T = 3000
    cfg = default_config(t=T)
    windows = dict(dfa={**cfg.window("dfa"), "s_min": 14, "step": 7}, dcca=cfg.window("dcca"),
                   hxa=cfg.window("hxa"), ccf=cfg.window("ccf"))
    pairs = [(s.x.copy(), s.y.copy()) for s in (simulate(PRESETS["model1"](), T, seed) for seed in range(4))]
    pairs[2][1][100] = np.nan
    got = stacked_fluctuations(pairs, **{**windows, bad: {**windows[bad], **window}})
    keys = {"dfa": {"x", "y"}, "dcca": {"xy"}, "hxa": {"hxa"}, "ccf": {"ccf"}}[bad]
    others = {name: w for name, w in windows.items() if name != bad}
    for i, ((x, y), result) in enumerate(zip(pairs, got, strict=True)):
        alone = fluctuations(x, y, **others)
        assert result.keys() == alone.keys() | keys
        for key, value in result.items():
            if key in keys:
                want = "y contains non-finite values" if i == 2 and key != "x" else message
                assert (type(value), str(value)) == (ValueError, want), (i, key)
            elif isinstance(want := dict.__getitem__(alone, key), Exception):
                assert (type(value), str(value)) == (type(want), str(want)), (i, key)
            elif isinstance(want, FluctuationSeries):
                assert np.array_equal(value.scales, want.scales) and np.array_equal(value.values, want.values)
            else:
                assert np.array_equal(value, want), (i, key)
    # a library call raises the window's error through its key
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        fluctuations(*pairs[0], **{bad: {**windows[bad], **window}})[min(keys)]


@pytest.mark.parametrize("order", [0, 1, 2])
def test_box_basis_keeps_the_bits_of_linspace(order):
    # column 0 is 1/sqrt(s) and column 1 linspace's u over |p_1|, each one
    # rounded product, at every order
    for s in [*range(order + 2, 3000), *range(3000, 200_001, 997)]:
        Q = estimators._box_basis(s, order)
        assert Q.shape == (s, order + 1)
        assert np.array_equal(Q[:, 0], np.full(s, 1 / np.sqrt(s))), s
        if order:
            beta_1 = (s * s - 1) / ((s - 1) ** 2 * 3)
            assert np.array_equal(Q[:, 1], np.linspace(-1.0, 1.0, s) * (1 / np.sqrt(s * beta_1))), s


def test_dfa_builds_one_profile(monkeypatch):
    # one series passed twice is profiled once; two series twice
    calls = []
    profile = estimators._profile
    monkeypatch.setattr(estimators, "_profile", lambda z: calls.append(z.size) or profile(z))
    x, y = np.random.default_rng(4).standard_normal((2, 300))
    dfa(x, s_min=4, s_max=40, step=4)
    assert calls == [300]
    dcca(x, y, s_min=4, s_max=40, step=4)
    assert calls == [300, 300, 300]


def test_dcca_sign_flip_negates_values():
    x = np.random.default_rng(12).standard_normal(500)
    assert np.array_equal(dcca(x, -x).values, -dfa(x).values)


def test_dcca_anticorrelated_input_refuses_a_hurst_fit():
    # F^2 < 0 at every scale: nothing survives for the log-log fit
    x = np.random.default_rng(12).standard_normal(500)
    fluct = dcca(x, -x)
    assert np.all(fluct.values < 0.0)
    with pytest.warns(UserWarning, match="non-positive"):
        with pytest.raises(InsufficientDataError):
            fit_hurst(fluct)


def test_dcca_affine_equivariance():
    # shifts vanish with the mean; scales multiply F^2 by b*e
    rng = np.random.default_rng(5)
    x = rng.standard_normal(1000)
    y = rng.standard_normal(1000)
    base = dcca(x, y)
    moved = dcca(5.0 + 2.0 * x, -3.0 + 4.0 * y)
    assert np.allclose(moved.values, 8.0 * base.values, rtol=1e-9, atol=1e-12)


def test_dfa_hurst_shift_scale_invariant():
    z = arfima_draw(0.3, 4000, seed=77)
    h0 = fit_hurst(dfa(z)).exponent
    h1 = fit_hurst(dfa(100.0 + 0.01 * z)).exponent
    assert abs(h0 - h1) < 1e-9


def test_dfa_white_noise_hurst():
    # H ~ 0.5: boxes 10..500 on T = 1e4, ten seeds
    for seed in range(10):
        z = np.random.default_rng(seed).standard_normal(10_000)
        h = fit_hurst(dfa(z, s_min=10, s_max=500, step=10)).exponent
        assert 0.45 < h < 0.55


def test_dfa_long_memory_hurst():
    # ARFIMA with d = 0.4: H ~ 0.9
    for seed in range(10):
        x = arfima_draw(0.4, 10_000, seed)
        h = fit_hurst(dfa(x, s_min=10, s_max=500, step=10)).exponent
        assert 0.80 < h < 0.95


def test_dcca_recovers_shared_long_memory():
    # x and y share one d = 0.4 stream, so H_xy ~ 0.9 as well
    common = arfima_draw(0.4, 10_000, 1234)
    rng = np.random.default_rng(4321)
    x = common + 0.1 * rng.standard_normal(10_000)
    y = common + 0.1 * rng.standard_normal(10_000)
    h = fit_hurst(dcca(x, y, s_min=10, s_max=500, step=10)).exponent
    assert 0.80 < h < 0.95


# The reference costs about 10 ms per scale at T = 1e5, so there it takes
# every 20th scale of the default window; each scale's F^2 is computed on
# its own, so a sparser window gives the same values at the scales it has.
@pytest.mark.parametrize("T, step", [(10_000, 10), (100_000, 200)])
@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_dcca_matches_longdouble_reference(preset, T, step):
    """Deviation from long-double residuals, in units of sqrt(F^2_xx F^2_yy).

    A plain relative deviation is undefined where F^2_xy crosses zero,
    which model3's DCCA does at many scales.
    """
    series = simulate(PRESETS[preset](), T, seed=42)
    for order in (0, 1, 2):
        got = dcca(series.x, series.y, s_min=10, s_max=T // 5, step=step, detrend_order=order)
        xy, xx, yy = longdouble_dcca(series.x, series.y, got.scales, order)
        deviation = np.max(np.abs(got.values - xy) / np.sqrt(xx * yy))
        assert deviation <= 1e-12, (order, float(deviation))


def _longdouble_deviations(got, series, pick, order):
    """The pass's DCCA in units of sqrt(F^2_xx F^2_yy), and its DFA relative to F^2, less long-double residuals."""
    xy, xx, yy = longdouble_dcca(series.x, series.y, got["xy"].scales[pick], order)
    return (np.abs(got["xy"].values[pick] - xy) / np.sqrt(xx * yy), np.abs(got["x"].values[pick] - xx) / xx,
            np.abs(got["y"].values[pick] - yy) / yy)  # fmt: skip


# windows whose base boxes (the gcd g of their box sizes) are 1, 7 and 20 points
_LATTICES = {"g1": dict(s_min=11, step=10), "g7": dict(s_min=14, step=7), "g20": dict(s_min=20, step=40)}


@pytest.mark.parametrize("T", [3000, 10_000])
@pytest.mark.parametrize("lattice", sorted(_LATTICES))
def test_fluctuations_match_longdouble_reference_on_each_lattice(lattice, T):
    # every box size of the window runs; the reference takes eight of them
    series = simulate(PRESETS["model1"](), T, seed=42)
    for order in range(5):
        w = {**_LATTICES[lattice], "s_max": T // 5, "detrend_order": order}
        got = fluctuations(series.x, series.y, dfa=w, dcca=w)
        pick = np.linspace(0, got["xy"].scales.size - 1, 8).astype(int)
        for deviation in _longdouble_deviations(got, series, pick, order):
            assert np.max(deviation) <= 1e-12, (order, float(np.max(deviation)))


# The reference takes about 0.1 s per scale and order at T = 1e6, so the window
# here has four box sizes (10 to 199,990), which share the default's g = 10.
def test_fluctuations_match_longdouble_reference_at_one_million():
    T = 1_000_000
    series = simulate(PRESETS["model1"](), T, seed=42)
    for order in (0, 1, 2):
        w = dict(s_min=10, s_max=T // 5, step=66_660, detrend_order=order)
        got = fluctuations(series.x, series.y, dfa=w, dcca=w)
        assert got["xy"].scales.tolist() == [10, 66_670, 133_330, 199_990]
        for deviation in _longdouble_deviations(got, series, np.arange(4), order):
            assert np.max(deviation) <= 1e-12, (order, float(np.max(deviation)))


@pytest.mark.parametrize("bad", [None, "x", "y"])
def test_windows_of_their_own_lattice_give_what_separate_calls_give(bad):
    # DFA on base boxes of 7 points and DCCA on 20: each key keeps its own g, and
    # a failed series fails only its keys
    T = 3000
    s = simulate(PRESETS["model1"](), T, seed=42)
    pair = {"x": s.x.copy(), "y": s.y.copy()}
    if bad:
        pair[bad][11] = np.inf
    wd, wc = dict(s_min=14, s_max=300, step=7), dict(s_min=20, s_max=600, step=40)
    got = fluctuations(pair["x"], pair["y"], dfa=wd, dcca=wc)
    for key in ("x", "y"):
        if key == bad:
            with pytest.raises(ValueError, match="non-finite"):
                got[key]
        else:
            assert np.array_equal(got[key].values, dfa(pair[key], **wd).values), key
    if bad:
        with pytest.raises(ValueError, match="non-finite"):
            got["xy"]
    else:
        assert np.array_equal(got["xy"].values, dcca(pair["x"], pair["y"], **wc).values)


def test_dcca_factors_each_box_size_once(monkeypatch):
    # no QR per scale: the coefficients come from the basis' closed form, kept or not
    calls = []
    qr = np.linalg.qr

    def counting_qr(*args, **kwargs):
        calls.append(args[0].shape)
        return qr(*args, **kwargs)

    monkeypatch.setattr(estimators.np.linalg, "qr", counting_qr)
    estimators._window_coefficients.cache_clear()
    x, y = np.random.default_rng(3).standard_normal((2, 2000))
    for order in (1, 2):
        for _ in range(2):
            dcca(x, y, s_min=10, s_max=400, step=10, detrend_order=order)
            dfa(x, s_min=10, s_max=100, step=10, detrend_order=order)
    monkeypatch.setattr(estimators, "_COEFFICIENTS_CAP", 0)
    estimators._window_coefficients.cache_clear()
    dcca(x, y, s_min=10, s_max=400, step=10, detrend_order=2)
    dcca(x, y, s_min=11, s_max=401, step=10, detrend_order=2)
    assert calls == []


@pytest.mark.parametrize("s", [2, 3, 4, 7, 10, 57, 1000, 20_000, 200_000])
def test_basis_factor_is_the_inverse_qr_factor(s):
    # Q = V R^-1 for V's thin QR, V = np.vander(np.linspace(-1, 1, s), order + 1, increasing=True):
    # Q matches QR's own basis up to column signs, and is orthonormal
    for order in range(min(s - 1, 5)):
        Q = estimators._box_basis(s, order)
        V = np.vander(np.linspace(-1.0, 1.0, s), order + 1, increasing=True)
        Q_qr = np.linalg.qr(V)[0]
        Q_qr *= np.sign(np.sum(Q_qr * Q, axis=0))
        # QR's basis itself is off by up to 5.6e-13/sqrt(s) (measured at s = 2e5, order 4),
        # where Q is within 7e-15/sqrt(s) of _longdouble_basis
        assert np.max(np.abs(Q - Q_qr)) <= 1e-12 / np.sqrt(s), order
        # the Gram matrix in long double: a float64 one rounds its 2e5-term
        # sums by up to 1.4e-13, by an amount that depends on the BLAS threads
        Q = Q.astype(np.longdouble)
        assert np.max(np.abs(Q.T @ Q - np.eye(order + 1))) <= 1e-13, order


def _pass_grid(T, *windows):
    grids = (estimators._grid(T, **w) for w in windows)
    return tuple(sorted({(s, order, g) for sizes, order, g in grids for s in sizes}))


def _coefficient_bytes(grid):
    # each D: s/g rows of base-box sums and, for g > 1, s/g * order rows of Taylor coefficients
    return 8 * sum(s // g * (1 if g == 1 else order + 1) * (order + 1) for s, order, g in grid)


@pytest.mark.parametrize("dfa_order, dcca_order", [(0, 0), (1, 1), (2, 2), (0, 2)])
def test_kept_bases_give_the_bits_of_bases_built_per_scale(monkeypatch, dfa_order, dcca_order):
    # cold (the pass fills the block), warm (it reads it) and capped (it
    # builds each D at its box size): one set of values to the bit
    T = 5000
    cfg = default_config(t=T)
    wd = {**cfg.window("dfa"), "detrend_order": dfa_order}
    wc = {**cfg.window("dcca"), "detrend_order": dcca_order}
    s = simulate(PRESETS["model1"](), T, seed=42)
    grid = _pass_grid(T, wd, wc)
    estimators._window_coefficients.cache_clear()
    cold = fluctuations(s.x, s.y, dfa=wd, dcca=wc)
    assert estimators._window_coefficients.cache_info().misses == 1
    assert estimators._window_coefficients(grid) is not None
    warm = fluctuations(s.x, s.y, dfa=wd, dcca=wc)
    assert estimators._window_coefficients.cache_info().hits == 2
    monkeypatch.setattr(estimators, "_COEFFICIENTS_CAP", _coefficient_bytes(grid) - 1)
    estimators._window_coefficients.cache_clear()
    capped = fluctuations(s.x, s.y, dfa=wd, dcca=wc)
    assert estimators._window_coefficients(grid) is None
    for key in ("x", "y", "xy"):
        assert np.array_equal(cold[key].values, capped[key].values), key
        assert np.array_equal(warm[key].values, capped[key].values), key


@pytest.mark.parametrize("order", [0, 1, 2])
def test_kept_bases_are_read_only_views_of_one_block_within_the_cap(order):
    # the default windows at T = 1e4 share g = 10; a g = 1 grid's block holds each Q itself
    for T, s_min in ((10_000, 10), (3000, 11)):
        cfg = default_config(t=T)
        windows = [{**cfg.window(name), "s_min": s_min, "detrend_order": order} for name in ("dfa", "dcca")]
        grid = _pass_grid(T, *windows)
        estimators._window_coefficients.cache_clear()
        kept = estimators._window_coefficients(grid)
        assert len(kept) == len(grid)
        block = kept[0].base
        assert block.nbytes == _coefficient_bytes(grid) <= estimators._COEFFICIENTS_CAP
        assert not block.flags.writeable
        for (s, o, g), D in zip(grid, kept):
            assert D.base is block and not D.flags.writeable
            assert np.array_equal(D, estimators._box_basis(s, o, g)), s
        with pytest.raises(ValueError, match="read-only"):
            kept[-1][0, 0] = 0.0
        if order == 1 and s_min == 10:
            assert block.nbytes == 643_200


@pytest.mark.parametrize(
    "s, g", [(10, 10), (20, 10), (2000, 10), (21, 7), (700, 7), (6, 2), (1000, 1000), (40_000, 20), (57, 1)]
)
def test_coefficients_reproduce_the_longdouble_basis(s, g):
    # the coefficients of base box j give Q at each of its g points, and their sums over it
    m = s // g
    tau = np.arange(g, dtype=np.longdouble) - g // 2
    for order in range(min(s - 1, 5)):
        D = estimators._box_basis(s, order, g).astype(np.longdouble)
        Q = _longdouble_basis(s, order).reshape(m, g, order + 1)
        assert D.shape == (m * (1 if g == 1 else order + 1), order + 1)
        assert np.max(np.abs(D[:m] - Q.sum(axis=1))) <= 1e-13 * g / np.sqrt(s), order
        # taylor[j, l - 1] holds the coefficients of tau^l, l = 1..order (none at g = 1)
        taylor = D[m:].reshape(m, len(D) // m - 1, 1, order + 1)
        powers = (tau[:, None] ** np.arange(1, taylor.shape[1] + 1)).T[:, :, None]
        at_middle = (D[:m] - np.sum(taylor[:, :, 0] * powers.sum(axis=1), axis=1)) / g
        values = at_middle[:, None, :] + np.sum(taylor * powers, axis=1)
        # measured: within 1e-14/sqrt(s) at orders 0-4, g up to 20, s up to 4e4
        assert np.max(np.abs(values - Q)) <= 1e-13 / np.sqrt(s), order


def test_one_grid_of_bases_is_kept_at_most():
    x, y = np.random.default_rng(6).standard_normal((2, 3000))
    for call in (lambda: dfa(x), lambda: dcca(x, y), lambda: fluctuations(x, y, dfa={}, dcca={}),
                 lambda: dfa(x[:1000], detrend_order=2), lambda: dcca(x, y, detrend_order=0),
                 lambda: fluctuations(x, y, dfa=dict(s_min=14, step=7), dcca=dict(s_min=11))):
        call()
        assert estimators._window_coefficients.cache_info().currsize <= 1


def test_a_grid_over_the_cap_gets_no_block():
    # the default windows at T = 3e4 (5.8 MB), and a g = 1 grid at T = 1e4 with order 2 (4.8 MB)
    for T, s_min, order in ((30_000, 10, 1), (10_000, 11, 2)):
        cfg = default_config(t=T)
        windows = ({**cfg.window(name), "s_min": s_min, "detrend_order": order} for name in ("dfa", "dcca"))
        grid = _pass_grid(T, *windows)
        assert _coefficient_bytes(grid) > estimators._COEFFICIENTS_CAP
        assert estimators._window_coefficients(grid) is None


_values = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
_pairs = st.integers(40, 300).flatmap(
    lambda n: st.tuples(arrays(np.float64, n, elements=_values), arrays(np.float64, n, elements=_values))
)
_orders = st.integers(0, 2)


def _window(T, order):
    return dict(s_min=order + 2, s_max=T // 4, step=3, detrend_order=order)


def _tolerance(x, y):
    # rounding in the profiles grows as T * max|x| and box values reach
    # s * max|x|; the floor of 1 covers draws near the subnormal range,
    # whose products lose their relative precision
    T = len(x)
    return 1e-12 * T * (T // 4) * max(1.0, np.max(np.abs(x))) * max(1.0, np.max(np.abs(y)))


@settings(max_examples=60, deadline=None)
@given(pair=_pairs, order=_orders, c=st.floats(1e-3, 1e3))
def test_dcca_scales_with_the_input(pair, order, c):
    x, y = pair
    w = _window(len(x), order)
    assert np.max(np.abs(dfa(c * x, **w).values - c**2 * dfa(x, **w).values)) <= (
        c**2 * _tolerance(x, x)
    )
    assert np.max(np.abs(dcca(c * x, y, **w).values - c * dcca(x, y, **w).values)) <= (
        c * _tolerance(x, y)
    )


@settings(max_examples=60, deadline=None)
@given(pair=_pairs, order=_orders, a=_values, b=_values)
def test_fluctuations_ignore_an_added_constant(pair, order, a, b):
    x, y = pair
    w = _window(len(x), order)
    tol = _tolerance(np.abs(x) + abs(a), np.abs(y) + abs(b))
    assert np.max(np.abs(dcca(x + a, y + b, **w).values - dcca(x, y, **w).values)) <= tol
    tau_max = len(x) // 10
    assert np.max(np.abs(hxa(x + a, y + b, 1, tau_max).values - hxa(x, y, 1, tau_max).values)) <= tol


@settings(max_examples=60, deadline=None)
@given(pair=_pairs, order=_orders)
def test_dcca_and_hxa_are_symmetric(pair, order):
    x, y = pair
    w = _window(len(x), order)
    assert np.array_equal(dcca(x, y, **w).values, dcca(y, x, **w).values)
    tau_max = len(x) // 10
    assert np.array_equal(hxa(x, y, 1, tau_max).values, hxa(y, x, 1, tau_max).values)


def test_dcca_preconditions():
    z = np.random.default_rng(0).standard_normal(100)
    with pytest.raises(ValueError, match="equal length"):
        dcca(z, z[:-1])
    with pytest.raises(ValueError, match="s_min"):
        dcca(z, z, s_min=2, detrend_order=1)  # needs order + 2 points per box
    with pytest.raises(ValueError, match="exceeds T/2"):
        dcca(z, z, s_max=51)
    with pytest.raises(ValueError, match="step"):
        dcca(z, z, step=0)
    with pytest.raises(ValueError, match="empty"):
        dcca(z, z, s_min=30, s_max=20)
    with pytest.raises(ValueError, match="detrend_order"):
        dcca(z, z, detrend_order=-1)


def test_fluctuation_series_validation():
    with pytest.raises(ValueError, match="increasing"):
        FluctuationSeries(scales=[10, 10], values=[1.0, 1.0], method="dfa")
    with pytest.raises(ValueError, match="increasing"):
        FluctuationSeries(scales=[0, 5], values=[1.0, 1.0], method="dfa")
    with pytest.raises(ValueError, match="method"):
        FluctuationSeries(scales=[5, 10], values=[1.0, 1.0], method="rescaled-range")
    with pytest.raises(ValueError, match="equal length"):
        FluctuationSeries(scales=[5, 10], values=[1.0], method="dfa")


# ----------------------------------------------------------------------
# HXA
# ----------------------------------------------------------------------


def test_hxa_matches_double_loop():
    rng = np.random.default_rng(44)
    x = rng.standard_normal(300)
    y = 0.6 * x + rng.standard_normal(300)
    got = hxa(x, y, tau_min=1, tau_max=20)
    assert np.array_equal(got.scales, np.arange(1, 21))
    assert got.method == "hxa"
    assert np.allclose(got.values, brute_hxa(x, y, range(1, 21)), rtol=1e-10, atol=1e-12)


def test_hxa_white_noise_hurst():
    # profiles of white noise are plain random walks: H ~ 0.5
    for seed in range(100, 110):
        z = np.random.default_rng(seed).standard_normal(10_000)
        h = fit_hurst(hxa(z, z)).exponent
        assert 0.45 < h < 0.55


def test_hxa_long_memory_hurst():
    for seed in range(5):
        x = arfima_draw(0.4, 10_000, seed)
        h = fit_hurst(hxa(x, x)).exponent
        assert 0.80 < h < 0.95


def test_hxa_affine_equivariance():
    rng = np.random.default_rng(6)
    x = rng.standard_normal(2000)
    y = rng.standard_normal(2000)
    base = hxa(x, y, tau_min=1, tau_max=50)
    moved = hxa(1.0 + 3.0 * x, 2.0 - 2.0 * y, tau_min=1, tau_max=50)
    assert np.allclose(moved.values, -6.0 * base.values, rtol=1e-9, atol=1e-12)


def test_hxa_preconditions():
    z = np.random.default_rng(0).standard_normal(200)
    with pytest.raises(ValueError, match="tau_min"):
        hxa(z, z, tau_min=0, tau_max=10)
    with pytest.raises(ValueError, match="tau_min"):
        hxa(z, z, tau_min=10, tau_max=10)
    with pytest.raises(ValueError, match="T/10"):
        hxa(z, z, tau_min=1, tau_max=21)
    with pytest.raises(ValueError, match="equal length"):
        hxa(z, z[:-1])
    # tau_max defaults to min(100, T//10), the CLI's default, which fits every T
    for T, tau_max in ((500, 50), (2000, 100)):
        z = np.random.default_rng(T).standard_normal(T)
        assert np.array_equal(hxa(z, z).values, hxa(z, z, 1, tau_max).values)
        assert hxa(z, z).scales[-1] == tau_max


# ----------------------------------------------------------------------
# the lag sums that HXA and the sample CCF share
# ----------------------------------------------------------------------


def direct_ccf(x, y, max_lag):
    """rho(-L..L) by one dot product per lag."""
    xc, yc = x - np.mean(x), y - np.mean(y)
    T, scale = len(xc), np.sqrt(np.mean(xc**2) * np.mean(yc**2))
    return np.array(
        [(xc[k:] @ yc[: T - k] if k >= 0 else xc[: T + k] @ yc[-k:]) / ((T - abs(k)) * scale)
         for k in range(-max_lag, max_lag + 1)]
    )  # fmt: skip


# (T, ccf max_lag, hxa (tau_min, tau_max)); None skips that estimator
_LAG_WINDOWS = {
    "ccf-only-largest-max_lag-odd-T": (301, 150, None),
    "hxa-only-tau_max-T-over-10-tau_min-one-below": (500, None, (49, 50)),
    "max_lag-0-below-tau_max-1": (400, 0, (1, 40)),
    "max_lag-above-tau_max-1-odd-T": (999, 120, (1, 99)),
    "T+k_max-already-smooth": (1000, 24, (1, 20)),
}


@pytest.mark.parametrize("case", sorted(_LAG_WINDOWS))
def test_lag_windows_match_the_direct_sums(case):
    T, L, taus = _LAG_WINDOWS[case]
    rng = np.random.default_rng(T)
    x = np.cumsum(rng.standard_normal(T)) * 0.1 + rng.standard_normal(T)
    y = 0.5 * x + rng.standard_normal(T) + 3.0
    windows = {}
    if L is not None:
        windows["ccf"] = dict(max_lag=L)
    if taus is not None:
        windows["hxa"] = dict(tau_min=taus[0], tau_max=taus[1])
    if case == "T+k_max-already-smooth":
        assert estimators._smooth_length(T + 24) == T + 24
    got = fluctuations(x, y, **windows)
    assert set(got) == set(windows)
    if L is not None:
        np.testing.assert_allclose(got["ccf"], direct_ccf(x, y, L), rtol=0, atol=1e-14)
    if taus is not None:
        want = brute_hxa(x, y, range(taus[0], taus[1] + 1))
        assert np.array_equal(got["hxa"].scales, np.arange(taus[0], taus[1] + 1))
        assert np.max(np.abs(got["hxa"].values - want)) <= 1e-12 * np.max(np.abs(want))
    # a pass of one window is the estimator alone
    if taus is None:
        assert np.array_equal(got["ccf"], sample_ccf(x, y, L))
    if L is None:
        assert np.array_equal(got["hxa"].values, hxa(x, y, *taus).values)


def test_hxa_and_ccf_share_one_lag_sum_and_need_no_profile(monkeypatch):
    # both windows: two forward rffts of the pair at the larger lag, and no
    # profile unless dfa or dcca asks for one
    x, y = np.random.default_rng(8).standard_normal((2, 2000))
    forward, lag_sums, profile = np.fft.rfft, estimators._lag_sums, estimators._profile
    calls = {"rfft": 0, "lag sums": [], "profile": 0}

    def rfft(*args, **kw):
        calls["rfft"] += 1
        return forward(*args, **kw)

    def counted_lag_sums(xc, yc, k_max):
        calls["lag sums"].append(k_max)
        return lag_sums(xc, yc, k_max)

    def counted_profile(z):
        calls["profile"] += 1
        return profile(z)

    monkeypatch.setattr(np.fft, "rfft", rfft)
    monkeypatch.setattr(estimators, "_lag_sums", counted_lag_sums)
    monkeypatch.setattr(estimators, "_profile", counted_profile)
    for L, tau_max in ((10, 100), (150, 100)):
        fluctuations(x, y, hxa=dict(tau_min=1, tau_max=tau_max), ccf=dict(max_lag=L))
    assert calls == {"rfft": 4, "lag sums": [99, 150], "profile": 0}
    fluctuations(x, y, dfa=dict(s_min=10, s_max=200), hxa=dict(tau_min=1, tau_max=20))
    assert calls == {"rfft": 6, "lag sums": [99, 150, 19], "profile": 2}


def longdouble_lag_values(x, y, taus, lags):
    """K(tau) with sqrt(K_xx K_yy), and the CCF at lags, from long-double profiles and dot products."""
    xc = np.asarray(x, np.longdouble)
    yc = np.asarray(y, np.longdouble)
    xc -= xc.mean()
    yc -= yc.mean()
    T = xc.size
    sd = np.sqrt(np.dot(xc, xc) * np.dot(yc, yc)) / T
    ccf = [(np.dot(xc[k:], yc[: T - k]) if k >= 0 else np.dot(xc[: T + k], yc[-k:])) / ((T - abs(k)) * sd)
           for k in lags]  # fmt: skip
    X, Y = np.cumsum(xc, out=xc), np.cumsum(yc, out=yc)
    K, scale = [], []
    for tau in taus:
        dx, dy = X[tau:] - X[:-tau], Y[tau:] - Y[:-tau]
        K.append(np.dot(dx, dy) / (T - tau))
        scale.append(np.sqrt(np.dot(dx, dx) * np.dot(dy, dy)) / (T - tau))
    return np.array(K), np.array(scale), np.array(ccf)


# At T = 1e6 the reference takes a sparse set of lags, as each costs a few
# long-double passes over the series; the package computes every lag.
@pytest.mark.parametrize("T", [100_000, 1_000_000])
@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_hxa_and_ccf_match_longdouble_reference(preset, T):
    """HXA in units of sqrt(K_xx K_yy) and the CCF in units of rho, as
    test_dcca_matches_longdouble_reference measures DCCA: a plain relative
    deviation is undefined where either crosses zero."""
    series = simulate(PRESETS[preset](), T, seed=42)
    got = fluctuations(series.x, series.y, hxa=dict(tau_min=1, tau_max=100), ccf=dict(max_lag=100))
    taus = np.arange(1, 101) if T <= 100_000 else np.array([1, 2, 3, 7, 20, 50, 99, 100])
    lags = np.arange(-100, 101) if T <= 100_000 else np.array([-100, -37, -2, -1, 0, 1, 2, 37, 100])
    K, scale, ccf = longdouble_lag_values(series.x, series.y, taus, lags)
    assert np.max(np.abs(got["hxa"].values[taus - 1] - K) / scale) <= 1e-12
    assert np.max(np.abs(got["ccf"][100 + lags] - ccf)) <= 1e-12


# ----------------------------------------------------------------------
# power-law fitting
# ----------------------------------------------------------------------


def test_ols_is_bit_identical_to_linregress():
    # same moments, same order of operations: exact equality, not a tolerance
    rng = np.random.default_rng(2024)
    for trial in range(300):
        n = int(rng.integers(4, 501))
        if trial % 2:
            x = np.log(np.arange(10, 10 + 10 * n, 10, dtype=float))  # fit_hurst's scales
        else:
            x = rng.standard_normal(n)
        y = rng.normal(0.0, 3.0) * x + rng.uniform(0.0, 2.0) * rng.standard_normal(n)
        ref = linregress(x, y)
        assert ols(x, y) == (ref.slope, ref.intercept, ref.stderr), n


def test_ols_edge_cases_follow_linregress():
    # below three points the slope's standard error has no degrees of freedom
    with pytest.raises(ValueError, match="at least 3 points"):
        ols([1.0, 3.0], [2.0, 6.0])
    with pytest.raises(ValueError, match="at least 3 points"):
        ols([1.0], [2.0])
    # a vertical line has no slope
    with pytest.raises(ValueError, match="identical"):
        ols([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="identical"):
        linregress([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])
    # a flat y: slope 0 and, as in linregress, a NaN stderr
    ref = linregress([1.0, 2.0, 3.0], [5.0, 5.0, 5.0])
    got = ols([1.0, 2.0, 3.0], [5.0, 5.0, 5.0])
    assert got[:2] == (ref.slope, ref.intercept) == (0.0, 5.0)
    assert np.isnan(got[2]) and np.isnan(ref.stderr)
    with pytest.raises(ValueError, match="equal length"):
        ols([1.0, 2.0, 3.0], [1.0, 2.0])


def test_powerlaw_fit_exact():
    # F = 3 s^0.8: the log-log line has slope 0.8, so H = 0.4
    s = np.array([10, 20, 40, 80, 160])
    fit = fit_hurst(FluctuationSeries(scales=s, values=3.0 * s**0.8, method="dfa"))
    assert fit.exponent == pytest.approx(0.4, abs=1e-12)
    assert fit.intercept == pytest.approx(np.log(3.0), abs=1e-12)
    assert fit.stderr == pytest.approx(0.0, abs=1e-12)
    assert fit.n_points == 5
    assert fit.range == (10, 160)


def test_powerlaw_fit_matches_normal_equations():
    """Slope, intercept and slope standard error from first principles."""
    rng = np.random.default_rng(55)
    # integer scales, as FluctuationSeries holds them
    s = np.geomspace(8, 512, 12).round().astype(int)
    v = 2.0 * s**0.6 * np.exp(0.05 * rng.standard_normal(12))
    fit = fit_hurst(FluctuationSeries(scales=s, values=v, method="dcca"))
    ls, lv = np.log(s), np.log(v)
    sxx = np.sum((ls - ls.mean()) ** 2)
    slope = np.sum((ls - ls.mean()) * (lv - lv.mean())) / sxx
    intercept = lv.mean() - slope * ls.mean()
    resid = lv - (intercept + slope * ls)
    stderr = np.sqrt(np.sum(resid**2) / (len(s) - 2) / sxx)
    assert fit.exponent == pytest.approx(slope / 2, abs=1e-10)
    assert fit.intercept == pytest.approx(intercept, abs=1e-10)
    assert fit.stderr == pytest.approx(stderr / 2, abs=1e-10)


def test_fit_hurst_halves_the_slope():
    s = np.arange(10, 100, 10)
    fluct = FluctuationSeries(scales=s, values=0.5 * s**1.6, method="dfa")
    fit = fit_hurst(fluct)
    assert fit.exponent == pytest.approx(0.8, abs=1e-12)
    assert fit.stderr == pytest.approx(0.0, abs=1e-12)


def test_fit_hurst_skips_nonpositive_values_with_warning():
    s = np.arange(10, 80, 10)
    v = 0.5 * s**1.2
    v[2] = -1e-3
    fluct = FluctuationSeries(scales=s, values=v, method="dcca")
    with pytest.warns(UserWarning, match=r"scales \[30\]"):
        fit = fit_hurst(fluct)
    assert fit.n_points == 6
    assert fit.exponent == pytest.approx(0.6, abs=1e-10)


# ----------------------------------------------------------------------
# preset ordering
# ----------------------------------------------------------------------


def test_preset_ordering_under_hxa(study):
    """HXA separates the presets: long-range cross > short-range > none."""
    means = {m: np.nanmean(study[m]["hxa"]) for m in ("model1", "model2", "model3")}
    assert means["model1"] > means["model2"] + 0.05
    assert means["model2"] > means["model3"] + 0.05


def test_preset_ordering_under_dcca(study):
    # DCCA also ranks preset 1 above preset 2; preset 3 is excluded here
    # because shared marginal long memory biases DCCA upward when the
    # true cross-correlation is a pure lag-zero spike
    means = {m: np.nanmean(study[m]["dcca"]) for m in ("model1", "model2")}
    assert means["model1"] > means["model2"] + 0.05
