"""Model presets, theoretical exponents/CCF/spectrum, and simulation."""

import dataclasses
import math
import os
import pickle
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from crossarfima import innovations, models
from crossarfima.errors import NotPositiveSemiDefiniteError
from crossarfima.estimators import sample_ccf
from crossarfima.innovations import CovarianceSpec, cholesky_factor, sample
from crossarfima.models import (
    PRESETS,
    ComponentSpec,
    ModelSpec,
    _smooth_length,
    ar1,
    ar1_weights,
    cross_spectrum,
    fractional,
    lead_lag_sums,
    ma_weights,
    model1,
    model2,
    model3,
    simulate,
    theoretical_ccf,
    theoretical_exponents,
    white,
)

from protocol_expectations import (
    expected_sample_ccf,
    limit_ccf,
    limit_cross_cov,
    protocol_covariances,
    truncated_cross_spectrum,
)


def squared_sum_limit(d):
    # sum_k a_k(d)^2 = Gamma(1-2d) / Gamma(1-d)^2
    return math.gamma(1.0 - 2.0 * d) / math.gamma(1.0 - d) ** 2


def mixed_model():
    """Every kind at once: all four cross pairs and the x-side pair coupled.

    x = F(0.35) + F(0), y = AR1(-0.6) + white, so the cross pairs are
    fractional-ar1, fractional-white, and d = 0 against ar1 and white.
    """
    return ModelSpec(
        x_components=(fractional(0.35, 1.0), fractional(0.0, 0.7)),
        y_components=(ar1(-0.6, 1.5), white(0.8)),
        covariance=CovarianceSpec(
            covariances={(1, 2): 0.2, (1, 3): 0.3, (1, 4): -0.2, (2, 3): 0.25, (2, 4): 0.1}
        ),
    )


def brute_cross_cov(model, left, right, max_lag, truncation):
    """Slice-and-dot sums sum_{m<=K} a^(i)_{m+k} a^(j)_m at lags -L..L.

    ``left`` and ``right`` are stream numbers; stream i drives component i
    of x_components + y_components.  For ar1 and white components only,
    where a finite sum is exact to rounding once theta^K is negligible.
    """
    L, K = max_lag, truncation
    n = np.arange(K + L + 1, dtype=float)

    def coefficients(comp):
        assert comp.kind in ("ar1", "white")
        return comp.param**n if comp.kind == "ar1" else (n == 0).astype(float)

    comps = model.x_components + model.y_components
    values = np.zeros(2 * L + 1)
    for p in left:
        for q in right:
            ci, cj = comps[p - 1], comps[q - 1]
            w = ci.weight * cj.weight * model.covariance.sigma(p, q)
            a, b = coefficients(ci), coefficients(cj)
            values[L] += w * float(a[: K + 1] @ b[: K + 1])
            for i in range(1, L + 1):
                values[L + i] += w * float(a[i : i + K + 1] @ b[: K + 1])
                values[L - i] += w * float(a[: K + 1] @ b[i : i + K + 1])
    return values


# ----------------------------------------------------------------------
# component and model specs
# ----------------------------------------------------------------------


def test_component_constructors():
    f = fractional(0.4, 0.2)
    assert (f.kind, f.param, f.weight) == ("fractional", 0.4, 0.2)
    assert [f.name for f in dataclasses.fields(ComponentSpec)] == ["kind", "weight", "param"]
    a = ar1(0.8, 1.0)
    assert (a.kind, a.param) == ("ar1", 0.8)
    w = white(1.0)
    assert (w.kind, w.param) == ("white", 0.0)


def test_component_hurst():
    assert fractional(0.4, 1.0).hurst == 0.9
    assert fractional(0.0, 1.0).hurst == 0.5
    assert ar1(0.8, 1.0).hurst == 0.5
    assert white(1.0).hurst == 0.5


def test_component_validation():
    with pytest.raises(ValueError):
        ComponentSpec(kind="garch", weight=1.0)
    with pytest.raises(ValueError):
        fractional(0.5, 1.0)
    with pytest.raises(ValueError):
        fractional(-0.1, 1.0)
    with pytest.raises(ValueError):
        ar1(1.0, 1.0)
    with pytest.raises(ValueError):
        fractional(0.3, np.inf)


def test_white_component_takes_no_param():
    with pytest.raises(ValueError, match="white component takes no param, got 0.3"):
        ComponentSpec("white", 1.0, param=0.3)
    assert ComponentSpec("white", 1.0, param=0.0) == white(1.0)


def test_ma_coefficients_white_is_one_tap():
    # a white component's kernel is the one tap [1] at every horizon
    c = white(1.0)
    assert np.array_equal(c.ma_coefficients(5), [1.0])
    f = fractional(0.3, 1.0)
    assert f.ma_coefficients(5).shape == (6,)
    assert f.ma_coefficients(5)[1] == pytest.approx(0.3, abs=1e-15)


def test_model_spec_needs_two_components_a_side():
    good = model1()
    x, y = good.x_components, good.y_components
    for sides in ((x[:1], y), (x + y[:1], y), (x, y[:1]), (x, y + x[:1])):
        with pytest.raises(ValueError, match="two components each"):
            ModelSpec(*sides, covariance=good.covariance)
    # a component's stream is its position: swapping x's two is another model
    swapped = ModelSpec((x[1], x[0]), y, good.covariance)
    assert swapped.components == (x[1], x[0]) + y
    # sigma_23 now couples x's 0.2 F(0.4) with y's F(0.3) in place of F(0.3) with F(0.3)
    assert theoretical_exponents(good).H_xy == pytest.approx(0.8)
    assert theoretical_exponents(swapped).H_xy == pytest.approx(0.85)
    assert theoretical_exponents(swapped).dominating_pair == (2, 3)


def test_presets_match_published_setup():
    m1, m2, m3 = model1(), model2(), model3()
    # preset 1: weights (0.2, 1 | 1, 0.2), memory (0.4, 0.3 | 0.3, 0.4)
    assert [c.weight for c in m1.components] == [0.2, 1.0, 1.0, 0.2]
    assert [c.param for c in m1.components] == [0.4, 0.3, 0.3, 0.4]
    assert all(c.kind == "fractional" for c in m1.components)
    # preset 2: fractional shells, ar1 cores
    assert [c.kind for c in m2.components] == ["fractional", "ar1", "ar1", "fractional"]
    assert [c.param for c in m2.components] == [0.4, 0.8, 0.8, 0.4]
    # preset 3: fractional shells, white cores
    assert [c.kind for c in m3.components] == ["fractional", "white", "white", "fractional"]
    for m in (m1, m2, m3):
        assert [c.weight for c in m2.components] == [1.0, 1.0, 1.0, 1.0] or m is m1
        assert m.covariance.sigma(2, 3) == 0.9
        assert m.covariance.sigma(1, 4) == 0.0


# ----------------------------------------------------------------------
# theoretical exponents
# ----------------------------------------------------------------------


def test_exponents_model1():
    rep = theoretical_exponents(model1())
    assert rep.H_x == pytest.approx(0.9)
    assert rep.H_y == pytest.approx(0.9)
    assert rep.H_xy == pytest.approx(0.8)
    assert rep.dominating_pair == (2, 3)


def test_exponents_models_2_and_3():
    # correlated cores are short-memory, so the cross exponent collapses to 1/2
    for m in (model2(), model3()):
        rep = theoretical_exponents(m)
        assert rep.H_x == pytest.approx(0.9)
        assert rep.H_y == pytest.approx(0.9)
        assert rep.H_xy == pytest.approx(0.5)
        assert rep.dominating_pair == (2, 3)


def test_exponents_ignore_zero_weight_components():
    m = ModelSpec(
        x_components=(fractional(0.45, 0.0), fractional(0.2, 1.0)),
        y_components=(fractional(0.2, 1.0), white(1.0)),
        covariance=CovarianceSpec(covariances={(2, 3): 0.5}),
    )
    rep = theoretical_exponents(m)
    assert rep.H_x == pytest.approx(0.7)  # the d=0.45 stream carries no weight
    assert rep.H_xy == pytest.approx(0.7)
    assert rep.dominating_pair == (2, 3)


def test_exponents_without_cross_coupling():
    m = ModelSpec(
        x_components=(fractional(0.4, 1.0), white(1.0)),
        y_components=(white(1.0), fractional(0.4, 1.0)),
        covariance=CovarianceSpec(),
    )
    rep = theoretical_exponents(m)
    assert rep.H_xy == 0.5
    assert rep.dominating_pair is None


def test_exponents_pick_strongest_admissible_pair():
    # wiring sigma_14 as well promotes the (0.4, 0.4) pair over (0.3, 0.3)
    base = model1()
    m = ModelSpec(
        x_components=base.x_components,
        y_components=base.y_components,
        covariance=CovarianceSpec(covariances={(2, 3): 0.9, (1, 4): 0.5}),
    )
    rep = theoretical_exponents(m)
    assert rep.H_xy == pytest.approx(0.9)
    assert rep.dominating_pair == (1, 4)


def _fractional_model(x_d, y_d, covariances, variances=(1, 1, 1, 1)):
    """x and y each two fractional components of unit weight, with the memory x_d and y_d."""
    return ModelSpec(tuple(fractional(d, 1.0) for d in x_d), tuple(fractional(d, 1.0) for d in y_d),
                     CovarianceSpec(variances=variances, covariances=covariances))


def test_exponents_count_pairs_that_cancel_only_where_they_do_not():
    # exact cancellation: sigma_13 and sigma_24 couple pairs of equal memory
    # with opposite signs, so the theoretical CCF is 0 at every lag
    m = _fractional_model((0.4, 0.4), (0.4, 0.4), {(1, 3): 0.5, (2, 4): -0.5})
    rep = theoretical_exponents(m)
    assert (rep.H_x, rep.H_y, rep.H_xy, rep.dominating_pair) == (0.9, 0.9, 0.5, None)
    assert not np.any(theoretical_ccf(m, max_lag=50))
    # antisymmetric: the cross-spectrum is purely imaginary as lambda -> 0, so
    # rho(k) = -rho(-k) and DCCA and HXA, which weight lags symmetrically, see none of it
    m = _fractional_model((0.4, 0.2), (0.2, 0.4), {(1, 3): 0.5, (2, 4): -0.5})
    rep = theoretical_exponents(m)
    assert (rep.H_x, rep.H_y, rep.H_xy, rep.dominating_pair) == (0.9, 0.9, 0.5, None)
    rho = theoretical_ccf(m, max_lag=10)
    assert rho[10] == 0.0 and rho[20] == pytest.approx(0.0158, abs=1e-4) and rho[0] == -rho[20]
    # less than exact: the pair counts again
    rep = theoretical_exponents(_fractional_model((0.4, 0.2), (0.2, 0.4), {(1, 3): 0.5, (2, 4): -0.4}))
    assert (rep.H_xy, rep.dominating_pair) == (0.8, (1, 3))
    # a side that cancels: stream 2 is minus stream 1, so x is identically 0
    m = _fractional_model((0.4, 0.4), (0.3, 0.4), {(1, 2): -1.0, (1, 3): 0.5, (2, 3): -0.5})
    rep = theoretical_exponents(m)
    assert (rep.H_x, rep.H_y, rep.H_xy, rep.dominating_pair, rep.sigma_x) == (0.5, 0.9, 0.5, None, 0.0)


def test_exponents_weigh_ar1_pairs_by_their_gain_at_zero():
    # the d = 0 group's terms are w sigma A_i A_j, A = 1/(1 - theta): 1 * 2 * 1 and
    # -3 * (2/3) * 1 cancel, so the co-spectrum vanishes at lambda -> 0
    m = ModelSpec((ar1(0.5, 1.0), ar1(-0.5, 1.0)), (white(1.0), white(1.0)),
                  CovarianceSpec(variances=(1, 9, 1, 9), covariances={(1, 3): 1.0, (2, 4): -3.0}))
    rep = theoretical_exponents(m)
    assert (rep.H_xy, rep.dominating_pair) == (0.5, None)
    assert abs(cross_spectrum(m, np.array([1e-6]))[0].real) < 1e-11  # each term's is of order 1
    rep = theoretical_exponents(ModelSpec(m.x_components, m.y_components, CovarianceSpec(
        variances=(1, 9, 1, 9), covariances={(1, 3): 1.0, (2, 4): -2.0})))
    assert (rep.H_xy, rep.dominating_pair) == (0.5, (1, 3))


def test_process_sigma_approaches_weight_sum_limit():
    """Process sigmas equal the closed-form weight-sum limits.

    Preset 3: sigma_x^2 = S(0.4) + 1; preset 1: 0.04 S(0.4) + S(0.3),
    with S(d) = sum_k a_k(d)^2.  Truncated weight sums climb toward the
    limit from below and never reach it.
    """
    rep3 = theoretical_exponents(model3())
    limit3 = math.sqrt(squared_sum_limit(0.4) + 1.0)
    assert rep3.sigma_x == rep3.sigma_y
    assert rep3.sigma_x == pytest.approx(limit3, rel=1e-13)

    rep1 = theoretical_exponents(model1())
    limit1 = math.sqrt(0.04 * squared_sum_limit(0.4) + squared_sum_limit(0.3))
    assert rep1.sigma_x == pytest.approx(limit1, rel=1e-13)

    comp = model3().x_components[0]
    cut = [math.sqrt(float(comp.ma_coefficients(K) @ comp.ma_coefficients(K)) + 1.0)
           for K in (1000, 10_000, 100_000)]
    assert cut[0] < cut[1] < cut[2] < rep3.sigma_x


@pytest.mark.parametrize("make", [model1, model2, model3, mixed_model])
def test_theory_matches_oracle(make):
    """sigma and rho(k) at lags -1000..1000 against the scipy closed forms."""
    model = make()
    rep = theoretical_exponents(model)
    assert rep.sigma_x == pytest.approx(math.sqrt(limit_cross_cov(model, "x", "x", [0])[0]), abs=1e-12)
    assert rep.sigma_y == pytest.approx(math.sqrt(limit_cross_cov(model, "y", "y", [0])[0]), abs=1e-12)
    got = theoretical_ccf(model, max_lag=1000)
    assert np.max(np.abs(got - limit_ccf(model, np.arange(-1000, 1001)))) <= 1e-12


# ----------------------------------------------------------------------
# simulation
# ----------------------------------------------------------------------


def test_simulate_deterministic_and_sized():
    s1 = simulate(model1(), T=300, seed=42)
    s2 = simulate(model1(), T=300, seed=42)
    s3 = simulate(model1(), T=300, seed=43)
    assert len(s1) == 300
    assert s1.seed == 42 and s1.truncation == 10_000
    assert np.array_equal(s1.x, s2.x) and np.array_equal(s1.y, s2.y)
    assert not np.array_equal(s1.x, s3.x)


def test_simulate_default_truncation_grows_with_T():
    # M = max(T, 1e4) is fixed: a simulation depends on the model, T and seed only
    assert simulate(model3(), T=200, seed=0).truncation == 10_000
    assert simulate(model3(), T=12_000, seed=0).truncation == 12_000


@pytest.mark.parametrize("T", [200, 3000])
@pytest.mark.parametrize("name", sorted(PRESETS))
def test_simulate_matches_direct_convolution(name, T):
    """Each series is sum_c w_c (a_c * stream_c), summed directly by np.convolve.

    The reference draws the same T + M innovations and filters every
    component with its M + 1 weights, white noise with the identity
    filter a = (1, 0, ..., 0), keeping the T outputs of "valid" mode.
    """
    model = PRESETS[name]()
    seed = 11
    M = max(T, 10_000)
    streams = sample(model.covariance, T + M, seed)

    def taps(c):
        if c.kind == "ar1":
            return ar1_weights(c.param, M)
        return ma_weights(c.memory, M)

    def direct(comps, first):
        # stream i drives component i of x_components + y_components
        return sum(c.weight * np.convolve(streams[i - 1], taps(c), "valid") for i, c in enumerate(comps, first))

    s = simulate(model, T, seed)
    for got, ref in ((s.x, direct(model.x_components, 1)), (s.y, direct(model.y_components, 3))):
        assert got.shape == ref.shape == (T,)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


# the README's inline model: AR(1) and white terms, and sigma_14 as well as sigma_23
README_MODEL = ModelSpec(
    x_components=(fractional(0.35, 1.0), ar1(-0.2, 0.5)),
    y_components=(white(2.0), fractional(0.1, 1.0)),
    covariance=CovarianceSpec(variances=(1.0, 4.0, 1.0, 1.0), covariances={(2, 3): 0.25, (1, 4): -0.1}),
)


@pytest.mark.parametrize("sizes", [(999, 3000, 100_000), (100_000, 3000, 999)])
@pytest.mark.parametrize("name", [*sorted(PRESETS), "readme"])
def test_simulate_is_the_fft_convolve_formula_to_the_bit(name, sizes):
    """Each side is its white terms sum_c w_c stream_c[M : M + T], plus one
    irfft at nfft = _smooth_length(T + M) of sum_c w_c rfft(stream_c) rfft(a_c)
    over its other terms, keeping M : M + T; bit for bit.  The formula is an
    FFT convolution, circular at nfft, not the linear one of the test oracle
    protocol_expectations.fft_convolve.

    One model is drawn at three lengths in a row, in both orders, so a
    weight spectrum cached for one T, M or nfft and reused at another fails.
    """
    model = README_MODEL if name == "readme" else PRESETS[name]()
    seed = 5
    for T in sizes:
        M = max(T, 10_000)
        nfft = _smooth_length(T + M)
        streams = sample(model.covariance, T + M, seed)
        ref = []
        for comps in (enumerate(model.components[:2]), enumerate(model.components[2:], 2)):
            comps = [(i, c) for i, c in comps if c.weight != 0.0]
            side = sum((c.weight * streams[i][M : M + T] for i, c in comps if c.kind == "white"), np.zeros(T))
            spectrum = sum(
                (
                    c.weight * (np.fft.rfft(streams[i], nfft) * np.fft.rfft(c.ma_coefficients(M), nfft))
                    for i, c in comps
                    if c.kind != "white"
                ),
                np.zeros(nfft // 2 + 1, dtype=complex),
            )
            ref.append(side + np.fft.irfft(spectrum, nfft)[M : M + T])
        s = simulate(model, T, seed)
        assert np.array_equal(s.x, ref[0]) and np.array_equal(s.y, ref[1])


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_simulate_fft_length_is_exactly_T_plus_M_at_T_1e4(name):
    """At T = 1e4 the circular length T + M = 20,000 is itself 5-smooth, so
    nfft leaves no slack: the first and last kept outputs, whose windows
    reach the stream's first and last samples, match their direct sums."""
    model = PRESETS[name]()
    T = M = 10_000
    assert models.weight_spectra(model, T)[1] == T + M
    streams = sample(model.covariance, T + M, 3)
    s = simulate(model, T, 3)
    for side, first in ((s.x, 0), (s.y, 2)):
        taps = [(i, c.weight, c.ma_coefficients(M)) for i, c in enumerate(model.components[first : first + 2], first)]
        for t in (0, T - 1):
            # kept output t is sum_k a_k stream[t + M - k]
            ref = sum(w * np.dot(a, streams[i, t + M + 1 - a.size : t + M + 1][::-1]) for i, w, a in taps)
            assert abs(side[t] - ref) <= 1e-12 * np.max(np.abs(side))


def test_weight_spectra_are_read_only_and_one_model_at_most():
    for make in PRESETS.values():
        simulate(make(), 999, seed=1)
    info = models._weight_spectrum.cache_info()
    assert 0 < info.currsize <= 4
    spectrum = models._weight_spectrum("fractional", 0.4, 10_000, 21_600)
    assert not spectrum.flags.writeable
    with pytest.raises(ValueError):
        spectrum[0] = 0.0


def test_simulate_reuses_the_factor_of_a_built_model(monkeypatch):
    # the spec is factored once, when it is built; no draw factors it again
    model = model1()
    calls = []

    def counting(spec, *args, **kwargs):
        calls.append(spec)
        return cholesky_factor(spec, *args, **kwargs)

    monkeypatch.setattr(innovations, "cholesky_factor", counting)
    simulate(model, 500, seed=1)
    simulate(model, 500, seed=2)
    assert calls == []
    CovarianceSpec()  # the counter sees a construction
    assert len(calls) == 1


def test_simulate_x_independent_of_y_definition():
    # same seed, same covariance: redefining the y side cannot move x
    base = model3()
    other = ModelSpec(
        x_components=base.x_components,
        y_components=(ar1(0.7, 2.0), fractional(0.1, 1.0)),
        covariance=base.covariance,
    )
    a = simulate(base, T=400, seed=9)
    b = simulate(other, T=400, seed=9)
    assert np.array_equal(a.x, b.x)
    assert not np.array_equal(a.y, b.y)


def test_simulate_rejects_bad_arguments():
    with pytest.raises(ValueError):
        simulate(model1(), T=0, seed=1)
    with pytest.raises(ValueError):
        simulate(model1(), T=-3, seed=1)


def test_series_is_read_only():
    s = simulate(model2(), T=50, seed=1)
    with pytest.raises(ValueError):
        s.x[0] = 0.0


def test_series_stays_read_only_through_a_pickle():
    # a user's pickled copy of a series stays read-only, as the original is
    s = simulate(model2(), T=50, seed=1)
    again = pickle.loads(pickle.dumps(s))
    assert np.array_equal(again.x, s.x) and np.array_equal(again.y, s.y)
    assert (again.seed, again.model, again.truncation) == (s.seed, s.model, s.truncation)
    assert not again.x.flags.writeable and not again.y.flags.writeable


def test_simulated_variance_short_memory():
    """Sample variances of purely short-memory builds hit their closed forms.

    x = z1 + 0.5 z2 (white): var 1.25.  y = AR1(0.5): var 1/(1 - 0.25).
    Short memory means the sample variance concentrates fast.
    """
    m = ModelSpec(
        x_components=(white(1.0), white(0.5)),
        y_components=(ar1(0.5, 1.0), white(0.0)),
        covariance=CovarianceSpec(),
    )
    acc_x = acc_y = 0.0
    for seed in range(5):
        s = simulate(m, T=100_000, seed=seed)
        acc_x += s.x.var()
        acc_y += s.y.var()
    assert acc_x / 5 == pytest.approx(1.25, rel=0.02)
    assert acc_y / 5 == pytest.approx(1.0 / 0.75, rel=0.02)


def test_simulated_variance_fractional():
    # long memory inflates the variance estimator noise, so average seeds
    # and compare against the truncated weight sum, not the K = inf limit
    target = float(np.sum(np.asarray(fractional(0.4, 1.0).ma_coefficients(20_000)) ** 2))
    acc = 0.0
    for seed in range(10):
        s = simulate(model3(), T=20_000, seed=seed)
        acc += s.x.var()
    assert acc / 10 == pytest.approx(target + 1.0, rel=0.10)


def test_simulated_contemporaneous_correlation():
    # preset 3 couples x and y only at lag zero, rho(0) ~ 0.9 / 3.07
    s = simulate(model3(), T=100_000, seed=42)
    xc = s.x - s.x.mean()
    yc = s.y - s.y.mean()
    r0 = float(xc @ yc) / (len(s) * xc.std() * yc.std())
    assert abs(r0 - 0.293) < 0.06


# ----------------------------------------------------------------------
# theoretical CCF
# ----------------------------------------------------------------------


@pytest.mark.parametrize("make", [model2, model3])
def test_theoretical_ccf_matches_brute_force(make):
    # the coupled cross pairs are ar1 x ar1 (preset 2) and white x white
    # (preset 3), whose finite lead-lag sums are exact at K = 300
    model = make()
    rep = theoretical_exponents(model)
    got = theoretical_ccf(model, max_lag=10) * rep.sigma_x * rep.sigma_y
    ref = brute_cross_cov(model, (2,), (3,), 10, 300)
    assert np.allclose(got, ref, rtol=1e-12, atol=1e-14)


def test_theoretical_ccf_brute_force_all_pairs_coupled():
    # every cross pair at once, with negative thetas and covariances; ar1 and
    # white only, so the brute-force sigmas are exact as well
    m = ModelSpec(
        x_components=(ar1(0.7, 1.0), white(0.5)),
        y_components=(ar1(-0.4, 2.0), ar1(0.3, 1.0)),
        covariance=CovarianceSpec(
            covariances={(1, 2): 0.4, (1, 3): 0.3, (1, 4): -0.2, (2, 3): 0.5, (2, 4): 0.1}
        ),
    )
    x, y = (1, 2), (3, 4)
    ref = brute_cross_cov(m, x, y, 7, 250) / math.sqrt(
        brute_cross_cov(m, x, x, 0, 250)[0] * brute_cross_cov(m, y, y, 0, 250)[0]
    )
    assert np.allclose(theoretical_ccf(m, max_lag=7), ref, rtol=1e-12, atol=1e-14)


THETAS = (-0.99999, -0.9999, -0.99, -0.9, -0.5, -0.1, 0.1, 0.5, 0.9, 0.99, 0.9999, 0.99999)


@pytest.mark.parametrize("d", [0.05, 0.4, 0.49])
def test_fractional_leading_ar1_sums_match_mpmath(d):
    # c_k = a_k(d) 2F1(1, k+d; k+1; theta), at 40 digits, out to |theta| = 0.99999
    import mpmath

    for theta in THETAS:
        got = lead_lag_sums(fractional(d, 1.0), ar1(theta, 1.0), 200)
        for k in (0, 1, 2, 5, 10, 50, 100, 200):
            with mpmath.workdps(40):
                a_k = mpmath.gamma(k + d) / (mpmath.gamma(d) * mpmath.factorial(k))
                want = float(a_k * mpmath.hyp2f1(1, k + d, k + 1, theta))
            assert got[k] == pytest.approx(want, rel=5e-13, abs=0.0), (theta, k)
    # white noise leading, the fractional d = 0 case, stays exact
    assert lead_lag_sums(white(1.0), ar1(-0.9, 1.0), 5).tolist() == [1.0, 0.0, 0.0, 0.0, 0.0, 0.0]


@pytest.mark.parametrize("theta", [0.99999, -0.99999])
def test_fractional_leading_ar1_sums_take_bounded_time(theta):
    start = time.perf_counter()
    lead_lag_sums(fractional(0.4, 1.0), ar1(theta, 1.0), 1000)
    assert time.perf_counter() - start < 1.0


# one call in a fresh interpreter: prints its rise in peak resident set, in KiB
_LEAD_LAG_PEAK = (
    "import resource, sys\n"
    "from crossarfima.models import ar1, fractional, lead_lag_sums\n"
    "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
    "lead_lag_sums(fractional(0.4, 1.0), ar1(float(sys.argv[1]), 1.0), 1000)\n"
    "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)\n"
)


@pytest.mark.parametrize("theta", [0.99999, -0.99999])
def test_fractional_leading_ar1_sums_take_bounded_memory(theta):
    # c_L's series has about 4.8 million terms here, 37 MB a float array, so
    # it must be summed without holding it whole; under 20 MB above start-up
    src = str(Path(models.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-c", _LEAD_LAG_PEAK, str(theta)],
                          capture_output=True, text=True, env=env, check=True)  # fmt: skip
    assert int(proc.stdout) / 1024 < 20.0


def test_theoretical_ccf_model3_is_a_spike():
    # white x white is the only coupled pair: exactly zero off lag 0
    vals = theoretical_ccf(model3(), max_lag=20)
    assert np.all(vals[:20] == 0.0) and np.all(vals[21:] == 0.0)
    rep = theoretical_exponents(model3())
    assert vals[20] == pytest.approx(0.9 / (rep.sigma_x * rep.sigma_y), rel=1e-12)


def test_theoretical_ccf_limit_value_model3():
    """rho(0) = sigma_23 / (S(0.4) + 1), the untruncated limit itself."""
    limit = 0.9 / (squared_sum_limit(0.4) + 1.0)
    assert theoretical_ccf(model3(), max_lag=0)[0] == pytest.approx(limit, rel=1e-13)


def test_theoretical_ccf_model1_symmetry():
    # mirrored composition (streams 2,3 share d = 0.3) makes rho even in the lag
    vals = theoretical_ccf(model1(), max_lag=50)
    assert np.allclose(vals, vals[::-1], rtol=1e-12, atol=1e-14)


def test_theoretical_ccf_is_bounded():
    for make in (model1, model2, model3):
        vals = theoretical_ccf(make(), max_lag=30)
        assert np.max(np.abs(vals)) <= 1.0 + 1e-9


def test_theoretical_ccf_power_decay():
    # dominating (d2, d3) = (0.3, 0.3) pair gives rho(k) ~ k^(-0.4)
    vals = theoretical_ccf(model1(), max_lag=1000)
    lags = np.arange(100, 1001)
    slope = np.polyfit(np.log(lags), np.log(vals[1000 + 100 : 1000 + 1001]), 1)[0]
    assert abs(slope - (-0.4)) < 0.05


def test_theoretical_ccf_rejects_zero_variance():
    m = ModelSpec(
        x_components=(white(0.0), white(0.0)),
        y_components=(white(1.0), white(1.0)),
        covariance=CovarianceSpec(),
    )
    with pytest.raises(ValueError, match="variance"):
        theoretical_ccf(m, max_lag=0)


def test_theoretical_ccf_rejects_negative_max_lag():
    # the check sample_ccf and the config make, with the same message
    with pytest.raises(ValueError, match=r"^max_lag: must be >= 0, got -1$"):
        theoretical_ccf(model1(), max_lag=-1)


def test_comparison_model2_tails():
    """Beyond lag 30 the preset-2 theory is tiny; the sample is only noise-tiny.

    The theoretical tail is below 2e-2 by a wide margin (the AR1 core
    decays geometrically and the d = 0.4 shells are uncoupled).  The
    sample tail carries Bartlett noise inflated by the marginal long
    memory, so it only obeys a looser 0.12 envelope at this length.
    """
    s = simulate(model2(), T=10_000, seed=42)
    sample = sample_ccf(s.x, s.y, 100)
    theory = theoretical_ccf(s.model, max_lag=100)
    # one float per lag -100..100 in both
    assert sample.dtype == theory.dtype == float and sample.shape == theory.shape == (201,)
    tail = np.abs(np.arange(-100, 101)) > 30
    assert np.max(np.abs(theory[tail])) < 0.02
    assert np.max(np.abs(sample[tail])) < 0.12


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
    sample = sample_ccf(s.x, s.y, 50)
    theory = theoretical_ccf(s.model, max_lag=50)
    off = np.arange(-50, 51) != 0
    assert np.all(theory[off] == 0.0)
    assert np.max(np.abs(sample[off])) < 0.05
    assert sample[50] > 0.25
    cov = protocol_covariances(s.model, len(s), s.truncation)
    bias = expected_sample_ccf(cov, len(s), [0])[0] - theory[50]
    assert 0.0 < bias < 0.03
    assert abs(sample[50] - theory[50]) < 3 / math.sqrt(len(s)) + bias


# ----------------------------------------------------------------------
# cross spectrum
# ----------------------------------------------------------------------


def polar_spectrum(model, lam):
    """Independent closed form via 1 - e^{il} = 2 sin(l/2) e^{i(l-pi)/2}."""
    out = 0j
    for i, ci in enumerate(model.x_components, 1):
        for j, cj in enumerate(model.y_components, 3):
            s = model.covariance.sigma(i, j)
            w = ci.weight * cj.weight * s
            if w == 0.0:
                continue
            di, dj = ci.param, cj.param
            mag = (2.0 * math.sin(lam / 2.0)) ** (-(di + dj))
            phase = (dj - di) * (lam - math.pi) / 2.0
            out += w * mag * complex(math.cos(phase), math.sin(phase))
    return out / (2.0 * math.pi)


def test_cross_spectrum_matches_polar_form():
    base = model1()
    skew = ModelSpec(  # asymmetric memory so the spectrum picks up a phase
        x_components=(fractional(0.4, 1.0), fractional(0.1, 0.5)),
        y_components=(fractional(0.2, 1.0), fractional(0.0, 1.0)),
        covariance=CovarianceSpec(covariances={(1, 3): 0.6, (2, 4): -0.3}),
    )
    for model in (base, skew):
        for lam in (1e-4, 0.01, 0.5, np.pi / 2, np.pi):
            got = cross_spectrum(model, lam)
            ref = polar_spectrum(model, lam)
            assert got == pytest.approx(ref, rel=1e-12)


def test_cross_spectrum_model1_is_real_positive():
    # only the symmetric (0.3, 0.3) pair is coupled, so the phase cancels
    lam = np.geomspace(1e-4, np.pi, 50)
    f = cross_spectrum(model1(), lam)
    assert f.shape == lam.shape
    assert np.max(np.abs(f.imag)) < 1e-15 * np.max(np.abs(f.real))
    assert np.all(f.real > 0.0)


def test_cross_spectrum_scalar_vs_array():
    f1 = cross_spectrum(model1(), 0.3)
    farr = cross_spectrum(model1(), np.array([0.3]))
    assert np.isscalar(f1) or farr.shape == (1,)
    assert farr[0] == f1


def test_cross_spectrum_low_frequency_slope():
    lam = np.geomspace(1e-4, 1e-2, 40)
    f = np.abs(cross_spectrum(model1(), lam))
    slope = np.polyfit(np.log(lam), np.log(f), 1)[0]
    assert abs(slope - (-0.6)) < 0.02


def test_cross_spectrum_domain_checks():
    with pytest.raises(ValueError):
        cross_spectrum(model1(), 0.0)
    with pytest.raises(ValueError):
        cross_spectrum(model1(), np.pi + 1e-9)
    with pytest.raises(ValueError):
        cross_spectrum(model1(), np.array([0.1, -0.2]))


def fractional_ar1_model():
    # fractional x shell coupled to an ar1 y core, both lag directions
    return ModelSpec(
        x_components=(fractional(0.3, 1.0), white(0.5)),
        y_components=(ar1(0.6, 1.0), white(1.0)),
        covariance=CovarianceSpec(covariances={(1, 3): 0.7}),
    )


@pytest.mark.parametrize(
    "make, rel",
    [(model2, 1e-12), (model3, 1e-12), (fractional_ar1_model, 1e-3)],
    ids=["model2", "model3", "fractional_ar1"],
)
def test_cross_spectrum_matches_double_sum(make, rel):
    """Mixed models against the double sum over weights cut at N = 2e5.

    ar1 and white weights are exact there; the fractional shell's cut
    leaves an error of order N^(d-1), so that model gets criterion 7's
    1e-3.
    """
    model = make()
    for lam in (np.pi / 4, np.pi / 2, np.pi):
        ref = truncated_cross_spectrum(model, lam, 200_000)
        assert cross_spectrum(model, lam) == pytest.approx(ref, rel=rel)


def test_covariance_admissibility_surfaces_in_simulate():
    # |sigma_23| > sigma_2 sigma_3 cannot be built, so no model with it reaches
    # simulate or the theory, where rho(0) would exceed 1
    with pytest.raises(NotPositiveSemiDefiniteError):
        CovarianceSpec(covariances={(2, 3): 1.2})
