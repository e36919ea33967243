"""Shared fixtures: the replicated estimation study reused across test files."""

import time
import warnings

import numpy as np
import pytest

from crossarfima.errors import CrossArfimaError
from crossarfima.cli import STACK_ROWS
from crossarfima.estimators import fit_hurst, sample_ccf, stacked_fluctuations
from crossarfima.models import PRESETS, simulate

N_REPS = 100
BASE_SEED = 42
SERIES_LENGTH = 10_000
# replications per stacked pass: the CLI's experiment chunk at this T (10)
STACK_REPS = STACK_ROWS // SERIES_LENGTH

# experiment protocol: DFA stops at T/20 to stay clear of the finite-size
# saturation regime, DCCA keeps the wider T/5 window, HXA uses lags 1..T/100
DFA_WINDOW = dict(s_min=10, s_max=500, step=10)
DCCA_WINDOW = dict(s_min=10, s_max=2000, step=10)
HXA_WINDOW = dict(tau_min=1, tau_max=100)
CCF_MAX_LAG = 20


def _quiet_fit(fluct):
    # failures (all-negative fluctuations, too few points) become NaN rows
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            return fit_hurst(fluct).exponent
        except (CrossArfimaError, ValueError):
            return np.nan


# fluctuation curve -> the study's key for its fitted exponent
EXPONENT_KEYS = {"dfa_x": "dfa_hx", "dfa_y": "dfa_hy", "dcca": "dcca", "hxa": "hxa"}


def _drawn_pairs(model, seeds, truncations):
    """(x, y) of each seed's draw, made as the stack reaches it; each draw's MA cut M is added to truncations."""
    for seed in seeds:
        s = simulate(model, T=SERIES_LENGTH, seed=seed)
        truncations.add(s.truncation)
        yield s.x, s.y


@pytest.fixture(scope="session")
def study():
    """Monte Carlo estimates for every preset: 100 reps of T = 1e4, seeds 42..141.

    Per replication and model this records the DFA exponents of both
    margins, the DCCA and HXA cross exponents, and (for preset 1) the
    sample CCF out to lag 20.  It also keeps the fluctuation curves the
    exponents were fitted to: ``fluct[key]`` is a (reps, scales) array
    over ``scales[key]`` for key in dfa_x, dfa_y, dcca and hxa.  ``T``
    and ``truncation`` (the MA cut M of every simulation) let a test
    compute what the protocol predicts for these statistics.  Several
    acceptance checks and the preset-ordering tests all read from this
    one study.  The replications run as the CLI's experiment runs them:
    one stacked pass per chunk of STACK_REPS seeds, each drawn when the
    pass reaches it.
    """
    t0 = time.perf_counter()
    out = {}
    for name, make in PRESETS.items():
        model = make()
        rows = {k: [] for k in EXPONENT_KEYS.values()}
        curves = {k: [] for k in EXPONENT_KEYS}
        ccfs = []
        truncations = set()
        ccf = {"max_lag": CCF_MAX_LAG} if name == "model1" else None
        seeds = range(BASE_SEED, BASE_SEED + N_REPS)
        for i in range(0, N_REPS, STACK_REPS):
            pairs = _drawn_pairs(model, seeds[i : i + STACK_REPS], truncations)
            for pair in stacked_fluctuations(pairs, dfa=DFA_WINDOW, dcca=DCCA_WINDOW, hxa=HXA_WINDOW, ccf=ccf):
                fluct = {"dfa_x": pair["x"], "dfa_y": pair["y"], "dcca": pair["xy"], "hxa": pair["hxa"]}
                for key, f in fluct.items():
                    curves[key].append(f.values)
                    rows[EXPONENT_KEYS[key]].append(_quiet_fit(f))
                if ccf:
                    ccfs.append(pair["ccf"])
        out[name] = {k: np.asarray(v) for k, v in rows.items()}
        out[name]["fluct"] = {k: np.vstack(v) for k, v in curves.items()}
        out[name]["scales"] = {k: f.scales for k, f in fluct.items()}
        out[name]["T"] = SERIES_LENGTH
        (out[name]["truncation"],) = truncations
        if ccfs:
            out[name]["ccf"] = np.vstack(ccfs)
    out["seconds"] = time.perf_counter() - t0
    return out


@pytest.fixture(scope="session")
def model3_long_ccf():
    """One long preset-3 realization (T = 1e6, seed 42).

    Yields its sample CCF at lags -100..100 (``ccf``), its length
    (``T``), the ddof-0 standard deviations ``sigma_x`` and ``sigma_y``
    that normalize it, and the simulation truncation M (``truncation``).
    """
    s = simulate(PRESETS["model3"](), T=1_000_000, seed=42)
    return {
        "ccf": sample_ccf(s.x, s.y, 100),
        "T": len(s),
        "sigma_x": float(np.std(s.x)),
        "sigma_y": float(np.std(s.y)),
        "truncation": s.truncation,
    }
