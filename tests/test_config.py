"""INI experiment configs: parsing, defaults, validation, round-trips."""

import inspect
import re
from dataclasses import replace

import pytest

from crossarfima import estimators
from crossarfima.cli import COMMAND_SETTINGS, _config_from_args, build_parser
from crossarfima.config import (
    ESTIMATOR_NAMES,
    SETTINGS,
    WINDOWS,
    ExperimentConfig,
    check_windows,
    default_config,
    parse_config,
    serialize_config,
    validate_config,
)
from crossarfima.errors import ConfigError
from crossarfima.estimators import dcca, dfa, hxa, sample_ccf
from crossarfima.models import model2

MINIMAL = "[experiment]\nmodel = model1\n"

INLINE = """
[experiment]
model = inline
t = 4000
replications = 7
base_seed = 5

[component.x1]
kind = fractional
weight = 1.0
param = 0.35

[component.x2]
kind = ar1
weight = 0.5
param = -0.2

[component.y1]
kind = white
weight = 2.0

[component.y2]
kind = fractional
weight = 1.0
param = 0.1

[covariance]
var_2 = 4.0
sigma_23 = 0.25
sigma_14 = -0.1
"""


# ----------------------------------------------------------------------
# defaults and parsing
# ----------------------------------------------------------------------


def test_minimal_config_fills_every_default():
    cfg = parse_config(MINIMAL)
    assert cfg.model_name == "model1"
    assert cfg.T == 10_000
    assert cfg.replications == 100
    assert cfg.base_seed == 42
    assert cfg.estimators == ("dfa", "dcca", "hxa")
    assert cfg.window("dfa") == {"s_min": 10, "s_max": 500, "step": 10, "detrend_order": 1}
    assert cfg.window("dcca") == {"s_min": 10, "s_max": 2000, "step": 10, "detrend_order": 1}
    assert cfg.detrend_order == 1
    assert cfg.window("hxa") == {"tau_min": 1, "tau_max": 100}
    assert cfg.window("ccf") == {"max_lag": 100}
    assert cfg.output_dir == "out"


def test_scale_defaults_follow_T():
    cfg = parse_config("[experiment]\nmodel = model2\nt = 40000\n")
    assert cfg.window("dfa")["s_max"] == 2000  # T/20
    assert cfg.window("dcca")["s_max"] == 8000  # T/5


def test_an_unset_window_setting_reads_none_and_follows_the_length():
    # one config serves every length: a T-scaled setting that is not set reads None,
    # and window() applies its default rule at the config's T
    cfg = parse_config(MINIMAL)
    assert (cfg.dcca_s_max, cfg.dfa_s_max, cfg.hxa_tau_max, cfg.ccf_max_lag) == (None,) * 4
    at = replace(cfg, T=40_000)
    assert at.window("dfa")["s_max"] == 2000
    assert at.window("dcca")["s_max"] == 8000
    assert at.window("hxa")["tau_max"] == 100
    assert at.window("ccf")["max_lag"] == 100
    assert replace(cfg, T=150).window("ccf") == {"max_lag": 74}
    # a set one stays as set at every length
    pinned = parse_config(MINIMAL + "[hxa]\ntau_max = 30\n")
    for T in (500, 40_000):
        assert replace(pinned, T=T).window("hxa") == {"tau_min": 1, "tau_max": 30}


def test_estimator_list_is_canonicalized():
    cfg = parse_config("[experiment]\nestimators = hxa,dfa\n")
    assert cfg.estimators == ("dfa", "hxa")  # canonical order, not input order
    cfg = parse_config("[experiment]\nestimators = CCF, dcca\n")
    assert cfg.estimators == ("dcca", "ccf")


def test_seed_schedule():
    cfg = default_config("model1", replications="3", base_seed="42")
    assert cfg.seeds() == [42, 43, 44]


def test_inline_model_parsing():
    cfg = parse_config(INLINE)
    assert cfg.model_name == "inline"
    assert cfg.T == 4000 and cfg.replications == 7 and cfg.base_seed == 5
    comps = cfg.model.components
    assert [c.kind for c in comps] == ["fractional", "ar1", "white", "fractional"]
    assert [c.weight for c in comps] == [1.0, 0.5, 2.0, 1.0]
    assert comps[1].param == -0.2
    assert comps[2].param == 0.0
    assert cfg.model.covariance.variances == (1.0, 4.0, 1.0, 1.0)
    assert cfg.model.covariance.sigma(2, 3) == 0.25
    assert cfg.model.covariance.sigma(1, 4) == -0.1


def test_overrides_beat_file_values_and_defaults():
    cfg = parse_config(MINIMAL, overrides={("experiment", "t"): "20000"})
    assert cfg.T == 20_000
    assert cfg.window("dcca")["s_max"] == 4000  # recomputed from the overridden T
    cfg = parse_config(
        "[experiment]\nmodel = model1\nt = 500\n",
        overrides={("experiment", "t"): "1000", ("hxa", "tau_max"): "80"},
    )
    assert cfg.T == 1000 and cfg.window("hxa")["tau_max"] == 80


def test_default_config_helper():
    cfg = default_config("model2", t="2000")
    assert cfg.model_name == "model2"
    assert cfg.model == model2()
    assert cfg.T == 2000


def test_default_config_takes_values_as_well_as_text():
    assert default_config("model2", t=2000) == default_config("model2", t="2000")
    assert default_config(t=10000).window("dfa") == {"s_min": 10, "s_max": 500, "step": 10, "detrend_order": 1}
    with pytest.raises(ConfigError, match=r"^\[experiment\] t: expected an integer, got 'None'$"):
        default_config(t=None)


# ----------------------------------------------------------------------
# rejections
# ----------------------------------------------------------------------


def test_rejects_missing_experiment_section():
    with pytest.raises(ConfigError, match=r"\[experiment\]"):
        parse_config("[dfa]\nstep = 5\n")


def test_rejects_malformed_ini():
    with pytest.raises(ConfigError, match="malformed"):
        parse_config("model = model1\n")  # key before any section header


def test_rejects_unknown_section():
    with pytest.raises(ConfigError, match="unknown section"):
        parse_config(MINIMAL + "[plotting]\nstyle = dark\n")


def test_rejects_unknown_model():
    with pytest.raises(ConfigError, match="model"):
        parse_config("[experiment]\nmodel = model9\n")


def test_rejects_non_integer_field():
    with pytest.raises(ConfigError, match=r"\[experiment\] t: expected an integer"):
        parse_config("[experiment]\nt = ten\n")


def test_the_model_is_read_before_the_other_settings():
    # the model's error is reported, not that of a setting read after it
    with pytest.raises(ConfigError, match=r"^\[experiment\] model: unknown name 'bogus'"):
        parse_config("[experiment]\nmodel = bogus\nt = abc\n")
    with pytest.raises(ConfigError, match=r"^inline model needs a \[component.x1\] section$"):
        parse_config("[experiment]\nmodel = inline\nt = abc\nreplications = 0\n")


def test_rejects_short_series():
    with pytest.raises(ConfigError, match="T"):
        parse_config("[experiment]\nt = 50\n")


def test_rejects_bad_estimators():
    with pytest.raises(ConfigError, match="unknown name"):
        parse_config("[experiment]\nestimators = dfa, wavelet\n")
    with pytest.raises(ConfigError, match="at least one"):
        parse_config("[experiment]\nestimators =\n")


def test_rejects_inconsistent_scales():
    # a window parses, and check_windows refuses it where its estimator runs
    with pytest.raises(ConfigError, match="dcca.s_max"):
        check_windows(parse_config(MINIMAL + "[dcca]\ns_max = 6000\n"))  # above T/2
    with pytest.raises(ConfigError, match="dfa.s_min"):
        check_windows(parse_config(MINIMAL + "[dfa]\ns_min = 2\n"))
    with pytest.raises(ConfigError, match="hxa.tau_max"):
        check_windows(parse_config(MINIMAL + "[hxa]\ntau_max = 1500\n"))
    with pytest.raises(ConfigError, match="ccf.max_lag"):
        check_windows(parse_config("[experiment]\nestimators = ccf\nt = 1000\n[ccf]\nmax_lag = 600\n"))
    with pytest.raises(ConfigError, match="fluctuation.detrend_order: must be >= 0"):
        parse_config(MINIMAL + "[fluctuation]\ndetrend_order = -1\n")


def test_windows_are_checked_only_for_the_estimators_that_run():
    both = parse_config(MINIMAL + "[dfa]\ns_min = 2\n[dcca]\nstep = 0\n")
    with pytest.raises(ConfigError, match=r"^dfa.s_min: must be >= detrend_order \+ 2 = 3, got 2$"):
        check_windows(both)  # the table's order: DFA's message wins over DCCA's
    with pytest.raises(ConfigError, match=r"^dcca.step: must be >= 1, got 0$"):
        check_windows(replace(both, estimators=("dcca", "hxa")))
    check_windows(replace(both, estimators=("hxa", "ccf")))
    # a negative max_lag is refused whichever estimators run: theory reads it
    with pytest.raises(ConfigError, match=r"^ccf.max_lag: must be >= 0, got -1$"):
        parse_config(MINIMAL + "[ccf]\nmax_lag = -1\n")
    parse_config(MINIMAL + "[ccf]\nmax_lag = 5000\n")  # T > 2*max_lag only where the CCF runs


def test_window_gives_each_estimator_its_keyword_arguments():
    cfg = parse_config(MINIMAL + "[fluctuation]\ndetrend_order = 2\n")
    assert cfg.window("dfa") == {"s_min": 10, "s_max": 500, "step": 10, "detrend_order": 2}
    assert cfg.window("dcca") == {"s_min": 10, "s_max": 2000, "step": 10, "detrend_order": 2}
    assert cfg.window("hxa") == {"tau_min": 1, "tau_max": 100}
    assert cfg.window("ccf") == {"max_lag": 100}
    # each key names a parameter of the estimator and of its sizer
    calls = {"dfa": dfa, "dcca": dcca, "hxa": hxa, "ccf": sample_ccf}
    assert tuple(WINDOWS) == ESTIMATOR_NAMES == tuple(calls)
    for name in WINDOWS:
        sizer = estimators._ESTIMATORS[name][1]
        assert set(cfg.window(name)) <= set(inspect.signature(calls[name]).parameters), name
        assert set(inspect.signature(sizer).parameters) == {*cfg.window(name), "T"}, name


def test_rejects_removed_theory_section():
    # theory is exact: an old [theory] ccf_truncation key has nothing to set
    with pytest.raises(ConfigError, match=r"unknown section \[theory\]"):
        parse_config(MINIMAL + "[theory]\nccf_truncation = 100000\n")


def test_rejects_removed_simulation_section():
    # simulation cuts at the fixed M = max(T, 1e4): [simulation] truncation is gone
    with pytest.raises(ConfigError, match=r"unknown section \[simulation\]"):
        parse_config(MINIMAL + "[simulation]\ntruncation = 500\n")


def test_rejects_inadmissible_covariance():
    # var_2 = 4, var_3 = 1: |sigma_23| may not exceed 2
    with pytest.raises(ConfigError, match=r"\[covariance\] covariance matrix is not positive"):
        parse_config(INLINE.replace("sigma_23 = 0.25", "sigma_23 = 2.5"))
    with pytest.raises(ConfigError, match=r"\[covariance\] variances must be positive"):
        parse_config(INLINE.replace("var_2 = 4.0", "var_2 = -1.0"))
    edge = parse_config(INLINE.replace("sigma_23 = 0.25", "sigma_23 = 2.0"))
    assert edge.model.covariance.sigma(2, 3) == 2.0  # the PSD boundary is admissible


def test_rejects_bad_inline_model():
    with pytest.raises(ConfigError, match=r"\[component.x1\]"):
        parse_config("[experiment]\nmodel = inline\n")
    bad_kind = INLINE.replace("kind = ar1", "kind = garch")
    with pytest.raises(ConfigError, match="kind 'garch'; use fractional, ar1 or white"):
        parse_config(bad_kind)
    bad_d = INLINE.replace("param = 0.35", "param = 0.6")
    with pytest.raises(ConfigError, match=r"\[component.x1\]"):
        parse_config(bad_d)
    with pytest.raises(ConfigError, match=r"\[covariance\] unknown key 'sigma_32'"):
        parse_config(INLINE + "sigma_32 = 0.1\n")
    with pytest.raises(ConfigError, match=r"\[covariance\] unknown key"):
        parse_config(INLINE + "var_9 = 1.0\n")
    with pytest.raises(ConfigError, match=r"\[covariance\] unknown key"):
        parse_config(INLINE + "rho = 1.0\n")


def test_rejects_param_on_white_component():
    # the white y1 has no param: a given one is an error, not dropped
    with pytest.raises(ConfigError, match=r"\[component.y1\]: white component takes no param, got 0.3"):
        parse_config(with_line("component.y1", "param = 0.3"))
    assert parse_config(with_line("component.y1", "param = 0")) == parse_config(INLINE)


def with_line(section, line):
    """INLINE with one more line in the given section."""
    header = f"[{section}]\n"
    if header in INLINE:
        return INLINE.replace(header, f"{header}{line}\n")
    return f"{INLINE}{header}{line}\n"


@pytest.mark.parametrize(
    "section, key",
    [
        ("experiment", "repliactions"),
        ("dcca", "s_mx"),
        ("dfa", "stpe"),
        ("hxa", "tau_mx"),
        ("ccf", "maxlag"),
        ("fluctuation", "detrend"),
        ("component.x1", "wieght"),
        ("covariance", "sgima_23"),
        ("dcca", "detrend_order"),  # moved to [fluctuation]
    ],
)
def test_rejects_unknown_key_in_every_section(section, key):
    with pytest.raises(ConfigError, match=rf"\[{re.escape(section)}\] unknown key '{key}'"):
        parse_config(with_line(section, f"{key} = 1"))


def test_rejects_model_sections_beside_a_preset():
    # a preset fixes its covariance: sigma_23 here would be dropped, not used
    with pytest.raises(ConfigError, match=r"\[covariance\] is read only for model = inline"):
        parse_config(MINIMAL + "[covariance]\nsigma_23 = 0.1\n")
    with pytest.raises(ConfigError, match=r"\[component.y2\] is read only for model = inline"):
        parse_config(MINIMAL + "[component.y2]\nkind = white\nweight = 1.0\n")


def test_rejects_non_empty_default_section():
    with pytest.raises(ConfigError, match=r"\[DEFAULT\] t: "):
        parse_config("[DEFAULT]\nt = 500\n" + MINIMAL)
    assert parse_config("[DEFAULT]\n" + MINIMAL) == parse_config(MINIMAL)


def test_validate_config_runs_standalone():
    cfg = parse_config(MINIMAL)
    validate_config(cfg)  # no error on a parsed config
    broken = ExperimentConfig(**{**cfg.__dict__, "replications": 0})
    with pytest.raises(ConfigError, match="replications"):
        validate_config(broken)


# ----------------------------------------------------------------------
# serialization round-trips
# ----------------------------------------------------------------------


def test_roundtrip_leaves_unset_window_settings_out():
    cfg = parse_config(MINIMAL)
    text = serialize_config(cfg)
    assert not re.search(r"^(s_max|tau_max|max_lag) =", text, re.MULTILINE), text
    assert "[ccf]" not in text
    assert parse_config(text) == cfg
    assert serialize_config(parse_config(text)) == text


def test_roundtrip_preset():
    cfg = parse_config(MINIMAL, overrides={("experiment", "base_seed"): "7"})
    text = serialize_config(cfg)
    assert parse_config(text) == cfg


def test_roundtrip_inline():
    cfg = parse_config(INLINE)
    text = serialize_config(cfg)
    again = parse_config(text)
    assert again == cfg
    # and the rendered text itself is stable after one round
    assert serialize_config(again) == text


def test_roundtrip_preserves_float_params_exactly():
    odd = INLINE.replace("param = 0.35", "param = 0.123456789012345")
    cfg = parse_config(odd)
    again = parse_config(serialize_config(cfg))
    assert again.model.components[0].param == 0.123456789012345


# ----------------------------------------------------------------------
# the settings table
# ----------------------------------------------------------------------

# one valid value per setting, each different from its default
NON_DEFAULT = {
    "model_name": "model2",
    "T": "4000",
    "replications": "7",
    "base_seed": "9",
    "output_dir": "elsewhere",
    "estimators": "hxa, ccf",
    "dcca_s_min": "12",
    "dcca_s_max": "700",
    "dcca_step": "6",
    "dfa_s_min": "8",
    "dfa_s_max": "150",
    "dfa_step": "5",
    "detrend_order": "2",
    "hxa_tau_min": "2",
    "hxa_tau_max": "50",
    "ccf_max_lag": "30",
}


def ini_text(names):
    sections = {}
    for name in names:
        s = SETTINGS[name]
        sections.setdefault(s.section, []).append(f"{s.key} = {NON_DEFAULT[name]}")
    sections.setdefault("experiment", [])
    return "".join(f"[{sec}]\n" + "".join(f"{line}\n" for line in lines)
                   for sec, lines in sections.items())


def test_every_flag_matches_its_ini_key():
    assert set(NON_DEFAULT) == set(SETTINGS)
    default = parse_config(MINIMAL)
    for name, s in SETTINGS.items():
        from_ini = parse_config(ini_text([name]))
        assert getattr(from_ini, name) != getattr(default, name), name
        commands = [c for c, names in COMMAND_SETTINGS.items() if name in names]
        assert commands, name
        for command in commands:
            argv = [command, s.flag, NON_DEFAULT[name]]
            if command == "estimate":
                argv.append("series.csv")
            assert _config_from_args(build_parser().parse_args(argv)) == from_ini, (name, command)


def test_roundtrip_with_every_setting_changed():
    cfg = parse_config(ini_text(SETTINGS))
    default = parse_config(MINIMAL)
    for name in SETTINGS:
        assert getattr(cfg, name) != getattr(default, name), name
    assert parse_config(serialize_config(cfg)) == cfg
