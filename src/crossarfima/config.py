"""Experiment configuration: INI parsing, validation, serialization.

Each run setting is one field of ExperimentConfig, declared with
``_setting``: its INI section and key, its CLI flag and help text, how
its text is read and its default.  A custom model uses ``model = inline``
with four [component.*] sections and an optional [covariance] section;
otherwise ``model`` names a preset.  Those declarations and the model
sections' keys make one schema; parse_config rejects any section or key
outside it, and serialize_config and the CLI's flags derive from it too.
parse_config(serialize_config(cfg)) reproduces cfg field by field.
"""

from __future__ import annotations

import configparser
import io
from dataclasses import dataclass, field, fields
from typing import Any, Callable, Mapping

from .errors import ConfigError, NotPositiveSemiDefiniteError
from .estimators import size_window
from .innovations import N_STREAMS, PAIRS, CovarianceSpec
from .models import PRESETS, WHITE, ComponentSpec, ModelSpec

# The sections of each estimator's window settings, whose keys name parameters of
# the estimator (dfa, dcca, hxa, sample_ccf) and of its sizer (size_window) alike.
WINDOWS = {"dfa": ("dfa", "fluctuation"), "dcca": ("dcca", "fluctuation"), "hxa": ("hxa",), "ccf": ("ccf",)}
ESTIMATOR_NAMES = tuple(WINDOWS)
INLINE = "inline"
MIN_T = 100  # every default window fits from this length on

# the inline model's components, in stream order: section i is driven by stream i
_COMPONENT_SECTIONS = ("component.x1", "component.x2", "component.y1", "component.y2")


@dataclass(frozen=True)
class Setting:
    """How one ExperimentConfig field is read from INI, written back and set by flag.

    ``default`` is the value of a setting that is not set: None for a
    window setting, whose default its estimator's sizer holds
    (estimators.size_window).
    """

    section: str
    key: str
    flag: str
    help: str
    default: Any
    cast: Callable[[str], Any] = int
    render: Callable[[Any], str] = str


def _setting(section, key, flag, help, default=None, cast=int, render=str):
    return field(metadata={"setting": Setting(section, key, flag, help, default, cast, render)})


def _estimator_list(text: str) -> tuple[str, ...]:
    requested = [e.strip().lower() for e in text.split(",") if e.strip()]
    unknown = [e for e in requested if e not in ESTIMATOR_NAMES]
    if unknown:
        raise ConfigError(
            f"[experiment] estimators: unknown name(s) {unknown}; "
            f"choose from {', '.join(ESTIMATOR_NAMES)}"
        )
    if not requested:
        raise ConfigError("[experiment] estimators: at least one estimator is required")
    return tuple(e for e in ESTIMATOR_NAMES if e in requested)


@dataclass(frozen=True)
class ExperimentConfig:
    """Run description: each setting as set, or its default.

    The window settings, those of the [dfa], [dcca], [fluctuation], [hxa]
    and [ccf] sections, read None until set: the estimators' sizers hold
    their defaults, so one config serves every length.  Fields are declared
    in the order the CLI lists their flags.  Every field but ``model`` is a
    setting; ``model`` is built from ``model_name`` and, for an inline
    model, the [component.*] and [covariance] sections.
    """

    model_name: str = _setting(
        "experiment", "model", "--model", "preset name (model1/model2/model3) or 'inline'",
        "model1", cast=str.lower,
    )
    model: ModelSpec
    T: int = _setting("experiment", "t", "--T", "series length", 10_000)
    replications: int = _setting("experiment", "replications", "--reps", "number of replications", 100)
    base_seed: int = _setting(
        "experiment", "base_seed", "--seed", "base seed; replication r uses seed+r", 42
    )
    output_dir: str = _setting("experiment", "output_dir", "--output", "output directory", "out", cast=str)
    estimators: tuple[str, ...] = _setting(
        "experiment", "estimators", "--estimators", "comma list from dfa,dcca,hxa,ccf",
        ("dfa", "dcca", "hxa"), cast=_estimator_list, render=", ".join,
    )
    dcca_s_min: int | None = _setting("dcca", "s_min", "--s-min", "smallest DCCA box size")
    dcca_s_max: int | None = _setting("dcca", "s_max", "--s-max", "largest DCCA box size")
    dcca_step: int | None = _setting("dcca", "step", "--step", "DCCA box size step")
    dfa_s_min: int | None = _setting("dfa", "s_min", "--dfa-s-min", "smallest DFA box size")
    dfa_s_max: int | None = _setting("dfa", "s_max", "--dfa-s-max", "largest DFA box size")
    dfa_step: int | None = _setting("dfa", "step", "--dfa-step", "DFA box size step")
    detrend_order: int | None = _setting(
        "fluctuation", "detrend_order", "--detrend-order", "polynomial detrend order of DFA and DCCA boxes"
    )
    hxa_tau_min: int | None = _setting("hxa", "tau_min", "--tau-min", "smallest HXA lag")
    hxa_tau_max: int | None = _setting("hxa", "tau_max", "--tau-max", "largest HXA lag")
    ccf_max_lag: int | None = _setting("ccf", "max_lag", "--max-lag", "CCF maximum lag, sample and theoretical")

    def seeds(self) -> list[int]:
        """Replication seed schedule: base_seed, base_seed+1, ..."""
        return [self.base_seed + r for r in range(self.replications)]

    def window(self, name: str) -> dict[str, int]:
        """Estimator ``name``'s settings that were set, as keyword arguments of it and of its sizer:
        size_window(name, n, cfg.window(name)) sizes the window at length n."""
        settings = ((s, getattr(self, f)) for f, s in SETTINGS.items() if s.section in WINDOWS[name])
        return {s.key: value for s, value in settings if value is not None}


SETTINGS: dict[str, Setting] = {
    f.name: f.metadata["setting"] for f in fields(ExperimentConfig) if "setting" in f.metadata
}
# [covariance] key -> its 1-based stream pair: var_i is (i, i), sigma_ij (i < j) is (i, j)
_COVARIANCE_KEYS = {f"var_{i}": (i, i) for i in range(1, N_STREAMS + 1)} | {
    f"sigma_{i}{j}": (i, j) for i, j in PAIRS
}
# the sections read only for an inline model, with their keys
_MODEL_SECTIONS = {"covariance": set(_COVARIANCE_KEYS)} | {
    name: {"kind", "weight", "param"} for name in _COMPONENT_SECTIONS
}
# every section a config may hold, with the keys it may hold
_SCHEMA = {
    s.section: {t.key for t in SETTINGS.values() if t.section == s.section} for s in SETTINGS.values()
} | _MODEL_SECTIONS


def _read(parser: configparser.ConfigParser, section: str, key: str, cast):
    """One typed value; a missing or unreadable key is a ConfigError naming it."""
    if not parser.has_option(section, key):
        raise ConfigError(f"[{section}] missing required key {key!r}")
    text = parser.get(section, key).strip()
    try:
        return cast(text)
    except ValueError:
        what = {int: "an integer", float: "a number"}.get(cast, "a string")
        raise ConfigError(f"[{section}] {key}: expected {what}, got {text!r}") from None


def _setting_value(parser: configparser.ConfigParser, name: str):
    """Setting name as set, else its default."""
    s = SETTINGS[name]
    return _read(parser, s.section, s.key, s.cast) if parser.has_option(s.section, s.key) else s.default


def _parse_model(parser: configparser.ConfigParser, model_name: str) -> ModelSpec:
    if model_name not in PRESETS and model_name != INLINE:
        raise ConfigError(
            f"[experiment] model: unknown name {model_name!r}; "
            f"use one of {', '.join(sorted(PRESETS))} or {INLINE!r}"
        )
    if model_name != INLINE:
        for section in parser.sections():
            if section in _MODEL_SECTIONS:
                raise ConfigError(f"[{section}] is read only for model = {INLINE}, not {model_name}")
        return PRESETS[model_name]()
    comps = []
    for section in _COMPONENT_SECTIONS:
        if not parser.has_section(section):
            raise ConfigError(f"inline model needs a [{section}] section")
        kind = _read(parser, section, "kind", str.lower)
        weight = _read(parser, section, "weight", float)
        given = parser.has_option(section, "param")  # read, so that a white kind refuses it
        param = _read(parser, section, "param", float) if given or kind != WHITE else 0.0
        try:
            comps.append(ComponentSpec(kind=kind, weight=weight, param=param))
        except ValueError as e:
            raise ConfigError(f"[{section}]: {e}") from None
    keys = parser.options("covariance") if parser.has_section("covariance") else ()
    sigma = {_COVARIANCE_KEYS[key]: _read(parser, "covariance", key, float) for key in keys}
    variances = tuple(sigma.pop((i, i), 1.0) for i in range(1, N_STREAMS + 1))
    try:
        cov = CovarianceSpec(variances, sigma)
    except (ValueError, NotPositiveSemiDefiniteError) as e:
        raise ConfigError(f"[covariance] {e}") from None
    return ModelSpec((comps[0], comps[1]), (comps[2], comps[3]), cov)


def parse_config(
    text: str, overrides: Mapping[tuple[str, str], str] | None = None
) -> ExperimentConfig:
    """Build a validated ExperimentConfig from INI text.

    ``overrides`` maps (section, key) to replacement raw values and is
    applied after parsing, before validation; the CLI uses it for flag
    precedence.  Every problem, such as an unknown section or key, a
    non-empty [DEFAULT] or a model section beside a preset, raises
    ConfigError naming the section and key.
    """
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as e:
        raise ConfigError(f"malformed config: {e}") from None
    if overrides:
        for (section, key), value in overrides.items():
            if not parser.has_section(section):
                parser.add_section(section)
            parser.set(section, key, value)
    if parser.defaults():
        raise ConfigError(f"[DEFAULT] {next(iter(parser.defaults()))}: put each key in its own section")
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]; known sections: {', '.join(sorted(_SCHEMA))}")
        for key in parser.options(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"[{section}] unknown key {key!r}; known: {', '.join(sorted(_SCHEMA[section]))}")
    if not parser.has_section("experiment"):
        raise ConfigError("missing [experiment] section")

    model = _parse_model(parser, _setting_value(parser, "model_name"))  # its error before any other setting's
    return validate_config(ExperimentConfig(model=model, **{name: _setting_value(parser, name) for name in SETTINGS}))


def validate_config(cfg: ExperimentConfig) -> ExperimentConfig:
    """Check at cfg.T the run-level settings that every subcommand checks, and give cfg back: T,
    replications, base_seed, output_dir, detrend_order >= 0 and ccf.max_lag >= 0.  The rest of a
    window is checked only where its estimator runs (check_windows)."""

    def bad(field, message):
        raise ConfigError(f"{field}: {message}")

    if cfg.T < MIN_T:
        bad("T", f"must be >= {MIN_T}, got {cfg.T}")
    if cfg.replications < 1:
        bad("replications", f"must be >= 1, got {cfg.replications}")
    if cfg.base_seed < 0:
        bad("base_seed", f"must be >= 0, got {cfg.base_seed}")
    if (cfg.detrend_order or 0) < 0:
        bad("fluctuation.detrend_order", f"must be >= 0, got {cfg.detrend_order}")
    if (cfg.ccf_max_lag or 0) < 0:
        bad("ccf.max_lag", f"must be >= 0, got {cfg.ccf_max_lag}")
    if not cfg.output_dir:
        bad("output_dir", "must be non-empty")
    return cfg


def check_windows(cfg: ExperimentConfig) -> None:
    """Size the window of each of cfg.estimators, in table order, at length cfg.T, as the pass
    does (size_window): one that does not fit is a ConfigError with the pass's message."""
    for name in cfg.estimators:
        try:
            size_window(name, cfg.T, cfg.window(name))
        except ValueError as e:
            raise ConfigError(str(e)) from None


def default_config(model_name: str = "model1", **overrides) -> ExperimentConfig:
    """Config with all defaults for a named preset; kwargs patch [experiment] keys, as text or as values."""
    text = f"[experiment]\nmodel = {model_name}\n"
    return parse_config(text, overrides={("experiment", k): str(v) for k, v in overrides.items()})


def serialize_config(cfg: ExperimentConfig) -> str:
    """Render a config back to INI text, leaving out an unset window setting; inverse of parse_config."""
    body: dict[str, dict[str, str]] = {}
    for name, s in SETTINGS.items():
        if getattr(cfg, name) is not None:
            body.setdefault(s.section, {})[s.key] = s.render(getattr(cfg, name))
    if cfg.model_name == INLINE:
        for section, comp in zip(_COMPONENT_SECTIONS, cfg.model.components):
            body[section] = {"kind": comp.kind, "weight": repr(comp.weight)}
            if comp.kind != WHITE:
                body[section]["param"] = repr(comp.param)
        cov = cfg.model.covariance
        body["covariance"] = {
            key: repr(cov.sigma(i, j)) for key, (i, j) in _COVARIANCE_KEYS.items() if cov.sigma(i, j) != 0.0
        }

    parser = configparser.ConfigParser(interpolation=None)
    parser.read_dict(body)
    out = io.StringIO()
    parser.write(out)
    return out.getvalue()
