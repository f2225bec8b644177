"""Experiment configuration: a flat, typed key-value file with sections.

The grammar is INI-style (configparser syntax, case-sensitive keys).
Grids are written as 'low,high,count' and expanded log-spaced. Terms
use '*' between factor names ('O*H'), with '1' denoting the intercept
term; linear model labels use '+' ('1+X4+X5'). Per-term prior settings
use dotted keys ('scale.H*A = 0.05'). The full grammar is documented in
the README. Config problems raise ParseError so the command line can
map them to its config-error exit code.
"""
import configparser
from dataclasses import dataclass, field
import hashlib

import numpy as np

from .averaging import KPolicy
from .exceptions import ParseError
from .model_space import Baseline, FactorSpec, ModelId, ModelPriorPolicy, \
    POLICY_VARIANTS

__all__ = [
    "ExperimentConfig",
    "DataConfig",
    "PriorConfig",
    "SweepConfig",
    "RjConfigSection",
    "ShrinkageConfig",
    "CvConfig",
    "load_config",
    "parse_model_label",
    "parse_term",
]

TASKS = ("sweep", "cv", "rjmcmc", "shrinkage", "simulate", "prior-probs")
GENERATORS = ("dfn", "nott_kohn")


def _require(parser, section):
    if not parser.has_section(section):
        raise ParseError(f"config is missing the [{section}] section")
    return parser[section]


def _get(section, key, cast, default=None, required=False):
    if key not in section:
        if required:
            raise ParseError(
                f"config key {key!r} is required in [{section.name}]")
        return default
    raw = section[key].strip()
    try:
        return cast(raw)
    except (ValueError, TypeError):
        raise ParseError(
            f"config key [{section.name}] {key} = {raw!r} is not a valid "
            f"{cast.__name__.lstrip('_')}")


def _vector(raw):
    return np.array([float(v) for v in raw.split()])


def _csv_list(raw):
    return [part.strip() for part in raw.split(",") if part.strip()]


def _grid(raw):
    parts = _csv_list(raw)
    if len(parts) != 3:
        raise ValueError("expected 'low,high,count'")
    low, high, count = float(parts[0]), float(parts[1]), int(parts[2])
    if not (0.0 < low <= high < np.inf) or count < 1:
        raise ValueError("grid needs 0 < low <= high < inf and count >= 1")
    if count == 1:
        return np.array([low])
    return np.geomspace(low, high, count)


def parse_term(text):
    """'1' is the intercept term; 'O*H' is the O-by-H interaction."""
    text = text.strip()
    if text == "1":
        return ()
    parts = [p.strip() for p in text.split("*")]
    if not all(parts):
        raise ParseError(f"malformed term {text!r}")
    return tuple(parts)


def parse_model_label(text):
    """Linear model labels: '0' empty, '1' intercept-only, '1+X4+X5'
    intercept plus covariates 4 and 5 (1-based)."""
    text = text.strip()
    if text == "0":
        return ModelId.linear([], intercept=False)
    intercept = False
    members = []
    for part in text.split("+"):
        part = part.strip()
        if part == "1":
            intercept = True
        elif part.startswith("X") and part[1:].isdigit() and int(part[1:]) >= 1:
            members.append(int(part[1:]) - 1)
        else:
            raise ParseError(f"malformed model label {text!r} (part {part!r})")
    return ModelId.linear(members, intercept=intercept)


def _parse_factors(raw):
    factors = []
    for item in _csv_list(raw):
        if ":" not in item:
            raise ParseError(f"factor {item!r} must be written name:levels")
        name, _, levels = item.partition(":")
        try:
            factors.append((name.strip(), int(levels)))
        except ValueError:
            raise ParseError(f"factor {item!r} has a non-integer level count")
    if not factors:
        raise ParseError("factor list is empty")
    return tuple(factors)


@dataclass(frozen=True)
class DataConfig:
    source: str = None
    generator: str = None
    path: str = None
    response: str = "y"
    levels: dict = field(default_factory=dict)


@dataclass(frozen=True)
class PriorConfig:
    template: str = "gprior"
    alpha: float = 0.0
    lam: float = 0.0
    c2: float = 1.0
    c2_grid: np.ndarray = None
    metric: object = "information"
    scales: object = 1.0
    means: dict = None


@dataclass(frozen=True)
class SweepConfig:
    top_k: int = 10
    watch: tuple = ()


@dataclass(frozen=True)
class RjConfigSection:
    iterations: int = 10000
    burn_in: int = 0
    thin: int = 1
    jump_prob: float = 0.5
    within_scale: float = 1.0


@dataclass(frozen=True)
class ShrinkageConfig:
    n: float = 10.0
    beta_hat: float = 1.0
    sigma2: float = 1.0
    k_policy: KPolicy = field(default_factory=KPolicy.fixed)
    inv_c2_grid: np.ndarray = None


@dataclass(frozen=True)
class CvConfig:
    mode: str = "exact"
    num_draws: int = 2000
    covariates: tuple = ()


@dataclass(frozen=True)
class ExperimentConfig:
    task: str
    seed: int
    out: str
    fmt: str
    data: DataConfig
    prior: PriorConfig
    policies: tuple
    space: FactorSpec
    sweep: SweepConfig
    rjmcmc: RjConfigSection
    shrinkage: ShrinkageConfig
    cv: CvConfig
    config_hash: str


def _parse_policies(parser):
    if not parser.has_section("policy"):
        return (ModelPriorPolicy(variant="uniform"),)
    section = parser["policy"]
    names = _csv_list(section.get("variants", "uniform"))
    if not names:
        raise ParseError("[policy] variants lists no policy variant")
    for name in names:
        if name not in POLICY_VARIANTS:
            raise ParseError(
                f"unknown policy variant {name!r}; expected one of "
                f"{POLICY_VARIANTS}")
    kind = section.get("baseline", "constant").strip()
    if kind == "constant":
        baseline = Baseline.constant()
    elif kind == "dimension":
        baseline = Baseline.dimension(
            _get(section, "log_weight", float, required=True))
    elif kind == "calibrated":
        baseline = Baseline.calibrated(
            _get(section, "n0", float, required=True),
            _get(section, "psi0", float, required=True))
    else:
        raise ParseError(f"unknown baseline kind {kind!r}")
    return tuple(ModelPriorPolicy(variant=name, baseline=baseline)
                 for name in names)


def _parse_prior(parser):
    if not parser.has_section("prior"):
        return PriorConfig()
    section = parser["prior"]
    template = section.get("template", "gprior").strip()
    if template not in ("gprior", "identity", "term_blocks"):
        raise ParseError(f"unknown prior template {template!r}")
    scales = {}
    means = {}
    metric = {}
    for key in section:
        if key.startswith("scale."):
            scales[parse_term(key[len("scale."):])] = _get(section, key, float)
        elif key.startswith("mean."):
            means[parse_term(key[len("mean."):])] = _get(section, key,
                                                          _vector)
        elif key.startswith("metric."):
            metric[parse_term(key[len("metric."):])] = section[key].strip()
    if "scale" in section:
        scales["default"] = _get(section, "scale", float)
    if "metric" in section:
        metric["default"] = section["metric"].strip()
    return PriorConfig(
        template=template,
        alpha=_get(section, "alpha", float, default=0.0),
        lam=_get(section, "lambda", float, default=0.0),
        c2=_get(section, "c2", float, default=1.0),
        c2_grid=_get(section, "c2_grid", _grid),
        metric=metric if metric else "information",
        scales=scales if scales else 1.0,
        means=means if means else None)


def _parse_space(parser):
    if not parser.has_section("space"):
        return None
    section = parser["space"]
    factors = _parse_factors(
        _get(section, "factors", str, required=True))
    forced = tuple(parse_term(t)
                   for t in _csv_list(section.get("forced", "")))
    candidates = tuple(parse_term(t)
                       for t in _csv_list(section.get("candidates", "")))
    return FactorSpec(factors=factors, forced_terms=forced,
                      candidate_terms=candidates)


def _parse_data(parser):
    if not parser.has_section("data"):
        return DataConfig()
    section = parser["data"]
    source = section.get("source", "").strip() or None
    if source not in (None, "generator", "csv"):
        raise ParseError(f"unknown data source {source!r}")
    generator = section.get("generator", "").strip() or None
    if generator is not None and generator not in GENERATORS:
        raise ParseError(
            f"unknown generator {generator!r}; expected one of {GENERATORS}")
    levels = {}
    for key in section:
        if key.startswith("levels."):
            levels[key[len("levels."):]] = tuple(_csv_list(section[key]))
    return DataConfig(source=source, generator=generator,
                      path=section.get("path", "").strip() or None,
                      response=section.get("response", "y").strip(),
                      levels=levels)


def load_config(path, seed_override=None, out_override=None,
                fmt_override=None, task_override=None):
    """Parse and validate one experiment config file."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    try:
        with open(path, encoding="utf-8") as fh:
            raw = fh.read()
        parser.read_string(raw)
    except OSError as exc:
        raise ParseError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ParseError(f"malformed config {path}: {exc}") from exc
    digest = hashlib.sha256(raw.encode("utf-8")).hexdigest()

    experiment = _require(parser, "experiment")
    task = _get(experiment, "task", str, required=task_override is None)
    if task_override is not None:
        if task is not None and task != task_override:
            raise ParseError(
                f"config names task {task!r} but the command line asked "
                f"for {task_override!r}")
        task = task_override
    if task not in TASKS:
        raise ParseError(f"unknown task {task!r}; expected one of {TASKS}")
    seed = seed_override if seed_override is not None else \
        _get(experiment, "seed", int)
    fmt = fmt_override or experiment.get("format", "csv").strip()
    if fmt not in ("csv", "json"):
        raise ParseError(f"unknown output format {fmt!r}")
    out = out_override if out_override is not None else \
        (experiment.get("out", "").strip() or None)

    data = _parse_data(parser)
    prior = _parse_prior(parser)
    policies = _parse_policies(parser)
    space = _parse_space(parser)

    sweep = SweepConfig()
    if parser.has_section("sweep"):
        section = parser["sweep"]
        sweep = SweepConfig(
            top_k=_get(section, "top_k", int, default=10),
            watch=tuple(parse_model_label(t)
                        for t in _csv_list(section.get("watch", ""))))
        if sweep.top_k < 0:
            raise ParseError(
                f"[sweep] top_k must be nonnegative, got {sweep.top_k}")

    rj = RjConfigSection()
    if parser.has_section("rjmcmc"):
        section = parser["rjmcmc"]
        rj = RjConfigSection(
            iterations=_get(section, "iterations", int, default=10000),
            burn_in=_get(section, "burn_in", int, default=0),
            thin=_get(section, "thin", int, default=1),
            jump_prob=_get(section, "jump_prob", float, default=0.5),
            within_scale=_get(section, "within_scale", float, default=1.0))

    shrink = ShrinkageConfig()
    if parser.has_section("shrinkage"):
        section = parser["shrinkage"]
        kind = section.get("k_policy", "fixed").strip()
        if kind not in ("fixed", "proportional_inverse_c"):
            raise ParseError(f"unknown k_policy {kind!r}")
        shrink = ShrinkageConfig(
            n=_get(section, "n", float, default=10.0),
            beta_hat=_get(section, "beta_hat", float, default=1.0),
            sigma2=_get(section, "sigma2", float, default=1.0),
            k_policy=KPolicy(kind=kind,
                             k0=_get(section, "k0", float, default=1.0)),
            inv_c2_grid=_get(section, "inv_c2_grid", _grid))

    cv = CvConfig()
    if parser.has_section("cv"):
        section = parser["cv"]
        mode = section.get("mode", "exact").strip()
        if mode not in ("exact", "gelfand"):
            raise ParseError(f"unknown cv mode {mode!r}")
        raw = section.get("covariates", "")
        try:
            covariates = tuple(int(v) for v in _csv_list(raw))
        except ValueError:
            raise ParseError(
                f"config key [cv] covariates = {raw.strip()!r} is not a "
                "list of 1-based indices") from None
        if any(v < 1 for v in covariates):
            raise ParseError("cv covariates are 1-based indices")
        cv = CvConfig(mode=mode,
                      num_draws=_get(section, "num_draws", int, default=2000),
                      covariates=covariates)

    needs_seed = (data.source == "generator" or task == "rjmcmc"
                  or (task == "cv" and cv.mode == "gelfand"))
    if needs_seed and seed is None:
        raise ParseError(
            f"task {task!r} uses generated data or sampling; a seed is "
            "required ([experiment] seed or --seed)")
    if seed is not None and seed < 0:
        raise ParseError(f"seed must be nonnegative, got {seed}")

    return ExperimentConfig(task=task, seed=seed, out=out, fmt=fmt,
                            data=data, prior=prior, policies=policies,
                            space=space, sweep=sweep, rjmcmc=rj,
                            shrinkage=shrink, cv=cv, config_hash=digest)
