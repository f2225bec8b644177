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
from dataclasses import dataclass, field, replace
# The interpreter's built-in SHA-256 gives hashlib's digest without
# loading OpenSSL, which costs a short run several MB resident.
try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

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


def _keys(parser, name, required=False):
    """The [name] section; no keys when it is absent and not required."""
    if parser.has_section(name):
        return parser[name]
    if required:
        raise ParseError(f"config is missing the [{name}] section")
    return {}


def _get(section, key, cast, default=None, required=False):
    """The one reader of a key's text: cast(stripped text), else default.
    A cast's own ParseError passes; its other errors name the key."""
    if key not in section:
        if required:
            raise ParseError(
                f"config key {key!r} is required in [{section.name}]")
        return default
    raw = section[key].strip()
    try:
        return cast(raw)
    except ParseError:
        raise
    except (ValueError, TypeError):
        raise ParseError(
            f"config key [{section.name}] {key} = {raw!r} is not a valid "
            f"{cast.__name__.lstrip('_')}")


def _choice(what, options):
    """Cast to one of options."""
    def choice(raw):
        if raw in options:
            return raw
        raise ParseError(f"unknown {what} {raw!r}; expected one of {options}")
    return choice


def _optional(cast):
    """cast for a key whose empty value means unset."""
    return lambda raw: cast(raw) if raw else None


def _list_of(cast):
    """Cast for a comma-separated list, each nonblank item through cast."""
    return lambda raw: tuple(cast(item.strip()) for item in raw.split(",")
                             if item.strip())


_csv_list = _list_of(str)


def _vector(raw):
    return np.array([float(v) for v in raw.split()])


def _indices(raw):
    values = tuple(int(v) for v in _csv_list(raw))
    if any(v < 1 for v in values) or len(set(values)) < len(values):
        raise ValueError(raw)
    return values


_indices.__name__ = "list of 1-based indices"


def _grid(raw):
    parts = _csv_list(raw)
    if len(parts) != 3:
        raise ValueError("expected 'low,high,count'")
    low, high, count = float(parts[0]), float(parts[1]), int(parts[2])
    if not (0.0 < low <= high < np.inf) or count < 1:
        raise ValueError("grid needs 0 < low <= high < inf and count >= 1")
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


def _dotted(section, prefix, cast, name=parse_term):
    """{name(suffix): cast value} of every 'prefix.suffix' key; two keys
    whose suffixes have one name are a ParseError."""
    keys = {}
    for key in section:
        if key.startswith(prefix + "."):
            suffix = name(key[len(prefix) + 1:])
            if suffix in keys:
                raise ParseError(f"config keys [{section.name}] "
                                 f"{keys[suffix]} and {key} name one term")
            keys[suffix] = key
    return {suffix: _get(section, key, cast) for suffix, key in keys.items()}


def _build(cls, **values):
    """cls from the values given; None keeps the field's default."""
    return cls(**{k: v for k, v in values.items() if v is not None})


def _section(parser, name, cls, **casts):
    """cls from the optional [name]: each field is its key through cast."""
    section = _keys(parser, name)
    return _build(cls, **{key: _get(section, key, cast)
                          for key, cast in casts.items()})


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


_TASK = _choice("task", TASKS)
_FORMAT = _choice("output format", ("csv", "json"))


def _parse_policies(parser):
    section = _keys(parser, "policy")
    names = _get(section, "variants",
                 _list_of(_choice("policy variant", POLICY_VARIANTS)),
                 default=("uniform",))
    if not names:
        raise ParseError("[policy] variants lists no policy variant")
    kind = _get(section, "baseline", _choice(
        "baseline kind", ("constant", "dimension", "calibrated")))
    baseline = Baseline.constant()
    if kind == "dimension":
        baseline = Baseline.dimension(
            _get(section, "log_weight", float, required=True))
    elif kind == "calibrated":
        baseline = Baseline.calibrated(
            _get(section, "n0", float, required=True),
            _get(section, "psi0", float, required=True))
    return tuple(ModelPriorPolicy(variant=name, baseline=baseline)
                 for name in names)


def _parse_prior(parser, space):
    """[prior]; only term_blocks takes scale, metric and per-term keys,
    which with a [space] are read in its factor order, a per-term key
    without its plain key applying over the plain key's default."""
    section = _keys(parser, "prior")
    template = _get(section, "template", _choice(
        "prior template", ("gprior", "identity", "term_blocks")))
    stray = [key for key in section
             if key.split(".")[0] in ("scale", "mean", "metric")]
    if stray and template != "term_blocks":
        raise ParseError(
            f"config key [prior] {stray[0]} needs template = term_blocks")
    term = parse_term if space is None else \
        lambda text: space.normalize_term(parse_term(text))
    scales = _dotted(section, "scale", float, term)
    means = _dotted(section, "mean", _vector, term)
    metric = _dotted(section, "metric", str, term)
    if scales or "scale" in section:
        scales["default"] = _get(section, "scale", float,
                                 default=PriorConfig.scales)
    if metric or "metric" in section:
        metric["default"] = _get(section, "metric", str,
                                 default=PriorConfig.metric)
    return _build(PriorConfig, template=template,
                  alpha=_get(section, "alpha", float),
                  lam=_get(section, "lambda", float),
                  c2=_get(section, "c2", float),
                  c2_grid=_get(section, "c2_grid", _grid),
                  metric=metric or None, scales=scales or None,
                  means=means or None)


def _parse_space(parser):
    if not parser.has_section("space"):
        return None
    section = parser["space"]
    return _build(FactorSpec,
                  factors=_get(section, "factors", _parse_factors,
                               required=True),
                  forced_terms=_get(section, "forced", _list_of(parse_term)),
                  candidate_terms=_get(section, "candidates",
                                       _list_of(parse_term)))


def _parse_data(parser):
    section = _keys(parser, "data")
    return _build(
        DataConfig,
        source=_get(section, "source",
                    _optional(_choice("data source", ("generator", "csv")))),
        generator=_get(section, "generator",
                       _optional(_choice("generator", GENERATORS))),
        path=_get(section, "path", _optional(str)),
        response=_get(section, "response", str),
        levels=_dotted(section, "levels", _csv_list, name=str) or None)


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
    except UnicodeDecodeError as exc:
        raise ParseError(f"config {path} is not UTF-8 text: {exc}") from exc
    except configparser.Error as exc:
        raise ParseError(f"malformed config {path}: {exc}") from exc
    digest = sha256(raw.encode("utf-8")).hexdigest()

    experiment = _keys(parser, "experiment", required=True)
    task = _get(experiment, "task", _TASK, required=task_override is None)
    if task_override is not None:
        if task is not None and task != task_override:
            raise ParseError(
                f"config names task {task!r} but the command line asked "
                f"for {task_override!r}")
        task = _TASK(task_override)
    seed = seed_override if seed_override is not None else \
        _get(experiment, "seed", int)
    fmt = _FORMAT(fmt_override) if fmt_override else \
        _get(experiment, "format", _FORMAT, default="csv")
    out = out_override if out_override is not None else \
        _get(experiment, "out", _optional(str))

    data = _parse_data(parser)
    space = _parse_space(parser)
    prior = _parse_prior(parser, space)
    policies = _parse_policies(parser)

    sweep = _section(parser, "sweep", SweepConfig, top_k=int,
                     watch=_list_of(parse_model_label))
    if sweep.top_k < 0:
        raise ParseError(
            f"[sweep] top_k must be nonnegative, got {sweep.top_k}")
    rj = _section(parser, "rjmcmc", RjConfigSection, iterations=int,
                  burn_in=int, thin=int, jump_prob=float, within_scale=float)
    shrink = _section(parser, "shrinkage", ShrinkageConfig, n=float,
                      beta_hat=float, sigma2=float, inv_c2_grid=_grid)
    section, k = _keys(parser, "shrinkage"), shrink.k_policy
    shrink = replace(shrink, k_policy=KPolicy(
        kind=_get(section, "k_policy", _choice(
            "k_policy", ("fixed", "proportional_inverse_c")), default=k.kind),
        k0=_get(section, "k0", float, default=k.k0)))
    cv = _section(parser, "cv", CvConfig,
                  mode=_choice("cv mode", ("exact", "gelfand")),
                  covariates=_indices, num_draws=int)

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
