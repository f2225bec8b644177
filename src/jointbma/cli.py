"""Command-line front end: dataset simulation and ingestion, dispersion
sweeps, cross-validation scores, posterior sampling, shrinkage curves,
and prior model probabilities, all driven by one config file.

Every command produces a ResultTable. With --out the table is written to
both <out>.csv and <out>.json; otherwise it is printed to stdout in the
chosen --format. Numbers are serialized with 17 significant digits so a
parsed CSV reproduces the JSON values exactly, and no output carries a
timestamp: re-running a config rewrites files byte-identically. CSV
provenance rides in leading '# key=value' comment lines, which the CSV
loaders skip on re-ingestion.

Exit codes: 0 success; 2 parse or config error; 3 numerical-domain
error; 4 non-convergence.
"""
import argparse
from dataclasses import dataclass, field
import csv as csv_module
import io
import json
import sys

import numpy as np

from ._linalg import log_sum_exp
from .averaging import inclusion_probs, shrinkage_curve
from .config import TASKS, load_config
from .datasets import load_contingency_csv, load_linear_csv, simulate_dfn, \
    simulate_nott_kohn
from .exceptions import CapacityError, ContractError, ConvergenceError, \
    DegenerateDataError, NumericalDomainError, ParseError, SpecificationError
from .glm_laplace import term_block_prior
from .linear_exact import LinearDataset, _subset_log_targets, \
    all_subsets_stats, cv_score_from_lpd, gprior_sweep, loo_log_predictives
from .model_space import enumerate_hierarchical_models
from .param_priors import prior_for_linear_model
from .rj_sampler import SamplerConfig, _policy_weights, \
    _run_linear_collapsed, estimate_model_probs, rjmcmc_run

__all__ = ["ResultTable", "run_sweep", "main"]

# Enumerated CLI routes build a prior and a marginal for every subset;
# past this many covariates that work belongs to the sampler.
MAX_CLI_ENUM = 15
MAX_CLI_CV = 12


def _fmt(value):
    """One cell as text: floats at 17 significant digits, lossless."""
    if isinstance(value, (float, np.floating)):
        return "%.17g" % value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def _jsonable(value):
    if isinstance(value, (float, np.floating)):
        return float(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    return value


@dataclass(frozen=True)
class ResultTable:
    """Uniform command output: named columns, value rows, and provenance
    describing exactly how the numbers were produced."""

    columns: tuple
    rows: list
    provenance: dict = field(default_factory=dict)

    def to_csv(self):
        buf = io.StringIO()
        for key, value in self.provenance.items():
            buf.write(f"# {key}={_fmt(value)}\n")
        writer = csv_module.writer(buf, lineterminator="\n")
        writer.writerow(self.columns)
        for row in self.rows:
            writer.writerow([_fmt(v) for v in row])
        return buf.getvalue()

    def to_json(self):
        payload = {
            "provenance": {k: _jsonable(v)
                           for k, v in self.provenance.items()},
            "columns": list(self.columns),
            "rows": [[_jsonable(v) for v in row] for row in self.rows],
        }
        return json.dumps(payload, indent=2) + "\n"


def _emit(table, cfg):
    if cfg.out:
        stem = cfg.out
        for suffix in (".csv", ".json"):
            if stem.endswith(suffix):
                stem = stem[:-len(suffix)]
        with open(stem + ".csv", "w", encoding="utf-8", newline="") as fh:
            fh.write(table.to_csv())
        with open(stem + ".json", "w", encoding="utf-8", newline="") as fh:
            fh.write(table.to_json())
        return
    text = table.to_csv() if cfg.fmt == "csv" else table.to_json()
    sys.stdout.write(text)


def _provenance(cfg, **extra):
    out = {"task": cfg.task, "config_sha256": cfg.config_hash,
           "seed": cfg.seed if cfg.seed is not None else "none"}
    out.update(extra)
    return out


def _term_text(term):
    return "1" if not term else "*".join(term)


def _setting_text(setting):
    """Scalar or per-term dict rendered as 'a', or 'default=a;H*A=b'."""
    if not isinstance(setting, dict):
        return _fmt(setting)
    parts = []
    for key in sorted(setting, key=str):
        name = key if isinstance(key, str) else _term_text(key)
        parts.append(f"{name}={_fmt(setting[key])}")
    return ";".join(parts)


def _load_linear(cfg):
    d = cfg.data
    if d.source == "generator":
        if d.generator == "dfn":
            return simulate_dfn(cfg.seed)
        if d.generator == "nott_kohn":
            return simulate_nott_kohn(cfg.seed)
        raise ParseError(
            "[data] generator is required when source=generator")
    if d.source == "csv":
        if not d.path:
            raise ParseError("[data] path is required when source=csv")
        return load_linear_csv(d.path, response=d.response)
    raise ParseError(
        f"task {cfg.task!r} needs a [data] section with "
        "source=generator or source=csv")


def _load_table(cfg):
    if cfg.space is None:
        raise ParseError("contingency-table tasks need a [space] section")
    if cfg.data.source != "csv" or not cfg.data.path:
        raise ParseError(
            "contingency-table tasks read counts from a CSV; set "
            "[data] source=csv and path")
    if not cfg.data.levels:
        raise ParseError(
            "[data] needs levels.<factor> label lists to decode the CSV")
    return load_contingency_csv(cfg.data.path, cfg.space, cfg.data.levels)


def _covariate_labels(data):
    if data.labels:
        return data.labels
    return tuple(f"x{j + 1}" for j in range(data.p))


def _cmd_simulate(cfg):
    data = _load_linear(cfg)
    labels = _covariate_labels(data)
    response = cfg.data.response or "y"
    rows = [(float(data.y[i]), *(float(v) for v in data.X[i]))
            for i in range(data.n)]
    return ResultTable(
        columns=(response,) + labels,
        rows=rows,
        provenance=_provenance(cfg, generator=cfg.data.generator or "csv",
                               n=data.n, p=data.p))


def _check_cap(data, cap, message):
    if data.p > cap:
        raise CapacityError(message.format(p=data.p, cap=cap))


def _top_positions(probs, k):
    """The first k positions of argsort(-probs, kind="stable"): largest
    probability first, canonical model order among ties. Only the
    candidates at or above the k-th largest value are sorted."""
    neg = -probs
    cut = np.partition(neg, k - 1)[k - 1]
    candidates = np.flatnonzero(neg <= cut)
    return candidates[np.argsort(neg[candidates], kind="stable")[:k]]


def _gprior_sweeps(cfg, data, grid):
    """data's all-subsets statistics, and each policy's sweep, lazily."""
    if cfg.prior.template != "gprior":
        raise SpecificationError(
            f"{cfg.task} uses the closed-form g-prior route; set [prior] "
            "template=gprior")
    stats = all_subsets_stats(data)
    return stats, (gprior_sweep(stats, grid, policy, cfg.prior.alpha,
                                cfg.prior.lam) for policy in cfg.policies)


def run_sweep(cfg):
    """Whole-space g-prior posterior across the c^2 grid and policies.

    The all-subsets statistics are computed once and shared by every
    policy's gprior_sweep; rows come out in deterministic policy-major,
    grid-minor order.
    """
    data = _load_linear(cfg)
    if cfg.prior.c2_grid is None:
        raise ParseError("[prior] c2_grid is required for sweep")
    _check_cap(data, MAX_CLI_ENUM, "sweep enumerates 2^p subsets; p={p} "
               "exceeds the command-line cap of {cap}")
    stats, sweeps = _gprior_sweeps(cfg, data, cfg.prior.c2_grid)
    labels = _covariate_labels(data)
    watch = [(w, stats.models.position(w)) for w in cfg.sweep.watch]
    for w, pos in watch:
        if pos is None:
            raise ParseError(
                f"watch model {w.label()!r} is not in the sweep support "
                f"(intercept-containing subsets of p={data.p} covariates)")

    rows = []
    top_k = min(cfg.sweep.top_k, len(stats.models))
    for policy, sweep in zip(cfg.policies, sweeps):
        for gi, c2 in enumerate(sweep.c2_grid):
            probs = np.exp(sweep.log_posterior[gi])
            for pos in _top_positions(probs, top_k):
                rows.append((policy.variant, float(c2), "model",
                             stats.models[pos].label(), float(probs[pos])))
            for w, pos in watch:
                rows.append((policy.variant, float(c2), "watch", w.label(),
                             float(probs[pos])))
            inclusion = inclusion_probs(sweep.posterior_at(gi), data.p)
            for j in range(data.p):
                rows.append((policy.variant, float(c2), "inclusion",
                             labels[j], float(inclusion[j])))
    return ResultTable(
        columns=("policy", "c2", "record", "label", "value"),
        rows=rows,
        provenance=_provenance(
            cfg,
            policy=",".join(p.variant for p in cfg.policies),
            prior_template=cfg.prior.template,
            alpha=cfg.prior.alpha, **{"lambda": cfg.prior.lam},
            convention=sweep.convention, n=data.n, p=data.p, top_k=top_k,
            c2_grid=",".join(_fmt(v) for v in sweep.c2_grid)))


def _cmd_cv(cfg):
    data = _load_linear(cfg)
    if cfg.cv.covariates:
        idx = [v - 1 for v in cfg.cv.covariates]
        if max(idx) >= data.p:
            raise ParseError(
                f"[cv] covariates reference column {max(idx) + 1} but the "
                f"data have p={data.p}")
        labels = _covariate_labels(data)
        data = LinearDataset(y=data.y, X=data.X[:, idx],
                             labels=tuple(labels[j] for j in idx))
    _check_cap(data, MAX_CLI_CV, "cv scores 2^p models over n leave-one-out "
               "folds; p={p} exceeds the cap of {cap} (select columns via "
               "[cv] covariates)")
    grid = cfg.prior.c2_grid
    if grid is None:
        grid = np.array([cfg.prior.c2])
    stats, sweeps = _gprior_sweeps(cfg, data, grid)
    sweeps = list(sweeps)
    rng = None
    if cfg.cv.mode == "gelfand":
        rng = np.random.Generator(np.random.Philox(cfg.seed))

    models = list(stats.models)
    sweep = sweeps[0]
    # The leave-one-out predictives depend on c2 but not on the model
    # prior, so every policy re-weights one matrix per grid point.
    scores = [[] for _ in sweeps]
    for gi, c2 in enumerate(sweep.c2_grid):
        priors = {m: prior_for_linear_model(data.X, m, c2,
                                            alpha=cfg.prior.alpha,
                                            lam=cfg.prior.lam)
                  for m in models}
        lpd = loo_log_predictives(models, data, priors,
                                  mode=cfg.cv.mode, rng=rng,
                                  num_draws=cfg.cv.num_draws)
        for policy_scores, policy_sweep in zip(scores, sweeps):
            policy_scores.append(cv_score_from_lpd(
                policy_sweep.posterior_at(gi), lpd, cfg.cv.mode).total)
    rows = [(policy.variant, float(c2), score)
            for policy, policy_scores in zip(cfg.policies, scores)
            for c2, score in zip(sweep.c2_grid, policy_scores)]
    return ResultTable(
        columns=("policy", "c2", "S"),
        rows=rows,
        provenance=_provenance(
            cfg, mode=cfg.cv.mode,
            policy=",".join(p.variant for p in cfg.policies),
            prior_template=cfg.prior.template, alpha=cfg.prior.alpha,
            **{"lambda": cfg.prior.lam}, convention=sweep.convention,
            num_draws=cfg.cv.num_draws if cfg.cv.mode == "gelfand" else 0,
            n=data.n, p=data.p))


def _term_block_priors(cfg, load):
    """(load(cfg), [space]'s models, their term-block priors on it);
    load runs after the template check."""
    if cfg.prior.template != "term_blocks":
        raise ParseError(
            f"{cfg.task} uses per-term priors; set [prior] "
            "template=term_blocks")
    source = load(cfg)
    models = enumerate_hierarchical_models(cfg.space)
    return source, models, {
        m: term_block_prior(source, m, cfg.prior.scales,
                            metric=cfg.prior.metric, means=cfg.prior.means,
                            c2=cfg.prior.c2) for m in models}


def _cmd_rjmcmc(cfg):
    policy = cfg.policies[0]
    sampler = SamplerConfig(iterations=cfg.rjmcmc.iterations,
                            burn_in=cfg.rjmcmc.burn_in,
                            thin=cfg.rjmcmc.thin,
                            seed=cfg.seed,
                            jump_prob=cfg.rjmcmc.jump_prob,
                            within_model_scale=cfg.rjmcmc.within_scale)
    if cfg.space is not None:
        table, models, priors = _term_block_priors(cfg, _load_table)
        chain = rjmcmc_run(models, priors, policy, table, sampler)
        # Nothing past the chain reads the table or the designs it caches.
        del table, priors
        route = "loglinear"
    else:
        data = _load_linear(cfg)
        _check_cap(data, MAX_CLI_ENUM, "the collapsed linear route enumerates "
                   "2^p subsets; p={p} exceeds the command-line cap of {cap}")
        if cfg.prior.template not in ("gprior", "identity"):
            raise ParseError(
                "linear sampling uses [prior] template=gprior or identity")
        chain = _run_linear_collapsed(*_subset_log_targets(
            data, policy, cfg.prior.c2, alpha=cfg.prior.alpha,
            lam=cfg.prior.lam, base=cfg.prior.template), sampler)
        route = "linear"
    est = estimate_model_probs(chain)
    rows = []
    for pos in np.argsort(-est.probs, kind="stable"):
        if est.probs[pos] <= 0.0:
            continue
        rows.append((est.models[pos].label(), int(est.models[pos].d),
                     float(est.probs[pos]), float(est.se[pos])))
    return ResultTable(
        columns=("model", "dimension", "prob", "se"),
        rows=rows,
        provenance=_provenance(
            cfg, policy=policy.variant, route=route,
            iterations=cfg.rjmcmc.iterations, burn_in=cfg.rjmcmc.burn_in,
            thin=cfg.rjmcmc.thin, n_kept=est.n_kept,
            batch_length=est.batch_length,
            jump_rate=float(chain.jump_rate()),
            within_rate=float(chain.within_rate())))


def _cmd_shrinkage(cfg):
    s = cfg.shrinkage
    if s.inv_c2_grid is None:
        raise ParseError("[shrinkage] inv_c2_grid is required")
    curve = shrinkage_curve(s.n, s.beta_hat, s.sigma2, s.k_policy,
                            s.inv_c2_grid)
    rows = [(float(x), float(coef))
            for x, coef in zip(curve.inv_c2_grid, curve.coefficient)]
    return ResultTable(
        columns=("inv_c2", "coefficient"),
        rows=rows,
        provenance=_provenance(
            cfg, n=s.n, beta_hat=s.beta_hat, sigma2=s.sigma2,
            k_policy=s.k_policy.kind, k0=s.k_policy.k0,
            limit_prob_m1=curve.limit_prob_m1,
            limit_coefficient=curve.limit_coefficient))


def _cmd_prior_probs(cfg):
    if cfg.space is None:
        raise ParseError("prior-probs needs a [space] section")
    _, models, priors = _term_block_priors(cfg, lambda cfg: cfg.space)
    rows = []
    for policy in cfg.policies:
        log_w = _policy_weights(models, priors, policy, cfg.space)
        probs = np.exp(log_w - log_sum_exp(log_w))
        rows.extend((policy.variant, m.label(), int(m.d), float(probs[i]))
                    for i, m in enumerate(models))
    return ResultTable(
        columns=("policy", "model", "dimension", "prior_prob"),
        rows=rows,
        provenance=_provenance(
            cfg,
            policy=",".join(p.variant for p in cfg.policies),
            factors=",".join(f"{n}:{l}" for n, l in cfg.space.factors),
            forced=",".join(_term_text(t) for t in cfg.space.forced_terms),
            candidates=",".join(_term_text(t)
                                for t in cfg.space.candidate_terms),
            scales=_setting_text(cfg.prior.scales),
            metric=_setting_text(cfg.prior.metric),
            c2=cfg.prior.c2))


_DISPATCH = {
    "sweep": run_sweep,
    "cv": _cmd_cv,
    "rjmcmc": _cmd_rjmcmc,
    "shrinkage": _cmd_shrinkage,
    "simulate": _cmd_simulate,
    "prior-probs": _cmd_prior_probs,
}

_HELP = {
    "sweep": "posterior over all subsets across a c^2 grid and policies",
    "cv": "model-averaged leave-one-out predictive score",
    "rjmcmc": "sample the joint (model, parameter) posterior",
    "shrinkage": "two-model posterior mean and mass along a c grid",
    "simulate": "emit a generated dataset as CSV/JSON",
    "prior-probs": "normalized prior model probabilities for a space",
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="jointbma",
        description="Joint model and parameter priors for Bayesian model "
                    "averaging.")
    sub = parser.add_subparsers(dest="task", required=True, metavar="task")
    for name in TASKS:
        p = sub.add_parser(name, help=_HELP[name])
        p.add_argument("--config", required=True,
                       help="experiment config file")
        p.add_argument("--seed", type=int, default=None,
                       help="override the [experiment] seed")
        p.add_argument("--out", default=None,
                       help="output stem; writes <out>.csv and <out>.json")
        p.add_argument("--format", choices=("csv", "json"), default=None,
                       help="stdout format when --out is absent")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, seed_override=args.seed,
                          out_override=args.out, fmt_override=args.format,
                          task_override=args.task)
        table = _DISPATCH[cfg.task](cfg)
        _emit(table, cfg)
    except (ParseError, SpecificationError, CapacityError,
            ContractError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericalDomainError, DegenerateDataError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except ConvergenceError as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
