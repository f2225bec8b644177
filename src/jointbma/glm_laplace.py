"""Poisson log-linear models on contingency tables, with Laplace
approximations to the marginal likelihood.

Designs use sum-to-zero coding: a factor with L levels contributes L-1
columns, +1 at the identified level, -1 at the last level; interaction
columns are elementwise products. On a complete balanced grid this makes
distinct term blocks orthogonal, which keeps blockwise priors honest.

Two Laplace variants are provided. 'at_map' expands the penalized
log-likelihood around its mode,

    log f(y|m) ~= l(b*) - (1/2)log|V| - (1/2)(b*-mu)'V^{-1}(b*-mu)
                  - (1/2)log|V^{-1} - H(b*)|,

exact whenever l is quadratic; the (2 pi)^{d/2} factors cancel
identically. 'at_mle' expands around the unpenalized maximum and prices
the prior at that point, the classical O(n^{-1}) flavor. Both are tagged
on the result so downstream normalization knows what it is averaging.
"""
from dataclasses import dataclass, field, replace
import math

import numpy as np

from ._linalg import chol_factor, chol_solve, factor_logdet
from .averaging import LogMarginal
from .exceptions import (ContractError, ConvergenceError, DegenerateDataError,
                         NumericalDomainError, SpecificationError)
from .param_priors import InformationSource, TermBlock, _factor_prior, \
    _log_density_factored, _stack_blocks

__all__ = [
    "ContingencyTable",
    "DesignInfo",
    "GlmFit",
    "PoissonLogLinear",
    "build_design",
    "fit_mle_poisson",
    "fit_map_poisson",
    "log_marginal_laplace",
    "log_marginal_laplace_model",
    "term_block_prior",
    "unit_info_for_model",
]

# Linear predictors past this bound signal separation or a badly scaled
# table; exp() would swamp the Newton step long before overflow.
DOMAIN_BOUND_POISSON = 30.0


@dataclass(frozen=True)
class ContingencyTable:
    """Cell counts over a complete factor grid, flattened in C order
    (last declared factor varies fastest)."""

    spec: object
    counts: np.ndarray
    _designs: dict = field(default_factory=dict, init=False, repr=False,
                           compare=False)
    _block_bases: dict = field(default_factory=dict, init=False, repr=False,
                               compare=False)

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=float).reshape(-1)
        if counts.size != self.spec.n_cells:
            raise ContractError(
                f"{counts.size} counts for a grid of {self.spec.n_cells} "
                "cells")
        if not np.all(np.isfinite(counts)) or np.any(counts < 0.0):
            raise ContractError("counts must be finite and nonnegative")
        object.__setattr__(self, "counts", counts)

    @property
    def n_cells(self):
        return self.counts.size

    @property
    def total(self):
        return float(self.counts.sum())

    def level_grid(self):
        shape = [l for _, l in self.spec.factors]
        grid = np.indices(shape).reshape(len(shape), -1).T
        return grid

    def design(self, m):
        """build_design of model m on this table's grid, built once per
        table and model and shared read-only by every caller."""
        design = self._designs.get(m)
        if design is None:
            design = build_design(self.spec, m)
            design.X.flags.writeable = False
            self._designs[m] = design
        return design


def _factor_codes(levels):
    codes = np.zeros((levels, levels - 1))
    codes[:levels - 1, :] = np.eye(levels - 1)
    codes[levels - 1, :] = -1.0
    return codes


@dataclass(frozen=True)
class DesignInfo:
    """Design matrix of one log-linear model plus the column range each
    term occupies (term order matches the model's canonical order)."""

    X: np.ndarray
    terms: tuple
    ranges: tuple

    def term_slice(self, term):
        for t, start, stop in self.ranges:
            if t == term:
                return slice(start, stop)
        raise ContractError(f"term {term} not in this design")

    def term_block(self, term):
        return self.X[:, self.term_slice(term)]


def build_design(spec, m, grid=None):
    """Sum-to-zero design of a hierarchical model on the complete grid.
    Cells follow C order, matching ContingencyTable.counts."""
    if m.kind != "loglinear-termset":
        raise ContractError("build_design expects a log-linear model")
    shape = [l for _, l in spec.factors]
    if grid is None:
        grid = np.indices(shape).reshape(len(shape), -1).T
    n = grid.shape[0]
    cols = []
    ranges = []
    at = 0
    for term in m.members:
        block = np.ones((n, 1))
        for name in term:
            codes = _factor_codes(spec.levels[name])
            coded = codes[grid[:, spec.names.index(name)]]
            block = np.einsum("ni,nj->nij", block, coded).reshape(n, -1)
        cols.append(block)
        ranges.append((term, at, at + block.shape[1]))
        at += block.shape[1]
    X = np.hstack(cols) if cols else np.zeros((n, 0))
    if X.shape[1] != m.d:
        raise ContractError(
            f"design has {X.shape[1]} columns but model dimension is {m.d}")
    return DesignInfo(X=X, terms=m.members, ranges=tuple(ranges))


class PoissonLogLinear:
    """Poisson likelihood with log link on a fixed design. Constants are
    kept so values are genuine log densities."""

    domain_bound = DOMAIN_BOUND_POISSON

    def __init__(self, X, y):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float).reshape(-1)
        if X.ndim != 2 or X.shape[0] != y.shape[0]:
            raise ContractError(
                f"design shape {X.shape} does not match {y.shape[0]} counts")
        if np.any(y < 0.0) or not np.all(np.isfinite(y)):
            raise ContractError("counts must be finite and nonnegative")
        self.X = X
        self.y = y
        self._log_y_fact = float(np.sum([math.lgamma(v) for v in y + 1.0]))

    @property
    def dim(self):
        return self.X.shape[1]

    def loglik(self, beta):
        eta = self.X @ beta
        # np.add.reduce is ndarray.sum's reduction without its Python
        # wrapper, so the value is the same to the bit.
        return float(self.y @ eta - np.add.reduce(np.exp(eta))) \
            - self._log_y_fact

    def grad(self, beta):
        lam = np.exp(self.X @ beta)
        return self.X.T @ (self.y - lam)

    def neg_hessian(self, beta):
        lam = np.exp(self.X @ beta)
        return (self.X.T * lam) @ self.X


@dataclass(frozen=True)
class GlmFit:
    beta: np.ndarray
    value: float
    grad_norm: float
    iterations: int
    kind: str


def _newton(model, start, tol, max_iter, v_inv=None, mu=None):
    """Damped Newton ascent of the log-likelihood penalized by a Gaussian
    prior (v_inv, mu; MAP). Without a prior it fits the MLE, the MAP fit
    at zero prior precision: subtracting an exact zero changes no value,
    gradient or curvature. The objective is concave for both likelihood
    classes here, so step halving is only rounding insurance."""
    beta = np.asarray(start, dtype=float).copy()
    kind = "mle" if v_inv is None else "map"
    if v_inv is None:
        v_inv, mu = np.zeros((beta.shape[0], beta.shape[0])), beta.copy()

    def objective(b):
        delta = b - mu
        return model.loglik(b) - 0.5 * float(delta @ (v_inv @ delta))

    def gradient(b):
        return model.grad(b) - v_inv @ (b - mu)

    with np.errstate(over="ignore", invalid="ignore"):
        value = objective(beta)  # a MAP fit starts at the prior mean
    if not math.isfinite(value):
        raise NumericalDomainError(
            "the log-likelihood is not finite at the Newton start")
    if beta.shape[0] == 0:
        return GlmFit(beta=beta, value=value, grad_norm=0.0, iterations=0,
                      kind=kind)
    for it in range(1, max_iter + 1):
        g = gradient(beta)
        gnorm = float(np.max(np.abs(g)))
        if kind == "mle" and model.domain_bound is not None:
            # Boundary drift: fitted means this small cannot occur at an
            # interior optimum with counts on any realistic scale, and the
            # linear predictor must be caught before cancellation makes
            # the curvature factorization fail. The norm bail is the
            # coarse backstop for designs with bounded entries.
            if float(np.min(model.X @ beta)) < -20.0 or \
                    float(np.linalg.norm(beta)) > 30.0:
                raise DegenerateDataError(
                    "MLE diverges; the table has a zero fitted margin for "
                    "this model")
        L = chol_factor(model.neg_hessian(beta) + v_inv, "Newton curvature")
        step = chol_solve(L, g)
        # At a true optimum both the gradient and the Newton step vanish.
        # When the supremum sits on the boundary the gradient decays along
        # the drift but the step stays O(1), so requiring both keeps the
        # iteration marching until the drift check above can classify the
        # fit as degenerate instead of reporting a false convergence.
        if gnorm < tol and float(np.max(np.abs(step))) < 1e-6:
            return GlmFit(beta=beta, value=value, grad_norm=gnorm,
                          iterations=it - 1, kind=kind)
        scale = 1.0
        for _ in range(40):
            trial = beta + scale * step
            if model.domain_bound is not None and \
                    np.max(np.abs(trial)) > model.domain_bound:
                scale *= 0.5
                continue
            trial_value = objective(trial)
            if trial_value >= value - 1e-12 * (abs(value) + 1.0):
                beta = trial
                value = trial_value
                break
            scale *= 0.5
        else:
            if model.domain_bound is not None and \
                    np.max(np.abs(beta + step)) > model.domain_bound:
                raise DegenerateDataError(
                    "fit diverges past the linear-predictor bound; the "
                    "table likely has zero margins for this model")
            raise ConvergenceError("Newton step failed to improve the "
                                   "objective", last_iterate=beta,
                                   iterations=it)
    raise ConvergenceError(
        f"no convergence in {max_iter} Newton iterations "
        f"(gradient norm {float(np.max(np.abs(gradient(beta)))):.3e})",
        last_iterate=beta, iterations=max_iter)


def fit_mle_poisson(X, y, tol=1e-8, max_iter=100):
    """Poisson MLE by Newton from the origin. Fits whose coefficients
    run past the domain bound stop with DegenerateDataError instead of
    chasing a maximum at infinity."""
    model = PoissonLogLinear(X, y)
    return _newton(model, np.zeros(model.dim), tol, max_iter)


def _map_laplace(model, prior, tol=1e-8, max_iter=100):
    """The Laplace expansion of one model at its posterior mode under the
    N(mu, V) prior: the prior factored once, the mode fitted by Newton
    from mu, and the curvature V^{-1} - H there factored. Returns the
    fit, the curvature's Cholesky factor L and _factor_prior's W_V and
    density constant."""
    W_V, v_inv, _, const = _factor_prior(prior, model.dim)
    fit = _newton(model, prior.mu.copy(), tol, max_iter,
                  v_inv=v_inv, mu=prior.mu)
    curvature = model.neg_hessian(fit.beta) + v_inv
    return fit, chol_factor(curvature, "Laplace curvature"), W_V, const


def fit_map_poisson(X, y, prior, tol=1e-8, max_iter=100):
    """Posterior mode under a N(mu, V) prior, started at the prior mean.
    The penalized objective is strictly concave, so this is global."""
    return _map_laplace(PoissonLogLinear(X, y), prior, tol, max_iter)[0]


def log_marginal_laplace_model(model, prior, variant="at_map",
                               tol=1e-8, max_iter=100):
    """Laplace log marginal for any likelihood exposing loglik, grad,
    neg_hessian, dim, and domain_bound. At the mode it is the joint
    chain's log target there (log weight 0) plus half the log-density
    constant d log 2pi - log|V^{-1} - H| of its Laplace proposal."""
    if variant not in ("at_map", "at_mle"):
        raise SpecificationError(
            f"unknown Laplace variant {variant!r}; expected 'at_map' or "
            "'at_mle'")
    if variant == "at_map":
        fit, L, W_V, const = _map_laplace(model, prior, tol, max_iter)
        method = "laplace_penalized"
    else:
        W_V, _, _, const = _factor_prior(prior, model.dim)
        fit = _newton(model, np.zeros(model.dim), tol, max_iter)
        L = chol_factor(model.neg_hessian(fit.beta), "Laplace curvature")
        method = "laplace"
    value = (model.loglik(fit.beta)
             + _log_density_factored(fit.beta, prior.mu, W_V, const)
             + 0.5 * (model.dim * math.log(2.0 * math.pi) - factor_logdet(L)))
    return LogMarginal(value=value, method=method, convention="proper")


def log_marginal_laplace(table, m, prior, variant="at_map",
                         tol=1e-8, max_iter=100):
    """Laplace log marginal of one log-linear model on a table."""
    model = PoissonLogLinear(table.design(m).X, table.counts)
    return log_marginal_laplace_model(model, prior, variant=variant,
                                      tol=tol, max_iter=max_iter)


def _per_term(setting, term, what):
    if isinstance(setting, dict):
        if term in setting:
            return setting[term]
        if "default" in setting:
            return setting["default"]
        raise ContractError(f"no {what} given for term {term}")
    return setting


def _design_of(table_or_spec, m):
    """A table's shared design of m, or a fresh one on a bare spec."""
    if isinstance(table_or_spec, ContingencyTable):
        return table_or_spec.design(m)
    return build_design(table_or_spec, m)


def term_block_prior(table_or_spec, m, scales, metric="information",
                     means=None, c2=1.0, alpha=0.0, lam=0.0):
    """Blockwise prior over a log-linear model's coefficients.

    scales gives each term's variance multiplier k^2 (a scalar applies
    to all terms; a dict may carry a 'default'). metric 'information'
    uses k^2 (X_j'X_j)^{-1} per block, 'identity' uses k^2 I. means
    optionally sets per-term prior means. Accepts a table or a bare
    FactorSpec; only the grid is needed. A term's columns are the same
    in every model's design, so a table forms each distinct
    (term, k^2, metric) block once and shares it, read-only, across the
    priors of all its models.
    """
    design = _design_of(table_or_spec, m)
    bases = table_or_spec._block_bases \
        if isinstance(table_or_spec, ContingencyTable) else {}
    blocks = []
    for term, start, stop in design.ranges:
        k2 = float(_per_term(scales, term, "scale"))
        kind = _per_term(metric, term, "metric")
        if kind not in ("information", "identity"):
            raise SpecificationError(
                f"unknown metric {kind!r}; expected 'information' or "
                "'identity'")
        block = TermBlock(size=stop - start, scale2=k2,
                          mean=(means or {}).get(term))
        key = (term, k2, kind)
        base = bases.get(key)
        if base is None:
            if kind == "information":
                cols = design.X[:, start:stop]
                block = replace(block, gram=cols.T @ cols)
            base = block.base()
            base.flags.writeable = False
            bases[key] = base
        blocks.append((base, block.mean_vector()))
    return _stack_blocks(blocks, c2=c2, alpha=alpha, lam=lam)


def unit_info_for_model(table_or_spec, m, beta_ref=None, sample_size=None):
    """Unit Fisher information X'Diag(exp(X beta_ref))X / n of one model
    on a table. n defaults to the cell count, the number of Poisson
    observations; pass the total count explicitly for conventions that
    scale with individuals instead. Accepts a table or a bare
    FactorSpec."""
    design = _design_of(table_or_spec, m)
    d = design.X.shape[1]
    if beta_ref is None:
        beta_ref = np.zeros(d)
    beta_ref = np.asarray(beta_ref, dtype=float)
    if beta_ref.shape != (d,):
        raise ContractError(
            f"beta_ref shape {beta_ref.shape} does not match dimension {d}")
    if sample_size is None:
        sample_size = float(design.X.shape[0])
    return InformationSource.poisson(design.X, sample_size, beta_ref)
