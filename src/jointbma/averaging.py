"""Posterior normalization, model averaging, and two diagnostic curves.

normalize_posterior combines per-model log marginal likelihoods with the
policy's log prior weights. Marginals computed under the improper
reference prior on sigma^2 are defined only up to a shared constant, so
they may be normalized against each other but never against proper-prior
marginals; the convention tag enforces that at the boundary.

shrinkage_curve tracks the known-variance one-covariate problem where
the paradox is sharpest: as the slab widens, the posterior mass of the
alternative collapses unless the prior odds fall like 1/c.
neighborhood_prior_prob quantifies how much mass a d-dimensional slab
puts near the null manifold, which is what the dispersion adjustment is
compensating for.
"""
from dataclasses import dataclass
from functools import cached_property
import math

import numpy as np

from ._linalg import log_sum_exp
from .exceptions import ContractError
from .model_space import LINEAR, LinearSubsets, model_lookup
from .param_priors import _check_covariates
from .special import chi2_cdf, chi2_cdf_small_x

__all__ = [
    "LogMarginal",
    "ModelPosterior",
    "KPolicy",
    "ShrinkageCurve",
    "normalize_posterior",
    "inclusion_probs",
    "term_inclusion_probs",
    "model_averaged_mean",
    "embed_linear_mean",
    "shrinkage_curve",
    "posterior_mean_expansion",
    "neighborhood_prior_prob",
    "METHODS",
    "CONVENTIONS",
]

METHODS = ("exact_nig", "closed_g", "laplace", "laplace_penalized")
CONVENTIONS = ("proper", "improper")


@dataclass(frozen=True)
class LogMarginal:
    """Log marginal likelihood of one model, tagged with how it was
    computed and which sigma^2 prior convention it carries."""

    value: float
    method: str
    convention: str

    def __post_init__(self):
        if self.method not in METHODS:
            raise ContractError(
                f"unknown marginal method {self.method!r}; expected one of "
                f"{METHODS}")
        if self.convention not in CONVENTIONS:
            raise ContractError(
                f"unknown convention {self.convention!r}; expected one of "
                f"{CONVENTIONS}")
        value = float(self.value)
        if not math.isfinite(value):
            raise ContractError(f"log marginal must be finite, got {value}")
        object.__setattr__(self, "value", value)


@dataclass(frozen=True)
class ModelPosterior:
    """Normalized posterior over an explicit model list, or over a whole
    LinearSubsets space, which is kept lazy."""

    models: tuple
    log_probs: np.ndarray
    convention: str

    def __post_init__(self):
        log_probs = np.asarray(self.log_probs, dtype=float)
        if log_probs.shape != (len(self.models),):
            raise ContractError(
                f"log_probs shape {log_probs.shape} does not match "
                f"{len(self.models)} models")
        if not isinstance(self.models, LinearSubsets):
            object.__setattr__(self, "models", tuple(self.models))
        object.__setattr__(self, "log_probs", log_probs)

    @property
    def probs(self):
        return np.exp(self.log_probs)

    def prob_of(self, m):
        return math.exp(self.log_probs[self._position(m)])

    @cached_property
    def _position(self):
        return model_lookup(self.models, "posterior")

    def map_model(self):
        return self.models[int(np.argmax(self.log_probs))]

    def top(self, k=10):
        """(model, probability) of the k most probable; ties in model order."""
        order = np.argsort(-self.log_probs, kind="stable")[:k]
        return [(self.models[i], math.exp(self.log_probs[i])) for i in order]


def normalize_posterior(models, marginals, log_prior_weights=None):
    """Posterior model probabilities from marginals plus prior weights.

    All marginals must share one sigma^2 convention; improper-reference
    values have an arbitrary common offset that cancels only within a
    single convention.
    """
    models = tuple(models)
    marginals = tuple(marginals)
    if len(models) == 0:
        raise ContractError("cannot normalize an empty model list")
    if len(marginals) != len(models):
        raise ContractError(
            f"{len(marginals)} marginals for {len(models)} models")
    if len(set(models)) != len(models):
        raise ContractError("duplicate models in posterior support")
    conventions = {ml.convention for ml in marginals}
    if len(conventions) > 1:
        raise ContractError(
            "cannot normalize marginals with mixed sigma^2 conventions: "
            f"{sorted(conventions)}; recompute under one convention")
    if log_prior_weights is None:
        log_prior_weights = np.zeros(len(models))
    log_prior_weights = np.asarray(log_prior_weights, dtype=float)
    if log_prior_weights.shape != (len(models),):
        raise ContractError(
            f"log_prior_weights shape {log_prior_weights.shape} does not "
            f"match {len(models)} models")
    lw = log_prior_weights + np.array([ml.value for ml in marginals])
    lse = log_sum_exp(lw)
    return ModelPosterior(models=models, log_probs=lw - lse,
                          convention=conventions.pop())


def inclusion_probs(posterior, p):
    """Marginal inclusion probability of each of the p covariates. Over a
    LinearSubsets space this is one product with its membership matrix."""
    out = np.zeros(int(p))
    models = posterior.models
    if isinstance(models, LinearSubsets):
        _check_covariates(range(models.p), p)
        out[:models.p] = np.exp(posterior.log_probs) @ models.member
        return out
    for m, lp in zip(posterior.models, posterior.log_probs):
        if m.kind != LINEAR:
            raise ContractError(
                "inclusion_probs expects covariate-subset models; use "
                "term_inclusion_probs for term sets")
        _check_covariates(m.members, p)
        out[list(m.members)] += math.exp(lp)
    return out


def term_inclusion_probs(posterior):
    """Posterior probability of each term appearing across the support."""
    out = {}
    for m, lp in zip(posterior.models, posterior.log_probs):
        w = math.exp(lp)
        for t in m.members:
            out[t] = out.get(t, 0.0) + w
    return out


def embed_linear_mean(m, beta_m, p):
    """Place a model's coefficient vector into the common layout
    (intercept slot, then the p covariate slots, zeros elsewhere)."""
    beta_m = np.atleast_1d(np.asarray(beta_m, dtype=float))
    if beta_m.shape != (m.d,):
        raise ContractError(
            f"coefficient vector length {beta_m.shape[0]} does not match "
            f"model dimension {m.d}")
    _check_covariates(m.members, p)
    out = np.zeros(int(p) + 1)
    out[[0] * m.intercept + [j + 1 for j in m.members]] = beta_m
    return out


def model_averaged_mean(posterior, estimates):
    """Posterior-weighted average of per-model estimates given in a
    common coordinate layout (excluded coefficients contribute zero)."""
    out = None
    for m, lp in zip(posterior.models, posterior.log_probs):
        if m not in estimates:
            raise ContractError(f"no estimate supplied for model {m.label()}")
        est = np.asarray(estimates[m], dtype=float)
        if out is None:
            out = np.zeros_like(est)
        if est.shape != out.shape:
            raise ContractError(
                f"estimate shape {est.shape} for {m.label()} does not match "
                f"{out.shape}")
        out = out + math.exp(lp) * est
    return out


@dataclass(frozen=True)
class KPolicy:
    """Prior odds k = p(null)/p(alternative) as a function of the slab
    scale c: fixed odds reproduce the paradox, odds falling like k0/c
    neutralize it."""

    kind: str
    k0: float

    def __post_init__(self):
        if self.kind not in ("fixed", "proportional_inverse_c"):
            raise ContractError(
                f"unknown odds policy {self.kind!r}; expected 'fixed' or "
                "'proportional_inverse_c'")
        if not 0.0 < float(self.k0) < math.inf:
            raise ContractError(
                f"k0 must be positive and finite, got {self.k0}")
        object.__setattr__(self, "k0", float(self.k0))

    @classmethod
    def fixed(cls, k0=1.0):
        return cls(kind="fixed", k0=k0)

    @classmethod
    def proportional_inverse_c(cls, k0=1.0):
        return cls(kind="proportional_inverse_c", k0=k0)

    def odds(self, c):
        if self.kind == "fixed":
            return self.k0 * np.ones_like(np.asarray(c, dtype=float))
        return self.k0 / np.asarray(c, dtype=float)


@dataclass(frozen=True)
class ShrinkageCurve:
    """Two-model posterior along a grid of prior precisions c^{-2}.

    coefficient is the model-averaged shrinkage multiplier
    f(m1|y) E1(beta|y) / beta_hat = prob_m1 * shrink_weight, computed
    without dividing so beta_hat = 0 stays well defined.
    expansion_shrink is the first-order large-c form of shrink_weight,
    kept as a secondary output for comparison against the exact curve.
    """

    inv_c2_grid: np.ndarray
    shrink_weight: np.ndarray
    posterior_mean: np.ndarray
    prob_m1: np.ndarray
    averaged_mean: np.ndarray
    coefficient: np.ndarray
    expansion_shrink: np.ndarray
    limit_prob_m1: float
    limit_coefficient: float
    policy: KPolicy


def shrinkage_curve(n, beta_hat, sigma2, k_policy, inv_c2_grid):
    """Posterior quantities for the two-model normal-mean problem.

    Data reduce to beta_hat ~ N(beta, sigma2/n); the null pins beta = 0,
    the alternative gives beta a N(0, c^2) slab. Within the alternative
    the posterior mean is the shrunk w * beta_hat with
    w = (n/sigma2) / (n/sigma2 + 1/c^2); across models the alternative's
    mass follows from the value of its posterior density at zero, and
    the model-averaged mean multiplies the two. Everything is evaluated
    exactly; no expansion enters the primary outputs.
    """
    n = float(n)
    sigma2 = float(sigma2)
    beta_hat = float(beta_hat)
    if not 0.0 < n < math.inf:
        raise ContractError(f"n must be positive and finite, got {n}")
    if not 0.0 < sigma2 < math.inf:
        raise ContractError(
            f"sigma2 must be positive and finite, got {sigma2}")
    if not math.isfinite(beta_hat):
        raise ContractError(f"beta_hat must be finite, got {beta_hat}")
    inv_c2_grid = np.atleast_1d(np.asarray(inv_c2_grid, dtype=float))
    if inv_c2_grid.size == 0 or np.any(inv_c2_grid <= 0.0) or \
            not np.all(np.isfinite(inv_c2_grid)):
        raise ContractError("inv_c2_grid must contain positive precisions")
    c_grid = inv_c2_grid ** -0.5

    info = n / sigma2
    if not 0.0 < info < math.inf:
        raise ContractError(
            f"n/sigma2 = {n}/{sigma2} must be positive and finite")
    w = info / (info + inv_c2_grid)
    post_var = w / info
    post_mean = w * beta_hat
    # Density of the alternative's posterior at beta = 0 drives the
    # model mass: prob(m1) = 1 / (1 + k * sqrt(2 pi) * c * f1(0 | y)).
    # A z^2 or expansion term past the float range is inf, its limit.
    with np.errstate(over="ignore"):
        log_f1_at_zero = -0.5 * (np.log(2.0 * math.pi * post_var)
                                 + post_mean ** 2 / post_var)
        expansion_shrink = 1.0 - inv_c2_grid * sigma2 / n
    log_odds_null = (np.log(k_policy.odds(c_grid))
                     + 0.5 * math.log(2.0 * math.pi)
                     + np.log(c_grid) + log_f1_at_zero)
    prob_m1 = np.exp(-np.logaddexp(0.0, log_odds_null))

    if k_policy.kind == "fixed":
        limit_prob = 0.0
    else:
        # c -> infinity: w -> 1, f1(0|y) -> N(0; beta_hat, sigma2/n), and
        # the 1/c odds decay exactly cancels the c in the prior height.
        limit_odds = (k_policy.k0 * math.sqrt(info)
                      * math.exp(-0.5 * info * (beta_hat * beta_hat)))
        limit_prob = 1.0 / (1.0 + limit_odds)

    return ShrinkageCurve(inv_c2_grid=inv_c2_grid, shrink_weight=w,
                          posterior_mean=post_mean, prob_m1=prob_m1,
                          averaged_mean=prob_m1 * post_mean,
                          coefficient=prob_m1 * w,
                          expansion_shrink=expansion_shrink,
                          limit_prob_m1=limit_prob,
                          limit_coefficient=limit_prob, policy=k_policy)


def posterior_mean_expansion(n, beta_hat, sigma2, c):
    """First-order large-c form of the shrunk mean,
    beta_hat (1 - 1/(i n c^2)) with i = 1/sigma2."""
    n = float(n)
    sigma2 = float(sigma2)
    c = np.asarray(c, dtype=float)
    if not (n > 0.0) or not (sigma2 > 0.0):
        raise ContractError("n and sigma2 must be positive")
    if np.any(c <= 0.0):
        raise ContractError("c must be positive")
    unit_info = 1.0 / sigma2
    return float(beta_hat) * (1.0 - 1.0 / (unit_info * n * c ** 2))


def neighborhood_prior_prob(f_m, d, epsilon, c2, method="exact"):
    """Prior mass a model places within distance epsilon of the origin:
    f(m) * P(chi^2_d < epsilon^2 / c^2) under the isotropic c^2 I slab.

    method 'small_x' swaps in the leading-order CDF term, useful when
    epsilon/c is tiny and the full series would be dominated by one
    term anyway.
    """
    f_m = float(f_m)
    if f_m < 0.0 or not math.isfinite(f_m):
        raise ContractError(f"model weight must be finite and >= 0, got {f_m}")
    d = int(d)
    if d < 1:
        raise ContractError(f"dimension must be >= 1, got {d}")
    epsilon = float(epsilon)
    c2 = float(c2)
    if not (epsilon > 0.0):
        raise ContractError(f"epsilon must be positive, got {epsilon}")
    if not (c2 > 0.0):
        raise ContractError(f"c2 must be positive, got {c2}")
    x = epsilon ** 2 / c2
    if method == "exact":
        tail = chi2_cdf(d, x)
    elif method == "small_x":
        tail = chi2_cdf_small_x(d, x)
    else:
        raise ContractError(f"unknown method {method!r}")
    return f_m * tail
