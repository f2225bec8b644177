"""Parameter priors and unit information metrics.

The regression prior is a N(mu_m, c^2 Sigma_m) slab with Sigma_m a
fixed base metric and c the common dispersion scale that the
model-weight policies respond to. The normal linear route scales the
slab by the error variance (beta | sigma^2 is N(mu, sigma^2 c^2 Sigma),
the conjugate convention), and sigma^2 carries an inverse-gamma(alpha,
lambda) prior with alpha = lambda = 0 selecting the improper reference
p(sigma^2) proportional to 1/sigma^2. The Poisson route uses the slab
as an absolute variance.

The information-based calibration c^{-2} = (|V| |i|)^{-1/d} equates the
prior to one observation's worth of information, measured through the
unit Fisher matrix i.
"""
from dataclasses import dataclass, replace
import math

import numpy as np

from ._linalg import chol_factor, chol_logdet, factor_logdet, inv_factor, \
    inv_pd
from .exceptions import ContractError, NumericalDomainError, \
    SpecificationError

__all__ = [
    "ParamPrior",
    "InformationSource",
    "TermBlock",
    "gprior_base",
    "blockwise_prior",
    "prior_for_linear_model",
    "linear_design",
    "unit_information_count",
    "fisher_info_poisson",
    "log_prior_density",
]


def _as_matrix(a, what):
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ContractError(f"{what} must be a 2-d array, got shape {a.shape}")
    return a


def _check_sigma2_prior(alpha, lam):
    """The inverse-gamma(alpha, lam) sigma^2 hyperparameters as floats:
    both positive (proper) or both zero (improper reference), and finite."""
    alpha, lam = float(alpha), float(lam)
    if not (math.isfinite(alpha) and math.isfinite(lam)):
        raise ContractError(
            f"alpha and lam must be finite; got alpha={alpha}, lam={lam}")
    if (alpha > 0.0) != (lam > 0.0):
        raise ContractError(
            "alpha and lam must both be positive (proper) or both zero "
            f"(improper reference); got alpha={alpha}, lam={lam}")
    if alpha < 0.0 or lam < 0.0:
        raise ContractError("alpha and lam must be nonnegative")
    return alpha, lam


def _check_c2(c2, n=1):
    """The dispersion scale c^2 as a float: positive, with c^2, 1/c^2 and
    n c^2 finite (n is the sample size where a caller forms n c^2)."""
    c2 = float(c2)
    if not (c2 > 0.0 and math.isfinite(n * c2) and math.isfinite(1.0 / c2)):
        raise ContractError(
            f"c2 must be positive and finite, with 1/c2 and n c2 finite; "
            f"got c2 = {c2}, n = {n}")
    return c2


@dataclass(frozen=True)
class ParamPrior:
    """N(mu, c^2 sigma_base) prior on the d coefficients of one model.

    alpha, lam parameterize the inverse-gamma prior on sigma^2 for
    normal-linear use; alpha = lam = 0 jointly select the improper
    reference prior and are ignored by the Poisson route.
    """

    mu: np.ndarray
    sigma_base: np.ndarray
    c2: float
    alpha: float = 0.0
    lam: float = 0.0

    def __post_init__(self):
        mu = np.atleast_1d(np.asarray(self.mu, dtype=float))
        sigma = _as_matrix(self.sigma_base, "sigma_base")
        if mu.ndim != 1:
            raise ContractError(f"mu must be a vector, got shape {mu.shape}")
        d = mu.shape[0]
        if sigma.shape != (d, d):
            raise ContractError(
                f"sigma_base shape {sigma.shape} does not match mu length {d}")
        if not (np.all(np.isfinite(mu)) and np.all(np.isfinite(sigma))):
            raise ContractError("mu and sigma_base must be finite")
        if not np.allclose(sigma, sigma.T, rtol=0.0, atol=1e-10):
            raise ContractError("sigma_base must be symmetric")
        chol_factor(sigma, "sigma_base")
        c2 = _check_c2(self.c2)
        # variance() forms c2 * sigma_base on every call; check it once.
        if d > 0 and not math.isfinite(c2 * float(np.abs(sigma).max())):
            raise NumericalDomainError(
                f"prior variance c2 * sigma_base overflows at c2 = {c2}")
        alpha, lam = _check_sigma2_prior(self.alpha, self.lam)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma_base", 0.5 * (sigma + sigma.T))
        object.__setattr__(self, "c2", c2)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "lam", lam)

    @property
    def d(self):
        return self.mu.shape[0]

    @property
    def proper_variance(self):
        return self.alpha > 0.0

    def variance(self):
        return self.c2 * self.sigma_base

    def with_c2(self, c2):
        return replace(self, c2=float(c2))


@dataclass(frozen=True)
class InformationSource:
    """Unit Fisher information i (per-observation scale) plus the sample
    size it was normalized by."""

    kind: str
    unit_matrix: np.ndarray
    n: float

    def __post_init__(self):
        mat = _as_matrix(self.unit_matrix, "information matrix")
        if mat.shape[0] != mat.shape[1]:
            raise ContractError(f"information matrix must be square, got {mat.shape}")
        n = float(self.n)
        if not (n > 0.0):
            raise ContractError(f"sample size must be positive, got {n}")
        object.__setattr__(self, "unit_matrix", 0.5 * (mat + mat.T))
        object.__setattr__(self, "n", n)

    @classmethod
    def linear(cls, X):
        X = _as_matrix(X, "design matrix")
        n = X.shape[0]
        if n < 1:
            raise ContractError("design matrix needs at least one row")
        return cls(kind="linear", unit_matrix=X.T @ X / n, n=float(n))

    @classmethod
    def poisson(cls, X, n, beta):
        return cls(kind="poisson", unit_matrix=fisher_info_poisson(X, n, beta),
                   n=float(n))

    @classmethod
    def empirical(cls, matrix, n):
        return cls(kind="empirical", unit_matrix=matrix, n=float(n))

    def matrix(self):
        return self.unit_matrix

    def logdet(self):
        return chol_logdet(self.unit_matrix, "unit information matrix")


def gprior_base(X, n=None):
    """Base metric Sigma = n (X'X)^{-1}, so that c^2 = 1 matches one
    observation's information. Requires full column rank."""
    X = _as_matrix(X, "design matrix")
    if n is None:
        n = X.shape[0]
    n = float(n)
    if not (n > 0.0):
        raise ContractError(f"sample size must be positive, got {n}")
    return n * inv_pd(X.T @ X, "X'X")


@dataclass(frozen=True)
class TermBlock:
    """One diagonal block of a blockwise prior: either scale2 * I or
    scale2 * gram^{-1} on a block of `size` coefficients."""

    size: int
    scale2: float
    gram: np.ndarray = None
    mean: np.ndarray = None

    def __post_init__(self):
        if self.size < 1:
            raise ContractError(f"block size must be >= 1, got {self.size}")
        if not 0.0 < float(self.scale2) < math.inf:
            raise ContractError(
                f"block scale2 must be positive and finite, got {self.scale2}")

    def base(self):
        if self.gram is None:
            return self.scale2 * np.eye(self.size)
        gram = _as_matrix(self.gram, "block gram matrix")
        if gram.shape != (self.size, self.size):
            raise ContractError(
                f"block gram shape {gram.shape} does not match size {self.size}")
        return self.scale2 * inv_pd(gram, "block gram matrix")

    def mean_vector(self):
        if self.mean is None:
            return np.zeros(self.size)
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        if mean.shape != (self.size,):
            raise ContractError(
                f"block mean shape {mean.shape} does not match size {self.size}")
        return mean


def blockwise_prior(blocks, c2=1.0, alpha=0.0, lam=0.0):
    """Assemble a block-diagonal ParamPrior from per-term blocks. Terms
    are independent a priori; each block chooses its own scale and
    metric, so unequal-variance conventions stay expressible."""
    return _stack_blocks([(b.base(), b.mean_vector()) for b in blocks],
                         c2=c2, alpha=alpha, lam=lam)


def _stack_blocks(blocks, c2, alpha, lam):
    """blockwise_prior from each block's (base matrix, mean vector)."""
    d = sum(base.shape[0] for base, _ in blocks)
    sigma = np.zeros((d, d))
    mu = np.zeros(d)
    at = 0
    for base, mean in blocks:
        size = base.shape[0]
        sigma[at:at + size, at:at + size] = base
        mu[at:at + size] = mean
        at += size
    return ParamPrior(mu=mu, sigma_base=sigma, c2=c2, alpha=alpha, lam=lam)


def _check_covariates(members, p):
    """The rule that a model's sorted covariate indices fit p columns."""
    if members and members[-1] >= p:
        raise ContractError(
            f"model references covariate {members[-1]} but p = {p}")


def linear_design(X, m):
    """Design matrix of a covariate-subset model: intercept column first
    when present, then the selected columns of X in index order."""
    X = _as_matrix(X, "covariate matrix")
    _check_covariates(m.members, X.shape[1])
    cols = [np.ones((X.shape[0], 1))] if m.intercept else []
    return np.hstack(cols + [X[:, list(m.members)]])


def prior_for_linear_model(X, m, c2, alpha=0.0, lam=0.0, mu=None,
                           base="gprior"):
    """ParamPrior for one covariate-subset model, with the base metric
    rebuilt on that model's own design (g-prior) or the identity."""
    Xm = linear_design(X, m)
    d = Xm.shape[1]
    if base == "gprior":
        sigma = gprior_base(Xm)
    elif base == "identity":
        sigma = np.eye(d)
    else:
        raise SpecificationError(f"unknown base metric {base!r}")
    if mu is None:
        mu = np.zeros(d)
    return ParamPrior(mu=mu, sigma_base=sigma, c2=float(c2),
                      alpha=alpha, lam=lam)


def unit_information_count(V, i):
    """Dispersion count c with c^{-2} = (|V| |i|)^{-1/d}: the geometric
    mean, per coordinate, of prior variance against unit information."""
    V = _as_matrix(V, "prior variance V")
    i = _as_matrix(i, "unit information matrix")
    d = V.shape[0]
    if d == 0:
        raise ContractError("unit information count is undefined for d = 0")
    if i.shape != V.shape:
        raise ContractError(
            f"V shape {V.shape} does not match information shape {i.shape}")
    log_c = (chol_logdet(V, "prior variance V")
             + chol_logdet(i, "unit information matrix")) / (2.0 * d)
    return math.exp(log_c)


def fisher_info_poisson(X, n, beta):
    """Unit Fisher information X' Diag(exp(X beta)) X / n of the Poisson
    log-linear model at beta."""
    X = _as_matrix(X, "design matrix")
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    if beta.shape != (X.shape[1],):
        raise ContractError(
            f"beta shape {beta.shape} does not match design columns "
            f"{X.shape[1]}")
    n = float(n)
    if not (n > 0.0):
        raise ContractError(f"sample size must be positive, got {n}")
    eta = X @ beta
    if eta.size and np.max(eta) > 700.0:
        raise ContractError("linear predictor overflows exp(); rescale first")
    lam0 = np.exp(eta)
    return (X.T * lam0) @ X / n


def log_prior_density(beta, prior):
    """Log N(mu, c^2 sigma_base) density at beta. d = 0 returns 0 (the
    point mass convention for the empty coefficient vector)."""
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    if beta.shape != (prior.d,):
        raise ContractError(
            f"beta shape {beta.shape} does not match prior dimension {prior.d}")
    W, _, _, const = _factor_prior(prior, prior.d)
    return _log_density_factored(beta, prior.mu, W, const)


def _factor_prior(prior, d):
    """(W, V^{-1}, log|V|, d log 2pi + log|V|) of a prior on a likelihood
    of d coefficients, from one Cholesky factor L of its variance V, with
    W = L^{-1}: the one factorization behind the conjugate update, the
    policy weights, the Laplace expansion and the density. V^{-1} must
    be finite."""
    if prior.d != d:
        raise ContractError(
            f"likelihood dimension {d} does not match prior dimension "
            f"{prior.d}")
    L = chol_factor(prior.variance(), "prior variance V")
    W = inv_factor(L)
    # L^{-T} W is chol_solve(L, I): the same two solves.
    v_inv = np.linalg.solve(L.T, W)
    if not np.all(np.isfinite(v_inv)):
        raise NumericalDomainError("prior variance V has no finite inverse")
    ld_v = factor_logdet(L)
    return W, v_inv, ld_v, d * math.log(2.0 * math.pi) + ld_v


def _log_density_factored(beta, mu, W, const):
    """Log N(mu, V) density at beta from _factor_prior's W and constant,
    with the quadratic form taken as ||W (beta - mu)||^2; beta must
    already have mu's shape."""
    z = W @ (beta - mu)
    return -0.5 * (const + float(z @ z))
