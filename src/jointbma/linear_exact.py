"""Exact marginal likelihoods for normal linear models.

Conjugate setup: y | beta, sigma^2 ~ N(X_m beta, sigma^2 I),
beta | sigma^2 ~ N(mu, sigma^2 V) with V = c^2 Sigma_m, and an
inverse-gamma(alpha, lambda) prior on sigma^2 (alpha = lambda = 0 is the
improper reference). The marginal likelihood is available in closed
form:

    log f(y | m) = -(n/2) log pi + lgam(alpha + n/2) - lgam(alpha)
                   + alpha log(2 lambda) + (1/2) log|V*| - (1/2) log|V|
                   - (alpha + n/2) log(2 lambda + s)

with V* = (V^{-1} + X'X)^{-1}, beta~ = V* (V^{-1} mu + X'y) and
s = y'y + mu'V^{-1}mu - beta~'(V*)^{-1}beta~. Under the improper
reference the lgam(alpha) and alpha log(2 lambda) terms are dropped and
the value is defined only up to a constant shared by all models on the
same data, which the 'improper' convention tag records.

The g-prior (mu = 0, Sigma_m = n (X_m'X_m)^{-1}) collapses the
determinant ratio to -(d/2) log(1 + n c^2) and s to a function of the
fit R^2 alone, which is what makes whole-space sweeps over 2^p models
cheap: one batched least-squares pass yields every marginal for every
dispersion scale, and log_marginal_gprior_closed is that pass on one
model. Every route, posterior_moments included, takes its value from
_log_marginals, which applies _residual's rules to s.
"""
from dataclasses import dataclass
from functools import cached_property
from math import lgamma, log, pi
import math

import numpy as np

from ._linalg import check_factor, chol_factor, chol_solve, factor_logdet, \
    log_sum_exp
from .averaging import LogMarginal, ModelPosterior
from .exceptions import ContractError, DegenerateDataError, JointBmaError, \
    NumericalDomainError, SpecificationError
from .model_space import LinearSubsets, model_lookup
from .param_priors import _check_c2, _check_sigma2_prior, linear_design

__all__ = [
    "LinearDataset",
    "LinearPosterior",
    "CvScore",
    "AllSubsets",
    "SweepResult",
    "posterior_moments",
    "log_marginal_nig",
    "log_marginal_gprior_closed",
    "loo_predictive_exact",
    "sample_joint_posterior",
    "cv_score",
    "loo_log_predictives",
    "cv_score_from_lpd",
    "all_subsets_stats",
    "gprior_log_marginals",
    "gprior_sweep",
]

@dataclass(frozen=True)
class LinearDataset:
    """Response vector and covariate matrix (without intercept column).
    labels optionally names the covariate columns, e.g. from a CSV
    header; empty means unnamed."""

    y: np.ndarray
    X: np.ndarray
    labels: tuple = ()

    def __post_init__(self):
        y = np.atleast_1d(np.asarray(self.y, dtype=float))
        X = np.asarray(self.X, dtype=float)
        if y.ndim != 1:
            raise ContractError(f"y must be a vector, got shape {y.shape}")
        if X.ndim != 2:
            raise ContractError(f"X must be a matrix, got shape {X.shape}")
        if X.shape[0] != y.shape[0]:
            raise ContractError(
                f"X has {X.shape[0]} rows but y has {y.shape[0]} entries")
        if y.shape[0] < 1:
            raise ContractError("need at least one observation")
        if not np.all(np.isfinite(y)) or not np.all(np.isfinite(X)):
            raise ContractError("data contain non-finite values")
        labels = tuple(str(name) for name in self.labels)
        if labels and len(labels) != X.shape[1]:
            raise ContractError(
                f"{len(labels)} labels for {X.shape[1]} covariate columns")
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "labels", labels)

    @property
    def n(self):
        return self.y.shape[0]

    @property
    def p(self):
        return self.X.shape[1]

    @property
    def yty(self):
        return float(self.y @ self.y)

    def drop(self, j):
        j = int(j)
        if not 0 <= j < self.n:
            raise ContractError(f"row {j} out of range for n = {self.n}")
        return LinearDataset(y=np.delete(self.y, j),
                             X=np.delete(self.X, j, axis=0),
                             labels=self.labels)


@dataclass(frozen=True)
class LinearPosterior:
    """Conjugate posterior of one model: beta | sigma^2, y is
    N(beta_tilde, sigma^2 Vstar), sigma^2 | y is
    inverse-gamma(a_post, lambda_post)."""

    m: object
    Vstar: np.ndarray
    beta_tilde: np.ndarray
    a_post: float
    lambda_post: float
    logml: LogMarginal


def _residual(s, yty, lam):
    """The residual quantity s (a float or an array), a sum of squares
    in exact arithmetic: rounding below 0 is clamped to 0, a gross
    violation is a ContractError, and a perfect fit (lam + s/2 = 0 under
    the improper reference) leaves the marginal undefined."""
    # The least s decides both rules; numpy is slow on a single float.
    array = isinstance(s, np.ndarray)
    low = s.min() if array else s
    if low < -1e-8 * (yty + 1.0):
        raise ContractError(f"negative residual quantity s = {low}")
    if lam + 0.5 * max(low, 0.0) <= 0.0:
        raise DegenerateDataError(
            "perfect fit under the improper reference prior leaves the "
            "marginal likelihood undefined; add observations or use a "
            "proper sigma^2 prior")
    return np.maximum(s, 0.0) if array else max(s, 0.0)


def _log_marginals(n, yty, half_logdet, alpha, lam, s):
    """(values, convention, s): each model's conjugate log marginal from
    its half log-determinant term (1/2) log(|V| / |V*|) and its residual
    quantity s, a float (math.log) or an array (np.log), after _residual's
    rules. A proper prior's alpha log(2 lam) - (alpha + n/2) log(2 lam + s)
    is taken as -alpha log((2 lam + s) / (2 lam)) - (n/2) log(2 lam + s),
    each log as log(hi) + log1p(lo / hi) over the larger and smaller of
    2 lam and s, so neither rounds the other away."""
    alpha, lam = _check_sigma2_prior(alpha, lam)
    s = _residual(s, yty, lam)
    ln, ln1p, top, bottom = (np.log, np.log1p, np.maximum, np.minimum) \
        if isinstance(s, np.ndarray) else (log, math.log1p, max, min)
    if alpha == 0.0:
        return (-0.5 * n * log(pi) + lgamma(0.5 * n) - half_logdet
                - 0.5 * n * ln(s)), "improper", s
    try:
        head = lgamma(alpha + 0.5 * n) - lgamma(alpha)
    except OverflowError:
        head = math.inf
    two_lam = 2.0 * lam
    # Overflow gives inf or nan, which the check below reports.
    with np.errstate(over="ignore", invalid="ignore"):
        hi = top(s, two_lam)
        log_hi, log1p_lo = ln(hi), ln1p(bottom(s, two_lam) / hi)
        # log(hi / (2 lam)) is exactly 0, not a rounding of it, at hi = 2 lam.
        log_ratio = (s > two_lam) * (log_hi - log(two_lam)) + log1p_lo
        values = (-0.5 * n * log(pi) + head - half_logdet
                  - alpha * log_ratio - 0.5 * n * (log_hi + log1p_lo))
    if not np.all(np.isfinite(values)):
        raise NumericalDomainError(
            f"the sigma^2 prior alpha={alpha}, lam={lam} overflows the "
            f"marginal likelihood at n={n}")
    return values, "proper", s


def posterior_moments(data, m, prior):
    """Full conjugate update of one model, marginal likelihood included."""
    Xm = linear_design(data.X, m)
    d = Xm.shape[1]
    if prior.d != d:
        raise ContractError(
            f"prior dimension {prior.d} does not match model dimension {d}")
    n = data.n
    y = data.y
    yty = data.yty

    L_v = chol_factor(prior.variance(), "prior variance V")
    v_inv = chol_solve(L_v, np.eye(d))
    ld_v = factor_logdet(L_v)
    L_prec = chol_factor(v_inv + Xm.T @ Xm, "posterior precision")
    b = v_inv @ prior.mu + Xm.T @ y
    beta_tilde = chol_solve(L_prec, b)
    Vstar = chol_solve(L_prec, np.eye(d))
    Vstar = 0.5 * (Vstar + Vstar.T)
    ld_vstar = -factor_logdet(L_prec)
    value, convention, s = _log_marginals(
        n, yty, 0.5 * (ld_v - ld_vstar), prior.alpha, prior.lam,
        yty + float(prior.mu @ (v_inv @ prior.mu)) - float(beta_tilde @ b))
    logml = LogMarginal(value=value, method="exact_nig", convention=convention)
    return LinearPosterior(m=m, Vstar=Vstar, beta_tilde=beta_tilde,
                           a_post=prior.alpha + 0.5 * n,
                           lambda_post=prior.lam + 0.5 * s, logml=logml)


def log_marginal_nig(data, m, prior):
    return posterior_moments(data, m, prior).logml


def log_marginal_gprior_closed(data, m, c2, alpha=0.0, lam=0.0):
    """Closed-form g-prior marginal:
    -(d/2) log(1 + n c^2) - (alpha + n/2) log(2 lambda + s(R^2)) plus the
    sigma^2 head, with s = y'y/(1 + n c^2) + w * TSS * (1 - R^2) and
    w = n c^2 / (1 + n c^2). Exactly equals the generic route with
    mu = 0 and Sigma = n (X_m'X_m)^{-1} over all model columns, and is
    bit for bit m's entry of gprior_log_marginals(all_subsets_stats(data)).
    The fit is centered, so the model must contain the intercept."""
    if not m.intercept:
        raise ContractError(
            "the closed-form g-prior marginal requires the intercept in the "
            "model; use the generic route for no-intercept models")
    if m.members and m.members[-1] >= data.p:
        raise ContractError(
            f"model references column {m.members[-1]} but X has {data.p} "
            "columns")
    idx = np.array([m.members], dtype=np.intp)
    r2, tss = _centered_r2(data, [(idx.shape[1], slice(0, 1), idx)], 1)
    one = AllSubsets(models=(m,), d=np.array([m.d]), r2=r2,
                     member=np.isin(np.arange(data.p), idx)[None, :] * 1.0,
                     n=data.n, yty=data.yty, tss=tss)
    values, convention = gprior_log_marginals(one, c2, alpha, lam)
    return LogMarginal(value=float(values[0]), method="closed_g",
                       convention=convention)


def loo_predictive_exact(data, m, prior, j):
    """log f(y_j | y_{-j}, m) as a ratio of marginal likelihoods. The
    improper-convention offsets cancel, so the predictive is proper
    under either convention. The prior is held fixed, not refit."""
    full = log_marginal_nig(data, m, prior).value
    rest = log_marginal_nig(data.drop(j), m, prior).value
    return full - rest


def sample_joint_posterior(data, m, prior, size, rng):
    """Exact i.i.d. draws of (beta, sigma^2) from one model's posterior:
    sigma^2 from its inverse-gamma marginal, beta conditionally normal."""
    size = int(size)
    if size < 1:
        raise ContractError(f"size must be >= 1, got {size}")
    post = posterior_moments(data, m, prior)
    tau = rng.gamma(shape=post.a_post, scale=1.0 / post.lambda_post, size=size)
    sigma2 = 1.0 / tau
    d = post.beta_tilde.shape[0]
    if d == 0:
        return np.zeros((size, 0)), sigma2
    L = chol_factor(post.Vstar, "posterior variance Vstar")
    z = rng.standard_normal((size, d))
    beta = post.beta_tilde + (z @ L.T) * np.sqrt(sigma2)[:, None]
    return beta, sigma2


@dataclass(frozen=True)
class CvScore:
    """Leave-one-out score S = -sum_j log f(y_j | y_{-j}) under the
    model-averaged predictive."""

    total: float
    per_obs: np.ndarray
    mode: str


def cv_score(posterior, data, priors, mode="exact", rng=None, num_draws=2000):
    """Model-averaged leave-one-out predictive score.

    The averaged predictive at observation j satisfies

        log f(y_j | y_{-j}) = lse(lw) - lse(lw - lpd_j)

    where lw are the (possibly unnormalized) log posterior model weights
    on the full data and lpd_j the per-model log predictives; the second
    term re-weights each model by how much observation j supported it.
    mode 'exact' evaluates lpd by marginal-likelihood ratios; 'gelfand'
    estimates it from full-posterior draws as the inverse of the
    posterior mean of the inverse observation density, which targets the
    same full-data-weight decomposition. This is loo_log_predictives
    followed by cv_score_from_lpd.
    """
    lpd = loo_log_predictives(posterior.models, data, priors, mode=mode,
                              rng=rng, num_draws=num_draws)
    return cv_score_from_lpd(posterior, lpd, mode)


def loo_log_predictives(models, data, priors, mode="exact", rng=None,
                        num_draws=2000):
    """Matrix lpd[i, j] = log f(y_j | y_{-j}, model i) of per-model
    leave-one-out log predictives (see cv_score for the two modes). It
    depends on the parameter priors but not on the model weights, so
    several model-prior policies can share one matrix."""
    for m in models:
        if m not in priors:
            raise ContractError(f"no prior supplied for model {m.label()}")
    n = data.n
    lpd = np.zeros((len(models), n))
    if mode == "exact":
        for mi, m in enumerate(models):
            for j in range(n):
                lpd[mi, j] = loo_predictive_exact(data, m, priors[m], j)
    elif mode == "gelfand":
        if rng is None:
            raise ContractError("mode 'gelfand' requires an rng")
        num_draws = int(num_draws)
        if num_draws < 2:
            raise ContractError(f"num_draws must be >= 2, got {num_draws}")
        for mi, m in enumerate(models):
            beta, sigma2 = sample_joint_posterior(data, m, priors[m],
                                                  num_draws, rng)
            Xm = linear_design(data.X, m)
            mean = beta @ Xm.T if Xm.shape[1] else np.zeros((num_draws, n))
            # log N(y_j | mean_tj, sigma2_t) for every draw and column
            resid2 = (data.y[None, :] - mean) ** 2
            log_dens = -0.5 * (np.log(2.0 * pi * sigma2)[:, None]
                               + resid2 / sigma2[:, None])
            for j in range(n):
                lpd[mi, j] = log(num_draws) - log_sum_exp(-log_dens[:, j])
    else:
        raise SpecificationError(
            f"unknown cv mode {mode!r}; expected 'exact' or 'gelfand'")
    return lpd


def cv_score_from_lpd(posterior, lpd, mode):
    """Weight loo_log_predictives' matrix (rows in posterior.models order)
    by the posterior model probabilities; mode labels the result."""
    lw = posterior.log_probs
    if lpd.shape[0] != len(posterior.models):
        raise ContractError(
            f"lpd has {lpd.shape[0]} rows for {len(posterior.models)} models")
    lse_lw = log_sum_exp(lw)
    per_obs = np.array([lse_lw - log_sum_exp(lw - lpd[:, j])
                        for j in range(lpd.shape[1])])
    return CvScore(total=float(-np.sum(per_obs)), per_obs=per_obs, mode=mode)


@dataclass(frozen=True)
class AllSubsets:
    """Sufficient statistics for every covariate subset: models is the
    LinearSubsets space in canonical order (dimension, then lexicographic
    members), aligned with the d and r2 arrays and the rows of member,
    the 0/1 matrix of covariate membership (one column per covariate)."""

    models: LinearSubsets
    d: np.ndarray
    r2: np.ndarray
    member: np.ndarray
    n: int
    yty: float
    tss: float


def _centered_r2(data, blocks, size):
    """(R^2 of each subset in blocks, as LinearSubsets.blocks gives them,
    in an array of the given size; TSS of the centered response). Each
    block's centered normal equations are solved as one stacked batch,
    under chol_factor's rule on the covariates' correlation matrix: its
    principal submatrices are every subset's, and no column's shift or
    rescaling changes it."""
    yc = data.y - data.y.mean()
    tss = float(yc @ yc)
    if tss <= 0.0:
        raise DegenerateDataError("response is constant; R^2 is undefined")
    Xc = data.X - data.X.mean(axis=0)
    G = Xc.T @ Xc
    g = Xc.T @ yc
    # Unit-norm columns; a constant one, whatever its centering rounds
    # to, is scaled to zero and fails the factor.
    norm = np.where(np.ptp(data.X, axis=0) > 0.0, np.sqrt(G.diagonal()),
                    np.inf)
    chol_factor(G / np.outer(norm, norm), "covariate correlation matrix")

    r2 = np.zeros(size)
    for k, rows, idx in blocks:
        if k == 0:
            continue
        gsub = g[idx]
        # Explicit trailing axis keeps the solve a batched vector solve.
        coef = np.linalg.solve(G[idx[:, :, None], idx[:, None, :]],
                               gsub[:, :, None])[:, :, 0]
        ess = np.einsum("ij,ij->i", coef, gsub)
        r2[rows] = np.clip(ess / tss, 0.0, 1.0)
    return r2, tss


def all_subsets_stats(data):
    """One batched pass computing R^2 for all 2^p intercept-containing
    subsets. Each subset size's normal equations are solved as one
    stacked batch."""
    models = LinearSubsets(data.p, intercept=True)
    r2, tss = _centered_r2(data, models.blocks(), len(models))
    return AllSubsets(models=models, d=models.d, r2=r2, member=models.member,
                      n=data.n, yty=data.yty, tss=tss)


def gprior_log_marginals(stats, c2, alpha=0.0, lam=0.0):
    """Vector of closed-form g-prior log marginals over all subsets at
    one dispersion scale."""
    c2 = _check_c2(c2, stats.n)
    nc2 = stats.n * c2
    w = nc2 / (1.0 + nc2)
    s = stats.yty / (1.0 + nc2) + w * stats.tss * (1.0 - stats.r2)
    return _log_marginals(stats.n, stats.yty, 0.5 * stats.d * math.log1p(nc2),
                          alpha, lam, s)[:2]


@dataclass(frozen=True)
class SweepResult:
    """Posterior over all subsets along a grid of dispersion scales."""

    models: LinearSubsets
    c2_grid: np.ndarray
    log_weights: np.ndarray
    log_posterior: np.ndarray
    convention: str

    def posterior_at(self, i):
        return ModelPosterior(models=self.models,
                              log_probs=self.log_posterior[i],
                              convention=self.convention)

    def prob_trace(self, m):
        pos = self._position(m)
        if pos is None:
            raise ContractError(f"model {m.label()} not in sweep support")
        return np.exp(self.log_posterior[:, pos])

    @cached_property
    def _position(self):
        return model_lookup(self.models)

    def map_models(self):
        return [self.models[i] for i in np.argmax(self.log_posterior, axis=1)]


def _gprior_log_weights(policy, stats, c2):
    """Log prior weight of every subset under the g-prior base at c^2.
    The base metric inverts the unit information, so each adjustment
    depends on the model only through d: (d/2) log c^2 for adjusted_c,
    adjusted_info and loglinear_adjusted, and (d/2) log(c^2 + 1/n) for
    adjusted_exact."""
    baseline = policy.baseline._log_p_all(stats.models)
    if policy.variant == "uniform":
        return baseline
    if policy.variant == "adjusted_exact":
        c2 = c2 + 1.0 / stats.n
    return baseline + 0.5 * stats.d * log(c2)


def gprior_sweep(data, c2_grid, policy, alpha=0.0, lam=0.0):
    """Whole-space posterior as a function of the dispersion scale.

    data is a LinearDataset, or the AllSubsets statistics built from one
    so that several policies can share a single all-subsets pass. Every
    policy variant has a closed form (see _gprior_log_weights). Errors
    raised at a grid point are re-raised annotated with that point.
    """
    c2_grid = np.atleast_1d(np.asarray(c2_grid, dtype=float))
    if c2_grid.size == 0:
        raise ContractError("c2_grid must contain positive scales")
    stats = data if isinstance(data, AllSubsets) else all_subsets_stats(data)
    log_weights = np.zeros((c2_grid.size, len(stats.models)))
    convention = None
    for gi, c2 in enumerate(c2_grid):
        try:
            lm, convention = gprior_log_marginals(stats, c2, alpha, lam)
        except JointBmaError as exc:
            raise type(exc)(f"grid point c2={c2:.17g}: {exc}") from exc
        log_weights[gi] = _gprior_log_weights(policy, stats, c2) + lm
    log_post = log_weights - np.array([log_sum_exp(row)
                                       for row in log_weights])[:, None]
    return SweepResult(models=stats.models, c2_grid=c2_grid,
                       log_weights=log_weights, log_posterior=log_post,
                       convention=convention)


def _subset_log_targets(data, policy, c2, alpha=0.0, lam=0.0, base="gprior"):
    """(models, log targets) of the collapsed linear walk over every
    intercept-containing subset: the log prior weight plus the conjugate
    log marginal of each model under prior_for_linear_model's prior, base
    "gprior" or "identity". The g-prior targets are gprior_sweep's log
    weights at c^2, bit for bit. For the identity base, with
    G = [1 X_S]'[1 X_S] and b = [1 X_S]'y, V = c^2 I, the posterior
    precision is A = G + V^{-1} and s = y'y - b'A^{-1}b. Each subset size
    is factored as one batch under chol_factor's rule on the matrices the
    per-model route factors, and s meets posterior_moments' rules, so
    both routes reject the same inputs.
    """
    if base == "gprior":
        stats = all_subsets_stats(data)
        log_ml, _ = gprior_log_marginals(stats, c2, alpha, lam)
        return stats.models, _gprior_log_weights(policy, stats, c2) + log_ml
    n, yty = data.n, data.yty
    c2 = _check_c2(c2)
    models = LinearSubsets(data.p, intercept=True)
    log_w = policy.baseline._log_p_all(models)
    info = policy.variant in ("adjusted_info", "loglinear_adjusted")
    # Each subset's [A b; b' y'y] is one gather from the Gram matrix of
    # [1 X y], with V^{-1} added to A; its last pivot is s.
    Zy = np.hstack([np.ones((n, 1)), data.X, data.y[:, None]])
    gram = Zy.T @ Zy
    what = "posterior precision"
    ld_g, ld_a, s = (np.zeros(len(models)) for _ in range(3))
    for k, rows, idx in models.blocks():
        d = k + 1
        cols = np.pad(idx + 1, ((0, 0), (1, 1)),
                      constant_values=(0, data.p + 1))
        M = gram[cols[:, :, None], cols[:, None, :]]
        A = M[:, :d, :d]
        if info:
            ld_g[rows] = factor_logdet(
                chol_factor(A, "unit information matrix"))
        A += np.eye(d) / c2
        try:
            LM = np.linalg.cholesky(M)
            L, pivot2 = check_factor(LM[:, :d, :d], what), LM[:, d, d] ** 2
        except np.linalg.LinAlgError:
            # s <= 0 in rounding, or an A that chol_factor rejects.
            L = chol_factor(A, what)
            z = np.linalg.solve(L, M[:, :d, d:])[:, :, 0]
            pivot2 = M[:, d, d] - np.einsum("ij,ij->i", z, z)
        ld_a[rows] = factor_logdet(L)
        s[rows] = pivot2

    d = models.d
    ld_v = d * log(c2)
    if policy.variant == "adjusted_c":
        log_w += 0.5 * ld_v
    elif info:
        log_w += 0.5 * (ld_v + ld_g - d * log(n))
    elif policy.variant == "adjusted_exact":
        log_w += 0.5 * (ld_v + ld_a - d * log(n))
    log_ml = _log_marginals(n, yty, 0.5 * (ld_a + ld_v), alpha, lam, s)[0]
    return models, log_w + log_ml
