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
model. _gprior_rows alone adds the model weights to those marginals,
one c^2 at a time; gprior_sweep stacks its rows, and sweep, cv and
g-prior rjmcmc take their weights from it. Every route takes its value
from _log_marginals, which applies _residual's rules to s.

The conjugate update has two parts: _prior_terms, which depends on the
prior alone, and _update, which applies one design and response to it.
The exact leave-one-out matrix (loo_log_predictives) forms each model's
prior terms and full-data marginal once and runs only _update per fold,
so each entry equals loo_predictive_exact bit for bit.
"""
from dataclasses import dataclass
from functools import cached_property
from math import lgamma, log, pi
import math

import numpy as np

from ._linalg import check_factor, chol_factor, chol_solve, cholesky, \
    factor_logdet, inv_factor, log_sum_exp
from .averaging import LogMarginal, ModelPosterior
from .exceptions import ContractError, DegenerateDataError, JointBmaError, \
    NumericalDomainError, SpecificationError
from .model_space import LinearSubsets, _log_weights, model_lookup
from .param_priors import _check_c2, _check_covariates, \
    _check_sigma2_prior, _factor_prior, linear_design

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
        with np.errstate(over="ignore"):
            if not np.isfinite((np.column_stack([X, y]) ** 2).sum(0)).all():
                raise NumericalDomainError("data sums of squares overflow")
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


def _prior_terms(prior, d):
    """(V^{-1}, log|V|, V^{-1} mu, mu'V^{-1}mu) of a prior on a design of
    d columns: the part of the conjugate update that no data touch."""
    _, v_inv, ld_v, _ = _factor_prior(prior, d)
    v_inv_mu = v_inv @ prior.mu
    return v_inv, ld_v, v_inv_mu, float(prior.mu @ v_inv_mu)


def _update(Xm, y, yty, prior, terms):
    """(factor of V*^{-1}, beta_tilde, LogMarginal, s) of the conjugate
    update of design Xm on y, given y'y and the prior's _prior_terms."""
    v_inv, ld_v, v_inv_mu, mu_quad = terms
    L_prec = chol_factor(v_inv + Xm.T @ Xm, "posterior precision")
    b = v_inv_mu + Xm.T @ y
    beta_tilde = chol_solve(L_prec, b)
    ld_vstar = -factor_logdet(L_prec)
    value, convention, s = _log_marginals(
        y.shape[0], yty, 0.5 * (ld_v - ld_vstar), prior.alpha, prior.lam,
        yty + mu_quad - float(beta_tilde @ b))
    logml = LogMarginal(value=value, method="exact_nig", convention=convention)
    return L_prec, beta_tilde, logml, s


def posterior_moments(data, m, prior):
    """Full conjugate update of one model, marginal likelihood included."""
    Xm = linear_design(data.X, m)
    d = Xm.shape[1]
    L_prec, beta_tilde, logml, s = _update(
        Xm, data.y, data.yty, prior, _prior_terms(prior, d))
    Vstar = inv_factor(L_prec)[1]
    Vstar = 0.5 * (Vstar + Vstar.T)
    return LinearPosterior(m=m, Vstar=Vstar, beta_tilde=beta_tilde,
                           a_post=prior.alpha + 0.5 * data.n,
                           lambda_post=prior.lam + 0.5 * s, logml=logml)


def log_marginal_nig(data, m, prior):
    Xm = linear_design(data.X, m)
    return _update(Xm, data.y, data.yty, prior,
                   _prior_terms(prior, Xm.shape[1]))[2]


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
    _check_covariates(m.members, data.p)
    r2, tss = _centered_r2(data, [np.array([m.members], dtype=np.intp)])
    one = AllSubsets(models=(m,), d=np.array([m.d]), r2=r2, n=data.n,
                     yty=data.yty, tss=tss)
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
    L = chol_factor(post.Vstar, "posterior variance Vstar")
    z = rng.standard_normal((size, post.beta_tilde.shape[0]))
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
        if n < 2:
            raise ContractError("leave-one-out needs at least two "
                                "observations")
        # Each model's prior is factored, and its full-data marginal
        # taken, once; a fold then runs only the update of its design.
        # Every fold is loo_predictive_exact's, bit for bit.
        folds = [np.delete(data.y, j) for j in range(n)]
        folds = [(y, float(y @ y)) for y in folds]
        for mi, m in enumerate(models):
            prior = priors[m]
            Xm = linear_design(data.X, m)
            terms = _prior_terms(prior, Xm.shape[1])
            full = _update(Xm, data.y, data.yty, prior, terms)[2].value
            for j, (y, yty) in enumerate(folds):
                rest = _update(np.delete(Xm, j, axis=0), y, yty, prior,
                               terms)[2].value
                lpd[mi, j] = full - rest
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
            # -log N(y_j | mean_tj, sigma2_t) for every draw and column,
            # formed in place in the buffer of the means.
            nld = beta @ Xm.T
            np.subtract(data.y, nld, out=nld)
            nld *= nld
            nld /= sigma2[:, None]
            nld += np.log(2.0 * pi * sigma2)[:, None]
            nld *= 0.5
            # A contiguous row per observation reduces faster than a
            # strided column, to the same bits.
            lpd[mi] = [log(num_draws) - log_sum_exp(row)
                       for row in nld.T.copy()]
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
    members), aligned with the d and r2 arrays."""

    models: LinearSubsets
    d: np.ndarray
    r2: np.ndarray
    n: int
    yty: float
    tss: float

    @property
    def member(self):
        """models.member, the 0/1 covariate matrix, built on first read."""
        return self.models.member


def _centered_r2(data, indices):
    """(R^2 of the subsets in indices, in their order; TSS of the
    centered response). indices holds a k-column integer array per
    subset size k, as LinearSubsets.blocks gives them, each solved as one
    stacked batch of centered normal equations under chol_factor's rule
    on the covariates' correlation matrix: its principal submatrices are
    every subset's, and no column's shift or rescaling changes it."""
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

    r2 = []
    for idx in indices:
        gsub = g[idx]
        # Explicit trailing axis keeps the solve a batched vector solve.
        coef = np.linalg.solve(G[idx[:, :, None], idx[:, None, :]],
                               gsub[:, :, None])[:, :, 0]
        ess = np.einsum("ij,ij->i", coef, gsub)
        r2.append(np.clip(ess / tss, 0.0, 1.0))
    return np.concatenate(r2), tss


def all_subsets_stats(data):
    """One batched pass computing R^2 for all 2^p intercept-containing
    subsets. Each subset size's normal equations are solved as one
    stacked batch."""
    models = LinearSubsets(data.p, intercept=True)
    r2, tss = _centered_r2(data, (idx for _, _, idx in models.blocks()))
    return AllSubsets(models=models, d=models.d, r2=r2, n=data.n,
                      yty=data.yty, tss=tss)


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
        return np.exp(self.log_posterior[:, self._position(m)])

    @cached_property
    def _position(self):
        return model_lookup(self.models, "sweep")

    def map_models(self):
        return [self.models[i] for i in np.argmax(self.log_posterior, axis=1)]


def _gprior_rows(stats, c2_grid, policy, alpha=0.0, lam=0.0):
    """Yield (c2, log weights, ModelPosterior) over every subset in stats
    for one c^2 of c2_grid at a time. The base metric inverts i, so
    log|V| + log|i| = d log c^2, and d log(c^2 + 1/n) with i + V^{-1}/n.
    Errors raised at a grid point are re-raised annotated with it."""
    for c2 in c2_grid:
        try:
            lm, convention = gprior_log_marginals(stats, c2, alpha, lam)
        except JointBmaError as exc:
            raise type(exc)(f"grid point c2={c2:.17g}: {exc}") from exc
        log_w = _log_weights(
            policy, stats.models, c2,
            lambda exact: stats.d * log(c2 + 1.0 / stats.n if exact else c2))
        row = log_w + lm
        yield c2, row, ModelPosterior(stats.models, row - log_sum_exp(row),
                                      convention)


def gprior_sweep(data, c2_grid, policy, alpha=0.0, lam=0.0):
    """Whole-space posterior as a function of the dispersion scale.

    data is a LinearDataset, or the AllSubsets statistics built from one
    so that several policies can share a single all-subsets pass. Errors
    raised at a grid point name that point (see _gprior_rows).
    """
    c2_grid = np.atleast_1d(np.asarray(c2_grid, dtype=float))
    if c2_grid.size == 0:
        raise ContractError("c2_grid must contain positive scales")
    stats = data if isinstance(data, AllSubsets) else all_subsets_stats(data)
    _, log_weights, posts = zip(
        *_gprior_rows(stats, c2_grid, policy, alpha, lam))
    return SweepResult(models=stats.models, c2_grid=c2_grid,
                       log_weights=np.array(log_weights),
                       log_posterior=np.array([q.log_probs for q in posts]),
                       convention=posts[-1].convention)


def _identity_log_targets(data, policy, c2, alpha=0.0, lam=0.0):
    """(models, log targets) of the collapsed linear walk over every
    intercept-containing subset under the identity template: the log
    prior weight plus the conjugate log marginal of each model under
    prior_for_linear_model's prior with base "identity". With
    G = [1 X_S]'[1 X_S] and b = [1 X_S]'y, V = c^2 I, the posterior
    precision is A = G + V^{-1} and s = y'y - b'A^{-1}b. Each subset size
    is factored as one batch under chol_factor's rule on the matrices the
    per-model route factors, and s meets posterior_moments' rules, so
    both routes reject the same inputs.
    """
    n, yty = data.n, data.yty
    c2 = _check_c2(c2)
    models = LinearSubsets(data.p, intercept=True)
    info = policy.variant in ("adjusted_info", "loglinear_adjusted")
    # M = [A b; b' 2y'y + 1] factors to [L 0; z' sqrt(y'y + s + 1)], with
    # z = L^{-1}b, so only A can fail it, at any fit and at y = 0.
    Zy = np.hstack([np.ones((n, 1)), data.X, data.y[:, None]])
    gram = Zy.T @ Zy
    gram[-1, -1] = 2.0 * yty + 1.0
    what = "posterior precision"
    ld_g, ld_a, s = (np.zeros(len(models)) for _ in range(3))
    for k, rows, idx in models.blocks():
        d = k + 1
        cols = np.pad(idx + 1, ((0, 0), (1, 1)), constant_values=(0, -1))
        M = gram[cols[:, :, None], cols[:, None, :]]
        A = M[:, :d, :d]
        if info:
            ld_g[rows] = factor_logdet(
                chol_factor(A, "unit information matrix"))
        A += np.eye(d) / c2
        LM = cholesky(M, what)
        ld_a[rows] = factor_logdet(check_factor(LM[:, :d, :d], what))
        s[rows] = yty - (LM[:, d, :d] ** 2).sum(axis=1)

    d = models.d
    ld_v = d * log(c2)
    # log|i| = log|G| - d log n, and i + V^{-1}/n = A/n.
    log_w = _log_weights(
        policy, models, c2,
        lambda exact: ld_v + (ld_a if exact else ld_g) - d * log(n))
    log_ml = _log_marginals(n, yty, 0.5 * (ld_a + ld_v), alpha, lam, s)[0]
    return models, log_w + log_ml
