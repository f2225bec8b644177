"""Exact conjugate linear-model machinery against independent oracles.

Three oracles that share no code with the implementation:
  * proper-prior marginals via the multivariate Student-t density of y,
  * improper-reference marginals via 1-d quadrature over log sigma^2,
  * leave-one-out predictives via the univariate Student-t posterior
    predictive computed from a fresh conjugate update.
"""
import itertools
import math
import warnings

import numpy as np
import pytest
from scipy import integrate
from scipy.stats import multivariate_t
from scipy.stats import t as student_t

from jointbma.averaging import ModelPosterior, normalize_posterior
from jointbma.datasets import simulate_dfn
from jointbma.exceptions import ContractError, DegenerateDataError, \
    NumericalDomainError, SpecificationError
from jointbma.linear_exact import LinearDataset, _subset_log_targets, \
    all_subsets_stats, cv_score, gprior_log_marginals, gprior_sweep, \
    log_marginal_gprior_closed, log_marginal_nig, loo_predictive_exact, \
    posterior_moments, sample_joint_posterior
from jointbma.model_space import POLICY_VARIANTS, Baseline, ModelId, \
    ModelPriorPolicy, enumerate_linear_models, log_prior_model_weight
from jointbma.param_priors import InformationSource, ParamPrior, \
    linear_design, prior_for_linear_model


def make_instance(rng, n, k, proper):
    X = rng.standard_normal((n, k))
    y = rng.standard_normal(n) * 1.5 + X[:, 0] if k else \
        rng.standard_normal(n)
    data = LinearDataset(y=y, X=X)
    m = ModelId.linear(range(k), intercept=True)
    d = m.d
    a = rng.standard_normal((d, d + 2))
    sigma = a @ a.T / (d + 2) + np.eye(d)
    mu = rng.standard_normal(d) * 0.5
    alpha, lam = (2.5, 1.3) if proper else (0.0, 0.0)
    prior = ParamPrior(mu=mu, sigma_base=sigma, c2=float(rng.uniform(0.5, 4.0)),
                       alpha=alpha, lam=lam)
    return data, m, prior


def t_marginal_oracle(data, m, prior):
    """y ~ t_{2 alpha}(X mu, (lam/alpha)(I + X V X')) for proper priors."""
    Xm = linear_design(data.X, m)
    V = prior.variance()
    shape = (prior.lam / prior.alpha) * (np.eye(data.n) + Xm @ V @ Xm.T)
    return multivariate_t.logpdf(data.y, loc=Xm @ prior.mu, shape=shape,
                                 df=2.0 * prior.alpha)


def quadrature_marginal_oracle(data, m, prior):
    """Integrate f(y | sigma^2) p(sigma^2) over t = log sigma^2.

    Handles the improper reference p(sigma^2) = 1/sigma^2 (Jacobian
    absorbs it) and proper inverse-gamma priors alike.
    """
    Xm = linear_design(data.X, m)
    V = prior.variance()
    M = np.eye(data.n) + Xm @ V @ Xm.T
    sign, ld_m = np.linalg.slogdet(M)
    assert sign > 0
    resid = data.y - Xm @ prior.mu
    q = float(resid @ np.linalg.solve(M, resid))
    n = data.n
    alpha, lam = prior.alpha, prior.lam

    def log_integrand(t):
        s2 = math.exp(t)
        out = -0.5 * n * math.log(2.0 * math.pi * s2) - 0.5 * ld_m \
            - 0.5 * q / s2
        if alpha > 0.0:
            # inverse-gamma density times the ds^2 = s^2 dt Jacobian
            out += alpha * math.log(lam) - math.lgamma(alpha) \
                - alpha * t - lam / s2
        return out

    center = math.log((q + 2.0 * lam) / (n + 2.0 * alpha))
    peak = log_integrand(center)
    value, err = integrate.quad(
        lambda t: math.exp(log_integrand(t) - peak),
        center - 60.0, center + 60.0, limit=400, epsabs=0.0, epsrel=1e-12)
    assert err < 1e-9 * value
    return peak + math.log(value)


def test_marginal_matches_student_t_oracle():
    rng = np.random.default_rng(40)
    for trial in range(25):
        n = int(rng.integers(4, 30))
        k = int(rng.integers(0, min(4, n - 2) + 1))
        data, m, prior = make_instance(rng, n, k, proper=True)
        got = log_marginal_nig(data, m, prior)
        assert got.convention == "proper"
        assert got.value == pytest.approx(t_marginal_oracle(data, m, prior),
                                          rel=1e-10, abs=1e-10)


def test_marginal_matches_quadrature_proper_and_improper():
    rng = np.random.default_rng(41)
    for proper in (True, False):
        for trial in range(6):
            n = int(rng.integers(5, 20))
            k = int(rng.integers(0, 3))
            data, m, prior = make_instance(rng, n, k, proper=proper)
            got = log_marginal_nig(data, m, prior)
            oracle = quadrature_marginal_oracle(data, m, prior)
            assert got.value == pytest.approx(oracle, rel=1e-9, abs=1e-9)


def test_marginal_pinned_value():
    # d = 0, n = 2, alpha = lam = 1, y = 0: the marginal is the bivariate
    # t_2 density at the origin, exactly 1/(2 pi).
    data = LinearDataset(y=np.zeros(2), X=np.zeros((2, 0)))
    m = ModelId.linear([], intercept=False)
    prior = ParamPrior(mu=np.zeros(0), sigma_base=np.zeros((0, 0)), c2=1.0,
                       alpha=1.0, lam=1.0)
    got = log_marginal_nig(data, m, prior)
    assert got.value == pytest.approx(-math.log(2.0 * math.pi), rel=1e-14)


def test_posterior_moments_formulas_and_sequential_update():
    rng = np.random.default_rng(42)
    data, m, prior = make_instance(rng, 16, 3, proper=True)
    post = posterior_moments(data, m, prior)
    Xm = linear_design(data.X, m)
    V = prior.variance()
    prec = np.linalg.inv(V) + Xm.T @ Xm
    expected_mean = np.linalg.solve(
        prec, np.linalg.solve(V, prior.mu) + Xm.T @ data.y)
    assert np.allclose(post.beta_tilde, expected_mean, atol=1e-10)
    assert np.allclose(post.Vstar, np.linalg.inv(prec), atol=1e-10)
    assert post.a_post == pytest.approx(prior.alpha + 8.0)

    # conjugacy: updating on the first half then the second half equals
    # the batch update
    half = 8
    first = LinearDataset(y=data.y[:half], X=data.X[:half])
    post1 = posterior_moments(first, m, prior)
    carried = ParamPrior(mu=post1.beta_tilde, sigma_base=post1.Vstar,
                         c2=1.0, alpha=post1.a_post, lam=post1.lambda_post)
    second = LinearDataset(y=data.y[half:], X=data.X[half:])
    post2 = posterior_moments(second, m, carried)
    assert np.allclose(post2.beta_tilde, post.beta_tilde, atol=1e-9)
    assert np.allclose(post2.Vstar, post.Vstar, atol=1e-9)
    assert post2.lambda_post == pytest.approx(post.lambda_post, rel=1e-9)


def test_prior_dimension_mismatch():
    rng = np.random.default_rng(43)
    data, m, _ = make_instance(rng, 10, 2, proper=False)
    bad = ParamPrior(mu=np.zeros(5), sigma_base=np.eye(5), c2=1.0)
    with pytest.raises(ContractError, match="dimension"):
        posterior_moments(data, m, bad)


def test_gprior_closed_equals_generic():
    rng = np.random.default_rng(44)
    for trial in range(25):
        n = int(rng.integers(8, 40))
        k = int(rng.integers(0, 5))
        X = rng.standard_normal((n, max(k, 1)))
        y = rng.standard_normal(n) + (X[:, 0] if k else 0.0)
        data = LinearDataset(y=y, X=X)
        m = ModelId.linear(range(k), intercept=True)
        c2 = float(10.0 ** rng.uniform(-2, 5))
        alpha, lam = (1.5, 0.7) if trial % 2 else (0.0, 0.0)
        closed = log_marginal_gprior_closed(data, m, c2, alpha, lam)
        prior = prior_for_linear_model(data.X, m, c2, alpha=alpha, lam=lam)
        generic = log_marginal_nig(data, m, prior)
        assert closed.convention == generic.convention
        assert closed.value == pytest.approx(generic.value, rel=1e-10,
                                             abs=1e-8)


def test_gprior_closed_requires_intercept():
    data = LinearDataset(y=np.arange(5.0), X=np.ones((5, 1)))
    with pytest.raises(ContractError, match="intercept"):
        log_marginal_gprior_closed(data, ModelId.linear([0], intercept=False),
                                   c2=1.0)


def test_perfect_fit_improper_is_degenerate():
    X = np.array([[1.0], [2.0], [3.0]])
    data = LinearDataset(y=np.zeros(3), X=X)
    m = ModelId.linear([], intercept=False)
    prior = ParamPrior(mu=np.zeros(0), sigma_base=np.zeros((0, 0)), c2=1.0)
    with pytest.raises(DegenerateDataError):
        log_marginal_nig(data, m, prior)


def loo_t_oracle(data, m, prior, j):
    """Posterior predictive t density of y_j from the n-1 update."""
    rest = data.drop(j)
    post = posterior_moments(rest, m, prior)
    x_j = linear_design(data.X[j:j + 1], m)[0]
    loc = float(x_j @ post.beta_tilde) if post.beta_tilde.size else 0.0
    quad = float(x_j @ post.Vstar @ x_j) if post.beta_tilde.size else 0.0
    scale2 = (post.lambda_post / post.a_post) * (1.0 + quad)
    df = 2.0 * post.a_post
    z = (data.y[j] - loc) / math.sqrt(scale2)
    return student_t.logpdf(z, df=df) - 0.5 * math.log(scale2)


def test_loo_predictive_matches_t_oracle():
    rng = np.random.default_rng(45)
    for proper in (True, False):
        data, m, prior = make_instance(rng, 12, 2, proper=proper)
        for j in (0, 5, 11):
            got = loo_predictive_exact(data, m, prior, j)
            assert got == pytest.approx(loo_t_oracle(data, m, prior, j),
                                        rel=1e-10, abs=1e-10)


def test_sample_joint_posterior_moments():
    rng = np.random.default_rng(46)
    data, m, prior = make_instance(rng, 20, 2, proper=True)
    post = posterior_moments(data, m, prior)
    beta, sigma2 = sample_joint_posterior(data, m, prior, 200_000,
                                          np.random.default_rng(7))
    assert np.allclose(beta.mean(axis=0), post.beta_tilde, atol=0.02)
    expected_s2 = post.lambda_post / (post.a_post - 1.0)
    assert sigma2.mean() == pytest.approx(expected_s2, rel=0.02)


def test_all_subsets_stats_matches_lstsq():
    rng = np.random.default_rng(47)
    n, p = 25, 4
    X = rng.standard_normal((n, p))
    y = X[:, 1] - 0.5 * X[:, 3] + rng.standard_normal(n)
    data = LinearDataset(y=y, X=X)
    stats = all_subsets_stats(data)
    assert len(stats.models) == 2 ** p
    assert stats.member.shape == (2 ** p, p)
    for m, row in zip(stats.models, stats.member):
        assert np.flatnonzero(row).tolist() == list(m.members)
    for m, r2 in zip(stats.models, stats.r2):
        if not m.members:
            assert r2 == 0.0
            continue
        Xc = X[:, list(m.members)]
        Xc = Xc - Xc.mean(axis=0)
        yc = y - y.mean()
        ess = yc @ Xc @ np.linalg.lstsq(Xc, yc, rcond=None)[0]
        assert r2 == pytest.approx(ess / (yc @ yc), rel=1e-9)


def test_gprior_log_marginals_match_per_model():
    rng = np.random.default_rng(48)
    n, p = 18, 3
    X = rng.standard_normal((n, p))
    y = X[:, 0] + rng.standard_normal(n)
    data = LinearDataset(y=y, X=X)
    stats = all_subsets_stats(data)
    for c2, (alpha, lam) in itertools.product((0.5, 100.0, 1e6),
                                              ((0.0, 0.0), (2.0, 3.0))):
        values, convention = gprior_log_marginals(stats, c2, alpha, lam)
        assert convention == ("proper" if alpha else "improper")
        for m, v in zip(stats.models, values):
            direct = log_marginal_gprior_closed(data, m, c2, alpha, lam)
            assert direct.value == v


@pytest.mark.parametrize("scale", [1e15, 1e300])
def test_huge_sigma2_prior_keeps_the_residual_quantity(scale):
    # alpha = lam -> inf pins sigma^2 at 1, so model differences tend to
    # those of -half_logdet - s/2 on both the vector route and
    # posterior_moments': 2 lam + s must not round s away.
    dfn = simulate_dfn(3)
    data = LinearDataset(y=dfn.y, X=dfn.X[:, :4])
    stats = all_subsets_stats(data)
    c2 = 100.0
    nc2 = data.n * c2
    s = data.yty / (1.0 + nc2) + nc2 / (1.0 + nc2) * stats.tss * (
        1.0 - stats.r2)
    limit = -0.5 * stats.d * math.log1p(nc2) - 0.5 * s
    values, convention = gprior_log_marginals(stats, c2, scale, scale)
    per_model = np.array([
        log_marginal_nig(data, m, prior_for_linear_model(
            data.X, m, c2, alpha=scale, lam=scale)).value
        for m in stats.models])
    assert convention == "proper"
    for got in (values, per_model):
        assert np.allclose(got - got[0], limit - limit[0], rtol=0.0,
                           atol=1e-9)


@pytest.mark.parametrize("c2, constant, error", [
    (0.0, False, ContractError),
    (-1.0, False, ContractError),
    (math.inf, False, ContractError),
    (math.nan, False, ContractError),
    (1e-320, False, ContractError),
    (1.0, True, DegenerateDataError),
])
def test_linear_routes_reject_the_same_inputs(c2, constant, error):
    # Every route to a g-prior marginal rejects a bad c^2 with the same
    # type and text; a constant response has no R^2 for either closed
    # form (the conjugate routes still give it a finite marginal).
    rng = np.random.default_rng(50)
    X = rng.standard_normal((12, 2))
    y = np.full(12, 3.0) if constant else X[:, 0] + rng.standard_normal(12)
    data = LinearDataset(y=y, X=X)
    routes = [
        lambda: log_marginal_gprior_closed(data, ModelId.linear([1]), c2),
        lambda: gprior_log_marginals(all_subsets_stats(data), c2),
    ]
    if not constant:
        routes += [
            lambda: ParamPrior(mu=np.zeros(2), sigma_base=np.eye(2), c2=c2),
            lambda: _subset_log_targets(
                data, ModelPriorPolicy(variant="uniform"), c2),
            lambda: _subset_log_targets(
                data, ModelPriorPolicy(variant="uniform"), c2,
                base="identity"),
        ]
    match = "response is constant" if constant else \
        "c2 must be positive and finite"
    for route in routes:
        with pytest.raises(error, match=match):
            route()


def test_gprior_sweep_matches_generic_policy_route():
    rng = np.random.default_rng(49)
    n, p = 20, 3
    X = rng.standard_normal((n, p))
    y = 2.0 * X[:, 2] + rng.standard_normal(n)
    data = LinearDataset(y=y, X=X)
    grid = np.array([1.0, 50.0, 2500.0])
    baseline = Baseline.dimension(-0.25)
    for variant in POLICY_VARIANTS:
        policy = ModelPriorPolicy(variant=variant, baseline=baseline)
        sweep = gprior_sweep(data, grid, policy)
        shared = gprior_sweep(all_subsets_stats(data), grid, policy)
        assert np.array_equal(shared.log_posterior, sweep.log_posterior)
        for gi, c2 in enumerate(grid):
            marginals, lws = [], []
            for m in sweep.models:
                prior = prior_for_linear_model(data.X, m, c2)
                marginals.append(log_marginal_nig(data, m, prior))
                info = InformationSource.linear(linear_design(data.X, m)) \
                    if variant not in ("uniform", "adjusted_c") else None
                lws.append(log_prior_model_weight(m, policy, prior=prior,
                                                  info=info))
            expected = normalize_posterior(list(sweep.models), marginals,
                                           log_prior_weights=lws)
            got = sweep.posterior_at(gi)
            assert np.allclose(got.probs, expected.probs, atol=1e-10)


def test_subset_log_targets_gprior_equal_sweep_bit_for_bit():
    # The collapsed walk's g-prior targets are the sweep's log weights.
    rng = np.random.default_rng(51)
    X = rng.standard_normal((25, 4))
    data = LinearDataset(y=1.0 + X[:, 1] + rng.standard_normal(25), X=X)
    stats = all_subsets_stats(data)
    for variant, (alpha, lam), c2 in itertools.product(
            POLICY_VARIANTS, ((0.0, 0.0), (2.0, 3.0)), (0.5, 9.0, 1e6)):
        policy = ModelPriorPolicy(variant=variant,
                                  baseline=Baseline.dimension(-0.3))
        models, targets = _subset_log_targets(data, policy, c2, alpha, lam)
        sweep = gprior_sweep(stats, [c2], policy, alpha, lam)
        assert list(models) == list(sweep.models)
        assert np.array_equal(targets, sweep.log_weights[0])


@pytest.mark.parametrize("change", ["rescaled", "shifted"])
def test_gprior_targets_invariant_to_affine_column_changes(change):
    # With the intercept in every model, the g-prior weights and
    # marginals depend on the covariates only through R^2, which a
    # column's rescaling or shift leaves unchanged.
    rng = np.random.default_rng(52)
    X = rng.standard_normal((30, 4))
    data = LinearDataset(y=1.0 + X[:, 0] - 0.5 * X[:, 1]
                         + rng.standard_normal(30), X=X)
    moved = X.copy()
    if change == "rescaled":
        moved[:, 2] *= 1e-7
    else:
        moved[:, 1] += 1e4
    for variant, (alpha, lam) in itertools.product(
            POLICY_VARIANTS, ((0.0, 0.0), (2.0, 3.0))):
        args = (ModelPriorPolicy(variant=variant), 9.0, alpha, lam)
        _, expected = _subset_log_targets(data, *args)
        _, got = _subset_log_targets(LinearDataset(y=data.y, X=moved), *args)
        assert np.max(np.abs(got - expected)) <= 1e-10


@pytest.mark.parametrize("column", ["constant", "duplicate"])
def test_all_subsets_stats_rejects_a_singular_correlation_matrix(column):
    # One rule for every subset: chol_factor on the covariates'
    # correlation matrix, with no numpy warning on the way.
    rng = np.random.default_rng(53)
    X = rng.standard_normal((30, 3))
    X[:, 1] = 0.1 if column == "constant" else X[:, 0] * 3.0 - 2.0
    data = LinearDataset(y=X[:, 0] + rng.standard_normal(30), X=X)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalDomainError,
                           match="covariate correlation matrix"):
            all_subsets_stats(data)


@pytest.mark.parametrize("baseline", [
    Baseline.constant(), Baseline.dimension(-0.37),
    Baseline.calibrated(24.0, 1.3),
    Baseline.from_table({m: 0.1 * len(m.members) ** 2
                         for m in enumerate_linear_models(4)}),
], ids=["constant", "dimension", "calibrated", "table"])
def test_gprior_sweep_baseline_equals_per_model_log_p(baseline):
    rng = np.random.default_rng(50)
    X = rng.standard_normal((16, 4))
    data = LinearDataset(y=X[:, 0] + rng.standard_normal(16), X=X)
    stats = all_subsets_stats(data)
    policy = ModelPriorPolicy(variant="uniform", baseline=baseline)
    sweep = gprior_sweep(stats, [3.0], policy)
    # Same operations in the same order as Baseline.log_p, model by model.
    expected = np.array([baseline.log_p(m) for m in stats.models])
    lm, _ = gprior_log_marginals(stats, 3.0)
    assert np.array_equal(sweep.log_weights[0],
                          expected + 0.0 * math.log(3.0) + lm)


def test_gprior_sweep_keeps_calibrated_baseline_validation():
    rng = np.random.default_rng(51)
    X = rng.standard_normal((12, 2))
    data = LinearDataset(y=X[:, 0] + rng.standard_normal(12), X=X)
    for n0, psi0, match in ((1.0, 1.0, "reference sample size"),
                            (24.0, 0.0, "penalty value")):
        policy = ModelPriorPolicy(variant="adjusted_c",
                                  baseline=Baseline.calibrated(n0, psi0))
        with pytest.raises(SpecificationError, match=match):
            gprior_sweep(data, [1.0], policy)


def test_cv_score_exact_matches_hand_computation():
    rng = np.random.default_rng(50)
    n = 14
    X = rng.standard_normal((n, 1))
    y = 1.5 * X[:, 0] + rng.standard_normal(n)
    data = LinearDataset(y=y, X=X)
    models = [ModelId.linear([], intercept=True),
              ModelId.linear([0], intercept=True)]
    priors = {m: prior_for_linear_model(data.X, m, c2=10.0) for m in models}
    marginals = [log_marginal_nig(data, m, priors[m]) for m in models]
    posterior = normalize_posterior(models, marginals)
    score = cv_score(posterior, data, priors, mode="exact")

    lw = posterior.log_probs
    total = 0.0
    for j in range(n):
        lpd = np.array([loo_predictive_exact(data, m, priors[m], j)
                        for m in models])
        num = np.logaddexp(lw[0], lw[1])
        den = np.logaddexp(lw[0] - lpd[0], lw[1] - lpd[1])
        total -= num - den
    assert score.total == pytest.approx(total, rel=1e-12)
    assert score.per_obs.shape == (n,)


def test_cv_score_gelfand_close_to_exact():
    rng = np.random.default_rng(51)
    n = 12
    X = rng.standard_normal((n, 1))
    y = 0.8 * X[:, 0] + rng.standard_normal(n)
    data = LinearDataset(y=y, X=X)
    models = enumerate_linear_models(1)
    priors = {m: prior_for_linear_model(data.X, m, c2=4.0, alpha=2.0,
                                        lam=1.0) for m in models}
    marginals = [log_marginal_nig(data, m, priors[m]) for m in models]
    posterior = normalize_posterior(models, marginals)
    exact = cv_score(posterior, data, priors, mode="exact")
    gelfand = cv_score(posterior, data, priors, mode="gelfand",
                       rng=np.random.default_rng(8), num_draws=60_000)
    assert gelfand.total == pytest.approx(exact.total, abs=0.1)


def test_cv_score_requires_rng_for_gelfand():
    data = LinearDataset(y=np.arange(4.0), X=np.ones((4, 1)))
    m = ModelId.linear([], intercept=True)
    prior = prior_for_linear_model(data.X, m, c2=1.0)
    posterior = ModelPosterior(models=(m,), log_probs=np.zeros(1),
                               convention="improper")
    with pytest.raises(ContractError, match="rng"):
        cv_score(posterior, data, {m: prior}, mode="gelfand")
