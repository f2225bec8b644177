"""Parameter priors, base metrics, and information sources."""
import math

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest
from scipy.stats import multivariate_normal

from jointbma._linalg import chol_factor, quad_form
from jointbma.exceptions import ContractError, NumericalDomainError
from jointbma.glm_laplace import PoissonLogLinear, log_marginal_laplace_model
from jointbma.linear_exact import LinearDataset, log_marginal_nig, \
    loo_log_predictives, posterior_moments
from jointbma.model_space import ModelId, ModelPriorPolicy, \
    log_prior_model_weight
from jointbma.param_priors import InformationSource, ParamPrior, TermBlock, \
    _factor_prior, _log_density_factored, blockwise_prior, \
    fisher_info_poisson, gprior_base, linear_design, log_prior_density, \
    prior_for_linear_model, unit_information_count


def test_param_prior_validation():
    with pytest.raises(ContractError):
        ParamPrior(mu=np.zeros(2), sigma_base=np.eye(3), c2=1.0)
    with pytest.raises(ContractError):
        ParamPrior(mu=np.zeros(2), sigma_base=np.eye(2), c2=-1.0)
    with pytest.raises(ContractError):
        ParamPrior(mu=np.zeros(2), sigma_base=np.eye(2), c2=1.0, alpha=1.0)
    with pytest.raises(ContractError):
        ParamPrior(mu=np.zeros(2), sigma_base=np.array([[1.0, 0.9],
                                                        [0.2, 1.0]]), c2=1.0)


def test_param_prior_without_coefficients():
    # The 0x0 sigma_base passes the symmetry and factor checks as they
    # stand; c^2 and the sigma^2 prior are still checked.
    prior = ParamPrior(mu=np.zeros(0), sigma_base=np.zeros((0, 0)), c2=3.0,
                       alpha=1.0, lam=2.0)
    assert prior.d == 0 and prior.variance().shape == (0, 0)
    with pytest.raises(ContractError, match="c2"):
        ParamPrior(mu=np.zeros(0), sigma_base=np.zeros((0, 0)), c2=0.0)
    with pytest.raises(ContractError):
        ParamPrior(mu=np.zeros(0), sigma_base=np.zeros((0, 0)), c2=1.0,
                   alpha=1.0)
    with pytest.raises(ContractError, match="shape"):
        ParamPrior(mu=np.zeros(0), sigma_base=np.eye(1), c2=1.0)


def test_param_prior_accessors():
    prior = ParamPrior(mu=np.zeros(3), sigma_base=2.0 * np.eye(3), c2=4.0,
                       alpha=1.0, lam=2.0)
    assert prior.d == 3
    assert prior.proper_variance
    assert np.allclose(prior.variance(), 8.0 * np.eye(3))
    wider = prior.with_c2(9.0)
    assert np.allclose(wider.variance(), 18.0 * np.eye(3))
    assert wider.alpha == 1.0


def test_gprior_base_is_n_gram_inverse():
    rng = np.random.default_rng(20)
    X = rng.standard_normal((30, 4))
    base = gprior_base(X)
    assert np.allclose(base, 30.0 * np.linalg.inv(X.T @ X), atol=1e-9)
    assert gprior_base(X[:, :0]).shape == (0, 0)


def test_linear_design_layout():
    rng = np.random.default_rng(21)
    X = rng.standard_normal((10, 5))
    m = ModelId.linear([1, 3], intercept=True)
    Xm = linear_design(X, m)
    assert Xm.shape == (10, 3)
    assert np.all(Xm[:, 0] == 1.0)
    assert np.allclose(Xm[:, 1:], X[:, [1, 3]])
    empty = linear_design(X, ModelId.linear([], intercept=False))
    assert empty.shape == (10, 0)
    with pytest.raises(ContractError):
        linear_design(X, ModelId.linear([7]))


def test_prior_for_linear_model_bases():
    rng = np.random.default_rng(22)
    X = rng.standard_normal((25, 4))
    m = ModelId.linear([0, 2])
    gp = prior_for_linear_model(X, m, c2=3.0)
    Xm = linear_design(X, m)
    assert np.allclose(gp.variance(), 3.0 * 25.0 * np.linalg.inv(Xm.T @ Xm),
                       atol=1e-9)
    ip = prior_for_linear_model(X, m, c2=3.0, base="identity")
    assert np.allclose(ip.variance(), 3.0 * np.eye(3))


def test_blockwise_prior_assembly():
    rng = np.random.default_rng(23)
    g = rng.standard_normal((2, 5))
    gram = g @ g.T + np.eye(2)
    blocks = [TermBlock(size=1, scale2=4.0),
              TermBlock(size=2, scale2=0.25, gram=gram,
                        mean=np.array([1.0, -1.0]))]
    prior = blockwise_prior(blocks, c2=2.0)
    assert prior.d == 3
    assert np.allclose(prior.mu, [0.0, 1.0, -1.0])
    v = prior.variance()
    assert v[0, 0] == pytest.approx(8.0)
    assert np.allclose(v[0, 1:], 0.0)
    assert np.allclose(v[1:, 1:], 2.0 * 0.25 * np.linalg.inv(gram),
                       atol=1e-10)


def test_fisher_info_poisson_matches_finite_difference():
    rng = np.random.default_rng(24)
    X = rng.standard_normal((12, 3))
    beta = rng.standard_normal(3) * 0.3
    n = 12.0
    info = fisher_info_poisson(X, n, beta)

    # oracle: numerical Hessian of the expected log-likelihood
    # E[loglik] has Hessian -X' Diag(exp(X beta)) X; difference the
    # gradient g(b) = X'(y - exp(Xb)) at y = exp(X beta).
    y = np.exp(X @ beta)
    h = 1e-6
    H = np.zeros((3, 3))
    for j in range(3):
        e = np.zeros(3)
        e[j] = h
        gp = X.T @ (y - np.exp(X @ (beta + e)))
        gm = X.T @ (y - np.exp(X @ (beta - e)))
        H[:, j] = (gp - gm) / (2.0 * h)
    assert np.allclose(info, -H / n, atol=1e-5)


def test_fisher_info_poisson_overflow_guard():
    X = np.ones((2, 1))
    with pytest.raises(ContractError, match="overflow"):
        fisher_info_poisson(X, 2.0, np.array([800.0]))


def test_information_source_linear():
    rng = np.random.default_rng(25)
    X = rng.standard_normal((40, 3))
    src = InformationSource.linear(X)
    assert src.n == 40.0
    assert np.allclose(src.matrix(), X.T @ X / 40.0)
    assert src.logdet() == pytest.approx(
        np.linalg.slogdet(X.T @ X / 40.0)[1], rel=1e-12)


def test_unit_information_count_identity():
    # c solves c^{-2d} = (|V| |i|)^{-1}: feeding V = c^2 i^{-1} back in
    # must recover c.
    rng = np.random.default_rng(26)
    a = rng.standard_normal((3, 5))
    i_mat = a @ a.T / 5.0 + 0.5 * np.eye(3)
    c = 7.3
    V = c * c * np.linalg.inv(i_mat)
    assert unit_information_count(V, i_mat) == pytest.approx(c, rel=1e-10)
    with pytest.raises(ContractError):
        unit_information_count(np.zeros((0, 0)), np.zeros((0, 0)))


def test_log_prior_density_matches_scipy():
    rng = np.random.default_rng(27)
    a = rng.standard_normal((3, 6))
    sigma = a @ a.T / 6.0 + np.eye(3)
    mu = rng.standard_normal(3)
    prior = ParamPrior(mu=mu, sigma_base=sigma, c2=2.5)
    beta = rng.standard_normal(3)
    expected = multivariate_normal.logpdf(beta, mean=mu, cov=2.5 * sigma)
    assert log_prior_density(beta, prior) == pytest.approx(expected,
                                                           rel=1e-12)
    d0 = ParamPrior(mu=np.zeros(0), sigma_base=np.zeros((0, 0)), c2=1.0)
    assert log_prior_density(np.zeros(0), d0) == 0.0


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(0, 6), st.integers(0, 2**32 - 1))
def test_factored_density_matches_quad_form_oracle(d, seed):
    # The density through W = L^{-1} against the same density with the
    # quadratic form solved against L; the public density is the same
    # formula, and the empty model's density is 0.
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((d, d + 2))
    prior = ParamPrior(mu=rng.standard_normal(d),
                       sigma_base=a @ a.T + np.eye(d),
                       c2=10.0 ** rng.uniform(-3.0, 3.0))
    beta = prior.mu + 3.0 * rng.standard_normal(d)
    W, _, _, const = _factor_prior(prior, d)
    quad = quad_form(chol_factor(prior.variance()), beta - prior.mu)
    oracle = -0.5 * (const + quad)
    value = _log_density_factored(beta, prior.mu, W, const)
    assert abs(value - oracle) <= 1e-12 * 0.5 * (abs(const) + quad)
    assert log_prior_density(beta, prior) == value
    if d == 0:
        assert value == 0.0


def test_poisson_source_matches_loglik_curvature():
    # Cross-check the analytic unit information against the curvature of
    # an actual Poisson log-likelihood at its mean parameter.
    rng = np.random.default_rng(28)
    X = rng.standard_normal((9, 2)) * 0.5
    beta = np.array([0.2, -0.4])
    src = InformationSource.poisson(X, 9.0, beta)
    mean = np.exp(X @ beta)

    def loglik(b):
        # expected Poisson log-likelihood at y = mean, constants dropped
        return float(np.sum(mean * (X @ b)) - np.sum(np.exp(X @ b)))

    h = 1e-5
    H = np.zeros((2, 2))
    for j in range(2):
        for k in range(2):
            ej, ek = np.zeros(2), np.zeros(2)
            ej[j], ek[k] = h, h
            H[j, k] = (loglik(beta + ej + ek) - loglik(beta + ej - ek)
                       - loglik(beta - ej + ek)
                       + loglik(beta - ej - ek)) / (4.0 * h * h)
    assert np.allclose(src.matrix(), -H / 9.0, atol=1e-4)


def _weight(variant):
    return lambda data, m, prior: log_prior_model_weight(
        m, ModelPriorPolicy(variant=variant), prior=prior,
        info=InformationSource.linear(linear_design(data.X, m)))


def _laplace(variant):
    def route(data, m, prior):
        counts = np.round(np.exp(1.0 + 0.3 * data.X[:, 0]))
        model = PoissonLogLinear(linear_design(data.X, m), counts)
        return log_marginal_laplace_model(model, prior, variant=variant)
    return route


PRIOR_ROUTES = {
    "log_marginal_nig": log_marginal_nig,
    "posterior_moments": posterior_moments,
    "loo_log_predictives": lambda data, m, prior: loo_log_predictives(
        [m], data, {m: prior}),
    "adjusted_info_weight": _weight("adjusted_info"),
    "adjusted_exact_weight": _weight("adjusted_exact"),
    "log_prior_density": lambda data, m, prior: log_prior_density(
        np.zeros(m.d), prior),
    "laplace_at_map": _laplace("at_map"),
    "laplace_at_mle": _laplace("at_mle"),
}


@pytest.mark.parametrize("route", PRIOR_ROUTES.values(), ids=PRIOR_ROUTES)
def test_prior_without_finite_inverse_is_rejected_by_every_route(route):
    # V = 1e-310 I factors, but V^{-1} = 1e310 I overflows. One
    # factorization owns the rule that V^{-1} be finite, so the conjugate
    # update, the policy weights, the density and both Laplace variants
    # reject this prior alike, where a route that skipped the rule
    # returned a number or warned.
    rng = np.random.Generator(np.random.Philox(7))
    X = rng.standard_normal((12, 2))
    data = LinearDataset(y=1.0 + X[:, 0] + rng.standard_normal(12), X=X)
    m = ModelId.linear([0, 1])
    prior = ParamPrior(mu=np.zeros(3), sigma_base=1e-310 * np.eye(3), c2=1.0)
    with pytest.raises(NumericalDomainError,
                       match="^prior variance V has no finite inverse$"):
        route(data, m, prior)
