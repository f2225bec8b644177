"""Log-linear designs, Poisson fits, and Laplace marginals.

Oracles: hand-built sum-to-zero codes for a 2x2 grid, closed-form
independence-model fitted means, scipy densities for likelihood values,
finite differences for derivatives, an exact Gaussian marginal for the
known-variance model, and adaptive quadrature for small Poisson models.
"""
import math

import numpy as np
import pytest
from scipy import integrate
from scipy.stats import multivariate_normal, poisson

from jointbma._linalg import chol_factor, factor_logdet
from jointbma.exceptions import ContractError, ConvergenceError, \
    DegenerateDataError, NumericalDomainError, SpecificationError
from jointbma.glm_laplace import ContingencyTable, PoissonLogLinear, \
    _newton, build_design, fit_map_poisson, fit_mle_poisson, \
    log_marginal_laplace, log_marginal_laplace_model, term_block_prior, \
    unit_info_for_model
from jointbma.model_space import FactorSpec, ModelId
from jointbma.param_priors import ParamPrior, _factor_prior, \
    _log_density_factored, log_prior_density

from likelihoods import GaussianKnownVar
from tables import empty_model_table, three_way_table


@pytest.fixture
def spec22():
    return FactorSpec(factors=(("R", 2), ("C", 2)),
                      forced_terms=((), ("R",), ("C",)),
                      candidate_terms=(("R", "C"),))


@pytest.fixture
def ohaspec():
    return FactorSpec(factors=(("O", 3), ("H", 2), ("A", 4)),
                      forced_terms=((), ("O",), ("H",), ("A",)),
                      candidate_terms=(("O", "H"), ("H", "A")))


def saturated(spec):
    terms = list(spec.forced_terms) + list(spec.candidate_terms)
    return ModelId.loglinear(spec, terms)


def test_design_2x2_hand_oracle(spec22):
    m = saturated(spec22)
    design = build_design(spec22, m)
    # C-order cells: (R0,C0), (R0,C1), (R1,C0), (R1,C1); columns are
    # intercept, R main, C main, RC interaction in +1/-1 coding
    expected = np.array([[1.0, 1.0, 1.0, 1.0],
                         [1.0, 1.0, -1.0, -1.0],
                         [1.0, -1.0, 1.0, -1.0],
                         [1.0, -1.0, -1.0, 1.0]])
    assert np.array_equal(design.X, expected)
    assert design.term_slice(("R", "C")) == slice(3, 4)
    assert np.array_equal(design.term_block(("R",)), expected[:, 1:2])
    # The intercept term is the empty product of factor codes.
    null = build_design(spec22, ModelId.loglinear(spec22, [()]))
    assert np.array_equal(null.X, expected[:, :1])
    assert null.ranges == (((), 0, 1),)


def test_design_sum_to_zero_and_balanced_orthogonality(ohaspec):
    m = saturated(ohaspec)
    design = build_design(ohaspec, m)
    assert design.X.shape == (24, m.d)
    # every non-intercept column sums to zero over the complete grid
    assert np.allclose(design.X[:, 1:].sum(axis=0), 0.0)
    # on a balanced grid, distinct term blocks are orthogonal
    for ti, (t1, a1, b1) in enumerate(design.ranges):
        for t2, a2, b2 in design.ranges[ti + 1:]:
            cross = design.X[:, a1:b1].T @ design.X[:, a2:b2]
            assert np.allclose(cross, 0.0), (t1, t2)


def test_design_widths_match_term_dimensions(ohaspec):
    m = saturated(ohaspec)
    design = build_design(ohaspec, m)
    for term, start, stop in design.ranges:
        width = 1
        for name in term:
            width *= ohaspec.levels[name] - 1
        assert stop - start == width


def test_design_rejects_linear_model(ohaspec):
    with pytest.raises(ContractError, match="log-linear"):
        build_design(ohaspec, ModelId.linear([0]))


def test_contingency_table_validation(spec22):
    with pytest.raises(ContractError, match="counts"):
        ContingencyTable(spec=spec22, counts=np.ones(3))
    with pytest.raises(ContractError, match="nonnegative"):
        ContingencyTable(spec=spec22, counts=np.array([1.0, 2.0, -1.0, 0.0]))
    table = ContingencyTable(spec=spec22, counts=np.array([[1.0, 2.0],
                                                           [3.0, 4.0]]))
    assert table.counts.shape == (4,)
    assert table.total == 10.0
    assert np.array_equal(table.level_grid(),
                          [[0, 0], [0, 1], [1, 0], [1, 1]])


def test_poisson_loglik_matches_scipy():
    rng = np.random.default_rng(60)
    X = rng.standard_normal((9, 3))
    y = rng.poisson(5.0, size=9).astype(float)
    model = PoissonLogLinear(X, y)
    beta = rng.standard_normal(3) * 0.3
    mu = np.exp(X @ beta)
    assert model.loglik(beta) == pytest.approx(
        float(poisson.logpmf(y, mu).sum()), rel=1e-12)


def test_poisson_derivatives_match_finite_differences():
    rng = np.random.default_rng(61)
    X = rng.standard_normal((8, 2))
    y = rng.poisson(4.0, size=8).astype(float)
    model = PoissonLogLinear(X, y)
    beta = np.array([0.2, -0.4])
    h = 1e-6
    grad_fd = np.zeros(2)
    hess_fd = np.zeros((2, 2))
    for i in range(2):
        e = np.zeros(2)
        e[i] = h
        grad_fd[i] = (model.loglik(beta + e) - model.loglik(beta - e)) / (2 * h)
        hess_fd[i] = (model.grad(beta + e) - model.grad(beta - e)) / (2 * h)
    assert np.allclose(model.grad(beta), grad_fd, atol=1e-5)
    assert np.allclose(model.neg_hessian(beta), -hess_fd, atol=1e-4)


def test_mle_independence_model_fitted_margins(spec22):
    counts = np.array([12.0, 7.0, 9.0, 22.0])
    table = ContingencyTable(spec=spec22, counts=counts)
    m = ModelId.loglinear(spec22, [(), ("R",), ("C",)])
    design = build_design(spec22, m)
    fit = fit_mle_poisson(design.X, table.counts)
    fitted = np.exp(design.X @ fit.beta)
    grid = counts.reshape(2, 2)
    expected = np.outer(grid.sum(axis=1), grid.sum(axis=0)) / counts.sum()
    assert np.allclose(fitted, expected.reshape(-1), atol=1e-8)
    assert fit.grad_norm < 1e-8

    # the saturated model reproduces the counts exactly
    sat = saturated(spec22)
    dsat = build_design(spec22, sat)
    fit_sat = fit_mle_poisson(dsat.X, table.counts)
    assert np.allclose(np.exp(dsat.X @ fit_sat.beta), counts, atol=1e-8)


def test_mle_zero_margin_is_degenerate(spec22):
    counts = np.array([0.0, 0.0, 9.0, 22.0])
    m = ModelId.loglinear(spec22, [(), ("R",), ("C",)])
    design = build_design(spec22, m)
    with pytest.raises(DegenerateDataError, match="margin"):
        fit_mle_poisson(design.X, counts)


def test_map_exists_on_degenerate_table(spec22):
    counts = np.array([0.0, 0.0, 9.0, 22.0])
    m = ModelId.loglinear(spec22, [(), ("R",), ("C",)])
    design = build_design(spec22, m)
    prior = ParamPrior(mu=np.zeros(3), sigma_base=np.eye(3), c2=4.0)
    fit = fit_map_poisson(design.X, counts, prior)
    model = PoissonLogLinear(design.X, counts)
    v_inv = np.linalg.inv(prior.variance())
    stationarity = model.grad(fit.beta) - v_inv @ (fit.beta - prior.mu)
    assert np.max(np.abs(stationarity)) < 1e-7


def test_mle_stops_at_the_iteration_cap(spec22):
    counts = np.array([12.0, 7.0, 9.0, 22.0])
    m = ModelId.loglinear(spec22, [(), ("R",), ("C",)])
    design = build_design(spec22, m)
    with pytest.raises(ConvergenceError,
                       match="no convergence in 1 Newton iterations") as exc:
        fit_mle_poisson(design.X, counts, max_iter=1)
    assert exc.value.iterations == 1
    assert exc.value.last_iterate.shape == (3,)


def test_newton_fit_kind_follows_the_prior(spec22):
    # A fit without a prior is an MLE, whose divergence checks run; one
    # with a prior is a MAP fit, which has none and exists on this table.
    counts = np.array([0.0, 0.0, 9.0, 22.0])
    X = build_design(spec22, ModelId.loglinear(spec22, [(), ("R",)])).X
    model = PoissonLogLinear(X, counts)
    with pytest.raises(DegenerateDataError, match="MLE diverges"):
        _newton(model, np.zeros(2), 1e-8, 100)
    fit, _ = _newton(model, np.zeros(2), 1e-8, 100, v_inv=np.eye(2),
                     mu=np.zeros(2))
    assert fit.kind == "map" and fit.iterations > 0
    assert fit_mle_poisson(X, np.array([12.0, 7.0, 9.0, 22.0])).kind == "mle"


def test_newton_start_with_an_overflowing_objective_is_a_domain_error():
    # A MAP fit starts at the prior mean; exp() of its linear predictor
    # overflows here, so there is no finite objective to ascend from.
    model = PoissonLogLinear(np.ones((4, 1)), np.array([1.0, 2.0, 3.0, 4.0]))
    start = np.full(1, 1e300)
    with pytest.raises(NumericalDomainError, match="not finite at the "
                                                   "Newton start"):
        _newton(model, start, 1e-8, 100, v_inv=np.eye(1), mu=start)


@pytest.mark.parametrize("space", [three_way_table, empty_model_table])
def test_newton_factor_is_the_laplace_curvature_factor(space):
    # Newton's last step factors -H + v_inv at the mode it returns (v_inv
    # is zero for the MLE), so the Laplace marginal reads that factor
    # instead of factoring the curvature again. Oracle: the curvature
    # refactored at the mode (V^{-1} - H for MAP, -H alone for the MLE),
    # and the marginal's formula on that factor. empty_model_table's
    # first model has d = 0.
    table, models, priors = space()
    for m in models:
        model = PoissonLogLinear(table.design(m).X, table.counts)
        prior = priors[m]
        W_V, v_inv, _, const = _factor_prior(prior, m.d)
        fits = {
            "at_map": (_newton(model, prior.mu.copy(), 1e-8, 100,
                               v_inv=v_inv, mu=prior.mu), v_inv),
            "at_mle": (_newton(model, np.zeros(m.d), 1e-8, 100),
                       np.zeros((m.d, m.d)))}
        for variant, ((fit, L), penalty) in fits.items():
            hessian = model.neg_hessian(fit.beta)
            assert np.array_equal(L, chol_factor(hessian + penalty))
            if variant == "at_map":
                hessian = hessian + penalty
            refactored = chol_factor(hessian, "Laplace curvature")
            expected = (model.loglik(fit.beta)
                        + _log_density_factored(fit.beta, prior.mu, W_V,
                                                const)
                        + 0.5 * (m.d * math.log(2.0 * math.pi)
                                 - factor_logdet(refactored)))
            got = log_marginal_laplace_model(model, prior, variant).value
            assert got == expected, (m.label(), variant)


class Cliff:
    """A likelihood that falls off everywhere but at the origin, so no
    damped Newton step from there raises the objective."""

    dim = 1
    domain_bound = None

    def loglik(self, beta):
        return 0.0 if beta[0] == 0.0 else -1.0

    def grad(self, beta):
        return np.ones(1)

    def neg_hessian(self, beta):
        return np.eye(1)


def test_newton_step_that_cannot_improve_is_a_convergence_error():
    prior = ParamPrior(mu=np.zeros(1), sigma_base=np.eye(1), c2=1.0)
    with pytest.raises(ConvergenceError,
                       match="Newton step failed to improve") as exc:
        log_marginal_laplace_model(Cliff(), prior)
    assert exc.value.iterations == 1
    assert np.array_equal(exc.value.last_iterate, np.zeros(1))


def test_gaussian_known_variance_laplace_is_exact():
    rng = np.random.default_rng(62)
    n, d = 12, 3
    X = rng.standard_normal((n, d))
    y = rng.standard_normal(n) * 2.0
    sigma2 = 1.7
    mu = rng.standard_normal(d) * 0.4
    a = rng.standard_normal((d, d + 2))
    V = a @ a.T / (d + 2) + np.eye(d)
    model = GaussianKnownVar(X, y, sigma2)
    prior = ParamPrior(mu=mu, sigma_base=V, c2=1.0)
    exact = multivariate_normal.logpdf(y, mean=X @ mu,
                                       cov=sigma2 * np.eye(n) + X @ V @ X.T)
    got = log_marginal_laplace_model(model, prior, variant="at_map")
    assert got.value == pytest.approx(exact, abs=1e-10)
    assert got.method == "laplace_penalized"


def quadrature_poisson_marginal(model, prior):
    """log of integral of f(y | beta) N(beta; mu, V) d beta, d <= 2."""
    fit = fit_map_poisson(model.X, model.y, prior)
    curv = model.neg_hessian(fit.beta) + np.linalg.inv(prior.variance())
    sd = np.sqrt(np.diag(np.linalg.inv(curv)))
    center = fit.beta

    def log_f(beta):
        return model.loglik(beta) + log_prior_density(beta, prior)

    peak = log_f(center)
    if model.dim == 1:
        value, err = integrate.quad(
            lambda b: math.exp(log_f(np.array([b])) - peak),
            center[0] - 10 * sd[0], center[0] + 10 * sd[0], limit=200)
    else:
        value, err = integrate.dblquad(
            lambda b2, b1: math.exp(log_f(np.array([b1, b2])) - peak),
            center[0] - 9 * sd[0], center[0] + 9 * sd[0],
            lambda _: center[1] - 9 * sd[1], lambda _: center[1] + 9 * sd[1])
    assert err < 1e-6 * value
    return peak + math.log(value)


def test_poisson_laplace_close_to_quadrature():
    rng = np.random.default_rng(63)
    for d in (1, 2):
        X = np.hstack([np.ones((6, 1))] if d == 1 else
                      [np.ones((6, 1)), rng.uniform(-1, 1, (6, 1))])
        beta_true = np.array([2.0, 0.5])[:d]
        y = rng.poisson(np.exp(X @ beta_true)).astype(float)
        y = np.maximum(y, 5.0)  # keep cell means comfortably positive
        model = PoissonLogLinear(X, y)
        prior = ParamPrior(mu=np.zeros(d), sigma_base=np.eye(d), c2=4.0)
        oracle = quadrature_poisson_marginal(model, prior)
        for variant in ("at_map", "at_mle"):
            got = log_marginal_laplace_model(model, prior, variant=variant)
            assert abs(got.value - oracle) < 0.05, (d, variant)


def test_laplace_variant_gap_shrinks_with_counts(spec22):
    base = np.array([14.0, 9.0, 11.0, 27.0])
    m = ModelId.loglinear(spec22, [(), ("R",), ("C",)])
    gaps = []
    for scale in (1.0, 2.0, 4.0, 8.0):
        table = ContingencyTable(spec=spec22, counts=base * scale)
        prior = term_block_prior(spec22, m, scales=2.0, c2=1.0)
        at_map = log_marginal_laplace(table, m, prior, variant="at_map")
        at_mle = log_marginal_laplace(table, m, prior, variant="at_mle")
        gaps.append(abs(at_map.value - at_mle.value))
    assert gaps[0] > gaps[1] > gaps[2] > gaps[3]


def test_laplace_dimension_zero_and_unknown_variant(spec22):
    model = PoissonLogLinear(np.zeros((4, 0)), np.array([1.0, 2.0, 3.0, 4.0]))
    prior = ParamPrior(mu=np.zeros(0), sigma_base=np.zeros((0, 0)), c2=1.0)
    # Nothing to integrate out: the marginal is the likelihood, and the
    # 0x0 factors of V and of the curvature contribute exactly nothing.
    for variant in ("at_map", "at_mle"):
        got = log_marginal_laplace_model(model, prior, variant=variant)
        assert got.value == model.loglik(np.zeros(0))
    fit = fit_map_poisson(model.X, model.y, prior)
    assert fit.beta.shape == (0,) and fit.iterations == 0
    assert fit.value == model.loglik(np.zeros(0))
    # d = 0 is decided before Newton's loop, so even max_iter = 0 returns.
    for fit, kind in ((fit_mle_poisson(model.X, model.y, max_iter=0), "mle"),
                      (fit_map_poisson(model.X, model.y, prior, max_iter=0),
                       "map")):
        assert (fit.kind, fit.iterations, fit.grad_norm) == (kind, 0, 0.0)
        assert fit.value == model.loglik(np.zeros(0))
    with pytest.raises(SpecificationError, match="variant"):
        log_marginal_laplace_model(model, prior, variant="mystery")
    # validated upfront, before any dimension-dependent work
    m1 = PoissonLogLinear(np.ones((4, 1)), np.array([1.0, 2.0, 3.0, 4.0]))
    p1 = ParamPrior(mu=np.zeros(1), sigma_base=np.eye(1), c2=1.0)
    with pytest.raises(SpecificationError, match="variant"):
        log_marginal_laplace_model(m1, p1, variant="mystery")


def test_term_block_prior_information_metric(ohaspec):
    m = ModelId.loglinear(ohaspec, [(), ("O",), ("H",), ("A",), ("H", "A")])
    scales = {"default": 9.0, ("H", "A"): 0.25}
    means = {("H", "A"): np.array([0.2, -0.1, -0.3])}
    prior = term_block_prior(ohaspec, m, scales=scales, means=means)
    design = build_design(ohaspec, m)
    V = prior.variance()
    for term, start, stop in design.ranges:
        k2 = 0.25 if term == ("H", "A") else 9.0
        block = design.X[:, start:stop]
        expected = k2 * np.linalg.inv(block.T @ block)
        assert np.allclose(V[start:stop, start:stop], expected, atol=1e-12)
        # off-diagonal coupling between distinct terms is zero
        assert np.allclose(V[start:stop, :start], 0.0)
    hs = design.term_slice(("H", "A"))
    assert np.allclose(prior.mu[hs], [0.2, -0.1, -0.3])
    assert np.allclose(np.delete(prior.mu, np.r_[hs]), 0.0)


def test_term_block_prior_identity_metric_and_missing_scale(spec22):
    m = ModelId.loglinear(spec22, [(), ("R",)])
    prior = term_block_prior(spec22, m, scales=3.0, metric="identity")
    assert np.allclose(prior.variance(), 3.0 * np.eye(2))
    with pytest.raises(ContractError, match="scale"):
        term_block_prior(spec22, m, scales={("R",): 1.0})
    with pytest.raises(SpecificationError, match="metric"):
        term_block_prior(spec22, m, scales=1.0, metric="mahalanobis")


def test_unit_info_defaults_to_cell_count(ohaspec):
    m = ModelId.loglinear(ohaspec, [(), ("O",), ("H",), ("A",)])
    info = unit_info_for_model(ohaspec, m)
    design = build_design(ohaspec, m)
    assert info.n == 24.0
    assert np.allclose(info.matrix(), design.X.T @ design.X / 24.0)

    beta_ref = np.linspace(-0.2, 0.2, m.d)
    info2 = unit_info_for_model(ohaspec, m, beta_ref=beta_ref,
                                sample_size=100.0)
    w = np.exp(design.X @ beta_ref)
    assert info2.n == 100.0
    assert np.allclose(info2.matrix(), (design.X.T * w) @ design.X / 100.0)
    with pytest.raises(ContractError, match="beta_ref"):
        unit_info_for_model(ohaspec, m, beta_ref=np.zeros(2))


def test_laplace_accepts_table_directly(spec22):
    counts = np.array([12.0, 7.0, 9.0, 22.0])
    table = ContingencyTable(spec=spec22, counts=counts)
    m = ModelId.loglinear(spec22, [(), ("R",), ("C",)])
    prior = term_block_prior(table, m, scales=4.0)
    via_table = log_marginal_laplace(table, m, prior)
    design = build_design(spec22, m)
    model = PoissonLogLinear(design.X, counts)
    direct = log_marginal_laplace_model(model, prior)
    assert via_table.value == direct.value
