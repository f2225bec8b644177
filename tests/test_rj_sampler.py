"""Reversible-jump sampler against exactly enumerable posteriors.

The collapsed linear route is checked against exact conjugate
marginals; the joint route is checked on known-variance Gaussian
likelihoods whose joint posterior is available in closed form, so the
comparison involves no Laplace error at all. The Poisson table route is
held to Laplace-enumerated probabilities, which are near-exact at the
count scales used.
"""
import io
import csv
import math
import sys

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

import jointbma
from jointbma import glm_laplace, param_priors, rj_sampler
from jointbma._linalg import chol_factor, chol_solve, factor_logdet, \
    inv_factor
from jointbma.averaging import normalize_posterior
from jointbma.exceptions import ContractError
from jointbma.glm_laplace import ContingencyTable, PoissonLogLinear, \
    _map_laplace, build_design, fit_mle_poisson, log_marginal_laplace, \
    term_block_prior
from jointbma.linear_exact import LinearDataset, gprior_sweep, \
    log_marginal_nig
from jointbma.model_space import Baseline, FactorSpec, LinearSubsets, \
    ModelId, ModelPriorPolicy, enumerate_hierarchical_models, \
    enumerate_linear_models, log_prior_model_weight
from jointbma.param_priors import ParamPrior, _factor_prior, \
    log_prior_density, prior_for_linear_model
from jointbma.rj_sampler import RjChain, SamplerConfig, _log_target, \
    _policy_weights, _run_linear_collapsed, _walk, batch_means_se, \
    chain_to_csv, estimate_model_probs, rjmcmc_run, rwm_step

from likelihoods import GaussianKnownVar
from neighbors import toggle_neighbors


def test_rwm_acceptance_rate_matches_closed_form():
    # stationary acceptance rate on a N(0,1) target with proposal sd s
    # is (2/pi) arctan(2/s); verified against numerical double
    # integration to 1e-10 before freezing these constants
    rng = np.random.default_rng(70)

    def log_target(b):
        return -0.5 * float(b @ b)

    for s, rate in ((1.0, 0.70483), (2.5, 0.42955)):
        beta = np.zeros(1)
        value = 0.0
        accepted = 0
        total = 60_000
        for _ in range(total):
            beta, value, ok = rwm_step(log_target, beta, value, s, rng)
            accepted += ok
        assert accepted / total == pytest.approx(rate, abs=0.012), s


def test_rwm_zero_dimension_always_accepts():
    rng = np.random.default_rng(71)
    beta, value, ok = rwm_step(lambda b: 0.0, np.zeros(0), 0.0, 1.0, rng)
    assert ok and beta.shape == (0,)


def test_batch_means_se_iid_sanity():
    rng = np.random.default_rng(72)
    x = rng.random(10_000) < 0.3
    mean, se, length = batch_means_se(x)
    assert mean == pytest.approx(0.3, abs=0.02)
    iid_se = math.sqrt(0.3 * 0.7 / x.size)
    assert se == pytest.approx(iid_se, rel=0.3)
    assert length == 100

    m, se_short, l_short = batch_means_se([1.0, 2.0])
    assert m == 1.5 and se_short == math.inf and l_short == 0
    assert batch_means_se(np.full(400, 0.7))[1] < 1e-12


def synthetic_chain(model_index, models):
    model_index = np.asarray(model_index, dtype=np.int64)
    return RjChain(models=tuple(models), model_index=model_index,
                   log_target=np.zeros(model_index.shape[0]),
                   config=SamplerConfig(iterations=model_index.shape[0]),
                   kind="custom", attempt_jump=0, accept_jump=0,
                   attempt_within=0, accept_within=0)


def test_model_lookups_match_positions_and_reject_missing_models():
    rng = np.random.Generator(np.random.Philox(12))
    X = rng.standard_normal((25, 3))
    data = LinearDataset(y=X[:, 1] + rng.standard_normal(25), X=X)
    models = enumerate_linear_models(3)
    table = Baseline.from_table({m: -0.25 * i for i, m in enumerate(models)})
    sweep = gprior_sweep(data, [1.0, 100.0],
                         ModelPriorPolicy(variant="adjusted_c",
                                          baseline=table))
    post = sweep.posterior_at(1)
    est = estimate_model_probs(synthetic_chain(np.arange(200) % 8, models))
    for pos, m in enumerate(models):
        assert table.log_p(m) == -0.25 * pos
        assert np.array_equal(sweep.prob_trace(m),
                              np.exp(sweep.log_posterior[:, pos]))
        assert post.prob_of(m) == math.exp(post.log_probs[pos])
        assert est.prob_of(m) == est.probs[pos]
    missing = ModelId.linear([0, 1, 2, 3])
    for lookup in (table.log_p, sweep.prob_trace, post.prob_of, est.prob_of):
        with pytest.raises(ContractError):
            lookup(missing)


def test_estimate_model_probs_counting_oracle():
    models = (ModelId.linear([]), ModelId.linear([0]))
    alternating = synthetic_chain([0, 1] * 500, models)
    est = estimate_model_probs(alternating)
    assert np.allclose(est.probs, [0.5, 0.5])

    single = synthetic_chain([1] * 64, models)
    est = estimate_model_probs(single)
    assert est.probs[1] == 1.0 and est.se[1] == 0.0
    assert est.prob_of(models[0]) == 0.0

    known = synthetic_chain([0] * 300 + [1] * 100, models)
    est = estimate_model_probs(known)
    assert est.probs[0] == pytest.approx(0.75)
    assert est.n_kept == 400

    thinned = estimate_model_probs(alternating, burn_in=100, thin=2)
    assert thinned.n_kept == 450
    with pytest.raises(ContractError, match="burn_in"):
        estimate_model_probs(alternating, burn_in=1000)


def loop_batch_means(chain, burn_in, thin):
    """estimate_model_probs' standard errors as one batch_means_se call
    per visited model."""
    kept = chain.model_index[burn_in::thin]
    se = np.zeros(len(chain.models))
    length = 0
    for i in np.unique(kept):
        _, se[i], length = batch_means_se(kept == i)
    return se, length


def test_sampler_settings_out_of_range_are_contract_errors():
    for setting, match in [({"thin": 0}, "thin must be >= 1"),
                           ({"jump_prob": 1.5}, "jump_prob must lie in"),
                           ({"jump_prob": -0.1}, "jump_prob must lie in"),
                           ({"start_index": -1},
                            "start_index must be nonnegative")]:
        with pytest.raises(ContractError, match=match):
            SamplerConfig(iterations=10, **setting)
    models = (ModelId.linear([]), ModelId.linear([0]))
    with pytest.raises(ContractError, match="^thin must be >= 1, got 0$"):
        estimate_model_probs(synthetic_chain([0, 1] * 5, models), thin=0)
    with pytest.raises(ContractError,
                       match="duplicate models in sampler space"):
        _walk([models[1], models[0], models[1]], SamplerConfig(iterations=1))
    # Distinct models whose members agree (here 1+X1 and X1, which differ
    # in the intercept only) are not one toggle apart, nor the same model.
    rng = np.random.Generator(np.random.Philox(12))
    X = rng.standard_normal((20, 2))
    data = LinearDataset(y=X[:, 0] + rng.standard_normal(20), X=X)
    space = [ModelId.linear([]), ModelId.linear([0]),
             ModelId.linear([0], intercept=False),
             ModelId.linear([0, 1], intercept=False)]
    priors = {m: prior_for_linear_model(X, m, 4.0) for m in space}
    with pytest.raises(ContractError, match=(
            r"^models 1\+X1 and X1 have the same members; the sampler "
            "toggles members only$")):
        rjmcmc_run(space, priors, ModelPriorPolicy(variant="uniform"), data,
                   SamplerConfig(iterations=10))


def test_linear_chain_rejects_mixed_sigma2_conventions():
    # Improper-reference marginals carry an arbitrary offset that cancels
    # only against marginals of the same convention.
    rng = np.random.Generator(np.random.Philox(13))
    X = rng.standard_normal((15, 1))
    data = LinearDataset(y=X[:, 0] + rng.standard_normal(15), X=X)
    models = (ModelId.linear([]), ModelId.linear([0]))
    priors = {models[0]: prior_for_linear_model(X, models[0], 4.0),
              models[1]: prior_for_linear_model(X, models[1], 4.0,
                                                alpha=2.0, lam=1.0)}
    with pytest.raises(ContractError,
                       match=r"mixed sigma\^2 conventions across the space"):
        rjmcmc_run(models, priors, ModelPriorPolicy(variant="uniform"), data,
                   SamplerConfig(iterations=10))


@pytest.mark.parametrize("p, iterations, burn_in, thin, cells", [
    (12, 20000, 2000, 1, None),
    (6, 5000, 100, 3, None),
    (6, 5000, 0, 1, 50),
    (3, 7, 1, 2, None),
    (3, 5, 1, 1, None),
    (3, 3, 0, 1, None),
    (2, 1, 0, 1, None),
])
def test_estimate_model_probs_se_equals_batch_means_loop(
        monkeypatch, p, iterations, burn_in, thin, cells):
    if cells is not None:
        # Small blocks make the visit counts come in several row chunks.
        monkeypatch.setattr(jointbma.rj_sampler, "BATCH_MEANS_CELLS", cells)
    rng = np.random.Generator(np.random.Philox(p + iterations))
    # A sticky walk, so batches differ in how often they see a model.
    moves = rng.integers(2 ** p, size=iterations)
    stay = rng.random(iterations) < 0.8
    index = np.maximum.accumulate(np.where(stay, 0, np.arange(iterations)))
    chain = synthetic_chain(moves[index], LinearSubsets(p))
    est = estimate_model_probs(chain, burn_in=burn_in, thin=thin)
    se, length = loop_batch_means(chain, burn_in, thin)
    assert np.array_equal(est.se, se)
    assert est.batch_length == length


def test_collapsed_linear_matches_exact_enumeration():
    rng = np.random.default_rng(73)
    n = 30
    X = rng.standard_normal((n, 2))
    y = 0.6 * X[:, 0] + rng.standard_normal(n)
    data = LinearDataset(y=y, X=X)
    models = [ModelId.linear(s) for s in ([], [0], [1], [0, 1])]
    priors = {m: prior_for_linear_model(data.X, m, c2=9.0) for m in models}
    policy = ModelPriorPolicy(variant="uniform")

    marginals = [log_marginal_nig(data, m, priors[m]) for m in models]
    exact = normalize_posterior(models, marginals)

    config = SamplerConfig(iterations=60_000, burn_in=2_000, seed=11)
    chain = rjmcmc_run(models, priors, policy, data, config)
    assert chain.kind == "linear_collapsed"
    est = estimate_model_probs(chain)
    for i in range(len(models)):
        tol = 3.0 * max(est.se[i], 1e-4)
        assert abs(est.probs[i] - exact.probs[i]) < tol, models[i].label()


def test_seed_determinism():
    rng = np.random.default_rng(74)
    X = rng.standard_normal((12, 1))
    y = X[:, 0] + rng.standard_normal(12)
    data = LinearDataset(y=y, X=X)
    models = [ModelId.linear([]), ModelId.linear([0])]
    priors = {m: prior_for_linear_model(data.X, m, c2=4.0) for m in models}
    policy = ModelPriorPolicy(variant="adjusted_c")
    config = SamplerConfig(iterations=3_000, seed=99)
    a = rjmcmc_run(models, priors, policy, data, config)
    b = rjmcmc_run(models, priors, policy, data, config)
    assert np.array_equal(a.model_index, b.model_index)
    assert np.array_equal(a.log_target, b.log_target)


def gaussian_pair_space():
    """Two nested known-variance Gaussian likelihoods with closed-form
    marginals, keyed by linear ModelIds so toggling works."""
    rng = np.random.default_rng(75)
    n = 15
    x = rng.standard_normal(n)
    y = 0.7 * x + rng.standard_normal(n)
    sigma2 = 1.0
    m0 = ModelId.linear([], intercept=True)
    m1 = ModelId.linear([0], intercept=True)
    X0 = np.ones((n, 1))
    X1 = np.column_stack([np.ones(n), x])
    likelihoods = {m0: GaussianKnownVar(X0, y, sigma2),
                   m1: GaussianKnownVar(X1, y, sigma2)}
    priors = {m0: ParamPrior(mu=np.zeros(1), sigma_base=np.eye(1), c2=3.0),
              m1: ParamPrior(mu=np.zeros(2), sigma_base=np.eye(2), c2=3.0)}
    from scipy.stats import multivariate_normal

    def exact_logml(X, prior):
        cov = sigma2 * np.eye(n) + X @ prior.variance() @ X.T
        return multivariate_normal.logpdf(y, mean=X @ prior.mu, cov=cov)

    logml = {m0: exact_logml(X0, priors[m0]),
             m1: exact_logml(X1, priors[m1])}
    return likelihoods, priors, logml, (m0, m1)


def test_joint_route_matches_exact_gaussian_posterior():
    likelihoods, priors, logml, models = gaussian_pair_space()
    odds = logml[models[1]] - logml[models[0]]
    exact_p1 = 1.0 / (1.0 + math.exp(-odds))

    policy = ModelPriorPolicy(variant="uniform")
    config = SamplerConfig(iterations=80_000, burn_in=4_000, seed=21,
                           jump_prob=0.4)
    chain = rjmcmc_run(list(models), priors, policy, dict(likelihoods),
                       config)
    assert chain.kind == "custom"
    assert 0.05 < chain.jump_rate() <= 1.0
    assert 0.05 < chain.within_rate() <= 1.0
    est = estimate_model_probs(chain)
    tol = 3.0 * max(est.se[1], 1e-4)
    assert abs(est.probs[1] - exact_p1) < tol


def test_single_model_space_samples_the_parameter_posterior():
    likelihoods, priors, _, models = gaussian_pair_space()
    m1 = models[1]
    lik = likelihoods[m1]
    prior = priors[m1]
    config = SamplerConfig(iterations=40_000, burn_in=2_000, seed=31,
                           jump_prob=0.5, store_coefficients=True)
    chain = rjmcmc_run([m1], {m1: prior}, ModelPriorPolicy(variant="uniform"),
                       {m1: lik}, config)
    # no neighbors exist, so every iteration is a within-model move
    assert chain.attempt_jump == 0
    assert np.all(chain.model_index == 0)

    # exact Gaussian posterior mean for known-variance likelihood
    v_inv = np.linalg.inv(prior.variance())
    prec = v_inv + lik.neg_hessian(np.zeros(2))
    mean = np.linalg.solve(prec, lik.X.T @ lik.y / lik.sigma2
                           + v_inv @ prior.mu)
    draws = np.array(chain.coefficients)[config.burn_in:]
    for j in range(2):
        _, se, _ = batch_means_se(draws[:, j])
        assert abs(draws[:, j].mean() - mean[j]) < 3.0 * se + 1e-4


def test_table_route_matches_laplace_enumeration():
    spec = FactorSpec(factors=(("R", 2), ("C", 2)),
                      forced_terms=((), ("R",), ("C",)),
                      candidate_terms=(("R", "C"),))
    models = enumerate_hierarchical_models(spec)
    assert len(models) == 2
    rng = np.random.default_rng(76)
    truth = ModelId.loglinear(spec, [(), ("R",), ("C",)])
    design = build_design(spec, truth)
    counts = rng.poisson(np.exp(design.X @ np.array([4.0, 0.3, -0.2])))
    table = ContingencyTable(spec=spec, counts=counts.astype(float))

    from jointbma.glm_laplace import log_marginal_laplace, term_block_prior
    priors = {m: term_block_prior(spec, m, scales=2.0) for m in models}
    marginals = [log_marginal_laplace(table, m, priors[m]) for m in models]
    exact = normalize_posterior(list(models), marginals)

    policy = ModelPriorPolicy(variant="uniform")
    config = SamplerConfig(iterations=40_000, burn_in=2_000, seed=41)
    chain = rjmcmc_run(list(models), priors, policy, table, config)
    assert chain.kind == "glm"
    est = estimate_model_probs(chain)
    for i in range(len(models)):
        tol = 3.0 * max(est.se[i], 1e-4) + 0.01  # Laplace reference bias
        assert abs(est.probs[i] - exact.probs[i]) < tol


def three_way_table():
    """A 2x2x2 Poisson table, its eight hierarchical models (every
    two-factor interaction optional) and their term-block priors."""
    spec = FactorSpec(factors=(("A", 2), ("B", 2), ("C", 2)),
                      forced_terms=((), ("A",), ("B",), ("C",)),
                      candidate_terms=(("A", "B"), ("A", "C"), ("B", "C")))
    models = enumerate_hierarchical_models(spec)
    rng = np.random.default_rng(77)
    main = ModelId.loglinear(spec, [(), ("A",), ("B",), ("C",)])
    eta = build_design(spec, main).X @ np.array([3.0, 0.4, -0.3, 0.2])
    table = ContingencyTable(spec=spec,
                             counts=rng.poisson(np.exp(eta)).astype(float))
    priors = {m: term_block_prior(spec, m, scales=2.0) for m in models}
    return table, models, priors


def test_table_chain_log_target_equals_public_density():
    # The chain evaluates the prior density from factors cached for the
    # run; the public log_prior_density, which factors V on every call,
    # is the oracle and must agree bit for bit.
    table, models, priors = three_way_table()
    policy = ModelPriorPolicy(variant="adjusted_c")
    config = SamplerConfig(iterations=400, seed=17, store_coefficients=True)
    chain = rjmcmc_run(list(models), priors, policy, table, config)
    assert chain.accept_jump > 0 and chain.accept_within > 0
    for it in range(config.iterations):
        m = chain.models[chain.model_index[it]]
        beta = chain.coefficients[it]
        loglik = PoissonLogLinear(build_design(table.spec, m).X,
                                  table.counts).loglik
        expected = (log_prior_model_weight(m, policy, prior=priors[m])
                    + log_prior_density(beta, priors[m]) + loglik(beta))
        assert chain.log_target[it] == expected, it


def test_table_route_builds_each_design_once(monkeypatch):
    # The priors, the information-adjusted weights and the likelihoods of
    # one table share one read-only design per model.
    table, models, _ = three_way_table()
    built = []
    build = glm_laplace.build_design

    def counting_build(spec, m, grid=None):
        built.append(m)
        return build(spec, m, grid)

    monkeypatch.setattr(glm_laplace, "build_design", counting_build)
    priors = {m: term_block_prior(table, m, scales=2.0) for m in models}
    policy = ModelPriorPolicy(variant="adjusted_info")
    rjmcmc_run(list(models), priors, policy, table,
               SamplerConfig(iterations=50, seed=5))
    assert sorted(built, key=models.index) == list(models)
    assert not table.design(models[0]).X.flags.writeable


def empty_model_table():
    """A 2x3 table whose space, with the intercept selectable, holds a
    model with no parameters, and its term-block priors."""
    spec = FactorSpec(factors=(("A", 2), ("B", 3)),
                      candidate_terms=((), ("A",), ("B",)))
    models = enumerate_hierarchical_models(spec)
    table = ContingencyTable(spec=spec,
                             counts=np.array([1.0, 2.0, 1.0, 0.0, 1.0, 1.0]))
    priors = {m: term_block_prior(spec, m, scales=2.0) for m in models}
    return table, models, priors


def test_table_chain_through_empty_model_matches_public_density():
    # With the intercept selectable the space holds a model with no
    # parameters; the chain enters and leaves it through 0x0 factors.
    table, models, priors = empty_model_table()
    spec = table.spec
    policy = ModelPriorPolicy(variant="adjusted_info")
    lw = _policy_weights(models, priors, policy, table)
    # A bare FactorSpec yields the same information, so the same weights.
    assert np.array_equal(lw, _policy_weights(models, priors, policy, spec))
    config = SamplerConfig(iterations=600, seed=23, store_coefficients=True)
    chain = rjmcmc_run(list(models), priors, policy, table, config)
    assert models[0].d == 0
    assert 0 in chain.model_index and chain.accept_jump > 0
    for it in range(config.iterations):
        i = chain.model_index[it]
        m = chain.models[i]
        beta = chain.coefficients[it]
        loglik = PoissonLogLinear(build_design(spec, m).X,
                                  table.counts).loglik
        expected = lw[i] + log_prior_density(beta, priors[m]) + loglik(beta)
        assert chain.log_target[it] == expected, it


def test_table_chain_factors_each_prior_once(monkeypatch):
    table, models, priors = three_way_table()
    real = jointbma._linalg.chol_factor
    factored = []

    def counting(a, what="matrix"):
        if what == "prior variance V":
            factored.append(a.shape[0])
        return real(a, what)

    for name, module in list(sys.modules.items()):
        if name.startswith("jointbma") and \
                getattr(module, "chol_factor", None) is real:
            monkeypatch.setattr(module, "chol_factor", counting)
    policy = ModelPriorPolicy(variant="uniform")
    counts = []
    for iterations in (200, 2000):
        factored.clear()
        rjmcmc_run(list(models), priors, policy, table,
                   SamplerConfig(iterations=iterations, seed=5))
        counts.append(len(factored))
    assert counts[0] == counts[1] == len(models)


@pytest.mark.parametrize("space", [three_way_table, empty_model_table])
def test_chain_target_at_mode_is_the_laplace_marginal(space, monkeypatch):
    # The chain's per-model set-up is the Laplace expansion that
    # log_marginal_laplace reports: at each mode, the chain's log target
    # plus half its proposal's constant is the log weight plus the
    # marginal, bit for bit. The chain adds the log weight first, so the
    # uniform policy (every weight 0.0) keeps the sums exact.
    table, models, priors = space()
    policy = ModelPriorPolicy(variant="uniform")
    targets = []

    def spy(*args):
        targets.append(_log_target(*args))
        return targets[-1]

    monkeypatch.setattr(rj_sampler, "_log_target", spy)
    rjmcmc_run(list(models), priors, policy, table,
               SamplerConfig(iterations=10, seed=3))
    lw = _policy_weights(models, priors, policy, table)
    assert len(targets) == len(models) and not lw.any()
    for i, m in enumerate(models):
        likelihood = PoissonLogLinear(table.design(m).X, table.counts)
        fit, L, _, _ = _map_laplace(likelihood, priors[m])
        q_const = m.d * math.log(2.0 * math.pi) - factor_logdet(L)
        value = log_marginal_laplace(table, m, priors[m]).value
        assert value + lw[i] == targets[i](fit.beta) + 0.5 * q_const, i


def q_logpdf(L, mode, q_const, beta):
    """Log density of the Laplace proposal N(mode, (L L')^{-1}) at beta,
    with q_const = d log 2pi - log|L L'|."""
    u = L.T @ (beta - mode)
    return -0.5 * (q_const + float(u @ u))


def oracle_joint_chain(models, priors, policy, data, config):
    """The joint chain as a plain loop: both proposal densities from
    q_logpdf at every jump, nothing kept across iterations, and a table's
    likelihoods and weights from fresh designs on its bare FactorSpec.
    Returns (model_index, log_target, counts, coefficients)."""
    models = tuple(models)
    rng = np.random.Generator(np.random.Philox(config.seed))
    neighbors = toggle_neighbors(models)
    if isinstance(data, ContingencyTable):
        likelihoods = {m: PoissonLogLinear(build_design(data.spec, m).X,
                                           data.counts) for m in models}
        lw = _policy_weights(models, priors, policy, data.spec)
    else:
        likelihoods = data
        lw = _policy_weights(models, priors, policy, data)
    modes, chols, q_consts, step_sds, targets = [], [], [], [], []
    for i, m in enumerate(models):
        prior = priors[m]
        W_V, _, _, const = _factor_prior(prior, prior.d)
        targets.append(_log_target(lw[i], prior.mu, W_V, const,
                                   likelihoods[m].loglik))
        fit, L, _, _ = _map_laplace(likelihoods[m], prior)
        modes.append(fit.beta)
        chols.append(L)
        q_consts.append(prior.d * math.log(2.0 * math.pi) - factor_logdet(L))
        cov = chol_solve(L, np.eye(prior.d))
        step_sds.append(config.within_model_scale * np.sqrt(np.diag(cov)))

    def q(i, beta):
        return q_logpdf(chols[i], modes[i], q_consts[i], beta)

    idx = config.start_index
    beta = modes[idx].copy()
    value = targets[idx](beta)
    trace, values, coef = [], [], []
    counts = [0, 0, 0, 0]
    for _ in range(config.iterations):
        nbr, log_degree = neighbors[idx]
        if rng.random() < config.jump_prob and nbr:
            counts[0] += 1
            prop_idx = nbr[int(rng.integers(len(nbr)))]
            z = rng.standard_normal(modes[prop_idx].shape[0])
            prop_beta = modes[prop_idx] + inv_factor(chols[prop_idx]).T @ z
            prop_value = targets[prop_idx](prop_beta)
            log_alpha = (prop_value - value
                         + q(idx, beta)
                         - q(prop_idx, prop_beta)
                         + log_degree - neighbors[prop_idx][1])
            if math.log(rng.random()) < log_alpha:
                idx, beta, value = prop_idx, prop_beta, prop_value
                counts[1] += 1
        else:
            counts[2] += 1
            beta, value, ok = rwm_step(targets[idx], beta, value,
                                       step_sds[idx], rng)
            counts[3] += ok
        trace.append(idx)
        values.append(value)
        coef.append(beta.copy())
    return np.array(trace), np.array(values), counts, coef


def joint_chain_case(name):
    """(models, priors for the route, priors for the oracle, policy, data)
    of one joint-chain case; table priors for the route come from the
    table, so they share its block bases."""
    if name == "likelihood-dict":
        likelihoods, priors, _, models = gaussian_pair_space()
        return (list(models), priors, priors,
                ModelPriorPolicy(variant="uniform"), dict(likelihoods))
    if name == "empty-model":
        table, models, priors = empty_model_table()
        variant = "adjusted_info"
    else:
        table, models, priors = three_way_table()
        variant = name
    shared = {m: term_block_prior(table, m, scales=2.0) for m in models}
    return (list(models), shared, priors, ModelPriorPolicy(variant=variant),
            table)


@pytest.mark.parametrize("jump_prob", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("case", ["uniform", "adjusted_c", "empty-model",
                                  "likelihood-dict"])
def test_joint_chain_equals_loop_oracle(case, jump_prob):
    # The chain keeps the current state's proposal density between jumps
    # and takes a proposal's from its draw; the oracle forms both with
    # q_logpdf at every jump. Their q values differ in the last bits only,
    # so every accept decision, target and coefficient must agree.
    models, priors, oracle_priors, policy, data = joint_chain_case(case)
    config = SamplerConfig(iterations=1500, seed=29, jump_prob=jump_prob,
                           store_coefficients=True)
    chain = rjmcmc_run(models, priors, policy, data, config)
    index, target, counts, coef = oracle_joint_chain(
        models, oracle_priors, policy, data, config)
    assert np.array_equal(chain.model_index, index)
    assert np.array_equal(chain.log_target, target)
    assert [chain.attempt_jump, chain.accept_jump, chain.attempt_within,
            chain.accept_within] == counts
    assert all(np.array_equal(a, b) for a, b in zip(chain.coefficients, coef))
    if jump_prob > 0.0:
        assert chain.accept_jump > 0
    if jump_prob < 1.0:
        assert chain.accept_within > 0


def hierarchical_spaces():
    """The table spaces above, one with a three-factor candidate whose
    margins the toggle search must respect, a linear pair and a
    one-model space."""
    spec = FactorSpec(factors=(("A", 2), ("B", 2), ("C", 2)),
                      forced_terms=((), ("A",), ("B",), ("C",)),
                      candidate_terms=(("A", "B"), ("A", "C"), ("B", "C"),
                                       ("A", "B", "C")))
    pair = gaussian_pair_space()[3]
    return [list(three_way_table()[1]), list(empty_model_table()[1]),
            list(enumerate_hierarchical_models(spec)), list(pair),
            [pair[1]]]


@pytest.mark.parametrize("space", range(5))
def test_neighbor_rule_equals_toggle_oracle(space):
    models = hierarchical_spaces()[space]
    for order in (models, models[::-1]):
        _, neighbors = _walk(order, SamplerConfig(iterations=1))
        assert [neighbors[i] for i in range(len(order))] == \
            toggle_neighbors(order)
    if len(models) == 1:
        assert neighbors[0] == ((), 0.0)


def oracle_collapsed_walk(models, log_targets, config):
    """The collapsed walk as a plain loop over the toggle search's
    neighbor lists: (model_index, attempts, accepts)."""
    rng = np.random.Generator(np.random.Philox(config.seed))
    neighbors = toggle_neighbors(models)
    idx = config.start_index
    trace = []
    attempt = accept = 0
    for _ in range(config.iterations):
        nbr, log_degree = neighbors[idx]
        if nbr:
            attempt += 1
            prop = nbr[int(rng.integers(len(nbr)))]
            log_alpha = (log_targets[prop] - log_targets[idx]
                         + log_degree - neighbors[prop][1])
            if math.log(rng.random()) < log_alpha:
                idx = prop
                accept += 1
        trace.append(idx)
    return np.array(trace), attempt, accept


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("p", [3, 11, 12])
def test_collapsed_walk_equals_loop_oracle(p, seed):
    # From p = 11 on, repr order puts covariate 10 before 2.
    space = LinearSubsets(p)
    rng = np.random.Generator(np.random.Philox(100 + seed))
    targets = 2.0 * rng.standard_normal(len(space))
    config = SamplerConfig(iterations=3000, seed=seed,
                           start_index=5 if seed == 3 else 0)
    chain = _run_linear_collapsed(space, targets, config)
    trace, attempt, accept = oracle_collapsed_walk(list(space), targets,
                                                   config)
    assert np.array_equal(chain.model_index, trace)
    assert np.array_equal(chain.log_target, targets[trace])
    assert (chain.attempt_jump, chain.accept_jump) == (attempt, accept)
    assert 0 < accept < attempt


def test_collapsed_walk_memory_grows_with_visited_models():
    # A 200-step walk visits at most 201 of the 2^15 models; a neighbor
    # table over the whole space took 34 MB.
    import tracemalloc
    space = LinearSubsets(15)
    targets = np.zeros(len(space))
    tracemalloc.start()
    try:
        _run_linear_collapsed(space, targets,
                              SamplerConfig(iterations=200, seed=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8_000_000


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(0, 6), st.integers(0, 2**32 - 1))
def test_proposal_density_from_draw_matches_q_logpdf(d, seed):
    # A proposal mode + L^{-T} z has L'(proposal - mode) = z up to
    # rounding, so its log density is -(c + z'z)/2. The error is measured
    # against |c| + z'z, the size of the terms the sum is made of.
    rng = np.random.default_rng(seed)
    basis = np.linalg.qr(rng.standard_normal((d, d)))[0]
    precision = (basis * 10.0 ** rng.uniform(0.0, 4.0, d)) @ basis.T
    L = chol_factor(precision)
    q_const = d * math.log(2.0 * math.pi) - factor_logdet(L)
    mode = rng.uniform(-10.0, 10.0, d)
    z = rng.standard_normal(d)
    from_draw = -0.5 * (q_const + float(z @ z))
    oracle = q_logpdf(L, mode, q_const, mode + inv_factor(L).T @ z)
    assert abs(from_draw - oracle) <= 1e-12 * (abs(q_const) + float(z @ z))


def test_table_priors_factor_each_term_block_once(monkeypatch):
    # A term's columns are the same in every model's design, so a table
    # factors one block gram matrix per distinct term over the whole
    # space, and every prior equals the one built on the bare FactorSpec.
    table, models, spec_priors = three_way_table()
    real = param_priors.inv_pd
    factored = []

    def counting(a, what="matrix"):
        if what == "block gram matrix":
            factored.append(a.shape[0])
        return real(a, what)

    monkeypatch.setattr(param_priors, "inv_pd", counting)
    shared = {m: term_block_prior(table, m, scales=2.0) for m in models}
    # (), A, B, C, A*B, A*C and B*C.
    assert len({t for m in models for t in m.members}) == len(factored) == 7
    for m in models:
        assert np.array_equal(shared[m].mu, spec_priors[m].mu)
        assert np.array_equal(shared[m].sigma_base, spec_priors[m].sigma_base)
    # Means and c^2 apply per call; a new k^2 for one term is one new
    # block, while the priors on the spec factor every block every time.
    factored.clear()
    scales = {"default": 2.0, ("A", "B"): 0.5}
    kwargs = {"means": {("A",): [0.25]}, "c2": 3.0}
    for m in models:
        prior = term_block_prior(table, m, scales, **kwargs)
        fresh = term_block_prior(table.spec, m, scales, **kwargs)
        assert np.array_equal(prior.mu, fresh.mu)
        assert np.array_equal(prior.sigma_base, fresh.sigma_base)
        assert prior.c2 == fresh.c2 == 3.0
    assert len(factored) == 1 + sum(len(m.members) for m in models)


def test_chain_to_csv_round_trip():
    likelihoods, priors, _, models = gaussian_pair_space()
    config = SamplerConfig(iterations=50, seed=51, store_coefficients=True)
    chain = rjmcmc_run(list(models), priors,
                       ModelPriorPolicy(variant="uniform"),
                       dict(likelihoods), config)
    buf = io.StringIO()
    chain_to_csv(chain, buf)
    rows = list(csv.reader(io.StringIO(buf.getvalue())))
    assert rows[0] == ["iteration", "model", "b1", "b2"]
    assert len(rows) == 51
    for it, row in enumerate(rows[1:]):
        assert int(row[0]) == it
        idx = chain.model_index[it]
        assert row[1] == chain.models[idx].label()
        beta = chain.coefficients[it]
        got = [float(v) for v in row[2:] if v != ""]
        assert np.allclose(got, beta)
        # padding: exactly max_d - d_m trailing empties
        assert row[2:].count("") == 2 - beta.shape[0]

    # a collapsed chain has no coefficients; dump is two columns
    nocoef = synthetic_chain([0, 1, 0], models)
    buf2 = io.StringIO()
    chain_to_csv(nocoef, buf2)
    head = buf2.getvalue().splitlines()[0]
    assert head == "iteration,model"


def test_error_paths():
    likelihoods, priors, _, models = gaussian_pair_space()
    policy = ModelPriorPolicy(variant="uniform")
    config = SamplerConfig(iterations=10)
    with pytest.raises(ContractError, match="empty"):
        rjmcmc_run([], {}, policy, dict(likelihoods), config)
    with pytest.raises(ContractError, match="prior"):
        rjmcmc_run(list(models), {models[0]: priors[models[0]]}, policy,
                   dict(likelihoods), config)
    with pytest.raises(ContractError, match="likelihood"):
        rjmcmc_run(list(models), priors, policy,
                   {models[0]: likelihoods[models[0]]}, config)
    with pytest.raises(ContractError, match="start_index"):
        rjmcmc_run(list(models), priors, policy, dict(likelihoods),
                   SamplerConfig(iterations=10, start_index=5))
    with pytest.raises(ContractError, match="likelihood dimension 2"):
        rjmcmc_run(list(models), {models[0]: priors[models[0]],
                                  models[1]: priors[models[0]]}, policy,
                   dict(likelihoods), config)
    with pytest.raises(ContractError, match="polic"):
        rjmcmc_run(list(models), priors,
                   ModelPriorPolicy(variant="adjusted_info"),
                   dict(likelihoods), config)
    with pytest.raises(ContractError, match="iterations"):
        SamplerConfig(iterations=0)
    with pytest.raises(ContractError, match="burn_in"):
        SamplerConfig(iterations=10, burn_in=10)
