"""Posterior normalization, averaging, shrinkage, and neighborhood mass.

The shrinkage curve is checked against an independent route: posterior
model odds computed from the two marginal likelihoods f0(y) = N(bhat;
0, s2/n) and f1(y) = N(bhat; 0, c2 + s2/n) rather than from the
posterior density at zero that the implementation uses.
"""
import math

import numpy as np
import pytest
from scipy.stats import norm

from jointbma.averaging import KPolicy, LogMarginal, ModelPosterior, \
    embed_linear_mean, inclusion_probs, model_averaged_mean, \
    neighborhood_prior_prob, normalize_posterior, posterior_mean_expansion, \
    shrinkage_curve, term_inclusion_probs
from jointbma._linalg import log_sum_exp
from jointbma.exceptions import ContractError
from jointbma.model_space import FactorSpec, LinearSubsets, ModelId


def lm(value, convention="proper"):
    return LogMarginal(value=value, method="exact_nig", convention=convention)


def test_normalize_posterior_basics():
    m = [ModelId.linear([j]) for j in range(3)]
    single = normalize_posterior(m[:1], [lm(-5.0)])
    assert single.probs[0] == 1.0

    equal = normalize_posterior(m[:2], [lm(-3.0), lm(-3.0)])
    assert np.allclose(equal.probs, [0.5, 0.5])

    three = normalize_posterior(m, [lm(0.0), lm(-math.log(2.0)),
                                    lm(-math.log(2.0))])
    assert np.allclose(three.probs, [0.5, 0.25, 0.25], atol=1e-14)
    assert three.map_model() == m[0]


def test_top_is_a_stable_descending_argsort():
    # Largest probability first and model order among ties; numpy's
    # default argsort does not keep ties in order.
    m = [ModelId.linear(range(j)) for j in range(40)]
    log_probs = np.log(np.tile([0.02, 0.03, 0.01, 0.04], 10))
    post = ModelPosterior(models=m, log_probs=log_probs, convention="proper")
    for k in (1, 5, 40):
        order = np.argsort(-log_probs, kind="stable")[:k]
        assert post.top(k) == [(m[i], math.exp(log_probs[i]))
                               for i in order]
    space = LinearSubsets(5)
    rng = np.random.default_rng(81)
    lazy = ModelPosterior(models=space, log_probs=rng.standard_normal(32),
                          convention="proper")
    assert [m for m, _ in lazy.top(4)] == [
        space[i] for i in np.argsort(-lazy.log_probs, kind="stable")[:4]]


def test_normalize_posterior_preserves_ratios():
    rng = np.random.default_rng(80)
    m = [ModelId.linear([j]) for j in range(6)]
    values = rng.uniform(-40.0, -10.0, 6)
    post = normalize_posterior(m, [lm(v) for v in values])
    for i in range(6):
        for j in range(6):
            assert post.probs[i] / post.probs[j] == pytest.approx(
                math.exp(values[i] - values[j]), rel=1e-12)
    assert post.probs.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(post.probs > 0.0)


def test_normalize_posterior_with_prior_weights_and_errors():
    m = [ModelId.linear([]), ModelId.linear([0])]
    post = normalize_posterior(m, [lm(-2.0), lm(-2.0)],
                               log_prior_weights=[math.log(3.0), 0.0])
    assert post.probs[0] == pytest.approx(0.75)

    with pytest.raises(ContractError, match="convention"):
        normalize_posterior(m, [lm(-1.0, "proper"), lm(-1.0, "improper")])
    with pytest.raises(ContractError):
        normalize_posterior([], [])


def test_normalize_posterior_checks_its_inputs_line_up():
    m = [ModelId.linear([]), ModelId.linear([0])]
    with pytest.raises(ContractError, match="^1 marginals for 2 models$"):
        normalize_posterior(m, [lm(-1.0)])
    with pytest.raises(ContractError, match="duplicate models"):
        normalize_posterior([m[0], m[0]], [lm(-1.0), lm(-2.0)])
    with pytest.raises(ContractError, match=r"shape \(3,\) does not match "
                                            "2 models"):
        normalize_posterior(m, [lm(-1.0), lm(-2.0)],
                            log_prior_weights=np.zeros(3))


def test_inclusion_probs_brute_force():
    p = 3
    models = [ModelId.linear(s) for s in
              ([], [0], [1], [2], [0, 1], [0, 2], [1, 2], [0, 1, 2])]
    rng = np.random.default_rng(81)
    post = normalize_posterior(models,
                               [lm(v) for v in rng.uniform(-8, 0, 8)])
    got = inclusion_probs(post, p)
    for j in range(p):
        brute = sum(pr for m, pr in zip(models, post.probs)
                    if j in m.members)
        assert got[j] == pytest.approx(brute, rel=1e-12)

    full = normalize_posterior([models[-1]], [lm(0.0)])
    assert np.allclose(inclusion_probs(full, p), 1.0)

    half = normalize_posterior([models[1], models[2]], [lm(0.0), lm(0.0)])
    assert np.allclose(inclusion_probs(half, p), [0.5, 0.5, 0.0])


@pytest.mark.parametrize("p", [0, 1, 5, 10])
def test_inclusion_probs_on_lazy_space_matches_model_loop(p):
    seq = LinearSubsets(p)
    rng = np.random.default_rng(82 + p)
    lw = 3.0 * rng.standard_normal(len(seq))
    lazy = ModelPosterior(models=seq, log_probs=lw - log_sum_exp(lw),
                          convention="proper")
    listed = ModelPosterior(models=list(seq), log_probs=lazy.log_probs,
                            convention="proper")
    assert lazy.models is seq and isinstance(listed.models, tuple)
    # The per-model loop over an explicit list is the oracle.
    for width in (p, p + 2):
        got = inclusion_probs(lazy, width)
        want = inclusion_probs(listed, width)
        assert got.shape == want.shape == (width,)
        assert np.all(np.abs(got - want) <= 1e-15)
    if p:
        for post in (lazy, listed):
            with pytest.raises(ContractError,
                               match=f"covariate {p - 1} but p = {p - 1}"):
                inclusion_probs(post, p - 1)
    if p >= 2:
        # The lazy space names its widest covariate, not the width asked.
        with pytest.raises(ContractError,
                           match=f"covariate {p - 1} but p = {p - 2}"):
            inclusion_probs(lazy, p - 2)


def test_inclusion_invariant_to_zero_probability_model():
    models = [ModelId.linear([0]), ModelId.linear([1])]
    base = normalize_posterior(models, [lm(-1.0), lm(-2.0)])
    padded = ModelPosterior(
        models=tuple(models) + (ModelId.linear([0, 1]),),
        log_probs=np.append(base.log_probs, -800.0),
        convention="proper")
    assert np.array_equal(inclusion_probs(base, 2),
                          inclusion_probs(padded, 2))


def test_term_inclusion_probs():
    spec = FactorSpec(factors=(("R", 2), ("C", 2)),
                      forced_terms=((), ("R",), ("C",)),
                      candidate_terms=(("R", "C"),))
    indep = ModelId.loglinear(spec, [(), ("R",), ("C",)])
    sat = ModelId.loglinear(spec, [(), ("R",), ("C",), ("R", "C")])
    post = normalize_posterior([indep, sat], [lm(0.0), lm(math.log(3.0))])
    probs = term_inclusion_probs(post)
    assert probs[("R", "C")] == pytest.approx(0.75)
    assert probs[("R",)] == pytest.approx(1.0)


def test_embed_linear_mean_layout():
    m = ModelId.linear([1, 3], intercept=True)
    out = embed_linear_mean(m, [9.0, 1.5, -2.5], p=5)
    assert np.array_equal(out, [9.0, 0.0, 1.5, 0.0, -2.5, 0.0])
    no_int = ModelId.linear([0], intercept=False)
    assert np.array_equal(embed_linear_mean(no_int, [4.0], p=2),
                          [0.0, 4.0, 0.0])
    with pytest.raises(ContractError, match="length"):
        embed_linear_mean(m, [1.0], p=5)
    with pytest.raises(ContractError, match="covariate"):
        embed_linear_mean(m, [9.0, 1.5, -2.5], p=2)


def test_model_averaged_mean_oracle():
    m0 = ModelId.linear([], intercept=True)
    m1 = ModelId.linear([0], intercept=True)
    q = 0.3
    post = normalize_posterior(
        [m0, m1], [lm(math.log(q)), lm(math.log(1.0 - q))])
    estimates = {m0: embed_linear_mean(m0, [2.0], p=1),
                 m1: embed_linear_mean(m1, [1.0, 5.0], p=1)}
    avg = model_averaged_mean(post, estimates)
    assert avg[1] == pytest.approx((1.0 - q) * 5.0, rel=1e-12)
    assert avg[0] == pytest.approx(q * 2.0 + (1.0 - q) * 1.0, rel=1e-12)

    sure = normalize_posterior([m1], [lm(0.0)])
    assert np.allclose(model_averaged_mean(sure, estimates), estimates[m1])

    with pytest.raises(ContractError, match="estimate"):
        model_averaged_mean(post, {m0: estimates[m0]})
    with pytest.raises(ContractError, match="shape"):
        model_averaged_mean(post, {m0: np.zeros(2), m1: np.zeros(3)})


def shrinkage_oracle(n, beta_hat, sigma2, k_policy, inv_c2):
    """Model odds from the two marginal likelihoods directly."""
    c = inv_c2 ** -0.5
    f0 = norm.pdf(beta_hat, loc=0.0, scale=math.sqrt(sigma2 / n))
    f1 = norm.pdf(beta_hat, loc=0.0, scale=math.sqrt(c * c + sigma2 / n))
    odds_null = float(k_policy.odds(c)) * f0 / f1
    prob_m1 = 1.0 / (1.0 + odds_null)
    w = (n / sigma2) / (n / sigma2 + inv_c2)
    return prob_m1, w * beta_hat, prob_m1 * w


def test_shrinkage_curve_matches_marginal_likelihood_oracle():
    grid = np.geomspace(1e-4, 10.0, 41)
    for policy in (KPolicy.fixed(1.0), KPolicy.fixed(0.3),
                   KPolicy.proportional_inverse_c(1.0),
                   KPolicy.proportional_inverse_c(2.5)):
        curve = shrinkage_curve(10, 1.0, 1.0, policy, grid)
        for i, inv_c2 in enumerate(grid):
            prob, mean, coef = shrinkage_oracle(10, 1.0, 1.0, policy, inv_c2)
            assert curve.prob_m1[i] == pytest.approx(prob, rel=1e-10)
            assert curve.posterior_mean[i] == pytest.approx(mean, rel=1e-12)
            assert curve.coefficient[i] == pytest.approx(coef, rel=1e-10)
            assert curve.averaged_mean[i] == pytest.approx(
                curve.coefficient[i] * 1.0, rel=1e-12)


def test_shrinkage_fixed_k_shape():
    grid = np.geomspace(1e-4, 10.0, 400)
    curve = shrinkage_curve(10, 1.0, 1.0, KPolicy.fixed(1.0), grid)
    coef = curve.coefficient
    peak = int(np.argmax(coef))
    assert 0 < peak < coef.size - 1
    diffs = np.diff(coef)
    assert np.all(diffs[:peak] > 0.0)
    assert np.all(diffs[peak:] < 0.0)
    # Lindley collapse at the diffuse end, total shrinkage at the other
    tiny = shrinkage_curve(10, 1.0, 1.0, KPolicy.fixed(1.0), [1e-14])
    assert tiny.coefficient[0] < 1e-5
    assert tiny.limit_prob_m1 == 0.0
    huge = shrinkage_curve(10, 1.0, 1.0, KPolicy.fixed(1.0), [1e8])
    assert huge.coefficient[0] < 1e-6


def test_shrinkage_proportional_monotone_with_positive_limit():
    grid = np.geomspace(1e-8, 1e-2, 200)
    policy = KPolicy.proportional_inverse_c(1.0)
    curve = shrinkage_curve(10, 1.0, 1.0, policy, grid)
    # increasing as c^{-2} decreases on the small-precision side
    assert np.all(np.diff(curve.coefficient) < 0.0)
    limit = 1.0 / (1.0 + math.sqrt(10.0) * math.exp(-5.0))
    assert curve.limit_prob_m1 == pytest.approx(limit, rel=1e-12)
    assert curve.limit_coefficient > 0.97
    probe = shrinkage_curve(10, 1.0, 1.0, policy, [1e-13])
    assert probe.prob_m1[0] == pytest.approx(curve.limit_prob_m1, rel=1e-6)


def test_shrinkage_validation():
    with pytest.raises(ContractError, match="positive"):
        shrinkage_curve(0, 1.0, 1.0, KPolicy.fixed(), [1.0])
    with pytest.raises(ContractError, match="sigma2"):
        shrinkage_curve(10, 1.0, -1.0, KPolicy.fixed(), [1.0])
    with pytest.raises(ContractError, match="precision"):
        shrinkage_curve(10, 1.0, 1.0, KPolicy.fixed(), [0.0])
    with pytest.raises(ContractError, match="precision"):
        shrinkage_curve(10, 1.0, 1.0, KPolicy.fixed(), [])
    with pytest.raises(ContractError, match="policy"):
        KPolicy(kind="adaptive", k0=1.0)
    with pytest.raises(ContractError, match="k0"):
        KPolicy.fixed(0.0)


def test_posterior_mean_expansion():
    # beta_hat (1 - sigma2/(n c^2)); exact shrink weight approaches it
    val = posterior_mean_expansion(10, 2.0, 1.0, 100.0)
    assert val == pytest.approx(2.0 * (1.0 - 1.0 / (10 * 1e4)), rel=1e-14)
    curve = shrinkage_curve(10, 2.0, 1.0, KPolicy.fixed(), [1e-8])
    assert curve.posterior_mean[0] == pytest.approx(
        posterior_mean_expansion(10, 2.0, 1.0, 1e4), rel=1e-9)
    with pytest.raises(ContractError):
        posterior_mean_expansion(10, 1.0, 1.0, -1.0)


def test_neighborhood_prior_prob_closed_forms():
    # chi^2_2 CDF is 1 - exp(-x/2)
    got = neighborhood_prior_prob(0.4, 2, 0.1, 1.0)
    assert got == pytest.approx(0.4 * (1.0 - math.exp(-0.005)), rel=1e-12)
    # chi^2_1 CDF at 1 is 2 Phi(1) - 1
    got = neighborhood_prior_prob(1.0, 1, 1.0, 1.0)
    assert got == pytest.approx(2.0 * norm.cdf(1.0) - 1.0, rel=1e-10)
    # epsilon^2/c^2 -> infinity recovers the full model mass
    assert neighborhood_prior_prob(0.7, 3, 100.0, 1.0) == \
        pytest.approx(0.7, rel=1e-12)


def test_neighborhood_small_x_leading_term():
    for d in (1, 2, 5):
        eps, c2 = 1e-3, 1.0
        x = eps * eps / c2
        expected = (x / 2.0) ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)
        got = neighborhood_prior_prob(1.0, d, eps, c2, method="small_x")
        assert got == pytest.approx(expected, rel=1e-12)
        exact = neighborhood_prior_prob(1.0, d, eps, c2)
        assert exact == pytest.approx(expected, rel=1e-5)


def test_neighborhood_homogeneity_over_loglinear_dimensions():
    # with the c^d prior construction, P(E) 2^{d/2-1} Gamma(d/2) divided
    # by the model's weight is homogeneous of degree d in epsilon;
    # doubling epsilon multiplies the ratio by 2^d
    c2 = 1.0
    eps = 1e-4
    for d, f_m in ((7, 0.1), (9, 0.2), (10, 0.3), (12, 0.4)):
        def ratio(e):
            pe = neighborhood_prior_prob(f_m, d, e, c2)
            return pe * 2.0 ** (d / 2.0 - 1.0) * math.gamma(d / 2.0) / f_m
        assert ratio(2.0 * eps) / ratio(eps) == pytest.approx(2.0 ** d,
                                                              rel=1e-6)


def test_neighborhood_validation():
    with pytest.raises(ContractError, match="dimension"):
        neighborhood_prior_prob(1.0, 0, 1.0, 1.0)
    with pytest.raises(ContractError, match="epsilon"):
        neighborhood_prior_prob(1.0, 2, 0.0, 1.0)
    with pytest.raises(ContractError, match="c2"):
        neighborhood_prior_prob(1.0, 2, 1.0, -1.0)
    with pytest.raises(ContractError, match="weight"):
        neighborhood_prior_prob(-0.1, 2, 1.0, 1.0)
    with pytest.raises(ContractError, match="method"):
        neighborhood_prior_prob(1.0, 2, 1.0, 1.0, method="series")
