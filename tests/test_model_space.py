"""Model identities, enumeration, and prior-weight policies.

Enumeration counts come from brute-force oracles; policy weights are
checked against direct evaluations of their defining formulas.
"""
import math
import itertools
from itertools import combinations

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from jointbma.averaging import ModelPosterior
from jointbma.exceptions import CapacityError, ContractError, \
    NumericalDomainError, SpecificationError
from jointbma.linear_exact import SweepResult
from jointbma.model_space import INFO_VARIANTS, LINEAR, POLICY_VARIANTS, \
    Baseline, FactorSpec, LinearSubsets, ModelId, ModelPriorPolicy, \
    _log_weights, calibrate_p, enumerate_hierarchical_models, \
    enumerate_linear_models, is_hierarchical, log_prior_model_weight, \
    term_margins
from jointbma.param_priors import InformationSource, ParamPrior
from jointbma.rj_sampler import SamplerConfig, _walk

from hierarchical import filtered_hierarchical_models
from neighbors import toggle_neighbors


@pytest.fixture
def ohaspec():
    return FactorSpec(factors=(("O", 3), ("H", 2), ("A", 4)),
                      forced_terms=((), ("O",), ("H",), ("A",)),
                      candidate_terms=(("O", "H"), ("H", "A")))


def test_linear_identity_canonicalization():
    m = ModelId.linear([4, 3, 3])
    assert m.members == (3, 4)
    assert m.d == 3
    assert m.intercept
    assert m.label() == "1+X4+X5"
    assert ModelId.linear([], intercept=False).label() == "0"
    assert ModelId.linear([], intercept=True).label() == "1"


def test_linear_models_hashable_and_equal():
    assert ModelId.linear([1, 2]) == ModelId.linear([2, 1])
    assert len({ModelId.linear([0]), ModelId.linear([0])}) == 1


def test_enumerate_linear_counts():
    for p, intercept in itertools.product((0, 1, 4, 8), (True, False)):
        models = enumerate_linear_models(p, include_intercept=intercept)
        assert len(models) == 2 ** p
        assert len(set(models)) == 2 ** p
        assert all(m.intercept == intercept for m in models)
        # canonical: sorted by dimension then members
        dims = [m.d for m in models]
        assert dims == sorted(dims)
        assert models == sorted(models, key=ModelId.sort_key)


def test_enumerate_linear_capacity():
    with pytest.raises(CapacityError):
        enumerate_linear_models(26)


def combinations_oracle(p, intercept):
    return [ModelId.linear(c, intercept=intercept)
            for k in range(p + 1) for c in combinations(range(p), k)]


@pytest.mark.parametrize("intercept", [True, False])
@pytest.mark.parametrize("p", range(13))
def test_linear_subsets_follow_combinations_order(p, intercept):
    seq = LinearSubsets(p, intercept=intercept)
    oracle = combinations_oracle(p, intercept)
    assert len(seq) == 2 ** p
    assert list(seq) == oracle
    assert enumerate_linear_models(p, include_intercept=intercept) == oracle
    assert seq.d.tolist() == [m.d for m in oracle]
    assert seq.member.shape == (2 ** p, p)
    assert [tuple(np.flatnonzero(row)) for row in seq.member] == \
        [m.members for m in oracle]
    # The walk's bitmask neighbors of every state against the toggle
    # search, whose repr order puts covariate 10 before 2 from p = 11 on.
    _, neighbors = _walk(seq, SamplerConfig(iterations=1))
    assert [neighbors[i] for i in range(len(seq))] == \
        toggle_neighbors(oracle)


spaces = st.tuples(st.integers(0, 12), st.booleans())


@settings(max_examples=300, deadline=None)
@given(spaces, st.data())
def test_linear_subsets_position_inverts_indexing(space, data):
    seq = LinearSubsets(*space)
    i = data.draw(st.integers(-len(seq), len(seq) - 1))
    m = seq[i]
    assert seq.position(m) == i % len(seq)
    assert m in seq
    subset = data.draw(st.sets(st.integers(0, max(seq.p - 1, 0)),
                               max_size=seq.p))
    built = ModelId.linear(subset, intercept=seq.intercept)
    assert seq[seq.position(built)] == built
    with pytest.raises(IndexError):
        seq[len(seq)]
    with pytest.raises(IndexError):
        seq[-len(seq) - 1]


@settings(max_examples=100, deadline=None)
@given(spaces, st.data())
def test_linear_subsets_reject_foreign_models(space, data):
    p, intercept = space
    seq = LinearSubsets(p, intercept=intercept)
    subset = data.draw(st.sets(st.integers(0, p + 3), max_size=4))
    spec = FactorSpec(factors=(("A", 2), ("B", 3)),
                      forced_terms=((), ("A",)))
    foreign = [
        ModelId.linear(subset | {p + data.draw(st.integers(0, 3))},
                       intercept=intercept),
        ModelId.linear(subset & set(range(p)), intercept=not intercept),
        ModelId.loglinear(spec, [(), ("A",)]),
        ModelId(kind=LINEAR, members=(), d=7, intercept=intercept),
    ]
    post = ModelPosterior(models=seq,
                          log_probs=np.full(len(seq), -p * math.log(2.0)),
                          convention="proper")
    sweep = SweepResult(models=seq, c2_grid=np.ones(1),
                        log_weights=post.log_probs[None, :],
                        log_posterior=post.log_probs[None, :],
                        convention="proper")
    # The posterior keeps the lazy space rather than building a tuple.
    assert post.models is seq
    for m in foreign:
        assert seq.position(m) is None
        assert m not in seq
        with pytest.raises(ContractError, match="not in posterior support"):
            post.prob_of(m)
        with pytest.raises(ContractError, match="not in sweep support"):
            sweep.prob_trace(m)


def test_linear_subsets_validation():
    with pytest.raises(SpecificationError):
        LinearSubsets(-1)
    with pytest.raises(CapacityError):
        LinearSubsets(26)


def test_term_dimension_and_cells(ohaspec):
    assert ohaspec.n_cells == 24
    assert ohaspec.term_dimension(()) == 1
    assert ohaspec.term_dimension(("O",)) == 2
    assert ohaspec.term_dimension(("H", "A")) == 3
    assert ohaspec.term_dimension(("O", "A")) == 6


def test_term_margins_and_hierarchy():
    assert set(term_margins(("O", "H"))) == {(), ("O",), ("H",)}
    assert is_hierarchical({(), ("O",), ("H",), ("O", "H")})
    assert not is_hierarchical({(), ("O", "H")})


def test_loglinear_model_requires_hierarchy(ohaspec):
    with pytest.raises(SpecificationError):
        ModelId.loglinear(ohaspec, [(), ("O",), ("H", "A")])


def test_enumerate_hierarchical_oha(ohaspec):
    models = enumerate_hierarchical_models(ohaspec)
    labels = [m.label() for m in models]
    assert labels == ["O+H+A", "O+H+A+OH", "O+H+A+HA", "O+H+A+OH+HA"]
    assert [m.d for m in models] == [7, 9, 10, 12]


def test_loglinear_empty_model_is_labelled_0():
    # With the intercept selectable, the empty model and the
    # intercept-only model both occur and must not share a label.
    spec = FactorSpec(factors=(("A", 2), ("B", 3)),
                      candidate_terms=((), ("A",), ("B",)))
    models = enumerate_hierarchical_models(spec)
    assert [(m.label(), m.d) for m in models] == [
        ("0", 0), ("1", 1), ("A", 2), ("B", 3), ("A+B", 4)]
    assert ModelId.loglinear(spec, []).label() == "0"
    assert ModelId.loglinear(spec, [()]).label() == "1"


def test_enumerate_hierarchical_matches_bruteforce():
    spec = FactorSpec(factors=(("A", 2), ("B", 3), ("C", 2)),
                      forced_terms=((), ("A",), ("B",), ("C",)),
                      candidate_terms=(("A", "B"), ("A", "C"), ("B", "C"),
                                       ("A", "B", "C")))
    models = enumerate_hierarchical_models(spec)
    # oracle: filter all candidate subsets by the hierarchy predicate
    count = 0
    cand = list(spec.candidate_terms)
    for k in range(len(cand) + 1):
        for extra in combinations(cand, k):
            if is_hierarchical(set(spec.forced_terms) | set(extra)):
                count += 1
    assert len(models) == count == 9


def _terms(names, *sizes):
    return tuple(t for k in sizes for t in combinations(names, k))


# (spec, model count): main effects forced unless stated.
HIERARCHICAL_SPECS = {
    # rj-loglinear-64's space: the six pairs as candidates.
    "pairs-3x2x4x3": (FactorSpec(
        factors=(("A", 3), ("B", 2), ("C", 4), ("D", 3)),
        forced_terms=_terms("ABCD", 0, 1),
        candidate_terms=_terms("ABCD", 2)), 64),
    "pairs-and-triples-2x2x2x2": (FactorSpec(
        factors=tuple((n, 2) for n in "ABCD"),
        forced_terms=_terms("ABCD", 0, 1),
        candidate_terms=_terms("ABCD", 2, 3)), 113),
    "pairs-and-triples-AB-forced": (FactorSpec(
        factors=tuple((n, 2) for n in "ABCD"),
        forced_terms=_terms("ABCD", 0, 1) + (("A", "B"),),
        candidate_terms=tuple(t for t in _terms("ABCD", 2, 3)
                              if t != ("A", "B"))), 72),
    "candidate-mains-2x3x2": (FactorSpec(
        factors=(("A", 2), ("B", 3), ("C", 2)),
        forced_terms=((),),
        candidate_terms=_terms("ABC", 1, 2, 3)), 19),
    # Every margin of the forced triple is a candidate, so the only
    # hierarchical set takes them all.
    "forced-triple": (FactorSpec(
        factors=tuple((n, 2) for n in "ABC"),
        forced_terms=(("A", "B", "C"),),
        candidate_terms=_terms("ABC", 0, 1, 2)), 1),
    "no-candidates": (FactorSpec(
        factors=(("A", 2), ("B", 3)),
        forced_terms=_terms("AB", 0, 1)), 1),
}


@pytest.mark.parametrize("name", HIERARCHICAL_SPECS)
def test_enumerate_hierarchical_equals_the_subset_filter(name):
    spec, count = HIERARCHICAL_SPECS[name]
    models = enumerate_hierarchical_models(spec)
    assert models == filtered_hierarchical_models(spec)
    assert len(models) == count


def test_enumerate_hierarchical_tests_hierarchy_at_most_twice_per_model(
        monkeypatch):
    # The filter over all 2^10 candidate subsets made 1,137 calls here.
    calls = []

    def counted(terms):
        calls.append(1)
        return is_hierarchical(terms)
    monkeypatch.setattr("jointbma.model_space.is_hierarchical", counted)
    spec, count = HIERARCHICAL_SPECS["pairs-and-triples-2x2x2x2"]
    assert len(enumerate_hierarchical_models(spec)) == count
    assert len(calls) <= 2 * count


def test_enumerate_hierarchical_rejects_open_margin():
    spec = FactorSpec(factors=(("A", 2), ("B", 2)),
                      forced_terms=((),),
                      candidate_terms=(("A", "B"),))
    with pytest.raises(SpecificationError, match="margin"):
        enumerate_hierarchical_models(spec)


def test_baseline_kinds():
    m = ModelId.linear([0, 1])
    assert Baseline.constant().log_p(m) == 0.0
    w = -0.5 * math.log(2.0)
    assert Baseline.dimension(w).log_p(m) == pytest.approx(3 * w)
    n0, psi0 = 24.0, 1.5
    assert Baseline.calibrated(n0, psi0).log_p(m) == pytest.approx(
        1.5 * (math.log(n0) - psi0))


def test_baseline_overflow_is_a_domain_error():
    # Over a space and for one model alike: a finite rule whose log p
    # overflows at the largest d is rejected, not returned as inf.
    space = LinearSubsets(3)
    for base in (Baseline.dimension(1e308), Baseline.dimension(-1e308),
                 Baseline.calibrated(24.0, 1e308)):
        with pytest.raises(NumericalDomainError, match="overflows at d = 4"):
            base.log_p(space)
        with pytest.raises(NumericalDomainError):
            base.log_p(space[-1])
        assert np.isfinite(base.log_p(ModelId.linear([])))


def test_baseline_table():
    m1, m2 = ModelId.linear([0]), ModelId.linear([1])
    base = Baseline.from_table({m1: -0.5, m2: -1.5})
    assert base.log_p(m1) == -0.5
    with pytest.raises(ContractError):
        base.log_p(ModelId.linear([0, 1]))


def test_calibrate_p():
    assert calibrate_p(4, 24.0, 1.5) == pytest.approx(
        2.0 * (math.log(24.0) - 1.5))
    with pytest.raises(SpecificationError):
        calibrate_p(2, 1.0, 1.5)
    with pytest.raises(SpecificationError):
        calibrate_p(2, 24.0, 0.0)


@pytest.mark.parametrize("n0, psi0, match", [
    (1.0, 1.0, "reference sample size must be >= 2, got 1.0"),
    (24.0, 0.0, "penalty value must be positive, got 0.0")])
def test_calibrated_baseline_is_checked_when_built(n0, psi0, match):
    # calibrate_p's rule, applied before any weight is evaluated.
    with pytest.raises(SpecificationError, match=match):
        Baseline.calibrated(n0, psi0)


def _toy_prior(rng, d, c2):
    a = rng.standard_normal((d, d + 2))
    base = a @ a.T + np.eye(d)
    return ParamPrior(mu=np.zeros(d), sigma_base=base, c2=c2)


def test_policy_weight_formulas():
    rng = np.random.default_rng(10)
    m = ModelId.linear([0, 2], intercept=True)  # d = 3
    c2 = 37.0
    prior = _toy_prior(rng, 3, c2)
    X = rng.standard_normal((40, 3))
    info = InformationSource.linear(X)
    lp = math.log(0.25)
    policy = ModelPriorPolicy(variant="uniform",
                              baseline=Baseline.dimension(lp / 3))

    assert log_prior_model_weight(m, policy.with_variant("uniform"),
                                  prior=prior) == pytest.approx(lp)
    assert log_prior_model_weight(
        m, policy.with_variant("adjusted_c"),
        prior=prior) == pytest.approx(lp + 1.5 * math.log(c2))

    v = prior.variance()
    expected_info = lp + 0.5 * (np.linalg.slogdet(v)[1]
                                + np.linalg.slogdet(X.T @ X / 40.0)[1])
    assert log_prior_model_weight(
        m, policy.with_variant("adjusted_info"), prior=prior,
        info=info) == pytest.approx(expected_info, rel=1e-12)

    i_mat = X.T @ X / 40.0
    expected_exact = lp + 0.5 * (
        np.linalg.slogdet(v)[1]
        + np.linalg.slogdet(i_mat + np.linalg.inv(v) / 40.0)[1])
    assert log_prior_model_weight(
        m, policy.with_variant("adjusted_exact"), prior=prior,
        info=info) == pytest.approx(expected_exact, rel=1e-12)


def test_policy_weight_requires_inputs():
    m = ModelId.linear([0])
    policy = ModelPriorPolicy(variant="adjusted_info")
    with pytest.raises(ContractError):
        log_prior_model_weight(m, policy)


def test_policy_weight_needs_information_and_a_prior_of_its_dimension():
    # The information-based variants take the information source; both
    # take V's factorization from the one owner, which checks that the
    # prior has the model's dimension.
    rng = np.random.default_rng(11)
    m = ModelId.linear([0, 2])  # d = 3
    info = InformationSource.linear(rng.standard_normal((20, 3)))
    for variant in ("adjusted_info", "adjusted_exact"):
        policy = ModelPriorPolicy(variant=variant)
        with pytest.raises(ContractError,
                           match="requires an information source"):
            log_prior_model_weight(m, policy, prior=_toy_prior(rng, 3, 2.0))
        with pytest.raises(ContractError,
                           match="^likelihood dimension 3 does not match "
                                 "prior dimension 2$"):
            log_prior_model_weight(m, policy, prior=_toy_prior(rng, 2, 2.0),
                                   info=info)
    # An information matrix of another dimension is rejected as a prior
    # of another dimension is, under each variant that reads it.
    small = InformationSource.linear(rng.standard_normal((20, 2)))
    for variant in ("adjusted_info", "adjusted_exact", "loglinear_adjusted"):
        policy = ModelPriorPolicy(variant=variant)
        with pytest.raises(ContractError,
                           match="^likelihood dimension 3 does not match "
                                 "information dimension 2$"):
            log_prior_model_weight(m, policy, prior=_toy_prior(rng, 3, 2.0),
                                   info=small)


# Hand values that are exact in binary (log p(m) of the three baselines,
# log|V|, the log-determinants and log n), and c = 2, so that each row of
# the module docstring's table, written as it reads there, equals the
# rule's value bit for bit.
HAND_LD_V, HAND_LD_I, HAND_LD_IV = 1.5, -0.25, 0.75
HAND_LD_XLX, HAND_LOG_N = 2.625, 0.5


@pytest.mark.parametrize("variant", POLICY_VARIANTS)
@pytest.mark.parametrize("baseline", ["constant", "dimension", "table"])
def test_log_weights_is_the_docstring_table(variant, baseline):
    space = LinearSubsets(2)
    base = {"constant": Baseline.constant(),
            "dimension": Baseline.dimension(-0.375),
            "table": Baseline.from_table(
                {m: -1.25 - 0.5 * len(m.members) for m in space})}[baseline]
    policy = ModelPriorPolicy(variant=variant, baseline=base)
    c2 = 4.0
    calls = []

    def logdet(exact):
        calls.append(exact)
        if variant == "loglinear_adjusted":
            # log|i| = log|X'Diag(l0)X| - d log n.
            return HAND_LD_V + HAND_LD_XLX - m.d * HAND_LOG_N
        return HAND_LD_V + (HAND_LD_IV if exact else HAND_LD_I)

    m = space[-1]  # d = 3
    lp = {"constant": 0.0, "dimension": 3 * -0.375, "table": -2.25}[baseline]
    expected = {
        "uniform": lp,
        "adjusted_c": lp + m.d * math.log(2.0),
        "adjusted_info": lp + 0.5 * (HAND_LD_V + HAND_LD_I),
        "adjusted_exact": lp + 0.5 * (HAND_LD_V + HAND_LD_IV),
        "loglinear_adjusted": lp + 0.5 * HAND_LD_V + 0.5 * HAND_LD_XLX
        - 0.5 * m.d * HAND_LOG_N,
    }[variant]
    assert _log_weights(policy, m, c2, logdet) == expected
    # The determinant callable is the adjustment's only input under the
    # information variants, and is never called under the other two.
    assert calls == ([variant == "adjusted_exact"]
                     if variant in INFO_VARIANTS else [])
    # Over a whole space the rule is the same elementwise, with the
    # baseline evaluated over the space's d.
    d = space.d

    def logdet_all(exact):
        return np.where(d == m.d, logdet(exact), 0.0)

    log_w = _log_weights(policy, space, c2, logdet_all)
    adjust = d * 0.5 * math.log(c2) if variant == "adjusted_c" else 0.0
    assert log_w.shape == (4,) and log_w[-1] == expected
    assert np.array_equal(log_w[:-1], (base.log_p(space) + adjust)[:-1])


def test_policy_weight_d0_is_baseline():
    m = ModelId.linear([], intercept=False)
    policy = ModelPriorPolicy(variant="adjusted_c")
    prior = ParamPrior(mu=np.zeros(0), sigma_base=np.zeros((0, 0)), c2=5.0)
    assert log_prior_model_weight(m, policy, prior=prior) == 0.0
    # The general path's 0x0 log-determinants add exactly nothing to the
    # baseline under every variant.
    info = InformationSource.empirical(np.zeros((0, 0)), 10)
    baseline = Baseline.from_table({m: -1.25})
    for variant in POLICY_VARIANTS:
        policy = ModelPriorPolicy(variant=variant, baseline=baseline)
        assert log_prior_model_weight(m, policy, prior=prior,
                                      info=info) == -1.25


def test_unknown_variant_rejected():
    with pytest.raises(SpecificationError):
        ModelPriorPolicy(variant="florp")
