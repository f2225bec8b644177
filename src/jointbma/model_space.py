"""Model spaces and prior model probabilities.

Two kinds of model space are supported: subsets of linear-regression
covariates, and hierarchical log-linear term sets over a factor grid.
Prior model weights implement the dispersion-adjusted policies

    uniform          log p(m)
    adjusted_c       log p(m) + d log c
    adjusted_info    log p(m) + (1/2) log(|V| |i|)
    adjusted_exact   log p(m) + (1/2) log(|V| |i + n^{-1} V^{-1}|)
    loglinear_adjusted   log p(m) + (1/2) log|V| + (1/2) log|X'Diag(l0)X|
                         - (d/2) log n,  l0 = exp(X mu)

where V = c^2 Sigma is the parameter prior variance and i the unit
information matrix. Tying the model weight to the prior dispersion keeps
posterior model probabilities stable as the parameter prior flattens,
instead of collapsing onto the smallest model. _log_weights is the
table's one implementation, for one model or a whole LinearSubsets space.
"""
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, combinations
import math

import numpy as np

from ._linalg import chol_logdet
from .exceptions import CapacityError, ContractError, NumericalDomainError, \
    SpecificationError
from .param_priors import _factor_prior

__all__ = [
    "ModelId",
    "FactorSpec",
    "Baseline",
    "ModelPriorPolicy",
    "LinearSubsets",
    "enumerate_linear_models",
    "enumerate_hierarchical_models",
    "is_hierarchical",
    "term_margins",
    "log_prior_model_weight",
    "calibrate_p",
    "MAX_ENUM_COVARIATES",
]

MAX_ENUM_COVARIATES = 25

LINEAR = "linear-subset"
LOGLINEAR = "loglinear-termset"

# The variants whose weight needs an information matrix.
INFO_VARIANTS = ("adjusted_info", "adjusted_exact", "loglinear_adjusted")
POLICY_VARIANTS = ("uniform", "adjusted_c") + INFO_VARIANTS


def _term_label(term):
    if not term:
        return "1"
    if all(len(name) == 1 for name in term):
        return "".join(term)
    return ":".join(term)


@dataclass(frozen=True)
class ModelId:
    """Identity of one model: covariate subset or log-linear term set.

    members are canonically ordered and duplicate-free so that equality is
    structural; d counts parameters including the intercept when present.
    """

    kind: str
    members: tuple
    d: int
    intercept: bool = False

    @classmethod
    def linear(cls, members, intercept=True):
        members = tuple(sorted(set(int(j) for j in members)))
        if members and members[0] < 0:
            raise SpecificationError("covariate indices must be nonnegative")
        return cls(kind=LINEAR, members=members,
                   d=len(members) + (1 if intercept else 0),
                   intercept=bool(intercept))

    @classmethod
    def loglinear(cls, spec, terms):
        terms = tuple(sorted((spec.normalize_term(t) for t in terms),
                             key=spec.term_sort_key))
        if len(set(terms)) != len(terms):
            raise SpecificationError(f"duplicate terms in model: {terms}")
        if not is_hierarchical(terms):
            raise SpecificationError(
                f"term set {[_term_label(t) for t in terms]} is not closed "
                "under margins")
        d = sum(spec.term_dimension(t) for t in terms)
        return cls(kind=LOGLINEAR, members=terms, d=d,
                   intercept=() in terms)

    def label(self):
        if self.kind == LINEAR:
            parts = (["1"] if self.intercept else []) + \
                [f"X{j + 1}" for j in self.members]
            return "+".join(parts) if parts else "0"
        named = [_term_label(t) for t in self.members if t]
        if not named:
            return "1" if self.intercept else "0"
        return "+".join(named)

    def sort_key(self):
        return (self.d, self.members, self.intercept)


@dataclass(frozen=True)
class FactorSpec:
    """Factor grid plus the term sets defining a log-linear model space.

    factors: tuple of (name, level_count), level_count >= 2.
    forced_terms are present in every model; candidate_terms are subject
    to selection. Terms are tuples of factor names; () is the intercept.
    """

    factors: tuple
    forced_terms: tuple = ()
    candidate_terms: tuple = ()

    def __post_init__(self):
        factors = tuple((str(n), int(l)) for n, l in self.factors)
        names = [n for n, _ in factors]
        if len(set(names)) != len(names):
            raise SpecificationError(f"duplicate factor names: {names}")
        for n, l in factors:
            if l < 2:
                raise SpecificationError(f"factor {n!r} needs >= 2 levels, got {l}")
        object.__setattr__(self, "factors", factors)
        forced = tuple(sorted((self.normalize_term(t) for t in self.forced_terms),
                              key=self.term_sort_key))
        cand = tuple(sorted((self.normalize_term(t) for t in self.candidate_terms),
                            key=self.term_sort_key))
        if set(forced) & set(cand):
            raise SpecificationError(
                f"terms cannot be both forced and candidate: "
                f"{sorted(set(forced) & set(cand))}")
        object.__setattr__(self, "forced_terms", forced)
        object.__setattr__(self, "candidate_terms", cand)

    @cached_property
    def names(self):
        return tuple(n for n, _ in self.factors)

    @cached_property
    def levels(self):
        return {n: l for n, l in self.factors}

    @property
    def n_cells(self):
        out = 1
        for _, l in self.factors:
            out *= l
        return out

    def normalize_term(self, term):
        if isinstance(term, str):
            term = (term,) if term not in ("1", "") else ()
        term = tuple(term)
        for name in term:
            if name not in self.names:
                raise SpecificationError(f"term references unknown factor {name!r}")
        if len(set(term)) != len(term):
            raise SpecificationError(f"term repeats a factor: {term}")
        return tuple(sorted(term, key=self.names.index))

    def term_sort_key(self, term):
        return (len(term), tuple(map(self.names.index, term)))

    def term_dimension(self, term):
        return math.prod(self.levels[name] - 1 for name in term)


def term_margins(term):
    """All proper sub-terms of a term, the intercept () included."""
    out = []
    for k in range(len(term)):
        out.extend(combinations(term, k))
    return out


def is_hierarchical(terms):
    have = set(terms)
    return all(all(sub in have for sub in term_margins(t)) for t in have)


def model_lookup(models, what):
    """Function mapping a model to its first position in models in O(1),
    raising ContractError for a model outside the `what` support: a
    LinearSubsets ranks the model, any other sequence gets a dict that
    keeps a linear scan's first-match result."""
    if isinstance(models, LinearSubsets):
        find = models.position
    else:
        index = {}
        for pos, m in enumerate(models):
            index.setdefault(m, pos)
        find = index.get

    def lookup(m):
        pos = find(m)
        if pos is None:
            raise ContractError(f"model {m.label()} not in {what} support")
        return pos
    return lookup


class LinearSubsets(Sequence):
    """All 2^p covariate subsets as a lazy sequence of linear ModelIds.

    Canonical order: subsets by size, each size in the lexicographic
    order of itertools.combinations(range(p), k). Indexing unranks a
    position in the combinatorial number system and builds that one
    ModelId; position() ranks a model back without a table over the
    space. The arrays d and member describe every subset at once.
    Hard cap p <= MAX_ENUM_COVARIATES; larger spaces need the sampler.
    """

    def __init__(self, p, intercept=True):
        p = int(p)
        if p < 0:
            raise SpecificationError(
                f"covariate count must be nonnegative, got {p}")
        if p > MAX_ENUM_COVARIATES:
            raise CapacityError(
                f"2^{p} models exceed the enumeration cap (p <= "
                f"{MAX_ENUM_COVARIATES}); use rj_sampler for spaces this "
                "large")
        self.p = p
        self.intercept = bool(intercept)
        sizes = [math.comb(p, k) for k in range(p + 1)]
        # offsets[k] is the position of the first subset of size k.
        self.offsets = tuple(sum(sizes[:k]) for k in range(p + 2))

    def __len__(self):
        return 1 << self.p

    def __iter__(self):
        for k in range(self.p + 1):
            for subset in combinations(range(self.p), k):
                yield ModelId.linear(subset, intercept=self.intercept)

    def __getitem__(self, i):
        n = len(self)
        i = int(i)
        if not -n <= i < n:
            raise IndexError(f"model index {i} out of range for {n} models")
        if i < 0:
            i += n
        k = 0
        while self.offsets[k + 1] <= i:
            k += 1
        # Lexicographic rank r of a k-subset c_1 < ... < c_k satisfies
        # C(p, k) - 1 - r = sum_i C(p - 1 - c_i, k - i + 1); peel the
        # terms off greedily, largest first.
        rest = math.comb(self.p, k) - 1 - (i - self.offsets[k])
        members = []
        top = self.p - 1
        for j in range(k, 0, -1):
            while math.comb(top, j) > rest:
                top -= 1
            rest -= math.comb(top, j)
            members.append(self.p - 1 - top)
            top -= 1
        return ModelId.linear(members, intercept=self.intercept)

    def position(self, m):
        """Position of model m, or None when m is not in this space."""
        if not isinstance(m, ModelId) or m.kind != LINEAR or \
                m.intercept != self.intercept:
            return None
        members = m.members
        if m.d != len(members) + self.intercept or \
                not all(isinstance(j, (int, np.integer)) for j in members) or \
                any(a >= b for a, b in zip(members, members[1:])) or \
                (members and (members[0] < 0 or members[-1] >= self.p)):
            return None
        k = len(members)
        rest = sum(math.comb(self.p - 1 - int(c), k - i)
                   for i, c in enumerate(members))
        return self.offsets[k] + math.comb(self.p, k) - 1 - rest

    def __contains__(self, m):
        return self.position(m) is not None

    def __repr__(self):
        return f"LinearSubsets(p={self.p}, intercept={self.intercept})"

    def blocks(self):
        """(k, positions, index) per subset size k: the slice of
        positions holding the size-k subsets and their covariate indices
        as a C(p, k) x k integer array, rows in canonical order."""
        for k in range(self.p + 1):
            count = self.offsets[k + 1] - self.offsets[k]
            flat = chain.from_iterable(combinations(range(self.p), k))
            index = np.fromiter(flat, dtype=np.intp, count=count * k)
            yield k, slice(self.offsets[k], self.offsets[k + 1]), \
                index.reshape(count, k)

    @cached_property
    def d(self):
        """Parameter count of every model, intercept included."""
        sizes = np.diff(self.offsets)
        return np.repeat(np.arange(self.p + 1), sizes) + int(self.intercept)

    @cached_property
    def member(self):
        """0/1 membership matrix: one row per model, one column per
        covariate."""
        out = np.zeros((len(self), self.p))
        for _, rows, index in self.blocks():
            out[np.arange(rows.start, rows.stop)[:, None], index] = 1.0
        return out


def enumerate_linear_models(p, include_intercept=True):
    """All 2^p covariate subsets in canonical order (dimension, then
    lexicographic members), as a list: see LinearSubsets. Hard cap
    p <= 25; larger spaces need the sampler."""
    return list(LinearSubsets(p, intercept=include_intercept))


def enumerate_hierarchical_models(spec):
    """All hierarchical term sets containing the forced terms, drawn from
    forced plus candidate terms, in ModelId.sort_key order. The sets are
    grown term by term, not filtered from all 2^T candidate subsets."""
    allowed = set(spec.forced_terms) | set(spec.candidate_terms)
    for t in sorted(allowed, key=spec.term_sort_key):
        missing = [s for s in term_margins(t) if s not in allowed]
        if missing:
            raise SpecificationError(
                f"term {_term_label(t)} requires margin "
                f"{_term_label(missing[0])} which is neither forced nor "
                "candidate")
    # Candidates come smallest first, so a term's candidate margins are
    # decided before it: a set that lacks one never gains it later.
    sets = [frozenset(spec.forced_terms)]
    for t in spec.candidate_terms:
        margins = term_margins(t)
        sets += [s | {t} for s in sets if s.issuperset(margins)]
    return sorted((ModelId.loglinear(spec, s) for s in sets
                   if is_hierarchical(s)), key=ModelId.sort_key)


@dataclass(frozen=True)
class Baseline:
    """Baseline model probability rule p(m), stored in log form.

    kinds: constant; dimension (log p = d * log_weight); calibrated
    (log p = (d/2)(log n0 - psi0) with n0, psi0 frozen constants, never
    the live sample size); table (explicit log p per model).
    """

    kind: str = "constant"
    log_weight: float = 0.0
    n0: float = 0.0
    psi0: float = 0.0
    table: tuple = ()

    @classmethod
    def constant(cls):
        return cls(kind="constant")

    @classmethod
    def dimension(cls, log_weight):
        log_weight = float(log_weight)
        if not math.isfinite(log_weight):
            raise SpecificationError("per-dimension log weight must be finite")
        return cls(kind="dimension", log_weight=log_weight)

    @classmethod
    def calibrated(cls, n0, psi0):
        n0, psi0 = float(n0), float(psi0)
        if not (math.isfinite(n0) and math.isfinite(psi0)):
            raise SpecificationError(
                f"calibrated baseline needs finite n0 and psi0; got "
                f"n0={n0}, psi0={psi0}")
        calibrate_p(0, n0, psi0)
        return cls(kind="calibrated", n0=n0, psi0=psi0)

    @classmethod
    def from_table(cls, log_p_by_model):
        items = tuple(sorted(log_p_by_model.items(),
                             key=lambda kv: kv[0].sort_key()))
        for m, v in items:
            if not math.isfinite(float(v)):
                raise SpecificationError(f"log p({m.label()}) must be finite")
        return cls(kind="table", table=items)

    def log_p(self, m):
        """log p of one model m, or of every model of a LinearSubsets
        space m as an array: a table model by model, any other rule in one
        evaluation over m.d. A rule that overflows at some d of the
        space is a NumericalDomainError."""
        if self.kind == "table":
            if isinstance(m, LinearSubsets):
                return np.array([self.log_p(model) for model in m])
            try:
                return float(self._table_index[m])
            except KeyError:
                raise ContractError(f"model {m.label()} missing from "
                                    "baseline table") from None
        with np.errstate(over="ignore"):
            if self.kind == "constant":
                log_p = m.d * 0.0
            elif self.kind == "dimension":
                log_p = m.d * self.log_weight
            elif self.kind == "calibrated":
                log_p = calibrate_p(m.d, self.n0, self.psi0)
            else:
                raise SpecificationError(f"unknown baseline kind {self.kind!r}")
        if not np.all(np.isfinite(log_p)):
            raise NumericalDomainError(
                f"the {self.kind} baseline's log p(m) overflows at "
                f"d = {np.max(m.d)}")
        return log_p

    @cached_property
    def _table_index(self):
        # Reversed, so the first entry for a model wins, as in a scan.
        return dict(reversed(self.table))


@dataclass(frozen=True)
class ModelPriorPolicy:
    variant: str
    baseline: Baseline = field(default_factory=Baseline.constant)

    def __post_init__(self):
        if self.variant not in POLICY_VARIANTS:
            raise SpecificationError(
                f"unknown policy variant {self.variant!r}; "
                f"expected one of {POLICY_VARIANTS}")

    def with_variant(self, variant):
        """Same baseline, different adjustment variant."""
        return ModelPriorPolicy(variant=variant, baseline=self.baseline)


def calibrate_p(d, n0, psi0):
    """log p(m) = (d/2)(log n0 - psi0).

    Choosing psi0 = log n0 recovers a flat baseline (BIC behavior);
    psi0 = 2 mimics the AIC penalty at reference size n0.
    """
    if n0 < 2:
        raise SpecificationError(f"reference sample size must be >= 2, got {n0}")
    if psi0 <= 0:
        raise SpecificationError(f"penalty value must be positive, got {psi0}")
    return 0.5 * d * (math.log(n0) - psi0)


def _log_weights(policy, models, c2, logdet):
    """The table above for one model, or every model of a LinearSubsets
    space: baseline log p(m) plus the variant's adjustment at dispersion
    c2 (None without a parameter prior). Only the INFO_VARIANTS call
    logdet(exact), for log|V| + log|i|, or log|V| + log|i + V^{-1}/n| when
    exact; loglinear_adjusted is adjusted_info with i = X'Diag(l0)X / n."""
    log_p = policy.baseline.log_p(models)
    variant = policy.variant
    if variant == "uniform":
        return log_p
    if c2 is None:
        raise ContractError(f"policy {variant!r} requires a parameter prior")
    if variant == "adjusted_c":
        return log_p + models.d * 0.5 * math.log(c2)
    return log_p + 0.5 * logdet(variant == "adjusted_exact")


def log_prior_model_weight(m, policy, prior=None, info=None):
    """Unnormalized log prior weight of model m under a policy.

    prior supplies V = c^2 Sigma (needed by the adjusted variants); info
    supplies the unit information matrix i and the sample size (needed by
    the INFO_VARIANTS), both of m's dimension. Determinants are evaluated
    in log space through the shared factorization kernel.
    """
    def logdet(exact):
        if info is None:
            raise ContractError(
                f"policy {policy.variant!r} requires an information source")
        _, v_inv, ld_v, _ = _factor_prior(prior, m.d)
        mat = info.matrix()
        if len(mat) != m.d:
            raise ContractError(f"likelihood dimension {m.d} does not match "
                                f"information dimension {len(mat)}")
        if exact:
            return ld_v + chol_logdet(mat + v_inv / info.n,
                                      "i + n^{-1}V^{-1}")
        return ld_v + info.logdet()
    return _log_weights(policy, m, None if prior is None else prior.c2,
                        logdet)
