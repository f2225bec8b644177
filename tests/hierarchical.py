"""The hierarchical enumeration as a plain filter over every subset of
the candidate terms, for the tests to hold the grown enumeration
against."""
from itertools import combinations

from jointbma.model_space import ModelId, is_hierarchical


def filtered_hierarchical_models(spec):
    """Every subset of spec's candidate terms joined to its forced terms,
    kept when closed under margins, as ModelIds in ModelId.sort_key
    order: 2^T hierarchy tests for T candidates."""
    cand = list(spec.candidate_terms)
    models = []
    for k in range(len(cand) + 1):
        for extra in combinations(cand, k):
            terms = set(spec.forced_terms) | set(extra)
            if is_hierarchical(terms):
                models.append(ModelId.loglinear(spec, terms))
    models.sort(key=ModelId.sort_key)
    return models
