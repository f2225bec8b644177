"""Small Poisson tables with their hierarchical model spaces and
term-block priors, shared by the sampler and Laplace tests."""
import numpy as np

from jointbma.glm_laplace import ContingencyTable, build_design, \
    term_block_prior
from jointbma.model_space import FactorSpec, ModelId, \
    enumerate_hierarchical_models


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
