"""Bayesian model averaging with jointly specified model and parameter
priors.

The model prior is tied to the parameter prior's dispersion so that
widening a slab does not mechanically hand posterior mass to smaller
models: the weight of model m is p(m) c_m^{d_m} (or a matrix-aware
refinement of it), normalized over the space. The package covers exact
conjugate normal linear models, Laplace-approximated Poisson log-linear
models on contingency tables, posterior sampling across model spaces,
leave-one-out predictive scores, and the two-model shrinkage analysis
that makes the paradox visible.

Core entry points are re-exported here; the command line lives in
jointbma.cli and the config grammar in jointbma.config.
"""

from ._linalg import log_sum_exp
from .exceptions import CapacityError, ContractError, ConvergenceError, \
    DegenerateDataError, JointBmaError, NumericalDomainError, ParseError, \
    SpecificationError
from .model_space import Baseline, FactorSpec, LinearSubsets, ModelId, \
    ModelPriorPolicy, POLICY_VARIANTS, calibrate_p, \
    enumerate_hierarchical_models, enumerate_linear_models, \
    log_prior_model_weight
from .param_priors import InformationSource, ParamPrior, TermBlock, \
    blockwise_prior, fisher_info_poisson, gprior_base, linear_design, \
    log_prior_density, prior_for_linear_model, unit_information_count
from .averaging import KPolicy, LogMarginal, ModelPosterior, \
    ShrinkageCurve, embed_linear_mean, inclusion_probs, \
    model_averaged_mean, neighborhood_prior_prob, normalize_posterior, \
    posterior_mean_expansion, shrinkage_curve, term_inclusion_probs
from .linear_exact import AllSubsets, CvScore, LinearDataset, \
    LinearPosterior, SweepResult, all_subsets_stats, cv_score, \
    cv_score_from_lpd, gprior_log_marginals, gprior_sweep, \
    log_marginal_gprior_closed, log_marginal_nig, loo_log_predictives, \
    loo_predictive_exact, posterior_moments, sample_joint_posterior
from .glm_laplace import ContingencyTable, build_design, fit_map_poisson, \
    fit_mle_poisson, log_marginal_laplace, term_block_prior, \
    unit_info_for_model
from .rj_sampler import ModelProbEstimate, RjChain, SamplerConfig, \
    batch_means_se, chain_to_csv, estimate_model_probs, rjmcmc_run
from .datasets import load_contingency_csv, load_linear_csv, simulate_dfn, \
    simulate_nott_kohn, write_linear_csv
from .config import ExperimentConfig, load_config

__version__ = "0.1.0"

__all__ = [
    "AllSubsets",
    "Baseline",
    "CapacityError",
    "ContingencyTable",
    "ContractError",
    "ConvergenceError",
    "CvScore",
    "DegenerateDataError",
    "ExperimentConfig",
    "FactorSpec",
    "InformationSource",
    "JointBmaError",
    "KPolicy",
    "LinearDataset",
    "LinearPosterior",
    "LinearSubsets",
    "LogMarginal",
    "ModelId",
    "ModelPosterior",
    "ModelPriorPolicy",
    "ModelProbEstimate",
    "NumericalDomainError",
    "POLICY_VARIANTS",
    "ParamPrior",
    "ParseError",
    "RjChain",
    "SamplerConfig",
    "ShrinkageCurve",
    "SpecificationError",
    "SweepResult",
    "TermBlock",
    "all_subsets_stats",
    "batch_means_se",
    "chain_to_csv",
    "blockwise_prior",
    "build_design",
    "calibrate_p",
    "cv_score",
    "cv_score_from_lpd",
    "embed_linear_mean",
    "enumerate_hierarchical_models",
    "enumerate_linear_models",
    "estimate_model_probs",
    "fisher_info_poisson",
    "fit_map_poisson",
    "fit_mle_poisson",
    "gprior_base",
    "gprior_log_marginals",
    "gprior_sweep",
    "inclusion_probs",
    "linear_design",
    "load_config",
    "load_contingency_csv",
    "load_linear_csv",
    "log_marginal_gprior_closed",
    "log_marginal_laplace",
    "log_marginal_nig",
    "log_prior_density",
    "log_prior_model_weight",
    "log_sum_exp",
    "loo_log_predictives",
    "loo_predictive_exact",
    "model_averaged_mean",
    "neighborhood_prior_prob",
    "normalize_posterior",
    "posterior_mean_expansion",
    "posterior_moments",
    "prior_for_linear_model",
    "rjmcmc_run",
    "sample_joint_posterior",
    "shrinkage_curve",
    "simulate_dfn",
    "simulate_nott_kohn",
    "term_block_prior",
    "term_inclusion_probs",
    "unit_info_for_model",
    "unit_information_count",
    "write_linear_csv",
]
