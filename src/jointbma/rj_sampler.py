"""Reversible-jump sampling over model space.

Across-model moves pick a neighbor uniformly (models differing by one
selectable member, covariate or term) and redraw the whole coefficient
vector from that model's Laplace proposal N(mode, (V^{-1} - H)^{-1}).
Redrawing everything makes the dimension match trivial and the Jacobian
identity; the acceptance ratio carries the proposal densities in both
directions and the neighbor-count ratio. Within-model moves are a
Gaussian random walk scaled by the Laplace standard deviations. A
model's neighbors are formed on its first visit or proposal.

The joint chain forms everything per model once per run: the prior's
inverse factor L_V^{-1}, the Laplace mode, the proposal's factor L and
L^{-T}, and the random-walk scales. An iteration then does matmuls
only. A jump's proposal is mode + L^{-T} z with z standard normal, so
its log density is -(c + z'z)/2 from the draw itself; the current
state's density is kept until a within-model move changes it. Each
iteration evaluates one log target, the proposal's: the prior quadratic
form plus the log-likelihood.

Normal linear spaces never need the joint chain: (beta, sigma^2)
integrate out exactly, so the sampler collapses to a Metropolized walk
on the model graph with exact marginal likelihoods, and coefficient
draws are reconstructed conjugately afterwards when wanted.

Randomness comes from numpy's counter-based Philox generator, so runs
are reproducible from the seed alone regardless of how many draws each
iteration consumes.
"""
import csv
from dataclasses import dataclass
from functools import cached_property
import math

import numpy as np

from ._linalg import chol_solve, factor_logdet, inv_factor
from .exceptions import ContractError
from .glm_laplace import ContingencyTable, PoissonLogLinear, _map_laplace, \
    unit_info_for_model
from .linear_exact import LinearDataset, log_marginal_nig
from .model_space import INFO_VARIANTS, FactorSpec, LinearSubsets, \
    log_prior_model_weight, model_lookup
from .param_priors import InformationSource, _log_density_factored, \
    linear_design

__all__ = [
    "SamplerConfig",
    "RjChain",
    "ModelProbEstimate",
    "rjmcmc_run",
    "estimate_model_probs",
    "rwm_step",
    "batch_means_se",
    "chain_to_csv",
]

# Cap on the models x batches visit-count block estimate_model_probs
# holds at once. Blocks of 64 KiB stay on reused heap pages: one block
# per chain raised the CLI's peak RSS by 2 MB on a 4096-model space.
BATCH_MEANS_CELLS = 1 << 13


@dataclass(frozen=True)
class SamplerConfig:
    iterations: int
    burn_in: int = 0
    thin: int = 1
    seed: int = 0
    jump_prob: float = 0.5
    within_model_scale: float = 1.0
    start_index: int = 0
    store_coefficients: bool = False

    def __post_init__(self):
        if self.iterations < 1:
            raise ContractError(f"iterations must be >= 1, got {self.iterations}")
        if not 0 <= self.burn_in < self.iterations:
            raise ContractError(
                f"burn_in must lie in [0, iterations), got {self.burn_in}")
        if self.thin < 1:
            raise ContractError(f"thin must be >= 1, got {self.thin}")
        if not 0.0 <= self.jump_prob <= 1.0:
            raise ContractError(
                f"jump_prob must lie in [0, 1], got {self.jump_prob}")
        if not 0.0 < self.within_model_scale < math.inf:
            raise ContractError(
                "within_model_scale must be positive and finite")
        if self.start_index < 0:
            raise ContractError("start_index must be nonnegative")


@dataclass(frozen=True)
class RjChain:
    """Raw sampler output: one model index per iteration, burn-in
    included; estimate_model_probs applies burn-in and thinning."""

    models: tuple
    model_index: np.ndarray
    log_target: np.ndarray
    config: SamplerConfig
    kind: str
    attempt_jump: int
    accept_jump: int
    attempt_within: int
    accept_within: int
    coefficients: tuple = None

    def jump_rate(self):
        return self.accept_jump / max(self.attempt_jump, 1)

    def within_rate(self):
        return self.accept_within / max(self.attempt_within, 1)


@dataclass(frozen=True)
class ModelProbEstimate:
    """Posterior model probabilities with batch-means standard errors.
    Unvisited models report probability 0 with standard error 0, which
    understates uncertainty; treat zeros as 'not seen', not 'excluded'."""

    models: tuple
    probs: np.ndarray
    se: np.ndarray
    n_kept: int
    batch_length: int

    def prob_of(self, m):
        return float(self.probs[self._position(m)])

    @cached_property
    def _position(self):
        return model_lookup(self.models, "sampler")


def rwm_step(log_target, beta, value, step_sd, rng):
    """One Gaussian random-walk Metropolis step. Returns the new point,
    its log target, and whether the proposal was accepted."""
    d = beta.shape[0]
    if d == 0:
        return beta, value, True
    proposal = beta + step_sd * rng.standard_normal(d)
    new_value = log_target(proposal)
    if math.log(rng.random()) < new_value - value:
        return proposal, new_value, True
    return beta, value, False


def batch_means_se(series):
    """Batch-means standard error of the series mean, batch length
    floor(sqrt(T)). Returns (mean, se, batch_length); series shorter
    than 4 points get se = inf since no batching is meaningful."""
    x = np.asarray(series, dtype=float)
    t = x.shape[0]
    if t < 4:
        return (float(np.mean(x)) if t else math.nan), math.inf, 0
    length = int(math.isqrt(t))
    count = t // length
    trimmed = x[:count * length].reshape(count, length)
    bm = trimmed.mean(axis=1)
    mean = float(np.mean(x))
    se = float(np.sqrt(np.sum((bm - trimmed.mean()) ** 2)
                       / (count * (count - 1))))
    return mean, se, length


class _Neighbors(dict):
    """neighbors[i] is (positions, log count): the models one member
    toggle away from models[i], in toggle order, and the log of their
    number (0.0 for none), formed on the first lookup of i."""

    def __init__(self, masks, bits, where):
        super().__init__()
        self.masks, self.bits, self.where = masks, bits, where

    def __missing__(self, i):
        mask = self.masks[i]
        nbr = tuple(pos for pos in map(self.where.get,
                                       [mask ^ b for b in self.bits])
                    if pos is not None)
        entry = self[i] = nbr, math.log(len(nbr)) if nbr else 0.0
        return entry


def _walk(models, config):
    """A chain's random stream and _Neighbors, which forms a model's
    neighbors from its bitmask of non-shared members on its first visit
    or proposal. Toggles go in repr order of their member, so covariate
    10 precedes 2; a toggle that leaves the space is no neighbor."""
    if isinstance(models, LinearSubsets):
        bit = {j: 1 << j for j in range(models.p)}
        masks = np.concatenate([(1 << index).sum(axis=1)
                                for _, _, index in models.blocks()]).tolist()
    else:
        members = [set(m.members) for m in models]
        toggles = set().union(*members) - set.intersection(*members)
        bit = {t: 1 << k for k, t in enumerate(sorted(toggles, key=repr))}
        masks = [sum(bit[t] for t in m.members if t in bit) for m in models]
    where = {}
    for pos, mask in enumerate(masks):
        if where.setdefault(mask, pos) != pos:
            a, b = models[where[mask]], models[pos]
            raise ContractError(
                "duplicate models in sampler space" if a == b else
                f"models {a.label()} and {b.label()} have the same "
                "members; the sampler toggles members only")
    bits = [bit[t] for t in sorted(bit, key=repr)]
    return (np.random.Generator(np.random.Philox(config.seed)),
            _Neighbors(masks, bits, where))


def _policy_weights(models, priors, policy, data):
    """Log prior weight of every model under a policy. The information
    the INFO_VARIANTS need comes from data: a ContingencyTable or a
    FactorSpec (Poisson information at the prior mean) or a
    LinearDataset."""
    needs_info = policy.variant in INFO_VARIANTS
    if needs_info and not isinstance(
            data, (ContingencyTable, FactorSpec, LinearDataset)):
        raise ContractError(
            f"policy {policy.variant!r} needs table or linear data "
            "to derive an information matrix")
    out = np.zeros(len(models))
    for i, m in enumerate(models):
        prior = priors[m]
        info = None
        if needs_info and isinstance(data, LinearDataset):
            info = InformationSource.linear(linear_design(data.X, m))
        elif needs_info:
            info = unit_info_for_model(data, m, beta_ref=prior.mu)
        out[i] = log_prior_model_weight(m, policy, prior=prior, info=info)
    return out


def rjmcmc_run(space, priors, policy, data, config):
    """Sample the joint posterior over (model, parameters).

    space: model list (must be connected under single-member toggles for
    the chain to mix across all of it; a model's neighbors are formed on
    its first visit or proposal). priors: ParamPrior per model.
    data: LinearDataset (collapsed exact path), ContingencyTable
    (Poisson path), or a dict mapping each model to a likelihood object
    for testing the machinery on known targets.
    """
    models = tuple(space)
    if not models:
        raise ContractError("sampler space is empty")
    for m in models:
        if m not in priors:
            raise ContractError(f"no prior supplied for model {m.label()}")
    if config.start_index >= len(models):
        raise ContractError(
            f"start_index {config.start_index} out of range for "
            f"{len(models)} models")
    if isinstance(data, LinearDataset):
        return _run_linear_collapsed(
            models, _linear_log_targets(models, priors, policy, data),
            config)
    if isinstance(data, ContingencyTable):
        likelihoods = {m: PoissonLogLinear(data.design(m).X, data.counts)
                       for m in models}
        kind = "glm"
    elif isinstance(data, dict):
        likelihoods, kind = data, "custom"
    else:
        raise ContractError(
            f"unsupported data object {type(data).__name__}; expected "
            "LinearDataset, ContingencyTable, or a likelihood dict")
    for m in models:
        if m not in likelihoods:
            raise ContractError(f"no likelihood supplied for {m.label()}")
    return _run_joint(models, priors, policy, data, likelihoods, config, kind)


def _linear_log_targets(models, priors, policy, data):
    """Per-model log prior weight plus exact conjugate log marginal."""
    lw = _policy_weights(models, priors, policy, data)
    marginals = [log_marginal_nig(data, m, priors[m]) for m in models]
    conventions = {ml.convention for ml in marginals}
    if len(conventions) > 1:
        raise ContractError(
            "mixed sigma^2 conventions across the space; use one prior "
            "family")
    return lw + np.array([ml.value for ml in marginals])


def _run_linear_collapsed(models, log_targets, config):
    """Metropolized walk on the model graph with fixed per-model log
    targets (log prior weight plus exact log marginal, in models order):
    every iteration proposes a uniformly chosen neighbor, so jump_prob
    and within_model_scale play no part."""
    rng, neighbors = _walk(models, config)
    idx = config.start_index
    trace = np.zeros(config.iterations, dtype=np.int64)
    attempt = accept = 0
    for it in range(config.iterations):
        nbr, log_degree = neighbors[idx]
        if nbr:
            attempt += 1
            prop = nbr[int(rng.integers(len(nbr)))]
            log_alpha = (log_targets[prop] - log_targets[idx]
                         + log_degree - neighbors[prop][1])
            if math.log(rng.random()) < log_alpha:
                idx = prop
                accept += 1
        trace[it] = idx
    return RjChain(models=models, model_index=trace,
                   log_target=log_targets[trace], config=config,
                   kind="linear_collapsed", attempt_jump=attempt,
                   accept_jump=accept, attempt_within=0, accept_within=0)


def _run_joint(models, priors, policy, data, likelihoods, config, kind):
    rng, neighbors = _walk(models, config)
    # Everything a log target or a proposal needs is formed once per run
    # and lives only as long as it does; caching it on ParamPrior would
    # keep a factor alive for every prior a caller holds. The loop then
    # does matmuls only: the prior quadratic form through W_V = L_V^{-1},
    # a proposal draw through L^{-T}. Every model is fitted before the
    # policy prices any, so a prior that cannot be fitted fails in Newton
    # whatever the policy.
    modes, chols, inv_chol_ts, q_consts, step_sds, densities = \
        [], [], [], [], [], []
    for m in models:
        prior = priors[m]
        # The Laplace proposal N(mode, (V^{-1} - H)^{-1}); its standard
        # deviations also scale the within-model random walk.
        fit, L, W_V, const = _map_laplace(likelihoods[m], prior)
        densities.append((prior.mu, W_V, const, likelihoods[m].loglik))
        modes.append(fit.beta)
        chols.append(L)
        inv_chol_ts.append(inv_factor(L).T)
        q_consts.append(prior.d * math.log(2.0 * math.pi) - factor_logdet(L))
        cov = chol_solve(L, np.eye(prior.d))
        step_sds.append(config.within_model_scale * np.sqrt(np.diag(cov)))
    lw = _policy_weights(models, priors, policy, data)
    targets = [_log_target(w, *terms) for w, terms in zip(lw, densities)]

    idx = config.start_index
    beta = modes[idx].copy()
    value = targets[idx](beta)
    # q(beta) of the current state under its own Laplace proposal, or
    # None after a within-model move until the next jump forms it. A
    # proposal's q comes from its draw z: L'(mode + L^{-T} z - mode) is z
    # up to rounding.
    q_value = None

    trace = np.zeros(config.iterations, dtype=np.int64)
    values = np.zeros(config.iterations)
    coef = [] if config.store_coefficients else None
    attempt_jump = accept_jump = attempt_within = accept_within = 0
    # A proposal that overflows (a huge within_model_scale) has a log
    # target of -inf or nan and is rejected without a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(config.iterations):
            nbr, log_degree = neighbors[idx]
            if rng.random() < config.jump_prob and nbr:
                attempt_jump += 1
                prop_idx = nbr[int(rng.integers(len(nbr)))]
                z = rng.standard_normal(modes[prop_idx].shape[0])
                prop_beta = modes[prop_idx] + inv_chol_ts[prop_idx] @ z
                prop_value = targets[prop_idx](prop_beta)
                prop_q = -0.5 * (q_consts[prop_idx] + float(z @ z))
                if q_value is None:
                    u = chols[idx].T @ (beta - modes[idx])
                    q_value = -0.5 * (q_consts[idx] + float(u @ u))
                log_alpha = (prop_value - value + q_value - prop_q
                             + log_degree - neighbors[prop_idx][1])
                if math.log(rng.random()) < log_alpha:
                    idx, beta, value = prop_idx, prop_beta, prop_value
                    q_value = prop_q
                    accept_jump += 1
            else:
                attempt_within += 1
                beta, value, ok = rwm_step(targets[idx], beta, value,
                                           step_sds[idx], rng)
                if ok:
                    accept_within += 1
                    q_value = None
            trace[it] = idx
            values[it] = value
            if coef is not None:
                coef.append(beta.copy())
    return RjChain(models=models, model_index=trace, log_target=values,
                   config=config, kind=kind,
                   attempt_jump=attempt_jump, accept_jump=accept_jump,
                   attempt_within=attempt_within,
                   accept_within=accept_within,
                   coefficients=tuple(coef) if coef is not None else None)


def _log_target(log_weight, mu, W_V, const, loglik):
    """One model's joint log target beta -> log weight + log prior
    density + log-likelihood, from _factor_prior's terms."""
    def target(beta):
        return log_weight + _log_density_factored(beta, mu, W_V, const) \
            + loglik(beta)
    return target


def estimate_model_probs(chain, burn_in=None, thin=None):
    """Visit-frequency estimates of the posterior model probabilities
    with batch-means standard errors on the kept, thinned indicators."""
    if burn_in is None:
        burn_in = chain.config.burn_in
    if thin is None:
        thin = chain.config.thin
    total = chain.model_index.shape[0]
    if not 0 <= burn_in < total:
        raise ContractError(f"burn_in {burn_in} out of range for chain of "
                            f"length {total}")
    if thin < 1:
        raise ContractError(f"thin must be >= 1, got {thin}")
    kept = chain.model_index[burn_in::thin]
    n_kept = kept.shape[0]
    m_count = len(chain.models)
    probs = np.bincount(kept, minlength=m_count) / n_kept
    se = np.zeros(m_count)
    visited = np.unique(kept)
    if n_kept < 4:
        # batch_means_se's rule for series too short to batch.
        se[visited] = math.inf
        batch_length = 0
    else:
        # batch_means_se of every visited model's indicator series at
        # once: the batch means are per-batch visit counts over the batch
        # length, summed along the contiguous axis in numpy's pairwise
        # order. Each kept point of the batched prefix becomes the key
        # model row * count + batch; sorted, the keys of a few models at
        # a time are one slice.
        batch_length = math.isqrt(n_kept)
        count = n_kept // batch_length
        key = np.searchsorted(visited, kept[:count * batch_length])
        key *= count
        key.reshape(count, batch_length)[...] += np.arange(count)[:, None]
        key.sort()
        chunk = max(1, BATCH_MEANS_CELLS // count)
        for lo in range(0, visited.shape[0], chunk):
            hi = min(lo + chunk, visited.shape[0])
            a, b = np.searchsorted(key, (lo * count, hi * count))
            counts = np.bincount(key[a:b] - lo * count,
                                 minlength=(hi - lo) * count)
            counts = counts.reshape(hi - lo, count)
            mean = counts.sum(axis=1) / (count * batch_length)
            bm = counts / batch_length
            se[visited[lo:hi]] = np.sqrt(
                np.sum((bm - mean[:, None]) ** 2, axis=1)
                / (count * (count - 1)))
    return ModelProbEstimate(models=chain.models, probs=probs, se=se,
                             n_kept=n_kept, batch_length=batch_length)


def chain_to_csv(chain, path_or_file):
    """Dump the chain as CSV: iteration, model label, then coefficient
    columns padded with empty fields up to the largest model dimension.
    Coefficient columns appear only when the chain stored coefficients
    (the collapsed linear chain never does)."""
    max_d = max(m.d for m in chain.models) if chain.coefficients else 0
    header = ["iteration", "model"] + [f"b{j + 1}" for j in range(max_d)]

    def write(fh):
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(header)
        for it, idx in enumerate(chain.model_index):
            row = [it, chain.models[idx].label()]
            if chain.coefficients:
                beta = chain.coefficients[it]
                row += [repr(float(b)) for b in beta]
                row += [""] * (max_d - beta.shape[0])
            out.writerow(row)

    if hasattr(path_or_file, "write"):
        write(path_or_file)
    else:
        with open(path_or_file, "w", newline="") as fh:
            write(fh)
