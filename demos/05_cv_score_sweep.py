"""Leave-one-out predictive scores as a sanity check on the prior.

A collinear surrogate design is built around the two signal columns of
the sparse-regression example: each gains two noisy copies (correlation
above 0.9), so many near-equivalent models compete. The score
S = -sum_j log f(y_j | y_-j) under the model-averaged predictive is
then tracked across slab variances. With a flat model prior the score
degrades as c^2 grows (the average drifts toward the null); with the
adjusted prior it barely moves. The Gelfand-Dey style estimator from
posterior draws is checked against the exact score at one grid point.

Run: python demos/05_cv_score_sweep.py
"""

import numpy as np

from jointbma import (LinearDataset, ModelPriorPolicy, all_subsets_stats,
                      cv_score, cv_score_from_lpd, gprior_sweep,
                      loo_log_predictives, prior_for_linear_model,
                      simulate_dfn)


def score_paths(data, grid, variants):
    """Each variant's exact score along grid. The per-model predictives
    depend on c^2 but not on the model prior, so every variant re-weights
    one leave-one-out matrix per grid point."""
    stats = all_subsets_stats(data)
    sweeps = [gprior_sweep(stats, grid, ModelPriorPolicy(variant=v))
              for v in variants]
    models = list(stats.models)
    paths = [[] for _ in variants]
    for i, c2 in enumerate(grid):
        priors = {m: prior_for_linear_model(data.X, m, c2) for m in models}
        lpd = loo_log_predictives(models, data, priors)
        for path, sweep in zip(paths, sweeps):
            path.append(cv_score_from_lpd(sweep.posterior_at(i), lpd,
                                          "exact").total)
    return paths


def main():
    base = simulate_dfn(seed=0)
    rng = np.random.Generator(np.random.Philox(80))
    x4, x5 = base.X[:, 3], base.X[:, 4]
    X = np.column_stack([x4, x5,
                         x4 + 0.35 * rng.standard_normal(50),
                         x4 + 0.35 * rng.standard_normal(50),
                         x5 + 0.35 * rng.standard_normal(50),
                         x5 + 0.35 * rng.standard_normal(50)])
    data = LinearDataset(y=base.y, X=X)

    grid = [1e2, 1e4, 1e6, 1e8]
    flat, adjusted = score_paths(data, grid, ("uniform", "adjusted_c"))

    print("leave-one-out score S (lower is better)\n")
    print(f"{'c^2':>8} {'flat prior':>11} {'adjusted':>9}")
    for c2, a, b in zip(grid, flat, adjusted):
        print(f"{c2:8.0e} {a:11.3f} {b:9.3f}")

    sweep = gprior_sweep(data, [1e4], ModelPriorPolicy(variant="adjusted_c"))
    post = sweep.posterior_at(0)
    priors = {m: prior_for_linear_model(X, m, 1e4) for m in post.models}
    draws = cv_score(post, data, priors, mode="gelfand",
                     rng=np.random.Generator(np.random.Philox(7)),
                     num_draws=20000).total
    print(f"\nat c^2 = 1e4: exact S {adjusted[1]:.3f}, "
          f"posterior-draw estimate {draws:.3f}")


if __name__ == "__main__":
    main()
