"""Output checks: each workload's result table against a second route.

The linear references are computed here with numpy from the generated
data, not with the package's routines: subset_rss fits every subset by
a batched QR of its raw columns, and gprior_log_marginals applies the
closed form to those residual sums of squares.

- sweep-p15: that g-prior posterior at each c2 and policy, and its
  inclusion probabilities, at SWEEP_RTOL relative and SWEEP_ATOL
  absolute; the top rows must be the most probable models.
- cv-p6: this file's own closed-form leave-one-out score (the LOO via
  leverage identity), at CV_RTOL relative.
- RJ workloads: the enumerated posterior (the package's
  log_marginal_laplace plus normalize_posterior on the log-linear space;
  the g-prior posterior above with adjusted_info weights on the linear
  space); every model with exact mass of at least RJ_MIN_MASS, and every
  model the chain reports, must satisfy
  |freq - exact| <= RJ_SE_MULTIPLE * se + RJ_ATOL, where se is the
  batch-means standard error the program reports. Over seeds 1-20 of
  both RJ workloads the largest multiple this needed was 2.4 (the
  largest plain |freq - exact| / se was 3.1).

A check returns a list of problems; an empty list is a pass.
"""
import itertools
from math import lgamma, log, pi

import numpy as np

# Subsets per batched QR in subset_rss; keeps each array near 13 MB.
QR_BATCH = 2048
SWEEP_RTOL = 1e-9
SWEEP_ATOL = 1e-12
CV_RTOL = 1e-9
RJ_SE_MULTIPLE = 5.0
RJ_ATOL = 0.005
RJ_MIN_MASS = 0.01
SUM_ATOL = 1e-9


def _close(a, b, rtol, atol):
    return abs(a - b) <= atol + rtol * abs(b)


def _rows_by(table, column):
    pos = table["columns"].index(column)
    out = {}
    for row in table["rows"]:
        out.setdefault(row[pos], []).append(row)
    return out


def check_sweep(table, inputs, expected_grid, policies, top_k, watch):
    """Top-k, watch and inclusion rows against this file's g-prior
    posterior (subset_rss and gprior_log_marginals).

    At each policy and c2 the table must hold exactly min(top_k, 2^p)
    distinct model rows, each at least the k-th largest exact probability
    (less SWEEP_ATOL) and none below a model it leaves out; one row per
    watch model; and one inclusion row per covariate."""
    p = inputs.X.shape[1]
    subsets, d, rss = subset_rss(inputs.X, inputs.y)
    labels = [model_label(cols) for cols in subsets]
    index = {label: pos for pos, label in enumerate(labels)}
    member = np.zeros((len(subsets), p))
    for pos, cols in enumerate(subsets):
        member[pos, list(cols)] = 1.0
    k = min(top_k, len(subsets))
    n, yty = inputs.y.shape[0], float(inputs.y @ inputs.y)
    problems = []
    grid = sorted({row[1] for row in table["rows"]})
    if len(grid) != len(expected_grid) or not np.allclose(
            grid, expected_grid, rtol=SWEEP_RTOL, atol=0.0):
        problems.append(f"c2 grid {grid} is not "
                        f"{[float(v) for v in expected_grid]}")
    by_policy = _rows_by(table, "policy")
    if sorted(by_policy) != sorted(policies):
        problems.append(f"policies {sorted(by_policy)}, expected "
                        f"{sorted(policies)}")
    per_point = k + len(watch) + p
    if len(table["rows"]) != len(by_policy) * len(grid) * per_point:
        problems.append(f"{len(table['rows'])} rows, expected {per_point} "
                        f"per policy and c2")
    for policy, rows in by_policy.items():
        for c2 in grid:
            log_w = gprior_log_marginals(n, yty, d, rss, c2) \
                + model_log_weights(policy, d, c2)
            probs = np.exp(log_w - _lse(log_w))
            kth = np.sort(probs)[::-1][k - 1]
            at = [r for r in rows if r[1] == c2]
            where = f"{policy} c2={c2:g}"
            top = [r for r in at if r[2] == "model"]
            top_labels = {r[3] for r in top}
            if len(top) != k or len(top_labels) != k:
                problems.append(f"{where}: {len(top)} model rows with "
                                f"{len(top_labels)} distinct labels, "
                                f"expected {k}")
            for _, _, _, label, value in top:
                ref = probs[index[label]] if label in index else None
                if ref is None or not _close(value, ref, SWEEP_RTOL,
                                             SWEEP_ATOL):
                    problems.append(f"{where} model {label}: "
                                    f"{value!r} vs {ref!r}")
                elif ref < kth - SWEEP_ATOL:
                    problems.append(f"{where} model {label} is not among "
                                    f"the top {k}")
            left_out = np.ones(len(labels), dtype=bool)
            left_out[[index[lb] for lb in top_labels if lb in index]] = False
            if top and left_out.any() and probs[left_out].max() > \
                    min(r[4] for r in top) + SWEEP_ATOL:
                problems.append(f"{where}: a model left out of the top rows "
                                "is more probable than one listed")
            watched = [r for r in at if r[2] == "watch"]
            if sorted(r[3] for r in watched) != sorted(watch):
                problems.append(f"{where}: watch rows "
                                f"{[r[3] for r in watched]}, expected "
                                f"{list(watch)}")
            for _, _, _, label, value in watched:
                ref = probs[index[label]] if label in index else None
                if ref is None or not _close(value, ref, SWEEP_RTOL,
                                             SWEEP_ATOL):
                    problems.append(f"{where} watch {label}: "
                                    f"{value!r} vs {ref!r}")
            inclusion = probs @ member
            got = [r[4] for r in at if r[2] == "inclusion"]
            if len(got) != p:
                problems.append(f"{where}: {len(got)} inclusion rows for "
                                f"p={p}")
                continue
            for j, (value, ref) in enumerate(zip(got, inclusion.tolist())):
                if not _close(value, ref, SWEEP_RTOL, SWEEP_ATOL):
                    problems.append(f"{where} inclusion x{j + 1}: "
                                    f"{value!r} vs {ref!r}")
    if not table["rows"]:
        problems.append("empty sweep table")
    return problems


def _subsets(p):
    """All covariate subsets, each with the intercept, smallest first."""
    return [cols for k in range(p + 1)
            for cols in itertools.combinations(range(p), k)]


def model_label(cols):
    """The program's label of the intercept model with covariates cols."""
    return "+".join(["1"] + [f"X{j + 1}" for j in cols])


def subset_rss(X, y):
    """(subsets, d, RSS) of every intercept-containing subset in _subsets
    order, from raw columns with a batched QR per subset size: RSS is the
    squared norm of y minus its projection on [1, X_m]."""
    n, p = X.shape
    subsets = _subsets(p)
    d = np.array([len(cols) + 1.0 for cols in subsets])
    rss = []
    for k in range(p + 1):
        group = [cols for cols in subsets if len(cols) == k]
        idx = np.array(group, dtype=int).reshape(len(group), k)
        for lo in range(0, idx.shape[0], QR_BATCH):
            part = idx[lo:lo + QR_BATCH]
            design = np.concatenate(
                [np.ones((part.shape[0], n, 1)),
                 X[:, part].transpose(1, 0, 2)], axis=2)
            q = np.linalg.qr(design).Q
            resid = y - np.einsum("mik,mk->mi", q,
                                  np.einsum("mik,i->mk", q, y))
            rss.append(np.einsum("mi,mi->m", resid, resid))
    return subsets, d, np.concatenate(rss)


def gprior_log_marginals(n, yty, d, rss, c2):
    """Closed-form log marginals under the g-prior mu = 0,
    V = c2 n (X_m'X_m)^{-1} with the improper sigma^2 reference:
    -(n/2) log pi + lgamma(n/2) - (d/2) log(1 + n c2) - (n/2) log s, where
    s = y'y / (1 + n c2) + n c2 / (1 + n c2) RSS."""
    nc2 = n * c2
    s = yty / (1.0 + nc2) + nc2 / (1.0 + nc2) * rss
    return (-0.5 * n * log(pi) + lgamma(0.5 * n) - 0.5 * d * np.log1p(nc2)
            - 0.5 * n * np.log(s))


def model_log_weights(policy, d, c2):
    """Log prior model weights up to a constant. With the g-prior both
    adjusted policies weigh a model by (d/2) log c2."""
    if policy == "uniform":
        return np.zeros_like(d)
    if policy in ("adjusted_c", "adjusted_info"):
        return 0.5 * d * log(c2)
    raise ValueError(f"no reference weights for policy {policy!r}")


def _lse(v, axis=None):
    hi = np.max(v, axis=axis, keepdims=True)
    return np.squeeze(hi + np.log(np.sum(np.exp(v - hi), axis=axis,
                                         keepdims=True)), axis=axis)


def cv_score_closed_form(X, y, c2):
    """S = -sum_j log f(y_j | y_-j) averaged over all intercept-containing
    subsets under the g-prior (see gprior_log_marginals; prior held fixed
    across folds) with the adjusted_c model weights (d/2) log c2.

    With P = V^{-1} + X'X, h_j = x_j'P^{-1}x_j and e_j = y_j - x_j'beta~,
    the fold-j predictive is Student-t with 2a = n - 1 degrees of
    freedom, location y_j - e_j/(1 - h_j), and squared scale
    (s - e_j^2/(1 - h_j)) / (n - 1) / (1 - h_j).
    """
    n = y.shape[0]
    yty = float(y @ y)
    subsets, d, rss = subset_rss(X, y)
    log_w = gprior_log_marginals(n, yty, d, rss, c2) \
        + model_log_weights("adjusted_c", d, c2)
    lpd = []
    nu = n - 1.0
    t_head = lgamma(0.5 * (nu + 1.0)) - lgamma(0.5 * nu) - 0.5 * log(nu * pi)
    for cols in subsets:
        Xm = np.hstack([np.ones((n, 1)), X[:, list(cols)]])
        gram = Xm.T @ Xm
        P_inv = np.linalg.inv(gram / (c2 * n) + gram)
        b = Xm.T @ y
        beta = P_inv @ b
        s = yty - float(beta @ b)
        h = np.einsum("ij,jk,ik->i", Xm, P_inv, Xm)
        e = y - Xm @ beta
        s_minus = s - e * e / (1.0 - h)
        scale2 = s_minus / nu / (1.0 - h)
        r = e / (1.0 - h)
        lpd.append(t_head - 0.5 * np.log(scale2)
                   - 0.5 * (nu + 1.0) * np.log1p(r * r / (nu * scale2)))
    lpd = np.array(lpd)
    per_obs = _lse(log_w) - _lse(log_w[:, None] - lpd, axis=0)
    return float(-np.sum(per_obs))


def check_cv(table, inputs, c2):
    rows = table["rows"]
    if len(rows) != 1:
        return [f"expected one cv row, got {len(rows)}"]
    _, row_c2, score = rows[0]
    if row_c2 != c2:
        return [f"cv row at c2={row_c2!r}, expected {c2!r}"]
    ref = cv_score_closed_form(inputs.X, inputs.y, c2)
    if not _close(score, ref, CV_RTOL, 0.0):
        return [f"S = {score!r}, closed form gives {ref!r}"]
    return []


def exact_loglinear_posterior(inputs, cfg, lib):
    """Laplace-enumerated posterior over the config's hierarchical space."""
    table = lib.ContingencyTable(spec=cfg.space, counts=inputs.counts)
    models = lib.enumerate_hierarchical_models(cfg.space)
    marginals = [lib.log_marginal_laplace(
        table, m, lib.term_block_prior(table, m, cfg.prior.scales,
                                       metric=cfg.prior.metric,
                                       means=cfg.prior.means,
                                       c2=cfg.prior.c2))
        for m in models]
    post = lib.normalize_posterior(models, marginals)
    return {m.label(): p for m, p in zip(post.models, post.probs)}


def exact_linear_posterior(inputs, c2):
    """Enumerated g-prior posterior with adjusted_info weights."""
    subsets, d, rss = subset_rss(inputs.X, inputs.y)
    log_w = gprior_log_marginals(inputs.y.shape[0], float(inputs.y @ inputs.y),
                                 d, rss, c2) \
        + model_log_weights("adjusted_info", d, c2)
    probs = np.exp(log_w - _lse(log_w))
    return {model_label(cols): float(q) for cols, q in zip(subsets, probs)}


def check_rj(table, exact):
    """Chain frequencies against the enumerated posterior."""
    problems = []
    got = {row[0]: (row[2], row[3]) for row in table["rows"]}
    total = sum(p for p, _ in got.values())
    if abs(total - 1.0) > SUM_ATOL:
        problems.append(f"chain frequencies sum to {total!r}")
    for label in set(got) | {k for k, v in exact.items() if v >= RJ_MIN_MASS}:
        if label not in exact:
            problems.append(f"chain visited {label}, not in the space")
            continue
        freq, se = got.get(label, (0.0, 0.0))
        if abs(freq - exact[label]) > RJ_SE_MULTIPLE * se + RJ_ATOL:
            problems.append(f"{label}: frequency {freq:.4f} (se {se:.4f}) "
                            f"vs exact {exact[label]:.4f}")
    return problems


def top_model_ess(table, exact):
    """p(1-p)/se^2 for the indicator of the model with the highest exact
    posterior probability; None when the chain gives no usable se."""
    label = max(exact, key=exact.get)
    for row in table["rows"]:
        if row[0] == label and row[3] > 0.0:
            p = row[2]
            return p * (1.0 - p) / row[3] ** 2
    return None

