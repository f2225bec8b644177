"""Command-line front end: exit codes, output formats, and round trips.

All invocations run in-process through main(argv) so exit codes and
stdout/stderr are observable without spawning an interpreter; only the
import-footprint check starts a fresh one.
"""
import csv
import itertools
import json
import os
from pathlib import Path
import subprocess
import sys
import warnings

from hypothesis import given, strategies as st
import numpy as np
import pytest

import jointbma
from jointbma import LinearDataset
from jointbma._linalg import log_sum_exp
from jointbma.cli import _top_positions, main
from jointbma.datasets import load_linear_csv, write_linear_csv
from jointbma.exceptions import ConvergenceError, JointBmaError, \
    NumericalDomainError
from jointbma.glm_laplace import term_block_prior, unit_info_for_model
from jointbma.linear_exact import _subset_log_targets, all_subsets_stats, \
    gprior_sweep, log_marginal_nig
from jointbma.model_space import POLICY_VARIANTS, Baseline, FactorSpec, \
    ModelId, ModelPriorPolicy, enumerate_hierarchical_models, \
    enumerate_linear_models, log_prior_model_weight
from jointbma.param_priors import prior_for_linear_model
from jointbma.rj_sampler import SamplerConfig, _linear_log_targets, \
    _policy_weights, _run_linear_collapsed, estimate_model_probs, \
    rjmcmc_run


def small_dataset(seed=4, n=40, p=3):
    rng = np.random.Generator(np.random.Philox(seed))
    X = rng.standard_normal((n, p))
    y = 1.0 + 2.0 * X[:, 0] + rng.standard_normal(n)
    return LinearDataset(y=y, X=X)


def write_config(tmp_path, text, name="exp.ini"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def read_csv_output(text):
    """Split CLI CSV output into (provenance dict, header, data rows)."""
    provenance = {}
    lines = []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            provenance[key] = value
        elif line:
            lines.append(line)
    rows = list(csv.reader(lines))
    return provenance, rows[0], rows[1:]


def test_shrinkage_stdout_and_files(tmp_path, capsys):
    cfg = write_config(tmp_path, (
        "[experiment]\ntask = shrinkage\n\n"
        "[shrinkage]\nn = 10\nbeta_hat = 1\nsigma2 = 1\n"
        "k_policy = fixed\nk0 = 1\ninv_c2_grid = 1e-8,1e-2,9\n"))
    assert main(["shrinkage", "--config", cfg]) == 0
    prov, header, rows = read_csv_output(capsys.readouterr().out)
    assert header == ["inv_c2", "coefficient"]
    assert len(rows) == 9
    assert prov["task"] == "shrinkage"
    assert prov["k_policy"] == "fixed"
    assert len(prov["config_sha256"]) == 64

    stem = str(tmp_path / "curve")
    assert main(["shrinkage", "--config", cfg, "--out", stem]) == 0
    capsys.readouterr()
    csv_text = (tmp_path / "curve.csv").read_text()
    payload = json.loads((tmp_path / "curve.json").read_text())
    assert payload["columns"] == ["inv_c2", "coefficient"]
    _, _, csv_rows = read_csv_output(csv_text)
    # 17-significant-digit cells: the parsed CSV is bitwise equal to JSON.
    for csv_row, json_row in zip(csv_rows, payload["rows"]):
        for text_cell, value in zip(csv_row, json_row):
            assert float(text_cell) == value


def test_out_suffix_stripped_and_reruns_identical(tmp_path, capsys):
    cfg = write_config(tmp_path, (
        "[experiment]\ntask = shrinkage\n\n"
        "[shrinkage]\ninv_c2_grid = 1e-6,1e-2,5\n"))
    out_a = str(tmp_path / "a.csv")
    assert main(["shrinkage", "--config", cfg, "--out", out_a]) == 0
    assert (tmp_path / "a.csv").exists() and (tmp_path / "a.json").exists()
    first = (tmp_path / "a.csv").read_bytes(), (tmp_path / "a.json").read_bytes()

    assert main(["shrinkage", "--config", cfg, "--out", out_a]) == 0
    assert ((tmp_path / "a.csv").read_bytes(),
            (tmp_path / "a.json").read_bytes()) == first

    # The output stem is not part of provenance, so a different stem
    # yields byte-identical content too.
    assert main(["shrinkage", "--config", cfg,
                 "--out", str(tmp_path / "b")]) == 0
    assert (tmp_path / "b.csv").read_bytes() == first[0]
    capsys.readouterr()


def test_sweep_structure(tmp_path, capsys):
    data_path = str(tmp_path / "data.csv")
    write_linear_csv(small_dataset(), data_path)
    cfg = write_config(tmp_path, (
        "[experiment]\ntask = sweep\n\n"
        f"[data]\nsource = csv\npath = {data_path}\n\n"
        "[prior]\ntemplate = gprior\nc2_grid = 1e0,1e4,3\n\n"
        "[policy]\nvariants = uniform, adjusted_c\n\n"
        "[sweep]\ntop_k = 8\nwatch = 1+X1\n"))
    assert main(["sweep", "--config", cfg]) == 0
    prov, header, rows = read_csv_output(capsys.readouterr().out)
    assert header == ["policy", "c2", "record", "label", "value"]
    assert prov["policy"] == "uniform,adjusted_c"
    assert prov["p"] == "3"

    # 2 policies x 3 grid points x (8 model rows + 1 watch + 3 inclusion).
    assert len(rows) == 2 * 3 * (8 + 1 + 3)
    by_kind = {}
    for policy, c2, record, label, value in rows:
        by_kind.setdefault((policy, c2, record), []).append(
            (label, float(value)))
    for (policy, c2, record), entries in by_kind.items():
        values = [v for _, v in entries]
        assert all(-1e-12 <= v <= 1.0 + 1e-12 for v in values)
        if record == "model":
            # top_k=8 covers all 2^3 subsets, so the slice is exhaustive.
            assert abs(sum(values) - 1.0) < 1e-9
        if record == "watch":
            assert [lbl for lbl, _ in entries] == ["1+X1"]
        if record == "inclusion":
            assert [lbl for lbl, _ in entries] == ["x1", "x2", "x3"]

    # The generating covariate dominates inclusion at moderate dispersion.
    x1 = [float(v) for _, c2, rec, lbl, v in rows
          if rec == "inclusion" and lbl == "x1"]
    assert min(x1) > 0.9


@given(st.lists(st.sampled_from([0.0, 1e-300, 0.25, 0.5, 1.0]),
                min_size=1, max_size=40),
       st.integers(0, 40))
def test_top_positions_equal_stable_argsort(values, k):
    # Few distinct values, so ties straddle the k-th place; k runs up to
    # the whole space, as run_sweep caps top_k at the model count.
    probs = np.array(values)
    k = min(k, probs.shape[0])
    assert _top_positions(probs, k).tolist() == \
        np.argsort(-probs, kind="stable")[:k].tolist()


def test_sweep_labels_only_printed_models(tmp_path, capsys, monkeypatch):
    rng = np.random.Generator(np.random.Philox(6))
    X = rng.standard_normal((40, 10))
    data = LinearDataset(y=X[:, 0] - X[:, 3] + rng.standard_normal(40), X=X)
    data_path = str(tmp_path / "data.csv")
    write_linear_csv(data, data_path)
    top_k, grid, policies, watch = 4, 3, ("uniform", "adjusted_c"), 2
    cfg = write_config(tmp_path, (
        "[experiment]\ntask = sweep\n\n"
        f"[data]\nsource = csv\npath = {data_path}\n\n"
        f"[prior]\ntemplate = gprior\nc2_grid = 1e0,1e8,{grid}\n\n"
        f"[policy]\nvariants = {', '.join(policies)}\n\n"
        f"[sweep]\ntop_k = {top_k}\nwatch = 1+X1, 1+X1+X4\n"))
    calls = [0]
    real = ModelId.linear.__func__

    def counted(cls, *args, **kwargs):
        calls[0] += 1
        return real(cls, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(ModelId, "linear", classmethod(counted))
        assert main(["sweep", "--config", cfg]) == 0
    # The 2^10 models stay arrays; only printed and watched ones are built.
    assert 0 < calls[0] <= top_k * grid * len(policies) + watch
    _, _, rows = read_csv_output(capsys.readouterr().out)

    # Oracle: the full stable sort over the enumerated model list.
    models = enumerate_linear_models(10)
    stored = load_linear_csv(data_path)
    expected = []
    for variant in policies:
        sweep = gprior_sweep(stored, np.geomspace(1.0, 1e8, grid),
                             ModelPriorPolicy(variant=variant))
        for gi, c2 in enumerate(sweep.c2_grid):
            probs = np.exp(sweep.log_posterior[gi])
            expected += [[variant, "%.17g" % c2, "model", models[i].label(),
                          "%.17g" % probs[i]]
                         for i in np.argsort(-probs, kind="stable")[:top_k]]
    assert [r for r in rows if r[2] == "model"] == expected


def test_simulate_roundtrip_through_cv(tmp_path, capsys):
    sim_cfg = write_config(tmp_path, (
        "[experiment]\ntask = simulate\nseed = 7\n\n"
        "[data]\nsource = generator\ngenerator = dfn\n"), name="sim.ini")
    stem = str(tmp_path / "simdata")
    assert main(["simulate", "--config", sim_cfg, "--out", stem]) == 0
    capsys.readouterr()
    text = (tmp_path / "simdata.csv").read_text()
    assert text.startswith("# task=simulate\n")
    _, header, rows = read_csv_output(text)
    assert header == ["y"] + [f"x{j}" for j in range(1, 16)]
    assert len(rows) == 50

    # Re-ingest the emitted file (provenance comments must be skipped).
    cv_cfg = write_config(tmp_path, (
        "[experiment]\ntask = cv\n\n"
        f"[data]\nsource = csv\npath = {stem}.csv\n\n"
        "[prior]\ntemplate = gprior\nc2 = 50\n\n"
        "[policy]\nvariants = uniform\n\n"
        "[cv]\nmode = exact\ncovariates = 4, 5\n"), name="cv.ini")
    assert main(["cv", "--config", cv_cfg]) == 0
    prov, header, rows = read_csv_output(capsys.readouterr().out)
    assert header == ["policy", "c2", "S"]
    assert prov["p"] == "2"
    assert len(rows) == 1
    assert np.isfinite(float(rows[0][2]))


def test_cv_gelfand_runs_with_seed(tmp_path, capsys):
    data_path = str(tmp_path / "data.csv")
    write_linear_csv(small_dataset(n=25, p=2), data_path)
    base = ("[experiment]\ntask = cv\n{seed}\n"
            f"[data]\nsource = csv\npath = {data_path}\n\n"
            "[prior]\ntemplate = gprior\nc2 = 10\n\n"
            "[cv]\nmode = gelfand\nnum_draws = 400\n")
    cfg = write_config(tmp_path, base.format(seed="seed = 11"))
    assert main(["cv", "--config", cfg]) == 0
    prov, _, rows = read_csv_output(capsys.readouterr().out)
    assert prov["mode"] == "gelfand" and prov["num_draws"] == "400"
    assert np.isfinite(float(rows[0][2]))

    # Monte Carlo mode without a seed is a config error, not a run.
    bare = write_config(tmp_path, base.format(seed=""), name="bare.ini")
    assert main(["cv", "--config", bare]) == 2
    assert "seed is required" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["exact", "gelfand"])
def test_cv_policies_share_one_loo_matrix_per_grid_point(
        tmp_path, capsys, monkeypatch, mode):
    from jointbma import cli as cli_module
    from jointbma import linear_exact

    data_path = str(tmp_path / "data.csv")
    write_linear_csv(small_dataset(n=20, p=2), data_path)
    base = ("[experiment]\ntask = cv\nseed = 11\n\n"
            f"[data]\nsource = csv\npath = {data_path}\n\n"
            "[prior]\ntemplate = gprior\nc2_grid = 1e0,1e2,3\n\n"
            "[policy]\nvariants = {variants}\n\n"
            f"[cv]\nmode = {mode}\nnum_draws = 200\n")
    single = []
    for variant in ("uniform", "adjusted_c"):
        cfg = write_config(tmp_path, base.format(variants=variant),
                           name=f"{variant}.ini")
        assert main(["cv", "--config", cfg]) == 0
        single += read_csv_output(capsys.readouterr().out)[2]

    calls = {"lpd": 0, "fold": 0}
    real_lpd = cli_module.loo_log_predictives
    real_fold = linear_exact.loo_predictive_exact

    def counting_lpd(*args, **kwargs):
        calls["lpd"] += 1
        return real_lpd(*args, **kwargs)

    def counting_fold(*args, **kwargs):
        calls["fold"] += 1
        return real_fold(*args, **kwargs)

    monkeypatch.setattr(cli_module, "loo_log_predictives", counting_lpd)
    monkeypatch.setattr(linear_exact, "loo_predictive_exact", counting_fold)
    cfg = write_config(tmp_path, base.format(variants="uniform, adjusted_c"))
    assert main(["cv", "--config", cfg]) == 0
    _, _, rows = read_csv_output(capsys.readouterr().out)
    # Policy-major rows, each equal to the single-policy run's row (in
    # gelfand mode too: the policies share the draws of one grid point).
    assert rows == single
    assert [r[0] for r in rows] == ["uniform"] * 3 + ["adjusted_c"] * 3
    # Three grid points, 2^2 models, 20 folds: one matrix per grid point.
    folds = 3 * 4 * 20 if mode == "exact" else 0
    assert calls == {"lpd": 3, "fold": folds}


def test_rjmcmc_linear_route(tmp_path, capsys):
    data_path = str(tmp_path / "data.csv")
    write_linear_csv(small_dataset(n=40, p=2), data_path)
    cfg = write_config(tmp_path, (
        "[experiment]\ntask = rjmcmc\nseed = 3\n\n"
        f"[data]\nsource = csv\npath = {data_path}\n\n"
        "[prior]\ntemplate = gprior\nc2 = 9\n\n"
        "[rjmcmc]\niterations = 4000\nburn_in = 500\n"))
    assert main(["rjmcmc", "--config", cfg]) == 0
    prov, header, rows = read_csv_output(capsys.readouterr().out)
    assert header == ["model", "dimension", "prob", "se"]
    assert prov["route"] == "linear"
    assert prov["n_kept"] == "3500"
    assert 0.0 < float(prov["jump_rate"]) <= 1.0
    probs = [float(r[2]) for r in rows]
    assert abs(sum(probs) - 1.0) < 1e-9
    assert all(float(r[3]) >= 0.0 for r in rows)
    # The generating model 1+X1 should lead this easy posterior.
    assert rows[0][0] == "1+X1"


def collinear_dataset(p, seed, n=30):
    rng = np.random.Generator(np.random.Philox(seed))
    X = rng.standard_normal((n, p))
    X[:, -1] += 0.6 * X[:, 0]
    y = 1.0 + X[:, 0] - 0.5 * X[:, p - 1] + rng.standard_normal(n)
    return LinearDataset(y=y, X=X)


def rjmcmc_config(tmp_path, data_path, c2="9", variant="adjusted_info",
                  template="gprior", sigma2="", name="rj.ini"):
    return write_config(tmp_path, (
        "[experiment]\ntask = rjmcmc\nseed = 7\n\n"
        f"[data]\nsource = csv\npath = {data_path}\n\n"
        f"[prior]\ntemplate = {template}\nc2 = {c2}\n{sigma2}\n"
        f"[policy]\nvariants = {variant}\n\n"
        "[rjmcmc]\niterations = 3000\nburn_in = 300\n"), name=name)


def per_model_log_targets(data, policy, c2, alpha=0.0, lam=0.0,
                          base="gprior"):
    """The per-model route: a prior and a conjugate update per subset."""
    models = enumerate_linear_models(data.p)
    priors = {m: prior_for_linear_model(data.X, m, c2, alpha=alpha, lam=lam,
                                        base=base) for m in models}
    return models, _linear_log_targets(models, priors, policy, data)


def outcome(targets, *args):
    """(exception class, None) when targets(*args) raises, else (None,
    the log targets)."""
    try:
        return None, targets(*args)[1]
    except JointBmaError as exc:
        return type(exc), None


def test_rjmcmc_gprior_targets_match_per_model_route():
    # The all-subsets log targets against the per-model route: per-model
    # weights plus conjugate marginals on per-model priors.
    baselines = (Baseline.constant(), Baseline.dimension(-0.4),
                 Baseline.calibrated(24.0, 1.5))
    worst = 0.0
    for p, c2, (alpha, lam) in itertools.product(
            (3, 5, 8), (0.5, 1e2, 1e6), ((0.0, 0.0), (2.0, 3.0))):
        data = collinear_dataset(p, seed=p)
        models = enumerate_linear_models(p)
        priors = {m: prior_for_linear_model(data.X, m, c2, alpha=alpha,
                                            lam=lam) for m in models}
        marginals = np.array([log_marginal_nig(data, m, priors[m]).value
                              for m in models])
        for variant, baseline in itertools.product(POLICY_VARIANTS,
                                                   baselines):
            policy = ModelPriorPolicy(variant=variant, baseline=baseline)
            space, targets = _subset_log_targets(data, policy, c2, alpha,
                                                 lam)
            assert list(space) == models
            generic = _policy_weights(models, priors, policy, data) \
                + marginals
            worst = max(worst, float(np.max(np.abs(targets - generic))))
    assert worst <= 1e-10


def stress_dataset(kind, level, n=30, p=4):
    """A design with one column made awkward at scale 10^level."""
    rng = np.random.Generator(np.random.Philox(level))
    X = rng.standard_normal((n, p))
    y = 1.0 + X[:, 0] - 0.5 * X[:, 1] + rng.standard_normal(n)
    scale = 10.0 ** level
    if kind == "shifted":
        X[:, 1] += scale
    elif kind == "rescaled":
        X[:, 2] /= scale
    elif kind == "near_duplicate":
        X[:, 3] = X[:, 0] + rng.standard_normal(n) / scale
    elif kind == "shifted_scaled":
        X[:, 1] = scale + X[:, 1] / scale
    return LinearDataset(y=y, X=X)


def test_rjmcmc_subset_targets_match_per_model_route_on_stress_designs():
    # Identity template: the same exception class as the per-model route,
    # and the same targets where both run on a well-conditioned design.
    # Once [1 X]'[1 X] is singular to working precision (cond >= 1/eps),
    # rounding alone decides whether a factor passes the conditioning
    # rule, so the classes are compared below that.
    outcomes = set()
    for kind, level, (alpha, lam) in itertools.product(
            ("shifted", "rescaled", "near_duplicate", "shifted_scaled"),
            (2, 4, 6), ((0.0, 0.0), (2.0, 3.0))):
        data = stress_dataset(kind, level)
        design = np.hstack([np.ones((data.n, 1)), data.X])
        cond = np.linalg.cond(design.T @ design)
        for variant in POLICY_VARIANTS:
            args = (data, ModelPriorPolicy(variant=variant), 9.0, alpha,
                    lam, "identity")
            error, targets = outcome(_subset_log_targets, *args)
            oracle_error, oracle = outcome(per_model_log_targets, *args)
            outcomes.add(error)
            if cond * np.finfo(float).eps < 1.0:
                assert error == oracle_error, (kind, level, variant)
            if error is None and oracle_error is None and cond <= 1e6:
                assert np.max(np.abs(targets - oracle)) <= 1e-10
    assert outcomes == {None, NumericalDomainError}


def sweep_outcome(data, policy, c2, alpha=0.0, lam=0.0):
    """(exception class, None) when the sweep at c2 raises, else (None,
    its log weights)."""
    try:
        sweep = gprior_sweep(all_subsets_stats(data), [c2], policy, alpha,
                             lam)
    except JointBmaError as exc:
        return type(exc), None
    return None, sweep.log_weights[0]


def test_rjmcmc_gprior_targets_equal_sweep_on_stress_designs():
    # The g-prior walk takes the sweep's statistics and weights, so it
    # raises what the sweep raises and otherwise equals it bit for bit.
    # Only a near-duplicate column at 1e-8 fails the rule on the
    # correlation matrix.
    outcomes = set()
    for kind, level, (alpha, lam) in itertools.product(
            ("shifted", "rescaled", "near_duplicate", "shifted_scaled"),
            (2, 4, 6, 8), ((0.0, 0.0), (2.0, 3.0))):
        data = stress_dataset(kind, level)
        for variant in POLICY_VARIANTS:
            policy = ModelPriorPolicy(variant=variant)
            error, targets = outcome(_subset_log_targets, data, policy, 9.0,
                                     alpha, lam)
            sweep_error, weights = sweep_outcome(data, policy, 9.0, alpha,
                                                 lam)
            outcomes.add(error)
            assert error == sweep_error, (kind, level, variant)
            assert error is not None or np.array_equal(targets, weights)
    assert outcomes == {None, NumericalDomainError}


def test_rjmcmc_subset_targets_match_per_model_route_at_perfect_fit():
    # s is zero up to rounding, which the last pivot of an augmented
    # factor cannot hold; a proper sigma^2 prior keeps every marginal
    # defined on both routes.
    rng = np.random.Generator(np.random.Philox(4))
    X = rng.standard_normal((40, 4))
    data = LinearDataset(y=1.0 + 2.0 * X[:, 0], X=X)
    for variant in POLICY_VARIANTS:
        args = (data, ModelPriorPolicy(variant=variant), 1e20, 2.0, 3.0)
        _, targets = _subset_log_targets(*args)
        _, oracle = per_model_log_targets(*args)
        assert np.max(np.abs(targets - oracle)) <= 1e-10


@pytest.mark.parametrize("variant,c2,sigma2", [
    ("adjusted_info", "1e4", ""),
    ("uniform", "0.5", "alpha = 2\nlambda = 3\n"),
    ("adjusted_c", "1e6", ""),
])
def test_rjmcmc_gprior_route_rows_equal_generic_chain(tmp_path, capsys,
                                                      variant, c2, sigma2):
    data_path = str(tmp_path / "d.csv")
    write_linear_csv(collinear_dataset(5, seed=8), data_path)
    cfg = rjmcmc_config(tmp_path, data_path, c2=c2, variant=variant,
                        sigma2=sigma2)
    assert main(["rjmcmc", "--config", cfg]) == 0
    prov, _, rows = read_csv_output(capsys.readouterr().out)

    data = load_linear_csv(data_path)
    alpha, lam = (2.0, 3.0) if sigma2 else (0.0, 0.0)
    models = enumerate_linear_models(data.p)
    priors = {m: prior_for_linear_model(data.X, m, float(c2), alpha=alpha,
                                        lam=lam) for m in models}
    policy = ModelPriorPolicy(variant=variant)
    config = SamplerConfig(iterations=3000, burn_in=300, seed=7)
    generic = rjmcmc_run(models, priors, policy, data, config)
    est = estimate_model_probs(generic)
    expected = [[est.models[i].label(), str(est.models[i].d),
                 "%.17g" % est.probs[i], "%.17g" % est.se[i]]
                for i in np.argsort(-est.probs, kind="stable")
                if est.probs[i] > 0.0]
    assert rows == expected
    assert prov["jump_rate"] == "%.17g" % generic.jump_rate()

    fast = _run_linear_collapsed(*_subset_log_targets(
        data, policy, float(c2), alpha, lam), config)
    assert np.array_equal(fast.model_index, generic.model_index)
    assert np.max(np.abs(fast.log_target - generic.log_target)) <= 1e-10


def exit_design(case):
    """A 40x4 design, made awkward as case says."""
    rng = np.random.Generator(np.random.Philox(4))
    X = rng.standard_normal((40, 4))
    noise = rng.standard_normal(40)
    y = 1.0 + 2.0 * X[:, 0] + noise
    if case == "near_duplicate":
        X[:, 3] = X[:, 0] + 1e-9 * noise
    elif case == "shifted":
        X[:, 1] += 1e6
    elif case == "rescaled":
        X[:, 2] *= 1e-7
    elif case == "constant_response":
        y = np.full(40, 3.0)
    elif case == "perfect_fit":
        y = 1.0 + 2.0 * X[:, 0]
    return LinearDataset(y=y, X=X)


def exits_of_rjmcmc_and_sweep(tmp_path, data, c2):
    """Exit codes of g-prior adjusted_info rjmcmc and sweep at c2 on data
    written to CSV, then the data as read back."""
    data_path = str(tmp_path / "d.csv")
    write_linear_csv(data, data_path)
    sweep_cfg = write_config(tmp_path, (
        "[experiment]\ntask = sweep\n\n"
        f"[data]\nsource = csv\npath = {data_path}\n\n"
        f"[prior]\ntemplate = gprior\nc2_grid = {c2},{c2},1\n\n"
        "[policy]\nvariants = adjusted_info\n"), name="sweep.ini")
    codes = (main(["rjmcmc", "--config", rjmcmc_config(tmp_path, data_path,
                                                       c2=c2)]),
             main(["sweep", "--config", sweep_cfg]))
    return codes, load_linear_csv(data_path)


@pytest.mark.parametrize("case,c2,expected", [
    ("near_duplicate", "9", 3),
    ("well_posed", "9", 0),
])
def test_rjmcmc_gprior_route_rejects_what_per_model_route_rejects(
        tmp_path, capsys, case, c2, expected):
    # On these designs the per-model route, the all-subsets route and
    # the sweep agree: the near-duplicate column fails every route's
    # conditioning rule.
    codes, data = exits_of_rjmcmc_and_sweep(tmp_path, exit_design(case), c2)
    assert codes == (expected, expected)
    args = (data, ModelPriorPolicy(variant="adjusted_info"), float(c2))
    error, _ = outcome(_subset_log_targets, *args)
    assert (error is None) == (expected == 0)
    assert error == outcome(per_model_log_targets, *args)[0]


@pytest.mark.parametrize("case,c2,expected", [
    ("shifted", "9", 0),
    ("rescaled", "9", 0),
    ("constant_response", "9", 3),
    ("perfect_fit", "1e20", 0),
])
def test_rjmcmc_gprior_route_exits_as_sweep(tmp_path, capsys, case, c2,
                                            expected):
    # The g-prior walk uses the sweep's centered statistics: a shifted or
    # rescaled column leaves R^2 unchanged, the centered fit keeps s > 0
    # at c^2 = 1e20, and a constant response has no R^2. The per-model
    # route factors the uncentered [1 X]'[1 X] and differs on all four.
    codes, data = exits_of_rjmcmc_and_sweep(tmp_path, exit_design(case), c2)
    assert codes == (expected, expected)
    policy = ModelPriorPolicy(variant="adjusted_info")
    error, targets = outcome(_subset_log_targets, data, policy, float(c2))
    sweep_error, weights = sweep_outcome(data, policy, float(c2))
    assert error == sweep_error
    assert (error is None) == (expected == 0)
    assert error is not None or np.array_equal(targets, weights)
    assert error != outcome(per_model_log_targets, data, policy,
                            float(c2))[0]


@pytest.mark.parametrize("template,variant,check_rows", [
    ("gprior", "adjusted_info", False),
    ("gprior", "uniform", False),
    ("identity", "adjusted_info", True),
    ("gprior", "adjusted_exact", True),
])
def test_rjmcmc_gprior_route_builds_no_per_model_prior(
        tmp_path, capsys, monkeypatch, template, variant, check_rows):
    # Every template and variant takes the all-subsets route. Rows of
    # three g-prior variants are held to the per-model chain in
    # test_rjmcmc_gprior_route_rows_equal_generic_chain, the others here.
    calls = {"prior": 0, "moments": 0}

    def counted(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(jointbma.cli, "prior_for_linear_model",
                        counted("prior", jointbma.cli.prior_for_linear_model))
    monkeypatch.setattr(jointbma.linear_exact, "posterior_moments",
                        counted("moments",
                                jointbma.linear_exact.posterior_moments))
    data_path = str(tmp_path / "d.csv")
    write_linear_csv(collinear_dataset(3, seed=2), data_path)
    cfg = rjmcmc_config(tmp_path, data_path, variant=variant,
                        template=template)
    assert main(["rjmcmc", "--config", cfg]) == 0
    assert calls == {"prior": 0, "moments": 0}
    if check_rows:
        _, _, rows = read_csv_output(capsys.readouterr().out)
        data = load_linear_csv(data_path)
        models, targets = per_model_log_targets(
            data, ModelPriorPolicy(variant=variant), 9.0, base=template)
        est = estimate_model_probs(_run_linear_collapsed(
            models, targets, SamplerConfig(iterations=3000, burn_in=300,
                                           seed=7)))
        assert rows == [[est.models[i].label(), str(est.models[i].d),
                         "%.17g" % est.probs[i], "%.17g" % est.se[i]]
                        for i in np.argsort(-est.probs, kind="stable")
                        if est.probs[i] > 0.0]


def test_prior_probs_small_space(tmp_path, capsys):
    cfg = write_config(tmp_path, (
        "[experiment]\ntask = prior-probs\n\n"
        "[space]\nfactors = R:2, C:2\nforced = 1, R, C\ncandidates = R*C\n\n"
        "[prior]\ntemplate = term_blocks\nscale = 9.0\n\n"
        "[policy]\nvariants = uniform, loglinear_adjusted\n"))
    assert main(["prior-probs", "--config", cfg]) == 0
    prov, header, rows = read_csv_output(capsys.readouterr().out)
    assert header == ["policy", "model", "dimension", "prior_prob"]
    assert prov["factors"] == "R:2,C:2"
    assert prov["scales"] == "default=9"
    for variant in ("uniform", "loglinear_adjusted"):
        block = [r for r in rows if r[0] == variant]
        assert [r[1] for r in block] == ["R+C", "R+C+RC"]
        # Dimension counts every free parameter, forced terms included.
        assert [int(r[2]) for r in block] == [3, 4]
        assert abs(sum(float(r[3]) for r in block) - 1.0) < 1e-12
    uniform = [float(r[3]) for r in rows if r[0] == "uniform"]
    assert uniform == pytest.approx([0.5, 0.5])
    # The adjusted policy pre-compensates the dispersion penalty that the
    # marginal charges the wider model. Here the interaction block has
    # prior variance 9/4 and unit information 1, so the weight ratio is
    # sqrt(9/4) = 1.5 exactly.
    adjusted = [float(r[3]) for r in rows if r[0] == "loglinear_adjusted"]
    assert adjusted == pytest.approx([0.4, 0.6], abs=1e-12)


def _prior_probs_rows(tmp_path, capsys, text):
    cfg = write_config(tmp_path, text)
    assert main(["prior-probs", "--config", cfg]) == 0
    return read_csv_output(capsys.readouterr().out)[2]


def _expected_rows(variant, models, log_w):
    probs = np.exp(log_w - log_sum_exp(log_w))
    return [[variant, m.label(), str(m.d), "%.17g" % prob]
            for m, prob in zip(models, probs)]


@pytest.mark.parametrize("variant", ["adjusted_info", "adjusted_exact",
                                     "loglinear_adjusted"])
def test_prior_probs_space_with_empty_model(tmp_path, capsys, variant):
    # The empty model has no parameters, so its information source is the
    # 0x0 matrix; the information-based policies still weigh it.
    rows = _prior_probs_rows(tmp_path, capsys, (
        "[experiment]\ntask = prior-probs\n\n"
        "[space]\nfactors = A:2, B:3\ncandidates = 1, A, B\n\n"
        "[prior]\ntemplate = term_blocks\nscale = 4\n\n"
        f"[policy]\nvariants = {variant}\n"))
    spec = FactorSpec(factors=(("A", 2), ("B", 3)),
                      candidate_terms=((), ("A",), ("B",)))
    models = enumerate_hierarchical_models(spec)
    assert models[0].d == 0
    priors = {m: term_block_prior(spec, m, 4.0) for m in models}
    log_w = _policy_weights(models, priors, ModelPriorPolicy(variant=variant),
                            spec)
    assert rows == _expected_rows(variant, models, log_w)


def test_prior_probs_readme_example_rows(tmp_path, capsys):
    # No benchmark workload runs prior-probs, so the README's example is
    # pinned here, digit for digit, against per-model weights computed
    # directly from the prior and its information matrix.
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(
        encoding="utf-8")
    blocks = [b.split("```")[0] for b in readme.split("```ini\n")[1:]]
    (example,) = [b for b in blocks if "task = prior-probs" in b]
    rows = _prior_probs_rows(tmp_path, capsys, example)
    spec = FactorSpec(factors=(("O", 3), ("H", 2), ("A", 4)),
                      forced_terms=((), ("O",), ("H",), ("A",)),
                      candidate_terms=(("O", "H"), ("H", "A")))
    policy = ModelPriorPolicy(
        variant="loglinear_adjusted",
        baseline=Baseline.dimension(-0.34657359027997264))
    models = enumerate_hierarchical_models(spec)
    log_w = []
    for m in models:
        prior = term_block_prior(spec, m, {"default": 1e3, ("H", "A"): 0.05},
                                 means={("H", "A"): [0.204, -0.088, -0.271]})
        info = unit_info_for_model(spec, m, beta_ref=prior.mu)
        log_w.append(log_prior_model_weight(m, policy, prior=prior,
                                            info=info))
    assert rows == _expected_rows("loglinear_adjusted", models,
                                  np.array(log_w))


def test_json_stdout(tmp_path, capsys):
    cfg = write_config(tmp_path, (
        "[experiment]\ntask = shrinkage\nformat = json\n\n"
        "[shrinkage]\ninv_c2_grid = 1e-4,1e-2,3\n"))
    assert main(["shrinkage", "--config", cfg]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"provenance", "columns", "rows"}
    assert payload["columns"] == ["inv_c2", "coefficient"]
    assert len(payload["rows"]) == 3
    assert all(isinstance(v, float) for row in payload["rows"] for v in row)


def test_exit_code_2_paths(tmp_path, capsys):
    # Unreadable config.
    assert main(["sweep", "--config", str(tmp_path / "nope.ini")]) == 2
    assert "error:" in capsys.readouterr().err

    # Config/task mismatch.
    cfg = write_config(tmp_path, "[experiment]\ntask = cv\nseed = 1\n")
    assert main(["sweep", "--config", cfg]) == 2
    assert "command line asked" in capsys.readouterr().err

    # Missing grid for sweep.
    data_path = str(tmp_path / "d.csv")
    write_linear_csv(small_dataset(n=20, p=2), data_path)
    cfg = write_config(tmp_path, (
        "[experiment]\ntask = sweep\n\n"
        f"[data]\nsource = csv\npath = {data_path}\n"), name="nogrid.ini")
    assert main(["sweep", "--config", cfg]) == 2
    assert "c2_grid is required" in capsys.readouterr().err

    # Watch model outside the support.
    cfg = write_config(tmp_path, (
        "[experiment]\ntask = sweep\n\n"
        f"[data]\nsource = csv\npath = {data_path}\n\n"
        "[prior]\nc2_grid = 1,10,2\n\n"
        "[sweep]\nwatch = 1+X9\n"), name="watch.ini")
    assert main(["sweep", "--config", cfg]) == 2
    assert "not in the sweep support" in capsys.readouterr().err

    # Negative top_k (0 is legal: watch and inclusion rows only).
    cfg = write_config(tmp_path, (
        "[experiment]\ntask = sweep\n\n"
        f"[data]\nsource = csv\npath = {data_path}\n\n"
        "[prior]\nc2_grid = 1,10,2\n\n"
        "[sweep]\ntop_k = -3\n"), name="topk.ini")
    assert main(["sweep", "--config", cfg]) == 2
    assert "top_k" in capsys.readouterr().err

    # Empty policy list.
    cfg = write_config(tmp_path, (
        "[experiment]\ntask = sweep\n\n"
        f"[data]\nsource = csv\npath = {data_path}\n\n"
        "[prior]\nc2_grid = 1,10,2\n\n"
        "[policy]\nvariants =\n"), name="nopolicy.ini")
    assert main(["sweep", "--config", cfg]) == 2
    assert "variants" in capsys.readouterr().err

    # Capacity cap: cv enumerates 2^p over n folds.
    rng = np.random.Generator(np.random.Philox(0))
    wide = LinearDataset(y=rng.standard_normal(20),
                         X=rng.standard_normal((20, 13)))
    wide_path = str(tmp_path / "wide.csv")
    write_linear_csv(wide, wide_path)
    cfg = write_config(tmp_path, (
        "[experiment]\ntask = cv\n\n"
        f"[data]\nsource = csv\npath = {wide_path}\n"), name="wide.ini")
    assert main(["cv", "--config", cfg]) == 2
    assert "exceeds the cap" in capsys.readouterr().err


def test_exit_code_3_degenerate_response(tmp_path, capsys):
    rng = np.random.Generator(np.random.Philox(1))
    flat = LinearDataset(y=np.full(12, 3.0), X=rng.standard_normal((12, 2)))
    data_path = str(tmp_path / "flat.csv")
    write_linear_csv(flat, data_path)
    cfg = write_config(tmp_path, (
        "[experiment]\ntask = sweep\n\n"
        f"[data]\nsource = csv\npath = {data_path}\n\n"
        "[prior]\ntemplate = gprior\nc2_grid = 1e0,1e2,2\n"))
    assert main(["sweep", "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert "numerical error:" in err
    assert "response is constant" in err


@pytest.mark.parametrize("column", ["constant", "collinear"])
def test_sweep_exits_3_on_a_singular_correlation_matrix(tmp_path, capsys,
                                                        column):
    # The sweep's one domain rule, on the covariates' correlation matrix,
    # rejects a constant column and an affine copy of another without a
    # numpy warning.
    rng = np.random.Generator(np.random.Philox(2))
    X = rng.standard_normal((20, 3))
    X[:, 2] = 0.1 if column == "constant" else 2.5 * X[:, 0] + 7.0
    data_path = str(tmp_path / "d.csv")
    write_linear_csv(LinearDataset(y=X[:, 0] + rng.standard_normal(20),
                                   X=X), data_path)
    cfg = write_config(tmp_path, (
        "[experiment]\ntask = sweep\n\n"
        f"[data]\nsource = csv\npath = {data_path}\n\n"
        "[prior]\ntemplate = gprior\nc2_grid = 1e0,1e2,2\n"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["sweep", "--config", cfg]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("numerical error: covariate correlation "
                                   "matrix")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("task,p", [("sweep", 16), ("rjmcmc", 16),
                                    ("cv", 13)])
def test_enumerated_tasks_cap_the_covariate_count(tmp_path, capsys, task, p):
    rng = np.random.Generator(np.random.Philox(0))
    data_path = str(tmp_path / "wide.csv")
    write_linear_csv(LinearDataset(y=rng.standard_normal(30),
                                   X=rng.standard_normal((30, p))), data_path)
    cfg = write_config(tmp_path, (
        f"[experiment]\ntask = {task}\nseed = 1\n\n"
        f"[data]\nsource = csv\npath = {data_path}\n\n"
        "[prior]\ntemplate = gprior\nc2 = 9\nc2_grid = 1,10,2\n"))
    assert main([task, "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert f"p={p} exceeds the" in captured.err
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("alpha, lam", [("nan", "nan"), ("inf", "inf"),
                                        ("2", "inf")])
@pytest.mark.parametrize("task, variant", [
    ("sweep", "uniform"), ("cv", "uniform"),
    ("rjmcmc", "adjusted_info"), ("rjmcmc", "adjusted_exact")])
def test_non_finite_sigma2_prior_exits_2(tmp_path, capsys, task, variant,
                                         alpha, lam):
    # The closed-form routes (sweep, cv, and the g-prior rjmcmc route
    # under every variant) share one sigma^2 prior check.
    data_path = str(tmp_path / "d.csv")
    write_linear_csv(small_dataset(n=20, p=2), data_path)
    cfg = write_config(tmp_path, (
        f"[experiment]\ntask = {task}\nseed = 3\n\n"
        f"[data]\nsource = csv\npath = {data_path}\n\n"
        f"[prior]\ntemplate = gprior\nalpha = {alpha}\nlambda = {lam}\n"
        "c2 = 4\nc2_grid = 1e0,1e2,3\n\n"
        f"[policy]\nvariants = {variant}\n\n"
        "[rjmcmc]\niterations = 200\n"))
    assert main([task, "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "alpha and lam must be finite" in captured.err


@pytest.mark.parametrize("sigma2, message", [
    ("alpha = -2", "alpha and lam must be nonnegative"),
    ("lambda = -1", "alpha and lam must be nonnegative"),
    ("alpha = nan", "alpha and lam must be finite"),
], ids=["alpha-negative", "lambda-negative", "alpha-nan"])
def test_sigma2_prior_checked_only_where_used(tmp_path, capsys, sigma2,
                                              message):
    # The sigma^2 hyperparameters are validated by the tasks that use
    # them, not at parse time: the linear tasks exit 2 and prior-probs,
    # which never uses them, runs.
    data_path = str(tmp_path / "d.csv")
    write_linear_csv(small_dataset(n=20, p=2), data_path)
    for task in ("sweep", "cv", "rjmcmc"):
        cfg = write_config(tmp_path, (
            f"[experiment]\ntask = {task}\nseed = 3\n\n"
            f"[data]\nsource = csv\npath = {data_path}\n\n"
            f"[prior]\ntemplate = gprior\n{sigma2}\n"
            "c2 = 4\nc2_grid = 1e0,1e2,3\n\n"
            "[rjmcmc]\niterations = 200\n"))
        assert main([task, "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err
    cfg = write_config(tmp_path, (
        "[experiment]\ntask = prior-probs\n\n"
        "[space]\nfactors = R:2, C:2\nforced = 1, R, C\ncandidates = R*C\n\n"
        f"[prior]\ntemplate = term_blocks\nscale = 9.0\n{sigma2}\n"))
    assert main(["prior-probs", "--config", cfg]) == 0
    capsys.readouterr()


SHRINKAGE_GRID = "inv_c2_grid = 1e-4,1e-2,3\n"
TERM_BLOCKS = "[prior]\ntemplate = term_blocks\n"
TWO_BY_TWO = "\n[space]\nfactors = A:2, B:2\nforced = 1, A, B\n"


@pytest.mark.parametrize("task, section, message", [
    ("cv", "[cv]\ncovariates = 1.5\n", "[cv] covariates = '1.5'"),
    ("cv", "[cv]\ncovariates = 2, x\n", "[cv] covariates = '2, x'"),
    ("sweep", "[policy]\nbaseline = calibrated\nn0 = nan\npsi0 = 1\n",
     "finite n0 and psi0"),
    ("sweep", "[policy]\nbaseline = calibrated\nn0 = 24\npsi0 = inf\n",
     "finite n0 and psi0"),
    ("shrinkage", "[shrinkage]\nn = 1e400\n" + SHRINKAGE_GRID,
     "n must be positive and finite"),
    ("shrinkage", "[shrinkage]\nsigma2 = inf\n" + SHRINKAGE_GRID,
     "sigma2 must be positive and finite"),
    ("shrinkage", "[shrinkage]\nbeta_hat = nan\n" + SHRINKAGE_GRID,
     "beta_hat must be finite"),
    ("shrinkage", "[shrinkage]\nk_policy = proportional_inverse_c\n"
     "k0 = 1e400\n" + SHRINKAGE_GRID, "k0 must be positive and finite"),
    ("rjmcmc", "[rjmcmc]\nwithin_scale = inf\n",
     "within_model_scale must be positive and finite"),
    ("rjmcmc", "[rjmcmc]\nwithin_scale = nan\n",
     "within_model_scale must be positive and finite"),
    ("sweep", "[prior]\nc2_grid = 1,1e400,3\n", "c2_grid = '1,1e400,3'"),
    ("sweep", "[prior]\nc2_grid = inf,inf,3\n", "c2_grid = 'inf,inf,3'"),
    ("shrinkage", "[shrinkage]\ninv_c2_grid = 1e-4,1e400,3\n",
     "inv_c2_grid = '1e-4,1e400,3'"),
    ("prior-probs", TERM_BLOCKS + "mean.A = nan\n" + TWO_BY_TWO,
     "mu and sigma_base must be finite"),
    ("prior-probs", TERM_BLOCKS + "scale = inf\n" + TWO_BY_TWO,
     "block scale2 must be positive and finite"),
    ("prior-probs", TERM_BLOCKS + "scale = 1e400\n" + TWO_BY_TWO,
     "block scale2 must be positive and finite"),
    ("prior-probs", TERM_BLOCKS + "mean.A = x\n" + TWO_BY_TWO,
     "[prior] mean.A = 'x' is not a valid vector"),
], ids=["cv-covariate-float", "cv-covariate-text", "calibrated-n0-nan",
        "calibrated-psi0-inf", "shrinkage-n-inf", "shrinkage-sigma2-inf",
        "shrinkage-beta-hat-nan", "shrinkage-k0-inf", "rjmcmc-within-inf",
        "rjmcmc-within-nan", "sweep-c2-grid-high-inf",
        "sweep-c2-grid-both-inf", "shrinkage-inv-c2-grid-high-inf",
        "prior-probs-mean-nan", "prior-probs-scale-inf",
        "prior-probs-scale-overflow", "prior-probs-mean-text"])
def test_malformed_or_non_finite_key_exits_2(tmp_path, capsys, task,
                                             section, message):
    data_path = str(tmp_path / "d.csv")
    write_linear_csv(small_dataset(n=20, p=2), data_path)
    prior = "" if section.startswith("[prior]") else \
        "[prior]\nc2_grid = 1e0,1e2,3\n\n"
    cfg = write_config(tmp_path, (
        f"[experiment]\ntask = {task}\nseed = 1\n\n"
        f"[data]\nsource = csv\npath = {data_path}\n\n{prior}{section}"))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main([task, "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert message in lines[0]


C2_RANGE = "c2 must be positive and finite, with 1/c2 and n c2 finite"
SIGMA2_OVERFLOW = "overflows the marginal likelihood"


FLOAT_RANGE_CASES = [
    pytest.param(task, prior, code, message, id=f"{task}-{name}")
    for task in ("sweep", "cv", "rjmcmc")
    for name, prior, code, message in [
        ("c2-huge", "c2 = 1e307\nc2_grid = 1e307,1e307,1", 2, C2_RANGE),
        ("c2-tiny", "c2 = 1e-320\nc2_grid = 1e-320,1e-320,1", 2, C2_RANGE),
        ("alpha-lambda-huge", "alpha = 1e308\nlambda = 1e308\nc2 = 4\n"
         "c2_grid = 1,100,3", 3, SIGMA2_OVERFLOW),
        ("lambda-huge", "alpha = 2\nlambda = 1e308\nc2 = 4\n"
         "c2_grid = 1,100,3", 3, SIGMA2_OVERFLOW)]
] + [
    pytest.param("rjmcmc", "template = identity\nc2 = 1e-320", 2, C2_RANGE,
                 id="rjmcmc-identity-c2-tiny"),
    pytest.param("prior-probs",
                 "template = term_blocks\nscale = 1e300\nc2 = 1e300", 3,
                 "prior variance c2 * sigma_base overflows",
                 id="prior-probs-scale-c2-huge"),
    pytest.param("prior-probs", "template = term_blocks\nc2 = 1e-320", 2,
                 C2_RANGE, id="prior-probs-c2-tiny"),
]


@pytest.mark.parametrize("task, prior, code, message", FLOAT_RANGE_CASES)
def test_c2_and_sigma2_prior_at_the_float_range_ends(tmp_path, capsys, task,
                                                     prior, code, message):
    # 1/c^2, n c^2, c^2 times the base metric and the sigma^2 terms must
    # be finite: each overflow is one error line, never a warning or nan.
    data_path = str(tmp_path / "d.csv")
    write_linear_csv(small_dataset(n=20, p=2), data_path)
    space = TWO_BY_TWO if task == "prior-probs" else ""
    cfg = write_config(tmp_path, (
        f"[experiment]\ntask = {task}\nseed = 3\n\n"
        f"[data]\nsource = csv\npath = {data_path}\n\n"
        f"[prior]\n{prior}\n\n[policy]\nvariants = adjusted_c\n\n"
        f"[rjmcmc]\niterations = 200\n\n{space}"))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main([task, "--config", cfg]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    prefix = "error: " if code == 2 else "numerical error: "
    assert len(lines) == 1 and lines[0].startswith(prefix)
    assert message in lines[0]


EDGE_TABLE = ("[data]\nsource = csv\npath = {table}\n"
              "levels.A = a1, a2\nlevels.B = b1, b2\n\n" + TERM_BLOCKS
              + "{setting}\n" + TWO_BY_TWO + "candidates = A*B\n\n"
              "[rjmcmc]\niterations = 200\n")
EDGE_SHRINKAGE = "[shrinkage]\n{setting}\ninv_c2_grid = 1e-4,1e-2,9\n"
EDGE_SWEEP = ("[data]\nsource = csv\npath = {data}\n\n[prior]\n"
              "template = gprior\nc2_grid = 1,100,3\n{setting}\n\n"
              "[policy]\nvariants = uniform\n")


@pytest.mark.parametrize("task, template, setting, code", [
    ("rjmcmc", EDGE_TABLE, "scale = 1e308\nscale.A*B = 4", 3),
    ("rjmcmc", EDGE_TABLE, "scale = 1e-320\nscale.A*B = 4", 3),
    ("rjmcmc", EDGE_TABLE, "scale = 2\nscale.A*B = 1e-320", 3),
    ("shrinkage", EDGE_SHRINKAGE, "sigma2 = 1e-320", 2),
    ("shrinkage", EDGE_SHRINKAGE, "n = 1e-320", 0),
    ("shrinkage", EDGE_SHRINKAGE, "beta_hat = 1e300", 0),
    ("shrinkage", EDGE_SHRINKAGE, "beta_hat = 1e308", 0),
    ("shrinkage", EDGE_SHRINKAGE,
     "beta_hat = 1e300\nk_policy = proportional_inverse_c", 0),
    ("sweep", EDGE_SWEEP, "alpha = 1e300\nlambda = 1e300", 0),
], ids=["table-scale-huge", "table-scale-tiny", "table-interaction-tiny",
        "shrinkage-sigma2-tiny", "shrinkage-n-tiny",
        "shrinkage-beta-hat-1e300", "shrinkage-beta-hat-1e308",
        "shrinkage-proportional-beta-hat-1e300", "sweep-alpha-lambda-1e300"])
def test_inputs_at_the_float_range_ends_exit_cleanly(tmp_path, capsys, task,
                                                     template, setting, code):
    # Each run either exits 0 with only finite numbers and an empty stderr,
    # or exits 2 or 3 with one error line: never a numpy warning.
    table = tmp_path / "table.csv"
    table.write_text("A,B,count\na1,b1,12\na1,b2,7\na2,b1,9\na2,b2,15\n",
                     encoding="utf-8")
    data = tmp_path / "d.csv"
    write_linear_csv(small_dataset(n=20, p=2), str(data))
    cfg = write_config(tmp_path, f"[experiment]\ntask = {task}\nseed = 5\n\n"
                       + template.format(table=table, data=data,
                                         setting=setting))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main([task, "--config", cfg]) == code
    captured = capsys.readouterr()
    if code:
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        return
    assert captured.err == ""
    _, _, rows = read_csv_output(captured.out)
    numbers = []
    for row in rows:
        for cell in row:
            try:
                numbers.append(float(cell))
            except ValueError:
                pass
    assert rows and np.all(np.isfinite(numbers))
    if task == "sweep":
        # Under a uniform model prior a posterior that kept the sigma^2
        # terms is not uniform: 1e300 must not round s away.
        probs = [float(row[-1]) for row in rows if row[2] == "model"]
        assert max(probs) > 2.0 * min(probs)


@pytest.mark.parametrize("setting, message", [
    ("scale = 2\nmean.R = nan", "mu and sigma_base must be finite"),
    ("scale = 1e400", "block scale2 must be positive and finite"),
])
def test_rjmcmc_non_finite_term_prior_exits_2(tmp_path, capsys, setting,
                                               message):
    # Caught when the priors are built, before any Newton step.
    table_path = tmp_path / "table.csv"
    table_path.write_text("R,C,count\nr1,c1,12\nr1,c2,7\nr2,c1,9\n"
                          "r2,c2,15\n", encoding="utf-8")
    cfg = write_config(tmp_path, (
        "[experiment]\ntask = rjmcmc\nseed = 5\n\n"
        f"[data]\nsource = csv\npath = {table_path}\n"
        "levels.R = r1, r2\nlevels.C = c1, c2\n\n"
        "[space]\nfactors = R:2, C:2\nforced = 1, R, C\ncandidates = R*C\n\n"
        f"[prior]\ntemplate = term_blocks\n{setting}\n\n"
        "[rjmcmc]\niterations = 100\n"))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["rjmcmc", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert message in lines[0]


def test_rjmcmc_overflowing_within_proposals_are_rejected(tmp_path, capsys):
    # A huge but finite within_scale sends every random-walk proposal to
    # a log target of -inf or nan: the chain rejects each one, silently.
    table_path = tmp_path / "table.csv"
    table_path.write_text("R,C,count\nr1,c1,12\nr1,c2,7\nr2,c1,9\n"
                          "r2,c2,15\n", encoding="utf-8")
    cfg = write_config(tmp_path, (
        "[experiment]\ntask = rjmcmc\nseed = 5\n\n"
        f"[data]\nsource = csv\npath = {table_path}\n"
        "levels.R = r1, r2\nlevels.C = c1, c2\n\n"
        "[space]\nfactors = R:2, C:2\nforced = 1, R, C\ncandidates = R*C\n\n"
        "[prior]\ntemplate = term_blocks\nscale = 2\n\n"
        "[rjmcmc]\niterations = 400\nwithin_scale = 1e300\n"))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["rjmcmc", "--config", cfg]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    prov, header, rows = read_csv_output(captured.out)
    assert float(prov["within_rate"]) == 0.0
    assert float(prov["jump_rate"]) > 0.0
    assert header == ["model", "dimension", "prob", "se"] and rows


@pytest.mark.parametrize("task", ["sweep", "cv"])
def test_sweep_error_names_grid_point(tmp_path, capsys, task):
    # lambda is only validated where it is used, so a bad sigma^2 prior
    # surfaces inside the sweep and must be annotated with the c2 value.
    data_path = str(tmp_path / "d.csv")
    write_linear_csv(small_dataset(n=20, p=2), data_path)
    cfg = write_config(tmp_path, (
        f"[experiment]\ntask = {task}\n\n"
        f"[data]\nsource = csv\npath = {data_path}\n\n"
        "[prior]\ntemplate = gprior\nlambda = -1\nc2_grid = 1e0,1e2,3\n"))
    assert main([task, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "grid point c2=1:" in err
    assert "nonnegative" in err


def test_exit_code_4_convergence(tmp_path, capsys, monkeypatch):
    from jointbma import cli as cli_module

    def explode(cfg):
        raise ConvergenceError("did not settle")

    monkeypatch.setitem(cli_module._DISPATCH, "shrinkage", explode)
    cfg = write_config(tmp_path, (
        "[experiment]\ntask = shrinkage\n\n"
        "[shrinkage]\ninv_c2_grid = 1e-4,1e-2,3\n"))
    assert main(["shrinkage", "--config", cfg]) == 4
    assert "convergence failure" in capsys.readouterr().err


def test_argparse_rejects_unknown_task():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate", "--config", "x.ini"])
    assert exc.value.code == 2


def test_cli_import_does_not_load_scipy():
    # scipy is a test-only dependency; the package must run without it.
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(jointbma.__file__))
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    code = "import sys, jointbma.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
