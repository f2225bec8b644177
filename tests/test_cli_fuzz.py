"""Command-line fuzz: generated configs for every task on small data.

The invariant: every config either exits 0 with only finite numbers in
its output and nothing on stderr, or exits 2, 3 or 4 with exactly one
stderr line and nothing on stdout. No config exits 1 or lets an
exception out of main. Each key draws from its valid range as well as
from edge values, so the numerical domains are reached and not only the
parser's checks. RuntimeWarning is an error throughout.
"""
import contextlib
import io
import json
import math
import warnings

from hypothesis import HealthCheck, given, settings, strategies as st
import numpy as np
import pytest

from jointbma import LinearDataset
from jointbma.cli import main
from jointbma.datasets import write_linear_csv
from jointbma.model_space import POLICY_VARIANTS

EDGES = ("0", "-1", "1e-320", "5e-324", "1e308", "1e400", "inf", "-inf",
         "nan", "", "x")


def _linear_datasets():
    """Small designs (p <= 4), regular and awkward."""
    rng = np.random.Generator(np.random.Philox(11))
    X = rng.standard_normal((14, 4))
    noise = rng.standard_normal(14)
    y = 1.0 + X[:, 0] - 0.5 * X[:, 2] + noise
    duplicate = X.copy()
    duplicate[:, 3] = duplicate[:, 0]
    constant = X.copy()
    constant[:, 1] = 3.0
    shifted = X.copy()
    shifted[:, 1] += 1e6
    return {
        "plain": LinearDataset(y=y, X=X[:, :3]),
        "wide": LinearDataset(y=y, X=X),
        "zero_response": LinearDataset(y=np.zeros(14), X=X[:, :2]),
        "constant_response": LinearDataset(y=np.full(14, 5.0), X=X[:, :2]),
        "perfect_fit": LinearDataset(y=1.0 + 2.0 * X[:, 0] - X[:, 1],
                                     X=X[:, :3]),
        "duplicate_column": LinearDataset(y=y, X=duplicate),
        "constant_column": LinearDataset(y=y, X=constant[:, :3]),
        "shifted_column": LinearDataset(y=y, X=shifted[:, :3]),
        "huge": LinearDataset(y=1e150 * y, X=1e150 * X[:, :2]),
        "tiny": LinearDataset(y=1e-160 * y, X=1e-160 * X[:, :2]),
        "two_rows": LinearDataset(y=y[:2], X=X[:2, :2]),
    }


TABLES = {
    "table": "A,B,count\na1,b1,12\na1,b2,7\na2,b1,9\na2,b2,15\n",
    "zero_margin": "A,B,count\na1,b1,0\na1,b2,0\na2,b1,9\na2,b2,22\n",
    "large_counts": "A,B,count\na1,b1,1e6\na1,b2,3\na2,b1,2e5\na2,b2,8e5\n",
}


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    for name, data in _linear_datasets().items():
        write_linear_csv(data, root / f"{name}.csv")
    for name, text in TABLES.items():
        (root / f"{name}.csv").write_text(text, encoding="utf-8")
    return root


def ini(sections):
    """INI text of {section: {key: text}}; a key whose text is None is
    left out."""
    return "".join(
        f"[{name}]\n" + "".join(f"{key} = {text}\n"
                                for key, text in keys.items()
                                if text is not None) + "\n"
        for name, keys in sections.items())


def scale(low, high):
    """Positive numbers from 10^low to 10^high, as config text."""
    return st.tuples(st.floats(1.0, 9.9), st.integers(low, high)).map(
        lambda t: f"{t[0]:.3g}e{t[1]}")


def grid(low, high, count=3):
    return st.tuples(scale(*low), scale(*high),
                     st.integers(1, count)).map(
        lambda t: f"{t[0]},{t[1]},{t[2]}")


SEED = st.integers(0, 2**32 - 1).map(str)
C2 = scale(-6, 20)
SIGMA2 = st.one_of(st.just((None, None)), st.just(("0", "0")),
                   st.tuples(scale(-3, 15), scale(-3, 300)))
VARIANTS = st.lists(st.sampled_from(POLICY_VARIANTS), min_size=1,
                    max_size=2, unique=True).map(", ".join)
VARIANT = st.sampled_from(POLICY_VARIANTS)
BASELINES = st.one_of(
    st.just({}), st.just({"baseline": "constant"}),
    st.floats(-50.0, 50.0).map(
        lambda w: {"baseline": "dimension", "log_weight": f"{w:.6g}"}),
    st.tuples(st.floats(2.0, 1e4), st.floats(0.01, 20.0)).map(
        lambda t: {"baseline": "calibrated", "n0": f"{t[0]:.6g}",
                   "psi0": f"{t[1]:.6g}"}))
LINEAR = st.sampled_from(sorted(_linear_datasets()))
TABLE = st.sampled_from(sorted(TABLES))
SPACE = {"factors": "A:2, B:2", "forced": "1, A, B", "candidates": "A*B"}
LEVELS = {"levels.A": "a1, a2", "levels.B": "b1, b2"}


def policy(draw, variants=VARIANTS):
    return {"variants": draw(variants), **draw(BASELINES)}


def linear_prior(draw, template="gprior", c2="c2"):
    alpha, lam = draw(SIGMA2)
    c2_text = draw(grid((-3, 2), (2, 20)) if c2 == "c2_grid" else C2)
    return {"template": template, c2: c2_text, "alpha": alpha,
            "lambda": lam}


def term_prior(draw):
    return {"template": "term_blocks",
            "scale": draw(st.none() | scale(-2, 6)),
            "scale.A*B": draw(st.none() | scale(-1, 2)),
            "c2": draw(st.none() | scale(-1, 6)),
            "metric": draw(st.sampled_from((None, "identity",
                                            "information"))),
            "mean.A*B": draw(st.none() | st.floats(-3.0, 3.0).map(
                lambda v: f"{v:.4g}"))}


def rjmcmc(draw):
    iterations = draw(st.integers(20, 300))
    return {"iterations": str(iterations),
            "burn_in": str(draw(st.integers(0, iterations // 2))),
            "thin": str(draw(st.integers(1, 3))),
            "jump_prob": f"{draw(st.floats(0.0, 1.0)):.3g}",
            "within_scale": draw(scale(-2, 1))}


def experiment(draw, task):
    return {"task": task, "seed": draw(SEED),
            "format": draw(st.sampled_from((None, "json")))}


def csv_data(root, name):
    return {"source": "csv", "path": str(root / f"{name}.csv")}


def sweep_sections(draw, root):
    return {"experiment": experiment(draw, "sweep"),
            "data": csv_data(root, draw(LINEAR)),
            "prior": linear_prior(draw, c2="c2_grid"),
            "policy": policy(draw),
            "sweep": {"top_k": str(draw(st.integers(0, 20))),
                      "watch": draw(st.sampled_from(
                          (None, "1", "1+X2", "1+X1+X3")))}}


def cv_sections(draw, root):
    return {"experiment": experiment(draw, "cv"),
            "data": csv_data(root, draw(LINEAR)),
            "prior": linear_prior(draw, c2=draw(st.sampled_from(
                ("c2", "c2_grid")))),
            "policy": policy(draw),
            "cv": {"mode": draw(st.sampled_from(("exact", "gelfand"))),
                   "num_draws": str(draw(st.integers(2, 40))),
                   "covariates": draw(st.sampled_from(
                       (None, "1", "2, 1", "1, 2, 3")))}}


def linear_rjmcmc_sections(draw, root):
    template = draw(st.sampled_from(("gprior", "identity")))
    return {"experiment": experiment(draw, "rjmcmc"),
            "data": csv_data(root, draw(LINEAR)),
            "prior": linear_prior(draw, template),
            "policy": policy(draw, VARIANT),
            "rjmcmc": rjmcmc(draw)}


def table_rjmcmc_sections(draw, root):
    return {"experiment": experiment(draw, "rjmcmc"),
            "data": {**csv_data(root, draw(TABLE)), **LEVELS},
            "space": SPACE,
            "prior": term_prior(draw),
            "policy": policy(draw, VARIANT),
            "rjmcmc": rjmcmc(draw)}


def shrinkage_sections(draw, root):
    return {"experiment": experiment(draw, "shrinkage"),
            "shrinkage": {
                "n": draw(scale(0, 6)),
                "beta_hat": f"{draw(st.floats(-5.0, 5.0)):.4g}",
                "sigma2": draw(scale(-3, 3)),
                "k_policy": draw(st.sampled_from(
                    ("fixed", "proportional_inverse_c"))),
                "k0": draw(scale(-2, 3)),
                "inv_c2_grid": draw(grid((-8, -2), (-2, 3), count=9))}}


def simulate_sections(draw, root):
    data = draw(st.one_of(
        st.sampled_from(("dfn", "nott_kohn")).map(
            lambda g: {"source": "generator", "generator": g}),
        LINEAR.map(lambda name: csv_data(root, name))))
    return {"experiment": experiment(draw, "simulate"), "data": data}


def prior_probs_sections(draw, root):
    return {"experiment": experiment(draw, "prior-probs"),
            "space": SPACE,
            "prior": term_prior(draw),
            "policy": policy(draw)}


@st.composite
def configs(draw, sections, root):
    """A valid config for the task, then up to two of its keys set to an
    edge value or left out."""
    chosen = sections(draw, root)
    keys = sorted((name, key) for name, section in chosen.items()
                  for key in section if name != "experiment"
                  or key != "task")
    for name, key in draw(st.lists(st.sampled_from(keys), max_size=2,
                                   unique=True)):
        chosen[name] = {**chosen[name],
                        key: draw(st.sampled_from(EDGES + (None,)))}
    return ini(chosen)


def run(task, path):
    """(exit code, stdout, stderr) of main on one config, in process."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error", RuntimeWarning)
        code = main([task, "--config", str(path)])
    return code, out.getvalue(), err.getvalue()


def numbers_in(stdout):
    """Every number the output prints: CSV or JSON cells and the
    provenance values."""
    if stdout.startswith("{"):
        payload = json.loads(stdout)
        cells = list(payload["provenance"].values())
        cells += [v for row in payload["rows"] for v in row]
        return [v for v in cells if isinstance(v, float)]
    out = []
    for line in stdout.splitlines():
        if line.startswith("# "):
            line = line.partition("=")[2]
        for cell in line.split(","):
            try:
                out.append(float(cell))
            except ValueError:
                pass
    return out


# Per kind: the task, its sections, and the exit codes its examples must
# reach, so the run is known to pass the parser into the numerics.
CONFIGS = {
    "sweep": ("sweep", sweep_sections, {0, 2, 3}),
    "cv": ("cv", cv_sections, {0, 2, 3}),
    "rjmcmc-linear": ("rjmcmc", linear_rjmcmc_sections, {0, 2, 3}),
    "rjmcmc-table": ("rjmcmc", table_rjmcmc_sections, {0, 2}),
    "shrinkage": ("shrinkage", shrinkage_sections, {0, 2}),
    "simulate": ("simulate", simulate_sections, {0, 2}),
    "prior-probs": ("prior-probs", prior_probs_sections, {0, 2}),
}


@pytest.mark.parametrize("kind", sorted(CONFIGS))
def test_every_config_exits_cleanly(data_dir, kind):
    task, sections, expected = CONFIGS[kind]
    reached = set()

    @settings(max_examples=80, deadline=None, derandomize=True,
              database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(configs(sections, data_dir))
    def check(text):
        path = data_dir / "fuzz.ini"
        path.write_text(text, encoding="utf-8")
        code, stdout, stderr = run(task, path)
        reached.add(code)
        if code == 0:
            assert stderr == "", text
            assert all(math.isfinite(v) for v in numbers_in(stdout)), text
        else:
            assert code in (2, 3, 4), text
            assert stdout == "", text
            assert len(stderr.splitlines()) == 1, (text, stderr)

    check()
    assert expected <= reached, reached
