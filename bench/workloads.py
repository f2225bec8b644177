"""Seeded inputs for the four benchmark workloads.

Each workload writes its config and data files into its own work
directory; the program under test reads only those files. Data are
drawn here with numpy, not with the package's own generators, so the
inputs for a given seed stay fixed while the package changes. Configs
name their data files by relative path, so the output bytes (which carry
the config's sha256) do not depend on where the checkout lives.
"""
from dataclasses import dataclass
import csv
import itertools
import math
from pathlib import Path

import numpy as np

# One stream per workload, so adding a workload never shifts another's data.
_STREAM = {"sweep-p15": 1, "cv-p6": 2, "rj-loglinear-64": 3,
           "rj-linear-p12": 4}

# Contingency space of rj-loglinear-64: main effects forced, the six
# two-factor interactions selectable, so 2^6 = 64 hierarchical models.
FACTORS = (("A", 3), ("B", 2), ("C", 4), ("D", 3))
INTERACTIONS = tuple("*".join(pair) for pair in
                     itertools.combinations([f for f, _ in FACTORS], 2))
LOGLINEAR_ITERATIONS = 30000
LINEAR_RJ_ITERATIONS = 20000
RJ_BURN_IN = 2000
CV_COVARIATES = 6
LINEAR_RJ_COVARIATES = 12
SWEEP_GRID = (1e2, 1e20, 7)
SWEEP_POLICIES = ("uniform", "adjusted_c")
SWEEP_TOP_K = 5
SWEEP_WATCH = ("1+X4+X5",)
CV_C2 = 1e4
LINEAR_RJ_C2 = 1e4


@dataclass(frozen=True)
class Inputs:
    """What one workload hands the program, plus what its checks need."""

    name: str
    task: str
    config: str
    X: np.ndarray = None
    y: np.ndarray = None
    counts: np.ndarray = None
    units: int = 0
    unit_name: str = ""


def _rng(name, seed):
    return np.random.default_rng([int(seed), _STREAM[name]])


def dfn_data(rng):
    """n=50, p=15 independent N(0,1) covariates, y ~ N(X4 + X5, 2.5^2)."""
    X = rng.standard_normal((50, 15))
    y = X[:, 3] + X[:, 4] + 2.5 * rng.standard_normal(50)
    return X, y


def nott_kohn_data(rng):
    """n=50, p=15: X1..X10 iid N(0,1); X11..X15 each
    N(0.3X1 + 0.5X2 + 0.7X3 + 0.9X4 + 1.1X5, 1);
    y ~ N(4 + 2X1 - X5 + 1.5X7 + X11 + 0.5X13, 2.5^2)."""
    X10 = rng.standard_normal((50, 10))
    shared = X10[:, :5] @ np.array([0.3, 0.5, 0.7, 0.9, 1.1])
    X = np.hstack([X10, shared[:, None] + rng.standard_normal((50, 5))])
    mean = (4.0 + 2.0 * X[:, 0] - X[:, 4] + 1.5 * X[:, 6] + X[:, 10]
            + 0.5 * X[:, 12])
    return X, mean + 2.5 * rng.standard_normal(50)


def _effect_codes(levels):
    """Sum-to-zero coding: identity rows, then a row of -1."""
    return np.vstack([np.eye(levels - 1), -np.ones((1, levels - 1))])


def loglinear_counts(rng):
    """Poisson counts on the 3x2x4x3 grid (C order) from main effects
    plus A*D: log-mean log(700/3), main-effect coefficients at sd 0.15,
    interaction coefficients at sd 0.08."""
    levels = [l for _, l in FACTORS]
    cells = np.indices(levels).reshape(len(levels), -1).T
    eta = np.full(cells.shape[0], math.log(700.0 / 3.0))
    codes = [_effect_codes(l)[cells[:, k]] for k, l in enumerate(levels)]
    for k, l in enumerate(levels):
        eta += codes[k] @ rng.normal(0.0, 0.15, l - 1)
    a, d = 0, 3
    gamma = rng.normal(0.0, 0.08, (levels[a] - 1, levels[d] - 1))
    eta += np.einsum("ni,ij,nj->n", codes[a], gamma, codes[d])
    return rng.poisson(np.exp(eta)).astype(float)


def level_labels(name, levels):
    return [f"{name.lower()}{i + 1}" for i in range(levels)]


def _write_linear_csv(path, X, y):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(["y"] + [f"x{j + 1}" for j in range(X.shape[1])])
        for i in range(X.shape[0]):
            out.writerow([repr(float(y[i]))] + [repr(float(v)) for v in X[i]])


def _write_table_csv(path, counts):
    levels = [l for _, l in FACTORS]
    labels = [level_labels(n, l) for n, l in FACTORS]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow([n for n, _ in FACTORS] + ["count"])
        for flat, cell in enumerate(itertools.product(*map(range, levels))):
            out.writerow([labels[k][i] for k, i in enumerate(cell)]
                         + [int(counts[flat])])


def _write(path, text):
    Path(path).write_text(text, encoding="utf-8")


def _sweep(workdir, seed):
    X, y = dfn_data(_rng("sweep-p15", seed))
    _write_linear_csv(workdir / "data.csv", X, y)
    low, high, count = SWEEP_GRID
    _write(workdir / "config.ini", f"""[experiment]
task = sweep
seed = {seed}

[data]
source = csv
path = data.csv

[prior]
template = gprior
c2_grid = {low:g},{high:g},{count}

[policy]
variants = {", ".join(SWEEP_POLICIES)}

[sweep]
top_k = {SWEEP_TOP_K}
watch = {", ".join(SWEEP_WATCH)}
""")
    return Inputs("sweep-p15", "sweep", "config.ini", X=X, y=y,
                  units=2 ** X.shape[1], unit_name="model")


def _cv(workdir, seed):
    X, y = dfn_data(_rng("cv-p6", seed))
    _write_linear_csv(workdir / "data.csv", X, y)
    cols = ",".join(str(j + 1) for j in range(CV_COVARIATES))
    _write(workdir / "config.ini", f"""[experiment]
task = cv
seed = {seed}

[data]
source = csv
path = data.csv

[prior]
template = gprior
c2 = {CV_C2:g}

[policy]
variants = adjusted_c

[cv]
mode = exact
covariates = {cols}
""")
    return Inputs("cv-p6", "cv", "config.ini", X=X[:, :CV_COVARIATES], y=y,
                  units=2 ** CV_COVARIATES * X.shape[0],
                  unit_name="model-fold")


def _rj_loglinear(workdir, seed):
    counts = loglinear_counts(_rng("rj-loglinear-64", seed))
    _write_table_csv(workdir / "table.csv", counts)
    levels = "\n".join(f"levels.{n} = {', '.join(level_labels(n, l))}"
                       for n, l in FACTORS)
    scales = "\n".join(f"scale.{t} = 0.08" for t in INTERACTIONS)
    _write(workdir / "config.ini", f"""[experiment]
task = rjmcmc
seed = {seed}

[data]
source = csv
path = table.csv
{levels}

[space]
factors = {", ".join(f"{n}:{l}" for n, l in FACTORS)}
forced = 1, {", ".join(n for n, _ in FACTORS)}
candidates = {", ".join(INTERACTIONS)}

[prior]
template = term_blocks
scale = 48
{scales}

[policy]
variants = uniform

[rjmcmc]
iterations = {LOGLINEAR_ITERATIONS}
burn_in = {RJ_BURN_IN}
""")
    return Inputs("rj-loglinear-64", "rjmcmc", "config.ini", counts=counts,
                  units=LOGLINEAR_ITERATIONS, unit_name="iteration")


def _rj_linear(workdir, seed):
    X, y = nott_kohn_data(_rng("rj-linear-p12", seed))
    X = X[:, :LINEAR_RJ_COVARIATES]
    _write_linear_csv(workdir / "data.csv", X, y)
    _write(workdir / "config.ini", f"""[experiment]
task = rjmcmc
seed = {seed}

[data]
source = csv
path = data.csv

[prior]
template = gprior
c2 = {LINEAR_RJ_C2:g}

[policy]
variants = adjusted_info

[rjmcmc]
iterations = {LINEAR_RJ_ITERATIONS}
burn_in = {RJ_BURN_IN}
""")
    return Inputs("rj-linear-p12", "rjmcmc", "config.ini", X=X, y=y,
                  units=2 ** X.shape[1], unit_name="model")


BUILDERS = {"sweep-p15": _sweep, "cv-p6": _cv,
            "rj-loglinear-64": _rj_loglinear, "rj-linear-p12": _rj_linear}


def generate(name, workdir, seed):
    """Write workload `name`'s inputs for `seed` into workdir."""
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    return BUILDERS[name](workdir, seed)
