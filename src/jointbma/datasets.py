"""Dataset generators and CSV ingestion.

Generators are deterministic in the seed (numpy default_rng bit stream,
covariates drawn before noise), so experiment outputs can be reproduced
from a config file alone. CSV loading is strict: a malformed cell is a
ParseError naming the row and column, not a silently dropped record.
"""
import csv
import logging

import numpy as np

from .exceptions import ParseError
from .glm_laplace import ContingencyTable
from .linear_exact import LinearDataset

__all__ = [
    "simulate_dfn",
    "simulate_nott_kohn",
    "load_linear_csv",
    "write_linear_csv",
    "load_contingency_csv",
]

log = logging.getLogger(__name__)


def simulate_dfn(seed):
    """n=50 with 15 independent standard normal covariates and
    Y ~ N(X4 + X5, 2.5^2), indices 1-based: the sparse signal hides in
    columns 4 and 5 of a pure-noise design."""
    rng = np.random.default_rng(int(seed))
    X = rng.standard_normal((50, 15))
    y = X[:, 3] + X[:, 4] + 2.5 * rng.standard_normal(50)
    labels = tuple(f"x{j + 1}" for j in range(15))
    return LinearDataset(y=y, X=X, labels=labels)


def simulate_nott_kohn(seed):
    """n=50, p=15 with engineered collinearity: X1..X10 iid N(0,1),
    X11..X15 each N(0.3X1 + 0.5X2 + 0.7X3 + 0.9X4 + 1.1X5, 1), and
    Y ~ N(4 + 2X1 - X5 + 1.5X7 + X11 + 0.5X13, 2.5^2)."""
    rng = np.random.default_rng(int(seed))
    X10 = rng.standard_normal((50, 10))
    shared = (0.3 * X10[:, 0] + 0.5 * X10[:, 1] + 0.7 * X10[:, 2]
              + 0.9 * X10[:, 3] + 1.1 * X10[:, 4])
    X5 = shared[:, None] + rng.standard_normal((50, 5))
    X = np.hstack([X10, X5])
    mean = (4.0 + 2.0 * X[:, 0] - X[:, 4] + 1.5 * X[:, 6] + X[:, 10]
            + 0.5 * X[:, 12])
    y = mean + 2.5 * rng.standard_normal(50)
    labels = tuple(f"x{j + 1}" for j in range(15))
    return LinearDataset(y=y, X=X, labels=labels)


def _read_table(path):
    """(header, rows) of a header-first CSV: header fields stripped, rows
    as (line_number, fields) pairs of the header's width. Blank lines and
    full-line '#' comments (command-line output prepends provenance that
    way) are skipped; line numbers stay physical to point at the file."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            rows = [(reader.line_num, row) for row in reader
                    if row and not row[0].lstrip().startswith("#")]
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc}") from exc
    if not rows:
        raise ParseError(f"{path} is empty")
    header = [h.strip() for h in rows[0][1]]
    for r, row in rows[1:]:
        if len(row) != len(header):
            raise ParseError(
                f"{path} row {r}: {len(row)} fields, expected {len(header)}")
    return header, rows[1:]


def load_linear_csv(path, response="y"):
    """Read a header-first CSV into a LinearDataset. Every non-response
    column becomes a covariate in file order; labels are preserved."""
    header, rows = _read_table(path)
    if len(set(header)) != len(header):
        dupes = sorted({h for h in header if header.count(h) > 1})
        raise ParseError(f"{path}: duplicate header fields {dupes}")
    if response not in header:
        raise ParseError(
            f"{path}: response column {response!r} not in header {header}")
    y_col = header.index(response)
    x_cols = [k for k in range(len(header)) if k != y_col]
    y, X = [], []
    for r, row in rows:
        values = []
        for k, cell in enumerate(row):
            text = cell.strip()
            if text == "":
                raise ParseError(
                    f"{path} row {r}, column {header[k]!r}: blank cell")
            try:
                values.append(float(text))
            except ValueError:
                raise ParseError(
                    f"{path} row {r}, column {header[k]!r}: "
                    f"non-numeric value {cell!r}")
        y.append(values[y_col])
        X.append([values[k] for k in x_cols])
    data = LinearDataset(y=np.array(y), X=np.array(X).reshape(len(y), -1),
                         labels=tuple(header[k] for k in x_cols))
    log.info("loaded %s: n=%d, p=%d, column rank %d", path, data.n, data.p,
             int(np.linalg.matrix_rank(data.X)))
    return data


def write_linear_csv(data, path, response="y"):
    """Inverse of load_linear_csv; floats carry 17 significant digits so
    the round-trip is lossless."""
    labels = data.labels or tuple(f"x{j + 1}" for j in range(data.p))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([response, *labels])
        for i in range(data.n):
            writer.writerow([f"{data.y[i]:.17g}",
                             *(f"{v:.17g}" for v in data.X[i])])


def load_contingency_csv(path, spec, levels):
    """Read long-format cell counts: one column per factor carrying
    level labels, plus a 'count' column. levels maps each factor name to
    its labels in level order. The table must be complete; row order is
    irrelevant."""
    for name, _ in spec.factors:
        if name not in levels:
            raise ParseError(f"no level labels supplied for factor {name!r}")
        if len(levels[name]) != spec.levels[name]:
            raise ParseError(
                f"factor {name!r} declares {spec.levels[name]} levels but "
                f"{len(levels[name])} labels were supplied")
    label_index = {name: {str(lab): i for i, lab in enumerate(levels[name])}
                   for name, _ in spec.factors}

    header, rows = _read_table(path)
    needed = [name for name, _ in spec.factors] + ["count"]
    for col in needed:
        if col not in header:
            raise ParseError(f"{path}: missing column {col!r} "
                             f"(have {header})")
    pos = {col: header.index(col) for col in needed}

    shape = [l for _, l in spec.factors]
    strides = np.cumprod([1] + shape[::-1])[:-1][::-1]
    counts = np.full(spec.n_cells, -1.0)
    for r, row in rows:
        flat = 0
        for k, (name, _) in enumerate(spec.factors):
            label = row[pos[name]].strip()
            if label not in label_index[name]:
                raise ParseError(
                    f"{path} row {r}: unknown level {label!r} for factor "
                    f"{name!r}")
            flat += label_index[name][label] * strides[k]
        text = row[pos["count"]].strip()
        try:
            value = float(text)
        except ValueError:
            raise ParseError(
                f"{path} row {r}: non-numeric count {text!r}")
        if value < 0 or not value.is_integer():
            raise ParseError(
                f"{path} row {r}: count must be a nonnegative integer, "
                f"got {text!r}")
        if counts[flat] >= 0:
            cell = tuple(row[pos[name]].strip() for name, _ in spec.factors)
            raise ParseError(f"{path} row {r}: duplicate cell {cell}")
        counts[flat] = value
    if np.any(counts < 0):
        missing = int(np.sum(counts < 0))
        raise ParseError(
            f"{path}: table incomplete, {missing} of {spec.n_cells} cells "
            "missing")
    return ContingencyTable(spec=spec, counts=counts)
