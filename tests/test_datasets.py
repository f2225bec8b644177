"""Generators and CSV ingestion.

Least-squares recovery uses a plain lstsq oracle with classical
standard errors; everything else is determinism, round-trips, and
strict parse errors pointing at the offending cell.
"""
import numpy as np
import pytest

from jointbma.datasets import load_contingency_csv, load_linear_csv, \
    simulate_dfn, simulate_nott_kohn, write_linear_csv
from jointbma.exceptions import ParseError
from jointbma.model_space import FactorSpec


def ls_fit(X, y):
    """OLS coefficients and classical standard errors."""
    coef, *_ = np.linalg.lstsq(X, y, rcond=None)
    resid = y - X @ coef
    dof = X.shape[0] - X.shape[1]
    s2 = float(resid @ resid) / dof
    cov = s2 * np.linalg.inv(X.T @ X)
    return coef, np.sqrt(np.diag(cov))


def test_dfn_shape_determinism_and_variances():
    a = simulate_dfn(7)
    b = simulate_dfn(7)
    assert a.n == 50 and a.p == 15
    assert a.labels == tuple(f"x{j + 1}" for j in range(15))
    assert np.array_equal(a.y, b.y) and np.array_equal(a.X, b.X)
    assert not np.array_equal(a.y, simulate_dfn(8).y)
    for seed in (1, 2, 3, 4, 5):
        X = simulate_dfn(seed).X
        v = X.var(axis=0, ddof=1)
        assert np.all(v > 0.4) and np.all(v < 1.8), seed


def test_dfn_least_squares_recovery():
    for seed in (1, 2, 3):
        data = simulate_dfn(seed)
        D = np.column_stack([np.ones(data.n), data.X[:, 3], data.X[:, 4]])
        coef, se = ls_fit(D, data.y)
        for got, truth, s in zip(coef, (0.0, 1.0, 1.0), se):
            assert abs(got - truth) < 3.0 * s, seed


def test_nott_kohn_collinearity_and_recovery():
    a = simulate_nott_kohn(3)
    assert a.n == 50 and a.p == 15
    assert np.array_equal(a.X, simulate_nott_kohn(3).X)

    corrs = []
    for seed in range(100):
        X = simulate_nott_kohn(seed).X
        corrs.append(np.corrcoef(X[:, 10], X[:, 4])[0, 1])
    assert np.mean(corrs) > 0.3

    truth = np.zeros(16)
    truth[0] = 4.0
    truth[1] = 2.0
    truth[5] = -1.0
    truth[7] = 1.5
    truth[11] = 1.0
    truth[13] = 0.5
    data = simulate_nott_kohn(12)
    D = np.column_stack([np.ones(data.n), data.X])
    coef, se = ls_fit(D, data.y)
    assert np.all(np.abs(coef - truth) < 3.0 * se)


def test_linear_csv_round_trip(tmp_path):
    data = simulate_nott_kohn(5)
    path = tmp_path / "sim.csv"
    write_linear_csv(data, path)
    back = load_linear_csv(path)
    assert np.array_equal(back.y, data.y)
    assert np.array_equal(back.X, data.X)
    assert back.labels == data.labels


def test_linear_csv_small_and_response_column(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("x,y\n1,10\n2,20\n3,30\n")
    data = load_linear_csv(path)
    assert data.n == 3 and data.p == 1
    assert np.array_equal(data.y, [10.0, 20.0, 30.0])
    assert data.labels == ("x",)

    flipped = load_linear_csv(path, response="x")
    assert np.array_equal(flipped.y, [1.0, 2.0, 3.0])
    assert flipped.labels == ("y",)


def test_linear_csv_comment_and_blank_line_skipping(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("# config_sha256=abc\n# seed=7\nx,y\n\n1,10\n2,20\n")
    data = load_linear_csv(path)
    assert data.n == 2


def test_linear_csv_parse_errors(tmp_path):
    path = tmp_path / "t.csv"

    path.write_text("")
    with pytest.raises(ParseError, match="empty"):
        load_linear_csv(path)

    path.write_text("x,y\n1,10\n2,\n")
    with pytest.raises(ParseError, match=r"row 3, column 'y'.*blank"):
        load_linear_csv(path)

    # physical line numbers survive comment skipping
    path.write_text("# hello\nx,y\n1,10\n2,oops\n")
    with pytest.raises(ParseError, match=r"row 4, column 'y'.*'oops'"):
        load_linear_csv(path)

    path.write_text("x,x,y\n1,2,3\n")
    with pytest.raises(ParseError, match="duplicate header"):
        load_linear_csv(path)

    path.write_text("a,b\n1,2\n")
    with pytest.raises(ParseError, match="response column 'y'"):
        load_linear_csv(path)

    path.write_text("x,y\n1,2,3\n")
    with pytest.raises(ParseError, match="row 2: 3 fields, expected 2"):
        load_linear_csv(path)

    with pytest.raises(ParseError, match="cannot read"):
        load_linear_csv(tmp_path / "absent.csv")


@pytest.fixture
def spec22():
    return FactorSpec(factors=(("R", 2), ("C", 2)),
                      forced_terms=((), ("R",), ("C",)),
                      candidate_terms=(("R", "C"),))


LEVELS22 = {"R": ("lo", "hi"), "C": ("a", "b")}


def table_text(rows):
    return "R,C,count\n" + "\n".join(rows) + "\n"


def test_contingency_row_major_and_permutation(tmp_path, spec22):
    path = tmp_path / "t.csv"
    path.write_text(table_text(["lo,a,1", "lo,b,2", "hi,a,3", "hi,b,4"]))
    table = load_contingency_csv(path, spec22, LEVELS22)
    assert np.array_equal(table.counts, [1.0, 2.0, 3.0, 4.0])

    path.write_text(table_text(["hi,b,4", "lo,b,2", "hi,a,3", "lo,a,1"]))
    permuted = load_contingency_csv(path, spec22, LEVELS22)
    assert np.array_equal(permuted.counts, table.counts)


def test_contingency_file_and_count_text_errors(tmp_path, spec22):
    path = tmp_path / "t.csv"
    path.write_bytes(b"R,C,count\nlo,a,1\nlo,b,\xff\nhi,a,3\nhi,b,4\n")
    with pytest.raises(ParseError, match="is not UTF-8 text"):
        load_contingency_csv(path, spec22, LEVELS22)
    path.write_text(table_text(["lo,a,1", "lo,b,two", "hi,a,3", "hi,b,4"]))
    with pytest.raises(ParseError, match="row 3: non-numeric count 'two'"):
        load_contingency_csv(path, spec22, LEVELS22)


def test_contingency_extra_columns_and_comments(tmp_path, spec22):
    path = tmp_path / "t.csv"
    path.write_text("# provenance\nnote,R,C,count\nq,lo,a,1\nq,lo,b,2\n"
                    "q,hi,a,3\nq,hi,b,4\n")
    table = load_contingency_csv(path, spec22, LEVELS22)
    assert np.array_equal(table.counts, [1.0, 2.0, 3.0, 4.0])


def test_contingency_parse_errors(tmp_path, spec22):
    path = tmp_path / "t.csv"

    path.write_text(table_text(["lo,a,1", "lo,b,2", "hi,a,3"]))
    with pytest.raises(ParseError, match="incomplete, 1 of 4"):
        load_contingency_csv(path, spec22, LEVELS22)

    path.write_text(table_text(["lo,a,1", "lo,b,2", "hi,a,3", "hi,zz,4"]))
    with pytest.raises(ParseError, match="row 5: unknown level 'zz'"):
        load_contingency_csv(path, spec22, LEVELS22)

    path.write_text(table_text(["lo,a,1", "lo,a,2", "hi,a,3", "hi,b,4"]))
    with pytest.raises(ParseError, match="duplicate cell"):
        load_contingency_csv(path, spec22, LEVELS22)

    path.write_text(table_text(["lo,a,-1", "lo,b,2", "hi,a,3", "hi,b,4"]))
    with pytest.raises(ParseError, match="nonnegative integer"):
        load_contingency_csv(path, spec22, LEVELS22)

    path.write_text(table_text(["lo,a,1.5", "lo,b,2", "hi,a,3", "hi,b,4"]))
    with pytest.raises(ParseError, match="nonnegative integer"):
        load_contingency_csv(path, spec22, LEVELS22)

    # Non-finite counts parse as floats but are no counts either.
    for bad in ("nan", "inf"):
        path.write_text(table_text(["lo,a,1", "lo,b,2", f"hi,a,{bad}",
                                    "hi,b,4"]))
        with pytest.raises(ParseError, match="row 4: count must be a "
                                             "nonnegative integer"):
            load_contingency_csv(path, spec22, LEVELS22)

    path.write_text("R,C,n\nlo,a,1\n")
    with pytest.raises(ParseError, match="missing column 'count'"):
        load_contingency_csv(path, spec22, LEVELS22)

    path.write_text(table_text(["lo,a,1", "lo,b,2", "hi,a,3", "hi,b,4"]))
    with pytest.raises(ParseError, match="labels were supplied"):
        load_contingency_csv(path, spec22, {"R": ("lo",), "C": ("a", "b")})
    with pytest.raises(ParseError, match="no level labels"):
        load_contingency_csv(path, spec22, {"R": ("lo", "hi")})


def test_linear_csv_response_only(tmp_path, caplog):
    # An n x 0 design has column rank 0 through the general rank rule.
    path = tmp_path / "t.csv"
    path.write_text("y\n1\n2\n3\n")
    with caplog.at_level("INFO", logger="jointbma.datasets"):
        data = load_linear_csv(path)
    assert data.n == 3 and data.p == 0 and data.X.shape == (3, 0)
    assert np.array_equal(data.y, [1.0, 2.0, 3.0])
    assert data.labels == ()
    assert "p=0, column rank 0" in caplog.text
