"""Cholesky kernel against direct numpy/scipy evaluations."""
from hypothesis import given, settings, strategies as st
import numpy as np
import pytest
from scipy.special import logsumexp

from jointbma._linalg import COND_CAP, chol_factor, chol_logdet, \
    chol_solve, inv_factor, inv_pd, log_sum_exp, quad_form
from jointbma.exceptions import NumericalDomainError


def random_spd(rng, d, spread=1.0):
    a = rng.standard_normal((d, d + 2))
    return a @ a.T + spread * np.eye(d)


def test_chol_factor_reconstructs():
    rng = np.random.default_rng(1)
    for d in (1, 2, 5, 9):
        a = random_spd(rng, d)
        L = chol_factor(a)
        assert np.allclose(L @ L.T, 0.5 * (a + a.T), atol=1e-10)
        assert np.allclose(L, np.tril(L))


def test_chol_logdet_matches_slogdet():
    rng = np.random.default_rng(2)
    for d in (1, 3, 7):
        a = random_spd(rng, d)
        sign, logdet = np.linalg.slogdet(a)
        assert sign > 0
        assert chol_logdet(a) == pytest.approx(logdet, rel=1e-12)


def test_zero_dimensional_conventions():
    # The solves take no branch of their own at d = 0: numpy's empty
    # solve gives the empty answer, and the empty quadratic form is 0.
    empty = np.zeros((0, 0))
    L = chol_factor(empty)
    assert L.shape == (0, 0)
    assert chol_logdet(empty) == 0.0
    q = quad_form(L, np.zeros(0))
    assert q == 0.0 and type(q) is float
    for b in (np.zeros(0), np.zeros((0, 3))):
        x = chol_solve(L, b)
        assert x.shape == b.shape and x.dtype == np.float64
    inv = inv_pd(empty)
    assert inv.shape == (0, 0) and inv.dtype == np.float64


def test_chol_solve_and_quad_form():
    rng = np.random.default_rng(3)
    a = random_spd(rng, 6)
    L = chol_factor(a)
    b = rng.standard_normal(6)
    x = chol_solve(L, b)
    assert np.allclose(a @ x, b, atol=1e-9)
    assert quad_form(L, b) == pytest.approx(b @ np.linalg.solve(a, b),
                                            rel=1e-10)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(0, 6), st.integers(0, 2**32 - 1))
def test_inv_factor_matches_triangular_solve_oracles(d, seed):
    # The joint chain's matmul forms against the triangular solves they
    # replace: ||L^{-1} x||^2 against quad_form, and a proposal
    # mode + L^{-T} z against mode + solve(L', z).
    rng = np.random.default_rng(seed)
    a = random_spd(rng, d) * 10.0 ** rng.uniform(-3.0, 3.0)
    L = chol_factor(a)
    W = inv_factor(L)
    assert W.shape == (d, d)
    x = 3.0 * rng.standard_normal(d)
    z = W @ x
    assert float(z @ z) == pytest.approx(quad_form(L, x), rel=1e-12, abs=0.0)
    mode = rng.standard_normal(d)
    draw = rng.standard_normal(d)
    offset = np.linalg.solve(L.T, draw)
    np.testing.assert_allclose(
        mode + W.T @ draw, mode + offset, rtol=1e-12,
        atol=1e-12 * float(np.max(np.abs(offset), initial=0.0)))


def test_inv_pd():
    rng = np.random.default_rng(4)
    a = random_spd(rng, 5)
    assert np.allclose(inv_pd(a) @ a, np.eye(5), atol=1e-9)


def test_rejects_indefinite():
    with pytest.raises(NumericalDomainError):
        chol_factor(np.array([[1.0, 2.0], [2.0, 1.0]]), "test matrix")


def test_rejects_ill_conditioned():
    bad = np.diag([1.0, 1.0 / (4.0 * COND_CAP)])
    with pytest.raises(NumericalDomainError, match="singular"):
        chol_factor(bad)


def test_rejects_nan_factor():
    # A nan in the matrix leaves numpy's factor nan without an error; the
    # conditioning rule must not pass it, alone or in a stack.
    bad = np.array([[np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(NumericalDomainError, match="singular"):
        chol_factor(bad)
    with pytest.raises(NumericalDomainError, match="singular"):
        chol_factor(np.stack([np.eye(2), bad[::-1, ::-1]]))


def test_rejects_non_square():
    with pytest.raises(NumericalDomainError):
        chol_factor(np.ones((2, 3)))


def test_log_sum_exp_matches_scipy():
    rng = np.random.default_rng(5)
    for _ in range(20):
        v = rng.standard_normal(rng.integers(1, 40)) * 100.0
        assert log_sum_exp(v) == pytest.approx(logsumexp(v), rel=1e-13)


def test_log_sum_exp_edge_cases():
    assert log_sum_exp([]) == -np.inf
    assert log_sum_exp([-np.inf, -np.inf]) == -np.inf
    # Huge values must not overflow.
    assert log_sum_exp([1e308, 1e308]) == pytest.approx(1e308 + np.log(2.0))
