"""Shared dense linear-algebra kernel.

Every determinant and quadratic form in the package starts from the
Cholesky routines here, in log space. A caller that evaluates the same
form many times (the joint RJ chain) forms the inverse factor L^{-1}
once with inv_factor and takes x' A^{-1} x as ||L^{-1} x||^2, a matmul
in place of a triangular solve; the result can differ from quad_form's
in the last bits. Near-singular matrices (condition number above
COND_CAP estimated from the factor) are rejected rather than
regularized, so exactness identities downstream stay meaningful.
chol_factor and factor_logdet also take a stack of matrices.
"""
import numpy as np

from .exceptions import NumericalDomainError

__all__ = [
    "COND_CAP",
    "chol_factor",
    "check_factor",
    "chol_logdet",
    "factor_logdet",
    "chol_solve",
    "quad_form",
    "inv_factor",
    "inv_pd",
    "log_sum_exp",
]

COND_CAP = 1e12


def _as_sym(a):
    a = np.asarray(a, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise NumericalDomainError(f"expected a square matrix, got shape {a.shape}")
    return 0.5 * (a + a.swapaxes(-1, -2))


def chol_factor(a, what="matrix"):
    """Lower Cholesky factor of a symmetric positive definite matrix, or
    of each in a stack (..., d, d).

    Raises NumericalDomainError when a factorization fails or when a
    factor indicates a condition number above COND_CAP. Zero-dimensional
    input returns an empty factor (log-determinant 0 by convention).
    """
    a = _as_sym(a)
    if a.shape[-1] == 0:
        return np.zeros(a.shape)
    try:
        L = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalDomainError(f"{what} is not positive definite") from exc
    return check_factor(L, what)


def check_factor(L, what="matrix"):
    """L, after chol_factor's conditioning rule on that lower Cholesky
    factor, or on each factor in a stack."""
    diag = L.diagonal(axis1=-2, axis2=-1)
    # cond2(A) = cond2(L)^2 >= ratio^2, a cheap bound that fences off the
    # pathological cases and nan; the ratio meets sqrt(COND_CAP) unsquared.
    ratio = float((diag.max(axis=-1) / diag.min(axis=-1)).max())
    if not ratio <= COND_CAP ** 0.5:
        raise NumericalDomainError(
            f"{what} is numerically singular (condition estimate "
            f"{ratio * ratio:.3e} exceeds {COND_CAP:.0e})"
        )
    return L


def chol_logdet(a, what="matrix"):
    """log|A| for symmetric positive definite A (0.0 for the 0x0 matrix)."""
    return factor_logdet(chol_factor(a, what))


def factor_logdet(L):
    """log|A| given the lower Cholesky factor L of A (0.0 for 0x0), or
    the array of log|A| over a stack of factors."""
    logdet = 2.0 * np.log(L.diagonal(axis1=-2, axis2=-1)).sum(axis=-1)
    return float(logdet) if L.ndim == 2 else logdet


def chol_solve(L, b):
    """Solve A x = b given the lower Cholesky factor L of A."""
    if L.shape[0] == 0:
        return np.zeros_like(np.asarray(b, dtype=float))
    y = np.linalg.solve(L, b)
    return np.linalg.solve(L.T, y)


def quad_form(L, x):
    """x' A^{-1} x given the lower Cholesky factor L of A."""
    x = np.asarray(x, dtype=float)
    if L.shape[0] == 0:
        return 0.0
    z = np.linalg.solve(L, x)
    return float(z @ z)


def inv_factor(L):
    """L^{-1} for a lower Cholesky factor L of A (0x0 for d = 0): then
    x' A^{-1} x = ||L^{-1} x||^2, and L^{-T} z with z standard normal is
    a N(0, A^{-1}) draw."""
    return np.linalg.solve(L, np.eye(L.shape[0]))


def inv_pd(a, what="matrix"):
    """Inverse of a symmetric positive definite matrix via its factor."""
    L = chol_factor(a, what)
    if L.shape[0] == 0:
        return np.zeros((0, 0))
    return chol_solve(L, np.eye(L.shape[0]))


def log_sum_exp(values):
    """log sum exp with max subtraction; -inf for an empty input."""
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        return -np.inf
    hi = np.max(v)
    if not np.isfinite(hi):
        return float(hi)
    return float(hi + np.log(np.sum(np.exp(v - hi))))
