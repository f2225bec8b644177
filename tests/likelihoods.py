"""Likelihoods that exist only to validate the Laplace machinery."""
import math

import numpy as np

from jointbma.exceptions import ContractError


class GaussianKnownVar:
    """Normal likelihood with known variance. Its log-likelihood is
    exactly quadratic, so the penalized Laplace value must match the
    analytic marginal; exists to validate the machinery."""

    domain_bound = None

    def __init__(self, X, y, sigma2):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float).reshape(-1)
        sigma2 = float(sigma2)
        if X.ndim != 2 or X.shape[0] != y.shape[0]:
            raise ContractError(
                f"design shape {X.shape} does not match {y.shape[0]} rows")
        if not (sigma2 > 0.0):
            raise ContractError(f"sigma2 must be positive, got {sigma2}")
        self.X = X
        self.y = y
        self.sigma2 = sigma2

    @property
    def dim(self):
        return self.X.shape[1]

    def loglik(self, beta):
        r = self.y - self.X @ beta
        n = self.y.shape[0]
        return float(-0.5 * (n * math.log(2.0 * math.pi * self.sigma2)
                             + r @ r / self.sigma2))

    def grad(self, beta):
        return self.X.T @ (self.y - self.X @ beta) / self.sigma2

    def neg_hessian(self, beta):
        return self.X.T @ self.X / self.sigma2
