"""Convex per-observation losses with first and second derivatives.

A loss exposes, for response y and linear predictor eta: the value
l(y, eta), the first derivative u = dl/d(eta), and the second derivative
w = d2l/d(eta)2 >= 0; ``derivatives`` gives u and w from one evaluation.
The total model loss is the sum over observations.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError


def expit(z):
    """The logistic function 1 / (1 + e^-z), split by sign so that no
    exponent is positive: e^-|z| / (1 + e^-|z|) for z < 0."""
    z = np.asarray(z, dtype=float)
    e = np.exp(-np.abs(z))
    return np.where(z >= 0.0, 1.0, e) / (1.0 + e)


class LossModel:
    name = "abstract"

    def validate_response(self, y: np.ndarray) -> None:
        pass

    def values(self, y: np.ndarray, eta: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def first(self, y: np.ndarray, eta: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def second(self, y: np.ndarray, eta: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def derivatives(self, y: np.ndarray, eta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The first derivatives u and the weights w together, each equal
        to what ``first`` and ``second`` return."""
        return self.first(y, eta), self.second(y, eta)

    def total(self, y: np.ndarray, eta: np.ndarray) -> float:
        return float(self.values(y, eta).sum())


class SquaredErrorLoss(LossModel):
    """l(y, eta) = (y - eta)^2 / 2, so u = eta - y and w = 1.

    The half factor keeps the first derivative free of a constant 2;
    path directions are normalized, so the convention cancels there.
    """

    name = "squared"

    def values(self, y, eta):
        d = np.asarray(eta, dtype=float) - y
        return 0.5 * d * d

    def first(self, y, eta):
        return np.asarray(eta, dtype=float) - y

    def second(self, y, eta):
        return np.ones_like(np.asarray(eta, dtype=float))


class LogisticLoss(LossModel):
    """Negative Bernoulli log-likelihood for a 0/1 response.

    value = log(1 + e^eta) - y * eta, u = p - y, w = p (1 - p) with
    p = e^eta / (1 + e^eta). The log-sum-exp form stays finite for
    |eta| up to several hundred.
    """

    name = "logistic"

    def validate_response(self, y):
        y = np.asarray(y)
        if not np.all((y == 0) | (y == 1)):
            raise DataError("logistic loss needs a response in {0, 1}")

    def values(self, y, eta):
        self.validate_response(y)
        eta = np.asarray(eta, dtype=float)
        return np.logaddexp(0.0, eta) - y * eta

    def first(self, y, eta):
        self.validate_response(y)
        return expit(np.asarray(eta, dtype=float)) - y

    def second(self, y, eta):
        p = expit(np.asarray(eta, dtype=float))
        return p * (1.0 - p)

    def derivatives(self, y, eta):
        # One response check and one expit for both derivatives.
        self.validate_response(y)
        p = expit(np.asarray(eta, dtype=float))
        return p - y, p * (1.0 - p)


def squared_error_loss() -> LossModel:
    return SquaredErrorLoss()


def logistic_loss() -> LossModel:
    return LogisticLoss()
