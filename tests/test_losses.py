import warnings

import mpmath
import numpy as np
import pytest

from l1paths import DataError, logistic_loss, squared_error_loss
from l1paths.losses import expit
from oracles import central_difference, rng_for


class TestLogistic:
    def test_values_at_zero(self):
        loss = logistic_loss()
        y1, y0 = np.array([1.0]), np.array([0.0])
        eta = np.array([0.0])
        assert loss.values(y1, eta)[0] == pytest.approx(np.log(2.0))
        assert loss.values(y0, eta)[0] == pytest.approx(np.log(2.0))
        assert loss.first(y1, eta)[0] == pytest.approx(-0.5)
        assert loss.first(y0, eta)[0] == pytest.approx(0.5)
        assert loss.second(y1, eta)[0] == pytest.approx(0.25)

    def test_finite_difference_grid(self):
        loss = logistic_loss()
        rng = rng_for(11)
        etas = rng.uniform(-4.0, 4.0, 30)
        ys = (rng.random(30) < 0.5).astype(float)
        h = 1e-5
        u = loss.first(ys, etas)
        u_fd = central_difference(lambda e: loss.values(ys, e), etas, h)
        assert np.max(np.abs(u - u_fd) / np.maximum(np.abs(u_fd), 1e-10)) <= 1e-6
        w = loss.second(ys, etas)
        w_fd = central_difference(lambda e: loss.first(ys, e), etas, h)
        assert np.max(np.abs(w - w_fd) / np.maximum(np.abs(w_fd), 1e-10)) <= 1e-5

    def test_stable_at_large_eta(self):
        loss = logistic_loss()
        y = np.array([1.0, 0.0])
        eta = np.array([500.0, -500.0])
        vals = loss.values(y, eta)
        assert np.all(np.isfinite(vals))
        assert np.all(vals >= 0.0)
        assert loss.values(np.array([1.0]), np.array([500.0]))[0] == pytest.approx(0.0, abs=1e-200)

    def test_domain_error(self):
        with pytest.raises(DataError):
            logistic_loss().values(np.array([0.5]), np.array([0.0]))

    def test_convexity_spot_check(self):
        loss = logistic_loss()
        rng = rng_for(12)
        etas = rng.uniform(-30, 30, 100)
        ys = (rng.random(100) < 0.5).astype(float)
        assert np.all(loss.second(ys, etas) >= 0.0)


class TestSquaredError:
    def test_exact_fit(self):
        loss = squared_error_loss()
        assert loss.values(np.array([2.0]), np.array([2.0]))[0] == 0.0
        assert loss.first(np.array([2.0]), np.array([2.0]))[0] == 0.0

    def test_unit_example(self):
        loss = squared_error_loss()
        assert loss.values(np.array([1.0]), np.array([0.0]))[0] == pytest.approx(0.5)
        assert loss.first(np.array([1.0]), np.array([0.0]))[0] == pytest.approx(-1.0)
        assert loss.second(np.array([1.0]), np.array([0.0]))[0] == 1.0

    def test_total_gradient_matches_finite_differences(self):
        loss = squared_error_loss()
        rng = rng_for(13)
        X = rng.standard_normal((15, 3))
        y = rng.standard_normal(15)
        beta = rng.standard_normal(3)

        def total(b):
            return loss.total(y, X @ b)

        grad = X.T @ loss.first(y, X @ beta)
        h = 1e-6
        for j in range(3):
            e = np.zeros(3)
            e[j] = h
            fd = (total(beta + e) - total(beta - e)) / (2 * h)
            assert grad[j] == pytest.approx(fd, rel=1e-6, abs=1e-8)


class TestExpit:
    z = np.concatenate([np.linspace(-40.0, 40.0, 2001), np.linspace(-800.0, 800.0, 161),
                        [-745.0, -709.8, 1e-300, -1e-300, 709.8, 745.0]])

    def test_matches_high_precision_reference(self):
        with mpmath.workdps(50):
            exact = np.array([float(1 / (1 + mpmath.exp(-mpmath.mpf(v)))) for v in self.z])
        got = expit(self.z)
        eps = np.finfo(float).eps
        assert np.all(np.abs(got - exact) <= 3 * eps * exact)

    def test_no_overflow_and_symmetric(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            np.testing.assert_array_equal(expit(np.array([-800.0, 800.0])), [0.0, 1.0])
            total = expit(self.z) + expit(-self.z)
        assert np.max(np.abs(total - 1.0)) <= np.finfo(float).eps
