"""Hermite polynomial checks against the defining formula and its identities."""

import mpmath
import numpy as np
import pytest

from chaoscal.errors import ValidationError
from chaoscal.hermite import _recurrence, hermite_upto


class TestValues:
    def test_low_orders(self):
        np.testing.assert_allclose(hermite_upto(2, 2.0), [1.0, 2.0, 1.5], rtol=0, atol=0)

    def test_order_zero(self):
        np.testing.assert_array_equal(hermite_upto(0, 7.3), [1.0])

    def test_symbolic_differentiation_oracle(self):
        # H_n(x) = ((-1)^n / n!) e^{x^2/2} d^n/dx^n e^{-x^2/2}
        x = 0.8
        vals = hermite_upto(5, x)
        with mpmath.workdps(40):
            for n in range(6):
                dn = mpmath.diff(lambda s: mpmath.exp(-(s**2) / 2), x, n)
                ref = (-1) ** n / mpmath.factorial(n) * mpmath.exp(x**2 / 2) * dn
                assert abs(vals[n] - float(ref)) < 1e-12

    def test_array_input_shape(self):
        x = np.linspace(-2, 2, 7).reshape(7, 1)
        vals = hermite_upto(3, x)
        assert vals.shape == (4, 7, 1)


class TestIdentities:
    def test_recurrence(self):
        x = np.linspace(-5, 5, 201)
        h = hermite_upto(21, x)
        for n in range(1, 20):
            lhs = (n + 1) * h[n + 1]
            rhs = x * h[n] - h[n - 1]
            assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_derivative_is_previous_order(self):
        x = np.linspace(-3, 3, 41)
        eps = 1e-6
        hp = hermite_upto(8, x + eps)
        hm = hermite_upto(8, x - eps)
        h = hermite_upto(8, x)
        for n in range(1, 9):
            fd = (hp[n] - hm[n]) / (2 * eps)
            denom = np.maximum(np.abs(h[n - 1]), 1e-8)
            assert np.max(np.abs(fd - h[n - 1]) / denom) < 1e-6

    def test_generating_function(self):
        # sum_n t^n H_n(x) -> exp(t x - t^2 / 2), remainder decreasing in N
        x, t = 1.3, 0.4
        target = np.exp(t * x - t * t / 2)
        h = hermite_upto(30, x)
        powers = t ** np.arange(31)
        partial = np.cumsum(powers * h)
        errs = np.abs(partial - target)
        assert errs[30] < 1e-14
        assert errs[30] < errs[10] < errs[3]

    def test_orthonormality_weighted(self):
        # E[H_m(Z) H_n(Z)] = delta_{mn} / n! via Gauss-Hermite quadrature
        from numpy.polynomial.hermite_e import hermegauss

        z, w = hermegauss(40)
        w = w / np.sqrt(2 * np.pi)
        h = hermite_upto(6, z)
        gram = np.einsum("k,ik,jk->ij", w, h, h)
        import math

        want = np.diag([1.0 / math.factorial(n) for n in range(7)])
        np.testing.assert_allclose(gram, want, atol=1e-10)


class TestErrors:
    def test_nonfinite_x(self):
        with pytest.raises(ValidationError):
            hermite_upto(3, np.nan)
        with pytest.raises(ValidationError):
            hermite_upto(3, np.array([1.0, np.inf]))

    def test_bad_order(self):
        with pytest.raises(ValidationError):
            hermite_upto(-1, 0.0)


class TestSharedRecurrence:
    """The in-place recurrence the path kernels build their tables with."""

    X = np.random.default_rng(8).standard_normal((3, 40))

    def table(self, n_max):
        table = np.empty((n_max + 2,) + self.X.shape)  # the last row spare
        table[0] = 1.0
        table[1] = self.X
        return table

    def test_plain_family_is_hermite_upto_bit_for_bit(self):
        table = self.table(9)
        _recurrence(table, 9)
        np.testing.assert_array_equal(table[:10], hermite_upto(9, self.X))

    def test_shifted_family_is_the_scaled_plain_one(self):
        # H_n(x; v) = v^{n/2} H_n(x / sqrt(v)), v one value a row of positions
        v = np.array([0.25, 1.0, 2.5])
        table = self.table(7)
        _recurrence(table, 7, v[:, None], table[-1])
        plain = hermite_upto(7, self.X / np.sqrt(v)[:, None])
        for n in range(8):
            want = v[:, None] ** (n / 2) * plain[n]
            np.testing.assert_allclose(table[n], want, rtol=1e-13, atol=1e-15)
