"""Multi-index enumeration: counts, order, and basis-element evaluation."""

import math

import numpy as np
import pytest

from chaoscal.errors import ValidationError
from chaoscal.hermite import hermite_upto
from chaoscal.indices import (
    MultiIndex,
    enumerate_indices,
    index_space_dim,
    phi_eval,
)


class TestEnumeration:
    def test_single_first_order(self):
        idx = enumerate_indices(1, 1, 1)
        assert len(idx) == 1
        assert idx[0].exponents == (1,)

    @pytest.mark.parametrize(
        "p,m,d,count", [(2, 7, 2, 119), (2, 12, 2, 324), (3, 10, 2, 1770)]
    )
    def test_parameter_counts(self, p, m, d, count):
        assert len(enumerate_indices(p, m, d)) == count
        assert index_space_dim(p, m, d) == count + 1

    def test_dim_examples(self):
        assert index_space_dim(2, 12, 2) == 325
        assert index_space_dim(2, 7, 2) == 120
        with pytest.raises(ValidationError, match="key 'p' must be at least 1, got 0"):
            index_space_dim(0, 5, 3)  # the constant alone is no model

    def test_graded_lex_order(self):
        idx = [a.exponents for a in enumerate_indices(2, 2, 1)]
        assert idx == [(0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]

    def test_order_and_factorial_cached(self):
        a = MultiIndex((2, 0, 3, 1))
        assert a.order == 6
        assert a.factorial == math.factorial(2) * math.factorial(3)

    def test_bounds(self):
        idx = enumerate_indices(3, 2, 2)
        assert all(1 <= a.order <= 3 for a in idx)
        assert len(set(a.exponents for a in idx)) == len(idx)

    def test_preconditions(self):
        with pytest.raises(ValidationError):
            enumerate_indices(0, 3, 1)
        with pytest.raises(ValidationError):
            index_space_dim(2, 0, 1)
        with pytest.raises(ValidationError):
            MultiIndex((1, -1))


class TestPhiEval:
    def test_first_order_is_identity(self):
        a = MultiIndex((1, 0, 0))
        assert phi_eval(a, [0.37, 5.0, -2.0]) == pytest.approx(0.37)

    def test_h2_at_one_is_zero(self):
        a = MultiIndex((2, 0))
        assert phi_eval(a, [1.0, 9.9]) == pytest.approx(0.0)

    def test_against_naive_product(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            exps = rng.multinomial(3, np.full(6, 1 / 6))
            a = MultiIndex(tuple(int(e) for e in exps))
            z = rng.standard_normal(6)
            want = 1.0
            for pos, n in enumerate(a.exponents):
                want *= hermite_upto(n, z[pos])[n]
            assert phi_eval(a, z) == pytest.approx(want, rel=1e-13)

    def test_vectorized_paths(self):
        a = MultiIndex((1, 2))
        z = np.random.default_rng(3).standard_normal((50, 2))
        vals = phi_eval(a, z)
        assert vals.shape == (50,)
        np.testing.assert_allclose(vals, z[:, 0] * (z[:, 1] ** 2 - 1) / 2)

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            phi_eval(MultiIndex((1, 0)), [1.0, 2.0, 3.0])

