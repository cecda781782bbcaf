"""Multi-index enumeration: counts, order, and basis-element evaluation."""

import itertools
import math

import numpy as np
import pytest

from chaoscal import indices
from chaoscal.bases import PiecewiseConstantBasis
from chaoscal.calibrate import CalibrationConfig, calibrate
from chaoscal.errors import ValidationError
from chaoscal.hermite import hermite_upto
from chaoscal.indices import (
    MultiIndex,
    enumerate_indices,
    index_space_dim,
    phi_eval,
)
from chaoscal.model import ChaosModel
from chaoscal.modelio import index_order_hash, load_model, serialize_model
from chaoscal.pricing import PricingMethod, PricingSchedule
from chaoscal.quotes import Quote, QuoteSurface
from conftest import traced_peak


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


def brute_force(p, m, d):
    """Every M*d-tuple with 1 <= |a| <= p, sorted by (|a|, tuple)."""
    tuples = itertools.product(range(p + 1), repeat=m * d)
    return sorted((a for a in tuples if 1 <= sum(a) <= p), key=lambda a: (sum(a), a))


class TestOneEnumeration:
    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    @pytest.mark.parametrize("m,d", [(1, 1), (2, 1), (1, 2), (3, 1), (2, 2), (5, 1),
                                     (3, 2), (2, 3), (6, 1)])
    def test_matches_the_brute_force_oracle(self, p, m, d):
        assert [a.exponents for a in enumerate_indices(p, m, d)] == brute_force(p, m, d)

    def test_a_thousand_positions_need_no_recursion(self):
        idx = enumerate_indices(1, 1000, 1)
        assert len(idx) == 1000
        assert idx[0].exponents == (0,) * 999 + (1,)
        assert idx[-1].exponents == (1,) + (0,) * 999

    @pytest.mark.parametrize("shape,digest", [
        ((1, 1, 1), "bd85fe66f508a38a"),
        ((2, 2, 1), "31e1c12d7f3d608b"),
        ((2, 3, 1), "a43c26a3dbcfa774"),
        ((2, 4, 2), "dd9b8ae5c2cfeff2"),
        ((3, 2, 2), "95d17c84b0894539"),
        ((1, 5, 3), "dc39c63e2e81dc6c"),
        ((4, 3, 1), "5671a88d9c1d3d3b"),
    ])
    def test_order_hash_is_unchanged(self, shape, digest):
        # digests of model files written by the recursive enumeration
        assert index_order_hash(*shape) == digest

    def test_returns_a_fresh_list_over_shared_indices(self):
        first, second = enumerate_indices(2, 3, 1), enumerate_indices(2, 3, 1)
        assert first is not second
        assert all(a is b for a, b in zip(first, second))
        first.clear()
        assert len(enumerate_indices(2, 3, 1)) == 9

    def test_a_fit_enumerates_once(self, tmp_path):
        # 3 workspaces of 2 maturities, the model file written and read back:
        # each model, column plan and hash uses the one enumeration
        basis = PiecewiseConstantBasis.uniform(1.0, 3)
        model = ChaosModel(100.0, 2, 3, 1, basis, np.full(9, 0.5))
        quotes = QuoteSurface([Quote(t, k, "C", None, 0.2, 1.0, 100.0)
                               for t in (0.5, 1.0) for k in (95.0, 100.0, 105.0)], 100.0)
        cfg = CalibrationConfig(max_iterations=15, resim_every=5)
        sched = PricingSchedule(PricingMethod("mc", n_paths=500, beta_samples=500))
        indices._index_set.cache_clear()
        fitted, history = calibrate(model, quotes, cfg, sched)
        assert sum(row.resimulated for row in history) >= 3
        serialize_model(fitted, tmp_path / "fit.json")
        load_model(tmp_path / "fit.json")
        assert indices._index_set.cache_info().misses == 1

    @pytest.mark.parametrize("p,m,d", [(1, 1000, 1), (2, 100, 1), (2, 4, 2), (3, 10, 2),
                                       (4, 3, 2)])
    def test_set_bytes_cover_the_enumeration(self, p, m, d):
        def enumerate_all():
            for a in enumerate_indices(p, m, d):
                a.order, a.factorial  # noqa: B018 -- cached on first use

        indices._index_set.cache_clear()
        assert traced_peak(enumerate_all) <= indices._set_bytes(p, m, d)


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

