"""Pricing engines: Gauss-Hermite rule, tensor quadrature, CV Monte Carlo."""

import os
import subprocess
import sys
import textwrap
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.stats import norm

import chaoscal
from chaoscal import model as model_module
from chaoscal import pricing
from chaoscal.bases import (BrownianDriver, LegendreBasis, PiecewiseConstantBasis, cell_index,
                            sample_integrals)
from chaoscal.conditional import piecewise_features
from chaoscal.errors import ConfigError, NumericError, ValidationError
from chaoscal.indices import MultiIndex, _set_bytes, enumerate_indices
from chaoscal.model import (
    ChaosModel,
    path_grid,
    sample_features,
    second_moment,
    terminal_values,
)
from chaoscal.pricing import (
    PricingMethod,
    PricingSchedule,
    estimate_cv,
    gauss_hermite_rule,
    mc_call_price,
    price_surface,
    quad_call_price,
    quad_nodes_features,
)

DESK_MODEL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "bench", "desk_model.json")


def make_model(basis, p, d, theta, s0=100.0):
    return ChaosModel(s0, p, basis.size, d, basis, theta)


def single_coeff_model(basis, p, d, index_exponents, value, s0=100.0):
    """Model whose only nonzero coefficient sits on one multi-index."""
    indices = enumerate_indices(p, basis.size, d)
    theta = np.zeros(len(indices))
    theta[indices.index(MultiIndex(tuple(index_exponents)))] = value
    return make_model(basis, p, d, theta, s0)


class TestGaussHermiteRule:
    def test_n1(self):
        z, w = gauss_hermite_rule(1)
        assert z.tolist() == [0.0]
        assert w.tolist() == [1.0]

    def test_n2_roots_of_x2_minus_1(self):
        z, w = gauss_hermite_rule(2)
        np.testing.assert_allclose(np.sort(z), [-1.0, 1.0], atol=1e-14)
        np.testing.assert_allclose(w, [0.5, 0.5], atol=1e-14)

    def test_gaussian_moments_n10(self):
        z, w = gauss_hermite_rule(10)
        assert abs(w.sum() - 1.0) < 1e-12
        assert abs(w @ z) < 1e-12
        assert abs(w @ z**2 - 1.0) < 1e-12
        assert abs(w @ z**3) < 1e-12
        assert abs(w @ z**4 - 3.0) < 1e-12
        assert abs(w @ z**6 - 15.0) < 1e-11

    def test_degree_exactness_boundary(self):
        # degree 2n-1 is integrated exactly, degree 2n is not
        z, w = gauss_hermite_rule(3)
        assert abs(w @ z**5) < 1e-12
        assert abs(w @ z**6 - 15.0) > 1.0

    @pytest.mark.parametrize("n", [0, -2, 129])
    def test_range_checked(self, n):
        with pytest.raises(ValidationError):
            gauss_hermite_rule(n)


class TestQuadCallPrice:
    def test_theta_zero_itm(self):
        basis = PiecewiseConstantBasis.uniform(1.0, 2)
        model = make_model(basis, 2, 1, np.zeros(len(enumerate_indices(2, 2, 1))))
        assert quad_call_price(model, 0.5, 90.0, 20) == pytest.approx(10.0, abs=1e-12)

    def test_theta_zero_otm(self):
        basis = PiecewiseConstantBasis.uniform(1.0, 2)
        model = make_model(basis, 2, 1, np.zeros(len(enumerate_indices(2, 2, 1))))
        assert quad_call_price(model, 0.5, 110.0, 20) == 0.0

    def test_half_normal_atm(self):
        # S_T = S_0 + c Z at T = s_1, so the ATM call is E[(cZ)_+] = c/sqrt(2pi).
        # The integrand has a kink at z = 0, so tensor Gauss-Hermite converges
        # slowly there; 40 nodes carry an O(1e-3) relative error (the rule is
        # only exact for polynomials), which the node-count sweep checks.
        basis = PiecewiseConstantBasis.uniform(1.0, 2)
        c = 3.7
        model = single_coeff_model(basis, 1, 1, (1, 0), c)
        exact = c / np.sqrt(2.0 * np.pi)
        err40 = abs(quad_call_price(model, 0.5, 100.0, 40) - exact)
        err128 = abs(quad_call_price(model, 0.5, 100.0, 128) - exact)
        assert err40 < 5e-3 * c
        assert err128 < err40

    def test_bachelier_off_money(self):
        basis = PiecewiseConstantBasis.uniform(1.0, 2)
        c, k, s0 = 5.0, 104.0, 100.0
        model = single_coeff_model(basis, 1, 1, (1, 0), c, s0)
        d = (s0 - k) / c
        exact = (s0 - k) * norm.cdf(d) + c * norm.pdf(d)
        assert quad_call_price(model, 0.5, k, 128) == pytest.approx(exact, abs=5e-3 * c)

    def test_running_cell_scaling(self):
        # mid-cell maturity scales the first-order feature by sqrt(tau)
        basis = PiecewiseConstantBasis.uniform(1.0, 2)
        c = 4.0
        model = single_coeff_model(basis, 1, 1, (1, 0), c)
        t, tau = 0.2, 0.4
        ceff = c * np.sqrt(tau)
        exact = ceff / np.sqrt(2.0 * np.pi)
        got = quad_call_price(model, t, 100.0, 64)
        assert got == pytest.approx(exact, abs=5e-3 * ceff)

    def test_smooth_payoff_is_exact(self):
        # deep ITM: payoff linear over the node range, so the rule integrates
        # the degree-P polynomial exactly and the price is the forward value
        basis = PiecewiseConstantBasis.uniform(1.0, 3)
        rng = np.random.default_rng(7)
        theta = 0.5 * rng.standard_normal(len(enumerate_indices(2, 3, 1)))
        model = make_model(basis, 2, 1, theta)
        p40 = quad_call_price(model, 1.0 / 3.0, 50.0, 40)
        p80 = quad_call_price(model, 1.0 / 3.0, 50.0, 80)
        assert p40 == pytest.approx(50.0, abs=1e-9)
        assert abs(p40 - p80) < 1e-7

    def test_dimension_cap(self):
        basis = PiecewiseConstantBasis.uniform(2.0, 7)
        n = len(enumerate_indices(2, 7, 2))
        model = make_model(basis, 2, 2, np.zeros(n))
        t3 = basis.grid[3] - 1e-3  # cell 3, u*d = 6
        # the build is bounded in bytes, not in dimension: 40^6 rows are
        # refused, 5^6 = 15,625 rows price
        with pytest.raises(ConfigError, match=r"n_nodes = 40 at u\*d = 6 would "
                                              r"allocate \d+ bytes"):
            quad_call_price(model, t3, 100.0, 40)
        assert quad_call_price(model, t3, 100.0, 5) == pytest.approx(0.0, abs=1e-12)

    def test_node_build_bounded_in_bytes(self, monkeypatch):
        # 128 nodes at u*d = 4 are 128^4 = 2.7e8 rows: refused from the byte
        # count alone, before any node array exists
        basis = PiecewiseConstantBasis.uniform(1.0, 4)
        model = make_model(basis, 2, 1, np.zeros(len(enumerate_indices(2, 4, 1))))

        def no_nodes(*args, **kwargs):
            raise AssertionError("node arrays built before the byte check")

        monkeypatch.setattr(pricing, "gauss_hermite_rule", no_nodes)
        with pytest.raises(ConfigError, match=r"n_nodes = 128 at u\*d = 4 would "
                                              r"allocate \d+ bytes"):
            quad_nodes_features(model, 1.0, 128)

    @pytest.mark.parametrize("p, m, d, t, n", [
        (3, 4, 1, 1.0, 12),  # the bench's quadrature fit
        (2, 4, 1, 0.75, 40),
        (2, 4, 2, 0.5, 10),
        (2, 2, 2, 1.0, 9),
    ])
    def test_node_build_peak_within_its_byte_count(self, p, m, d, t, n):
        model = make_model(PiecewiseConstantBasis.uniform(1.0, m), p, d,
                           np.zeros(len(enumerate_indices(p, m, d))))
        quad_nodes_features(model, t, n)  # lazy set-up outside the trace
        tracemalloc.start()
        try:
            weights, feats = quad_nodes_features(model, t, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        u = cell_index(model.basis, t)
        assert peak <= pricing._quad_node_bytes(n, u * d, m * d, len(model.indices), p)
        # reference: the meshgrid build of nodes and weights, bit for bit
        z, w = gauss_hermite_rule(n)
        mesh = lambda x: np.stack([g.ravel() for g in np.meshgrid(
            *([x] * (u * d)), indexing="ij")], axis=1)
        pts = mesh(z)
        zfull = np.zeros((len(pts), m * d))
        for a in range(u * d):
            j, i = divmod(a, u)
            zfull[:, j * m + i] = pts[:, a]
        np.testing.assert_array_equal(weights, np.prod(mesh(w), axis=1))
        np.testing.assert_array_equal(
            feats, piecewise_features(model.basis, model.indices, t, zfull, d))

    def test_legendre_rejected(self):
        basis = LegendreBasis(1.0, 3)
        model = make_model(basis, 2, 1, np.zeros(len(enumerate_indices(2, 3, 1))))
        with pytest.raises(ConfigError):
            quad_call_price(model, 0.5, 100.0, 10)

    def test_weights_and_features_reusable(self):
        basis = PiecewiseConstantBasis.uniform(1.0, 2)
        rng = np.random.default_rng(3)
        theta = 0.1 * rng.standard_normal(len(enumerate_indices(2, 2, 1)))
        model = make_model(basis, 2, 1, theta)
        w, f = quad_nodes_features(model, 0.5, 30)
        s = model.s0 + f @ model.coefficients
        for k in (95.0, 100.0, 105.0):
            direct = quad_call_price(model, 0.5, k, 30)
            assert float(np.einsum("i,i->", w, np.maximum(s - k, 0.0))) == direct


class TestEstimateCv:
    BASIS = PiecewiseConstantBasis.uniform(1.0, 2)

    def rand_model(self, seed=11, scale=0.4):
        rng = np.random.default_rng(seed)
        n = len(enumerate_indices(2, 2, 1))
        return make_model(self.BASIS, 2, 1, scale * 100.0 * rng.standard_normal(n) / n)

    def test_theta_zero_degrades(self):
        model = make_model(self.BASIS, 2, 1, np.zeros(len(enumerate_indices(2, 2, 1))))
        driver = BrownianDriver(1)
        block = sample_features(model, 1.0, 100, driver, tags=(0,))
        with pytest.warns(RuntimeWarning):
            cv = estimate_cv(model, block, 100.0, 2, driver, 500, tags=(1,))
        assert cv.degree == 0
        assert cv.beta.size == 0

    def test_deep_itm_beta_one(self):
        # K ten standard deviations below S_0: Y = X_1 + const a.s., beta -> 1
        basis = self.BASIS
        c = 2.0
        model = single_coeff_model(basis, 1, 1, (1, 0), c)
        driver = BrownianDriver(5)
        block = sample_features(model, 1.0, 100, driver, tags=(0,))
        cv = estimate_cv(model, block, model.s0 - 10 * c, 1, driver, 50_000, tags=(1,))
        assert cv.degree == 1
        assert cv.beta[0] == pytest.approx(1.0, abs=1e-3)

    def test_r_squared_in_unit_interval(self):
        model = self.rand_model()
        driver = BrownianDriver(6)
        block = sample_features(model, 1.0, 100, driver, tags=(0,))
        cv = estimate_cv(model, block, 100.0, 2, driver, 20_000, tags=(1,))
        assert 0.0 < cv.r_squared < 1.0

    def test_betas_match_direct_regression(self):
        # recompute the covariance solve on the identical (tagged) sample
        model = self.rand_model(seed=2)
        driver = BrownianDriver(7)
        block = sample_features(model, 1.0, 100, driver, tags=(0,))
        cv = estimate_cv(model, block, 98.0, 2, driver, 4_000, tags=(9, 9))
        est = sample_features(model, 1.0, 4_000, driver, tags=(9, 9))
        s = terminal_values(model, est)
        y = np.maximum(s - 98.0, 0.0)
        x = np.stack([s - model.s0, s**2 - second_moment(model, 1.0)], axis=1)
        xc = x - x.mean(axis=0)
        beta = np.linalg.solve(xc.T @ xc, xc.T @ (y - y.mean()))
        np.testing.assert_allclose(cv.beta, beta, rtol=1e-10)

    def test_degree_validated(self):
        model = self.rand_model()
        driver = BrownianDriver(6)
        block = sample_features(model, 1.0, 10, driver, tags=(0,))
        with pytest.raises(ValidationError):
            estimate_cv(model, block, 100.0, 3, driver, 100)

    def test_one_beta_sample_refused_before_drawing(self, monkeypatch):
        # one sample has no covariance at ddof 1: numpy warned and then
        # failed to converge in the SVD
        model = self.rand_model()
        block = sample_features(model, 1.0, 10, BrownianDriver(6), tags=(0,))

        def draw(*args, **kwargs):
            raise AssertionError("drawn before beta_samples was checked")

        monkeypatch.setattr(pricing, "_cv_draw", draw)
        for bad in (1, 0):
            with pytest.raises(ValidationError, match=rf"^beta_samples must be at least 2, "
                                                      rf"got {bad}$"):
                estimate_cv(model, block, 100.0, 1, BrownianDriver(6), bad)

    def test_overflowing_covariance_raises_naming_the_maturity(self):
        # coefficients of order 1e80: S_T is finite, but the sums of the
        # squared degree-2 variate overflow, and numpy's SVD failed to
        # converge on the NaN correlation
        model = self.rand_model()
        big = model.with_coefficients(1e80 * model.coefficients)
        driver = BrownianDriver(6)
        block = sample_features(big, 1.0, 10, driver, tags=(0,))
        with pytest.raises(NumericError, match=r"^control-variate covariance at maturity "
                                               r"1.0 is not finite"):
            estimate_cv(big, block, 100.0, 2, driver, 1000, tags=(1,))
        cv = estimate_cv(model.with_coefficients(1e60 * model.coefficients), block,
                         100.0, 2, driver, 1000, tags=(1,))
        assert cv.degree == 2


class TestMcCallPrice:
    def test_theta_zero_exact(self):
        basis = PiecewiseConstantBasis.uniform(1.0, 2)
        model = make_model(basis, 2, 1, np.zeros(len(enumerate_indices(2, 2, 1))))
        block = sample_features(model, 1.0, 1_000, BrownianDriver(0), tags=(0,))
        price, se = mc_call_price(model, block, 90.0)
        assert price == 10.0
        assert se == 0.0

    def test_one_sample_has_no_standard_error(self):
        basis = PiecewiseConstantBasis.uniform(1.0, 2)
        model = make_model(basis, 2, 1, np.zeros(len(enumerate_indices(2, 2, 1))))
        block = sample_features(model, 1.0, 1, BrownianDriver(0), tags=(0,))
        with pytest.raises(ValidationError, match="at least 2 samples"):
            mc_call_price(model, block, 90.0)

    def test_half_normal_within_3se(self):
        basis = PiecewiseConstantBasis.uniform(1.0, 2)
        c = 3.0
        model = single_coeff_model(basis, 1, 1, (1, 0), c)
        driver = BrownianDriver(21)
        block = sample_features(model, 1.0, 200_000, driver, tags=(0,))
        price, se = mc_call_price(model, block, 100.0)
        assert abs(price - c / np.sqrt(2 * np.pi)) < 3 * se

    def test_cv_shrinks_se_and_agrees(self):
        basis = PiecewiseConstantBasis.uniform(1.0, 3)
        rng = np.random.default_rng(4)
        n = len(enumerate_indices(2, 3, 1))
        model = make_model(basis, 2, 1, 8.0 * rng.standard_normal(n) / n)
        driver = BrownianDriver(22)
        block = sample_features(model, 1.0, 100_000, driver, tags=(0,))
        plain, se0 = mc_call_price(model, block, 100.0)
        cv1 = estimate_cv(model, block, 100.0, 1, driver, 10_000, tags=(1,))
        p1, se1 = mc_call_price(model, block, 100.0, cv1)
        cv2 = estimate_cv(model, block, 100.0, 2, driver, 10_000, tags=(2,))
        p2, se2 = mc_call_price(model, block, 100.0, cv2)
        assert se2 <= se1 <= se0
        assert abs(p1 - plain) < 4 * se0
        assert abs(p2 - plain) < 4 * se0

    def test_cross_engine_agreement(self):
        basis = PiecewiseConstantBasis.uniform(1.0, 3)
        rng = np.random.default_rng(9)
        n = len(enumerate_indices(2, 3, 1))
        model = make_model(basis, 2, 1, 6.0 * rng.standard_normal(n) / n)
        t = 2.0 / 3.0  # cell 2, two quadrature axes
        driver = BrownianDriver(23)
        block = sample_features(model, t, 150_000, driver, tags=(0,))
        mc, se = mc_call_price(model, block, 101.0)
        q64 = quad_call_price(model, t, 101.0, 64)
        q32 = quad_call_price(model, t, 101.0, 32)
        assert abs(q64 - mc) < 3 * se + abs(q64 - q32)

    def test_unbiasedness_over_repetitions(self):
        # CV-adjusted estimates scatter around the plain long-run mean (4 sigma)
        basis = PiecewiseConstantBasis.uniform(1.0, 2)
        c = 5.0
        model = single_coeff_model(basis, 1, 1, (1, 0), c)
        driver = BrownianDriver(24)
        exact = c / np.sqrt(2 * np.pi)
        reps = []
        for r in range(25):
            block = sample_features(model, 1.0, 4_000, driver, tags=(r, 0))
            cv = estimate_cv(model, block, 100.0, 2, driver, 4_000, tags=(r, 1))
            price, _ = mc_call_price(model, block, 100.0, cv)
            reps.append(price)
        reps = np.asarray(reps)
        assert abs(reps.mean() - exact) < 4 * reps.std(ddof=1) / np.sqrt(len(reps))

    def test_variance_ordering(self):
        basis = PiecewiseConstantBasis.uniform(1.0, 2)
        rng = np.random.default_rng(13)
        n = len(enumerate_indices(2, 2, 1))
        model = make_model(basis, 2, 1, 10.0 * rng.standard_normal(n) / n)
        driver = BrownianDriver(25)
        block0 = sample_features(model, 1.0, 2_000, driver, tags=(99,))
        cv1 = estimate_cv(model, block0, 100.0, 1, driver, 20_000, tags=(100,))
        cv2 = estimate_cv(model, block0, 100.0, 2, driver, 20_000, tags=(101,))
        est = {0: [], 1: [], 2: []}
        for r in range(60):
            block = sample_features(model, 1.0, 2_000, driver, tags=(r,))
            est[0].append(mc_call_price(model, block, 100.0)[0])
            est[1].append(mc_call_price(model, block, 100.0, cv1)[0])
            est[2].append(mc_call_price(model, block, 100.0, cv2)[0])
        v0, v1, v2 = (np.var(est[k], ddof=1) for k in (0, 1, 2))
        assert v2 <= v1 * 1.1
        assert v1 <= v0 * 1.1
        assert v2 < v0  # strict overall reduction

    def test_determinism_same_tags(self):
        basis = PiecewiseConstantBasis.uniform(1.0, 2)
        rng = np.random.default_rng(3)
        n = len(enumerate_indices(2, 2, 1))
        model = make_model(basis, 2, 1, rng.standard_normal(n))
        a = sample_features(model, 1.0, 5_000, BrownianDriver(77), tags=(1, 2))
        b = sample_features(model, 1.0, 5_000, BrownianDriver(77), tags=(1, 2))
        pa, _ = mc_call_price(model, a, 100.0)
        pb, _ = mc_call_price(model, b, 100.0)
        assert pa == pb


class _Quote:
    def __init__(self, maturity, strike, discount_factor=1.0, forward=None):
        self.maturity = maturity
        self.strike = strike
        self.discount_factor = discount_factor
        self.forward = forward if forward is not None else 100.0


class _Surface:
    def __init__(self, quotes):
        self.quotes = quotes


class TestPriceSurface:
    BASIS = PiecewiseConstantBasis.uniform(1.0, 2)

    def zero_model(self):
        n = len(enumerate_indices(2, 2, 1))
        return make_model(self.BASIS, 2, 1, np.zeros(n))

    def test_theta_zero_surface_intrinsic(self):
        model = self.zero_model()
        quotes = _Surface(
            [_Quote(t, k) for t in (0.5, 1.0) for k in (90.0, 100.0, 110.0)]
        )
        sched = PricingSchedule(default=PricingMethod("mc", n_paths=500, cv_degree=0))
        prices = price_surface(model, quotes, sched, BrownianDriver(1))
        want = [max(100.0 - q.strike, 0.0) for q in quotes.quotes]
        np.testing.assert_allclose(prices, want, atol=1e-12)

    def test_forward_discount_transform(self):
        # theta = 0 prices to discounted forward intrinsic DF (F - K)_+
        model = self.zero_model()
        quotes = _Surface([_Quote(0.5, 95.0, discount_factor=0.97, forward=104.0)])
        sched = PricingSchedule(default=PricingMethod("quad", n_nodes=5))
        prices = price_surface(model, quotes, sched, BrownianDriver(1))
        assert prices[0] == pytest.approx(0.97 * (104.0 - 95.0), abs=1e-12)

    def test_schedule_selects_engine(self):
        rng = np.random.default_rng(17)
        n = len(enumerate_indices(2, 2, 1))
        model = make_model(self.BASIS, 2, 1, 6.0 * rng.standard_normal(n) / n)
        quotes = _Surface([_Quote(0.5, 100.0), _Quote(0.5, 100.0)])
        sched_q = PricingSchedule(default=PricingMethod("quad", n_nodes=64))
        sched_m = PricingSchedule(
            default=PricingMethod("mc", n_paths=200_000, cv_degree=1)
        )
        driver = BrownianDriver(31)
        pq = price_surface(model, quotes, sched_q, driver)
        pm = price_surface(model, quotes, sched_m, driver)
        assert pq[0] == pq[1]
        assert pm[0] == pm[1]
        block = sample_features(model, 0.5, 200_000, driver, tags=(0, 0, 0))
        _, se = mc_call_price(model, block, 100.0)
        q32 = quad_call_price(model, 0.5, 100.0, 32)
        assert abs(pq[0] - pm[0]) < 3 * se + abs(pq[0] - q32)

    def test_per_maturity_schedule_entries(self):
        rng = np.random.default_rng(18)
        n = len(enumerate_indices(2, 2, 1))
        model = make_model(self.BASIS, 2, 1, 4.0 * rng.standard_normal(n) / n)
        quotes = _Surface([_Quote(0.5, 100.0), _Quote(1.0, 100.0)])
        sched = PricingSchedule(
            default=PricingMethod("mc", n_paths=5_000, cv_degree=2),
            entries=((0.5, PricingMethod("quad", n_nodes=40)),),
        )
        prices = price_surface(model, quotes, sched, BrownianDriver(32))
        assert prices[0] == quad_call_price(model, 0.5, 100.0, 40)
        assert prices[1] != prices[0]

    def test_schedule_rejects_one_maturity_twice(self):
        mc, quad = PricingMethod("mc"), PricingMethod("quad")
        with pytest.raises(ValidationError, match="entries 0 and 2 both name maturity"):
            PricingSchedule(entries=((0.5, mc), (1.0, mc), (0.5 + 1e-10, quad)))
        sched = PricingSchedule(entries=((0.5, mc), (0.5 + 1e-8, quad)))
        assert sched.for_maturity(0.5 + 1e-8) is quad

    def test_maturity_beyond_horizon_lists_offenders(self):
        model = self.zero_model()
        quotes = _Surface([_Quote(0.5, 100.0), _Quote(1.5, 100.0)])
        sched = PricingSchedule(default=PricingMethod("quad", n_nodes=5))
        with pytest.raises(ValidationError, match="1.5"):
            price_surface(model, quotes, sched, BrownianDriver(1))

    def test_method_validation(self):
        with pytest.raises(ValidationError):
            PricingMethod("fourier")
        with pytest.raises(ValidationError):
            PricingMethod("mc", cv_degree=3)
        with pytest.raises(ValidationError):
            PricingMethod("quad", n_nodes=0)
        for size in ("n_paths", "cv_degree", "beta_samples", "n_nodes"):
            for bad in (True, 2.0, "2"):
                with pytest.raises(ValidationError, match=f"'{size}' must be an integer"):
                    PricingMethod("mc", **{size: bad})


def block_model(kind):
    """(model, CV degree): a 44-coefficient piecewise model (p=2, m=4, d=2)
    with degree 2, or a 14-coefficient Legendre one (p=2, m=4, d=1) with
    degree 1, the most its basis allows; terminal spread about 20."""
    rng = np.random.default_rng(31)
    if kind == "piecewise":
        basis, d, degree = PiecewiseConstantBasis.uniform(1.0, 4), 2, 2
    else:
        basis, d, degree = LegendreBasis(1.0, 4), 1, 1
    n = len(enumerate_indices(2, 4, d))
    return make_model(basis, 2, d, 20.0 * rng.standard_normal(n) / np.sqrt(n)), degree


def strike_quotes(maturities, strikes):
    return SimpleNamespace(quotes=[
        SimpleNamespace(maturity=t, strike=k, discount_factor=1.0, forward=100.0)
        for t in maturities for k in strikes])


class TestBasisCheckedBeforeDrawing:
    """Every maturity's method is checked against the basis before the first
    draw: here the first maturity is priceable, the second is not."""

    @pytest.mark.parametrize("entry,key", [
        (PricingMethod("mc", cv_degree=2), "'cv_degree' = 2"),
        (PricingMethod("quad", n_nodes=8), "'kind' = 'quad'"),
    ], ids=["cv_degree", "quad"])
    def test_legendre_schedule_raises_before_any_draw(self, monkeypatch, entry, key):
        from chaoscal.calibrate import CalibrationConfig, calibrate

        def draw(*args, **kwargs):
            raise AssertionError("paths drawn before the schedule was checked")

        for module in (model_module, pricing):
            monkeypatch.setattr(module, "_sample_terminal", draw)
        monkeypatch.setattr(model_module, "_feature_blocks", draw)
        model, _ = block_model("legendre")
        sched = PricingSchedule(PricingMethod("mc", cv_degree=1),
                                entries=((1.0, entry),))
        quotes = SimpleNamespace(spot=100.0, quotes=[
            SimpleNamespace(maturity=t, strike=100.0, discount_factor=1.0,
                            forward=100.0, mid_price=5.0, implied_vol=0.2)
            for t in (0.5, 1.0)])
        with pytest.raises(ValidationError, match=f"key {key} .*maturity 1.0"):
            price_surface(model, quotes, sched, BrownianDriver(3))
        with pytest.raises(ValidationError, match=f"key {key} .*maturity 1.0"):
            calibrate(model, quotes, CalibrationConfig(max_iterations=3), sched)


class TestPreflightBeforeDrawing:
    """Called from Python, every pricing entry point refuses what the
    commands refuse, before its first draw: a maturity past the horizon by
    any margin, or sizes over the byte cap."""

    SCHED = PricingSchedule(PricingMethod("mc", n_paths=3000, beta_samples=2000))

    @pytest.fixture(autouse=True)
    def no_draws(self, monkeypatch):
        def draw(*args, **kwargs):
            raise AssertionError("paths drawn before the pre-flight")

        monkeypatch.setattr(model_module, "_feature_blocks", draw)
        monkeypatch.setattr(model_module, "_block_walk", draw)

    @staticmethod
    def run(entry, maturities):
        from chaoscal.calibrate import CalibrationConfig, build_workspace, calibrate, loss

        model, _ = block_model("piecewise")
        quotes = SimpleNamespace(spot=100.0, quotes=[
            SimpleNamespace(maturity=t, strike=100.0, discount_factor=1.0,
                            forward=100.0, mid_price=5.0, implied_vol=0.2)
            for t in maturities])
        args = model, quotes, np.ones(len(maturities)), TestPreflightBeforeDrawing.SCHED
        driver = BrownianDriver(3)
        if entry == "price_surface":
            price_surface(model, quotes, args[3], driver)
        elif entry == "build_workspace":
            build_workspace(*args, driver)
        elif entry == "loss":
            loss(*args, driver)
        else:
            calibrate(model, quotes, CalibrationConfig(max_iterations=3), args[3])

    ENTRIES = ["price_surface", "build_workspace", "loss", "calibrate"]

    @pytest.mark.parametrize("entry", ENTRIES)
    def test_quote_just_past_the_horizon(self, entry):
        with pytest.raises(ValidationError,
                           match=r"^maturities \[1.0000000000005\] beyond horizon 1.0$"):
            self.run(entry, (0.5, 1.0 + 5e-13))

    @pytest.mark.parametrize("entry", ENTRIES)
    def test_surface_over_the_byte_cap(self, monkeypatch, entry):
        monkeypatch.setattr(pricing, "MAX_BYTES", 100_000)
        with pytest.raises(ValidationError, match=r"^44 coefficients at n_paths = 3000, .*"
                                                  r"\(schedule, maturity (0.5|1.0)\) need "
                                                  r"\d+ bytes, above the 100000-byte cap$"):
            self.run(entry, (0.5, 1.0))

    def test_path_grid_over_the_byte_cap(self, monkeypatch):
        monkeypatch.setattr(model_module, "MAX_BYTES", 100_000)
        model, _ = block_model("piecewise")
        with pytest.raises(ValidationError, match=r"n_paths = 3000 at n_times = 5 need"):
            path_grid(model, np.linspace(0.0, 1.0, 5), 3000, BrownianDriver(3))


class TestRowBlocks:
    """Feature rows are drawn, built and reduced in row blocks; the blocks
    change no bits, and no whole feature matrix is held outside calibration."""

    N = 5003  # an odd path count: the last block is short

    def outputs(self, model, degree):
        driver = BrownianDriver(41)
        quotes = strike_quotes((0.6, 1.0), (90.0, 100.0, 110.0))
        sched = PricingSchedule(PricingMethod("mc", n_paths=self.N, cv_degree=degree,
                                              beta_samples=self.N))
        groups = list(pricing._maturity_groups(model, quotes, sched, driver, (3,)))
        return {
            "prices": price_surface(model, quotes, sched, driver),
            "terminal": [g.terminal for g in groups],
            "betas": [(g.beta1, g.beta2) for g in groups],
            "features": sample_features(model, 0.6, self.N, driver, tags=(1,)).features,
            "paths": path_grid(model, np.linspace(0.0, 1.0, 9), self.N, driver,
                               tags=(2,)),
        }

    @pytest.mark.parametrize("kind", ["piecewise", "legendre"])
    def test_blocks_of_1024_rows_change_no_bits(self, monkeypatch, kind):
        model, degree = block_model(kind)
        shape = model.p, model.m, model.d
        assert model_module._block_rows(*shape) > self.N  # one block by default
        whole = self.outputs(model, degree)
        monkeypatch.setattr(model_module, "_BLOCK_BYTES", 1)
        assert model_module._block_rows(*shape) == 1024  # five blocks, the last short
        blocked = self.outputs(model, degree)
        for key, value in whole.items():
            np.testing.assert_array_equal(np.asarray(value), np.asarray(blocked[key]),
                                          err_msg=key)

    def test_price_surface_peak_grows_by_terminal_values_and_payoffs_only(self):
        # the 44 feature columns (8 * 44 bytes a path) are never held whole:
        # per added path the peak grows by less than S_T, the sample weights,
        # one payoff per strike and one temporary
        model, _ = block_model("piecewise")
        strikes = (90.0, 95.0, 100.0, 105.0, 110.0)
        quotes = strike_quotes((1.0,), strikes)

        def peak(n_paths):
            sched = PricingSchedule(PricingMethod("mc", n_paths=n_paths, cv_degree=2,
                                                  beta_samples=10_000))
            tracemalloc.start()
            try:
                price_surface(model, quotes, sched, BrownianDriver(3))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        growth = (peak(400_000) - peak(100_000)) / 300_000
        assert growth < 8 * (len(strikes) + 3)


# Reductions that c13's 5-strike, CV-MC surface never reaches: a 10-strike MC
# maturity, 40^3 = 64,000 quadrature nodes (u*d = 3) and the CV R^2, on a
# model with a terminal spread of about 20; and the exact interval sampler
# (eigendecomposition of each interval covariance, einsum with the draws)
# over 64 times for both bases, plus a Legendre path_grid.  The desk model
# (argv[1]) prices 100003 paths, where an unaligned OpenBLAS row split of
# features @ theta moved the last bits between 1 and 2 or 4 threads.  The
# Heston reference steps 3 path blocks, one a worker up to the CPU count, and
# `exotics` at 40000 paths steps 3 blocks of each simulator on one pool.  A
# Monte Carlo fit of 3 maturities over 2 workspaces runs its draws and
# passes on a pool of one worker a build task up to the CPU count.
_THREADS_SCRIPT = textwrap.dedent("""
    import contextlib
    import hashlib
    import io
    import json
    import os
    import sys
    import tempfile
    from types import SimpleNamespace
    import numpy as np
    from chaoscal.cli import main
    from chaoscal.bases import (BrownianDriver, LegendreBasis,
                                PiecewiseConstantBasis, sample_integrals)
    from chaoscal.calibrate import CalibrationConfig, calibrate
    from chaoscal.indices import enumerate_indices
    from chaoscal.model import ChaosModel, path_grid, sample_features, terminal_values
    from chaoscal.modelio import load_model
    from chaoscal.pricing import (PricingMethod, PricingSchedule, estimate_cv,
                                  price_surface, quad_call_price)
    from chaoscal.reference import (HestonParams, RoughHestonParams, heston_simulate,
                                    lewis_call_price, rough_heston_cf)
    from chaoscal.vol import bs_call

    n = len(enumerate_indices(2, 4, 1))
    theta = 20.0 * np.random.default_rng(5).standard_normal(n) / np.sqrt(n)
    model = ChaosModel(100.0, 2, 4, 1, PiecewiseConstantBasis.uniform(1.0, 4), theta)
    quotes = [SimpleNamespace(maturity=t, strike=k, discount_factor=1.0,
                              forward=100.0)
              for t, ks in ((0.6, (95.0, 100.0, 105.0)),
                            (1.0, np.linspace(80.0, 120.0, 10)))
              for k in ks]
    sched = PricingSchedule(
        default=PricingMethod("mc", n_paths=50_000, cv_degree=2,
                              beta_samples=20_000),
        entries=((0.6, PricingMethod("quad", n_nodes=40)),),
    )
    driver = BrownianDriver(21)
    prices = price_surface(model, SimpleNamespace(quotes=quotes), sched, driver)
    quad = quad_call_price(model, 0.6, 100.0, 40)
    block = sample_features(model, 1.0, 10, driver, tags=(8,))
    cv = estimate_cv(model, block, 100.0, 2, driver, 20_000, tags=(9,))
    times = np.linspace(0.0, 1.0, 65)[1:]
    leg_ints = sample_integrals(LegendreBasis(1.0, 6), driver, times, 10_000,
                                d=2, tags=(10,))
    pw_ints = sample_integrals(PiecewiseConstantBasis.uniform(1.0, 6), driver,
                               times, 10_000, d=2, tags=(11,))
    leg = ChaosModel(100.0, 2, 4, 1, LegendreBasis(1.0, 4), theta)
    leg_paths = path_grid(leg, times[3::4], 20_000, driver, tags=(12,))
    rough = RoughHestonParams(HestonParams(100.0, 1.5, 0.04, 0.3, -0.7, 0.04), 0.75)
    rough_cf = rough_heston_cf(np.linspace(0.1, 50.0, 210) - 0.5j, 1.0, rough)
    # 0.5 and 1.0 share the Adams step, so one solve serves the surface
    rough_surface = lewis_call_price(lambda u, t: rough_heston_cf(u, t, rough), 100.0,
                                     np.array([95.0, 105.0]), np.array([0.5, 1.0]))
    heston = heston_simulate(rough.heston, [0.0, 0.1, 0.2], 140_000, driver, tags=(13,),
                             return_variance=True)
    desk = load_model(sys.argv[1])
    desk_s = terminal_values(desk, sample_features(desk, 1.0, 100_003, BrownianDriver(0),
                                                   tags=(0, 4, 0)))
    desk_paths = path_grid(desk, np.linspace(0.0, 1.0, 5), 100_003, BrownianDriver(0),
                           tags=(7001,))
    with tempfile.TemporaryDirectory() as tmp:
        files = {name: os.path.join(tmp, name) for name in ("spec", "ref", "csv")}
        with open(files["spec"], "w") as handle:
            json.dump({"monitoring_steps": 16, "contracts": [
                {"type": "forward_start", "tau": 0.5, "maturity": 1.0, "strike_ratio": 1.0},
                {"type": "down_and_out", "maturity": 1.0, "strike": 100.0, "barrier": 85.0},
                {"type": "lookback", "maturity": 1.0}]}, handle)
        with open(files["ref"], "w") as handle:
            json.dump({"s0": 100.0, "kappa": 1.5, "vbar": 0.04, "eps": 0.5, "rho": -0.7,
                       "v0": 0.04}, handle)
        with contextlib.redirect_stdout(io.StringIO()):  # its line names the file
            assert main(["exotics", "--model", sys.argv[1], "--spec", files["spec"],
                         "--reference", files["ref"], "--paths", "40000", "--seed", "3",
                         "--out", files["csv"]]) == 0
        with open(files["csv"], "rb") as handle:
            exotics = handle.read()
    fit_quotes = SimpleNamespace(spot=100.0, quotes=[
        SimpleNamespace(maturity=t, strike=k, discount_factor=1.0, forward=100.0,
                        implied_vol=0.2, mid_price=bs_call(100.0, k, t, 0.2),
                        option_type="C")
        for t in (0.3, 0.6, 1.0) for k in (95.0, 100.0, 105.0)])
    fitted, history = calibrate(
        model, fit_quotes, CalibrationConfig(max_iterations=6, resim_every=3, seed=4),
        PricingSchedule(PricingMethod("mc", n_paths=20_000, beta_samples=5_000)))
    fit = np.concatenate([[r.loss for r in history], fitted.coefficients])
    for name, value in (("prices", prices), ("quad", quad), ("fit", fit),
                        ("r2", cv.r_squared), ("leg_ints", leg_ints),
                        ("pw_ints", pw_ints), ("leg_paths", leg_paths),
                        ("rough_cf", rough_cf), ("rough_surface", rough_surface),
                        ("heston", heston), ("desk_s", desk_s),
                        ("desk_paths", desk_paths), ("exotics", np.frombuffer(exotics, np.uint8))):
        print(name, hashlib.sha256(np.asarray(value).tobytes()).hexdigest())
""")


class TestByteBound:
    """The pre-flight byte counts bound what pricing, `path_grid` and the
    exotics fold hold."""

    @staticmethod
    def peak(run):
        run()  # column plans and lazy set-up outside the trace
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @staticmethod
    def assert_bound_covers(monkeypatch, model, quotes, sched, peak, features):
        # the bound must exceed a cap one byte under the measured peak
        monkeypatch.setattr(pricing, "MAX_BYTES", peak - 1)
        with pytest.raises(ValidationError, match=r"need \d+ bytes"):
            pricing._check_surface(model.p, model.m, model.d, model.basis, quotes, sched,
                                 "schedule", features)

    # 3000 paths are one block, 30000 several; with one maturity nothing of
    # another is alive, with three the last one's arrays are
    @pytest.mark.parametrize("maturities", [(1.0,), (0.4, 0.7, 1.0)])
    @pytest.mark.parametrize("n_paths", [3_000, 30_000])
    @pytest.mark.parametrize("kind", ["piecewise", "legendre"])
    def test_price_surface_peak_within_the_bound(self, monkeypatch, kind, n_paths,
                                                 maturities):
        model, degree = block_model(kind)
        quotes = strike_quotes(maturities, (90.0, 100.0, 110.0))
        sched = PricingSchedule(PricingMethod("mc", n_paths=n_paths, cv_degree=degree,
                                              beta_samples=2_000))
        peak = self.peak(lambda: price_surface(model, quotes, sched, BrownianDriver(3)))
        self.assert_bound_covers(monkeypatch, model, quotes, sched, peak, False)

    @pytest.mark.parametrize("maturities", [(1.0,), (0.4, 0.7, 1.0)])
    @pytest.mark.parametrize("n_paths", [3_000, 30_000])
    def test_fit_workspace_peak_within_the_bound(self, monkeypatch, n_paths, maturities):
        from chaoscal.calibrate import _normal_equations, build_workspace, workspace_loss

        model, _ = block_model("piecewise")
        quotes = strike_quotes(maturities, (90.0, 100.0, 110.0))
        for q in quotes.quotes:
            q.mid_price = 5.0
        sched = PricingSchedule(PricingMethod("mc", n_paths=n_paths, beta_samples=2_000))

        def fit_pass():  # a trial's loss pass hands its S_T to the Jacobian after it
            ws = build_workspace(model, quotes, np.ones(len(quotes.quotes)), sched,
                                 BrownianDriver(3))
            _normal_equations(ws, model.coefficients)
            kept = []
            workspace_loss(ws, model.coefficients, kept)
            _normal_equations(ws, model.coefficients, kept)

        self.assert_bound_covers(monkeypatch, model, quotes, sched, self.peak(fit_pass),
                                 True)

    @pytest.mark.parametrize("n_paths", [3_000, 30_000])
    @pytest.mark.parametrize("kind", ["piecewise", "legendre"])
    def test_path_grid_peak_within_the_bound(self, monkeypatch, kind, n_paths):
        model, _ = block_model(kind)
        times = np.linspace(0.0, 1.0, 65)
        peak = self.peak(lambda: path_grid(model, times, n_paths, BrownianDriver(3)))
        monkeypatch.setattr(model_module, "MAX_BYTES", peak - 1)
        with pytest.raises(ValidationError, match=r"need \d+ bytes"):
            model_module._check_grid(model, len(times), n_paths)

    # 70000 paths are two blocks of the Heston reference
    @pytest.mark.parametrize("with_reference", [False, True])
    @pytest.mark.parametrize("n_paths", [3_000, 70_000])
    @pytest.mark.parametrize("kind", ["piecewise", "legendre"])
    def test_exotics_fold_peak_within_the_bound(self, monkeypatch, kind, n_paths,
                                                with_reference):
        from chaoscal import reference
        from chaoscal.vol import DownAndOutCall, ForwardStartCall, LookbackCall

        model, _ = block_model(kind)
        params = reference.HestonParams(100.0, 1.5, 0.04, 0.5, -0.7, 0.04)
        times = np.linspace(0.0, 1.0, 17)
        specs = [ForwardStartCall(0.5, 1.0, strike_ratio=1.0),
                 DownAndOutCall(1.0, 100.0, 85.0), LookbackCall(1.0)]

        def run():  # as `exotics` runs them: both simulators' blocks on one pool
            sims = [model_module._path_rows(model, times, n_paths, BrownianDriver(3))]
            if with_reference:
                sims.append(reference._heston_rows(params, times, n_paths, BrownianDriver(3)))
            reference._fold_exotics(sims, times, specs)

        peak = self.peak(run)
        monkeypatch.setattr(model_module, "MAX_BYTES", peak - 1)
        with pytest.raises(ValidationError, match=r"need \d+ bytes"):
            reference._check_fold(model, len(times), n_paths, specs, with_reference)

    @pytest.mark.parametrize("kind", ["piecewise", "legendre"])
    def test_path_grid_and_exotics_at_the_byte_cap(self, monkeypatch, kind):
        # one byte under the count raises naming it, at the count they run;
        # a Legendre time runs no position, so its Q array is one row a path
        from chaoscal import reference
        from chaoscal.vol import LookbackCall

        model, _ = block_model(kind)
        assert model_module._patterns(model) == (6 if kind == "piecewise" else 1)
        times, n = np.linspace(0.0, 1.0, 17), 20_000
        need = 8 * n * len(times) + model_module._rows_bytes(model, len(times), n)
        monkeypatch.setattr(model_module, "MAX_BYTES", need - 1)
        with pytest.raises(ValidationError, match=rf"n_paths = {n} at n_times = 17 need "
                                                  rf"{need} bytes"):
            path_grid(model, times, n, BrownianDriver(3))
        monkeypatch.setattr(model_module, "MAX_BYTES", need)
        path_grid(model, times, n, BrownianDriver(3))

        params = reference.HestonParams(100.0, 1.5, 0.04, 0.5, -0.7, 0.04)
        specs = [LookbackCall(1.0)]
        need = reference._fold_bytes(model, len(times), n, specs, True)
        monkeypatch.setattr(model_module, "MAX_BYTES", need - 1)
        with pytest.raises(ValidationError, match=rf"need {need} bytes"):
            reference._check_fold(model, len(times), n, specs, True)
        monkeypatch.setattr(model_module, "MAX_BYTES", need)
        reference._check_fold(model, len(times), n, specs, True)
        reference._fold_exotics([model_module._path_rows(model, times, n, BrownianDriver(3)),
                                 reference._heston_rows(params, times, n, BrownianDriver(3))],
                                times, specs)

    @pytest.mark.parametrize("entry", ["path_grid", "exotics"])
    def test_legendre_path_rows_count_a_plan_a_time(self, monkeypatch, entry):
        # a Legendre schedule keeps each time's plan for the whole call, past
        # the _PLANS plans the cache keeps (lowered here so that 64 more times
        # show it): the count must grow by at least what they add to the
        # traced peak, path_grid's and the exotics fold's
        from chaoscal import reference
        from chaoscal.vol import LookbackCall

        model, _ = block_model("legendre")
        monkeypatch.setattr(model_module, "_PLANS", 1)
        n, specs = 10, [LookbackCall(1.0)]

        def grown(run, count):
            peaks = []
            for times in (np.linspace(0.0, 1.0, 65), np.linspace(0.0, 1.0, 129)):
                run(times)  # lazy set-up outside the trace; plans built inside
                model_module._plan.cache_clear()
                tracemalloc.start()
                try:
                    run(times)
                    peaks.append(tracemalloc.get_traced_memory()[1] - count(len(times)))
                finally:
                    tracemalloc.stop()
            return peaks[1] - peaks[0]

        if entry == "path_grid":
            assert grown(lambda times: path_grid(model, times, n, BrownianDriver(3)),
                         lambda k: 8 * n * k + model_module._rows_bytes(model, k, n)) <= 0
        else:
            assert grown(lambda times: reference._fold_exotics(
                [model_module._path_rows(model, times, n, BrownianDriver(3))], times, specs),
                lambda k: reference._fold_bytes(model, k, n, specs, False)) <= 0

    # a Legendre Gram tail takes a quadrature a time, so its grid is shorter
    @pytest.mark.parametrize("kind,n_times", [("piecewise", 1025), ("legendre", 257)])
    def test_sample_integrals_peak_within_the_bound(self, monkeypatch, kind, n_times):
        # the roots hold a tuple, an array view and a scalar a time, which a
        # count with no term a time missed: by about 280 KB at 1025 times of
        # 100 paths on one piecewise cell
        spec = (PiecewiseConstantBasis.uniform(1.0, 1) if kind == "piecewise"
                else LegendreBasis(1.0, 4))
        times, n = np.linspace(0.0, 1.0, n_times), 100
        peak = self.peak(lambda: sample_integrals(spec, BrownianDriver(3), times, n, d=2))
        monkeypatch.setattr(model_module, "MAX_BYTES", peak - 1)
        with pytest.raises(ValidationError, match=r"need \d+ bytes"):
            sample_integrals(spec, BrownianDriver(3), times, n, d=2)

    # 30000 paths are three feature blocks on piecewise, two on Legendre
    @pytest.mark.parametrize("entry", ["sample_features", "estimate_cv"])
    @pytest.mark.parametrize("kind", ["piecewise", "legendre"])
    def test_draw_peak_within_the_bound(self, monkeypatch, kind, entry):
        model, degree = block_model(kind)
        n = 30_000
        block = sample_features(model, 1.0, 10, BrownianDriver(2))

        def run():
            if entry == "sample_features":
                return sample_features(model, 1.0, n, BrownianDriver(3))
            return estimate_cv(model, block, 100.0, degree, BrownianDriver(3), n)

        peak = self.peak(run)
        monkeypatch.setattr(model_module, "MAX_BYTES", peak - 1)
        with pytest.raises(ValidationError, match=r"need \d+ bytes"):
            run()

    @pytest.mark.parametrize("entry", ["sample_features", "estimate_cv"])
    def test_sampler_at_the_byte_cap(self, monkeypatch, entry):
        # one byte under its count, a sampler raises naming n_paths before a
        # stream is opened; at the count it runs
        class NoStreams:
            def generator(self, *key):
                raise AssertionError("a stream was opened")

        model, _ = block_model("piecewise")
        n = 3000
        if entry == "sample_features":
            need = model_module._features_bytes(model, n, len(model.indices))
            run = lambda driver: sample_features(model, 1.0, n, driver)  # noqa: E731
        else:
            need = pricing._cv_bytes(model, n)
            block = sample_features(model, 1.0, 10, BrownianDriver(2))
            run = lambda driver: estimate_cv(model, block, 100.0, 2, driver, n)  # noqa: E731
        monkeypatch.setattr(model_module, "MAX_BYTES", need - 1)
        with pytest.raises(ValidationError, match=rf"n_paths = {n} at n_times = 1 need "
                                                  rf"{need} bytes"):
            run(NoStreams())
        monkeypatch.setattr(model_module, "MAX_BYTES", need)
        run(BrownianDriver(3))

    def test_exotics_count_does_not_grow_with_the_grid_rows(self):
        # a year of daily monitoring at 1M paths: 2.9 GB as a path array,
        # about 0.26 GB as a fold
        from chaoscal import reference
        from chaoscal.vol import LookbackCall

        model, _ = block_model("piecewise")
        reference._check_fold(model, 366, 1_000_000, [LookbackCall(1.0)], True)
        with pytest.raises(ValidationError, match=r"need \d+ bytes"):
            model_module._check_grid(model, 366, 1_000_000)

    def test_evaluation_counts_one_maturity_at_a_time(self):
        # 40 maturities x 40 strikes under the default schedule: about 44 MB
        # for one maturity, 1.7 GB if every maturity were held at once
        basis = PiecewiseConstantBasis.uniform(1.0, 4)
        quotes = strike_quotes(np.linspace(0.025, 1.0, 40), np.linspace(80.0, 119.0, 40))
        pricing._check_surface(2, 4, 1, basis, quotes, PricingSchedule(), "schedule", False)

    def test_feature_block_of_a_large_model_is_counted(self):
        # a fit's feature matrix of 316,250 columns (5.1 GB at 2000 paths) is
        # counted without enumerating the coefficients; evaluation builds no
        # feature row
        basis = PiecewiseConstantBasis.uniform(1.0, 4)
        quotes = strike_quotes((1.0,), (100.0,))
        sched = PricingSchedule(PricingMethod("mc", n_paths=2000, cv_degree=0))
        with pytest.raises(ValidationError,
                           match=r"316250 coefficients at n_paths = 2000, "):
            pricing._check_surface(50, 4, 1, basis, quotes, sched, "schedule", True)
        pricing._check_surface(2, 4, 1, basis, quotes, sched, "schedule", False)

    @pytest.mark.parametrize("kind,p,m,d", [
        ("piecewise", 1, 300, 1), ("piecewise", 2, 40, 2), ("piecewise", 3, 10, 2),
        ("legendre", 1, 100, 1), ("legendre", 3, 8, 2), ("legendre", 2, 20, 3)])
    def test_index_layer_peak_within_the_bound(self, kind, p, m, d):
        # with the index set held (`_set_bytes`), a fresh column-plan build
        # and the second-moment tables each stay within the rest of the bound
        basis = (PiecewiseConstantBasis.uniform(1.0, m) if kind == "piecewise"
                 else LegendreBasis(1.0, m))
        model = make_model(basis, p, d, np.zeros(len(enumerate_indices(p, m, d))))
        bound = model_module._index_bytes(p, m, d, 1) - _set_bytes(p, m, d)
        runs = [lambda: model_module._feature_plan(model, 0.3)]
        if kind == "piecewise":
            runs.append(lambda: model_module.second_moment_coeffs(model, 0.3))
        for run in runs:
            model_module._plan.cache_clear()
            tracemalloc.start()
            try:
                run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= bound

    def test_index_layer_of_a_wide_model_is_counted(self):
        # p 1, m 8000: 8000 coefficients, but a column plan's 8000 x 8000
        # Gram matrices alone are 2 GB
        basis = PiecewiseConstantBasis.uniform(1.0, 8000)
        model = make_model(basis, 1, 1, np.zeros(8000))
        quotes = strike_quotes((1.0,), (100.0,))
        sched = PricingSchedule(PricingMethod("mc", n_paths=10, beta_samples=10))
        with pytest.raises(ValidationError, match=r"8000 coefficients at n_paths = 10, "):
            pricing._check_surface(1, 8000, 1, basis, quotes, sched, "schedule", False)
        with pytest.raises(ValidationError, match=r"need \d+ bytes"):
            model_module._check_grid(model, 2, 10)
        pricing._check_surface(1, 1000, 1, PiecewiseConstantBasis.uniform(1.0, 1000), quotes,
                             sched, "schedule", False)


def test_thread_count_does_not_change_bits():
    src = os.path.dirname(os.path.dirname(os.path.abspath(chaoscal.__file__)))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    cpu = min(os.sched_getaffinity(0))
    outputs = []
    # one child at a time; the last is pinned to one CPU, so the block
    # runner steps every simulator's blocks on one worker
    for threads, pinned in (("1", False), ("2", False), ("4", False), ("1", True)):
        env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        pin = (lambda: os.sched_setaffinity(0, {cpu})) if pinned else None
        proc = subprocess.run([sys.executable, "-c", _THREADS_SCRIPT, DESK_MODEL],
                              capture_output=True, text=True, env=env,
                              timeout=300, preexec_fn=pin)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout.splitlines())
    assert len(outputs[0]) == 13
    assert outputs[0] == outputs[1] == outputs[2] == outputs[3]


# The price Jacobian of the desk model, with a single-strike maturity, at
# 100003 paths: the last 1024-row block of each reduction is partial.
_JACOBIAN_THREADS_SCRIPT = textwrap.dedent("""
    import contextlib
    import hashlib
    import io
    import json
    import os
    import sys
    import tempfile
    from types import SimpleNamespace
    import numpy as np
    from chaoscal.cli import main
    from chaoscal.bases import BrownianDriver
    from chaoscal.modelio import load_model
    from chaoscal.pricing import (PricingMethod, PricingSchedule, _group_jacobian,
                                  _maturity_groups)

    model = load_model(sys.argv[1])
    quotes = [SimpleNamespace(maturity=t, strike=k, discount_factor=1.0,
                              forward=model.s0)
              for t, ks in ((0.3, (100.0,)), (1.0, (90.0, 95.0, 100.0, 105.0, 110.0)))
              for k in ks]
    sched = PricingSchedule(PricingMethod("mc", n_paths=100_003, cv_degree=2,
                                          beta_samples=5_000))
    for g in _maturity_groups(model, SimpleNamespace(quotes=quotes), sched,
                              BrownianDriver(3), (0,), features=True):
        prices, jac = _group_jacobian(g, model.coefficients)
        print(len(g.strikes), int((jac != 0.0).sum()),
              hashlib.sha256(prices.tobytes() + jac.tobytes()).hexdigest())
""")


def test_thread_count_does_not_change_jacobian_bits():
    src = os.path.dirname(os.path.dirname(os.path.abspath(chaoscal.__file__)))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    outputs = []
    for threads in ("1", "2", "4"):  # one child at a time
        env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", _JACOBIAN_THREADS_SCRIPT,
                               DESK_MODEL], capture_output=True, text=True, env=env,
                              timeout=300)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout.split())
    # T = 0.3 annihilates 30 of the 44 columns; T = 1.0 none
    assert outputs[0][:2] == ["1", "14"] and outputs[0][3:5] == ["5", "220"]
    assert outputs[0] == outputs[1] == outputs[2]
