"""Pricing engines: Gauss-Hermite rule, tensor quadrature, CV Monte Carlo."""

import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from scipy.stats import norm

import chaoscal
from chaoscal.bases import BrownianDriver, LegendreBasis, PiecewiseConstantBasis
from chaoscal.errors import ConfigError, ValidationError
from chaoscal.indices import MultiIndex, enumerate_indices
from chaoscal.model import ChaosModel, sample_features, second_moment, terminal_values
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
        with pytest.raises(ConfigError):
            quad_call_price(model, t3, 100.0, 5)
        t2 = basis.grid[2]  # cell 2, u*d = 4: allowed
        quad_call_price(model, t2, 100.0, 5)

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


class TestMcCallPrice:
    def test_theta_zero_exact(self):
        basis = PiecewiseConstantBasis.uniform(1.0, 2)
        model = make_model(basis, 2, 1, np.zeros(len(enumerate_indices(2, 2, 1))))
        block = sample_features(model, 1.0, 1_000, BrownianDriver(0), tags=(0,))
        price, se = mc_call_price(model, block, 90.0)
        assert price == 10.0
        assert se == 0.0

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


# Reductions that c13's 5-strike, CV-MC surface never reaches: a 10-strike MC
# maturity, 40^3 = 64,000 quadrature nodes (u*d = 3) and the CV R^2, on a
# model with a terminal spread of about 20; and the exact interval sampler
# (eigendecomposition of each interval covariance, einsum with the draws)
# over 64 times for both bases, plus a Legendre path_grid.
_THREADS_SCRIPT = textwrap.dedent("""
    import hashlib
    from types import SimpleNamespace
    import numpy as np
    from chaoscal.bases import (BrownianDriver, LegendreBasis,
                                PiecewiseConstantBasis, sample_integrals)
    from chaoscal.indices import enumerate_indices
    from chaoscal.model import ChaosModel, path_grid, sample_features
    from chaoscal.pricing import (PricingMethod, PricingSchedule, estimate_cv,
                                  price_surface, quad_call_price)
    from chaoscal.reference import HestonParams, RoughHestonParams, rough_heston_cf

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
    for name, value in (("prices", prices), ("quad", quad),
                        ("r2", cv.r_squared), ("leg_ints", leg_ints),
                        ("pw_ints", pw_ints), ("leg_paths", leg_paths),
                        ("rough_cf", rough_cf)):
        print(name, hashlib.sha256(np.asarray(value).tobytes()).hexdigest())
""")


def test_thread_count_does_not_change_bits():
    src = os.path.dirname(os.path.dirname(os.path.abspath(chaoscal.__file__)))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    outputs = []
    for threads in ("1", "4"):
        env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", _THREADS_SCRIPT],
                              capture_output=True, text=True, env=env,
                              timeout=300)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout.splitlines())
    assert len(outputs[0]) == 7
    assert outputs[0] == outputs[1]
