import sys
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import norm

from chaoscal import pricing
from chaoscal.bases import BrownianDriver, PiecewiseConstantBasis
from chaoscal.calibrate import (
    CalibrationConfig,
    OptimizerState,
    adamw_step,
    build_workspace,
    calibrate,
    initial_coefficients,
    loss,
    loss_gradient,
    vega_weights,
    workspace_loss,
)
from chaoscal.errors import OptimizerError, ValidationError, WeightingError
from chaoscal.model import ChaosModel, sample_features
from chaoscal.pricing import PricingMethod, PricingSchedule, estimate_cv, price_surface
from chaoscal.vol import bs_call, bs_vega, implied_vol


def make_model(theta, s0=100.0, p=2, m=2, d=1, horizon=1.0):
    basis = PiecewiseConstantBasis(np.linspace(0.0, horizon, m + 1))
    return ChaosModel(s0, p, m, d, basis, np.asarray(theta, dtype=float))


class _Quote:
    def __init__(self, maturity, strike, mid_price=None, implied_vol=None,
                 discount_factor=1.0, forward=None, option_type="C"):
        self.maturity = maturity
        self.strike = strike
        self.mid_price = mid_price
        self.implied_vol = implied_vol
        self.discount_factor = discount_factor
        self.forward = forward
        self.option_type = option_type


class _Surface:
    def __init__(self, quotes, spot=100.0):
        self.quotes = quotes
        self.spot = spot


def surface_from_model(model, maturities, strikes, schedule, driver, tag=900):
    """Quotes whose mids are the model's own prices (zero rates)."""
    quotes = _Surface(
        [_Quote(t, k, forward=model.s0) for t in maturities for k in strikes],
        spot=model.s0,
    )
    prices = price_surface(model, quotes, schedule, driver, stream_tag=tag)
    for q, c in zip(quotes.quotes, prices):
        q.mid_price = float(c)
        q.implied_vol = implied_vol(float(c), model.s0, q.strike, q.maturity)
    return quotes


QUAD = PricingSchedule(default=PricingMethod("quad", n_nodes=40))


class TestCalibrationConfig:
    def test_defaults_are_the_documented_ones(self):
        cfg = CalibrationConfig()
        assert cfg.learning_rate == 1e-3
        assert cfg.max_iterations == 10_000
        assert cfg.weight_decay == 1.0
        assert cfg.resim_every == 50
        assert cfg.patience == 1000
        assert cfg.tol == 1e-7
        assert cfg.init_std == 1e-4
        assert (cfg.beta1, cfg.beta2, cfg.eps_adam) == (0.9, 0.999, 1e-8)

    @pytest.mark.parametrize(
        "kw",
        [
            dict(learning_rate=0.0),
            dict(max_iterations=-1),
            dict(weight_decay=-0.5),
            dict(resim_every=0),
            dict(patience=0),
            dict(tol=0.0),
            dict(init_std=0.0),
            dict(beta1=1.0),
            dict(beta2=0.0),
            dict(eps_adam=0.0),
        ],
    )
    def test_rejects_bad_values(self, kw):
        with pytest.raises(ValidationError):
            CalibrationConfig(**kw)

    def test_initial_coefficients_scale_and_determinism(self):
        cfg = CalibrationConfig(seed=5)
        a = initial_coefficients(2000, cfg)
        b = initial_coefficients(2000, cfg)
        assert np.array_equal(a, b)
        assert abs(a.std() - cfg.init_std) < 0.1 * cfg.init_std
        c = initial_coefficients(2000, CalibrationConfig(seed=6))
        assert not np.array_equal(a, c)


class TestVegaWeights:
    def test_atm_weight_matches_vega_oracle(self):
        surf = _Surface([_Quote(1.0, 100.0, implied_vol=0.2, forward=100.0)])
        w = vega_weights(surf)
        # d1 = sigma sqrt(T) / 2 at the forward ATM strike with r = q = 0
        vega = 100.0 * norm.pdf(0.1)
        assert w[0] == pytest.approx(1.0 / vega**2, rel=1e-12)

    def test_identical_quotes_identical_weights(self):
        q = dict(implied_vol=0.25, forward=100.0)
        surf = _Surface([_Quote(0.5, 90.0, **q), _Quote(0.5, 90.0, **q)])
        w = vega_weights(surf)
        assert w[0] == w[1]

    def test_doubled_vega_quarters_the_weight(self):
        surf = _Surface([_Quote(1.0, 100.0, implied_vol=0.2, forward=100.0)])
        vega = bs_vega(100.0, 100.0, 1.0, 0.2)
        w = vega_weights(surf)
        assert 1.0 / (2.0 * vega) ** 2 == pytest.approx(w[0] / 4.0, rel=1e-14)

    def test_rates_come_from_discount_factor_and_forward(self):
        df, fwd = 0.95, 105.0
        surf = _Surface([_Quote(2.0, 100.0, implied_vol=0.3,
                                discount_factor=df, forward=fwd)])
        r = -np.log(df) / 2.0
        q = r - np.log(fwd / 100.0) / 2.0
        vega = bs_vega(100.0, 100.0, 2.0, 0.3, r, q)
        assert vega_weights(surf)[0] == pytest.approx(1.0 / vega**2, rel=1e-12)

    def test_missing_vol_names_the_quote(self):
        surf = _Surface([
            _Quote(1.0, 100.0, implied_vol=0.2, forward=100.0),
            _Quote(1.0, 110.0, mid_price=3.0, forward=100.0),
        ])
        with pytest.raises(WeightingError, match="quote 1"):
            vega_weights(surf)

    def test_underflowing_vega_is_an_error(self):
        surf = _Surface([_Quote(1e-4, 300.0, implied_vol=0.05, forward=100.0)])
        with pytest.raises(WeightingError, match="quote 0"):
            vega_weights(surf)


class TestLoss:
    def test_perfect_match_gives_zero(self):
        model = make_model([10.0, 3.0, -1.0, 0.5, 2.0])
        driver = BrownianDriver(11)
        quotes = surface_from_model(model, [0.5, 1.0], [90.0, 100.0, 110.0],
                                    QUAD, driver)
        w = vega_weights(quotes)
        assert loss(model, quotes, w, QUAD, driver) < 1e-20

    def test_single_quote_mismatch_is_gamma_m_squared(self):
        model = make_model([10.0, 3.0, -1.0, 0.5, 2.0])
        driver = BrownianDriver(11)
        quotes = surface_from_model(model, [1.0], [100.0], QUAD, driver)
        m = 0.37
        quotes.quotes[0].mid_price += m
        gamma = 2.5
        got = loss(model, quotes, np.array([gamma]), QUAD, driver)
        assert got == pytest.approx(gamma * m**2, rel=1e-10)

    def test_zero_model_against_synthetic_targets(self):
        # theta = 0 prices every call at discounted intrinsic DF (F - K)_+;
        # recompute the weighted gap with independent arithmetic
        model = make_model(np.zeros(5))
        driver = BrownianDriver(11)
        df, fwd = 0.99, 101.0
        quotes = _Surface([
            _Quote(t, k, discount_factor=df, forward=fwd, implied_vol=0.2)
            for t in (0.5, 1.0) for k in (90.0, 100.0, 110.0)
        ])
        for q in quotes.quotes:
            r = -np.log(df) / q.maturity
            divy = r - np.log(fwd / 100.0) / q.maturity
            q.mid_price = bs_call(100.0, q.strike, q.maturity, 0.2, r, divy)
        w = vega_weights(quotes)
        got = loss(model, quotes, w, QUAD, driver)
        want = sum(
            wi * (q.mid_price - df * max(fwd - q.strike, 0.0)) ** 2
            for wi, q in zip(w, quotes.quotes)
        )
        assert got == pytest.approx(want, rel=1e-10)

    def test_deterministic_in_tags_and_sensitive_to_them(self):
        model = make_model([10.0, 3.0, -1.0, 0.5, 2.0])
        driver = BrownianDriver(11)
        mc = PricingSchedule(default=PricingMethod("mc", n_paths=4000,
                                                   beta_samples=2000))
        quotes = surface_from_model(model, [0.5, 1.0], [95.0, 105.0], QUAD, driver)
        w = vega_weights(quotes)
        a = loss(model, quotes, w, mc, driver, tags=(3,))
        b = loss(model, quotes, w, mc, driver, tags=(3,))
        c = loss(model, quotes, w, mc, driver, tags=(4,))
        assert a == b
        assert a != c

    def test_weights_length_checked(self):
        model = make_model(np.zeros(5))
        driver = BrownianDriver(11)
        quotes = _Surface([_Quote(1.0, 100.0, implied_vol=0.2, forward=100.0,
                                  mid_price=7.9)])
        with pytest.raises(ValidationError, match="weights"):
            loss(model, quotes, np.ones(3), QUAD, driver)

    def test_maturity_beyond_horizon_rejected(self):
        model = make_model(np.zeros(5))
        driver = BrownianDriver(11)
        quotes = _Surface([_Quote(1.5, 100.0, implied_vol=0.2, forward=100.0,
                                  mid_price=9.0)])
        with pytest.raises(ValidationError, match="1.5"):
            loss(model, quotes, np.ones(1), QUAD, driver)


class TestSharedPricingPath:
    """Calibration and evaluation build their maturity groups the same way."""

    MC = PricingSchedule(default=PricingMethod("mc", n_paths=2000, cv_degree=2,
                                               beta_samples=1000))
    MATS = (0.3, 0.6, 1.0)

    def case(self):
        model = make_model([8.0, 10.0, 2.0, 1.5, -2.0])
        quotes = _Surface([
            _Quote(t, k, mid_price=5.0, implied_vol=0.2, forward=100.0)
            for t in self.MATS for k in (90.0, 95.0, 100.0, 105.0, 110.0)
        ])
        return model, quotes

    def test_one_feature_and_one_cv_draw_per_maturity(self, monkeypatch):
        model, quotes = self.case()
        drawn = []
        real = pricing.sample_features

        def counting(model, t, *args, **kwargs):
            drawn.append(t)
            return real(model, t, *args, **kwargs)

        monkeypatch.setattr(pricing, "sample_features", counting)
        price_surface(model, quotes, self.MC, BrownianDriver(5))
        assert sorted(drawn) == sorted(self.MATS * 2)
        drawn.clear()
        build_workspace(model, quotes, np.ones(15), self.MC, BrownianDriver(5))
        assert sorted(drawn) == sorted(self.MATS * 2)

    def test_group_betas_are_estimate_cv_on_the_same_tags(self):
        model, quotes = self.case()
        driver = BrownianDriver(5)
        ws = build_workspace(model, quotes, np.ones(15), self.MC, driver, tags=(4,))
        evaluated = pricing._maturity_groups(model, quotes, self.MC, driver, (7,))
        for prefix, groups in (((4, 3233), ws.groups), ((7,), evaluated)):
            for mi, g in enumerate(groups):
                block = sample_features(model, g.maturity, 2000, driver,
                                        tags=prefix + (mi, 0))
                np.testing.assert_array_equal(block.features, g.features)
                for j, k in enumerate(g.strikes):
                    cv = estimate_cv(model, block, k, 2, driver, 1000,
                                     tags=prefix + (mi, 1))
                    assert cv.degree == 2
                    assert (g.beta1[j], g.beta2[j]) == tuple(cv.beta)


class TestLossGradient:
    def test_indicator_saturation_gives_mean_feature(self):
        # strikes far below every sample: gradient = sum_j u_j * mean feature
        model = make_model([10.0, 3.0, -1.0, 0.5, 2.0])
        driver = BrownianDriver(13)
        mc = PricingSchedule(default=PricingMethod("mc", n_paths=5000, cv_degree=0))
        quotes = _Surface(
            [_Quote(1.0, k, forward=100.0, implied_vol=0.5, mid_price=99.0)
             for k in (1.0, 2.0)],
            spot=100.0,
        )
        w = np.array([0.7, 1.3])
        ws = build_workspace(model, quotes, w, mc, driver, tags=(0,))
        got_loss, got = workspace_loss(ws, model.coefficients, with_gradient=True)
        g = ws.groups[0]
        s = ws.s0 + g.features @ model.coefficients
        assert (s[None, :] > g.strikes[:, None]).all()
        prices = np.maximum(s[None, :] - g.strikes[:, None], 0.0) @ g.weights
        u = -2.0 * g.gweights * (g.targets - prices)
        want = g.features.T @ g.weights * u.sum()
        np.testing.assert_allclose(got, want, rtol=1e-12)
        grad_public = loss_gradient(model, quotes, w, mc, driver, tags=(0,))
        np.testing.assert_allclose(grad_public, got, rtol=1e-12)

    def test_matches_central_differences_on_frozen_streams(self):
        rng = np.random.default_rng(77)
        theta = 4.0 * rng.standard_normal(9)
        model = make_model(theta, m=3, horizon=1.2)
        driver = BrownianDriver(13)
        schedule = PricingSchedule(
            default=PricingMethod("mc", n_paths=4000, cv_degree=2,
                                  beta_samples=4000),
            entries=((0.3, PricingMethod("quad", n_nodes=25)),),
        )
        quotes = _Surface([
            _Quote(t, k, discount_factor=0.99, forward=101.0, implied_vol=0.2)
            for t in (0.3, 0.8, 1.2) for k in (95.0, 100.0, 105.0)
        ])
        for q in quotes.quotes:
            r = -np.log(q.discount_factor) / q.maturity
            divy = r - np.log(q.forward / 100.0) / q.maturity
            q.mid_price = bs_call(100.0, q.strike, q.maturity, 0.2, r, divy)
        w = vega_weights(quotes)
        ws = build_workspace(model, quotes, w, schedule, driver, tags=(0,))
        val, grad = workspace_loss(ws, theta, with_gradient=True)
        h = 1e-6
        for i in range(len(theta)):
            flips = 0.0
            for g in ws.groups:
                s = ws.s0 + g.features @ theta
                near = (
                    np.abs(s[None, :] - g.strikes[:, None])
                    <= h * np.abs(g.features[:, i])[None, :]
                )
                flips = max(flips, near.mean(axis=1).max())
            if flips > 1e-3:
                continue
            ei = np.zeros_like(theta)
            ei[i] = h
            fd = (workspace_loss(ws, theta + ei) - workspace_loss(ws, theta - ei)) / (2 * h)
            assert fd == pytest.approx(grad[i], rel=1e-5), f"coordinate {i}"

    def test_skipping_zero_columns_changes_no_bits(self):
        # T = 0.3 lies in the first of two cells, which annihilates every
        # index with a second-cell exponent; the gradient skips those columns
        model = make_model([8.0, 10.0, 2.0, 1.5, -2.0])
        quotes = _Surface([
            _Quote(t, k, mid_price=5.0, implied_vol=0.2, forward=100.0)
            for t in (0.3, 1.0) for k in (95.0, 105.0)
        ])
        mc = PricingSchedule(default=PricingMethod("mc", n_paths=2000, cv_degree=2,
                                                   beta_samples=1000))
        ws = build_workspace(model, quotes, np.ones(4), mc, BrownianDriver(5))
        assert len(ws.groups[0].live) == 2
        assert ws.groups[1].live == (slice(0, 5),)
        _, got = workspace_loss(ws, model.coefficients, with_gradient=True)
        full = replace(ws, groups=[replace(g, live=(slice(None),))
                                   for g in ws.groups])
        _, want = workspace_loss(full, model.coefficients, with_gradient=True)
        np.testing.assert_array_equal(got, want)

    def test_zero_model_otm_strikes_zero_gradient(self):
        model = make_model(np.zeros(5))
        driver = BrownianDriver(13)
        mc = PricingSchedule(default=PricingMethod("mc", n_paths=2000, cv_degree=0))
        quotes = _Surface([
            _Quote(t, k, forward=100.0, implied_vol=0.2, mid_price=1.0)
            for t in (0.5, 1.0) for k in (110.0, 120.0)
        ])
        g = loss_gradient(model, quotes, vega_weights(quotes), mc, driver)
        np.testing.assert_array_equal(g, np.zeros(5))


class TestAdamwStep:
    def test_zero_gradient_no_decay_leaves_theta(self):
        cfg = CalibrationConfig(weight_decay=0.0)
        state = OptimizerState.fresh([1.5, -2.0])
        _, theta = adamw_step(state, np.zeros(2), cfg)
        np.testing.assert_array_equal(theta, [1.5, -2.0])
        assert state.iteration == 1

    def test_unit_gradient_first_step_is_minus_lr(self):
        # m-hat = v-hat = 1 exactly on step one, so the step is lr/(1+eps)
        cfg = CalibrationConfig(weight_decay=0.0)
        state = OptimizerState.fresh([0.25])
        _, theta = adamw_step(state, np.array([1.0]), cfg)
        want = 0.25 - 1e-3 / (1.0 + 1e-8)
        assert theta[0] == pytest.approx(want, rel=1e-15)
        assert theta[0] - 0.25 == pytest.approx(-1e-3, rel=1e-7)

    def test_pure_decay_contracts_by_lr_lambda(self):
        cfg = CalibrationConfig(weight_decay=1.0)
        state = OptimizerState.fresh([1.0])
        _, theta = adamw_step(state, np.zeros(1), cfg)
        assert theta[0] == pytest.approx(0.999, rel=1e-15)

    def test_momentum_accumulates_across_steps(self):
        cfg = CalibrationConfig(weight_decay=0.0)
        state = OptimizerState.fresh([0.0])
        adamw_step(state, np.array([1.0]), cfg)
        first = state.theta[0]
        adamw_step(state, np.array([1.0]), cfg)
        assert state.iteration == 2
        # persistent gradient keeps moving the same way
        assert state.theta[0] < first < 0.0

    def test_non_finite_gradient_reports_iteration(self):
        cfg = CalibrationConfig()
        state = OptimizerState.fresh([0.0])
        for _ in range(3):
            adamw_step(state, np.array([0.5]), cfg)
        with pytest.raises(OptimizerError, match="iteration 3"):
            adamw_step(state, np.array([np.nan]), cfg)

    def test_shape_mismatch_rejected(self):
        state = OptimizerState.fresh([0.0, 1.0])
        with pytest.raises(ValidationError):
            adamw_step(state, np.zeros(3), CalibrationConfig())

    def test_fresh_state_shapes(self):
        state = OptimizerState.fresh([1.0, 2.0, 3.0])
        assert state.m.shape == state.v.shape == state.theta.shape == (3,)
        assert state.best_loss == np.inf


class TestCalibrate:
    def test_zero_iterations_returns_the_start(self):
        model = make_model([1.0, 2.0, 3.0, 4.0, 5.0])
        quotes = _Surface([_Quote(1.0, 100.0, implied_vol=0.2, forward=100.0,
                                  mid_price=7.97)])
        cfg = CalibrationConfig(max_iterations=0)
        fitted, history = calibrate(model, quotes, cfg, QUAD)
        assert history == []
        np.testing.assert_array_equal(fitted.coefficients, model.coefficients)
        assert fitted.s0 == model.s0

    def test_self_consistency_recovers_known_coefficients(self):
        # coefficient layout: positions 1/4 live on the first cell, so both
        # maturities see a healthy vol level and IV inversion stays conditioned
        truth = make_model([8.0, 10.0, 2.0, 1.5, -2.0])
        driver = BrownianDriver(21)
        quotes = surface_from_model(truth, [0.5, 1.0], [90.0, 100.0, 110.0],
                                    QUAD, driver)
        # the fit is nonconvex: the basin depends on the N(0, init_std^2)
        # draw, and this seed descends into an exact-fit one
        cfg = CalibrationConfig(
            learning_rate=3e-3, max_iterations=4000, weight_decay=0.0,
            tol=1e-12, seed=22,
        )
        model0 = truth.with_coefficients(initial_coefficients(5, cfg) * truth.s0)
        fitted, history = calibrate(model0, quotes, cfg, QUAD)
        w = vega_weights(quotes)
        final = loss(fitted, quotes, w, QUAD, driver)
        initial = loss(model0, quotes, w, QUAD, driver)
        assert final < 1e-6 * initial
        # implied-vol error in basis points on the fitted surface
        prices = price_surface(fitted, quotes, QUAD, driver)
        mae = np.mean([
            abs(implied_vol(c, 100.0, q.strike, q.maturity) - q.implied_vol)
            for c, q in zip(prices, quotes.quotes)
        ])
        assert mae < 5e-4  # 5 bp

    def test_histories_are_bit_identical_across_runs(self):
        truth = make_model([10.0, 3.0, -1.0, 0.5, 2.0])
        driver = BrownianDriver(31)
        quotes = surface_from_model(truth, [0.5, 1.0], [95.0, 105.0], QUAD, driver)
        mc = PricingSchedule(default=PricingMethod("mc", n_paths=2000,
                                                   beta_samples=2000))
        cfg = CalibrationConfig(max_iterations=60, resim_every=20, seed=7)
        model0 = truth.with_coefficients(initial_coefficients(5, cfg) * truth.s0)
        fit1, h1 = calibrate(model0, quotes, cfg, mc)
        fit2, h2 = calibrate(model0, quotes, cfg, mc)
        assert [r.loss for r in h1] == [r.loss for r in h2]
        assert [r.best_loss for r in h1] == [r.best_loss for r in h2]
        assert [r.resimulated for r in h1] == [r.resimulated for r in h2]
        np.testing.assert_array_equal(fit1.coefficients, fit2.coefficients)

    def test_quadrature_nodes_are_built_once_per_fit(self, monkeypatch):
        # the nodes depend on neither theta nor the streams: resimulations
        # reuse them, and the fit is bit for bit a fit that rebuilds them
        truth = make_model([10.0, 3.0, -1.0, 0.5, 2.0])
        quotes = surface_from_model(truth, [0.5, 1.0], [95.0, 105.0], QUAD,
                                    BrownianDriver(31))
        mixed = PricingSchedule(
            default=PricingMethod("mc", n_paths=2000, beta_samples=2000),
            entries=((0.5, PricingMethod("quad", n_nodes=40)),),
        )
        cfg = CalibrationConfig(max_iterations=60, resim_every=20, seed=7)
        model0 = truth.with_coefficients(initial_coefficients(5, cfg) * truth.s0)
        built = []
        real_nodes = pricing.quad_nodes_features
        monkeypatch.setattr(pricing, "quad_nodes_features",
                            lambda m, t, n: built.append(t) or real_nodes(m, t, n))
        fit1, h1 = calibrate(model0, quotes, cfg, mixed)
        assert built == [0.5]
        module = sys.modules["chaoscal.calibrate"]
        real_build = module.build_workspace
        monkeypatch.setattr(module, "build_workspace",
                            lambda *a, nodes=None, **kw: real_build(*a, **kw))
        fit2, h2 = calibrate(model0, quotes, cfg, mixed)
        assert built == [0.5] * 4  # rebuilt at each of the 3 resimulations
        assert [r.loss for r in h1] == [r.loss for r in h2]
        np.testing.assert_array_equal(fit1.coefficients, fit2.coefficients)

    def test_seed_changes_the_streams(self):
        truth = make_model([10.0, 3.0, -1.0, 0.5, 2.0])
        driver = BrownianDriver(31)
        quotes = surface_from_model(truth, [1.0], [95.0, 105.0], QUAD, driver)
        mc = PricingSchedule(default=PricingMethod("mc", n_paths=2000,
                                                   beta_samples=2000))
        model0 = truth.with_coefficients(
            initial_coefficients(5, CalibrationConfig(seed=7)) * truth.s0
        )
        _, h7 = calibrate(model0, quotes, CalibrationConfig(max_iterations=5, seed=7), mc)
        _, h8 = calibrate(model0, quotes, CalibrationConfig(max_iterations=5, seed=8), mc)
        assert [r.loss for r in h7] != [r.loss for r in h8]

    def test_best_loss_monotone_and_resim_flags(self):
        truth = make_model([10.0, 3.0, -1.0, 0.5, 2.0])
        driver = BrownianDriver(31)
        quotes = surface_from_model(truth, [0.5, 1.0], [95.0, 105.0], QUAD, driver)
        mc = PricingSchedule(default=PricingMethod("mc", n_paths=2000,
                                                   beta_samples=2000))
        cfg = CalibrationConfig(max_iterations=45, resim_every=15, seed=7)
        model0 = truth.with_coefficients(initial_coefficients(5, cfg) * truth.s0)
        _, history = calibrate(model0, quotes, cfg, mc)
        assert len(history) == 45
        best = [r.best_loss for r in history]
        assert all(b2 <= b1 for b1, b2 in zip(best, best[1:]))
        assert all(r.best_loss <= r.loss for r in history)
        assert [r.iteration for r in history] == list(range(45))
        assert [r.resimulated for r in history] == [
            it % 15 == 0 for it in range(45)
        ]
        wall = [r.wall_seconds for r in history]
        assert all(w2 >= w1 for w1, w2 in zip(wall, wall[1:]))

    def test_patience_stops_early_on_a_flat_loss(self):
        # an exactly matched surface cannot improve; patience cuts the run
        truth = make_model([10.0, 3.0, -1.0, 0.5, 2.0])
        driver = BrownianDriver(31)
        quotes = surface_from_model(truth, [1.0], [100.0], QUAD, driver)
        cfg = CalibrationConfig(max_iterations=500, patience=20,
                                weight_decay=0.0, learning_rate=1e-12)
        _, history = calibrate(truth, quotes, cfg, QUAD)
        assert len(history) == 21  # anchor at 0, gave up 20 iterations later

    def test_gradient_descent_monotone_on_one_coefficient(self):
        # lambda = 0, single quadrature quote, 1-coefficient model: plain GD
        # with a small step shrinks the loss every iteration
        model = make_model([5.0], p=1, m=1)
        driver = BrownianDriver(41)
        quotes = _Surface([_Quote(1.0, 100.0, forward=100.0, implied_vol=0.15,
                                  mid_price=bs_call(100.0, 100.0, 1.0, 0.15))])
        w = vega_weights(quotes)
        ws = build_workspace(model, quotes, w, QUAD, driver)
        theta = np.array([5.0])
        losses = [workspace_loss(ws, theta)]
        for _ in range(300):
            _, grad = workspace_loss(ws, theta, with_gradient=True)
            theta = theta - 1000.0 * grad
            losses.append(workspace_loss(ws, theta))
        assert all(b < a + 1e-15 for a, b in zip(losses, losses[1:]))
        assert losses[-1] < 1e-10 * losses[0]

    def test_error_mid_run_carries_partial_history(self):
        truth = make_model([10.0, 3.0, -1.0, 0.5, 2.0])
        driver = BrownianDriver(31)
        quotes = surface_from_model(truth, [1.0], [100.0], QUAD, driver)
        cfg = CalibrationConfig(max_iterations=50, learning_rate=1e160,
                                weight_decay=0.0)
        model0 = truth.with_coefficients(initial_coefficients(5, cfg) * truth.s0)
        with np.errstate(over="ignore"), pytest.raises(OptimizerError) as err:
            calibrate(model0, quotes, cfg, QUAD)
        assert len(err.value.history) >= 1
        assert "iteration" in str(err.value)

    def test_normalization_returns_market_scale_coefficients(self):
        truth = make_model([12.0, 3.0, -2.0, 1.0, 2.5])
        driver = BrownianDriver(21)
        # the surface needs a near-ATM strike: away from the money a tiny
        # init leaves every payoff indicator constant and the gradient is
        # exactly zero, so the optimizer would never move
        quotes = surface_from_model(truth, [1.0], [95.0, 100.0, 105.0], QUAD, driver)
        cfg = CalibrationConfig(learning_rate=3e-3, max_iterations=800,
                                weight_decay=0.0, tol=1e-12, seed=3)
        model0 = truth.with_coefficients(initial_coefficients(5, cfg) * truth.s0)
        fitted, _ = calibrate(model0, quotes, cfg, QUAD)
        assert fitted.s0 == truth.s0
        # three quotes cannot pin five coefficients, but the fitted model
        # must reprice them at market scale
        prices = price_surface(fitted, quotes, QUAD, driver)
        for c, q in zip(prices, quotes.quotes):
            assert c == pytest.approx(q.mid_price, abs=0.05)
