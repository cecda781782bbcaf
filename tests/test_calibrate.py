import sys
import threading
import time
import types
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields

import numpy as np
import pytest
from scipy.stats import norm

from chaoscal import model as model_module
from chaoscal import pricing
from chaoscal.bases import BrownianDriver, PiecewiseConstantBasis
from chaoscal.calibrate import (
    _GN_RIDGE,
    CalibrationConfig,
    OptimizerState,
    _gauss_newton_round,
    _normal_equations,
    _warn_if_frozen,
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
from chaoscal.model import ChaosModel, sample_features, terminal_values
from chaoscal.pricing import PricingMethod, PricingSchedule, estimate_cv, price_surface
from chaoscal.vol import bs_call, bs_vega, implied_vol


def assert_ulps(got, want, ulps=4):
    """got equals want within `ulps` units in the last place of max |want|."""
    assert np.abs(got - want).max() <= ulps * np.spacing(np.abs(want).max())


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
        assert cfg.seed == 0
        assert cfg.optimizer == "gauss_newton"
        assert [f.name for f in fields(CalibrationConfig)] == [
            "learning_rate", "max_iterations", "weight_decay", "resim_every",
            "patience", "tol", "init_std", "seed", "optimizer"]
        module = sys.modules["chaoscal.calibrate"]
        assert (module._ADAM_BETA1, module._ADAM_BETA2, module._ADAM_EPS) == (
            0.9, 0.999, 1e-8)

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
            dict(seed=-1),
            dict(learning_rate=-1e-3),
            dict(init_std=-1e-4),
            dict(optimizer="sgd"),
        ],
    )
    def test_rejects_bad_values(self, kw):
        (key, value), = kw.items()
        with pytest.raises(ValidationError, match=rf"^key '{key}' must .*, got '?{value}'?$"):
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
        # every draw of feature rows, whole or reduced to S_T, goes through
        # the block sampler: 2000 paths for prices, 1000 for the CV betas;
        # only calibration's price draw keeps its rows, at the live columns
        model, quotes = self.case()
        drawn = []
        real = model_module._feature_blocks

        def counting(model, t, n_paths, *args, **kwargs):
            drawn.append((t, n_paths, kwargs.get("live", False)))
            return real(model, t, n_paths, *args, **kwargs)

        monkeypatch.setattr(model_module, "_feature_blocks", counting)
        cv = [(t, 1000, False) for t in self.MATS]
        price_surface(model, quotes, self.MC, BrownianDriver(5))
        assert sorted(drawn) == sorted([(t, 2000, False) for t in self.MATS] + cv)
        drawn.clear()
        build_workspace(model, quotes, np.ones(15), self.MC, BrownianDriver(5))
        assert sorted(drawn) == sorted([(t, 2000, True) for t in self.MATS] + cv)

    def test_group_betas_are_estimate_cv_on_the_same_tags(self):
        # calibration groups carry the feature matrix's live columns,
        # evaluation groups only its terminal values; both draw on the tags
        # of sample_features, and the columns left out are exact zeros.
        # Evaluation sums S_T through the feature plan, in another order
        # than the product of terminal_values, so they agree to rounding
        model, quotes = self.case()
        driver = BrownianDriver(5)
        ws = build_workspace(model, quotes, np.ones(15), self.MC, driver, tags=(4,))
        evaluated = pricing._maturity_groups(model, quotes, self.MC, driver, (7,))
        for prefix, groups in (((4, 3233), ws), ((7,), evaluated)):
            for mi, g in enumerate(groups):
                block = sample_features(model, g.maturity, 2000, driver,
                                        tags=prefix + (mi, 0))
                if prefix == (7,):
                    assert g.features is None
                    assert_ulps(g.terminal, terminal_values(model, block))
                else:
                    assert g.terminal is None
                    np.testing.assert_array_equal(block.features[:, g.live], g.features)
                    assert not np.delete(block.features, g.live, axis=1).any()
                for j, k in enumerate(g.strikes):
                    cv = estimate_cv(model, block, k, 2, driver, 1000,
                                     tags=prefix + (mi, 1))
                    assert cv.degree == 2
                    assert (g.beta1[j], g.beta2[j]) == tuple(cv.beta)


class TestFitBuffers:
    """A fit redraws one live-column feature matrix per maturity in place, and
    the Jacobian at an accepted step reads the S_T its loss pass kept."""

    MC = PricingSchedule(default=PricingMethod("mc", n_paths=3000, cv_degree=2,
                                               beta_samples=1000))
    MATS = (0.3, 1.0)

    def case(self):
        model = make_model([8.0, 10.0, 2.0, 1.5, -2.0])
        quotes = _Surface([
            _Quote(t, k, mid_price=5.0, implied_vol=0.2, forward=100.0)
            for t in self.MATS for k in (95.0, 100.0, 105.0)
        ])
        return model, quotes

    @staticmethod
    def count_products(monkeypatch):
        # every S_T = S_0 + features @ theta of a calibration group
        products = []
        real = pricing._terminal
        monkeypatch.setattr(pricing, "_terminal",
                            lambda g, theta: products.append(len(g.features)) or real(g, theta))
        return products

    def test_normal_equations_read_the_s_t_a_loss_pass_kept(self, monkeypatch):
        # handed the S_T that a loss pass at theta kept, the normal equations
        # at theta form no S_T product and equal fresh ones bit for bit
        model, quotes = self.case()
        ws = build_workspace(model, quotes, np.ones(6), self.MC, BrownianDriver(5))
        products = self.count_products(monkeypatch)
        for theta in (model.coefficients, model.coefficients + 0.5):
            want = _normal_equations(ws, theta)
            kept = []
            loss_val = workspace_loss(ws, theta, kept)
            assert len(kept) == len(self.MATS)
            products.clear()
            got = _normal_equations(ws, theta, kept)
            assert products == []
            assert got[0] == loss_val
            for a, b in zip(got, want):
                np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("schedule", [MC, QUAD], ids=["mc-cv2", "quad"])
    def test_jacobian_reads_the_prices_a_loss_pass_kept(self, monkeypatch, schedule):
        # handed the (S_T, prices) of a loss pass at theta, the Jacobian
        # forms no payoff matrix or CV sum again, and J equals the
        # recomputed J bit for bit
        model, quotes = self.case()
        ws = build_workspace(model, quotes, np.ones(6), schedule, BrownianDriver(5))
        real = pricing._group_prices
        calls = []
        monkeypatch.setattr(pricing, "_group_prices",
                            lambda *args: calls.append(args) or real(*args))
        for theta in (model.coefficients, model.coefficients + 0.5):
            want = [pricing._group_jacobian(g, theta) for g in ws]
            kept = []
            workspace_loss(ws, theta, kept)
            calls.clear()
            got = [pricing._group_jacobian(g, theta, k) for g, k in zip(ws, kept)]
            assert calls == []
            for (p1, j1), (p2, j2) in zip(got, want):
                np.testing.assert_array_equal(p1, p2)
                np.testing.assert_array_equal(j1, j2)
        # V = 1{s > K} has the bits of the payoff indicator 1{(s - K)+ > 0},
        # also where s - K rounds, at +-inf and at NaN
        k = 100.0
        s = np.array([k, np.nextafter(k, 0.0), np.nextafter(k, 200.0), 5e-324,
                      np.inf, -np.inf, np.nan])
        np.testing.assert_array_equal(np.greater(s, k),
                                      np.greater(np.maximum(s - k, 0.0), 0.0))

    def fit_case(self):
        truth = make_model([10.0, 3.0, -1.0, 0.5, 2.0])
        quotes = surface_from_model(truth, self.MATS, [95.0, 100.0, 105.0], QUAD,
                                    BrownianDriver(31))
        cfg = CalibrationConfig(max_iterations=45, resim_every=15, seed=7)
        model0 = truth.with_coefficients(initial_coefficients(5, cfg) * truth.s0)
        return model0, quotes, cfg, self.MC

    def test_gauss_newton_prices_each_row_once(self, monkeypatch):
        # each row is one pass, a loss pass or a workspace's first Jacobian;
        # the Jacobian at an accepted step reads its trial's S_T and writes
        # no row, so no row repeats the loss of the row before it
        case = self.fit_case()
        products = self.count_products(monkeypatch)
        _, history = calibrate(*case)
        assert history[-1].best_loss < history[0].loss
        assert not any(not (a.resimulated or b.resimulated) and a.loss == b.loss
                       for a, b in zip(history, history[1:]))
        assert len(products) == len(history) * len(self.MATS)

    def test_every_row_is_a_first_pass_or_a_workspace_loss_call(self, monkeypatch):
        # what a tracer sees through the module attributes: each row is a
        # workspace's first normal equations or one workspace_loss call, and
        # the normal equations at an accepted step take that call's S_T
        case = self.fit_case()
        module = sys.modules["chaoscal.calibrate"]
        real_loss, real_normal = module.workspace_loss, module._normal_equations
        first, handed, losses = [], [], []

        def counted_loss(ws, theta, kept=None):
            losses.append(theta)
            return real_loss(ws, theta, kept)

        def counted_normal(ws, theta, kept=None):
            (first if kept is None else handed).append(kept)
            return real_normal(ws, theta, kept)

        monkeypatch.setattr(module, "workspace_loss", counted_loss)
        monkeypatch.setattr(module, "_normal_equations", counted_normal)
        _, history = calibrate(*case)
        assert len(history) == len(first) + len(losses)
        assert handed and all(len(kept) == len(self.MATS) for kept in handed)

    def test_successive_workspaces_redraw_one_buffer(self, monkeypatch):
        truth, quotes = self.case()
        module = sys.modules["chaoscal.calibrate"]
        real_build = module.build_workspace
        seen = []

        def spy(*args, tags=(), **kwargs):
            ws = real_build(*args, tags=tags, **kwargs)
            seen.append((tags, [(g.features, g.features.copy(), g.live)
                                for g in ws]))
            return ws

        monkeypatch.setattr(module, "build_workspace", spy)
        cfg = CalibrationConfig(max_iterations=30, resim_every=10, seed=7)
        calibrate(truth.with_coefficients(truth.coefficients * 1.1), quotes, cfg, self.MC)
        assert len(seen) >= 3
        for (_, before), (_, after) in zip(seen, seen[1:]):
            for (held, _, _), (redrawn, _, _) in zip(before, after):
                assert np.shares_memory(held, redrawn)
        for tags, groups in seen:
            for mi, (t, (_, drawn, live)) in enumerate(zip(self.MATS, groups)):
                full = sample_features(truth, t, 3000, BrownianDriver(cfg.seed),
                                       tags=tags + (3233, mi, 0)).features
                np.testing.assert_array_equal(full[:, live], drawn)
        assert [f.shape[1] for _, f, _ in seen[0][1]] == [2, 5]  # T 0.3 drops 3


class TestFitPool:
    """A fit runs each Monte Carlo maturity's draws and passes as tasks on one
    pool; the calling thread keeps BLAS, the CV statistics and the warnings."""

    MC = PricingSchedule(default=PricingMethod("mc", n_paths=3000, cv_degree=2,
                                               beta_samples=1000))
    MATS = (0.3, 0.6, 1.0)

    def case(self, max_iterations=30):
        truth = make_model([10.0, 3.0, -1.0, 0.5, 2.0])
        quotes = surface_from_model(truth, self.MATS, [95.0, 100.0, 105.0], QUAD,
                                    BrownianDriver(31))
        cfg = CalibrationConfig(max_iterations=max_iterations, resim_every=10, seed=7)
        model0 = truth.with_coefficients(initial_coefficients(5, cfg) * truth.s0)
        return model0, quotes, cfg

    def test_worker_count_does_not_change_the_fit(self, monkeypatch):
        # one worker and two, the interpreter switching threads every
        # microsecond so that the tasks interleave as finely as they can
        module = sys.modules["chaoscal.calibrate"]
        real = module._group_prices
        threads = set()
        monkeypatch.setattr(module, "_group_prices", lambda *args: (
            threads.add(threading.get_ident()) or real(*args)))
        fits, used = [], []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for workers in (1, 2):
                monkeypatch.setattr(module, "_fit_workers", lambda quotes, sched: workers)
                threads.clear()
                fits.append(calibrate(*self.case(), self.MC))
                used.append(len(threads))
        finally:
            sys.setswitchinterval(interval)
        (fit1, h1), (fit2, h2) = fits
        assert used == [1, 2]
        assert len(h1) > 10
        assert ([(r.loss, r.best_loss, r.resimulated) for r in h1]
                == [(r.loss, r.best_loss, r.resimulated) for r in h2])
        np.testing.assert_array_equal(fit1.coefficients, fit2.coefficients)

    def test_passes_start_the_longest_task_first(self, monkeypatch):
        # each pass's Monte Carlo tasks are costed by paths x live columns,
        # so T 1.0 (all 5 columns) starts before T 0.3 (2 columns)
        module = sys.modules["chaoscal.calibrate"]
        real = module._run
        costs = []
        monkeypatch.setattr(module, "_run", lambda tasks, pool, cost=None: (
            costs.append(cost) or real(tasks, pool, cost)))
        model = make_model([8.0, 10.0, 2.0, 1.5, -2.0])
        quotes = _Surface([_Quote(t, k, mid_price=5.0, implied_vol=0.2, forward=100.0)
                           for t in (0.3, 1.0) for k in (95.0, 105.0)])
        ws = build_workspace(model, quotes, np.ones(4), self.MC, BrownianDriver(5))
        kept = []
        workspace_loss(ws, model.coefficients, kept)
        _normal_equations(ws, model.coefficients, kept)
        assert costs == [[3000 * 2, 3000 * 5]] * 2

    def test_row_dot_runs_only_on_the_calling_thread(self, monkeypatch):
        # the quadrature maturity's S_T goes through BLAS on the calling
        # thread; no Monte Carlo task calls `_row_dot`
        calls = []
        for module in (pricing, model_module):
            def guarded(features, theta, real=module._row_dot):
                if threading.current_thread() is not threading.main_thread():
                    raise AssertionError("_row_dot ran on a worker thread")
                calls.append(len(features))
                return real(features, theta)

            monkeypatch.setattr(module, "_row_dot", guarded)
        mixed = PricingSchedule(default=self.MC.default,
                                entries=((0.3, PricingMethod("quad", n_nodes=20)),))
        _, history = calibrate(*self.case(), mixed)
        assert calls and len(history) > 10

    def test_first_task_error_in_maturity_order_closes_the_pool(self, monkeypatch):
        # maturity 1.0's draw fails at once, 0.3's later: the fit raises
        # 0.3's, and its pool is shut down by then
        module = sys.modules["chaoscal.calibrate"]
        pools = []

        class Recorded(ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                pools.append(self)

        real = pricing.sample_features

        def failing(model, t, *args, **kwargs):
            if t == 0.6:
                return real(model, t, *args, **kwargs)
            if t == 0.3:
                time.sleep(0.05)
            raise ValidationError(f"draw at {t} failed")

        monkeypatch.setattr(module, "ThreadPoolExecutor", Recorded)
        monkeypatch.setattr(module, "_fit_workers", lambda quotes, sched: 2)
        monkeypatch.setattr(pricing, "sample_features", failing)
        with pytest.raises(ValidationError, match=r"^draw at 0.3 failed$") as err:
            calibrate(*self.case(), self.MC)
        assert err.value.history == []
        assert len(pools) == 1 and pools[0]._shutdown

    def test_singular_cv_warning_reaches_the_caller(self):
        # a zero start prices S_T = S_0 on every path, so the first
        # workspace's CV covariance is singular; its warning is issued on
        # the calling thread, where pytest.warns catches it
        _, quotes, cfg = self.case(max_iterations=3)
        with pytest.warns(RuntimeWarning, match="control-variate covariance is singular"):
            calibrate(make_model(np.zeros(5)), quotes, cfg, self.MC)


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
        got = -2.0 * _normal_equations(ws, model.coefficients)[2]
        g = ws[0]
        s = g.s0 + g.features @ model.coefficients
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
        grad = -2.0 * _normal_equations(ws, theta)[2]
        h = 1e-6
        for i in range(len(theta)):
            flips = 0.0
            for g in ws:
                s = g.s0 + g.features @ theta
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

    def test_price_jacobian_matches_central_differences(self):
        # MC groups with degree-2 CV (0.8, 1.2) and a quadrature group (0.3);
        # atol covers the rounding of O(100) prices over a 2e-6 step
        rng = np.random.default_rng(78)
        theta = 4.0 * rng.standard_normal(9)
        model = make_model(theta, m=3, horizon=1.2)
        schedule = PricingSchedule(
            default=PricingMethod("mc", n_paths=4000, cv_degree=2,
                                  beta_samples=4000),
            entries=((0.3, PricingMethod("quad", n_nodes=25)),),
        )
        quotes = _Surface([
            _Quote(t, k, forward=100.0, implied_vol=0.2, mid_price=5.0)
            for t in (0.3, 0.8, 1.2) for k in (95.0, 100.0, 105.0)
        ])
        ws = build_workspace(model, quotes, np.ones(9), schedule,
                             BrownianDriver(13), tags=(0,))
        assert [g.m2c is not None for g in ws] == [False, True, True]
        h = 1e-6
        checked = 0
        for g in ws:
            prices, jac = pricing._group_jacobian(g, theta)
            np.testing.assert_array_equal(prices, pricing._group_prices(g, theta)[1])
            s = g.s0 + g.features @ theta
            for i in range(len(theta)):
                near = (np.abs(s[None, :] - g.strikes[:, None])
                        <= h * np.abs(g.features[:, i])[None, :])
                if near.any():  # a payoff kink inside the difference step
                    continue
                ei = np.zeros_like(theta)
                ei[i] = h
                fd = (pricing._group_prices(g, theta + ei)[1]
                      - pricing._group_prices(g, theta - ei)[1]) / (2 * h)
                np.testing.assert_allclose(jac[:, i], fd, rtol=1e-6, atol=1e-7,
                                           err_msg=f"T={g.maturity}, coordinate {i}")
                checked += 1
        assert checked >= 20

    @pytest.mark.parametrize("schedule", [
        PricingSchedule(default=PricingMethod("mc", n_paths=4000, cv_degree=2,
                                              beta_samples=4000)),
        PricingSchedule(default=PricingMethod("quad", n_nodes=25)),
    ], ids=["mc-cv2", "quad"])
    def test_gradient_is_minus_two_jacobian_transpose_weighted_residuals(self, schedule):
        # the loss gradient is -2 sum_g J_g^T Gamma_g r_g, with J_g the price
        # Jacobian that Gauss-Newton steps with
        rng = np.random.default_rng(79)
        theta = 4.0 * rng.standard_normal(9)
        model = make_model(theta, m=3, horizon=1.2)
        quotes = _Surface([
            _Quote(t, k, forward=100.0, implied_vol=0.2, mid_price=5.0)
            for t in (0.3, 0.8, 1.2) for k in (95.0, 100.0, 105.0)
        ])
        ws = build_workspace(model, quotes, np.linspace(0.5, 1.5, 9), schedule,
                             BrownianDriver(13), tags=(0,))
        if schedule.default.kind == "mc":
            assert all(g.m2c is not None for g in ws)
        val, _, b = _normal_equations(ws, theta)
        got = -2.0 * b
        want = np.zeros_like(theta)
        for g in ws:
            prices, jac = pricing._group_jacobian(g, theta)
            want -= 2.0 * jac.T @ (g.gweights * (g.targets - prices))
        assert val == workspace_loss(ws, theta)
        assert np.abs(want).max() > 0.0
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15 * np.abs(want).max())

    def test_annihilated_columns_have_zero_gradients(self):
        # T = 0.3 lies in the first of two cells, which annihilates every
        # index with a second-cell exponent: the group drops their feature
        # columns, and their Jacobian entries are exact zeros
        model = make_model([8.0, 10.0, 2.0, 1.5, -2.0])
        quotes = _Surface([
            _Quote(t, k, mid_price=5.0, implied_vol=0.2, forward=100.0)
            for t in (0.3, 1.0) for k in (95.0, 105.0)
        ])
        mc = PricingSchedule(default=PricingMethod("mc", n_paths=2000, cv_degree=2,
                                                   beta_samples=1000))
        ws = build_workspace(model, quotes, np.ones(4), mc, BrownianDriver(5))
        theta = model.coefficients
        dead = np.array([a.exponents[1] > 0 for a in model.indices])
        assert 0 < dead.sum() < len(dead)
        np.testing.assert_array_equal(ws[0].live, np.flatnonzero(~dead))
        np.testing.assert_array_equal(ws[1].live, np.arange(len(dead)))
        jacs = []
        for g in ws:
            jac = pricing._group_jacobian(g, theta)[1]
            # the plain per-strike form: features^T v_k plus the CV moment
            # term, on the full-width feature matrix
            s = pricing._group_prices(g, theta)[0]
            pay = np.maximum(s - g.strikes[:, None], 0.0)
            full = np.zeros((len(s), len(theta)))
            full[:, g.live] = g.features
            want = np.array([
                full.T @ (g.weights * ((pay[k] > 0.0) - g.beta1[k]
                                       - 2.0 * g.beta2[k] * s))
                + 2.0 * g.beta2[k] * (g.m2c * theta)
                for k in range(len(g.strikes))])
            np.testing.assert_allclose(jac, want, rtol=1e-12)
            jacs.append(jac)
        assert np.all(jacs[0][:, dead] == 0.0)
        assert np.all(jacs[0][:, ~dead] != 0.0)
        assert np.all(jacs[1] != 0.0)

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
        # the strike at the money moves the fit from the default init_std, so
        # the runs compare accepted steps, not two copies of the start
        truth = make_model([10.0, 3.0, -1.0, 0.5, 2.0])
        driver = BrownianDriver(31)
        quotes = surface_from_model(truth, [0.5, 1.0], [95.0, 100.0, 105.0], QUAD,
                                    driver)
        mc = PricingSchedule(default=PricingMethod("mc", n_paths=2000,
                                                   beta_samples=2000))
        cfg = CalibrationConfig(max_iterations=60, resim_every=20, seed=7)
        model0 = truth.with_coefficients(initial_coefficients(5, cfg) * truth.s0)
        fit1, h1 = calibrate(model0, quotes, cfg, mc)
        fit2, h2 = calibrate(model0, quotes, cfg, mc)
        assert h1[-1].best_loss < h1[0].loss
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
                            lambda *a, cache=None, **kw: real_build(*a, **kw))
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
        cfg = CalibrationConfig(max_iterations=45, resim_every=15, seed=7,
                                optimizer="adamw")
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

    def test_gauss_newton_rows_and_candidates(self, monkeypatch):
        # one row per pass; only each workspace's first pass, priced on fresh
        # streams, can become the best, and the fit returns that candidate
        truth = make_model([10.0, 3.0, -1.0, 0.5, 2.0])
        driver = BrownianDriver(31)
        quotes = surface_from_model(truth, [0.5, 1.0], [95.0, 100.0, 105.0], QUAD,
                                    driver)
        mc = PricingSchedule(default=PricingMethod("mc", n_paths=2000,
                                                   beta_samples=2000))
        cfg = CalibrationConfig(max_iterations=45, resim_every=15, seed=7)
        model0 = truth.with_coefficients(initial_coefficients(5, cfg) * truth.s0)
        module = sys.modules["chaoscal.calibrate"]
        starts = []
        real_build = module.build_workspace
        monkeypatch.setattr(module, "build_workspace", lambda model, *a, **kw: (
            starts.append(model.coefficients) or real_build(model, *a, **kw)))
        fitted, history = calibrate(model0, quotes, cfg, mc)
        assert [r.iteration for r in history] == list(range(len(history)))
        first = [r for r in history if r.resimulated]
        # ceil(45 / 15) workspaces, and one more that prices the last step
        assert len(first) == len(starts) == 4
        assert history[0].resimulated and history[-1].resimulated
        assert 4 < len(history) <= 46
        best = [r.best_loss for r in history]
        assert all(b2 <= b1 for b1, b2 in zip(best, best[1:]))
        want = np.minimum.accumulate([r.loss for r in first])
        assert [r.best_loss for r in first] == list(want)
        winner = int(np.argmin([r.loss for r in first]))
        assert winner == 3  # the last workspace's steps, priced on the extra one
        np.testing.assert_array_equal(fitted.coefficients,
                                      starts[winner] * truth.s0)

    def test_gauss_newton_keeps_dead_coefficients_without_a_ridge(self):
        # every quote lies in the first of two cells, so the coefficients of
        # indices with a second-cell exponent move no price; weight_decay = 0
        # leaves no ridge either, and the damped system must stay solvable.
        # The start perturbs the two live coefficients of the truth.
        truth = make_model([8.0, 10.0, 2.0, 1.5, -2.0])
        quotes = surface_from_model(truth, [0.25, 0.5], [95.0, 100.0, 105.0],
                                    QUAD, BrownianDriver(21))
        cfg = CalibrationConfig(max_iterations=200, weight_decay=0.0)
        model0 = truth.with_coefficients([-3.0, 12.0, 0.5, 4.0, -1.0])
        fitted, history = calibrate(model0, quotes, cfg, QUAD)
        dead = [i for i, a in enumerate(truth.indices) if a.exponents[1] > 0]
        assert dead == [0, 2, 3]
        np.testing.assert_array_equal(fitted.coefficients[dead],
                                      model0.coefficients[dead])
        assert history[-1].best_loss < 1e-10 * history[0].loss

    def test_short_gauss_newton_fit_returns_its_steps(self):
        # max_iterations <= resim_every: one workspace, whose steps only the
        # extra workspace after it can price
        truth = make_model([10.0, 3.0, -1.0, 0.5, 2.0])
        quotes = surface_from_model(truth, [0.5, 1.0], [90.0, 100.0, 110.0], QUAD,
                                    BrownianDriver(31))
        cfg = CalibrationConfig(max_iterations=50, resim_every=50, weight_decay=0.0)
        model0 = truth.with_coefficients(initial_coefficients(5, cfg) * truth.s0)
        fitted, history = calibrate(model0, quotes, cfg, QUAD)
        resims = [r.iteration for r in history if r.resimulated]
        assert resims == [0, len(history) - 1]
        assert history[-1].best_loss == history[-1].loss < history[0].loss
        assert not np.array_equal(fitted.coefficients, model0.coefficients)
        weights = vega_weights(quotes)
        scored = [loss(m, quotes, weights, QUAD, BrownianDriver(5))
                  for m in (model0, fitted)]
        assert scored[1] < 0.2 * scored[0]

    def test_gauss_newton_fits_weakly_seen_coefficients_without_a_ridge(self):
        # quotes in the first of two cells, weight_decay = 0 and the default
        # 1e-4 start: some coefficients have a tiny but nonzero curvature, and
        # the damping floor keeps their steps bounded.  Under diag(H) alone,
        # seven of these ten seeds stayed at the start's loss (0.062).  Seed 8
        # settles in a local minimum at 0.0093, as AdamW does.
        truth = make_model([8.0, 10.0, 2.0, 1.5, -2.0])
        quotes = surface_from_model(truth, [0.25, 0.5], [95.0, 100.0, 105.0],
                                    QUAD, BrownianDriver(21))
        fitted = []
        for seed in range(10):
            cfg = CalibrationConfig(max_iterations=2000, weight_decay=0.0, seed=seed)
            model0 = truth.with_coefficients(initial_coefficients(5, cfg) * truth.s0)
            _, history = calibrate(model0, quotes, cfg, QUAD)
            fitted.append(history[-1].best_loss < 1e-20 * history[0].loss)
        assert sum(fitted) >= 9

    def test_patience_stops_early_on_a_flat_loss(self):
        # an exactly matched surface cannot improve; patience cuts the run
        truth = make_model([10.0, 3.0, -1.0, 0.5, 2.0])
        driver = BrownianDriver(31)
        quotes = surface_from_model(truth, [1.0], [100.0], QUAD, driver)
        cfg = CalibrationConfig(max_iterations=500, patience=20,
                                weight_decay=0.0, learning_rate=1e-12,
                                optimizer="adamw")
        _, history = calibrate(truth, quotes, cfg, QUAD)
        assert len(history) == 21  # anchor at 0, gave up 20 iterations later

    def test_gauss_newton_patience_stops_early_on_a_flat_loss(self):
        # at the exact fit every trial is rejected, workspace after workspace
        truth = make_model([10.0, 3.0, -1.0, 0.5, 2.0])
        quotes = surface_from_model(truth, [1.0], [100.0], QUAD, BrownianDriver(31))
        cfg = CalibrationConfig(max_iterations=500, patience=20, weight_decay=0.0)
        _, history = calibrate(truth, quotes, cfg, QUAD)
        assert len(history) == 21
        assert sum(r.resimulated for r in history) > 1

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
            grad = -2.0 * _normal_equations(ws, theta)[2]
            theta = theta - 1000.0 * grad
            losses.append(workspace_loss(ws, theta))
        assert all(b < a + 1e-15 for a, b in zip(losses, losses[1:]))
        assert losses[-1] < 1e-10 * losses[0]

    def test_error_mid_run_carries_partial_history(self):
        truth = make_model([10.0, 3.0, -1.0, 0.5, 2.0])
        driver = BrownianDriver(31)
        quotes = surface_from_model(truth, [1.0], [100.0], QUAD, driver)
        cfg = CalibrationConfig(max_iterations=50, learning_rate=1e160,
                                weight_decay=0.0, optimizer="adamw")
        model0 = truth.with_coefficients(initial_coefficients(5, cfg) * truth.s0)
        with np.errstate(over="ignore"), pytest.raises(OptimizerError) as err:
            calibrate(model0, quotes, cfg, QUAD)
        assert len(err.value.history) >= 1
        assert "iteration" in str(err.value)

    def test_gauss_newton_error_mid_run_carries_partial_history(self, monkeypatch):
        # the third pass, the second trial step, prices to NaN
        truth = make_model([10.0, 3.0, -1.0, 0.5, 2.0])
        quotes = surface_from_model(truth, [1.0], [100.0], QUAD, BrownianDriver(31))
        cfg = CalibrationConfig(max_iterations=50)
        model0 = truth.with_coefficients(initial_coefficients(5, cfg) * truth.s0)
        module = sys.modules["chaoscal.calibrate"]
        real_loss = module.workspace_loss
        calls = []

        def failing(ws, theta, kept=None):
            calls.append(theta)
            return np.nan if len(calls) == 2 else real_loss(ws, theta, kept)

        monkeypatch.setattr(module, "workspace_loss", failing)
        with pytest.raises(OptimizerError, match="non-finite loss at iteration 2") as err:
            calibrate(model0, quotes, cfg, QUAD)
        assert len(err.value.history) == 2

    def test_frozen_gradient_warns_at_iteration_0(self):
        # strikes 20-30% out of the money, a start spread of 1e-8 of spot:
        # every payoff is zero at the start, so the gradient is exactly zero
        cfg = CalibrationConfig(max_iterations=3, init_std=1e-8, seed=1)
        model0 = make_model(initial_coefficients(5, cfg) * 100.0)
        quotes = _Surface([_Quote(t, k, forward=100.0, implied_vol=0.2, mid_price=1.0)
                           for t in (0.5, 1.0) for k in (120.0, 130.0)])
        mc = PricingSchedule(default=PricingMethod("mc", n_paths=2000, cv_degree=0))
        with pytest.warns(RuntimeWarning, match=r"exactly zero at iteration 0: every "
                                                r"mapped strike.*init_std = 1e-08"):
            calibrate(model0, quotes, cfg, mc)

    def test_fit_that_keeps_its_start_warns(self):
        # strikes 5% either side of the money and the default 1e-4 start
        # spread: the prices barely move (gradients near 1e-17), no
        # Gauss-Newton step improves on the start, and the fit says so
        truth = make_model([10.0, 3.0, -1.0, 0.5, 2.0])
        quotes = surface_from_model(truth, [0.5, 1.0], [95.0, 105.0], QUAD,
                                    BrownianDriver(31))
        cfg = CalibrationConfig(max_iterations=50, weight_decay=0.0)
        model0 = truth.with_coefficients(initial_coefficients(5, cfg) * truth.s0)
        with pytest.warns(RuntimeWarning, match=r"no pass improved on the "
                                                r"starting loss.*init_std = 0.0001"):
            fitted, history = calibrate(model0, quotes, cfg, QUAD)
        np.testing.assert_array_equal(fitted.coefficients, model0.coefficients)

    def test_adamw_settings_under_gauss_newton_warn(self):
        cfg = CalibrationConfig(max_iterations=0, learning_rate=3e-3)
        with pytest.warns(RuntimeWarning, match=r"learning_rate is set, "
                                                r"but only optimizer 'adamw'"):
            calibrate(make_model(np.zeros(5)), _Surface([]), cfg, QUAD)

    def test_moving_start_does_not_warn(self):
        cfg = CalibrationConfig(max_iterations=3, seed=1)
        model0 = make_model(initial_coefficients(5, cfg) * 100.0)
        quotes = _Surface([_Quote(1.0, 100.0, forward=100.0, implied_vol=0.2,
                                  mid_price=8.0)])
        mc = PricingSchedule(default=PricingMethod("mc", n_paths=2000, cv_degree=0))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            _, history = calibrate(model0, quotes, cfg, mc)
        assert len(history) == 4  # and one more workspace prices the last step

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


def _gauss_newton_rerun(workspace, theta, cfg, log):
    """`calibrate._gauss_newton` as it was before draw-free fixed points were
    replayed, verbatim: every round is built and priced."""
    mu = _GN_RIDGE * cfg.weight_decay
    moved = False
    for r in range(-(-cfg.max_iterations // cfg.resim_every)):
        ws = None  # the old groups' path weights and CV betas go first
        ws = workspace(r, theta)
        loss_val, a, b = _normal_equations(ws, theta)
        if r == 0:
            _warn_if_frozen(loss_val, a, cfg)
        if not log.record(loss_val, theta, True, True):
            return
        theta, moved, go = _gauss_newton_round(ws, theta, loss_val, a, b, mu, log)
        if not go:
            break
    if moved:
        ws = None
        ws = workspace(r + 1, theta)
        log.record(workspace_loss(ws, theta), theta, True, True)


class TestFixedPointReplay:
    """A Gauss-Newton round on a workspace that draws nothing and that accepts
    no step is replayed for the rounds left, not built and priced again."""

    def counted_fit(self, monkeypatch, quotes, cfg, schedule, rerun=False):
        """(fitted, history, builds, passes): the fit, its workspace builds
        and its priced passes (first normal equations and loss passes)."""
        module = sys.modules["chaoscal.calibrate"]
        if rerun:  # the old loop, run on the module's globals as it was
            monkeypatch.setattr(module, "_gauss_newton", types.FunctionType(
                _gauss_newton_rerun.__code__, vars(module)))
        counts = {"builds": 0, "passes": 0}
        real_build = module.build_workspace
        real_loss, real_normal = module.workspace_loss, module._normal_equations

        def build(*args, **kwargs):
            counts["builds"] += 1
            return real_build(*args, **kwargs)

        def counted_loss(ws, theta, kept=None):
            counts["passes"] += 1
            return real_loss(ws, theta, kept)

        def counted_normal(ws, theta, kept=None):
            counts["passes"] += kept is None
            return real_normal(ws, theta, kept)

        monkeypatch.setattr(module, "build_workspace", build)
        monkeypatch.setattr(module, "workspace_loss", counted_loss)
        monkeypatch.setattr(module, "_normal_equations", counted_normal)
        model0 = make_model(initial_coefficients(5, cfg) * 100.0)
        fitted, history = calibrate(model0, quotes, cfg, schedule)
        monkeypatch.undo()
        return fitted, history, counts["builds"], counts["passes"]

    @staticmethod
    def rows(history):
        return [(r.iteration, r.loss, r.best_loss, r.resimulated) for r in history]

    @staticmethod
    def quotes():
        truth = make_model([10.0, 3.0, -1.0, 0.5, 2.0])
        return surface_from_model(truth, [0.3, 1.0], [95.0, 100.0, 105.0], QUAD,
                                  BrownianDriver(31))

    # to max_iterations, and by patience within the replayed rounds
    @pytest.mark.parametrize("patience", [1000, 60], ids=["max_iterations",
                                                                 "patience"])
    def test_replay_is_the_rerun_bit_for_bit(self, monkeypatch, patience):
        cfg = CalibrationConfig(max_iterations=300, resim_every=10, seed=7,
                                patience=patience, tol=1e-12)
        quotes = self.quotes()
        fit, history, builds, passes = self.counted_fit(monkeypatch, quotes, cfg, QUAD)
        want_fit, want, want_builds, want_passes = self.counted_fit(
            monkeypatch, quotes, cfg, QUAD, rerun=True)
        assert self.rows(history) == self.rows(want)
        np.testing.assert_array_equal(fit.coefficients, want_fit.coefficients)
        assert history[-1].best_loss < 1e-6 * history[0].loss
        # the fit replayed rounds that the rerun built and priced
        assert builds < want_builds == sum(r.resimulated for r in want)
        assert passes < want_passes == len(want)
        if patience == 1000:
            assert len(history) == cfg.max_iterations
        else:
            assert len(history) < cfg.max_iterations

    def test_builds_and_passes_stop_at_the_fixed_point(self, monkeypatch):
        # the builds and passes are those of the rounds up to the first that
        # accepts nothing; the round after it repeats its rows
        cfg = CalibrationConfig(max_iterations=300, resim_every=10, seed=7)
        _, history, builds, passes = self.counted_fit(monkeypatch, self.quotes(),
                                                      cfg, QUAD)
        starts = [r.iteration for r in history if r.resimulated]
        assert 1 < builds < len(starts) == 30
        assert passes == starts[builds]
        fixed = [r.loss for r in history[starts[builds - 1]:starts[builds]]]
        again = [r.loss for r in history[starts[builds]:starts[builds + 1]]]
        assert fixed == again and len(fixed) > 1

    def test_a_monte_carlo_maturity_is_never_replayed(self, monkeypatch):
        # a frozen start with no ridge: every trial step is zero, so no
        # round accepts one.  On quadrature alone the fit prices its first
        # round only; with one Monte Carlo maturity it builds every round
        cfg = CalibrationConfig(max_iterations=60, resim_every=10, init_std=1e-8,
                                weight_decay=0.0, seed=1)
        quotes = _Surface([_Quote(t, k, forward=100.0, implied_vol=0.2, mid_price=1.0)
                           for t in (0.5, 1.0) for k in (120.0, 130.0)])
        mixed = PricingSchedule(
            default=PricingMethod("quad", n_nodes=20),
            entries=((1.0, PricingMethod("mc", n_paths=2000, cv_degree=0)),))
        quad = PricingSchedule(default=PricingMethod("quad", n_nodes=20))
        fits = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            for schedule in (mixed, quad):
                fits.append(self.counted_fit(monkeypatch, quotes, cfg, schedule))
                fits.append(self.counted_fit(monkeypatch, quotes, cfg, schedule,
                                             rerun=True))
        (_, h, builds, passes), (_, h_rerun, _, _) = fits[:2]
        assert len(h) == cfg.max_iterations
        assert builds == sum(r.resimulated for r in h) == 6
        assert passes == len(h)
        assert self.rows(h) == self.rows(h_rerun)
        (_, h, builds, passes), (_, h_rerun, _, _) = fits[2:]
        assert (builds, passes) == (1, 11)
        assert self.rows(h) == self.rows(h_rerun)
