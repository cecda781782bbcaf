"""Black-Scholes toolkit and exotic closed forms, gated by MC oracles.

The down-and-out and lookback closed forms are checked against GBM Monte
Carlo with *exact* continuous-monitoring corrections (Brownian-bridge
crossing probabilities for the barrier, bridge-minimum sampling for the
lookback), so the tests discriminate the closed forms sharply.
"""

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import ndtr
from scipy.stats import norm

from chaoscal import vol
from chaoscal.errors import InversionError, ValidationError
from chaoscal.vol import (
    SIGMA_MAX,
    SIGMA_MIN,
    DownAndOutCall,
    ForwardStartCall,
    LookbackCall,
    bs_call,
    bs_put,
    bs_vega,
    exotic_bs_price,
    exotic_implied_vol,
    implied_vol,
)


EPS = np.finfo(float).eps


class TestNormal:
    """The erfc-based Phi and the closed-form phi against scipy and mpmath."""

    def test_cdf_within_4_ulp_of_exact(self):
        # mpmath at 60 digits is the exact value of Phi at each double x
        xs = np.concatenate([np.linspace(-38.0, -5.0, 331),
                             np.linspace(-5.0, 9.0, 141)])
        with mpmath.workdps(60):
            exact = np.array([float(mpmath.ncdf(mpmath.mpf(float(x)))) for x in xs])
        keep = exact > 1e-300
        got = vol._norm_cdf(xs[keep])
        ulps = np.abs(got - exact[keep]) / np.spacing(exact[keep])
        assert ulps.max() <= 4.0

    def test_cdf_agrees_with_ndtr(self):
        # ndtr rounds x / sqrt 2 before its erfc, which moves its value by a
        # relative x^2 eps (about 1500 ulp near x = -37); the bound allows
        # 4 ulp times that conditioning and nothing more
        xs = np.linspace(-38.0, 9.0, 200_001)
        want = ndtr(xs)
        keep = want > 1e-300
        got = vol._norm_cdf(xs[keep])
        bound = 4.0 * np.spacing(want[keep]) * (1.0 + xs[keep] ** 2)
        assert np.all(np.abs(got - want[keep]) <= bound)
        core = keep & (np.abs(xs) <= 0.5)  # well-conditioned: plain 4 ulp
        assert np.all(np.abs(vol._norm_cdf(xs[core]) - want[core])
                      <= 4.0 * np.spacing(want[core]))

    def test_cdf_shapes_and_limits(self):
        assert isinstance(vol._norm_cdf(0.3), float)
        assert vol._norm_cdf(np.zeros((2, 3))).shape == (2, 3)
        assert vol._norm_cdf(0.0) == 0.5
        assert vol._norm_cdf(np.inf) == 1.0
        assert vol._norm_cdf(-np.inf) == 0.0
        assert np.isnan(vol._norm_cdf(np.nan))

    def test_pdf_matches_scipy(self):
        xs = np.linspace(-38.0, 38.0, 10_001)
        np.testing.assert_allclose(vol._norm_pdf(xs), norm.pdf(xs), rtol=2 * EPS,
                                   atol=0.0)


class TestBisection:
    """`_bisect` stops within 1e-14 of the root brentq finds at xtol 1e-14."""

    @staticmethod
    def spy(monkeypatch):
        calls = []
        real = vol._bisect

        def record(f, lo, hi):
            root = real(f, lo, hi)
            calls.append((f, lo, hi, root))
            return root

        monkeypatch.setattr(vol, "_bisect", record)
        return calls

    @pytest.mark.parametrize("s,k,t,sig,r,q", [
        (100.0, 250.0, 0.25, 1.0, 0.0, 0.0),  # vega ~ 0 at the Newton start
        (100.0, 40.0, 2.0, 2.5, 0.02, 0.01),  # Newton steps past SIGMA_MAX
        (100.0, 300.0, 0.1, 3.0, 0.0, 0.0),
    ])
    def test_implied_vol_fallback(self, monkeypatch, s, k, t, sig, r, q):
        calls = self.spy(monkeypatch)
        got = implied_vol(bs_call(s, k, t, sig, r, q), s, k, t, r, q)
        assert len(calls) == 1  # Newton gave up: this is the fallback path
        f, lo, hi, root = calls[0]
        assert (lo, hi) == (SIGMA_MIN, SIGMA_MAX) and got == root
        assert abs(root - brentq(f, lo, hi, xtol=1e-14)) <= 1e-14
        assert root == pytest.approx(sig, abs=1e-12)

    @pytest.mark.parametrize("spec", [
        ForwardStartCall(0.5, 1.0, strike_ratio=1.0),
        DownAndOutCall(1.0, 100.0, 85.0),
        LookbackCall(1.0),
    ], ids=["forward_start", "down_and_out", "lookback"])
    @pytest.mark.parametrize("sig", [0.1, 0.25, 0.6])
    def test_exotic_root(self, monkeypatch, spec, sig):
        calls = self.spy(monkeypatch)
        got = exotic_implied_vol(exotic_bs_price(spec, sig, 100.0), spec, 100.0)
        f, lo, hi, root = calls[0]
        assert (lo, hi) == (SIGMA_MIN, SIGMA_MAX) and got == root
        assert abs(root - brentq(f, lo, hi, xtol=1e-14)) <= 1e-14


class TestVanilla:
    def test_lognormal_quadrature_oracle(self):
        s, k, t, sig = 100.0, 100.0, 1.0, 0.2
        # E[(S e^{-sig^2 t/2 + sig sqrt(t) Z} - K)_+]
        payoff = lambda z: max(
            s * np.exp(-0.5 * sig**2 * t + sig * np.sqrt(t) * z) - k, 0.0
        ) * norm.pdf(z)
        want, _ = quad(payoff, -12, 12, epsabs=1e-12, limit=200)
        got = bs_call(s, k, t, sig)
        assert got == pytest.approx(want, abs=1e-8)
        assert got == pytest.approx(7.9656, abs=5e-5)

    def test_zero_vol_intrinsic(self):
        assert bs_call(100, 80, 1.0, 0.0) == pytest.approx(20.0)
        assert bs_call(100, 80, 1.0, 1e-12, r=0.02, q=0.01) == pytest.approx(
            100 * np.exp(-0.01) - 80 * np.exp(-0.02), rel=1e-9
        )
        assert bs_vega(100, 80, 1.0, 0.0) == 0.0

    def test_vega_finite_difference(self):
        s, k, t, sig, r, q = 110.0, 95.0, 0.7, 0.3, 0.02, 0.04
        eps = 1e-5
        fd = (bs_call(s, k, t, sig + eps, r, q) - bs_call(s, k, t, sig - eps, r, q)) / (
            2 * eps
        )
        assert bs_vega(s, k, t, sig, r, q) == pytest.approx(fd, rel=1e-6)

    def test_put_call_parity(self):
        s, k, t, sig, r, q = 100.0, 120.0, 1.5, 0.25, 0.03, 0.01
        lhs = bs_call(s, k, t, sig, r, q) - bs_put(s, k, t, sig, r, q)
        rhs = s * np.exp(-q * t) - k * np.exp(-r * t)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_shape_monotonicity(self):
        ks = np.linspace(60, 140, 41)
        prices = bs_call(100.0, ks, 1.0, 0.2)
        assert np.all(np.diff(prices) < 0)
        assert np.all(np.diff(prices, 2) > -1e-12)  # convex in K
        sigs = np.linspace(0.05, 1.0, 30)
        assert np.all(np.diff(bs_call(100.0, 100.0, 1.0, sigs)) > 0)
        ts = np.linspace(0.1, 3.0, 30)
        assert np.all(np.diff(bs_call(100.0, 100.0, ts, 0.2)) > 0)


class TestImpliedVol:
    def test_round_trip(self):
        price = bs_call(100, 110, 0.8, 0.2, r=0.01, q=0.02)
        assert implied_vol(price, 100, 110, 0.8, r=0.01, q=0.02) == pytest.approx(
            0.2, abs=1e-8
        )

    def test_intrinsic_hits_lower_bound(self):
        assert implied_vol(20.0, 100, 80, 1.0) == vol.SIGMA_MIN

    def test_saturation_hits_upper_bound(self):
        price = 100.0 - 1e-9
        assert implied_vol(price, 100, 100, 1.0) == vol.SIGMA_MAX

    def test_out_of_bounds_raises(self):
        with pytest.raises(InversionError):
            implied_vol(101.0, 100, 100, 1.0)
        with pytest.raises(InversionError):
            implied_vol(19.0, 100, 80, 1.0)  # below intrinsic

    # deep out of the money, every price is within 1e-10 S of zero; Newton's
    # start 0.25 met the price test alone
    @pytest.mark.parametrize("sigma,t,k", [(0.5, 0.01, 500.0), (1.0, 0.01, 500.0),
                                           (2.0, 0.01, 500.0), (0.3, 0.05, 160.0)])
    def test_deep_out_of_the_money_round_trip(self, sigma, t, k):
        price = bs_call(100.0, k, t, sigma)
        assert 0.0 < price < 1e-8
        assert implied_vol(price, 100.0, k, t) == pytest.approx(sigma, rel=1e-10)

    def test_nan_price_raises(self):
        with pytest.raises(InversionError, match="not finite"):
            implied_vol(float("nan"), 100, 100, 1.0)


def gbm_paths(rng, s0, sig, t, n, steps):
    """Zero-rate GBM log paths, (n, steps + 1), and the step."""
    dt = t / steps
    z = rng.standard_normal((n, steps))
    x = np.log(s0) + np.cumsum(-0.5 * sig**2 * dt + sig * np.sqrt(dt) * z, axis=1)
    return np.concatenate([np.full((n, 1), np.log(s0)), x], axis=1), dt


class TestForwardStart:
    def test_tau_zero_is_vanilla(self):
        spec = ForwardStartCall(0.0, 1.0, strike_ratio=1.1)
        assert exotic_bs_price(spec, 0.2, 100.0) == pytest.approx(
            bs_call(100.0, 110.0, 1.0, 0.2)
        )

    def test_absolute_strike_is_vanilla(self):
        spec = ForwardStartCall(0.4, 1.0, strike=105.0)
        assert exotic_bs_price(spec, 0.25, 100.0) == bs_call(100.0, 105.0, 1.0, 0.25)

    def test_relative_strike_mc_oracle(self):
        s0, sig = 100.0, 0.25
        spec = ForwardStartCall(0.5, 1.25, strike_ratio=1.05)
        rng = np.random.default_rng(10)
        n = 2_000_000
        z1 = rng.standard_normal(n)
        z2 = rng.standard_normal(n)
        mu = -0.5 * sig**2
        s_tau = s0 * np.exp(mu * 0.5 + sig * np.sqrt(0.5) * z1)
        s_t = s_tau * np.exp(mu * 0.75 + sig * np.sqrt(0.75) * z2)
        pay = np.maximum(s_t - 1.05 * s_tau, 0.0)
        got = exotic_bs_price(spec, sig, s0)
        assert abs(pay.mean() - got) < 3 * pay.std() / np.sqrt(n)

    def test_validation(self):
        with pytest.raises(ValidationError):
            ForwardStartCall(1.5, 1.0, strike_ratio=1.0)
        with pytest.raises(ValidationError):
            ForwardStartCall(0.5, 1.0)
        with pytest.raises(ValidationError):
            ForwardStartCall(0.5, 1.0, strike_ratio=1.0, strike=100.0)

    @pytest.mark.parametrize("kwargs", [
        {"strike_ratio": -1.0}, {"strike_ratio": 0.0}, {"strike": -5.0},
        {"strike_ratio": 1.0, "maturity": 0.0, "tau": 0.0}])
    def test_nonpositive_strike_or_maturity_rejected(self, kwargs):
        with pytest.raises(ValidationError, match="must be positive"):
            ForwardStartCall(**{"tau": 0.5, "maturity": 1.0, **kwargs})


class TestDownAndOut:
    def test_tiny_barrier_is_vanilla(self):
        spec = DownAndOutCall(1.0, 100.0, 1e-6 * 100.0)
        assert exotic_bs_price(spec, 0.2, 100.0) == pytest.approx(
            bs_call(100.0, 100.0, 1.0, 0.2), abs=1e-8
        )

    def test_barrier_above_spot_rejected(self):
        with pytest.raises(ValidationError):
            exotic_bs_price(DownAndOutCall(1.0, 100.0, 101.0), 0.2, 100.0)

    def test_below_vanilla_everywhere(self):
        for lb in [5.0, 40.0, 80.0, 95.0, 99.5]:
            spec = DownAndOutCall(1.0, 100.0, lb)
            assert exotic_bs_price(spec, 0.2, 100.0) <= bs_call(100, 100, 1.0, 0.2) + 1e-12

    @pytest.mark.parametrize("k,lb", [(100.0, 90.0), (80.0, 90.0)])
    def test_bridge_mc_oracle(self, k, lb):
        # continuous monitoring enforced exactly via Brownian-bridge
        # crossing probabilities: P(hit in step) = exp(-2 a b / sig^2 dt);
        # a barrier above the strike has a closed form of its own
        s0, sig, t = 100.0, 0.2, 1.0
        spec = DownAndOutCall(t, k, lb)
        rng = np.random.default_rng(5)
        n, steps = 1_000_000, 64
        x, dt = gbm_paths(rng, s0, sig, t, n, steps)
        a = x[:, :-1] - np.log(lb)
        b = x[:, 1:] - np.log(lb)
        alive = (a.min(axis=1) > 0) & (b.min(axis=1) > 0)
        pcross = np.exp(-2 * np.clip(a, 0, None) * np.clip(b, 0, None) / (sig**2 * dt))
        surv = np.where(alive, np.prod(1 - pcross, axis=1), 0.0)
        pay = np.maximum(np.exp(x[:, -1]) - k, 0.0) * surv
        got = exotic_bs_price(spec, sig, s0)
        assert abs(pay.mean() - got) < 3 * pay.std() / np.sqrt(n)


class TestLookback:
    def test_above_atm_vanilla(self):
        for sig in [0.05, 0.2, 0.6]:
            for t in [0.25, 1.0, 2.0]:
                spec = LookbackCall(t)
                assert exotic_bs_price(spec, sig, 100.0) >= bs_call(100, 100, t, sig)

    def test_bridge_min_mc_oracle(self):
        # exact continuous minimum via bridge-minimum sampling per step
        s0, sig, t = 100.0, 0.2, 1.0
        rng = np.random.default_rng(6)
        n, steps = 1_000_000, 64
        x, dt = gbm_paths(rng, s0, sig, t, n, steps)
        a, b = x[:, :-1], x[:, 1:]
        u = rng.uniform(size=a.shape)
        bridge_min = 0.5 * (a + b - np.sqrt((a - b) ** 2 - 2 * sig**2 * dt * np.log(u)))
        m = np.exp(bridge_min.min(axis=1))
        pay = np.exp(x[:, -1]) - np.minimum(m, s0)
        got = exotic_bs_price(LookbackCall(t), sig, s0)
        assert abs(pay.mean() - got) < 3 * pay.std() / np.sqrt(n)


class TestExoticImpliedVol:
    def test_forward_start_round_trip(self):
        spec = ForwardStartCall(0.3, 1.0, strike_ratio=1.0)
        price = exotic_bs_price(spec, 0.25, 100.0)
        got = exotic_implied_vol(price, spec, 100.0)
        assert isinstance(got, float)
        assert got == pytest.approx(0.25, abs=1e-8)

    def test_nan_price_raises(self):
        with pytest.raises(InversionError, match="not finite"):
            exotic_implied_vol(float("nan"), LookbackCall(1.0), 100.0)

    def test_lookback_round_trip(self):
        spec = LookbackCall(0.75)
        price = exotic_bs_price(spec, 0.25, 100.0)
        assert exotic_implied_vol(price, spec, 100.0) == pytest.approx(0.25, abs=1e-8)

    def test_barrier_monotone_round_trip(self):
        spec = DownAndOutCall(1.0, 100.0, 40.0)  # barrier far below the strike
        price = exotic_bs_price(spec, 0.25, 100.0)
        assert exotic_implied_vol(price, spec, 100.0) == pytest.approx(0.25, abs=1e-8)

    def test_barrier_above_strike_round_trip(self):
        # a barrier above the strike makes the price fall as sigma grows
        spec = DownAndOutCall(1.0, 80.0, 90.0)
        price = exotic_bs_price(spec, 0.2, 100.0)
        assert exotic_bs_price(spec, 0.3, 100.0) < price
        assert exotic_implied_vol(price, spec, 100.0) == pytest.approx(0.2, abs=1e-8)

    # (spec, direction of the zero-rate price map in sigma: +1, 0 flat, -1)
    MAPS = {
        "forward_start": (ForwardStartCall(0.5, 1.0, strike_ratio=1.05), 1),
        "lookback": (LookbackCall(0.75), 1),
        "barrier_below_strike": (DownAndOutCall(1.0, 100.0, 85.0), 1),
        "barrier_at_strike": (DownAndOutCall(1.0, 90.0, 90.0), 0),
        "forward_start_at_maturity": (ForwardStartCall(1.0, 1.0, strike_ratio=0.9), 0),
        "barrier_above_strike": (DownAndOutCall(1.0, 80.0, 90.0), -1),
    }

    @pytest.mark.parametrize("case", sorted(MAPS))
    def test_price_is_monotone_in_sigma(self, case):
        # dense over the whole bracket: never against the direction, and
        # strictly with it once the price leaves its sigma -> 0 limit
        spec, direction = self.MAPS[case]
        sigmas = np.geomspace(SIGMA_MIN, SIGMA_MAX, 2001)
        steps = direction * np.diff([exotic_bs_price(spec, v, 100.0) for v in sigmas])
        if direction == 0:
            assert np.all(steps == 0.0)
        else:
            assert np.all(steps >= 0.0)
            assert np.all(steps[sigmas[1:] > 0.05] > 0.0)

    @pytest.mark.parametrize("case", ["barrier_at_strike", "forward_start_at_maturity"])
    def test_flat_map_has_no_implied_vol(self, case):
        spec, _ = self.MAPS[case]
        with pytest.raises(InversionError, match="does not depend on sigma"):
            exotic_implied_vol(exotic_bs_price(spec, 0.3, 100.0), spec, 100.0)

    @pytest.mark.parametrize("spec", [ForwardStartCall(0.0, 1.0, strike=50.0),
                                      DownAndOutCall(1.0, 80.0, 90.0)],
                             ids=["deep_in_the_money", "barrier_above_strike"])
    def test_price_reached_at_the_lower_end(self, spec):
        # both maps are pinned at their sigma -> 0 value near the lower end of
        # the bracket; that value inverts to SIGMA_MIN, as in implied_vol
        price = exotic_bs_price(spec, SIGMA_MIN, 100.0)
        assert exotic_implied_vol(price, spec, 100.0) == SIGMA_MIN

    def test_unattainable_price(self):
        with pytest.raises(InversionError):
            exotic_implied_vol(99.0, LookbackCall(0.5), 100.0)
        with pytest.raises(InversionError):  # above the price at sigma -> 0
            exotic_implied_vol(20.5, DownAndOutCall(1.0, 80.0, 90.0), 100.0)
