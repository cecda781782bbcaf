"""Reference models: Heston CF/Lewis, rough-Heston Riccati, simulation, exotics."""

import csv
import dataclasses
import json
import math
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp
from scipy.special import gamma as gamma_fn

from chaoscal import model as model_module
from chaoscal import bases, reference
from chaoscal.bases import (
    BrownianDriver,
    LegendreBasis,
    PiecewiseConstantBasis,
    _check_times,
    _spans,
)
from chaoscal.cli import main
from chaoscal.errors import (
    ConfigError,
    ExplosionError,
    IntegrationError,
    ValidationError,
)
from chaoscal.indices import enumerate_indices
from chaoscal.model import ChaosModel, path_grid
from chaoscal.modelio import serialize_model
from chaoscal.reference import (
    _MAX_STEPS,
    _PATH_BLOCK,
    _PSI_C,
    _PSI_FLOOR,
    HestonParams,
    RoughHestonParams,
    _grid_position,
    _workers,
    adaptive_panel_integral,
    exotic_mc_price,
    heston_cf,
    heston_lewis_price,
    heston_second_moment_finite,
    heston_simulate,
    lewis_call_price,
    rough_heston_cf,
    rough_riccati_solve,
)
from chaoscal.vol import (
    DownAndOutCall,
    ForwardStartCall,
    LookbackCall,
    bs_call,
    exotic_bs_price,
)
from conftest import traced_peak

P = HestonParams(100.0, 1.5, 0.04, 0.5, -0.7, 0.04)


def gatheral_cf(u, t, p):
    """Independent arrangement of the Heston CF (textbook C/D form)."""
    u = complex(u)
    iu = 1j * u
    c = p.kappa - p.rho * p.eps * iu
    d = np.sqrt(c**2 + p.eps**2 * (u**2 + iu))
    g = (c - d) / (c + d)
    emdt = np.exp(-d * t)
    big_c = p.kappa * p.vbar / p.eps**2 * (
        (c - d) * t - 2.0 * np.log((1 - g * emdt) / (1 - g))
    )
    big_d = (c - d) / p.eps**2 * (1 - emdt) / (1 - g * emdt)
    x0 = np.log(p.s0) + (p.r - p.q) * t
    return np.exp(iu * x0 + big_c + big_d * p.v0)


class TestHestonParams:
    def test_validation(self):
        with pytest.raises(ValidationError, match=r"key 's0' must be positive, got -1.0"):
            HestonParams(-1.0, 1.5, 0.04, 0.5, -0.7, 0.04)
        with pytest.raises(ValidationError, match=r"key 'kappa' must be positive, got 0.0"):
            HestonParams(100.0, 0.0, 0.04, 0.5, -0.7, 0.04)
        with pytest.raises(ValidationError, match=r"key 'rho' must lie in \(-1, 1\), got -1.0"):
            HestonParams(100.0, 1.5, 0.04, 0.5, -1.0, 0.04)
        with pytest.raises(ValidationError, match=r"key 'v0' must be nonnegative, got -0.1"):
            HestonParams(100.0, 1.5, 0.04, 0.5, -0.7, -0.1)

    def test_alpha_range(self):
        with pytest.raises(ValidationError, match=r"key 'alpha' must lie in .*, got 0.5"):
            RoughHestonParams(P, alpha=0.5)
        with pytest.raises(ValidationError, match=r"key 'alpha' must lie in .*, got 1.01"):
            RoughHestonParams(P, alpha=1.01)
        RoughHestonParams(P, alpha=0.51)


class TestHestonCf:
    def test_phi_at_zero(self):
        for t in (0.0, 0.3, 1.974, 5.0):
            assert heston_cf(0.0, t, P) == pytest.approx(1.0, abs=1e-12)

    def test_martingale_point(self):
        for t in (0.5, 1.0, 1.974):
            assert heston_cf(-1j, t, P).real == pytest.approx(100.0, rel=1e-12)
            assert abs(heston_cf(-1j, t, P).imag) < 1e-10

    def test_forward_with_rates(self):
        p = HestonParams(100.0, 1.5, 0.04, 0.5, -0.7, 0.04, r=0.04, q=0.01)
        fwd = 100.0 * math.exp(0.03 * 2.0)
        assert heston_cf(-1j, 2.0, p).real == pytest.approx(fwd, rel=1e-12)

    def test_t_zero(self):
        u = 3.7
        assert heston_cf(u, 0.0, P) == pytest.approx(
            np.exp(1j * u * math.log(100.0)), abs=1e-14
        )

    def test_modulus_bound_real_u(self):
        us = np.linspace(0.01, 80.0, 400)
        for t in (0.1, 1.0, 5.0):
            assert np.abs(heston_cf(us, t, P)).max() <= 1.0 + 1e-12

    def test_matches_independent_arrangement(self):
        for t in (0.05, 0.5, 1.0, 1.974, 5.0):
            for ur in np.linspace(0.1, 60.0, 37):
                mine = heston_cf(ur, t, P)
                ref = gatheral_cf(ur, t, P)
                assert abs(mine - ref) <= 1e-12 * abs(ref)

    def test_matches_on_lewis_strip(self):
        for t in (0.1, 1.0):
            for ur in np.linspace(0.3, 40.0, 11):
                mine = heston_cf(ur - 0.5j, t, P)
                ref = gatheral_cf(ur - 0.5j, t, P)
                assert abs(mine - ref) <= 1e-12 * abs(ref)

    def test_continuous_in_t(self):
        # branch-safe arrangement: no jumps along a dense maturity grid out to
        # t = 20 (where naive-branch implementations flip); smooth variation
        # per 0.01-step is ~1e-3 here while a log-branch jump is O(|phi|)
        ts = np.linspace(0.05, 20.0, 2000)
        vals = np.array([heston_cf(3.0, t, P) for t in ts])
        assert np.abs(np.diff(vals)).max() < 0.02

    def test_vectorized_over_u(self):
        us = np.array([0.5, 1.0 - 0.5j, 7.0])
        batch = heston_cf(us, 1.0, P)
        singles = [heston_cf(u, 1.0, P) for u in us]
        np.testing.assert_allclose(batch, singles, rtol=1e-14)

    def test_negative_time_rejected(self):
        with pytest.raises(ValidationError):
            heston_cf(1.0, -0.1, P)


class TestSecondMomentCondition:
    def test_reference_parameters(self):
        chi2 = 2 * (-0.7) * 0.5 - 1.5
        delta2 = chi2**2 - 2 * 0.5**2
        assert chi2 == pytest.approx(-2.2)
        assert delta2 == pytest.approx(4.34)
        assert heston_second_moment_finite(P) is True

    def test_positive_correlation_violates(self):
        p = HestonParams(100.0, 1.5, 0.04, 3.0, 0.99, 0.04)
        assert heston_second_moment_finite(p) is False

    def test_vanishing_vol_of_vol(self):
        p = HestonParams(100.0, 1.5, 0.04, 1e-9, 0.3, 0.04)
        assert heston_second_moment_finite(p) is True


def bs_cf(u, t, s0=100.0, sigma=0.2, r=0.0, q=0.0):
    u = np.asarray(u, dtype=complex)
    mu = math.log(s0) + (r - q - 0.5 * sigma**2) * t
    return np.exp(1j * u * mu - 0.5 * sigma**2 * t * u**2)


class TestLewis:
    def test_black_scholes_oracle(self):
        for r, q in ((0.0, 0.0), (0.01, 0.03)):
            for k in (80.0, 100.0, 125.0):
                got = lewis_call_price(
                    lambda u, t: bs_cf(u, t, sigma=0.2, r=r, q=q),
                    100.0, k, 1.0, r=r, q=q,
                )
                want = bs_call(100.0, k, 1.0, 0.2, r, q)
                assert got == pytest.approx(want, abs=1e-8)

    def test_forward_limit_small_strike(self):
        got = lewis_call_price(lambda u, t: heston_cf(u, t, P), 100.0, 1e-6, 1.0)
        assert got == pytest.approx(100.0, abs=1e-4)

    def test_quadpack_cross_check(self):
        k, t = 110.0, 1.0
        log_k = math.log(k)

        def f(u):
            phi = heston_cf(np.array([u - 0.5j]), t, P)[0]
            return float(np.real(np.exp(-1j * u * log_k) * phi)) / (u**2 + 0.25)

        val, _ = quad(f, 0.0, np.inf, epsabs=1e-12, epsrel=1e-12, limit=400)
        want = 100.0 - math.sqrt(k) / math.pi * val
        assert heston_lewis_price(P, k, t) == pytest.approx(want, abs=1e-9)

    def test_no_arbitrage_bounds(self):
        for t in (0.25, 1.0, 1.974):
            for k in (60.0, 90.0, 110.0, 150.0):
                c = heston_lewis_price(P, k, t)
                assert max(100.0 - k, 0.0) - 1e-9 <= c <= 100.0

    def test_monotone_in_strike(self):
        prices = [heston_lewis_price(P, k, 1.0) for k in (80.0, 90.0, 100.0, 110.0)]
        assert all(a > b for a, b in zip(prices, prices[1:]))

    def test_tail_failure_detected(self):
        # phi == 1 at K = 1 gives a positive integrand ~ u^-2 whose tail
        # never drops below tolerance
        with pytest.raises(IntegrationError):
            lewis_call_price(lambda u, t: np.ones_like(u), 1.0, 1.0, 1.0)

    def test_input_validation(self):
        with pytest.raises(ValidationError):
            lewis_call_price(lambda u, t: bs_cf(u, t), 100.0, -5.0, 1.0)

    def test_panel_integrator_on_known_integral(self):
        got = adaptive_panel_integral(np.sin, 0.0, math.pi, 1e-12)
        assert got == pytest.approx(2.0, abs=1e-11)
        got = adaptive_panel_integral(lambda x: np.exp(-x * x), 0.0, 8.0, 1e-12)
        assert got == pytest.approx(math.sqrt(math.pi) / 2.0, abs=1e-11)

    def test_panel_integrator_zero_width_and_reversed(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert adaptive_panel_integral(np.sin, 1.0, 1.0, 1e-10) == 0.0
        assert adaptive_panel_integral(np.sin, math.pi, 0.0, 1e-12) == \
            -adaptive_panel_integral(np.sin, 0.0, math.pi, 1e-12)

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
    def test_panel_integrator_rejects_tol(self, tol):
        with pytest.raises(ValidationError, match="tol must be finite and positive"):
            adaptive_panel_integral(np.sin, 0.0, 1.0, tol)

    @pytest.mark.parametrize("a, b, key", [(0.0, math.inf, "'b'"), (0.0, math.nan, "'b'"),
                                           (-math.inf, 1.0, "'a'")])
    def test_panel_integrator_rejects_non_finite_bounds(self, a, b, key):
        with pytest.raises(ValidationError, match=f"bound {key} must be finite"):
            adaptive_panel_integral(np.sin, a, b, 1e-10)

    @pytest.mark.parametrize("edges", [[0.0, 2.0, 1.0], [0.0, 1.0, 1.0], [0.0, math.inf],
                                       [0.0, math.nan, 1.0], [1.0]])
    def test_graded_edges_validated(self, edges):
        with pytest.raises(ValidationError, match="edges must be finite and strictly"):
            reference._panel_integral(np.sin, edges, 1e-10)

    def test_graded_edges_integrate_as_one_panel(self):
        got = reference._panel_integral(lambda x: 1.0 / (x * x + 0.25),
                                        reference._LEWIS_EDGES, 1e-10)
        assert got == pytest.approx(2.0 * math.atan(400.0), abs=1e-10)


def p_cf(u, t):
    return heston_cf(u, t, P)


def recording(cf, calls):
    """cf that appends every frequency array it is called on to calls."""
    def wrapped(u, t):
        calls.append(np.array(u))
        return cf(u, t)
    return wrapped


class TestStrikeBatching:
    """A strike array prices in one integration, bit for bit as strike by strike."""

    def assert_batch_is_per_strike(self, cf, strikes, t, r=0.0, q=0.0):
        batch = lewis_call_price(cf, 100.0, np.array(strikes), t, r=r, q=q)
        single = [lewis_call_price(cf, 100.0, k, t, r=r, q=q) for k in strikes]
        assert isinstance(single[0], float)
        assert batch.shape == (len(strikes),)
        np.testing.assert_array_equal(batch, single)

    def test_black_scholes_oracle(self):
        cf = lambda u, t: bs_cf(u, t, sigma=0.2, r=0.01, q=0.03)
        self.assert_batch_is_per_strike(cf, [80.0, 100.0, 125.0], 1.0, 0.01, 0.03)

    def test_heston(self):
        self.assert_batch_is_per_strike(p_cf, [90.0, 95.0, 100.0, 105.0, 110.0], 1.0)
        assert heston_lewis_price(P, np.array([100.0]), 1.0)[0] == \
            heston_lewis_price(P, 100.0, 1.0)

    def test_strikes_with_different_panel_sequences(self):
        # short maturity, wings far apart: each strike refines its own panels
        # and reaches the tail's stopping rule at its own doubling
        strikes, t = [40.0, 100.0, 250.0], 0.1
        sequences = []
        for k in strikes:
            calls = []
            lewis_call_price(recording(p_cf, calls), 100.0, k, t)
            sequences.append([u.size for u in calls])
        assert len({tuple(seq) for seq in sequences}) == len(strikes)
        self.assert_batch_is_per_strike(p_cf, strikes, t)

    def test_one_cf_call_per_level_for_all_strikes(self):
        one, five = [], []
        lewis_call_price(recording(p_cf, one), 100.0, 100.0, 1.0)
        lewis_call_price(recording(p_cf, five), 100.0,
                         np.array([90.0, 95.0, 100.0, 105.0, 110.0]), 1.0)
        assert len(five) == len(one)

    def test_strike_shape_validated(self):
        cf = lambda u, t: bs_cf(u, t)
        for bad in (np.array([]), np.ones((2, 2)) * 100.0, [100.0, -5.0]):
            with pytest.raises(ValidationError):
                lewis_call_price(cf, 100.0, bad, 1.0)

    def test_vector_integrand(self):
        fs = (np.sin, lambda x: np.exp(-x * x), lambda x: x**3)
        got = adaptive_panel_integral(
            lambda x: np.stack([f(x) for f in fs]), 0.0, math.pi, 1e-12
        )
        alone = [adaptive_panel_integral(f, 0.0, math.pi, 1e-12) for f in fs]
        np.testing.assert_array_equal(got, alone)
        want = [2.0, math.sqrt(math.pi) / 2.0 * math.erf(math.pi), math.pi**4 / 4.0]
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-11)


ROUGH_FIT = RoughHestonParams(HestonParams(100.0, 1.5, 0.04, 0.3, -0.7, 0.04), 0.75)
ROUGH_DESK = RoughHestonParams(P, 0.75)
DESK_STRIKES = np.array([90.0, 95.0, 100.0, 105.0, 110.0])


def rough_cf(rp):
    return lambda u, t: rough_heston_cf(u, t, rp)


def recording_solve(monkeypatch):
    """Frequency arrays that reference.rough_riccati_solve is called on."""
    calls = []
    solve = reference.rough_riccati_solve
    monkeypatch.setattr(reference, "rough_riccati_solve",
                        lambda u, *a: calls.append(np.array(u)) or solve(u, *a))
    return calls


class TestMaturityBatching:
    """A surface prices in one integration, bit for bit as maturity by maturity."""

    def assert_surface_is_per_maturity(self, cf, mats, r=0.0, q=0.0):
        surface = lewis_call_price(cf, 100.0, DESK_STRIKES, np.array(mats), r=r, q=q)
        assert surface.shape == (len(mats), DESK_STRIKES.size)
        for row, t in zip(surface, mats):
            np.testing.assert_array_equal(
                row, lewis_call_price(cf, 100.0, DESK_STRIKES, t, r=r, q=q))

    def test_heston_with_rates(self):
        p = HestonParams(100.0, 1.5, 0.04, 0.5, -0.7, 0.04, r=0.03, q=0.01)
        mats = [0.1, 0.25, 1.0, 2.0]
        surface = heston_lewis_price(p, DESK_STRIKES, np.array(mats))
        for row, t in zip(surface, mats):
            np.testing.assert_array_equal(row, heston_lewis_price(p, DESK_STRIKES, t))

    def test_rough_one_step_group(self):
        self.assert_surface_is_per_maturity(rough_cf(ROUGH_FIT), [0.25, 0.5, 0.75, 1.0])

    def test_rough_three_step_groups(self):
        self.assert_surface_is_per_maturity(rough_cf(ROUGH_FIT), [0.1, 0.333, 1.0])

    def test_shapes(self):
        one = heston_lewis_price(P, 100.0, np.array([0.5, 1.0]))
        assert one.shape == (2,)
        assert one[1] == heston_lewis_price(P, 100.0, 1.0)
        for bad in (np.array([]), np.ones((2, 2)), [0.5, -1.0]):
            with pytest.raises(ValidationError):
                heston_lewis_price(P, 100.0, bad)

    def test_tail_asks_only_live_maturities(self):
        # a short maturity's tail decays last, so the late blocks ask for it alone
        asked = []

        def cf(u, ts):
            asked.append(tuple(ts))
            return np.stack([heston_cf(u, x, P) for x in ts])

        lewis_call_price(cf, 100.0, DESK_STRIKES, np.array([0.05, 1.0]))
        assert asked[0] == (0.05, 1.0) and (0.05,) in asked

    def test_rough_desk_explodes_in_the_first_tail_block(self, monkeypatch):
        for mats in (np.array([0.25, 0.5, 0.75, 1.0]), 0.25):
            calls = recording_solve(monkeypatch)
            with pytest.raises(ExplosionError, match="exploded"):
                lewis_call_price(rough_cf(ROUGH_DESK), 100.0, DESK_STRIKES, mats)
            assert 200.0 <= calls[0].real.min() and calls[0].real.max() <= 400.0

    def test_rough_desk_surface_takes_three_solves(self, monkeypatch):
        # one for the tail block, one for the body's graded panels, one level
        # of bisection; bisecting [0, 200] down to the peak took 11
        calls = recording_solve(monkeypatch)
        lewis_call_price(rough_cf(ROUGH_FIT), 100.0, DESK_STRIKES,
                         np.array([0.25, 0.5, 0.75, 1.0]))
        assert len(calls) <= 3

    def test_heston_desk_surface_takes_four_cf_calls(self):
        calls = []
        lewis_call_price(recording(lambda u, ts: np.stack([p_cf(u, t) for t in ts]), calls),
                         100.0, DESK_STRIKES, np.array([0.25, 0.5, 0.75, 1.0]))
        assert len(calls) <= 4

    def test_body_starts_on_every_graded_panel(self):
        calls = []
        lewis_call_price(recording(p_cf, calls), 100.0, DESK_STRIKES, 1.0)
        body = next(u.real for u in calls if u.real.min() < reference._LEWIS_U_MAX)
        edges = reference._LEWIS_EDGES
        counts, _ = np.histogram(body, bins=edges)
        np.testing.assert_array_equal(counts, [10 + 21] * (len(edges) - 1))

    def test_black_scholes_surface_wide(self):
        strikes = np.array([40.0, 60.0, 80.0, 100.0, 125.0, 160.0, 200.0, 250.0])
        mats = np.array([0.02, 0.1, 0.5, 1.0, 2.0, 5.0])

        def cf(u, ts):
            return np.stack([bs_cf(u, t) for t in ts])

        got = lewis_call_price(cf, 100.0, strikes, mats)
        want = [[bs_call(100.0, k, t, 0.2) for k in strikes] for t in mats]
        np.testing.assert_allclose(got, want, rtol=0.0, atol=3e-10)

    def test_surface_solves_as_often_as_its_longest_maturity(self, monkeypatch):
        calls = recording_solve(monkeypatch)
        lewis_call_price(rough_cf(ROUGH_FIT), 100.0, DESK_STRIKES, 1.0)
        alone = len(calls)
        calls.clear()
        lewis_call_price(rough_cf(ROUGH_FIT), 100.0, DESK_STRIKES,
                         np.array([0.25, 0.5, 0.75, 1.0]))
        assert len(calls) == alone


def riccati_rhs_ivp(t, y, w, p):
    psi = y[0] + 1j * y[1]
    v = (w * w - w) / 2.0 - (p.kappa - w * p.rho * p.eps) * psi \
        + p.eps**2 / 2.0 * psi * psi
    return [v.real, v.imag]


def adams_oracle(u, rp, t_grid):
    """The fractional-Adams loop as first written, with its own right-hand
    side and lag sum: the oracle `rough_riccati_solve` keeps the bits of."""
    def riccati_rhs(w, psi, p):
        return (w**2 - w) / 2.0 - (p.kappa - w * p.rho * p.eps) * psi \
            + (p.eps**2 / 2.0) * psi**2

    def lag_sum(weights, hist):
        flat = hist.reshape(len(hist), -1).view(float)
        return np.einsum("k,kn->n", weights, flat).view(complex).reshape(hist.shape[1:])

    u = np.asarray(u, dtype=complex)
    t_grid = np.asarray(t_grid, dtype=float)
    h = np.diff(t_grid)[0]
    alpha = rp.alpha
    p = rp.heston
    w = 1j * np.atleast_1d(u)
    n = t_grid.size - 1
    psi = np.zeros((n + 1,) + w.shape, dtype=complex)
    rhs = np.zeros_like(psi)
    rhs[0] = riccati_rhs(w, psi[0], p)
    j = np.arange(n + 1, dtype=float)
    b_lag = (j[1:] ** alpha - j[:-1] ** alpha) * h**alpha / alpha
    a_lag = (
        (j[2:] ** (alpha + 1) - 2 * j[1:-1] ** (alpha + 1) + j[:-2] ** (alpha + 1))
        * h**alpha
        / math.gamma(alpha + 2)
    )
    c_pred = 1.0 / math.gamma(alpha)
    c_corr = h**alpha / math.gamma(alpha + 2)
    for k in range(1, n + 1):
        hist = rhs[:k]
        pred = c_pred * lag_sum(b_lag[:k][::-1], hist)
        f_pred = riccati_rhs(w, pred, p)
        a0 = (
            ((k - 1) ** (alpha + 1) - (k - 1 - alpha) * k**alpha)
            * h**alpha
            / math.gamma(alpha + 2)
        )
        corr = a0 * rhs[0]
        if k > 1:
            corr = corr + lag_sum(a_lag[: k - 1][::-1], hist[1:])
        psi[k] = corr + c_corr * f_pred
        rhs[k] = riccati_rhs(w, psi[k], p)
        mag = np.abs(psi[k])
        if not np.all(np.isfinite(mag)) or np.any(mag > reference._EXPLOSION_THRESHOLD):
            raise ExplosionError(
                f"Riccati solution exploded at t = {t_grid[k]:.6g}"
            )
    return psi.reshape((n + 1,) + u.shape)


class TestRoughRiccati:
    def test_zero_frequency(self):
        rp = RoughHestonParams(P, alpha=0.7)
        psi = rough_riccati_solve(0.0, rp, np.linspace(0.0, 1.0, 101))
        assert np.abs(psi).max() == 0.0

    def test_alpha_one_matches_ode(self):
        rp = RoughHestonParams(P, alpha=1.0)
        grid = np.linspace(0.0, 1.5, 3001)
        for ur in (0.5, 3.0):
            psi = rough_riccati_solve(ur, rp, grid)
            sol = solve_ivp(
                riccati_rhs_ivp, (0.0, 1.5), [0.0, 0.0], args=(1j * ur, P),
                t_eval=grid, rtol=1e-12, atol=1e-13,
            )
            ref = sol.y[0] + 1j * sol.y[1]
            assert np.abs(psi - ref).max() < 1e-6

    def test_small_time_fractional_power(self):
        # leading term psi ~ R(w, 0) t^alpha / Gamma(alpha + 1)
        for alpha in (0.6, 0.75, 0.9):
            rp = RoughHestonParams(P, alpha=alpha)
            w = 1j * 2.0
            t_end = 1e-3
            psi = rough_riccati_solve(2.0, rp, np.linspace(0.0, t_end, 201))
            lead = (w * w - w) / 2.0 * t_end**alpha / gamma_fn(alpha + 1)
            assert abs(psi[-1] - lead) < 0.05 * abs(lead)

    def test_self_convergence_rate(self):
        # Adams error should shrink by about 2^(1+alpha) per halving
        rp = RoughHestonParams(P, alpha=0.7)
        ref = rough_riccati_solve(3.0, rp, np.linspace(0.0, 1.0, 8001))[-1]
        e500 = abs(rough_riccati_solve(3.0, rp, np.linspace(0.0, 1.0, 501))[-1] - ref)
        e2000 = abs(rough_riccati_solve(3.0, rp, np.linspace(0.0, 1.0, 2001))[-1] - ref)
        assert e2000 < e500 / 8.0  # observed ~ 11.6x; theoretical 2^(2(1+alpha)) ~ 10.6

    def test_explosion_detected(self):
        rp = RoughHestonParams(P, alpha=1.0)
        with pytest.raises(ExplosionError, match=r"exploded at t = 1\.108$"):
            rough_riccati_solve(-20j, rp, np.linspace(0.0, 5.0, 2501))
        with pytest.raises(ExplosionError, match=r"exploded at t = 1\.108$"):
            adams_oracle(-20j, rp, np.linspace(0.0, 5.0, 2501))

    def test_non_finite_psi_is_an_explosion(self):
        rp = RoughHestonParams(P, alpha=0.75)
        for bad in (np.nan, np.inf):
            with pytest.raises(ExplosionError, match=r"exploded at t = 0\.01$"), \
                    np.errstate(invalid="ignore"):  # i times inf or NaN
                rough_riccati_solve(np.array([1.0, bad]), rp, np.linspace(0.0, 1.0, 101))

    @pytest.mark.parametrize("alpha", [0.6, 0.75, 1.0])
    @pytest.mark.parametrize("n_points", [101, 301, 501])
    def test_step_keeps_the_bits_of_the_first_loop(self, alpha, n_points):
        rp = RoughHestonParams(P, alpha=alpha)
        grid = np.linspace(0.0, 1.0, n_points)
        u = 5.0 - 0.5j
        batch = np.array([0.0, 0.5 - 0.5j, u, 30.0 - 0.5j])
        np.testing.assert_array_equal(rough_riccati_solve(u, rp, grid),
                                      adams_oracle(u, rp, grid))
        np.testing.assert_array_equal(rough_riccati_solve(batch, rp, grid),
                                      adams_oracle(batch, rp, grid))

    def test_grid_validation(self):
        rp = RoughHestonParams(P, alpha=0.7)
        with pytest.raises(ValidationError):
            rough_riccati_solve(1.0, rp, np.array([0.1, 0.2, 0.3]))
        with pytest.raises(ValidationError):
            rough_riccati_solve(1.0, rp, np.array([0.0, 0.1, 0.3]))

    def test_batched_matches_scalar(self):
        rp = RoughHestonParams(P, alpha=0.8)
        grid = np.linspace(0.0, 0.5, 251)
        us = np.array([0.5, 2.0, 9.0])
        batch = rough_riccati_solve(us, rp, grid)
        for i, u in enumerate(us):
            single = rough_riccati_solve(u, rp, grid)
            assert single.shape == grid.shape
            np.testing.assert_array_equal(batch[:, i], single)

    def test_longer_grid_with_the_same_step_extends_the_solve(self):
        rp = RoughHestonParams(P, alpha=0.75)
        us = np.array([0.5, 9.0, 40.0])
        short = rough_riccati_solve(us, rp, np.linspace(0.0, 0.25, 126))
        long = rough_riccati_solve(us, rp, np.linspace(0.0, 1.0, 501))
        np.testing.assert_array_equal(long[:126], short)


class TestRoughHestonCf:
    def test_trivial_points(self):
        rp = RoughHestonParams(P, alpha=0.7)
        assert rough_heston_cf(0.0, 1.0, rp) == pytest.approx(1.0, abs=1e-12)
        u = 2.5
        assert rough_heston_cf(u, 0.0, rp) == pytest.approx(
            np.exp(1j * u * math.log(100.0)), abs=1e-14
        )

    def test_martingale_point(self):
        rp = RoughHestonParams(P, alpha=0.7)
        assert rough_heston_cf(-1j, 1.0, rp).real == pytest.approx(100.0, rel=1e-9)

    def test_alpha_one_reduction(self):
        # the acceptance-grade grid: u in [0.5, 20], three maturities
        rp = RoughHestonParams(P, alpha=1.0)
        us = np.linspace(0.5, 20.0, 14)
        for t in (0.1, 0.5, 1.5):
            rough = rough_heston_cf(us, t, rp)
            closed = heston_cf(us, t, P)
            rel = np.abs(rough - closed) / np.abs(closed)
            assert rel.max() < 1e-4

    def test_alpha_continuity_near_one(self):
        rp = RoughHestonParams(P, alpha=0.999)
        us = np.array([1.0, 5.0])
        near = rough_heston_cf(us, 1.0, rp)
        at_one = heston_cf(us, 1.0, P)
        assert np.abs(near - at_one).max() < 1e-3

    def test_modulus_bound(self):
        rp = RoughHestonParams(P, alpha=0.65)
        us = np.linspace(0.5, 20.0, 8)
        assert np.abs(rough_heston_cf(us, 1.0, rp)).max() <= 1.0 + 1e-10

    def test_rates_drift(self):
        p = HestonParams(100.0, 1.5, 0.04, 0.5, -0.7, 0.04, r=0.05, q=0.02)
        rp = RoughHestonParams(p, alpha=0.7)
        fwd = 100.0 * math.exp(0.03)
        assert rough_heston_cf(-1j, 1.0, rp).real == pytest.approx(fwd, rel=1e-9)


    def test_batch_prefix_is_bit_identical(self):
        # the batched Lewis pricer calls the CF on concatenated node sets, so
        # each frequency's value must not depend on what else is in the batch
        rp = RoughHestonParams(P, alpha=0.75)
        u = np.linspace(0.1, 50.0, 93) - 0.5j
        full = rough_heston_cf(u, 0.5, rp)
        for m in (1, 31, 62):
            np.testing.assert_array_equal(rough_heston_cf(u[:m], 0.5, rp), full[:m])


    def test_maturity_array_is_each_maturity_alone(self):
        rp = RoughHestonParams(P, alpha=0.75)
        u = np.linspace(0.1, 50.0, 7) - 0.5j
        mats = np.array([1.0, 0.0, 0.25, 0.333, 0.5])
        got = rough_heston_cf(u, mats, rp)
        assert got.shape == (5, 7)
        for row, t in zip(got, mats):
            np.testing.assert_array_equal(row, rough_heston_cf(u, t, rp))
        assert rough_heston_cf(2.0, np.array([0.5, 1.0]), rp).shape == (2,)
        with pytest.raises(ValidationError):
            rough_heston_cf(u, np.array([0.5, -0.1]), rp)

    def test_chunked_solve_keeps_the_bits(self, monkeypatch):
        # a budget below one frequency's history solves them one at a time
        rp = RoughHestonParams(P, alpha=0.75)
        u = np.linspace(0.1, 50.0, 9) - 0.5j
        mats = np.array([0.25, 1.0, 0.1])
        whole = rough_heston_cf(u, mats, rp)
        calls = recording_solve(monkeypatch)
        monkeypatch.setattr(reference, "_SOLVE_BYTES", 1)
        np.testing.assert_array_equal(rough_heston_cf(u, mats, rp), whole)
        assert [c.size for c in calls] == [1] * 18  # 9 frequencies, 2 step groups


class TestHestonSimulate:
    def test_grid_validation(self):
        d = BrownianDriver(1)
        with pytest.raises(ValidationError):
            heston_simulate(P, np.array([0.1, 0.2]), 10, d)
        with pytest.raises(ValidationError):
            heston_simulate(P, np.array([0.0, 0.2, 0.1]), 10, d)
        with pytest.raises(ValidationError):
            heston_simulate(P, np.array([0.0, 0.2]), 10, d, max_step=0.0)

    def test_step_count_is_capped_before_any_step(self):
        class NoStreams:
            def generator(self, *key):
                raise AssertionError("a stream was opened")

        # 3.2e13 steps ran until killed; the cap counts every interval, and a
        # step count past a float's range is refused, not converted
        cases = [([0.0, 1e12], {}, r"3\.2e\+13 steps through the interval \[0, 1e\+12\]"),
                 ([0.0, 16384.0, 32768.0, 49152.0], {},
                  r"1\.573e\+06 steps through the interval \[32768, 49152\]"),
                 ([0.0, 1.0], {"max_step": 1e-320}, r"inf steps through the interval \[0, 1\]")]
        for times, kwargs, message in cases:
            with pytest.raises(ValidationError, match=message):
                heston_simulate(P, times, 2, NoStreams(), **kwargs)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_times_rejected(self, bad):
        # NaN reached int(nan) (ValueError), inf int(inf) (OverflowError)
        with pytest.raises(ValidationError, match=r"finite numbers, got \[ *0\. +(nan|inf)\]"):
            heston_simulate(P, [0.0, bad], 10, BrownianDriver(1))

    def test_martingale(self):
        st = heston_simulate(P, [0.0, 1.0], 100_000, BrownianDriver(3))[1]
        se = st.std(ddof=1) / math.sqrt(st.size)
        assert abs(st.mean() - 100.0) < 4 * se

    def test_requested_columns_match_the_refined_run(self, monkeypatch):
        # the QE steps run on the refined grid either way; only the
        # requested times are stored, with the bits of the full-grid run
        monkeypatch.setattr(reference, "_PATH_BLOCK", 64)  # three path blocks
        times = np.array([0.0, 0.13, 0.5, 0.51, 1.0])
        fine = [times[0]]  # each interval in ceil(width / step) equal steps
        for lo, hi in zip(times, times[1:]):
            n = max(1, int(np.ceil((hi - lo) / (1.0 / 32.0) - 1e-12)))
            fine += [lo + (hi - lo) * i / n for i in range(1, n)] + [hi]
        fine = np.array(fine)
        assert fine.size == 1 + 5 + 12 + 1 + 16  # ceil(32 * interval) steps each
        assert np.diff(fine).max() <= 1.0 / 32.0 + 1e-15
        d = BrownianDriver(4)
        s, v = heston_simulate(P, times, 150, d, tags=(0,), return_variance=True)
        s_fine, v_fine = heston_simulate(P, fine, 150, d, tags=(0,),
                                         return_variance=True)
        keep = np.searchsorted(fine, times)
        np.testing.assert_array_equal(fine[keep], times)
        np.testing.assert_array_equal(s, s_fine[keep])
        np.testing.assert_array_equal(v, v_fine[keep])

    def test_one_block_starts_no_thread(self, monkeypatch):
        # a single block runs on the calling thread (`bases._run`), with the
        # bits of the block-major replica
        want = block_major_heston(P, [0.0, 4.0], 2, BrownianDriver(6), ())[0]
        started, start = [], threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start",
                            lambda thread: started.append(thread) or start(thread))
        got = heston_simulate(P, [0.0, 4.0], 2, BrownianDriver(6))
        assert started == []
        np.testing.assert_array_equal(got, want)

    def test_memory_does_not_grow_with_the_step_count(self):
        # 128 and 1280 steps hold the same arrays; with the refined grid held
        # as a list, the peaks of 1000 and 10000 steps were 41.6 KB and 406 KB.
        # The single block runs on the calling thread: on a worker thread a
        # 4-year run sometimes ended before the caller waited on it, and its
        # trace then lacked the wait's 2.2 KB.  Allocator and interpreter
        # noise only adds to a traced peak, so each horizon reads the least
        # of three traced runs, taken in turn with the other's

        def peak(horizon):
            return traced_peak(lambda: heston_simulate(P, [0.0, horizon], 2, BrownianDriver(6)))

        peaks = {4.0: [], 40.0: []}
        for horizon in peaks:  # warm-up
            heston_simulate(P, [0.0, horizon], 2, BrownianDriver(6))
        for _ in range(3):
            for horizon, runs in peaks.items():
                runs.append(peak(horizon))
        assert min(peaks[40.0]) <= min(peaks[4.0]) + 1024

    @staticmethod
    def assert_peak_within_the_count(monkeypatch, workers, p, horizon, max_step):
        monkeypatch.setattr(reference, "_PATH_BLOCK", 4096)
        monkeypatch.setattr(reference, "_workers", lambda n_paths: workers)
        n = 3 * 4096 - 1000
        times = np.linspace(0.0, horizon, 9)

        def run():
            blocks = reference._heston_rows(p, times, n, BrownianDriver(6), max_step=max_step)
            reference._run_blocks([(blocks, lambda cols, rows: all(True for _ in rows))],
                                  reference._workers(n))

        run()  # lazy set-up outside the trace
        assert traced_peak(run) <= reference._heston_bytes(n)

    # one worker, and a worker for each of the three blocks (one short)
    @pytest.mark.parametrize("workers", [1, 3])
    def test_peak_within_the_count(self, monkeypatch, workers):
        self.assert_peak_within_the_count(monkeypatch, workers, P, 0.2, 1.0 / 32.0)

    # where nearly every path takes the exponential law (V0 = 0, psi at V = 0
    # is eps^2 / (2 kappa vbar) = 33), and where every path keeps the
    # uncorrected drift (8-year steps at rho > 0)
    @pytest.mark.parametrize("p, horizon, max_step", [
        (HestonParams(100.0, 1.5, 0.04, 2.0, -0.7, 0.0), 0.2, 1.0 / 32.0),
        (HestonParams(100.0, 5.0, 0.04, 2.0, 0.7, 0.04), 64.0, 8.0),
    ], ids=["exponential", "uncorrected"])
    @pytest.mark.parametrize("workers", [1, 3])
    def test_step_temporaries_within_the_count(self, monkeypatch, workers, p, horizon,
                                               max_step):
        self.assert_peak_within_the_count(monkeypatch, workers, p, horizon, max_step)

    def test_coarse_request_is_refined(self):
        # with eps -> 0 every QE step draws V' about its exact conditional
        # mean, so the variance follows the ODE to eps-sized noise at the
        # default's 16 steps a half year and at one raw step
        p = HestonParams(100.0, 2.0, 0.04, 1e-10, -0.5, 0.09)
        times = [0.0, 0.5, 1.0]
        ode = 0.04 + (0.09 - 0.04) * np.exp(-2.0 * np.array(times))[:, None]
        for max_step in (1.0 / 32.0, 0.5):
            _, v = heston_simulate(p, times, 10, BrownianDriver(5), return_variance=True,
                                   max_step=max_step)
            assert np.abs(v - ode).max() < 1e-9

    def test_vanishing_vol_of_vol_variance_ode(self):
        # eps -> 0: V is deterministic, V' = kappa (vbar - V), and S is
        # lognormal with the integrated variance: the rho/eps terms of the
        # log price cancel in the arrangement, not in rounding
        p = HestonParams(100.0, 2.0, 0.04, 1e-10, -0.5, 0.09)
        grid = np.linspace(0.0, 1.0, 251)
        _, v = heston_simulate(p, grid, 100, BrownianDriver(5), return_variance=True)
        ode = 0.04 + (0.09 - 0.04) * np.exp(-2.0 * grid)
        assert np.abs(v[:, 0] - ode).max() < 1e-9
        assert np.abs(v - v[:, :1]).max() < 1e-8  # same across paths
        total = 0.04 + 0.05 * (1.0 - math.exp(-2.0)) / 2.0  # int_0^1 V dt
        log_s = np.log(heston_simulate(p, [0.0, 1.0], 100_000, BrownianDriver(5))[1] / 100.0)
        n = log_s.size
        assert abs(log_s.mean() + total / 2.0) < 3 * math.sqrt(total / n)
        assert abs(log_s.var() / total - 1.0) < 3 * math.sqrt(2.0 / n)

    def test_lewis_agreement(self):
        st = heston_simulate(P, [0.0, 1.0], 200_000, BrownianDriver(6))[1]
        for k in (80.0, 100.0, 120.0):
            pay = np.maximum(st - k, 0.0)
            se = pay.std(ddof=1) / math.sqrt(pay.size)
            assert abs(pay.mean() - heston_lewis_price(P, k, 1.0)) < 3 * se

    def test_bias_shrinks_with_step(self):
        # two QE steps to T = 0.5 misprice the 110 call: given V and V', one
        # long step's log price is normal, and the true one is not; the
        # default's 16 steps show no bias
        lw = heston_lewis_price(P, 110.0, 0.5)
        errs = {}
        for i, n in enumerate((2, 16)):
            st = heston_simulate(P, [0.0, 0.5], 400_000, BrownianDriver(8), tags=(i,),
                                 max_step=0.5 / n)[1]
            pay = np.maximum(st - 110.0, 0.0)
            errs[n] = (pay.mean() - lw, pay.std(ddof=1) / math.sqrt(pay.size))
        assert abs(errs[2][0]) > 3 * errs[2][1]
        assert abs(errs[16][0]) < 3 * errs[16][1]
        assert abs(errs[2][0]) > abs(errs[16][0])

    @pytest.mark.parametrize("max_step", [1.0 / 32.0, 1.0])
    def test_positive_correlation_martingale(self, max_step):
        # rho > 0 is where E[exp(A V')] can be infinite; at these steps it is
        # finite, and the correction keeps S a martingale
        p = HestonParams(100.0, 1.5, 0.04, 0.5, 0.7, 0.04)
        st = heston_simulate(p, [0.0, 1.0], 100_000, BrownianDriver(3), max_step=max_step)[1]
        assert np.all(np.isfinite(st))
        assert abs(st.mean() - 100.0) < 4 * st.std(ddof=1) / math.sqrt(st.size)

    @pytest.mark.parametrize("p, horizon", [
        (P, 1.0),
        (HestonParams(100.0, 1.5, 0.04, 2.0, -0.7, 0.0), 1.0),  # V0 = 0, mostly exponential
        (HestonParams(100.0, 2.0, 0.04, 1e-10, -0.5, 0.09), 1.0),  # eps -> 0
        (HestonParams(100.0, 5.0, 0.04, 2.0, 0.7, 0.04), 8.0),  # A >= beta on the tail
        (HestonParams(100.0, 10.0, 0.04, 0.5, 0.7, 0.04), 30.0),  # 2 A a >= 1
    ], ids=["desk", "exponential", "vanishing-eps", "exponential-uncorrected",
            "quadratic-uncorrected"])
    def test_no_floating_point_warning(self, p, horizon):
        # the branch a path does not take is computed on clipped values (the
        # quadratic law) or not at all (the exponential law and the
        # uncorrected drift): no sqrt of a negative, log of 0 or division by 0;
        # the worker threads' warnings reach this filter, which numpy's
        # per-thread errstate would not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for max_step in (1.0 / 32.0, horizon):
                s, v = heston_simulate(p, [0.0, horizon], 2000, BrownianDriver(4),
                                       return_variance=True, max_step=max_step)
                assert np.all(np.isfinite(s)) and np.all(v >= 0.0)

    @pytest.mark.parametrize("horizon", [1e-100, 1e-200, 1e-300])
    def test_tiny_interval_stays_at_spot(self, horizon):
        # psi ~ 1e-200 overflowed (2/psi)(2/psi - 1): a was 0 and V' = 0 * inf
        # made every path NaN; the floor on the quadratic law's psi keeps it
        # finite, and S within round-off of S_0
        s, v = heston_simulate(P, [0.0, horizon], 1000, BrownianDriver(1),
                               return_variance=True)
        assert np.all(np.isfinite(s)) and np.all(np.isfinite(v))
        assert np.abs(s[1] - P.s0).max() <= 1e-12 * P.s0
        assert np.abs(v[1] - P.v0).max() <= 1e-12 * P.v0

    @pytest.mark.parametrize("return_variance", [False, True])
    def test_array_over_the_byte_cap(self, monkeypatch, return_variance):
        class NoStreams:
            def generator(self, *key):
                raise AssertionError("a stream was opened")

        times, n = np.linspace(0.0, 1.0, 9), 3000
        need = 8 * (1 + return_variance) * len(times) * n + reference._heston_bytes(n)
        monkeypatch.setattr(model_module, "MAX_BYTES", need - 1)
        with pytest.raises(ValidationError, match=rf"n_paths = {n} at n_times = 9 need "
                                                  rf"{need} bytes"):
            heston_simulate(P, times, n, NoStreams(), return_variance=return_variance)
        monkeypatch.setattr(model_module, "MAX_BYTES", need)
        heston_simulate(P, times, n, BrownianDriver(1), return_variance=return_variance)

    def test_determinism(self):
        grid = np.linspace(0.0, 0.2, 51)
        a = heston_simulate(P, grid, 1_000, BrownianDriver(9), tags=(5,))
        b = heston_simulate(P, grid, 1_000, BrownianDriver(9), tags=(5,))
        np.testing.assert_array_equal(a, b)


# the contracts TestExoticMc prices, all in one fold over the fixture's rows
GBM_SPECS = (ForwardStartCall(0.0, 1.0, strike_ratio=1.05),
             ForwardStartCall(0.5, 1.0, strike=103.0),
             ForwardStartCall(0.5, 1.0, strike_ratio=1.05),
             DownAndOutCall(1.0, 100.0, 1e-6), DownAndOutCall(1.0, 100.0, 90.0),
             LookbackCall(1.0))


@pytest.fixture(scope="module")
def gbm_paths():
    """(grid, rows, prices): eps -> 0 with v0 = vbar, an exact GBM world with
    sigma = 0.2, on 513 times and 100k paths.  Each block of paths folds its
    rows into its payoffs as they come (`TestExoticFold`); only rows 1, 256
    and 512 (T), which the tests read, are kept: the whole array held 400 MB
    for the module."""
    p = HestonParams(100.0, 1.5, 0.04, 1e-8, -0.5, 0.04)
    grid, n = np.linspace(0.0, 1.0, 513), 100_000
    kept = {i: np.empty(n) for i in (1, 256, 512)}
    sim = reference._heston_rows(p, grid, n, BrownianDriver(11))

    def rows(k, cols, scratch):
        for i, row in enumerate(sim.rows(k, cols, scratch)):
            if i in kept:
                kept[i][cols] = row
            yield row

    tee = dataclasses.replace(sim, rows=rows)
    prices = dict(zip(GBM_SPECS, reference._fold_exotics([tee], grid, GBM_SPECS)[0]))
    return grid, kept, prices


class TestExoticMc:
    SMALL = np.linspace(0.0, 1.0, 9)  # the grid of the error cases' small arrays

    def test_fixture_is_black_scholes(self, gbm_paths):
        # eps = 1e-8 with v0 = vbar: GBM with sigma 0.2, on the first step
        # and at T; QE's rho/eps terms cancel in the arrangement, not in
        # rounding, so calls at both maturities are Black-Scholes
        grid, rows, _ = gbm_paths
        first = np.log(rows[1] / 100.0)
        dt, n = grid[1], first.size
        assert abs(first.mean() + 0.02 * dt) < 3 * math.sqrt(0.04 * dt / n)
        assert abs(first.var() / (0.04 * dt) - 1.0) < 3 * math.sqrt(2.0 / n)
        for row, t in ((256, 0.5), (512, 1.0)):
            assert grid[row] == t
            for k in (90.0, 100.0, 110.0):
                pay = np.maximum(rows[row] - k, 0.0)
                se = pay.std(ddof=1) / math.sqrt(n)
                assert abs(pay.mean() - bs_call(100.0, k, t, 0.2)) < 3 * se

    def test_forward_start_tau_zero_is_vanilla(self, gbm_paths):
        _, rows, prices = gbm_paths
        pr, _ = prices[ForwardStartCall(0.0, 1.0, strike_ratio=1.05)]
        vanilla = np.maximum(rows[512] - 105.0, 0.0).mean()
        assert pr == vanilla

    def test_forward_start_absolute_strike(self, gbm_paths):
        _, rows, prices = gbm_paths
        pr, _ = prices[ForwardStartCall(0.5, 1.0, strike=103.0)]
        assert pr == np.maximum(rows[512] - 103.0, 0.0).mean()

    def test_forward_start_matches_closed_form(self, gbm_paths):
        spec = ForwardStartCall(0.5, 1.0, strike_ratio=1.05)
        pr, se = gbm_paths[2][spec]
        want = exotic_bs_price(spec, 0.2, 100.0)
        assert abs(pr - want) < 3 * se

    def test_barrier_never_hit_is_vanilla(self, gbm_paths):
        _, rows, prices = gbm_paths
        pr, _ = prices[DownAndOutCall(1.0, 100.0, 1e-6)]
        assert_ulps(pr, np.maximum(rows[512] - 100.0, 0.0).mean())

    def test_barrier_against_adjusted_closed_form(self, gbm_paths):
        # discrete monitoring vs the continuity-corrected barrier
        # L exp(-0.5826 sigma sqrt(dt))
        pr, se = gbm_paths[2][DownAndOutCall(1.0, 100.0, 90.0)]
        l_adj = 90.0 * math.exp(-0.5826 * 0.2 * math.sqrt(1.0 / 512.0))
        want = exotic_bs_price(DownAndOutCall(1.0, 100.0, l_adj), 0.2, 100.0)
        assert abs(pr - want) < 3 * se + 0.02

    def test_one_path_has_no_standard_error(self):
        with pytest.raises(ValidationError, match="at least 2 paths"):
            exotic_mc_price(np.full((self.SMALL.size, 1), 100.0), self.SMALL,
                            LookbackCall(1.0))

    def test_lookback_dominates_atm_vanilla(self, gbm_paths):
        _, rows, prices = gbm_paths
        pr, _ = prices[LookbackCall(1.0)]
        atm = np.maximum(rows[512] - 100.0, 0.0).mean()
        assert pr >= atm  # pathwise: min <= S_0

    def test_lookback_between_discrete_and_continuous(self, gbm_paths):
        pr, se = gbm_paths[2][LookbackCall(1.0)]
        cont = exotic_bs_price(LookbackCall(1.0), 0.2, 100.0)
        bias_cap = 100.0 * 0.5826 * 0.2 * math.sqrt(1.0 / 512.0) * 3.0
        assert pr < cont + 3 * se
        assert pr > cont - bias_cap - 3 * se

    def test_missing_grid_time_rejected(self):
        paths = np.full((self.SMALL.size, 3), 100.0)
        with pytest.raises(ConfigError):
            exotic_mc_price(paths, self.SMALL, ForwardStartCall(0.1234, 1.0, strike_ratio=1.0))
        with pytest.raises(ConfigError):
            exotic_mc_price(paths, self.SMALL, LookbackCall(0.7777))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_times_rejected(self, bad):
        # a NaN time was taken for maturity 1.0, which priced (0.0, 0.0)
        with pytest.raises(ValidationError, match=r"finite numbers, got \[ *0\. +(nan|inf)\]"):
            exotic_mc_price(np.ones((2, 3)), [0.0, bad], LookbackCall(1.0))

    def test_shape_mismatch_rejected(self):
        paths = np.full((self.SMALL.size, 3), 100.0)
        with pytest.raises(ValidationError, match=r"\(len\(times\), n_paths\)"):
            exotic_mc_price(paths[:-1], self.SMALL, LookbackCall(1.0))
        # five paths laid out (n_paths, len(times)): that layout is refused
        with pytest.raises(ValidationError, match=r"\(len\(times\), n_paths\)"):
            exotic_mc_price(np.full((5, self.SMALL.size), 100.0), self.SMALL,
                            LookbackCall(1.0))


def assert_ulps(got, want, ulps=4):
    """Each value of got equals its value of want within `ulps` units in
    its last place."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert np.all(np.abs(got - want) <= ulps * np.spacing(np.abs(want))), (got, want)


def whole_array_price(paths, times, spec):
    """(price, SE) from the whole (len(times), n_paths) array: each payoff
    read off its rows, the minima over every row up to the maturity."""
    i_mat = int(np.searchsorted(times, spec.maturity))
    s_t, low = paths[i_mat], paths[: i_mat + 1].min(axis=0)
    if isinstance(spec, ForwardStartCall) and spec.strike is None:
        s_tau = paths[int(np.searchsorted(times, spec.tau))]
        payoff = np.maximum(s_t - spec.strike_ratio * s_tau, 0.0)
    elif isinstance(spec, ForwardStartCall):
        payoff = np.maximum(s_t - spec.strike, 0.0)
    elif isinstance(spec, DownAndOutCall):
        payoff = np.maximum(s_t - spec.strike, 0.0) * (low > spec.barrier)
    else:
        payoff = s_t - low
    return float(payoff.mean()), float(payoff.std(ddof=1) / math.sqrt(payoff.size))


def block_major_heston(p, times, n_paths, driver, tags, max_step=1.0 / 32.0):
    """(S, V) of `heston_simulate` with each block of paths stepped through
    every time before the next block starts: Andersen's QE-M step with both
    laws of V' and both drifts formed on every path, each path taking its
    own by np.where."""
    s, v_out = np.empty((2, len(times), n_paths))
    q = p.rho / p.eps
    for block_id, start in enumerate(range(0, n_paths, reference._PATH_BLOCK)):
        cols = slice(start, min(start + reference._PATH_BLOCK, n_paths))
        m = cols.stop - start
        gen = driver.generator(*tags, block_id)
        x = np.full(m, math.log(p.s0))
        v = np.full(m, p.v0)
        s[0, cols], v_out[0, cols] = p.s0, p.v0
        for row, (lo, hi) in enumerate(zip(times, times[1:]), start=1):
            n = max(1, int(np.ceil((hi - lo) / max_step - 1e-12)))
            prev = lo
            for i in range(1, n + 1):
                end = hi if i == n else lo + (hi - lo) * i / n
                dt, prev = end - prev, end
                zv, zx = gen.standard_normal((2, m))
                u = gen.random(m)
                decay, grown = math.exp(-p.kappa * dt), -math.expm1(-p.kappa * dt)
                big_a = q * (1.0 + 0.5 * p.kappa * dt) - 0.25 * p.rho**2 * dt
                mean = v * decay + p.vbar * grown
                var = (v * (p.eps**2 * decay * grown / p.kappa)
                       + p.vbar * p.eps**2 * grown**2 / (2.0 * p.kappa))
                psi = var / (mean * mean)
                with np.errstate(all="ignore"):  # each law is formed on every path
                    t = 2.0 / psi
                    b2 = np.sqrt(t * (t - 1.0)) + (t - 1.0)
                    a, b = mean / (b2 + 1.0), np.sqrt(b2)
                    v_quad = (b + zv) * (b + zv) * a
                    y = a * (2.0 * big_a)
                    drift_quad = ((zv * 0.5 + b) * zv * y - (b * y) ** 2 / (2.0 * (1.0 - y))
                                  + np.log(1.0 - y) * 0.5)
                    pz = (psi - 1.0) / (psi + 1.0)
                    beta = (1.0 - pz) / mean
                    v_exp = np.log(np.maximum((1.0 - pz) / (1.0 - u), 1.0)) / beta
                    drift_exp = big_a * v_exp - np.log(pz + (1.0 - pz) * beta / (beta - big_a))
                quad = psi <= 1.5
                v_new = np.where(quad, v_quad, v_exp)
                drift_k0 = (q * ((v_new - v) - p.kappa * dt * (p.vbar - 0.5 * (v + v_new)))
                            - 0.25 * p.rho**2 * dt * (v + v_new))
                drift = np.where(quad, np.where(y < 1.0, drift_quad, drift_k0),
                                 np.where(beta > big_a, drift_exp, drift_k0))
                w = (v + v_new) * (0.5 * (1.0 - p.rho**2) * dt)
                x += drift - w * 0.5 + np.sqrt(w) * zx + (p.r - p.q) * dt
                v = v_new
            s[row, cols], v_out[row, cols] = np.exp(x), v
    return s, v_out


# `reference._heston_rows` and `reference._exotic_fold` verbatim as they were
# before the block runner (only renamed): each monitoring interval stepped
# every block of paths as one pool task, and the contracts folded each whole
# row of S in time order.  The reference columns of `exotics` keep their bits.
def time_major_heston_rows(p, times, n_paths, driver, tags=(), return_variance=False,
                           max_step=1.0 / 32.0):
    """Check the arguments of `heston_simulate`; return an iterator over its
    rows in time order: S at each time as a new array, or (S, V) with
    return_variance.

    The check covers the step count: ceil(width / max_step) summed over the
    intervals may not pass _MAX_STEPS, so an absurd horizon is refused before
    any draw.  Each block of _PATH_BLOCK paths keeps its own generator, log
    price and variance.  For each monitoring interval, every block is one task
    on a thread pool of `_workers` threads: it takes the interval's QE-M steps
    and writes its columns of the row, which is yielded once every task is
    done.  A block's generator draws as it would alone, only its own task
    uses it, and a step treats each path on its own (the exponential-law
    paths are gathered, stepped and scattered back), so the rows are those of
    `heston_simulate`, bit for bit, whatever the worker count.  The step
    temporaries go into one scratch set per worker, taken from a free list
    for a task and put back after it.
    """
    times = _check_times(times)
    if times.size < 2 or times[0] != 0.0:
        raise ValidationError("times must be 1-d, start at 0, have >= 2 points")
    if np.any(np.diff(times) <= 0):
        raise ValidationError("times must be strictly increasing")
    if not max_step > 0:
        raise ValidationError(f"max_step must be positive, got {max_step}")
    if n_paths < 1:
        raise ValidationError("need at least one path")
    with np.errstate(over="ignore"):  # a count past a float's range is inf, and refused
        steps = np.maximum(1.0, np.ceil(np.diff(times) / max_step - 1e-12))
    total = np.cumsum(steps)
    if total[-1] > _MAX_STEPS:
        i = int(np.argmax(total > _MAX_STEPS))
        raise ValidationError(
            f"max_step {max_step:g} takes {total[i]:.4g} steps through the interval "
            f"[{times[i]:g}, {times[i + 1]:g}], over the cap of {_MAX_STEPS}")
    kappa, vbar, eps, rho = p.kappa, p.vbar, p.eps, p.rho
    q = rho / eps  # the log price's weight on the martingale increment of V
    workers = _workers(n_paths)
    free = []  # scratch sets not in use by a task

    def step(block, lo, hi, n, s, var):
        cols, gen, x, v = block
        scratch = free.pop()
        m = len(x)
        z = scratch[:2].reshape(-1)[: 2 * m].reshape(2, m)  # Z_V, then Z_X
        zv, zx = z
        u, mean, psi, w1, w2, w3, w4, w5 = scratch[2:, :m]
        prev = lo
        for i in range(1, n + 1):
            end = hi if i == n else lo + (hi - lo) * i / n
            dt = end - prev
            prev = end
            gen.standard_normal(out=z)
            gen.random(out=u)
            decay = math.exp(-kappa * dt)
            grown = -math.expm1(-kappa * dt)
            big_a = q * (1.0 + 0.5 * kappa * dt) - 0.25 * rho**2 * dt  # K2 + K4/2
            # the conditional mean of V' and psi, its variance over mean^2
            np.multiply(v, decay, out=mean)
            mean += vbar * grown
            np.multiply(v, eps**2 * decay * grown / kappa, out=psi)
            psi += vbar * eps**2 * grown**2 / (2.0 * kappa)
            np.multiply(mean, mean, out=w1)
            psi /= w1
            tail = np.flatnonzero(psi > _PSI_C)  # the paths of the exponential law
            # quadratic law V' = a (b + Z_V)^2; psi is clipped at psi_c so
            # that the tail's values, replaced below, stay finite, and at
            # _PSI_FLOOR so that (2/psi)(2/psi - 1) does: over an interval of
            # 1e-200 it overflowed, a was 0 and V' = 0 * inf was NaN
            np.clip(psi, _PSI_FLOOR, _PSI_C, out=w1)
            np.divide(2.0, w1, out=w1)
            np.subtract(w1, 1.0, out=w2)
            w1 *= w2
            np.sqrt(w1, out=w1)
            w1 += w2  # b^2 = 2/psi - 1 + sqrt(2/psi (2/psi - 1))
            np.add(w1, 1.0, out=w2)
            np.divide(mean, w2, out=w2)  # a = mean / (1 + b^2)
            np.sqrt(w1, out=w1)
            np.add(w1, zv, out=w3)
            w3 *= w3
            w3 *= w2  # V'
            w2 *= 2.0 * big_a  # y = 2 A a; E[exp(A V')] is finite iff y < 1
            plain = []  # paths where it is not keep Andersen's uncorrected drift
            if big_a > 0 and w2.max() >= 1.0:  # only at rho > 0 and long steps
                over = w2 >= 1.0
                plain.append(np.flatnonzero(over & (psi <= _PSI_C)))
                w2[over] = 0.0
            # the log price takes A V' - log E[exp(A V')], which is the
            # martingale correction's K0* + K1 V + K2 V' + (K3 V + K4 V')/2,
            # arranged as y Z_V (b + Z_V/2) - (y b)^2 / (2 (1 - y))
            # + log(1 - y) / 2 so that no term of size rho/eps cancels
            np.multiply(zv, 0.5, out=w4)
            w4 += w1
            w4 *= zv
            w4 *= w2
            w1 *= w2
            w1 *= w1
            np.subtract(1.0, w2, out=w5)
            np.log(w5, out=w2)
            w5 += w5
            w1 /= w5
            w4 -= w1
            w2 *= 0.5
            w4 += w2
            if tail.size:
                # exponential law: V' = 0 with probability pz, else
                # Exp(beta); U <= pz puts the log's argument at 1.  The tail
                # is gathered into rows no longer needed (mode "clip" takes
                # unbuffered; the indices are in range), so a worker
                # allocates only its index
                k = tail.size
                pz, beta, v_new, pz_c, gap = w1[:k], w2[:k], w5[:k], psi[:k], mean[:k]
                np.take(psi, tail, out=pz, mode="clip")
                np.take(mean, tail, out=beta, mode="clip")
                np.take(u, tail, out=v_new, mode="clip")
                np.add(pz, 1.0, out=pz_c)
                pz -= 1.0
                pz /= pz_c
                np.subtract(1.0, pz, out=pz_c)
                np.divide(pz_c, beta, out=beta)
                np.subtract(1.0, v_new, out=v_new)
                np.divide(pz_c, v_new, out=v_new)
                np.maximum(v_new, 1.0, out=v_new)
                np.log(v_new, out=v_new)
                v_new /= beta
                w3[tail] = v_new
                # E[exp(A V')] = pz + (1 - pz) beta / gap where gap = beta - A > 0
                np.subtract(beta, big_a, out=gap)
                if big_a > 0 and gap.min() <= 0.0:
                    over = gap <= 0.0
                    plain.append(tail[over])
                    gap[over] = np.inf
                pz_c *= beta
                pz_c /= gap
                pz_c += pz
                np.log(pz_c, out=pz_c)
                np.multiply(v_new, big_a, out=gap)
                gap -= pz_c
                w4[tail] = gap
            if plain:
                # K0 + K1 V + K2 V' + (K3 V + K4 V')/2, K0 = -rho kappa vbar dt / eps
                plain = np.concatenate(plain)
                old, new = v[plain], w3[plain]
                w4[plain] = (q * ((new - old) - kappa * dt * (vbar - 0.5 * (old + new)))
                             - 0.25 * rho**2 * dt * (old + new))
            np.add(v, w3, out=w1)
            w1 *= 0.5 * (1.0 - rho**2) * dt  # K3 V + K4 V'
            np.sqrt(w1, out=w2)
            w2 *= zx
            w1 *= 0.5
            w4 -= w1
            w4 += w2
            w4 += (p.r - p.q) * dt
            x += w4
            np.copyto(v, w3)
        np.exp(x, out=s[cols])
        if var is not None:
            var[cols] = v
        free.append(scratch)

    def rows():
        blocks = [(slice(a, b), driver.generator(*tags, block_id),
                   np.full(b - a, math.log(p.s0)), np.full(b - a, p.v0))
                  for block_id, (a, b) in enumerate(_spans(n_paths, _PATH_BLOCK))]
        free.extend(np.empty((10, len(blocks[0][2]))) for _ in range(workers))
        s = np.full(n_paths, p.s0)
        yield (s, np.full(n_paths, p.v0)) if return_variance else s
        with ThreadPoolExecutor(workers) as pool:
            for lo, hi, n in zip(times, times[1:], steps.astype(int)):
                s = np.empty(n_paths)
                var = np.empty(n_paths) if return_variance else None
                tasks = [pool.submit(step, block, lo, hi, n, s, var) for block in blocks]
                for task in tasks:
                    task.result()  # a task's exception is raised here
                yield (s, var) if return_variance else s

    return rows()


def time_major_fold(rows, times, specs):
    """Mean payoff and standard error of each exotic, folding the rows of S at
    `times`, one per time in time order, into the payoffs as they come.

    The fold holds one running minimum for every barrier and lookback, S at
    each start date a forward start reads, and a contract's payoff at its
    maturity row, which it reduces to (price, SE) there.
    Monitoring (barrier crossing, running minimum) is discrete on exactly
    these times.  Minima are exact, so every payoff is that of the whole
    path array, bit for bit.
    """
    times = _check_times(times)
    due = {}  # row -> contracts that mature at it
    start_row = {}  # forward start with a strike ratio -> its start-date row
    for j, spec in enumerate(specs):
        i_mat = _grid_position(times, spec.maturity, "maturity")
        if not isinstance(spec, (ForwardStartCall, DownAndOutCall, LookbackCall)):
            raise ValidationError(f"unknown exotic spec {type(spec).__name__}")
        if isinstance(spec, ForwardStartCall) and spec.strike is None:
            start_row[j] = _grid_position(times, spec.tau, "start date")
        due.setdefault(i_mat, []).append(j)
    out = [None] * len(specs)
    low, starts = None, {}
    for i, s_t in enumerate(rows):
        low = np.array(s_t) if low is None else np.minimum(low, s_t, out=low)
        if i in start_row.values():
            starts[i] = s_t
        for j in due.get(i, ()):
            spec = specs[j]
            if isinstance(spec, ForwardStartCall):
                if spec.strike is not None:
                    payoff = np.maximum(s_t - spec.strike, 0.0)
                else:
                    payoff = np.maximum(s_t - spec.strike_ratio * starts[start_row[j]],
                                        0.0)
            elif isinstance(spec, DownAndOutCall):
                payoff = np.maximum(s_t - spec.strike, 0.0) * (low > spec.barrier)
            else:
                payoff = s_t - low
            if payoff.size < 2:
                raise ValidationError("a standard error needs at least 2 paths")
            out[j] = (float(payoff.mean()),
                      float(payoff.std(ddof=1) / math.sqrt(payoff.size)))
    return out


class TestExoticFold:
    """Exotics fold each simulated row into the payoffs as it comes; every
    price and SE has the bits of the whole path array."""

    TIMES = np.union1d(np.linspace(0.0, 1.0, 17), [0.3, 0.7])
    SPECS = [ForwardStartCall(0.3, 0.7, strike_ratio=1.0),
             ForwardStartCall(0.3, 1.0, strike_ratio=1.05),  # shares the start row
             ForwardStartCall(0.5, 1.0, strike=101.0),
             DownAndOutCall(0.7, 100.0, 90.0), DownAndOutCall(1.0, 95.0, 85.0),
             LookbackCall(0.5), LookbackCall(1.0)]

    @staticmethod
    def chaos_model(kind):
        basis, d = ((PiecewiseConstantBasis.uniform(1.0, 4), 2) if kind == "piecewise"
                    else (LegendreBasis(1.0, 4), 1))
        n = len(enumerate_indices(2, 4, d))
        theta = 20.0 * np.random.default_rng(31).standard_normal(n) / np.sqrt(n)
        return ChaosModel(100.0, 2, 4, d, basis, theta)

    def assert_fold_is_the_array(self, got, paths):
        # the blocks' moments combine to the whole array's mean and SE
        # within a few ulps; `exotic_mc_price`, one block, has its bits
        want = [whole_array_price(paths, self.TIMES, spec) for spec in self.SPECS]
        assert [exotic_mc_price(paths, self.TIMES, spec) for spec in self.SPECS] == want
        assert_ulps(got, want)

    @pytest.mark.parametrize("kind", ["piecewise", "legendre"])
    def test_model_rows(self, kind):
        # two blocks, the second of 1000 paths
        from chaoscal.model import _path_rows

        model = self.chaos_model(kind)
        n = reference._PATH_BLOCK + 1000
        paths = path_grid(model, self.TIMES, n, BrownianDriver(8), tags=(7001,))
        blocks = _path_rows(model, self.TIMES, n, BrownianDriver(8), tags=(7001,))
        self.assert_fold_is_the_array(
            reference._fold_exotics([blocks], self.TIMES, self.SPECS)[0], paths)

    def test_heston_rows_over_two_blocks(self):
        n = reference._PATH_BLOCK + 1000
        paths = heston_simulate(P, self.TIMES, n, BrownianDriver(8), tags=(7002,))
        blocks = reference._heston_rows(P, self.TIMES, n, BrownianDriver(8), tags=(7002,))
        self.assert_fold_is_the_array(
            reference._fold_exotics([blocks], self.TIMES, self.SPECS)[0], paths)

    def test_both_simulators_on_one_pool(self, monkeypatch):
        # eight blocks of each simulator share one pool; each side's prices
        # are its own fold's, on one worker and on four switching threads
        # every microsecond: a scratch set handed to two tasks at once would
        # move the bits
        for module in (model_module, reference):
            monkeypatch.setattr(module, "_PATH_BLOCK", 64)
        model = self.chaos_model("piecewise")

        def sims():
            return [model_module._path_rows(model, self.TIMES, 500, BrownianDriver(8), (7001,)),
                    reference._heston_rows(P, self.TIMES, 500, BrownianDriver(8), (7002,))]

        monkeypatch.setattr(reference, "_workers", lambda n_paths: 1)
        alone = [reference._fold_exotics([sim], self.TIMES, self.SPECS)[0] for sim in sims()]
        assert reference._fold_exotics(sims(), self.TIMES, self.SPECS) == alone
        monkeypatch.setattr(reference, "_workers", lambda n_paths: 4)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            shared = reference._fold_exotics(sims(), self.TIMES, self.SPECS)
        finally:
            sys.setswitchinterval(interval)
        assert shared == alone

    def test_reference_columns_are_the_time_major_fold(self, tmp_path):
        # over two blocks of paths, the command's reference columns are the
        # fold before the block runner, within a few ulps: each block's
        # payoffs are reduced on their own and the blocks combined
        n = _PATH_BLOCK + 1000
        model_path = tmp_path / "model.json"
        serialize_model(self.chaos_model("piecewise"), model_path)
        contracts = [
            {"type": "forward_start", "tau": 0.3, "maturity": 0.7, "strike_ratio": 1.0},
            {"type": "forward_start", "tau": 0.3, "maturity": 1.0, "strike_ratio": 1.05},
            {"type": "forward_start", "tau": 0.5, "maturity": 1.0, "strike": 101.0},
            {"type": "down_and_out", "maturity": 0.7, "strike": 100.0, "barrier": 90.0},
            {"type": "down_and_out", "maturity": 1.0, "strike": 95.0, "barrier": 85.0},
            {"type": "lookback", "maturity": 0.5},
            {"type": "lookback", "maturity": 1.0},
        ]
        spec, ref, out = (tmp_path / name for name in ("spec.json", "ref.json", "out.csv"))
        spec.write_text(json.dumps({"contracts": contracts, "monitoring_steps": 16}))
        ref.write_text(json.dumps({"s0": P.s0, "kappa": P.kappa, "vbar": P.vbar,
                                   "eps": P.eps, "rho": P.rho, "v0": P.v0}))
        assert main(["exotics", "--model", str(model_path), "--spec", str(spec),
                     "--reference", str(ref), "--out", str(out), "--paths", str(n),
                     "--seed", "4"]) == 0
        rows = time_major_heston_rows(P, self.TIMES, n, BrownianDriver(4), tags=(7002,))
        want = time_major_fold(rows, self.TIMES, self.SPECS)
        with open(out, newline="") as handle:
            got = [(float(row["ref_price"]), float(row["ref_se"]))
                   for row in csv.DictReader(handle)]
        assert_ulps(got, want)

    def test_heston_rows_step_each_block_as_alone(self, monkeypatch):
        monkeypatch.setattr(reference, "_PATH_BLOCK", 64)  # three blocks, one short
        s, v = block_major_heston(P, self.TIMES, 150, BrownianDriver(9), (3,))
        s_sim, v_sim = heston_simulate(P, self.TIMES, 150, BrownianDriver(9), tags=(3,),
                                       return_variance=True)
        np.testing.assert_array_equal(s_sim, s)
        np.testing.assert_array_equal(v_sim, v)
        np.testing.assert_array_equal(
            heston_simulate(P, self.TIMES, 150, BrownianDriver(9), tags=(3,)), s)

    @pytest.mark.parametrize("p, horizon", [
        (HestonParams(100.0, 5.0, 0.04, 2.0, 0.7, 0.04), 8.0),
        (HestonParams(100.0, 10.0, 0.04, 0.5, 0.7, 0.04), 30.0),
    ], ids=["exponential", "quadratic"])
    def test_uncorrected_paths_step_as_alone(self, monkeypatch, p, horizon):
        # one step an interval at rho > 0, where E[exp(A V')] is infinite on
        # the tail (A >= beta) or on the quadratic law (2 A a >= 1): the
        # paths that keep Andersen's K0 have the replica's bits too
        monkeypatch.setattr(reference, "_PATH_BLOCK", 64)
        times = [0.0, horizon, 2.0 * horizon]
        s, v = block_major_heston(p, times, 150, BrownianDriver(9), (5,), max_step=horizon)
        s_sim, v_sim = heston_simulate(p, times, 150, BrownianDriver(9), tags=(5,),
                                       return_variance=True, max_step=horizon)
        np.testing.assert_array_equal(s_sim, s)
        np.testing.assert_array_equal(v_sim, v)

    def test_more_workers_than_cores_keep_the_bits(self, monkeypatch):
        # eight blocks on four workers, switching threads every microsecond:
        # a scratch set handed to two tasks at once would move the bits
        monkeypatch.setattr(reference, "_PATH_BLOCK", 64)
        monkeypatch.setattr(reference, "_workers", lambda n_paths: 4)
        s, v = block_major_heston(P, self.TIMES, 500, BrownianDriver(9), (4,))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            s_sim, v_sim = heston_simulate(P, self.TIMES, 500, BrownianDriver(9), tags=(4,),
                                           return_variance=True)
        finally:
            sys.setswitchinterval(interval)
        np.testing.assert_array_equal(s_sim, s)
        np.testing.assert_array_equal(v_sim, v)

    def test_fold_checks_the_grid_before_reading_a_row(self):
        def rows(k, cols, scratch):
            raise AssertionError("a row was read before the grid was checked")
            yield

        specs = [LookbackCall(1.0), ForwardStartCall(0.2, 1.0, strike_ratio=1.0)]
        with pytest.raises(ConfigError, match="start date 0.2 "):
            reference._fold_exotics([bases._PathBlocks(10, 4, rows, [])], self.TIMES, specs)


class TestFoldMoments:
    """Each block of the exotics fold reduces its payoffs at once to their
    (mean, sum of squared deviations); this thread combines the blocks in
    block order into the price and SE, so no array of paths x contracts is
    held and the worker count moves no bit."""

    SPECS = [ForwardStartCall(0.5, 1.0, strike_ratio=1.0), DownAndOutCall(1.0, 100.0, 85.0),
             LookbackCall(1.0)]

    @staticmethod
    def combined(payoff):
        spans = _spans(payoff.size, _PATH_BLOCK)
        moments = np.empty((len(spans), 1, 2))
        for (a, b), out in zip(spans, moments):
            reference._moments(payoff[None, a:b].copy(), out)
        return reference._price([b - a for a, b in spans], moments[:, 0])

    # four blocks, the last short, and three, the last of one path
    @pytest.mark.parametrize("n", [60_000, 2 * _PATH_BLOCK + 1])
    def test_mean_and_se_are_the_whole_arrays(self, n):
        rng = np.random.default_rng(5)
        z = rng.standard_normal(n)
        for payoff in (np.maximum(100.0 * np.exp(0.2 * z) - 100.0, 0.0),  # a call
                       100.0 + z,  # a spread a hundredth of the mean
                       np.exp(3.0 * z)):  # a heavy tail
            want = payoff.mean(), payoff.std(ddof=1) / math.sqrt(n)
            assert_ulps(self.combined(payoff), want)

    def test_one_block_is_the_whole_array_bit_for_bit(self):
        payoff = np.random.default_rng(6).standard_normal(_PATH_BLOCK)
        assert self.combined(payoff) == (payoff.mean(),
                                         payoff.std(ddof=1) / math.sqrt(payoff.size))

    def test_equal_payoffs_have_an_se_of_exactly_zero(self):
        # three blocks, the last of one path: every lookback payoff is 0,
        # every forward start 2
        n = 2 * _PATH_BLOCK + 1
        times = np.array([0.0, 0.5, 1.0])

        def fold(paths, spec):
            blocks = bases._PathBlocks(n, _PATH_BLOCK,
                                       lambda k, cols, scratch: iter(paths[:, cols]), [])
            return reference._fold_exotics([blocks], times, [spec])[0][0]

        assert self.combined(np.zeros(n)) == (0.0, 0.0)
        assert fold(np.full((3, n), 100.0), LookbackCall(1.0)) == (0.0, 0.0)
        paths = np.array([np.full(n, 100.0), np.full(n, 100.0), np.full(n, 102.0)])
        assert fold(paths, ForwardStartCall(0.5, 1.0, strike_ratio=1.0)) == (2.0, 0.0)

    def test_exotics_output_does_not_depend_on_the_worker_count(self, tmp_path, monkeypatch):
        # eight blocks of each simulator on one worker, on two, and on two
        # switching threads every microsecond: the CSV is the same bytes
        for module in (model_module, reference):
            monkeypatch.setattr(module, "_PATH_BLOCK", 64)
        serialize_model(TestExoticFold.chaos_model("piecewise"), tmp_path / "model.json")
        contracts = [
            {"type": "forward_start", "tau": 0.5, "maturity": 1.0, "strike_ratio": 1.0},
            {"type": "down_and_out", "maturity": 1.0, "strike": 100.0, "barrier": 85.0},
            {"type": "lookback", "maturity": 1.0},
        ]
        (tmp_path / "spec.json").write_text(
            json.dumps({"contracts": contracts, "monitoring_steps": 16}))
        (tmp_path / "ref.json").write_text(json.dumps(
            {"s0": P.s0, "kappa": P.kappa, "vbar": P.vbar, "eps": P.eps, "rho": P.rho,
             "v0": P.v0}))
        outputs = []
        interval = sys.getswitchinterval()
        for workers, switch in ((1, interval), (2, interval), (2, 1e-6)):
            monkeypatch.setattr(reference, "_workers", lambda n_paths: workers)
            out = tmp_path / f"out{len(outputs)}.csv"
            sys.setswitchinterval(switch)
            try:
                assert main(["exotics", "--model", str(tmp_path / "model.json"),
                             "--spec", str(tmp_path / "spec.json"),
                             "--reference", str(tmp_path / "ref.json"), "--out", str(out),
                             "--paths", "500", "--seed", "4"]) == 0
            finally:
                sys.setswitchinterval(interval)
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]

    @pytest.mark.parametrize("with_reference", [False, True])
    @pytest.mark.parametrize("kind", ["piecewise", "legendre"])
    def test_fold_peak_does_not_grow_with_the_paths(self, kind, with_reference):
        # from 100k to 400k paths the traced peak grows by at most what the
        # count adds a block (its task and its moments); payoffs kept a path
        # grew it by 8 bytes a path and contract a simulator, 7.2 MB here
        model = TestExoticFold.chaos_model(kind)
        times = np.linspace(0.0, 1.0, 5)

        def run(n):
            sims = [model_module._path_rows(model, times, n, BrownianDriver(3), (7001,))]
            if with_reference:
                sims.append(reference._heston_rows(P, times, n, BrownianDriver(3), (7002,)))
            reference._fold_exotics(sims, times, self.SPECS)

        run(100_000)  # lazy set-up outside the trace
        small, large = (traced_peak(lambda: run(n)) for n in (100_000, 400_000))
        count = [reference._fold_bytes(model, len(times), n, self.SPECS, with_reference)
                 for n in (100_000, 400_000)]
        assert large - small <= count[1] - count[0]
