"""Black-Scholes toolkit: vanilla price/vega, implied vol, exotic closed forms.

Exotic closed forms at zero rates, the model's world (its discounted asset
is the martingale), and why each is monotone in sigma, so that one bracketed
inversion finds any attainable price (m = sigma sqrt(T) / 2):

* forward start, relative strike k: (S_T - k S_tau)_+ is worth
  C_BS(S_0, k S_0, T - tau) by spatial homogeneity, an absolute strike K the
  vanilla C_BS(S_0, K, T); increasing, flat for a relative strike at tau = T;
* lookback, floating strike on the continuous minimum from S_0:
  C_BS(S_0, S_0, T) - S_0 (2 m^2 Phi(-m) - 2 m phi(m)); increasing, since
  dP/dm = 4 S_0 (phi(m) - m Phi(-m)) > 0 (Mills' ratio);
* down-and-out call, barrier L < S_0, continuous monitoring.  For L < K it
  is C_BS(S_0, K, T) - (S_0/L) C_BS(L^2/S_0, K, T) by reflection, whose vega
  is the vanilla's times 1 - (S_0/L)^{2 ln(L/K) / (sigma^2 T)} >= 0.  For
  L >= K the surviving payoff splits into S_T - L, worth S_0 - L (S - L
  stopped at L is a martingale), and L - K times the survival probability:
  (S_0 - L) + (L - K) (Phi(d2) - (S_0/L) Phi(-d1)), d1 and d2 at strike L.
  That is flat at L = K and decreasing for L > K, as survival falls in sigma.

The normal distribution needs only the standard library:
Phi(x) = erfc(-x / sqrt 2) / 2 by `math.erfc`, elementwise through
`np.frompyfunc`, and phi(x) = exp(-x^2 / 2) / sqrt(2 pi).  Rounding
-x / sqrt 2 would move Phi by a relative x^2 eps (about 1500 ulp near
x = -37); an error-free product recovers that rounding and one Taylor step
of erfc removes it, so Phi stays within a few ulp of the exact value
wherever it is a normal float.

Implied vols, vanilla and exotic, end in one bracketed bisection
(`_bisect`): it halves a sign-changing bracket until it is no wider than
1e-14 in sigma.  An exotic inverts on the whole bracket [1e-4, 5]; a flat
price map has no implied vol.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InversionError, ValidationError

SIGMA_MIN = 1e-4
SIGMA_MAX = 5.0
_XTOL = 1e-14  # width of the final bisection bracket in sigma

_SQRT_HALF = math.sqrt(0.5)
_SQRT_HALF_ERR = -4.833646656726457e-17  # sqrt(1/2) - _SQRT_HALF
_SPLIT = 134217729.0  # 2^27 + 1: Veltkamp split into 26-bit halves
_SQRT_HALF_HI = _SPLIT * _SQRT_HALF - (_SPLIT * _SQRT_HALF - _SQRT_HALF)
_SQRT_HALF_LO = _SQRT_HALF - _SQRT_HALF_HI
_INV_SQRT_PI = 1.0 / math.sqrt(math.pi)
_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _ncdf(x):
    """Phi(x) for one float: erfc(z) / 2 at z = -x / sqrt 2, corrected for
    the rounding of z by erfc(z + delta) = erfc(z) - 2 delta e^{-z^2} / sqrt pi."""
    z = -x * _SQRT_HALF
    if not (math.isfinite(x) and -40.0 < x < 40.0):  # Phi is 0, 1 or nan
        return 0.5 * math.erfc(z)
    x_hi = _SPLIT * x - (_SPLIT * x - x)
    x_lo = x - x_hi
    # Dekker's two-product: the exact error of the rounded product -x * c
    err = (((-x_hi * _SQRT_HALF_HI - z) - x_hi * _SQRT_HALF_LO)
           - x_lo * _SQRT_HALF_HI) - x_lo * _SQRT_HALF_LO
    delta = err - x * _SQRT_HALF_ERR
    return 0.5 * math.erfc(z) - delta * math.exp(-z * z) * _INV_SQRT_PI


_ncdf_elementwise = np.frompyfunc(_ncdf, 1, 1)


def _norm_cdf(x):
    """Standard normal cdf, elementwise; a 0-d input returns a float."""
    out = _ncdf_elementwise(np.asarray(x, dtype=float))
    return out if isinstance(out, float) else out.astype(float)


def _norm_pdf(x):
    """Standard normal density exp(-x^2 / 2) / sqrt(2 pi), elementwise."""
    x = np.asarray(x, dtype=float)
    return np.exp(-x**2 / 2.0) / _SQRT_2PI


def _bisect(f, lo, hi):
    """Root of f in [lo, hi], where f(lo) is 0 or differs in sign from f(hi):
    halve the bracket, keeping the sign change, until it is at most _XTOL wide."""
    f_lo = f(lo)
    if f_lo == 0.0:
        return lo
    while hi - lo > _XTOL:
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if (f_mid < 0.0) == (f_lo < 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def bs_call(s, k, t, sigma, r=0.0, q=0.0):
    """Black-Scholes call; array-friendly in all arguments."""
    s, k, t, sigma = (np.asarray(x, dtype=float) for x in (s, k, t, sigma))
    df_q = np.exp(-q * t)
    df_r = np.exp(-r * t)
    vol = sigma * np.sqrt(t)
    with np.errstate(divide="ignore", invalid="ignore"):
        d1 = (np.log(s / k) + (r - q) * t) / vol + 0.5 * vol
        d2 = d1 - vol
    price = np.where(
        vol > 0,
        s * df_q * _norm_cdf(d1) - k * df_r * _norm_cdf(d2),
        np.maximum(s * df_q - k * df_r, 0.0),
    )
    return float(price) if price.ndim == 0 else price


def bs_put(s, k, t, sigma, r=0.0, q=0.0):
    # put-call parity keeps the two prices consistent to rounding
    par = s * np.exp(-q * np.asarray(t, dtype=float)) - k * np.exp(-r * np.asarray(t, dtype=float))
    out = bs_call(s, k, t, sigma, r, q) - par
    return float(out) if np.ndim(out) == 0 else out


def bs_vega(s, k, t, sigma, r=0.0, q=0.0):
    """dC/dsigma = S e^{-qT} sqrt(T) phi(d1)."""
    s, k, t, sigma = (np.asarray(x, dtype=float) for x in (s, k, t, sigma))
    vol = sigma * np.sqrt(t)
    with np.errstate(divide="ignore", invalid="ignore"):
        d1 = (np.log(s / k) + (r - q) * t) / vol + 0.5 * vol
    out = np.where(vol > 0, s * np.exp(-q * t) * np.sqrt(t) * _norm_pdf(d1), 0.0)
    return float(out) if out.ndim == 0 else out


def _check_finite(price):
    # every comparison with NaN is false: it would pass the bounds checks and
    # bisect to the top of the bracket
    if not math.isfinite(price):
        raise InversionError(f"price {price} is not finite")


def implied_vol(price, s, k, t, r=0.0, q=0.0):
    """Invert bs_call in sigma: Newton from 0.25, falling back to bisection
    of the whole bracket [1e-4, 5] down to a 1e-14 width (`_bisect`) when a
    step leaves the bracket, the vega vanishes or 20 steps do not converge.

    Newton stops where the price error is below 1e-10 S and pins either sigma
    (1e-8 times the vega) or the price (1e-8 relative): a deep out-of-the-money
    price is within 1e-10 S of zero at any sigma, so that test alone took
    the start.

    Raises InversionError when the price is not finite or violates the
    no-arbitrage bounds (S e^{-qT} - K e^{-rT})_+ <= C <= S e^{-qT}.  A price
    at or beyond the Black-Scholes price at either end of the bracket returns
    that end, SIGMA_MIN or SIGMA_MAX.
    """
    _check_finite(price)
    lower = max(s * np.exp(-q * t) - k * np.exp(-r * t), 0.0)
    upper = s * np.exp(-q * t)
    tol = 1e-10 * s
    if price < lower - tol or price > upper + tol:
        raise InversionError(
            f"price {price} outside no-arbitrage bounds [{lower}, {upper}] "
            f"for (S={s}, K={k}, T={t}, r={r}, q={q})"
        )
    lo, hi = bs_call(s, k, t, SIGMA_MIN, r, q), bs_call(s, k, t, SIGMA_MAX, r, q)
    if price <= lo:
        return SIGMA_MIN
    if price >= hi:
        return SIGMA_MAX

    sigma = 0.25
    for _ in range(20):
        diff = bs_call(s, k, t, sigma, r, q) - price
        vega = bs_vega(s, k, t, sigma, r, q)
        if abs(diff) < min(tol, 1e-8 * max(vega, price)):
            return sigma
        if vega < 1e-12:
            break
        step = diff / vega
        nxt = sigma - step
        if not SIGMA_MIN < nxt < SIGMA_MAX:
            break
        sigma = nxt
    sigma = _bisect(lambda v: bs_call(s, k, t, v, r, q) - price, SIGMA_MIN, SIGMA_MAX)
    return sigma


# ---------------------------------------------------------------------------
# exotic contracts


@dataclass(frozen=True)
class ForwardStartCall:
    """Payoff (S_T - k S_tau)_+ for relative strike k, or (S_T - K)_+ when an
    absolute strike is given instead."""

    tau: float
    maturity: float
    strike_ratio: float = None
    strike: float = None

    def __post_init__(self):
        if not 0.0 <= self.tau <= self.maturity:
            raise ValidationError(f"need 0 <= tau <= T, got ({self.tau}, {self.maturity})")
        if (self.strike_ratio is None) == (self.strike is None):
            raise ValidationError("give exactly one of strike_ratio, strike")
        k = self.strike if self.strike_ratio is None else self.strike_ratio
        if not (k > 0 and self.maturity > 0):
            raise ValidationError("strike (or strike_ratio), maturity must be positive")


@dataclass(frozen=True)
class DownAndOutCall:
    maturity: float
    strike: float
    barrier: float

    def __post_init__(self):
        for key in ("barrier", "strike", "maturity"):
            if not getattr(self, key) > 0:
                raise ValidationError(f"key {key!r} must be positive, got {getattr(self, key)}")


@dataclass(frozen=True)
class LookbackCall:
    """Floating strike: payoff S_T - min_{t<=T} S_t."""

    maturity: float

    def __post_init__(self):
        if self.maturity <= 0:
            raise ValidationError("maturity must be positive")


def exotic_bs_price(spec, sigma, s0):
    """Closed-form zero-rate Black-Scholes price of one of the three exotics."""
    if sigma <= 0:
        raise ValidationError("sigma must be positive")
    if isinstance(spec, ForwardStartCall):
        if spec.strike is not None:
            return bs_call(s0, spec.strike, spec.maturity, sigma)
        return bs_call(s0, spec.strike_ratio * s0, spec.maturity - spec.tau, sigma)
    if isinstance(spec, DownAndOutCall):
        if spec.barrier >= s0:
            raise ValidationError(
                f"barrier {spec.barrier} >= spot {s0}: knocked out at inception"
            )
        t, k, lb = spec.maturity, spec.strike, spec.barrier
        if lb < k:
            return bs_call(s0, k, t, sigma) - s0 / lb * bs_call(lb**2 / s0, k, t, sigma)
        vol = sigma * np.sqrt(t)
        d1 = np.log(s0 / lb) / vol + 0.5 * vol
        survival = _norm_cdf(d1 - vol) - s0 / lb * _norm_cdf(-d1)
        return (s0 - lb) + (lb - k) * survival
    if isinstance(spec, LookbackCall):
        t = spec.maturity
        m = 0.5 * sigma * np.sqrt(t)
        g = 2 * m * m * _norm_cdf(-m) - 2 * m * _norm_pdf(m)
        return bs_call(s0, s0, t, sigma) - s0 * g
    raise ValidationError(f"unknown exotic spec {spec!r}")


def exotic_implied_vol(price, spec, s0):
    """Invert exotic_bs_price in sigma by bisection of the whole bracket
    [1e-4, 5] down to a 1e-14 width (`_bisect`); every zero-rate map is
    monotone there (module docstring).

    Raises InversionError when the price is not finite, when the map is
    flat, or when the price lies outside [f(1e-4), f(5)] (or [f(5), f(1e-4)]
    for a decreasing map).
    """
    _check_finite(price)
    f = lambda v: exotic_bs_price(spec, v, s0) - price
    f_lo, f_hi = f(SIGMA_MIN), f(SIGMA_MAX)
    if f_lo == f_hi:
        raise InversionError(f"the price of {spec!r} does not depend on sigma")
    if min(f_lo, f_hi) > 0.0 or max(f_lo, f_hi) < 0.0:
        raise InversionError(
            f"price {price} outside [{min(f_lo, f_hi) + price}, "
            f"{max(f_lo, f_hi) + price}], the prices of {spec!r} on the sigma "
            f"bracket [{SIGMA_MIN}, {SIGMA_MAX}]"
        )
    return _bisect(f, SIGMA_MIN, SIGMA_MAX)
