"""Black-Scholes toolkit: vanilla price/vega, implied vol, exotic closed forms.

Exotic closed forms (constant rates r, q):

* forward start, relative strike k: value of (S_T - k S_tau)_+ equals
  e^{-q tau} C_BS(S_0, k S_0, T - tau) by spatial homogeneity;
* down-and-out call with barrier L < S_0 (continuous monitoring, L <= K):
  C_BS(S_0, K, T) - (L/S_0)^{2(r-q-sigma^2/2)/sigma^2} C_BS(L^2/S_0, K, T)
  (in-out parity with the reflected start L^2/S_0);
* floating-strike lookback call (continuous running minimum from S_0):
  C_BS(S_0, S_0, T) - (S_0 e^{-qT} sigma^2 / (2(r-q))) *
  (Phi(-d1) - e^{-(r-q)T} Phi(-d3)),
  d1 = (r - q + sigma^2/2) T / (sigma sqrt(T)), d3 = d1 - 2(r-q) sqrt(T)/sigma.
  The (r-q) -> 0 singularity is removable; below |r-q| = 1e-6 the factor is
  evaluated by its second-order series in b = r - q (coefficients derived
  symbolically; with m = sigma sqrt(T)/2:
  g0 = 2m^2 Phi(-m) - 2m phi(m), g1 = T(m phi(m) - m^2 Phi(-m)),
  g2 = T^2(phi(m)/(12m) + m^2 Phi(-m)/3 - m phi(m)/3), value g0+g1 b+g2 b^2),
  which matches the exact branch to ~1e-12 at the threshold.

The normal distribution needs only the standard library:
Phi(x) = erfc(-x / sqrt 2) / 2 by `math.erfc`, elementwise through
`np.frompyfunc`, and phi(x) = exp(-x^2 / 2) / sqrt(2 pi).  Rounding
-x / sqrt 2 would move Phi by a relative x^2 eps (about 1500 ulp near
x = -37); an error-free product recovers that rounding and one Taylor step
of erfc removes it, so Phi stays within a few ulp of the exact value
wherever it is a normal float.

Implied vols, vanilla and exotic, end in one bracketed bisection
(`_bisect`): it halves a sign-changing bracket until it is no wider than
1e-14 in sigma.  The barrier price map need not be monotone in sigma, so
multiple exotic roots are detected by a grid scan and flagged rather than
silently resolved.
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
    """Root of f in [lo, hi], where f(lo) and f(hi) differ in sign: halve the
    bracket, keeping the sign change, until it is at most _XTOL wide."""
    f_lo = f(lo)
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


def implied_vol(price, s, k, t, r=0.0, q=0.0):
    """Invert bs_call in sigma: Newton from 0.25, falling back to bisection
    of the whole bracket [1e-4, 5] down to a 1e-14 width (`_bisect`) when a
    step leaves the bracket, the vega vanishes or 20 steps do not converge.

    Raises InversionError when the price violates the no-arbitrage bounds
    (S e^{-qT} - K e^{-rT})_+ <= C <= S e^{-qT}.  A price at or beyond the
    Black-Scholes price at either end of the bracket returns that end,
    SIGMA_MIN or SIGMA_MAX.
    """
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
        if abs(diff) < tol:
            return sigma
        vega = bs_vega(s, k, t, sigma, r, q)
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


@dataclass(frozen=True)
class DownAndOutCall:
    maturity: float
    strike: float
    barrier: float

    def __post_init__(self):
        if self.barrier <= 0 or self.strike <= 0 or self.maturity <= 0:
            raise ValidationError("barrier, strike, maturity must be positive")


@dataclass(frozen=True)
class LookbackCall:
    """Floating strike: payoff S_T - min_{t<=T} S_t."""

    maturity: float

    def __post_init__(self):
        if self.maturity <= 0:
            raise ValidationError("maturity must be positive")


def _lookback_drift_factor(b, t, sigma):
    # g(b) = sigma^2/(2b) (Phi(-d1) - e^{-bT} Phi(-d3)); removable at b=0
    if abs(b) < 1e-6:
        m = 0.5 * sigma * np.sqrt(t)
        ph, big_phi = _norm_pdf(m), _norm_cdf(-m)
        g0 = 2 * m * m * big_phi - 2 * m * ph
        g1 = t * (m * ph - m * m * big_phi)
        g2 = t * t * (ph / (12 * m) + m * m * big_phi / 3 - m * ph / 3)
        return g0 + g1 * b + g2 * b * b
    srt = sigma * np.sqrt(t)
    d1 = (b + 0.5 * sigma**2) * t / srt
    d3 = d1 - 2 * b * np.sqrt(t) / sigma
    return sigma**2 / (2 * b) * (_norm_cdf(-d1) - np.exp(-b * t) * _norm_cdf(-d3))


def exotic_bs_price(spec, sigma, s0, r=0.0, q=0.0):
    """Closed-form Black-Scholes price of one of the three exotic contracts."""
    if sigma <= 0:
        raise ValidationError("sigma must be positive")
    if isinstance(spec, ForwardStartCall):
        if spec.strike is not None:
            return bs_call(s0, spec.strike, spec.maturity, sigma, r, q)
        k_eff = spec.strike_ratio * s0
        return np.exp(-q * spec.tau) * bs_call(
            s0, k_eff, spec.maturity - spec.tau, sigma, r, q
        )
    if isinstance(spec, DownAndOutCall):
        if spec.barrier >= s0:
            raise ValidationError(
                f"barrier {spec.barrier} >= spot {s0}: knocked out at inception"
            )
        t, k, lb = spec.maturity, spec.strike, spec.barrier
        power = 2.0 * (r - q - 0.5 * sigma**2) / sigma**2
        vanilla = bs_call(s0, k, t, sigma, r, q)
        reflected = bs_call(lb**2 / s0, k, t, sigma, r, q)
        if reflected <= 0.0:
            return vanilla
        # combine in log space: the power blows up as sigma -> 0 while the
        # reflected price vanishes; exp(sum of logs) keeps the product finite
        return vanilla - np.exp(power * np.log(lb / s0) + np.log(reflected))
    if isinstance(spec, LookbackCall):
        t = spec.maturity
        g = _lookback_drift_factor(r - q, t, sigma)
        return bs_call(s0, s0, t, sigma, r, q) - s0 * np.exp(-q * t) * g
    raise ValidationError(f"unknown exotic spec {spec!r}")


@dataclass(frozen=True)
class ExoticIvResult:
    sigma: float
    multiple_roots: bool


def exotic_implied_vol(price, spec, s0, r=0.0, q=0.0):
    """Invert exotic_bs_price in sigma by bracketed bisection on [1e-4, 5].

    The barrier price map can be non-monotone in sigma; the bracket is scanned
    on a 129-point grid, the first sign-change cell is bisected down to a
    1e-14 width (`_bisect`), and multiple sign changes raise the
    multiple_roots flag.
    """
    grid = np.linspace(SIGMA_MIN, SIGMA_MAX, 129)
    vals = np.array([exotic_bs_price(spec, v, s0, r, q) - price for v in grid])
    signs = np.sign(vals)
    hits = np.nonzero(signs[:-1] * signs[1:] < 0)[0]
    exact = np.nonzero(vals == 0.0)[0]
    if exact.size:
        return ExoticIvResult(float(grid[exact[0]]), bool(hits.size > 1))
    if not hits.size:
        raise InversionError(
            f"no sign change for price {price} on sigma bracket "
            f"[{SIGMA_MIN}, {SIGMA_MAX}] (range [{vals.min() + price}, {vals.max() + price}])"
        )
    k = hits[0]
    root = _bisect(lambda v: exotic_bs_price(spec, v, s0, r, q) - price,
                   grid[k], grid[k + 1])
    return ExoticIvResult(float(root), bool(hits.size > 1))
