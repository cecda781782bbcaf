"""Reference models: Heston and rough Heston, plus exotic Monte Carlo.

These produce the synthetic targets and cross-checks the chaos model is
calibrated against.  Four pieces:

* the closed-form Heston characteristic function in the branch-safe
  arrangement (log argument (1 - G e^{-gamma t})/(1 - G) with Re gamma >= 0,
  which never crosses the negative real axis), together with the explicit
  second-moment finiteness condition;

* the Lewis call-price formula driven by any log-price characteristic
  function, integrated with an adaptive panel Gauss-Legendre rule and
  doubling truncation.  All strikes of a maturity are priced in one
  integration: every refinement level makes one CF call for all of them,
  and each strike keeps its own panels, so its price has the bits it has
  when priced alone;

* the rough-Heston characteristic function via a fractional-Adams
  (predictor-corrector) solution of the Caputo Riccati equation
  D^alpha psi = R(w, psi), reduced exactly to classical Heston at alpha = 1.
  The Adams history sums run in numpy's own einsum loop, not BLAS, so the
  CF is bit-identical across BLAS thread counts and each frequency's value
  does not depend on the others in its batch;

* full-truncation Euler simulation of (X, V) and exotic payoff averaging on
  simulated paths.  Discrete monitoring of barriers/minima carries an
  O(sqrt(dt)) bias; comparisons against the chaos model use the same
  monitoring grid on both sides, so that bias cancels in the comparison.

Complex conventions: the characteristic function is E[exp(iuX_t)] for the
full log price (spot and rate drift included); the Riccati/CF algebra is
written in w = iu, under which the textbook displays become literal code.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gamma as gamma_fn

from .errors import (
    ConfigError,
    ExplosionError,
    IntegrationError,
    NumericError,
    ValidationError,
)
from .vol import DownAndOutCall, ForwardStartCall, LookbackCall

_PATH_BLOCK = 1 << 16


@dataclass(frozen=True)
class HestonParams:
    s0: float
    kappa: float
    vbar: float
    eps: float
    rho: float
    v0: float
    r: float = 0.0
    q: float = 0.0

    def __post_init__(self):
        if self.s0 <= 0:
            raise ValidationError("spot must be positive")
        if self.kappa <= 0 or self.vbar <= 0 or self.eps <= 0:
            raise ValidationError("kappa, vbar, eps must be positive")
        if not -1.0 < self.rho < 1.0:
            raise ValidationError("rho must lie in (-1, 1)")
        if self.v0 < 0:
            raise ValidationError("initial variance must be nonnegative")


@dataclass(frozen=True)
class RoughHestonParams:
    heston: HestonParams
    alpha: float = 1.0

    def __post_init__(self):
        if not 0.5 < self.alpha <= 1.0:
            raise ValidationError("roughness exponent must lie in (1/2, 1]")


def heston_cf(u, t, p):
    """E[exp(iu log S_t)] for Heston; u scalar or array (complex allowed)."""
    u = np.asarray(u, dtype=complex)
    if t < 0:
        raise ValidationError("time must be nonnegative")
    x0 = math.log(p.s0) + (p.r - p.q) * t
    if t == 0:
        return np.exp(1j * u * math.log(p.s0))
    w = 1j * u
    beta = w * p.rho * p.eps - p.kappa
    gamma = np.sqrt(beta**2 - p.eps**2 * (w**2 - w))  # principal root, Re >= 0
    # G = (c - gamma)/(c + gamma) with c = -beta; this arrangement keeps the
    # log argument away from the cut for all t
    g_ratio = (-beta - gamma) / (-beta + gamma)
    emt = np.exp(-gamma * t)
    log_arg = (1.0 - g_ratio * emt) / (1.0 - g_ratio)
    if np.any((log_arg.real <= 0) & (np.abs(log_arg.imag) < 1e-14)):
        raise NumericError("characteristic-function log argument hit the cut")
    a = -p.kappa * p.vbar * (
        (gamma + beta) / p.eps**2 * t + 2.0 / p.eps**2 * np.log(log_arg)
    )
    b = (w**2 - w) * (1.0 - emt) / (2.0 * gamma - (gamma + beta) * (1.0 - emt))
    out = np.exp(1j * u * x0 + a + b * p.v0)
    return out if out.shape else complex(out)


def heston_second_moment_finite(p):
    """True iff E[S_t^2] stays finite for all t."""
    chi2 = 2.0 * p.rho * p.eps - p.kappa
    delta2 = chi2**2 - 2.0 * p.eps**2
    return bool(delta2 >= 0.0 and chi2 < 0.0)


_GL10 = np.polynomial.legendre.leggauss(10)
_GL21 = np.polynomial.legendre.leggauss(21)


def adaptive_panel_integral(f, a, b, tol, max_panels=4096):
    """Integral over [a, b] of a vectorized real f by adaptive Gauss-Legendre.

    f maps a 1-d array of points to values of shape (n_pts,), giving a float,
    or to (n_out, n_pts) for n_out integrands that share their evaluations,
    giving an array of n_out integrals.  Each panel is estimated at 10 and 21
    nodes; a panel whose estimates disagree by more than its share of tol is
    bisected.  Every integrand keeps its own open panels, acceptance test and
    running sum, so it gets the bits it would get alone.  f is called once
    per refinement level, on the nodes of both rules for the union of all
    integrands' open panels.
    """
    (x10, w10), (x21, w21) = _GL10, _GL21
    lo = np.array([a], dtype=float)  # open panels, union over the integrands
    hi = np.array([b], dtype=float)
    owned = None  # per integrand: positions of its open panels in (lo, hi)
    while lo.size:
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        n = lo.size
        pts = np.concatenate([(mid[:, None] + half[:, None] * x).ravel()
                              for x in (x10, x21)])
        vals = np.asarray(f(pts), dtype=float)
        if owned is None:  # every integrand starts on the one panel [a, b]
            scalar = vals.ndim == 1
            n_out = 1 if scalar else len(vals)
            owned = [np.zeros(1, dtype=int)] * n_out
            totals = [0.0] * n_out
            n_done = [0] * n_out
        vals = vals.reshape(len(owned), pts.size)
        coarse_vals = vals[:, : 10 * n].reshape(-1, n, 10)
        fine_vals = vals[:, 10 * n :].reshape(-1, n, 21)
        new_lo, new_hi = [], []
        for j, pos in enumerate(owned):
            p_lo, p_hi = lo[pos], hi[pos]
            coarse = half[pos] * (coarse_vals[j, pos] @ w10)
            fine = half[pos] * (fine_vals[j, pos] @ w21)
            err = np.abs(fine - coarse)
            budget = tol * (p_hi - p_lo) / (b - a)
            ok = err <= budget
            totals[j] += float(fine[ok].sum())
            n_done[j] += int(ok.sum())
            p_lo, p_hi = p_lo[~ok], p_hi[~ok]
            p_mid = 0.5 * (p_lo + p_hi)
            new_lo.append(np.concatenate([p_lo, p_mid]))
            new_hi.append(np.concatenate([p_mid, p_hi]))
            if n_done[j] + new_lo[-1].size > max_panels:
                raise IntegrationError(
                    f"integral did not converge within {max_panels} panels"
                )
        # a panel is the complex number lo + i hi, so a 1-d unique merges them
        spans = np.concatenate(new_lo) + 1j * np.concatenate(new_hi)
        spans, inverse = np.unique(spans, return_inverse=True)
        lo, hi = spans.real, spans.imag
        owned = np.split(inverse, np.cumsum([x.size for x in new_lo])[:-1])
    return totals[0] if scalar else np.array(totals)


def lewis_call_price(cf, s0, k, t, r=0.0, q=0.0, tol=1e-10, u_max=200.0):
    """Call prices from a log-price characteristic function handle.

        C = S_0 e^{-qT} - (sqrt(K) e^{-rT} / pi)
            * int_0^inf Re[e^{-iu log K} cf(u - i/2, T)] / (u^2 + 1/4) du

    cf(u, t) must accept a complex numpy array u.  k is a strike or a 1-d
    array of strikes; a scalar gives a float and an array gives an array.
    The CF does not depend on the strike, so all strikes share one
    integration: each refinement level calls cf once, on the union of the
    strikes' open panels, while every strike keeps its own panels and sum and
    gets the price it would get alone.  The ray is truncated at u_max and
    doubled, strikes sharing each block [upper, 2 upper], until a strike's
    last block contributes less than tol.
    """
    strikes = np.asarray(k, dtype=float)
    if strikes.ndim > 1 or strikes.size == 0:
        raise ValidationError("strike must be a number or a non-empty 1-d array")
    if s0 <= 0 or t <= 0 or np.any(strikes <= 0):
        raise ValidationError("spot, strike and maturity must be positive")
    log_k = np.array([math.log(x) for x in strikes.ravel()])

    def integrand(u, lk):
        phi = cf(u - 0.5j, t)
        return np.real(np.exp(-1j * u * lk[:, None]) * phi) / (u**2 + 0.25)

    total = adaptive_panel_integral(lambda u: integrand(u, log_k), 0.0, u_max, tol)
    live = np.arange(log_k.size)  # strikes whose tail has not yet decayed
    upper = u_max
    while live.size:
        block = adaptive_panel_integral(
            lambda u: integrand(u, log_k[live]), upper, 2.0 * upper, tol
        )
        total[live] += block
        upper *= 2.0
        live = live[~(np.abs(block) < tol)]
        if live.size and upper > 1e7:
            raise IntegrationError("integration tail did not decay")
    price = s0 * math.exp(-q * t) - (
        np.sqrt(strikes) * math.exp(-r * t) / math.pi * total
    )
    return float(price[0]) if strikes.ndim == 0 else price


def heston_lewis_price(p, k, t, **kw):
    """Lewis price(s) under Heston parameters; k is a strike or a 1-d array."""
    return lewis_call_price(
        lambda u, s: heston_cf(u, s, p), p.s0, k, t, p.r, p.q, **kw
    )


def _riccati_rhs(w, psi, p):
    return (w**2 - w) / 2.0 - (p.kappa - w * p.rho * p.eps) * psi \
        + (p.eps**2 / 2.0) * psi**2


def _lag_sum(weights, hist):
    """sum_j weights[j] hist[j] for real weights and a complex history.

    The history is read as float pairs, so numpy's own einsum loop does one
    real sum per entry: the bits depend neither on the BLAS thread count nor
    on which other frequencies share the batch.
    """
    flat = hist.reshape(len(hist), -1).view(float)
    return np.einsum("k,kn->n", weights, flat).view(complex).reshape(hist.shape[1:])


def rough_riccati_solve(u, rp, t_grid, explosion_threshold=1e8):
    """Fractional-Adams solution of D^alpha psi = R(w, psi), psi(0) = 0.

    u may be a scalar or an array; the history convolution is shared across
    the batch.  Returns psi with shape (len(t_grid),) + u.shape.
    """
    u = np.asarray(u, dtype=complex)
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size < 2 or t_grid[0] != 0.0:
        raise ValidationError("time grid must be 1-d, start at 0, have >= 2 points")
    steps = np.diff(t_grid)
    h = steps[0]
    if h <= 0 or not np.allclose(steps, h, rtol=1e-9, atol=0.0):
        raise ValidationError("time grid must be uniform and increasing")
    alpha = rp.alpha
    p = rp.heston
    w = 1j * u
    n = t_grid.size - 1
    psi = np.zeros((n + 1,) + u.shape, dtype=complex)
    rhs = np.zeros_like(psi)
    rhs[0] = _riccati_rhs(w, psi[0], p)
    # Adams weights: predictor b_j and corrector a_j depend only on the lag
    j = np.arange(n + 1, dtype=float)
    b_lag = (j[1:] ** alpha - j[:-1] ** alpha) * h**alpha / alpha  # lag 1..n
    a_lag = (
        (j[2:] ** (alpha + 1) - 2 * j[1:-1] ** (alpha + 1) + j[:-2] ** (alpha + 1))
        * h**alpha
        / gamma_fn(alpha + 2)
    )  # lag 1..n-1 (weight of f_{k-lag} in the step to k, interior points)
    c_pred = 1.0 / gamma_fn(alpha)
    c_corr = h**alpha / gamma_fn(alpha + 2)
    for k in range(1, n + 1):
        hist = rhs[:k]
        # predictor: sum_j b_{k-j} f_j
        pred = c_pred * _lag_sum(b_lag[:k][::-1], hist)
        f_pred = _riccati_rhs(w, pred, p)
        # corrector: oldest-point weight + interior lags + new point
        a0 = (
            ((k - 1) ** (alpha + 1) - (k - 1 - alpha) * k**alpha)
            * h**alpha
            / gamma_fn(alpha + 2)
        )
        corr = a0 * rhs[0]
        if k > 1:
            corr = corr + _lag_sum(a_lag[: k - 1][::-1], hist[1:])
        psi[k] = corr + c_corr * f_pred
        rhs[k] = _riccati_rhs(w, psi[k], p)
        mag = np.abs(psi[k])
        if not np.all(np.isfinite(mag)) or np.any(mag > explosion_threshold):
            raise ExplosionError(
                f"Riccati solution exploded at t = {t_grid[k]:.6g}"
            )
    return psi


def rough_heston_cf(u, t, rp, steps_per_unit_time=500):
    """E[exp(iu log S_t)] for rough Heston via the Volterra Riccati equation.

    exp(iu x0 + kappa vbar int_0^t psi + V_0 int_0^t R(w, psi)), both
    integrals by the trapezoid rule on the solver grid.
    """
    u = np.asarray(u, dtype=complex)
    if t < 0:
        raise ValidationError("time must be nonnegative")
    p = rp.heston
    if t == 0:
        out = np.exp(1j * u * math.log(p.s0))
        return out if out.shape else complex(out)
    n = max(100, int(math.ceil(steps_per_unit_time * t)))
    t_grid = np.linspace(0.0, t, n + 1)
    psi = rough_riccati_solve(u, rp, t_grid)
    w = 1j * u
    rhs = _riccati_rhs(w, psi, p)
    int_psi = np.trapezoid(psi, t_grid, axis=0)
    int_rhs = np.trapezoid(rhs, t_grid, axis=0)
    x0 = math.log(p.s0) + (p.r - p.q) * t
    out = np.exp(1j * u * x0 + p.kappa * p.vbar * int_psi + p.v0 * int_rhs)
    return out if out.shape else complex(out)


def heston_simulate(
    p,
    grid,
    n_paths,
    driver,
    tags=(),
    terminal_only=False,
    return_variance=False,
    max_step=1.0 / 250.0,
):
    """Full-truncation Euler paths of S on the given grid.

    The variance uses V^+ in drift and diffusion and is driven by the same
    Brownian increment that carries weight rho in the log-price, matching
    the closed-form characteristic function.  The log price steps exactly
    conditional on V: X += (r - q - V^+/2) dt + sqrt(V^+ dt) (rho Z1 +
    sqrt(1-rho^2) Z2).

    Returns S with shape (n_paths, len(grid)), or (n_paths,) of terminal
    values when terminal_only (the full-path array for 10^6 paths would not
    fit in memory).  With return_variance, returns (S, V) path arrays.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2 or grid[0] != 0.0:
        raise ValidationError("grid must be 1-d, start at 0, have >= 2 points")
    steps = np.diff(grid)
    if np.any(steps <= 0):
        raise ValidationError("grid must be strictly increasing")
    if steps.max() > max_step + 1e-12:
        raise ConfigError(
            f"grid step {steps.max():.6g} exceeds max_step {max_step:.6g}"
        )
    if n_paths < 1:
        raise ValidationError("need at least one path")
    if terminal_only and return_variance:
        raise ValidationError("variance paths need the full-path mode")
    rho_c = math.sqrt(1.0 - p.rho**2)
    out = np.empty(n_paths if terminal_only else (n_paths, grid.size))
    var_out = np.empty((n_paths, grid.size)) if return_variance else None
    start = 0
    block_id = 0
    while start < n_paths:
        nb = min(_PATH_BLOCK, n_paths - start)
        gen = driver.generator(*tags, block_id)
        x = np.full(nb, math.log(p.s0))
        v = np.full(nb, p.v0)
        if not terminal_only:
            out[start : start + nb, 0] = p.s0
        if return_variance:
            var_out[start : start + nb, 0] = p.v0
        for k, dt in enumerate(steps):
            z = gen.standard_normal((nb, 2))
            vp = np.maximum(v, 0.0)
            sq = np.sqrt(vp * dt)
            x += (p.r - p.q - 0.5 * vp) * dt + sq * (
                p.rho * z[:, 0] + rho_c * z[:, 1]
            )
            v = v + p.kappa * (p.vbar - vp) * dt + p.eps * sq * z[:, 0]
            if not terminal_only:
                out[start : start + nb, k + 1] = np.exp(x)
            if return_variance:
                var_out[start : start + nb, k + 1] = v
        if terminal_only:
            out[start : start + nb] = np.exp(x)
        start += nb
        block_id += 1
    if return_variance:
        return out, var_out
    return out


def _grid_position(times, t, what):
    pos = int(np.searchsorted(times, t))
    if pos >= times.size or abs(times[pos] - t) > 1e-12:
        raise ConfigError(f"{what} {t} is not on the monitoring grid")
    return pos


def exotic_mc_price(paths, times, spec):
    """Mean payoff and standard error of an exotic on simulated paths.

    paths has shape (n_paths, len(times)); monitoring (barrier crossing,
    running minimum) is discrete on exactly these times.
    """
    paths = np.asarray(paths, dtype=float)
    times = np.asarray(times, dtype=float)
    if paths.ndim != 2 or paths.shape[1] != times.size:
        raise ValidationError("paths must be (n_paths, len(times))")
    i_mat = _grid_position(times, spec.maturity, "maturity")
    s_t = paths[:, i_mat]
    if isinstance(spec, ForwardStartCall):
        if spec.strike is not None:
            payoff = np.maximum(s_t - spec.strike, 0.0)
        else:
            i_tau = _grid_position(times, spec.tau, "start date")
            payoff = np.maximum(s_t - spec.strike_ratio * paths[:, i_tau], 0.0)
    elif isinstance(spec, DownAndOutCall):
        alive = paths[:, : i_mat + 1].min(axis=1) > spec.barrier
        payoff = np.maximum(s_t - spec.strike, 0.0) * alive
    elif isinstance(spec, LookbackCall):
        payoff = s_t - paths[:, : i_mat + 1].min(axis=1)
    else:
        raise ValidationError(f"unknown exotic spec {type(spec).__name__}")
    price = float(payoff.mean())
    se = float(payoff.std(ddof=1) / math.sqrt(payoff.size)) if payoff.size > 1 else 0.0
    return price, se
