"""Reference models: Heston and rough Heston, plus exotic Monte Carlo.

These produce the synthetic targets and cross-checks the chaos model is
calibrated against.  Four pieces:

* the closed-form Heston characteristic function in the branch-safe
  arrangement (log argument (1 - G e^{-gamma t})/(1 - G) with Re gamma >= 0,
  which never crosses the negative real axis), together with the explicit
  second-moment finiteness condition;

* the Lewis call-price formula driven by any log-price characteristic
  function, integrated with an adaptive panel Gauss-Legendre rule and
  doubling truncation.  A whole surface, strikes by maturities, is priced
  in one integration: every refinement level makes one CF call for all of
  it, and each (maturity, strike) pair keeps its own panels, so its price
  has the bits it has when priced alone.  The tail blocks go before the
  body, so a CF that explodes at high frequency fails at once.  The body
  starts on panels graded toward u = 0, where the integrand peaks, so it
  needs about one level of bisection, not one for each halving toward the
  peak;

* the rough-Heston characteristic function via a fractional-Adams
  (predictor-corrector) solution of the Caputo Riccati equation
  D^alpha psi = R(w, psi), reduced exactly to classical Heston at alpha = 1.
  The Adams history sums run in numpy's own einsum loop, not BLAS, so the
  CF is bit-identical across BLAS thread counts and each frequency's value
  does not depend on the others in its batch.  Maturities whose solver
  grids share a step share one solve, and each reads its prefix;

* simulation of (X, V) by Andersen's quadratic-exponential scheme with the
  martingale correction (QE-M), and exotic payoff averaging on simulated
  paths.  The simulation takes the monitoring times, steps at most 1/32
  between them, and yields S at each of them in turn (`_heston_rows`).
  Its blocks of paths each draw from their own Philox stream, keyed
  (*tags, block), and step through every time as one task of
  `bases._run_blocks`, one thread a block up to the CPU count, with the
  bits of one block after another.  `_fold_exotics` runs the blocks of
  `model._path_rows` and of `_heston_rows` on one pool; each block folds its
  rows into its paths' payoffs as they come (`_payoffs`), and each price is
  reduced once over the assembled payoffs, so exotics hold a block's rows
  and the payoffs, never the (n_times, n_paths) array.  Discrete
  monitoring of barriers/minima carries an O(sqrt(dt)) bias; comparisons
  against the chaos model use the same monitoring times on both sides, so
  that bias cancels in the comparison.

Complex conventions: the characteristic function is E[exp(iuX_t)] for the
full log price (spot and rate drift included); the Riccati/CF algebra is
written in w = iu, under which the textbook displays become literal code.
"""

import math
from dataclasses import dataclass

import numpy as np

from .bases import (
    _PATH_BLOCK,
    _check_times,
    _job_bytes,
    _PathBlocks,
    _run_blocks,
    _workers,
)
from .errors import (
    ConfigError,
    ExplosionError,
    IntegrationError,
    NumericError,
    ValidationError,
)
from .model import _check_held, _rows_bytes
from .vol import DownAndOutCall, ForwardStartCall, LookbackCall

_PSI_C = 1.5  # QE switches V's law from quadratic to exponential above this psi
_PSI_FLOOR = 1e-150  # the quadratic law's psi is at least this; its b^2 then stays finite
_STEP_ROWS = 7  # rows of a QE step's own temporaries, at most (6 measured)
# QE steps of one Heston simulation, summed over its intervals: about 30 s of
# per-step overhead (30 us a step at two paths, 2 cores); the desk's exotics
# take 64 and criterion c05 takes 500
_MAX_STEPS = 1 << 20
_MAX_PANELS = 4096
_LEWIS_TOL = 1e-10
_LEWIS_U_MAX = 200.0
# the Lewis body's first panels: its 1/(u^2 + 1/4) factor varies on the scale
# 1/2 about u = 0 and flattens away from it, so the panels double from there
_LEWIS_EDGES = (0.0, 0.5) + tuple(2.0**j for j in range(8)) + (_LEWIS_U_MAX,)
_EXPLOSION_THRESHOLD = 1e8
_STEPS_PER_UNIT_TIME = 500
_SOLVE_BYTES = 1 << 24  # psi and history of one rough-Heston solve chunk


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
        for key in ("s0", "kappa", "vbar", "eps"):
            if not getattr(self, key) > 0:
                raise ValidationError(f"key {key!r} must be positive, got {getattr(self, key)}")
        if not -1.0 < self.rho < 1.0:
            raise ValidationError(f"key 'rho' must lie in (-1, 1), got {self.rho}")
        if not self.v0 >= 0:
            raise ValidationError(f"key 'v0' must be nonnegative, got {self.v0}")


@dataclass(frozen=True)
class RoughHestonParams:
    heston: HestonParams
    alpha: float = 1.0

    def __post_init__(self):
        if not 0.5 < self.alpha <= 1.0:
            raise ValidationError(f"key 'alpha' must lie in (1/2, 1], got {self.alpha}")


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


def adaptive_panel_integral(f, a, b, tol):
    """Integral over [a, b] of a vectorized real f by adaptive Gauss-Legendre.

    f maps a 1-d array of points to values of shape (n_pts,), giving a float,
    or to (n_out, n_pts) for n_out integrands that share their evaluations,
    giving an array of n_out integrals.  Each panel is estimated at 10 and 21
    nodes; a panel whose estimates disagree by more than its share of tol,
    tol (hi - lo) / (b - a), is bisected.  Every integrand keeps its own open
    panels, acceptance test and running sum, so it gets the bits it would get
    alone.  f is called once per refinement level, on the nodes of both rules
    for the union of all integrands' open panels.  The first level is the one
    panel [a, b]; `lewis_call_price` starts its body on graded panels instead.
    a and b must be finite and tol finite and positive; a == b gives 0.0 and
    a > b the integral over [b, a] negated.
    """
    for key, x in (("a", a), ("b", b)):
        if not math.isfinite(x):
            raise ValidationError(f"integration bound {key!r} must be finite, got {x}")
    if a == b:
        return 0.0
    if a > b:
        return -_panel_integral(f, (b, a), tol)
    return _panel_integral(f, (a, b), tol)


def _panel_integral(f, edges, tol):
    """`adaptive_panel_integral` over [edges[0], edges[-1]], whose first level
    is the panels between consecutive edges (finite, strictly increasing)."""
    edges = np.asarray(edges, dtype=float)
    if (edges.ndim != 1 or edges.size < 2 or not np.all(np.isfinite(edges))
            or not np.all(np.diff(edges) > 0)):
        raise ValidationError(
            f"panel edges must be finite and strictly increasing, got {edges}")
    if not 0.0 < tol < math.inf:
        raise ValidationError(f"tol must be finite and positive, got {tol}")
    (x10, w10), (x21, w21) = _GL10, _GL21
    lo, hi = edges[:-1], edges[1:]  # open panels, union over the integrands
    width = edges[-1] - edges[0]
    owned = None  # per integrand: positions of its open panels in (lo, hi)
    while lo.size:
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        n = lo.size
        pts = np.concatenate([(mid[:, None] + half[:, None] * x).ravel()
                              for x in (x10, x21)])
        vals = np.asarray(f(pts), dtype=float)
        if owned is None:  # every integrand starts on every panel of the edges
            scalar = vals.ndim == 1
            n_out = 1 if scalar else len(vals)
            owned = [np.arange(n)] * n_out
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
            budget = tol * (p_hi - p_lo) / width
            ok = err <= budget
            totals[j] += float(fine[ok].sum())
            n_done[j] += int(ok.sum())
            p_lo, p_hi = p_lo[~ok], p_hi[~ok]
            p_mid = 0.5 * (p_lo + p_hi)
            new_lo.append(np.concatenate([p_lo, p_mid]))
            new_hi.append(np.concatenate([p_mid, p_hi]))
            if n_done[j] + new_lo[-1].size > _MAX_PANELS:
                raise IntegrationError(
                    f"integral did not converge within {_MAX_PANELS} panels"
                )
        # a panel is the complex number lo + i hi, so a 1-d unique merges them
        spans = np.concatenate(new_lo) + 1j * np.concatenate(new_hi)
        spans, inverse = np.unique(spans, return_inverse=True)
        lo, hi = spans.real, spans.imag
        owned = np.split(inverse, np.cumsum([x.size for x in new_lo])[:-1])
    return totals[0] if scalar else np.array(totals)


def lewis_call_price(cf, s0, k, t, r=0.0, q=0.0):
    """Call prices from a log-price characteristic function handle.

        C = S_0 e^{-qT} - (sqrt(K) e^{-rT} / pi)
            * int_0^inf Re[e^{-iu log K} cf(u - i/2, T)] / (u^2 + 1/4) du

    k is a strike or a 1-d array of strikes, t a maturity or a 1-d array of
    maturities.  cf gets a complex numpy array u: with a scalar t it is
    called as cf(u, t); with an array t as cf(u, ts), ts a 1-d array of some
    of the maturities, and must return shape (len(ts), len(u)).  The price
    has shape t.shape + k.shape, a float when both are scalars.

    Every (maturity, strike) pair is one integrand of one integration: each
    refinement level calls cf once, on the union of the pairs' open panels,
    while every pair keeps its own panels and sum and gets the price it would
    get alone.  The ray is truncated at _LEWIS_U_MAX and doubled, pairs
    sharing each block [upper, 2 upper], until a pair's last block
    contributes less than _LEWIS_TOL; a block's cf call asks only for the
    maturities that still have such a pair.  The tail blocks are integrated
    before the body [0, _LEWIS_U_MAX], since a CF that explodes does so at
    high frequency first, and are added to it in order after it.  The body's
    first level is the panels between _LEWIS_EDGES, 0, 1/2, 1, 2, ..., 128,
    _LEWIS_U_MAX, graded to the 1/(u^2 + 1/4) factor's scale, so a smooth
    integrand needs about one bisection of them.  Each panel's share
    of the tolerance is _LEWIS_TOL times its width over _LEWIS_U_MAX, in the
    body as in a single panel [0, _LEWIS_U_MAX].
    """
    strikes = np.asarray(k, dtype=float)
    mats = np.asarray(t, dtype=float)
    if strikes.ndim > 1 or strikes.size == 0:
        raise ValidationError("strike must be a number or a non-empty 1-d array")
    if mats.ndim > 1 or mats.size == 0:
        raise ValidationError("maturity must be a number or a non-empty 1-d array")
    if s0 <= 0 or np.any(mats <= 0) or np.any(strikes <= 0):
        raise ValidationError("spot, strike and maturity must be positive")
    log_k = np.array([math.log(x) for x in strikes.ravel()])

    def integrand(u, pairs):
        i_t, i_k = np.divmod(pairs, log_k.size)
        asked = np.flatnonzero(np.bincount(i_t))  # maturities with a pair here
        phi = cf(u - 0.5j, t) if mats.ndim == 0 else cf(u - 0.5j, mats[asked])
        phi = np.reshape(phi, (asked.size, u.size))[np.searchsorted(asked, i_t)]
        return np.real(np.exp(-1j * u * log_k[i_k, None]) * phi) / (u**2 + 0.25)

    every = np.arange(mats.size * log_k.size)  # pair i_t * len(k) + i_k
    blocks = []  # (pairs whose tail has not yet decayed, their block integrals)
    live = every
    upper = _LEWIS_U_MAX
    while live.size:
        block = adaptive_panel_integral(
            lambda u: integrand(u, live), upper, 2.0 * upper, _LEWIS_TOL
        )
        blocks.append((live, block))
        upper *= 2.0
        live = live[~(np.abs(block) < _LEWIS_TOL)]
        if live.size and upper > 1e7:
            raise IntegrationError("integration tail did not decay")
    total = _panel_integral(lambda u: integrand(u, every), _LEWIS_EDGES, _LEWIS_TOL)
    for pairs, block in blocks:
        total[pairs] += block
    price = np.array([
        s0 * math.exp(-q * x) - (np.sqrt(strikes) * math.exp(-r * x) / math.pi * row)
        for x, row in zip(mats.ravel(), total.reshape(mats.size, -1))
    ]).reshape(mats.shape + strikes.shape)
    return float(price) if price.ndim == 0 else price


def heston_lewis_price(p, k, t):
    """Lewis price(s) under Heston parameters; k and t as in `lewis_call_price`."""
    def cf(u, s):
        if np.ndim(s) == 0:
            return heston_cf(u, s, p)
        return np.stack([heston_cf(u, x, p) for x in s])

    return lewis_call_price(cf, p.s0, k, t, p.r, p.q)


def _riccati_terms(w, p):
    """The coefficients (c0, c1, c2) of R(w, psi) = c0 - c1 psi + c2 psi^2."""
    return (w**2 - w) / 2.0, p.kappa - w * p.rho * p.eps, p.eps**2 / 2.0


def _riccati_rhs(terms, psi):
    c0, c1, c2 = terms
    return c0 - c1 * psi + c2 * psi**2


def _lag_sum(weights, flat):
    """sum_j weights[j] hist[j] for real weights and a complex history hist,
    given as `flat`, its (len(hist), 2 n) float view.

    numpy's own einsum loop does one real sum per entry, so the bits depend
    neither on the BLAS thread count nor on which other frequencies share the
    batch.
    """
    return np.einsum("k,kn->n", weights, flat).view(complex)


def rough_riccati_solve(u, rp, t_grid):
    """Fractional-Adams solution of D^alpha psi = R(w, psi), psi(0) = 0.

    u may be a scalar or an array; the history convolution is shared across
    the batch, and a scalar is solved as a batch of one, so a frequency gets
    the same bits in any batch.  Returns psi with shape
    (len(t_grid),) + u.shape.  psi at grid index k depends only on u, k and
    the step, so a longer grid with the same step extends a shorter one.
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
    w = 1j * u.reshape(-1)
    n = t_grid.size - 1
    terms = _riccati_terms(w, p)
    psi = np.zeros((n + 1, w.size), dtype=complex)
    rhs = np.zeros_like(psi)
    flat = rhs.view(float)  # the history as float pairs, for `_lag_sum`
    rhs[0] = _riccati_rhs(terms, psi[0])
    # Adams weights: predictor b_j and corrector a_j depend only on the lag
    j = np.arange(n + 1, dtype=float)
    b_lag = (j[1:] ** alpha - j[:-1] ** alpha) * h**alpha / alpha  # lag 1..n
    a_lag = (
        (j[2:] ** (alpha + 1) - 2 * j[1:-1] ** (alpha + 1) + j[:-2] ** (alpha + 1))
        * h**alpha
        / math.gamma(alpha + 2)
    )  # lag 1..n-1 (weight of f_{k-lag} in the step to k, interior points)
    # the oldest point's weight in the corrector of the step to k
    a_first = [
        ((k - 1) ** (alpha + 1) - (k - 1 - alpha) * k**alpha) * h**alpha
        / math.gamma(alpha + 2)
        for k in range(1, n + 1)
    ]
    c_pred = 1.0 / math.gamma(alpha)
    c_corr = h**alpha / math.gamma(alpha + 2)
    for k in range(1, n + 1):
        # predictor: sum_j b_{k-j} f_j
        pred = c_pred * _lag_sum(b_lag[:k][::-1], flat[:k])
        f_pred = _riccati_rhs(terms, pred)
        # corrector: oldest-point weight + interior lags + new point
        corr = a_first[k - 1] * rhs[0]
        if k > 1:
            corr = corr + _lag_sum(a_lag[: k - 1][::-1], flat[1:k])
        psi[k] = corr + c_corr * f_pred
        rhs[k] = _riccati_rhs(terms, psi[k])
        # the max is NaN if any |psi| is, so this catches NaN and inf too
        if not np.abs(psi[k]).max(initial=0.0) <= _EXPLOSION_THRESHOLD:
            raise ExplosionError(
                f"Riccati solution exploded at t = {t_grid[k]:.6g}"
            )
    return psi.reshape((n + 1,) + u.shape)


def _trapezoid(y, x):
    """np.trapezoid(y, x, axis=0) of a C-ordered (len(x), m) array, each
    column summed in row order whatever m is: numpy's own sum goes pairwise
    down a single column, and so gives a lone frequency other bits."""
    v = np.diff(x)[:, None] * (y[1:] + y[:-1]) / 2.0
    return np.add.accumulate(v, out=v)[-1].copy()  # not a view that keeps v


def rough_heston_cf(u, t, rp):
    """E[exp(iu log S_t)] for rough Heston via the Volterra Riccati equation.

    exp(iu x0 + kappa vbar int_0^t psi + V_0 int_0^t R(w, psi)), both
    integrals by the trapezoid rule on the maturity's solver grid, n + 1
    points from 0 to t with n = max(100, ceil(_STEPS_PER_UNIT_TIME t)).

    t is a maturity, giving u.shape, or a 1-d array of them, giving
    (len(t),) + u.shape.  Maturities whose grids have the same step (the
    same bits of t_grid[1] - t_grid[0]) share one Riccati solve on the
    longest of their grids, and each reads psi off its prefix: the bits are
    those of a maturity priced alone.  The frequencies are solved in chunks,
    so the solve's psi and right-hand-side history hold at most about
    _SOLVE_BYTES.
    """
    u = np.asarray(u, dtype=complex)
    mats = np.asarray(t, dtype=float)
    if mats.ndim > 1:
        raise ValidationError("maturity must be a number or a 1-d array")
    if np.any(mats < 0):
        raise ValidationError("time must be nonnegative")
    p = rp.heston
    flat = u.reshape(-1)
    out = np.empty((mats.size, flat.size), dtype=complex)
    groups = {}  # Adams step -> [(row of out, maturity, its grid)]
    for i, x in enumerate(mats.ravel()):
        if x == 0:
            out[i] = np.exp(1j * flat * math.log(p.s0))
            continue
        grid = np.linspace(0.0, x, max(100, int(math.ceil(_STEPS_PER_UNIT_TIME * x))) + 1)
        groups.setdefault(float(grid[1] - grid[0]), []).append((i, x, grid))
    for members in groups.values():
        longest = max((grid for _, _, grid in members), key=len)
        chunk = max(1, _SOLVE_BYTES // (32 * longest.size))
        for lo in range(0, flat.size, chunk):
            uc = flat[lo : lo + chunk]
            psi = rough_riccati_solve(uc, rp, longest)
            rhs = _riccati_rhs(_riccati_terms(1j * uc, p), psi)
            for i, x, grid in members:
                int_psi = _trapezoid(psi[: grid.size], grid)
                int_rhs = _trapezoid(rhs[: grid.size], grid)
                x0 = math.log(p.s0) + (p.r - p.q) * x
                out[i, lo : lo + chunk] = np.exp(
                    1j * uc * x0 + p.kappa * p.vbar * int_psi + p.v0 * int_rhs
                )
    out = out.reshape(mats.shape + u.shape)
    return out if out.shape else complex(out)


def _heston_rows(p, times, n_paths, driver, tags=(), return_variance=False,
                 max_step=1.0 / 32.0):
    """Check the arguments of `heston_simulate`; return its
    `bases._PathBlocks`: block k of _PATH_BLOCK paths yields S at each time
    in order, or (S, V) with return_variance, into rows of its worker's
    scratch.

    The check covers the step count: ceil(width / max_step) summed over the
    intervals may not pass _MAX_STEPS, so an absurd horizon is refused before
    any draw.  Each block draws from its own generator, keyed (*tags, k),
    and keeps its log price and variance in its worker's scratch while it
    takes every interval's QE-M steps in turn (`bases._run_blocks`).  A
    block's generator draws as it would alone and a step treats each path on
    its own (the exponential-law paths are gathered, stepped and scattered
    back), so the rows are those of `heston_simulate`, bit for bit, whatever
    the worker count.
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

    def step(gen, scratch, m, lo, hi, n):
        """n QE-M steps over [lo, hi] of the log price x and variance v of
        the block's m paths, in place."""
        z = scratch[:2].reshape(-1)[: 2 * m].reshape(2, m)  # Z_V, then Z_X
        zv, zx = z
        u, mean, psi, w1, w2, w3, w4, w5, x, v = scratch[2:12, :m]
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

    def rows(k, cols, arrays):
        (scratch,) = arrays
        m = cols.stop - cols.start
        gen = driver.generator(*tags, k)
        x, v, s = scratch[10:, :m]
        x[:] = math.log(p.s0)
        v[:] = p.v0
        s[:] = p.s0
        yield (s, v) if return_variance else s
        for lo, hi, n in zip(times, times[1:], steps.astype(int)):
            step(gen, scratch, m, lo, hi, n)
            np.exp(x, out=s)
            yield (s, v) if return_variance else s

    return _PathBlocks(n_paths, _PATH_BLOCK, rows, _heston_shapes(n_paths))


def _heston_shapes(n_paths):
    """A `_heston_rows` worker's scratch: a block's two rows of normals, its
    uniforms, seven work rows, its log price, variance and S."""
    return [(13, min(n_paths, _PATH_BLOCK))]


def _heston_bytes(n_paths):
    """Bytes `_heston_rows` holds: its job of `_heston_shapes` and, a
    worker, what a step allocates beside it: at most _STEP_ROWS rows (the
    exponential law's index and, on paths where E[exp(A V')] is infinite,
    the uncorrected drift's temporaries)."""
    (shape,) = _heston_shapes(n_paths)
    return _job_bytes([shape, (_STEP_ROWS, shape[1])], n_paths, _PATH_BLOCK, _workers(n_paths))


def heston_simulate(
    p,
    times,
    n_paths,
    driver,
    tags=(),
    return_variance=False,
    max_step=1.0 / 32.0,
):
    """Paths of S by Andersen's (2008) quadratic-exponential scheme with the
    martingale correction (QE-M), returned at the requested times.

    Each step draws V' from a law with V's exact conditional mean and
    variance: a (b + Z_V)^2 while psi = variance / mean^2 is at most 1.5,
    else 0 with probability p and exponential beyond.  The log price steps
    as X' = X + (r - q) dt + K0 + K1 V + K2 V' + sqrt(K3 V + K4 V') Z_X in
    Andersen's notation: V's integral by the trapezoid rule (gamma1 = gamma2
    = 1/2), the noise V's increment carries, and an independent normal for
    the rest.  K0 is chosen so that E[S' | S, V] = S e^{(r-q) dt} under the
    scheme; where that expectation is infinite (long steps at rho > 0) the
    uncorrected K0 = -rho kappa vbar dt / eps is taken.

    `times` (starting at 0) are the monitoring times.  Each interval [lo, hi]
    between them is split into n = ceil((hi - lo) / max_step) equal steps,
    the i-th ending at lo + (hi - lo) i / n, the last exactly at hi; at most
    _MAX_STEPS steps in all.  Each step's end is computed as it is taken, so
    memory does not grow with the step count.  Each block of `_heston_rows`
    writes its rows into its columns as it steps (`bases._run_blocks`), and
    block k of _PATH_BLOCK paths draws from the stream keyed (*tags, k).
    The shape is (len(times), n_paths), one row per time like
    `model.path_grid`, so a terminal value is
    `heston_simulate(p, [0.0, T], ...)[1]`.  With return_variance, returns
    (S, V) arrays of that shape.  The arrays and what `_heston_rows` holds
    are checked against `model.MAX_BYTES` before the first draw.
    """
    blocks = _heston_rows(p, times, n_paths, driver, tags, return_variance, max_step)
    _check_held(8 * (1 + return_variance) * len(times) * n_paths + _heston_bytes(n_paths),
                len(times), n_paths)
    out = np.empty((1 + return_variance, len(times), n_paths))  # S, then V

    def sink(cols, rows):
        for i, row in enumerate(rows):
            for plane, values in zip(out, row if return_variance else (row,)):
                plane[i, cols] = values

    _run_blocks([(blocks, sink)], _workers(n_paths))
    return (out[0], out[1]) if return_variance else out[0]


def _grid_position(times, t, what):
    pos = int(np.searchsorted(times, t))
    if pos >= times.size or abs(times[pos] - t) > 1e-12:
        raise ConfigError(f"{what} {t} is not on the monitoring grid")
    return pos


def _fold_bytes(model, n_times, n_paths, specs, reference):
    """Bytes `_fold_exotics` holds over n_times rows of n_paths model paths,
    and of n_paths Heston paths if `reference`: both simulators' counts
    (`_rows_bytes`, `_heston_bytes`), since their blocks share one pool;
    each simulator's payoffs, which hold the fold's state; a row a worker
    for a barrier's mask; and 48 bytes a time for the grid."""
    sim = _rows_bytes(model, n_times, n_paths)
    if reference:
        sim += _heston_bytes(n_paths)
    masks = _workers(n_paths) * min(n_paths, _PATH_BLOCK)
    return sim + 8 * (n_paths * len(specs) * (1 + reference) + masks) + 48 * n_times


def _check_fold(model, n_times, n_paths, specs, reference):
    """Raise ValidationError if `_fold_bytes` is over `model.MAX_BYTES`."""
    _check_held(_fold_bytes(model, n_times, n_paths, specs, reference), n_times, n_paths)


def _fold_plan(times, specs):
    """Per contract, (maturity row, start-date row) on the grid `times` for
    `_payoffs`; the start row is None but for a forward start with a strike
    ratio.  ConfigError unless every date is on the grid."""
    times = _check_times(times)
    plan = []
    for spec in specs:
        i_mat = _grid_position(times, spec.maturity, "maturity")
        if not isinstance(spec, (ForwardStartCall, DownAndOutCall, LookbackCall)):
            raise ValidationError(f"unknown exotic spec {type(spec).__name__}")
        ratio = isinstance(spec, ForwardStartCall) and spec.strike is None
        plan.append((i_mat, _grid_position(times, spec.tau, "start date") if ratio else None))
    return plan


def _payoffs(rows, plan, specs, out=None):
    """Fold `rows`, S at each time of the `_fold_plan` plan in time order,
    into each contract's payoff on their paths, written into out[j] (made
    at the first row if None) as the rows come, and return out.  A row may
    be overwritten once the next is asked for.

    Until its maturity, a contract's row of out holds what its payoff
    reads: the running minimum of S for a barrier or lookback, S at its
    start date for a forward start with a strike ratio.  Monitoring
    (barrier crossing, running minimum) is discrete on exactly these times.
    Minima are exact and every step elementwise, so each payoff has the bits
    of the whole path array's, on any block of its paths; a barrier's mask
    is all the fold allocates.
    """
    for i, s_t in enumerate(rows):
        if out is None:
            out = np.empty((len(specs), len(s_t)))
        for spec, (i_mat, i_start), state in zip(specs, plan, out):
            if i > i_mat:
                continue
            if isinstance(spec, ForwardStartCall):
                if i == i_start:
                    state[:] = s_t
                if i == i_mat:
                    if spec.strike is None:
                        np.multiply(state, spec.strike_ratio, out=state)
                        np.subtract(s_t, state, out=state)
                    else:
                        np.subtract(s_t, spec.strike, out=state)
                    np.maximum(state, 0.0, out=state)
                continue
            if i == 0:  # float, also from an integer spot
                state[:] = s_t
            else:
                np.minimum(state, s_t, out=state)
            if i == i_mat and isinstance(spec, DownAndOutCall):
                alive = state > spec.barrier
                np.subtract(s_t, spec.strike, out=state)
                np.maximum(state, 0.0, out=state)
                state *= alive
            elif i == i_mat:
                np.subtract(s_t, state, out=state)
    return out


def _price(payoff):
    """Mean payoff and its standard error."""
    if payoff.size < 2:
        raise ValidationError("a standard error needs at least 2 paths")
    return float(payoff.mean()), float(payoff.std(ddof=1) / math.sqrt(payoff.size))


def _exotic_fold(rows, times, specs):
    """Mean payoff and standard error of each exotic, folding the rows of S at
    `times`, one per time in time order, into the payoffs as they come
    (`_payoffs`).  The grid is checked before the first row is read."""
    return [_price(payoff) for payoff in _payoffs(rows, _fold_plan(times, specs), specs)]


def _fold_exotics(sims, times, specs):
    """Per simulator, the mean payoff and standard error of each exotic on
    its paths: the blocks of every `bases._PathBlocks` in `sims` (model and
    Heston rows at `times`) step on one pool of `_workers` threads
    (`bases._run_blocks`), each folding its rows into its columns of the
    simulator's payoffs (`_payoffs`); each price is reduced once over them,
    so it has the bits of the whole path array's."""
    plan = _fold_plan(times, specs)
    payoffs = [np.empty((len(specs), sim.n_paths)) for sim in sims]

    def folder(out):
        return lambda cols, rows: _payoffs(rows, plan, specs, out[:, cols])

    _run_blocks([(sim, folder(out)) for sim, out in zip(sims, payoffs)],
                _workers(max(sim.n_paths for sim in sims)))
    return [[_price(payoff) for payoff in out] for out in payoffs]


def exotic_mc_price(paths, times, spec):
    """Mean payoff and standard error of an exotic on simulated paths.

    paths has shape (len(times), n_paths), one row per monitoring time as
    `heston_simulate` and `model.path_grid` return them; the price is that of
    `_exotic_fold` over its rows.
    """
    paths = np.asarray(paths, dtype=float)
    times = np.asarray(times, dtype=float)
    if paths.ndim != 2 or paths.shape[0] != times.size:
        raise ValidationError(f"paths must be (len(times), n_paths) with "
                              f"{times.size} times, got shape {paths.shape}")
    return _exotic_fold(paths, times, [spec])[0]
