"""Vega-weighted surface calibration by damped Gauss-Newton or AdamW.

The model is linear in its coefficients, so per-sample payoff gradients are
exact: d/d theta of (S - K)_+ is 1{S > K} * features, with control-variate
betas frozen between resimulations (stop-gradient).  The loss

    L(theta) = sum_i gamma_i (C_i^mkt - C_i^model(theta))^2,
    gamma_i = 1 / Vega_i^2,

is evaluated in the model's zero-rate world: strikes map to K S_0 / F, market
prices to C S_0 / (DF F), and the weights pick up the inverse Jacobian
(DF F / S_0)^2, which leaves the loss value identical to its market-unit
definition.

Calibration itself runs on a spot-normalized copy of the model (S_0 -> 1,
coefficients divided by S_0), where a 20%-vol surface needs coefficients of
O(0.1).

Feature matrices are sampled once per workspace and reused across passes:
both optimizers draw ceil(max_iterations / resim_every) workspaces, redrawing
the streams and re-estimating the CV betas on independent samples at the
current coefficients.  A fit allocates each MC maturity's feature matrix
once, at its first workspace, with only the columns alive at the maturity,
and redraws it in place at every resimulation, after the old workspace is
dropped; these matrices and the quadrature nodes live in one cache per
fit, keyed by (maturity, PricingMethod).  Optimization streams carry a
constant tag (layout in `pricing._maturity_groups`), so metrics computed
through `price_surface` come from streams the optimizer never saw.  Every
history row is one pass, one pricing of a workspace at one theta, and
max_iterations and patience count these rows.  A fit in which no pass
improved on the starting loss warns that it returns its start.

A fit holds one thread pool for its length, of one thread a build task up
to the CPU count (`pricing._fit_workers`), and runs each Monte Carlo
maturity's work on it as tasks (`bases._run`): at each build its feature
draw and its CV draw, longest first, and at each pass its pricing or its
Jacobian.  Each task repeats the serial arithmetic on its own stream and
calls no threaded BLAS routine (see `pricing`), and every sum over
maturities runs afterwards in maturity order, so the results depend on
neither the worker count nor the BLAS thread count.  What a task writes is
allocated on the calling thread, which also runs the quadrature groups,
the CV statistics, the betas and every warning, in maturity order; a task
may raise but never warns, and the first exception in maturity order is
the one raised.  Outside a fit, `build_workspace`, `workspace_loss` and
`_normal_equations` run their tasks on a pool of their own.

* "gauss_newton" (default) minimizes the ridge objective
  L(theta) + mu |theta|^2, mu = 1e-3 * weight_decay, by Levenberg-Marquardt
  steps.  From the price Jacobian J (`pricing._group_jacobian`), the weights
  Gamma and the residuals r it solves

      (H + lambda D) delta = J^T Gamma r - mu theta,
      H = J^T Gamma J + mu I,  D = diag(H) + 1e-4 max(diag(H)) I,

  and prices theta + delta with one loss pass: a step that lowers the ridge
  objective is accepted and lambda divided by 3, otherwise lambda is
  multiplied by 4.  The loss pass hands each maturity's S_T and prices to
  the Jacobian at an accepted step, which reads them rather than recomputing
  features @ theta, the payoffs and the CV sums, and writes no row of its
  own.  The floor in D
  bounds the step of a coefficient whose curvature is tiny (one that few
  quotes see, with no ridge), where Marquardt's diag(H) alone lets it run
  away.  lambda starts at 1e-3 on each workspace, which takes three
  accepted steps, or fewer once lambda passes 1e3.  The returned
  coefficients are the best by the loss of each workspace's first pass,
  which prices them on streams they were not fitted to; coefficients that
  moved on the last workspace are priced on one more, so a fit's last row
  can be one beyond max_iterations.  A workspace that draws nothing (every
  maturity on quadrature) makes its round a function of theta alone, so
  once such a round accepts no step it is a fixed point: its rows are
  recorded again for each round left rather than rebuilt and repriced, and
  patience and max_iterations end the fit on the rows they would have.
  J^T Gamma J and J^T Gamma r are einsum reductions; the small solve goes
  through LAPACK, whose bits acceptance criterion c13 checks across BLAS
  thread counts.
* "adamw" takes one AdamW step per pass, resim_every steps per workspace,
  along the gradient -2 J^T Gamma r of the same Jacobian, and returns the
  best coefficients by the loss of any pass.  Decoupled weight decay
  contracts theta by lr * lambda * theta per step while the bias-corrected
  Adam step moves each coordinate by at most about lr, so the representable
  coefficient scale is capped near 1/lambda; in normalized units the default
  lambda = 1 acts as a mild shrinkage.  learning_rate is AdamW's alone; the
  moment rates (0.9, 0.999) and epsilon (1e-8) are fixed.
"""

import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from contextvars import ContextVar
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .bases import BrownianDriver, _run, _threads
from .errors import OptimizerError, ValidationError, WeightingError
from .model import ChaosModel
from .pricing import _fit_workers, _group_jacobian, _group_prices, _maturity_groups
from .quotes import quote_rates
from .vol import bs_call, bs_vega

# Stream tag after the resimulation count in optimization draws; the tag
# layout is documented in `pricing._maturity_groups`.
_CAL_TAG = 3233

# Gauss-Newton: ridge per unit weight decay, accepted steps per workspace,
# the damping at the start of a workspace and where it gives up, and the
# damping floor relative to the largest curvature.
_GN_RIDGE = 1e-3
_GN_STEPS = 3
_GN_DAMPING = 1e-3
_GN_DAMPING_CAP = 1e3
_GN_FLOOR = 1e-4
_OPTIMIZERS = ("gauss_newton", "adamw")
# AdamW: the moment decay rates and the denominator's epsilon
_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPS = 1e-8
# the thread pool of the running fit, which `calibrate` holds for its length
_FIT_POOL = ContextVar("_FIT_POOL", default=None)


@dataclass(frozen=True)
class CalibrationConfig:
    learning_rate: float = 1e-3
    max_iterations: int = 10_000
    weight_decay: float = 1.0
    resim_every: int = 50
    patience: int = 1000
    tol: float = 1e-7
    init_std: float = 1e-4
    seed: int = 0
    optimizer: str = "gauss_newton"

    def __post_init__(self):
        if self.optimizer not in _OPTIMIZERS:
            raise ValidationError(f"key 'optimizer' must be one of {_OPTIMIZERS}, "
                                  f"got {self.optimizer!r}")
        for key, ok, rule in (
                ("learning_rate", self.learning_rate > 0, "positive"),
                ("max_iterations", self.max_iterations >= 0, "nonnegative"),
                # initial_coefficients seeds before any driver exists
                ("seed", self.seed >= 0, "nonnegative"),
                ("weight_decay", self.weight_decay >= 0, "nonnegative"),
                ("resim_every", self.resim_every >= 1, "at least 1"),
                ("patience", self.patience >= 1, "at least 1"),
                ("tol", self.tol > 0, "positive"),
                ("init_std", self.init_std > 0, "positive")):
            if not ok:
                raise ValidationError(f"key {key!r} must be {rule}, got {getattr(self, key)}")


@dataclass
class OptimizerState:
    theta: np.ndarray
    m: np.ndarray
    v: np.ndarray
    iteration: int = 0

    @classmethod
    def fresh(cls, theta):
        theta = np.array(theta, dtype=float)
        return cls(theta, np.zeros_like(theta), np.zeros_like(theta))


def initial_coefficients(n, cfg):
    """The N(0, init_std^2) starting draw, decoupled from pricing streams."""
    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 10_007)))
    return cfg.init_std * rng.standard_normal(n)


def vega_weights(quotes):
    """gamma_i = 1/Vega_i^2 at each quote's market implied vol.

    Vega is Black-Scholes in market units, with (r, q) implied by the
    quote's discount factor and forward.
    """
    out = np.empty(len(quotes.quotes))
    for i, q in enumerate(quotes.quotes):
        sigma = q.implied_vol
        if sigma is None or not np.isfinite(sigma) or sigma <= 0:
            raise WeightingError(
                f"quote {i} (T={q.maturity}, K={q.strike}): no usable implied vol"
            )
        r, div = quote_rates(q, quotes.spot)
        vega = bs_vega(quotes.spot, q.strike, q.maturity, sigma, r, div)
        if not np.isfinite(vega) or vega <= 0:
            raise WeightingError(
                f"quote {i} (T={q.maturity}, K={q.strike}): vega is {vega}"
            )
        out[i] = 1.0 / vega**2
    return out


def _call_target(quote, spot):
    """Market call price of a quote (derived from the vol for puts/missing mids)."""
    if getattr(quote, "option_type", "C") == "C" and quote.mid_price is not None:
        return quote.mid_price
    r, div = quote_rates(quote, spot)
    return bs_call(spot, quote.strike, quote.maturity, quote.implied_vol, r, div)


def build_workspace(model, quotes, weights, schedule, driver, tags=(), cache=None):
    """Freeze streams, features and CV betas for a stretch of iterations;
    the workspace is the list of calibration groups, one per maturity.

    CV betas are estimated at the model's current coefficients and treated
    as constants until the next resimulation.  The surface is checked
    (`pricing._check_surface`) before anything is drawn.  `cache` keeps the
    quadrature nodes, and the feature matrices redrawn in place, across
    builds for one model structure (`pricing._maturity_groups`); a build on
    it overwrites the features of the workspace built on it before.  The
    draws run as tasks on the fit's pool, or on one of this call's outside
    a fit.
    """
    qs = quotes.quotes
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (len(qs),):
        raise ValidationError(
            f"weights shape {weights.shape} != number of quotes ({len(qs)},)"
        )
    spot = getattr(quotes, "spot", model.s0)
    prefix = tuple(tags) + (_CAL_TAG,)
    ws = []
    for g in _maturity_groups(model, quotes, schedule, driver, prefix, cache,
                              features=True, pool=_FIT_POOL.get()):
        targets = np.array([_call_target(qs[i], spot) for i in g.rows]) / g.scale
        gweights = weights[g.rows] * g.scale**2
        ws.append(replace(g, targets=targets, gweights=gweights))
    return ws


def _by_group(work, ws, *args):
    """[work(g, *a) for g, *a in zip(ws, *args)]: each Monte Carlo group's
    call as a task (`bases._run`) on the fit's pool, or outside a fit on one
    of this call's, and each quadrature group's on this thread, since it
    draws nothing and its `_row_dot` may use BLAS threads.  The tasks run
    first, the one over the most feature entries (paths x live columns)
    started first; the first exception among them in maturity order is
    raised."""
    calls = [partial(work, *call) for call in zip(ws, *args)]
    drawn = [call for g, call in zip(ws, calls) if g.kind == "mc"]
    costs = [g.features.size for g in ws if g.kind == "mc"]
    done = iter(_run(drawn, _FIT_POOL.get() or _threads(len(drawn)), costs))
    return [next(done) if g.kind == "mc" else call() for g, call in zip(ws, calls)]


def workspace_loss(ws, theta, kept=None):
    """Loss of the frozen workspace at coefficients theta: one pricing pass
    per maturity, each Monte Carlo maturity's a task (`_by_group`) that
    drops its payoffs before it ends, and the sum in maturity order.  Each
    maturity's (S_T, prices) is appended to the list `kept`, if one is
    given, for `_normal_equations` at the same theta.  The gradient is
    -2 J^T Gamma r from `_normal_equations`.
    """
    theta = np.asarray(theta, dtype=float)
    total = 0.0
    for g, (s, prices) in zip(ws, _by_group(lambda g: _group_prices(g, theta), ws)):
        if kept is not None:
            kept.append((s, prices))
        resid = g.targets - prices
        total += float(g.gweights @ resid**2)
    return total


def _normal_equations(ws, theta, kept=None):
    """(loss, J^T Gamma J, J^T Gamma r) of the workspace at theta, with J the
    price Jacobian and r the residuals; the loss is `workspace_loss`'s, bit
    for bit.  `kept`, the (S_T, prices) that a `workspace_loss` pass at this
    very theta kept, are read rather than recomputed, with the same bits
    (`pricing._group_jacobian`).  Each
    Monte Carlo maturity's Jacobian is a task (`_by_group`); the sums run
    in maturity order."""
    total = 0.0
    a = np.zeros((len(theta), len(theta)))
    b = np.zeros(len(theta))
    jacobians = _by_group(lambda g, k: _group_jacobian(g, theta, k), ws,
                          kept or [None] * len(ws))
    for g, (prices, jac) in zip(ws, jacobians):
        resid = g.targets - prices
        total += float(g.gweights @ resid**2)
        a += np.einsum("ki,k,kj->ij", jac, g.gweights, jac)
        b += np.einsum("ki,k->i", jac, g.gweights * resid)
    return total, a, b


def loss(model, quotes, weights, schedule, driver, tags=()):
    """Weighted squared pricing error on fixed streams (deterministic in tags)."""
    ws = build_workspace(model, quotes, weights, schedule, driver, tags=tags)
    return workspace_loss(ws, model.coefficients)


def loss_gradient(model, quotes, weights, schedule, driver, tags=()):
    """Analytic d loss / d theta on the same streams `loss` would use."""
    ws = build_workspace(model, quotes, weights, schedule, driver, tags=tags)
    return -2.0 * _normal_equations(ws, model.coefficients)[2]


def adamw_step(state, grad, cfg):
    """One AdamW update: decoupled decay alongside the bias-corrected step."""
    grad = np.asarray(grad, dtype=float)
    if grad.shape != state.theta.shape:
        raise ValidationError(
            f"gradient shape {grad.shape} != theta shape {state.theta.shape}"
        )
    if not np.all(np.isfinite(grad)):
        raise OptimizerError(f"non-finite gradient at iteration {state.iteration}")
    t = state.iteration + 1
    state.m = _ADAM_BETA1 * state.m + (1.0 - _ADAM_BETA1) * grad
    state.v = _ADAM_BETA2 * state.v + (1.0 - _ADAM_BETA2) * grad**2
    m_hat = state.m / (1.0 - _ADAM_BETA1**t)
    v_hat = state.v / (1.0 - _ADAM_BETA2**t)
    state.theta = state.theta - cfg.learning_rate * (
        cfg.weight_decay * state.theta + m_hat / (np.sqrt(v_hat) + _ADAM_EPS)
    )
    state.iteration = t
    return state, state.theta


@dataclass(frozen=True)
class HistoryRow:
    iteration: int
    loss: float
    best_loss: float
    wall_seconds: float
    resimulated: bool


class _FitLog:
    """History rows, the best candidate and the stopping rule of one fit."""

    def __init__(self, cfg):
        self.cfg = cfg
        self.history = []
        self.best_loss = np.inf
        self.best_theta = None
        self.anchor_loss = np.inf
        self.anchor_it = 0
        self.start = time.perf_counter()

    def record(self, loss_val, theta, resimulated, candidate):
        """Append one pass; False once patience or max_iterations ends the fit.

        Only `candidate` passes can become the returned coefficients.
        """
        it = len(self.history)
        if not np.isfinite(loss_val):
            raise OptimizerError(f"non-finite loss at iteration {it}")
        if candidate and loss_val < self.best_loss:
            self.best_loss = loss_val
            self.best_theta = theta.copy()
        self.history.append(HistoryRow(it, loss_val, self.best_loss,
                                       time.perf_counter() - self.start,
                                       resimulated))
        if loss_val < self.anchor_loss - self.cfg.tol:
            self.anchor_loss = loss_val
            self.anchor_it = it
        elif it - self.anchor_it >= self.cfg.patience:
            return False
        return it + 1 < self.cfg.max_iterations


def _warn_if_frozen(loss_val, slope, cfg):
    """The iteration-0 check for a start whose prices cannot move."""
    if loss_val > 0.0 and not slope.any():
        warnings.warn(
            "gradient is exactly zero at iteration 0: every mapped strike "
            "lies outside the starting spread of S_T (init_std = "
            f"{cfg.init_std}), so no payoff indicator changes and the fit "
            "cannot move",
            RuntimeWarning,
        )


def _adamw(workspace, theta, cfg, log):
    """AdamW on workspaces redrawn every `resim_every` iterations; every pass
    is a candidate."""
    state = OptimizerState.fresh(theta)
    ws = None
    for it in range(cfg.max_iterations):
        resim = it % cfg.resim_every == 0
        if resim:
            ws = None  # the old groups' path weights and CV betas go first
            ws = workspace(it // cfg.resim_every, state.theta)
        loss_val, _, b = _normal_equations(ws, state.theta)
        grad = -2.0 * b
        if it == 0:
            _warn_if_frozen(loss_val, grad, cfg)
        if not log.record(loss_val, state.theta, resim, True):
            return
        adamw_step(state, grad, cfg)


def _gauss_newton_round(ws, theta, loss_val, a, b, mu, log):
    """Levenberg-Marquardt steps on one workspace from its first pass (loss
    and normal equations at theta); returns (theta, moved, go), where go is
    False once the log ends the fit."""
    eye = np.eye(len(theta))
    objective = loss_val + mu * float(theta @ theta)
    lam, accepted = _GN_DAMPING, 0
    while lam <= _GN_DAMPING_CAP:
        hess = a + mu * eye
        curv = np.diag(hess)
        # with no curvature at all (a frozen start, no ridge) any floor will do
        damp = curv + _GN_FLOOR * (curv.max() or 1.0)
        trial = theta + np.linalg.solve(hess + lam * np.diag(damp), b - mu * theta)
        kept = []
        trial_loss = workspace_loss(ws, trial, kept)
        go = log.record(trial_loss, trial, False, False)
        trial_objective = trial_loss + mu * float(trial @ trial)
        if trial_objective < objective:
            theta, objective, lam = trial, trial_objective, lam / 3.0
            accepted += 1
            if accepted == _GN_STEPS or not go:
                break
            _, a, b = _normal_equations(ws, theta, kept)
        else:
            lam *= 4.0
        if not go:
            break
    return theta, accepted > 0, go


def _gauss_newton(workspace, theta, cfg, log):
    """Damped Gauss-Newton on the ridge objective.  Each workspace's first
    pass prices theta on streams it was not fitted to and is the only
    candidate pass; a theta that moved after its last such pass is priced on
    one more workspace.

    A round on a workspace that draws nothing (quadrature only) is a
    function of theta alone: its nodes, targets and weights are fixed and
    lambda restarts at _GN_DAMPING.  Once such a round accepts no step, it
    returns the theta it started from, so every later round would repeat it
    bit for bit; its rows are recorded again for each of them instead,
    until the log ends the fit or the rounds run out."""
    mu = _GN_RIDGE * cfg.weight_decay
    moved = False
    rounds = -(-cfg.max_iterations // cfg.resim_every)
    for r in range(rounds):
        ws = None  # the old groups' path weights and CV betas go first
        ws = workspace(r, theta)
        first = len(log.history)
        loss_val, a, b = _normal_equations(ws, theta)
        if r == 0:
            _warn_if_frozen(loss_val, a, cfg)
        if not log.record(loss_val, theta, True, True):
            return
        theta, moved, go = _gauss_newton_round(ws, theta, loss_val, a, b, mu, log)
        if not go:
            break
        if not moved and all(g.kind == "quad" for g in ws):
            passes = [(row.loss, row.resimulated) for row in log.history[first:]]
            for _ in range(r + 1, rounds):
                for loss_val, resim in passes:
                    if not log.record(loss_val, theta, resim, resim):
                        return
            return
    if moved:
        ws = None
        ws = workspace(r + 1, theta)
        log.record(workspace_loss(ws, theta), theta, True, True)


def calibrate(model0, quotes, cfg, schedule):
    """Fit the coefficients to the quote surface; returns (model*, history).

    `cfg.optimizer` picks damped Gauss-Newton (default) or AdamW (see the
    module docstring).  Both draw ceil(max_iterations / resim_every)
    workspaces, tagged (r,), at the current coefficients, and write one
    history row per pass, one pricing of a workspace at one theta; the
    Jacobian at an accepted Gauss-Newton step reads its trial's S_T and
    prices and writes no row.  A Gauss-Newton fit that draws nothing
    replays its first round that accepts no step for every round left, with
    the same rows, instead of building and pricing them.  A fit stops after
    max_iterations rows, after the last workspace, or by patience (no
    improvement beyond cfg.tol, absolute, within cfg.patience rows);
    Gauss-Newton then prices coefficients that moved since their last
    candidate pass on workspace (r + 1,).  The fit's Monte Carlo draws and
    passes run on one pool it holds to the end (see the module docstring).
    On error the partial history is attached to the exception as
    `.history`, and the pool is closed once its running tasks end.

    The starting spread must reach the quoted strikes: when every mapped
    strike K S_0 / F sits several init-std spreads away from S_0 (no
    near-the-money quote, or nonzero rates with a tiny init_std), the payoff
    indicators are constant at the starting point and the price gradients
    vanish identically (features are centered), so neither optimizer can fit
    the surface.  A gradient or Jacobian that is exactly zero at iteration 0
    while the loss is not raises a RuntimeWarning naming this cause.  So does
    a learning_rate off its default under Gauss-Newton, which does not read
    it.
    """
    if (cfg.optimizer == "gauss_newton"
            and cfg.learning_rate != CalibrationConfig.learning_rate):
        warnings.warn("learning_rate is set, but only optimizer 'adamw' uses it",
                      RuntimeWarning)
    if cfg.max_iterations == 0:
        return model0, []
    driver = BrownianDriver(cfg.seed)
    weights = vega_weights(quotes)
    work = ChaosModel(1.0, model0.p, model0.m, model0.d, model0.basis,
                      model0.coefficients / model0.s0)
    cache = {}  # allocated at the first workspace only

    def workspace(r, theta):
        return build_workspace(work.with_coefficients(theta), quotes, weights,
                               schedule, driver, tags=(r,), cache=cache)

    fit = _gauss_newton if cfg.optimizer == "gauss_newton" else _adamw
    log = _FitLog(cfg)
    # a quadrature-only fit submits nothing, so its pool starts no thread
    with ThreadPoolExecutor(max(1, _fit_workers(quotes, schedule))) as pool:
        token = _FIT_POOL.set(pool)
        try:
            fit(workspace, work.coefficients, cfg, log)
        except Exception as exc:
            exc.history = log.history
            raise
        finally:
            _FIT_POOL.reset(token)
    first = log.history[0].loss
    if len(log.history) > 1 and 0.0 < first == log.history[-1].best_loss:
        warnings.warn(
            f"no pass improved on the starting loss {first:.6g} in "
            f"{len(log.history)} passes, so the fit returns its start: the "
            "prices may barely move there (strikes many starting spreads of "
            f"S_T away from the money, init_std = {cfg.init_std})",
            RuntimeWarning,
        )
    best = model0.with_coefficients(log.best_theta * model0.s0)
    return best, log.history
