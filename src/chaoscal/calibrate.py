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
current coefficients.  Optimization streams carry a constant tag (layout in
`pricing._maturity_groups`), so metrics computed through `price_surface`
come from streams the optimizer never saw.  Every pass over a workspace is
one history row, and max_iterations also caps the rows.  A fit in which no
pass improved on the starting loss warns that it returns its start.

* "gauss_newton" (default) minimizes the ridge objective
  L(theta) + mu |theta|^2, mu = 1e-3 * weight_decay, by Levenberg-Marquardt
  steps.  From the price Jacobian J (`pricing._group_jacobian`), the weights
  Gamma and the residuals r it solves

      (H + lambda D) delta = J^T Gamma r - mu theta,
      H = J^T Gamma J + mu I,  D = diag(H) + 1e-4 max(diag(H)) I,

  and prices theta + delta with one loss pass: a step that lowers the ridge
  objective is accepted and lambda divided by 3, otherwise lambda is
  multiplied by 4.  The floor in D bounds the step of a coefficient whose
  curvature is tiny (one that few quotes see, with no ridge), where
  Marquardt's diag(H) alone lets it run away.  lambda starts at 1e-3 on
  each workspace, which takes three accepted steps, or fewer once lambda
  passes 1e3.  The returned coefficients are the best by the loss of each
  workspace's first pass, which prices them on streams they were not fitted
  to; coefficients that moved on the last workspace are priced on one more,
  so a fit's last row can be one beyond max_iterations.  J^T Gamma J and
  J^T Gamma r are einsum reductions; the small solve goes through LAPACK,
  whose bits acceptance criterion c13 checks across BLAS thread counts.
* "adamw" takes one AdamW step per pass, resim_every steps per workspace,
  and returns the best coefficients by the loss of any pass.  Decoupled
  weight decay contracts theta by lr * lambda * theta per step while the
  bias-corrected Adam step moves each coordinate by at most about lr, so the
  representable coefficient scale is capped near 1/lambda; in normalized
  units the default lambda = 1 acts as a mild shrinkage.  learning_rate,
  beta1, beta2 and eps_adam are AdamW's alone.
"""

import time
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .bases import BrownianDriver
from .errors import OptimizerError, ValidationError, WeightingError
from .model import ChaosModel
from .pricing import (_add_price_gradient, _group_jacobian, _group_prices,
                      _maturity_groups)
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
_ADAMW_KEYS = ("learning_rate", "beta1", "beta2", "eps_adam")


@dataclass(frozen=True)
class CalibrationConfig:
    learning_rate: float = 1e-3
    max_iterations: int = 10_000
    weight_decay: float = 1.0
    resim_every: int = 50
    patience: int = 1000
    tol: float = 1e-7
    init_std: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps_adam: float = 1e-8
    seed: int = 0
    optimizer: str = "gauss_newton"

    def __post_init__(self):
        if self.optimizer not in _OPTIMIZERS:
            raise ValidationError(f"key 'optimizer' must be one of {_OPTIMIZERS}, "
                                  f"got {self.optimizer!r}")
        if self.learning_rate <= 0:
            raise ValidationError("learning rate must be positive")
        if self.max_iterations < 0:
            raise ValidationError("max iterations must be nonnegative")
        if self.seed < 0:  # initial_coefficients seeds before any driver exists
            raise ValidationError(f"seed must be nonnegative, got {self.seed}")
        if self.weight_decay < 0:
            raise ValidationError("weight decay must be nonnegative")
        if self.resim_every < 1 or self.patience < 1:
            raise ValidationError("resimulation period and patience must be >= 1")
        if self.tol <= 0 or self.init_std <= 0 or self.eps_adam <= 0:
            raise ValidationError("tolerance, init std and eps_adam must be positive")
        if not (0.0 < self.beta1 < 1.0 and 0.0 < self.beta2 < 1.0):
            raise ValidationError("AdamW betas must lie in (0, 1)")


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


@dataclass
class CalibrationWorkspace:
    s0: float
    n_coefficients: int
    groups: list = field(default_factory=list)


def _live_columns(features):
    """Slices covering the feature columns that are not identically zero.

    Indices supported beyond the maturity's cell are annihilated there (47
    of the desk fit's 132 columns), and their gradient entries are exact
    zeros that need no pass over the paths.
    """
    live = np.concatenate(([0], features.any(axis=0), [0])).astype(np.int8)
    edges = np.flatnonzero(np.diff(live))
    return tuple(slice(a, b) for a, b in zip(edges[::2], edges[1::2]))


def build_workspace(model, quotes, weights, schedule, driver, tags=(), nodes=None):
    """Freeze streams, features and CV betas for a stretch of iterations.

    CV betas are estimated at the model's current coefficients and treated
    as constants until the next resimulation.  `nodes` caches quadrature
    nodes across builds for one model structure (`pricing._maturity_groups`).
    """
    qs = quotes.quotes
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (len(qs),):
        raise ValidationError(
            f"weights shape {weights.shape} != number of quotes ({len(qs)},)"
        )
    ws = CalibrationWorkspace(model.s0, len(model.coefficients))
    spot = getattr(quotes, "spot", model.s0)
    prefix = tuple(tags) + (_CAL_TAG,)
    for g in _maturity_groups(model, quotes, schedule, driver, prefix, nodes):
        targets = np.array([_call_target(qs[i], spot) for i in g.rows]) / g.scale
        gweights = weights[g.rows] * g.scale**2
        ws.groups.append(replace(g, targets=targets, gweights=gweights,
                                 live=_live_columns(g.features)))
    return ws


def workspace_loss(ws, theta, with_gradient=False):
    """Loss (and gradient) of the frozen workspace at coefficients theta.

    One fused pass per maturity: terminal values once, payoffs for all
    strikes, per-sample gradient weights folded into one reduction over the
    nonzero feature columns (numpy's own loop, see `pricing` on determinism).
    """
    theta = np.asarray(theta, dtype=float)
    total = 0.0
    grad = np.zeros(ws.n_coefficients) if with_gradient else None
    for g in ws.groups:
        s, pay, prices = _group_prices(g, theta)
        resid = g.targets - prices
        total += float(g.gweights @ resid**2)
        if with_gradient:
            _add_price_gradient(grad, g, s, (pay > 0.0).T.astype(float),
                                -2.0 * g.gweights * resid, theta)
    return (total, grad) if with_gradient else total


def loss(model, quotes, weights, schedule, driver, tags=()):
    """Weighted squared pricing error on fixed streams (deterministic in tags)."""
    ws = build_workspace(model, quotes, weights, schedule, driver, tags=tags)
    return workspace_loss(ws, model.coefficients)


def loss_gradient(model, quotes, weights, schedule, driver, tags=()):
    """Analytic d loss / d theta on the same streams `loss` would use."""
    ws = build_workspace(model, quotes, weights, schedule, driver, tags=tags)
    return workspace_loss(ws, model.coefficients, with_gradient=True)[1]


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
    state.m = cfg.beta1 * state.m + (1.0 - cfg.beta1) * grad
    state.v = cfg.beta2 * state.v + (1.0 - cfg.beta2) * grad**2
    m_hat = state.m / (1.0 - cfg.beta1**t)
    v_hat = state.v / (1.0 - cfg.beta2**t)
    state.theta = state.theta - cfg.learning_rate * (
        cfg.weight_decay * state.theta + m_hat / (np.sqrt(v_hat) + cfg.eps_adam)
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
            ws = None  # release the old feature blocks before resampling
            ws = workspace(it // cfg.resim_every, state.theta)
        loss_val, grad = workspace_loss(ws, state.theta, with_gradient=True)
        if it == 0:
            _warn_if_frozen(loss_val, grad, cfg)
        if not log.record(loss_val, state.theta, resim, True):
            return
        adamw_step(state, grad, cfg)


def _normal_equations(ws, theta):
    """(loss, J^T Gamma J, J^T Gamma r) of the workspace at theta, with J the
    price Jacobian and r the residuals; the loss is `workspace_loss`'s, bit
    for bit."""
    total = 0.0
    a = np.zeros((len(theta), len(theta)))
    b = np.zeros(len(theta))
    for g in ws.groups:
        prices, jac = _group_jacobian(g, theta)
        resid = g.targets - prices
        total += float(g.gweights @ resid**2)
        a += np.einsum("ki,k,kj->ij", jac, g.gweights, jac)
        b += np.einsum("ki,k->i", jac, g.gweights * resid)
    return total, a, b


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
        trial_loss = workspace_loss(ws, trial)
        go = log.record(trial_loss, trial, False, False)
        trial_objective = trial_loss + mu * float(trial @ trial)
        if trial_objective < objective:
            theta, objective, lam = trial, trial_objective, lam / 3.0
            accepted += 1
            if accepted == _GN_STEPS or not go:
                break
            loss_val, a, b = _normal_equations(ws, theta)
            go = log.record(loss_val, theta, False, False)
        else:
            lam *= 4.0
        if not go:
            break
    return theta, accepted > 0, go


def _gauss_newton(workspace, theta, cfg, log):
    """Damped Gauss-Newton on the ridge objective.  Each workspace's first
    pass prices theta on streams it was not fitted to and is the only
    candidate pass; a theta that moved after its last such pass is priced on
    one more workspace."""
    mu = _GN_RIDGE * cfg.weight_decay
    moved = False
    for r in range(-(-cfg.max_iterations // cfg.resim_every)):
        ws = None  # release the old feature blocks before resampling
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


def calibrate(model0, quotes, cfg, schedule, driver=None):
    """Fit the coefficients to the quote surface; returns (model*, history).

    `cfg.optimizer` picks damped Gauss-Newton (default) or AdamW (see the
    module docstring).  Both draw ceil(max_iterations / resim_every)
    workspaces, tagged (r,), at the current coefficients, and write one
    history row per pass over a workspace.  A fit stops after max_iterations
    rows, after the last workspace, or by patience (no improvement beyond
    cfg.tol, absolute, within cfg.patience rows); Gauss-Newton then prices
    coefficients that moved since their last candidate pass on workspace
    (r + 1,).  On error the partial history is attached to the exception as
    `.history`.

    The starting spread must reach the quoted strikes: when every mapped
    strike K S_0 / F sits several init-std spreads away from S_0 (no
    near-the-money quote, or nonzero rates with a tiny init_std), the payoff
    indicators are constant at the starting point and the price gradients
    vanish identically (features are centered), so neither optimizer can fit
    the surface.  A gradient or Jacobian that is exactly zero at iteration 0
    while the loss is not raises a RuntimeWarning naming this cause.  So do
    AdamW settings away from their defaults under Gauss-Newton, which does
    not read them.
    """
    unused = [k for k in _ADAMW_KEYS if cfg.optimizer == "gauss_newton"
              and getattr(cfg, k) != getattr(CalibrationConfig, k)]
    if unused:
        warnings.warn(f"{unused} set, but only optimizer 'adamw' uses them",
                      RuntimeWarning)
    if cfg.max_iterations == 0:
        return model0, []
    if driver is None:
        driver = BrownianDriver(cfg.seed)
    weights = vega_weights(quotes)
    work = ChaosModel(1.0, model0.p, model0.m, model0.d, model0.basis,
                      model0.coefficients / model0.s0)
    nodes = {}  # quadrature nodes, built at the first resimulation only

    def workspace(r, theta):
        return build_workspace(work.with_coefficients(theta), quotes, weights,
                               schedule, driver, tags=(r,), nodes=nodes)

    fit = _gauss_newton if cfg.optimizer == "gauss_newton" else _adamw
    log = _FitLog(cfg)
    try:
        fit(workspace, work.coefficients, cfg, log)
    except Exception as exc:
        exc.history = log.history
        raise
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
