"""Vega-weighted surface calibration with AdamW and stream resimulation.

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
coefficients divided by S_0).  Decoupled weight decay
contracts theta by lr * lambda * theta per step while the bias-corrected Adam
step moves each coordinate by at most about lr, so the representable
coefficient scale is capped near 1/lambda.  At S_0 = 100 a 20%-vol surface
needs coefficients an order of magnitude above that cap; in normalized units
they are O(0.1) and the default lambda = 1 acts as a mild shrinkage.

Feature matrices are sampled once per resimulation event and reused across
iterations; streams are redrawn (and CV betas re-estimated on independent
samples) every `resim_every` iterations.  Optimization streams carry a
constant tag (layout in `pricing._maturity_groups`), so metrics computed
through `price_surface` come from streams the optimizer never saw.
"""

import time
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .bases import BrownianDriver
from .errors import OptimizerError, ValidationError, WeightingError
from .model import ChaosModel
from .pricing import _group_prices, _maturity_groups
from .quotes import quote_rates
from .vol import bs_call, bs_vega

# Stream tag after the resimulation count in optimization draws; the tag
# layout is documented in `pricing._maturity_groups`.
_CAL_TAG = 3233


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

    def __post_init__(self):
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
    best_theta: np.ndarray = None
    best_loss: float = np.inf
    best_iteration: int = -1

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
        b2u = 0.0
        resid = g.targets - prices
        total += float(g.gweights @ resid**2)
        if not with_gradient:
            continue
        u = -2.0 * g.gweights * resid
        coef = (pay > 0.0).T.astype(float) @ u
        if g.beta1 is not None:
            coef -= float(u @ g.beta1)
            if g.m2c is not None:
                b2u = float(u @ g.beta2)
                coef -= 2.0 * b2u * s
        v = g.weights * coef
        for cols in g.live:
            grad[cols] += np.einsum("ij,i->j", g.features[:, cols], v)
        if g.m2c is not None:
            grad += 2.0 * b2u * (g.m2c * theta)
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


def calibrate(model0, quotes, cfg, schedule, driver=None):
    """Fit the coefficients to the quote surface; returns (model*, history).

    The loop is price -> loss -> gradient -> AdamW step, with streams redrawn
    and CV betas re-estimated every `cfg.resim_every` iterations.  The
    returned model carries the best-by-loss coefficients; stopping is by
    patience (no improvement beyond cfg.tol, absolute, within cfg.patience
    iterations) or max_iterations.  On error the partial history is attached
    to the exception as `.history`.

    The starting spread must reach the quoted strikes: when every mapped
    strike K S_0 / F sits several init-std spreads away from S_0 (no
    near-the-money quote, or nonzero rates with a tiny init_std), the payoff
    indicators are constant at the starting point, the gradient vanishes
    identically (features are centered), and AdamW takes no step at all.
    A gradient that is exactly zero at iteration 0 while the loss is not
    raises a RuntimeWarning naming this cause.
    """
    if cfg.max_iterations == 0:
        return model0, []
    if driver is None:
        driver = BrownianDriver(cfg.seed)
    weights = vega_weights(quotes)

    work = ChaosModel(1.0, model0.p, model0.m, model0.d, model0.basis,
                      model0.coefficients / model0.s0)
    state = OptimizerState.fresh(work.coefficients)
    history = []
    start = time.perf_counter()
    ws = None
    nodes = {}  # quadrature nodes, built at the first resimulation only
    anchor_loss = np.inf
    anchor_it = 0
    try:
        for it in range(cfg.max_iterations):
            resim = it % cfg.resim_every == 0
            if resim:
                ws = None  # release the old feature blocks before resampling
                ws = build_workspace(
                    work.with_coefficients(state.theta), quotes, weights,
                    schedule, driver, tags=(it // cfg.resim_every,), nodes=nodes,
                )
            loss_val, grad = workspace_loss(ws, state.theta, with_gradient=True)
            if not np.isfinite(loss_val):
                raise OptimizerError(f"non-finite loss at iteration {it}")
            if it == 0 and loss_val > 0.0 and not grad.any():
                warnings.warn(
                    "gradient is exactly zero at iteration 0: every mapped strike "
                    "lies outside the starting spread of S_T (init_std = "
                    f"{cfg.init_std}), so no payoff indicator changes and the fit "
                    "cannot move",
                    RuntimeWarning,
                )
            if loss_val < state.best_loss:
                state.best_loss = loss_val
                state.best_theta = state.theta.copy()
                state.best_iteration = it
            history.append(
                HistoryRow(it, loss_val, state.best_loss,
                           time.perf_counter() - start, resim)
            )
            if loss_val < anchor_loss - cfg.tol:
                anchor_loss = loss_val
                anchor_it = it
            elif it - anchor_it >= cfg.patience:
                break
            adamw_step(state, grad, cfg)
    except Exception as exc:
        exc.history = history
        raise
    best = model0.with_coefficients(state.best_theta * model0.s0)
    return best, history
