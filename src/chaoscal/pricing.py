"""European call pricing under the chaos model.

Two engines:

* Monte Carlo on an offline feature block, optionally with one or two
  control variates, both zero-mean by construction:
      X_1 = S_T - S_0,          beta = Cov(Y, X_1) / Var(X_1),
      X_2 = S_T^2 - E[S_T^2]    (closed-form second moment),
  with (beta_1, beta_2) = Sigma_X^{-1} Sigma_YX in the two-variate case; the
  betas are estimated on an independent sample and treated as constants, so
  the CV estimator stays unbiased and the calibration gradient is exact;

* Gauss-Hermite tensor quadrature for maturities in an early cell: with T in
  cell u only u*d Gaussian coordinates enter S_T, so the price is a
  u*d-dimensional integral of (S_0 + g_theta(z) - K)_+ against the standard
  normal density, done with the probabilists' rule (weights sum to 1).

Prices, CV betas and calibration gradients are deterministic functions of
(seed, tags), bit for bit across BLAS thread counts and a fit's worker
count.  OpenBLAS splits the reduction axis of a matrix-vector or dot
product across threads, so its last bits depend on the thread count.  A
reduction over paths or nodes therefore runs either in numpy's own
single-threaded loops:

* pairwise `(a * w).sum()` for the control variates and the CV variance;
  the control variates are summed centred, as w.(S - S_0) and
  w.((S - S_0)(S + S_0)) - (E[S^2] - S_0^2), so that no sum of O(S_0) terms
  cancels to O(spread) and the loss stays smooth enough for the
  finite-difference gradient check;
* `np.einsum` without `optimize` for the prices (sums of nonnegative terms,
  which need no pairwise order), the CV moments and a fit's Monte Carlo
  terminal values `features @ theta` (`_terminal`);
* elementwise sums per path for drawn terminal values, which reach S_T
  through the feature plan (`model._sample_terminal`) and build no feature
  row;

or on BLAS, but only over row blocks that start at multiples of 1024 rows,
whose products keep their 1-thread bits (the `model` module docstring says
why): the quadrature nodes' terminal values in blocks of at most 16384 rows
(`model._row_dot`), and the price Jacobian of `_group_jacobian`, from which
every loss gradient is assembled, in blocks of 1024 added in block order.
Feature matrices are column-major, so that `conditional._plan_rows` writes
each column contiguously.  Acceptance criterion c13,
`tests/test_pricing.py::test_thread_count_does_not_change_bits` and
`test_thread_count_does_not_change_jacobian_bits` enforce this.

A fit runs each Monte Carlo maturity's draws and pricing as tasks on a pool
of worker threads (`calibrate`), and no task may call a threaded BLAS
routine: OpenBLAS's own threads spin after each threaded call, so a task
that wakes them takes back the core the pool gave it (a fit ran no faster
on 2 BLAS threads than on 1, at twice the CPU time).  So tasks form S_T by
einsum or `_collapse`, and quadrature groups, which draw nothing, keep
`_row_dot` on the calling thread.  The Jacobian's 1024-row products stay on
BLAS: at 5 strikes and at most 44 columns a block OpenBLAS runs them on the
calling thread, but a maturity with many more strikes may wake its threads
again.

Outside calibration no MC feature matrix is held whole: the draws of a
maturity, and of its CV sample, are reduced to S_T block by block, so
memory grows with the path count only through S_T and the payoff matrix.
Calibration holds each MC maturity's live feature columns (`_Group`).
Every rule a surface must pass before a draw (horizon, method against
basis, byte cap) is stated once, in `_check_surface`, which
`_maturity_groups` runs before its first draw; its byte count composes the
kernels' counts (`model._terminal_shapes`, `_pass_bytes`), not a formula of
its own.
"""

import warnings
from dataclasses import dataclass
from functools import partial

import numpy as np
from numpy.polynomial.hermite_e import hermegauss

from .bases import PiecewiseConstantBasis, _bytes, _run, _threads, cell_index
from .conditional import _plan_rows, _plan_rows_bytes
from .errors import ConfigError, NumericError, ValidationError
from .indices import index_space_dim
from .model import (
    _PLANS,
    MAX_BYTES,
    _ROW_ALIGN,
    _block_rows,
    _check_held,
    _feature_plan,
    _index_bytes,
    _live_columns,
    _row_dot,
    _sample_terminal,
    _spans,
    _terminal_shapes,
    sample_features,
    second_moment,
    second_moment_coeffs,
    terminal_values,
)

_SAME_MATURITY = 1e-9  # schedule maturities closer than this are one maturity


@dataclass(frozen=True)
class PricingMethod:
    kind: str  # "mc" | "quad"
    n_paths: int = 100_000
    cv_degree: int = 2
    beta_samples: int = 10_000
    n_nodes: int = 40

    def __post_init__(self):
        if self.kind not in ("mc", "quad"):
            raise ValidationError(f"unknown pricing method {self.kind!r}")
        for key in ("n_paths", "cv_degree", "beta_samples", "n_nodes"):
            value = getattr(self, key)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValidationError(f"key {key!r} must be an integer, got {value!r}")
        if self.cv_degree not in (0, 1, 2):
            raise ValidationError("cv_degree must be 0, 1, or 2")
        if self.beta_samples < 2:  # the CV covariance has ddof 1
            raise ValidationError(f"key 'beta_samples' must be at least 2, "
                                  f"got {self.beta_samples}")
        if self.n_paths < 1:
            raise ValidationError(f"key 'n_paths' must be at least 1, got {self.n_paths}")
        if not 1 <= self.n_nodes <= 128:
            raise ValidationError(f"key 'n_nodes' must lie in [1, 128], got {self.n_nodes}")


@dataclass(frozen=True)
class PricingSchedule:
    """Per-maturity engine choice with a default fallback; no two entries may
    name one maturity."""

    default: PricingMethod = PricingMethod("mc")
    entries: tuple = ()  # ((maturity, PricingMethod), ...)

    def __post_init__(self):
        for i, (t, _) in enumerate(self.entries):
            if not t > 0:
                raise ValidationError(f"entry {i}: maturity must be positive, got {t}")
            for j, (prior, _) in enumerate(self.entries[:i]):
                if abs(prior - t) < _SAME_MATURITY:
                    raise ValidationError(
                        f"entries {j} and {i} both name maturity {t}")

    def for_maturity(self, t):
        for mat, method in self.entries:
            if abs(mat - t) < _SAME_MATURITY:
                return method
        return self.default


@dataclass(frozen=True)
class CvState:
    degree: int
    beta: np.ndarray
    r_squared: float


def gauss_hermite_rule(n):
    """Nodes/weights with sum w_m p(z_m) = E[p(Z)], Z ~ N(0,1); weights sum 1."""
    if not 1 <= n <= 128:
        raise ValidationError(f"node count {n} outside [1, 128]")
    z, w = hermegauss(n)
    return z, w / np.sqrt(2.0 * np.pi)


def _quad_node_bytes(n, dims, width, n_indices, p):
    """Peak bytes `quad_nodes_features` holds over its n^dims rows: the
    weights, a column for the small arrays, the nodes in the M*d layout
    (width), the features (n_indices), and the `_plan_rows` temporaries."""
    return 8 * n**dims * (2 + width + n_indices) + _plan_rows_bytes(p, dims, n**dims)


def _pass_bytes(n_rows, n_cols):
    """Bytes a pricing pass holds over n_rows samples: S_T, 5 temporaries
    and n_cols rows: a payoff per strike, or a CV sample's two variates."""
    return 8 * n_rows * (n_cols + 6)


def _quad_dims(basis, t, d):
    """u*d, the Gaussian coordinates a quadrature maturity t integrates over."""
    if not isinstance(basis, PiecewiseConstantBasis):
        raise ConfigError("quadrature pricing needs the piecewise-constant basis")
    return cell_index(basis, t) * d


def quad_nodes_features(model, t, n):
    """Tensor-product quadrature nodes embedded as feature rows.

    Returns (weights, features) with features shaped (n^(u*d), n_indices);
    reusable across strikes and calibration iterations since nodes do not
    depend on the coefficients.  A build that would allocate more than
    MAX_BYTES raises ConfigError before allocating.
    """
    dims = _quad_dims(model.basis, t, model.d)
    need = _quad_node_bytes(n, dims, model.m * model.d, len(model.indices), model.p)
    if need > MAX_BYTES:
        raise ConfigError(
            f"quadrature with n_nodes = {n} at u*d = {dims} would allocate "
            f"{need} bytes, above the {MAX_BYTES}-byte cap"
        )
    z, w = gauss_hermite_rule(n)
    # Row r is the node whose coordinate on axis a has index r // n^(dims-1-a)
    # % n (the first axis slowest): each axis is broadcast straight into its
    # column of the M*d layout (cells 1..u per component), and the weights
    # are the product over the axes in axis order.
    grid = (n,) * dims
    weights = np.ones(grid)
    zfull = np.zeros(grid + (model.m * model.d,))
    for a in range(dims):
        axis = (1,) * a + (n,) + (1,) * (dims - 1 - a)
        j, i = divmod(a, dims // model.d)  # axis a is cell i + 1 of component j
        zfull[..., j * model.m + i] = z.reshape(axis)
        weights *= w.reshape(axis)
    feats = _plan_rows(_feature_plan(model, t), zfull.reshape(n**dims, -1),
                       normalized=True)
    return weights.ravel(), feats


def _check_horizon(maturities, horizon):
    """Raise ValidationError listing every maturity past `horizon`.  The rule
    has no slack: every maturity it passes can be drawn."""
    bad = sorted({t for t in maturities if t > horizon})
    if bad:
        raise ValidationError(f"maturities {bad} beyond horizon {horizon}")


def _fit_workers(quotes, schedule):
    """Threads of a fit's pool (`bases._threads`): one a task of a
    workspace build, each Monte Carlo maturity's feature draw and CV draw,
    at most one a CPU."""
    methods = [schedule.for_maturity(t) for t in {q.maturity for q in quotes.quotes}]
    return _threads(sum(1 + (m.cv_degree > 0) for m in methods if m.kind == "mc"))


def _check_surface(p, m, d, basis, quotes, schedule, schedule_name, features):
    """Raise ValidationError unless a model of shape (p, m, d, basis) can
    price the quotes: each maturity within the horizon (`_check_horizon`);
    quadrature or a degree-2 CV only on the piecewise-constant basis, whose
    closed forms they need; and at most MAX_BYTES held, composed of the
    kernels' counts.  Held to the end: each maturity's quadrature nodes or,
    for a fit, its live feature columns, weights, kept S_T and CV S_T; a
    fit's 8 n x n matrices; the index layer with a plan per maturity.  For
    the largest maturity: its draws (`model._terminal_shapes`, and a fit's
    `_plan_rows` temporaries) and passes (`_pass_bytes`), once a worker of
    a fit's pool (`_fit_workers`); and the S_T and CV draw (3 arrays) left
    by another."""
    mats = sorted({q.maturity for q in quotes.quotes})
    _check_horizon(mats, basis.horizon)
    n = index_space_dim(p, m, d) - 1  # counted, never enumerated
    piecewise = isinstance(basis, PiecewiseConstantBasis)
    need = {}  # (sizes, maturity) -> (held to the end, freed after it, left alive)
    for t in mats:
        method = schedule.for_maturity(t)
        if (method.kind == "quad" or method.cv_degree == 2) and not piecewise:
            key = "'kind' = 'quad'" if method.kind == "quad" else "'cv_degree' = 2"
            raise ValidationError(
                f"key {key} ({schedule_name}, maturity {t}) needs the "
                f"piecewise-constant basis, not {type(basis).__name__}")
        if method.kind == "quad":
            dims = _quad_dims(basis, t, d)
            rows, sizes = method.n_nodes**dims, f"n_nodes = {method.n_nodes}"
            held, freed, alive = _quad_node_bytes(method.n_nodes, dims, m * d, n, p), 0, 0
        else:
            rows = method.n_paths
            sizes = f"n_paths = {rows}, beta_samples = {method.beta_samples}"
            cv = method.beta_samples if method.cv_degree else 0
            live = index_space_dim(p, cell_index(basis, t), d) - 1 if piecewise else n
            held = 8 * (rows * (live + 2) + cv) if features else 0
            freed = _bytes(_terminal_shapes(p, m, d, basis, max(rows, cv))) + _pass_bytes(cv, 2)
            if features:
                freed += _plan_rows_bytes(p, m * d, min(rows, _block_rows(p, m, d)))
            alive = 8 * (rows + 3 * cv)
        strikes = sum(q.maturity == t for q in quotes.quotes)
        need[sizes, t] = held, freed + _pass_bytes(rows, strikes), alive
    held, freed, alive = zip(*need.values(), (0, 0, 0))  # a surface may be empty
    workers = max(1, _fit_workers(quotes, schedule)) if features else 1
    total = (sum(held) + workers * max(freed) + max(alive)
             + (64 * n * n if features else 0)
             + _index_bytes(p, m, d, min(len(need), _PLANS)))
    if total > MAX_BYTES:
        sizes, t = max(need, key=lambda key: sum(need[key]))
        raise ValidationError(
            f"{n} coefficients at {sizes} ({schedule_name}, maturity {t}) need "
            f"{total} bytes, above the {MAX_BYTES}-byte cap")


def quad_call_price(model, t, k, n):
    """Gauss-Hermite tensor price of (S_0 + g_theta(z) - K)_+."""
    weights, feats = quad_nodes_features(model, t, n)
    s = model.s0 + _row_dot(feats, model.coefficients)
    return float(np.einsum("i,i->", weights, np.maximum(s - k, 0.0)))


def _cv_draw(model, t, degree, driver, beta_samples, tags):
    """The independent CV sample at maturity t, shared by all its strikes:
    `_cv_stats` of its S_T."""
    if degree not in (1, 2):
        raise ValidationError("cv degree must be 1 or 2 when estimating")
    return _cv_stats(model, t, degree,
                     _sample_terminal(model, t, beta_samples, driver, tags=tags))


def _cv_stats(model, t, degree, s):
    """(s, xc, sigma_x, singular) of the CV sample s, the S_T drawn at
    maturity t: s, the centered control variates, their covariance, and
    whether Sigma_X is too degenerate to solve (e.g. theta = 0), in which
    case a warning is issued.  A covariance that is not finite (terminal
    values so large that their squares' sums overflow) raises NumericError
    naming the maturity.  It runs on the calling thread, warnings and all.
    """
    xs = [s - model.s0]
    if degree == 2:
        xs.append(s**2 - second_moment(model, t))
    x = np.stack(xs, axis=1)
    xc = x - x.mean(axis=0)
    sigma_x = np.einsum("ij,ik->jk", xc, xc) / (len(s) - 1)
    if not np.all(np.isfinite(sigma_x)):
        raise NumericError(
            f"control-variate covariance at maturity {t} is not finite: the "
            f"terminal values reach {float(np.max(np.abs(s))):.3g}")
    # scale-free singularity test on the correlation structure
    dg = np.sqrt(np.diag(sigma_x))
    bad = (dg < 1e-12 * max(1.0, model.s0)).any()
    if not bad:
        corr = sigma_x / np.outer(dg, dg)
        bad = np.linalg.cond(corr) > 1e10
    if bad:
        warnings.warn(
            "control-variate covariance is singular; degrading to degree 0",
            RuntimeWarning,
        )
    return s, xc, sigma_x, bad


def _cv_solve(draw, k):
    """CvState for strike k on a `_cv_draw` sample."""
    s, xc, sigma_x, bad = draw
    if bad:
        return CvState(0, np.zeros(0), 0.0)
    y = np.maximum(s - k, 0.0)
    yc = y - y.mean()
    sigma_yx = np.einsum("ij,i->j", xc, yc) / (len(y) - 1)
    beta = np.linalg.solve(sigma_x, sigma_yx)
    var_y = float((yc * yc).sum() / (len(y) - 1))
    r2 = float(sigma_yx @ beta / var_y) if var_y > 0 else 0.0
    return CvState(xc.shape[1], beta, r2)


def _cv_bytes(model, n):
    """Bytes a CV draw of n paths holds: `model._terminal_shapes`, its
    statistics (`_pass_bytes`) and the index layer with one plan."""
    p, m, d = model.p, model.m, model.d
    return (_bytes(_terminal_shapes(p, m, d, model.basis, n)) + _pass_bytes(n, 2)
            + _index_bytes(p, m, d, 1))


def estimate_cv(model, block, k, degree, driver, beta_samples=10_000, tags=()):
    """Estimate control-variate coefficients on an independent sample.

    Degenerate Sigma_X (e.g. theta = 0) degrades to degree 0 with a warning.
    What the draw holds (`_cv_bytes`) is checked against `model.MAX_BYTES`
    first, after beta_samples, which the covariance's ddof of 1 needs at 2.
    """
    if beta_samples < 2:
        raise ValidationError(f"beta_samples must be at least 2, got {beta_samples}")
    _check_held(_cv_bytes(model, beta_samples), 1, beta_samples)
    draw = _cv_draw(model, block.maturity, degree, driver, beta_samples, tags)
    return _cv_solve(draw, k)


def mc_call_price(model, block, k, cv=None):
    """MC estimate of the call price with optional CV adjustment.

    Returns (price, standard error).
    """
    s = terminal_values(model, block)
    y = np.maximum(s - k, 0.0)
    if cv is not None and cv.degree >= 1:
        y = y - cv.beta[0] * (s - model.s0)
        if cv.degree == 2:
            y = y - cv.beta[1] * (s**2 - second_moment(model, block.maturity))
    if y.size < 2:
        raise ValidationError("a standard error needs at least 2 samples")
    price = float(y.mean())
    se = float(y.std(ddof=1) / np.sqrt(y.size))
    return price, se


@dataclass(frozen=True)
class _Group:
    """One maturity's frozen pricing inputs, built by `_maturity_groups`.

    A group that carries features prices theta through the columns `live`
    of theta: S_T = S_0 + features @ theta[live] (`_terminal`).  Quadrature
    features hold every column; a calibration MC group holds only the
    columns alive at its maturity (`model._live_columns`), since the others
    are exact zeros.
    """

    kind: str  # the method's kind: "mc" | "quad"
    maturity: float
    s0: float
    rows: np.ndarray  # quote positions
    strikes: np.ndarray  # model-world strikes K S_0 / F
    scale: np.ndarray  # model-to-market price factor DF F / S_0
    weights: np.ndarray  # sample weights (uniform for MC, GH for quadrature)
    features: np.ndarray = None  # (n_samples, len(live)); None for MC evaluation
    live: np.ndarray = None  # the coefficients the feature columns belong to
    terminal: np.ndarray = None  # MC evaluation: S_T at the model's coefficients
    beta1: np.ndarray = None  # per-strike CV coefficients, zeros if degraded
    beta2: np.ndarray = None
    m2c: np.ndarray = None  # second-moment coefficient vector, if degree 2
    targets: np.ndarray = None  # calibration: model-world targets C S_0 / (DF F)
    gweights: np.ndarray = None  # calibration: weights gamma (DF F / S_0)^2


def _maturity_groups(model, quotes, schedule, driver, prefix, cache=None,
                     features=False, pool=None):
    """Yield one `_Group` per quoted maturity, in ascending maturity order.

    The surface passes `_check_surface` before the first draw.  Strikes map
    to the zero-rate world as K S_0 / F; model prices map back to market
    units by DF F / S_0.  CV betas are estimated at the model's coefficients
    for every strike from one beta block per maturity.  An MC group carries
    its live feature columns only if `features` (calibration, whose price
    Jacobian needs them); otherwise it carries S_T at the model's
    coefficients, sampled one block of draws at a time, one maturity after
    another.  With `features` every draw is made first (`_fit_draws`), on
    `pool` (see `bases._run`); the CV statistics, betas and warnings follow
    on this thread, in maturity order.

    `cache`, a dict keyed by (maturity, PricingMethod), carries arrays
    across builds for models of one structure: quadrature nodes, which
    depend on neither the coefficients nor the streams, and the live
    feature columns, which each build redraws in place, so only the latest
    group on a matrix holds valid features.

    Stream tags: the maturity at sorted position mi draws its feature block
    under prefix + (mi, 0) and its CV beta block under prefix + (mi, 1);
    quadrature maturities draw nothing.  Evaluation (`price_surface`) passes
    prefix (stream_tag,), giving 3-tuples (stream_tag, mi, 0|1).  Calibration
    (`calibrate.build_workspace`) passes (resim, 3233), giving 4-tuples
    (resim, 3233, mi, 0|1), so the two never share a stream.
    """
    _check_surface(model.p, model.m, model.d, model.basis, quotes, schedule,
                   "schedule", features)
    qs = quotes.quotes
    mats = sorted({q.maturity for q in qs})
    cache = {} if cache is None else cache
    drawn = {}
    if features:
        drawn = _fit_draws(model, mats, schedule, driver, prefix, cache, pool)
    for mi, t in enumerate(mats):
        rows = np.array([i for i, q in enumerate(qs) if q.maturity == t])
        scale = np.array([qs[i].discount_factor * qs[i].forward / model.s0 for i in rows])
        strikes = np.array([qs[i].strike * model.s0 / qs[i].forward for i in rows])
        method = schedule.for_maturity(t)
        key = (t, method)
        if method.kind == "quad":
            if key not in cache:
                cache[key] = quad_nodes_features(model, t, method.n_nodes)
            yield _Group("quad", t, model.s0, rows, strikes, scale, *cache[key],
                         np.arange(len(model.coefficients)))
            continue
        feats = live = terminal = None
        if features:
            feats, cv_s = drawn.pop(mi)
            live = _live_columns(model, t)
        else:
            terminal = _sample_terminal(model, t, method.n_paths, driver,
                                        tags=prefix + (mi, 0))
        w = np.full(method.n_paths, 1.0 / method.n_paths)
        b1 = b2 = m2c = None
        if method.cv_degree >= 1:
            draw = (_cv_stats(model, t, method.cv_degree, cv_s) if features else
                    _cv_draw(model, t, method.cv_degree, driver, method.beta_samples,
                             prefix + (mi, 1)))
            betas = np.zeros((2, len(rows)))  # zeros where degraded
            for j, k in enumerate(strikes):
                cv = _cv_solve(draw, k)
                betas[:cv.degree, j] = cv.beta
            b1, b2 = betas
            if method.cv_degree == 2:
                m2c = second_moment_coeffs(model, t)
        yield _Group("mc", t, model.s0, rows, strikes, scale, w, feats, live, terminal,
                     b1, b2, m2c)


def _fit_draws(model, mats, schedule, driver, prefix, cache, pool):
    """{position: (features, CV S_T or None)} of every Monte Carlo maturity
    among `mats`, drawn on the tags of `_maturity_groups`: its live feature
    columns into its matrix in `cache` (allocated at the first build) and
    its CV sample's S_T into a new array, each draw one task on `pool`, a
    thread pool or None for one of this call's (`bases._run`), the longest
    first.  Every array a task writes is allocated here, on the calling
    thread: what a worker thread allocates stays in its own heap."""
    out, tasks, costs = {}, [], []
    for mi, t in enumerate(mats):
        method = schedule.for_maturity(t)
        if method.kind != "mc":
            continue
        width = len(_live_columns(model, t))
        key = (t, method)
        if key not in cache:
            cache[key] = np.empty((method.n_paths, width), order="F")
        tasks.append(partial(sample_features, model, t, method.n_paths, driver,
                             tags=prefix + (mi, 0), live=True, out=cache[key]))
        costs.append(method.n_paths * width)
        cv_s = None
        if method.cv_degree >= 1:
            cv_s = np.empty(method.beta_samples)
            tasks.append(partial(_sample_terminal, model, t, method.beta_samples, driver,
                                 tags=prefix + (mi, 1), out=cv_s))
            costs.append(method.beta_samples * width)
        out[mi] = cache[key], cv_s
    _run(tasks, pool or _threads(len(tasks)), costs)
    return out


def _terminal(g, theta):
    """S_T = S_0 + features @ theta[live] of a group that carries features.
    A Monte Carlo group's product runs in numpy's single-threaded einsum,
    since a fit prices it in a task, where no threaded BLAS may run; a
    quadrature group's in `_row_dot`'s blocks, on the calling thread."""
    if g.kind == "mc":
        return g.s0 + np.einsum("ij,j->i", g.features, theta[g.live])
    return g.s0 + _row_dot(g.features, theta[g.live])


def _group_prices(g, theta, s=None):
    """(s, pay, prices): terminal samples, per-strike payoffs and model-world
    CV-adjusted call prices of group g at coefficients theta (a group that
    carries S_T was sampled at them).  `s`, if given, is this function's s
    of an earlier call at the same theta, which it then does not recompute.

    The control-variate sums come before the payoff matrix, so their
    path-length temporaries are gone before it is allocated."""
    if s is None:
        s = g.terminal if g.features is None else _terminal(g, theta)
    cv = []  # per control variate: beta times its sample mean
    if g.beta1 is not None:
        # centred: w.s - S_0 would cancel two O(S_0) numbers to O(spread)
        ds = s - g.s0
        cv.append(g.beta1 * float((g.weights * ds).sum()))
        if g.m2c is not None:
            cv.append(g.beta2 * (float((g.weights * (ds * (s + g.s0))).sum())
                                 - float(g.m2c @ theta**2)))
        del ds
    pay = s - g.strikes[:, None]
    np.maximum(pay, 0.0, out=pay)
    prices = np.einsum("ij,j->i", pay, g.weights)
    for term in cv:
        prices = prices - term
    return s, pay, prices


def _group_jacobian(g, theta, s=None):
    """(prices, jac): `_group_prices`' prices of a calibration group and
    their gradients in theta with the CV betas frozen, one row per strike:

        J_k = sum_p w_p (1{s_p > K_k} - beta1_k - 2 beta2_k s_p) f_p
              + 2 beta2_k (m2c * theta).

    `s` is passed on to `_group_prices`.  The bracketed weights form a
    strikes x paths matrix V, built in place in the payoff matrix.  The sum
    over the paths is one BLAS product V_b F_b per block of
    `model._ROW_ALIGN` rows, added in block order, so its bits do not depend
    on the BLAS thread count (`_row_dot`'s 16384-row blocks kept them too,
    but took twice as long on 5 strikes at 2 threads).  It runs over the
    group's `live` columns and is scattered into them; the columns a
    calibration group drops are annihilated at its maturity, and their
    entries of J stay exact zeros.
    """
    s, v, prices = _group_prices(g, theta, s)
    np.greater(v, 0.0, out=v)  # 1{s > K}, in place of the payoffs
    if g.beta1 is not None:
        v -= g.beta1[:, None]
        if g.m2c is not None:
            v -= 2.0 * g.beta2[:, None] * s
    v *= g.weights
    sums = np.zeros((len(g.strikes), g.features.shape[1]))
    for a, b in _spans(len(s), _ROW_ALIGN):
        sums += v[:, a:b] @ g.features[a:b]
    jac = np.zeros((len(g.strikes), len(theta)))
    jac[:, g.live] = sums
    if g.m2c is not None:
        jac += 2.0 * g.beta2[:, None] * (g.m2c * theta)
    return prices, jac


def price_surface(model, quotes, schedule, driver, stream_tag=0):
    """Price every quote with the scheduled engine per maturity.

    Quotes are converted to the model's zero-rate world through their
    (discount factor, forward): strike K~ = K S_0 / F prices to C~, and the
    market price is C = C~ DF F / S_0.  One draw of S_T (and one independent
    CV draw) per MC maturity, each reduced from its draws block by block, is
    shared across its strikes; the maturities are priced one after another.
    Returns a price array aligned with quotes.
    """
    out = np.empty(len(quotes.quotes))
    for g in _maturity_groups(model, quotes, schedule, driver, (stream_tag,)):
        out[g.rows] = _group_prices(g, model.coefficients)[2] * g.scale
    return out
