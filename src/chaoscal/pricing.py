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
(seed, stream, tag), bit for bit across BLAS thread counts.  OpenBLAS splits
the reduction axis of a matrix-vector or dot product across threads, so its
last bits depend on the thread count.  Every reduction over paths or nodes
therefore runs in numpy's own single-threaded loops:

* pairwise `(a * w).sum()` for the control variates and the CV variance;
  the control variates are summed centred, as w.(S - S_0) and
  w.((S - S_0)(S + S_0)) - (E[S^2] - S_0^2), so that no sum of O(S_0) terms
  cancels to O(spread) and the loss stays smooth enough for the
  finite-difference gradient check;
* `np.einsum` without `optimize` for the prices (sums of nonnegative terms,
  which need no pairwise order), the CV moments and the feature gradient
  in `calibrate.workspace_loss`.

The terminal values `features @ theta` stay on BLAS: there the split runs
over the output rows and each row's short dot product is computed whole, so
the bits do not move.  Feature matrices are column-major, which keeps the
einsum gradient a contiguous pass per column.  Acceptance criterion c13 and
`tests/test_pricing.py::test_thread_count_does_not_change_bits` enforce this.
"""

import warnings
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.hermite_e import hermegauss

from .bases import PiecewiseConstantBasis, cell_index
from .conditional import piecewise_features
from .errors import ConfigError, ValidationError
from .model import sample_features, second_moment, second_moment_coeffs, terminal_values

QUAD_DIM_CAP = 4


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
        if self.cv_degree not in (0, 1, 2):
            raise ValidationError("cv_degree must be 0, 1, or 2")
        if self.n_paths < 1 or self.beta_samples < 1 or not 1 <= self.n_nodes <= 128:
            raise ValidationError("invalid pricing-method sizes")


@dataclass(frozen=True)
class PricingSchedule:
    """Per-maturity engine choice with a default fallback."""

    default: PricingMethod = PricingMethod("mc")
    entries: tuple = ()  # ((maturity, PricingMethod), ...)

    def for_maturity(self, t):
        for mat, method in self.entries:
            if abs(mat - t) < 1e-9:
                return method
        return self.default


@dataclass(frozen=True)
class CvState:
    degree: int
    beta: np.ndarray
    sigma_x: np.ndarray
    sigma_yx: np.ndarray
    r_squared: float
    stream_tag: tuple


def gauss_hermite_rule(n):
    """Nodes/weights with sum w_m p(z_m) = E[p(Z)], Z ~ N(0,1); weights sum 1."""
    if not 1 <= n <= 128:
        raise ValidationError(f"node count {n} outside [1, 128]")
    z, w = hermegauss(n)
    return z, w / np.sqrt(2.0 * np.pi)


def quad_nodes_features(model, t, n):
    """Tensor-product quadrature nodes embedded as feature rows.

    Returns (weights, features) with features shaped (n^(u*d), n_indices);
    reusable across strikes and calibration iterations since nodes do not
    depend on the coefficients.
    """
    if not isinstance(model.basis, PiecewiseConstantBasis):
        raise ConfigError("quadrature pricing needs the piecewise-constant basis")
    u = cell_index(model.basis, t)
    dims = u * model.d
    if dims > QUAD_DIM_CAP:
        raise ConfigError(
            f"active dimension u*d = {dims} exceeds quadrature cap {QUAD_DIM_CAP}"
        )
    z, w = gauss_hermite_rule(n)
    grids = np.meshgrid(*([z] * dims), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)  # (n^dims, dims)
    wgrids = np.meshgrid(*([w] * dims), indexing="ij")
    weights = np.prod(np.stack([g.ravel() for g in wgrids], axis=1), axis=1)
    # scatter node coordinates into the flat M*d layout (cells 1..u per component)
    zfull = np.zeros((pts.shape[0], model.m * model.d))
    col = 0
    for j in range(model.d):
        for i in range(u):
            zfull[:, j * model.m + i] = pts[:, col]
            col += 1
    feats = piecewise_features(model.basis, model.indices, t, zfull, model.d)
    return weights, feats


def quad_call_price(model, t, k, n):
    """Gauss-Hermite tensor price of (S_0 + g_theta(z) - K)_+."""
    weights, feats = quad_nodes_features(model, t, n)
    s = model.s0 + feats @ model.coefficients
    return float(np.einsum("i,i->", weights, np.maximum(s - k, 0.0)))


def _cv_draw(model, t, degree, driver, beta_samples, tags):
    """The independent CV sample at maturity t, shared by all its strikes.

    Returns (s, xc, sigma_x, singular): terminal values, centered control
    variates, their covariance, and whether Sigma_X is too degenerate to
    solve (e.g. theta = 0), in which case a warning is issued.
    """
    if degree not in (1, 2):
        raise ValidationError("cv degree must be 1 or 2 when estimating")
    est_block = sample_features(model, t, beta_samples, driver, tags=tags)
    s = terminal_values(model, est_block)
    xs = [s - model.s0]
    if degree == 2:
        xs.append(s**2 - second_moment(model, t))
    x = np.stack(xs, axis=1)
    xc = x - x.mean(axis=0)
    sigma_x = np.einsum("ij,ik->jk", xc, xc) / (len(s) - 1)
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


def _cv_solve(draw, k, tags):
    """CvState for strike k on a `_cv_draw` sample."""
    s, xc, sigma_x, bad = draw
    y = np.maximum(s - k, 0.0)
    yc = y - y.mean()
    sigma_yx = np.einsum("ij,i->j", xc, yc) / (len(y) - 1)
    if bad:
        return CvState(0, np.zeros(0), sigma_x, sigma_yx, 0.0, tuple(tags))
    beta = np.linalg.solve(sigma_x, sigma_yx)
    var_y = float((yc * yc).sum() / (len(y) - 1))
    r2 = float(sigma_yx @ beta / var_y) if var_y > 0 else 0.0
    return CvState(xc.shape[1], beta, sigma_x, sigma_yx, r2, tuple(tags))


def estimate_cv(model, block, k, degree, driver, beta_samples=10_000, tags=()):
    """Estimate control-variate coefficients on an independent sample.

    Degenerate Sigma_X (e.g. theta = 0) degrades to degree 0 with a warning.
    """
    draw = _cv_draw(model, block.maturity, degree, driver, beta_samples, tags)
    return _cv_solve(draw, k, tags)


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
    price = float(y.mean())
    se = float(y.std(ddof=1) / np.sqrt(y.size)) if y.size > 1 else 0.0
    return price, se


@dataclass(frozen=True)
class _Group:
    """One maturity's frozen pricing inputs, built by `_maturity_groups`."""

    maturity: float
    s0: float
    rows: np.ndarray  # quote positions
    strikes: np.ndarray  # model-world strikes K S_0 / F
    scale: np.ndarray  # model-to-market price factor DF F / S_0
    weights: np.ndarray  # sample weights (uniform for MC, GH for quadrature)
    features: np.ndarray  # (n_samples, n_coefficients)
    beta1: np.ndarray = None  # per-strike CV coefficients, zeros if degraded
    beta2: np.ndarray = None
    m2c: np.ndarray = None  # second-moment coefficient vector, if degree 2
    targets: np.ndarray = None  # calibration: model-world targets C S_0 / (DF F)
    gweights: np.ndarray = None  # calibration: weights gamma (DF F / S_0)^2
    live: tuple = None  # calibration: slices of the nonzero feature columns


def _maturity_groups(model, quotes, schedule, driver, prefix, nodes=None):
    """Yield one `_Group` per quoted maturity, in ascending maturity order.

    Strikes map to the zero-rate world as K S_0 / F; model prices map back
    to market units by DF F / S_0.  CV betas are estimated at the model's
    coefficients for every strike from one beta block per maturity.

    Quadrature nodes depend on neither the coefficients nor the streams.
    They are looked up in, and added to, `nodes`, a dict keyed by
    (maturity, node count), so that builds for models of one structure can
    share them.

    Stream tags: the maturity at sorted position mi draws its feature block
    under prefix + (mi, 0) and its CV beta block under prefix + (mi, 1);
    quadrature maturities draw nothing.  Evaluation (`price_surface`) passes
    prefix (stream_tag,), giving 3-tuples (stream_tag, mi, 0|1).  Calibration
    (`calibrate.build_workspace`) passes (resim, 3233), giving 4-tuples
    (resim, 3233, mi, 0|1), so the two never share a stream.
    """
    qs = quotes.quotes
    nodes = {} if nodes is None else nodes
    mats = sorted({q.maturity for q in qs})
    bad = [t for t in mats if t > model.horizon + 1e-12]
    if bad:
        raise ValidationError(f"maturities beyond model horizon {model.horizon}: {bad}")
    for mi, t in enumerate(mats):
        rows = np.array([i for i, q in enumerate(qs) if q.maturity == t])
        scale = np.array([qs[i].discount_factor * qs[i].forward / model.s0 for i in rows])
        strikes = np.array([qs[i].strike * model.s0 / qs[i].forward for i in rows])
        method = schedule.for_maturity(t)
        if method.kind == "quad":
            key = (t, method.n_nodes)
            if key not in nodes:
                nodes[key] = quad_nodes_features(model, t, method.n_nodes)
            yield _Group(t, model.s0, rows, strikes, scale, *nodes[key])
            continue
        block = sample_features(model, t, method.n_paths, driver, tags=prefix + (mi, 0))
        w = np.full(method.n_paths, 1.0 / method.n_paths)
        b1 = b2 = m2c = None
        if method.cv_degree >= 1:
            cv_tags = prefix + (mi, 1)
            draw = _cv_draw(model, t, method.cv_degree, driver,
                            method.beta_samples, cv_tags)
            betas = np.zeros((2, len(rows)))  # zeros where degraded
            for j, k in enumerate(strikes):
                cv = _cv_solve(draw, k, cv_tags)
                betas[:cv.degree, j] = cv.beta
            b1, b2 = betas
            if method.cv_degree == 2:
                m2c = second_moment_coeffs(model, t)
        yield _Group(t, model.s0, rows, strikes, scale, w, block.features,
                     b1, b2, m2c)


def _group_prices(g, theta):
    """(s, pay, prices): terminal samples, per-strike payoffs and model-world
    CV-adjusted call prices of group g at coefficients theta."""
    s = g.s0 + g.features @ theta
    pay = s - g.strikes[:, None]
    np.maximum(pay, 0.0, out=pay)
    prices = np.einsum("ij,j->i", pay, g.weights)
    if g.beta1 is not None:
        # centred: w.s - S_0 would cancel two O(S_0) numbers to O(spread)
        ds = s - g.s0
        x1 = float((g.weights * ds).sum())
        prices = prices - g.beta1 * x1
        if g.m2c is not None:
            x2 = (float((g.weights * (ds * (s + g.s0))).sum())
                  - float(g.m2c @ theta**2))
            prices = prices - g.beta2 * x2
    return s, pay, prices


def price_surface(model, quotes, schedule, driver, stream_tag=0):
    """Price every quote with the scheduled engine per maturity.

    Quotes are converted to the model's zero-rate world through their
    (discount factor, forward): strike K~ = K S_0 / F prices to C~, and the
    market price is C = C~ DF F / S_0.  One feature block (and one
    independent CV block) is sampled per MC maturity and shared across its
    strikes.  Returns a price array aligned with quotes.
    """
    out = np.empty(len(quotes.quotes))
    for g in _maturity_groups(model, quotes, schedule, driver, (stream_tag,)):
        out[g.rows] = _group_prices(g, model.coefficients)[2] * g.scale
    return out
