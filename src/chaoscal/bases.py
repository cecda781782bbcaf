"""Orthonormal function families on [0, T] and sampling of their Ito integrals.

Two families are supported:

* piecewise-constant: h_i = 1_{(s_{i-1}, s_i]} / sqrt(delta_i) on a strictly
  increasing grid 0 = s_0 < ... < s_M = T (half-open cells, so t = s_u belongs
  to cell u);
* Legendre: h_i(s) = sqrt((2i-1)/T) * L_{i-1}(2s/T - 1), L_k the Legendre
  polynomial on [-1, 1].

The Gram tail G(t) = int_t^T h_i h_k ds drives the Dyson conditional
expectation.  For the piecewise family it is diagonal with entries
0 (i < u), (s_u - t)/delta_u (i = u), 1 (i > u); for the Legendre family the
integrand of each entry is a polynomial of degree <= 2(M-1), so a fixed
Gauss-Legendre rule with M nodes integrates it exactly.

The Gram tail also gives the law of the Ito integrals I^t = int_0^t h dB: per
Brownian component, the increment over (t_{k-1}, t_k] is N(0, G(t_{k-1}) -
G(t_k)), independent of the past.  `sample_integrals` draws those increments
exactly for both families, so sampled paths carry no time-discretization
error.

BrownianDriver wraps the counter-based Philox generator: streams are keyed by
(seed, stream, *tags) through SeedSequence, so any (seed, stream, tag) triple
reproduces its draws bit-for-bit regardless of what else was sampled.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import eval_legendre, roots_legendre

from .errors import ValidationError


@dataclass(frozen=True)
class PiecewiseConstantBasis:
    grid: tuple

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=float)
        if g.ndim != 1 or g.size < 2:
            raise ValidationError("grid needs at least two points")
        if g[0] != 0.0 or np.any(np.diff(g) <= 0):
            raise ValidationError("grid must be strictly increasing from 0")
        object.__setattr__(self, "grid", tuple(float(x) for x in g))

    @classmethod
    def uniform(cls, horizon, m):
        return cls(tuple(np.linspace(0.0, float(horizon), m + 1)))

    @property
    def horizon(self):
        return self.grid[-1]

    @property
    def size(self):
        return len(self.grid) - 1

    @property
    def widths(self):
        return np.diff(np.asarray(self.grid))


@dataclass(frozen=True)
class LegendreBasis:
    horizon: float
    size: int

    def __post_init__(self):
        if self.horizon <= 0 or self.size < 1:
            raise ValidationError("need horizon > 0 and size >= 1")


@dataclass(frozen=True)
class BrownianDriver:
    """Counter-based Gaussian source keyed by (seed, stream, *tags).

    It has no time resolution: every basis is sampled exactly from the
    interval covariances of its Ito integrals (see `sample_integrals`).
    """

    seed: int
    stream: int = 0

    def generator(self, *tags):
        return np.random.Generator(
            np.random.Philox(np.random.SeedSequence((self.seed, self.stream) + tags))
        )


def cell_index(spec, t):
    """Cell u with t in (s_{u-1}, s_u], for t in (0, horizon]."""
    grid = np.asarray(spec.grid)
    if not 0.0 < t <= spec.horizon:
        raise ValidationError(f"t={t} outside (0, {spec.horizon}]")
    return int(np.searchsorted(grid, t, side="left"))


def basis_eval(spec, i, s):
    """Value h_i(s); i is 1-based. Piecewise cells are half-open (s_{i-1}, s_i]."""
    if not 1 <= i <= spec.size:
        raise ValidationError(f"basis index {i} outside 1..{spec.size}")
    if isinstance(spec, PiecewiseConstantBasis):
        s = np.asarray(s, dtype=float)
        lo, hi = spec.grid[i - 1], spec.grid[i]
        val = ((s > lo) & (s <= hi)) / np.sqrt(spec.widths[i - 1])
        return float(val) if val.ndim == 0 else val
    x = 2.0 * np.asarray(s, dtype=float) / spec.horizon - 1.0
    val = np.sqrt((2 * i - 1) / spec.horizon) * eval_legendre(i - 1, x)
    return float(val) if np.ndim(val) == 0 else val


def gram_tail(spec, t):
    """G_{ik}(t) = int_t^T h_i h_k ds, an M x M symmetric PSD matrix."""
    if not 0.0 <= t <= spec.horizon:
        raise ValidationError(f"t={t} outside [0, {spec.horizon}]")
    m = spec.size
    if isinstance(spec, PiecewiseConstantBasis):
        if t == 0.0:
            return np.eye(m)
        u = cell_index(spec, t)
        diag = np.ones(m)
        diag[: u - 1] = 0.0
        diag[u - 1] = (spec.grid[u] - t) / spec.widths[u - 1]
        return np.diag(diag)
    if t == spec.horizon:
        return np.zeros((m, m))
    # Polynomial integrand of degree <= 2(M-1): an M-node rule is exact.
    x, w = roots_legendre(m)
    s = 0.5 * (spec.horizon - t) * (x + 1.0) + t
    w = 0.5 * (spec.horizon - t) * w
    vals = np.array([basis_eval(spec, i, s) for i in range(1, m + 1)])
    g = (vals * w) @ vals.T
    return 0.5 * (g + g.T)


def _interval_root(c):
    """Factor an interval covariance C = R R^T, keeping only the directions
    with positive variance; R has shape (M, rank).

    G(0) = I and G decreases in the PSD order, so every Gram tail has norm at
    most 1 and the difference of two of them carries absolute round-off of
    order M * eps.  Eigenvalues at or below that tolerance (including the
    slightly negative ones round-off produces) are dropped: the variance they
    would add is below what the subtraction resolves.
    """
    lam, vec = np.linalg.eigh(c)
    keep = lam > c.shape[0] * np.finfo(float).eps
    return vec[:, keep] * np.sqrt(lam[keep])


def sample_integrals(spec, driver, times, n_paths, d=1, tags=()):
    """Sample I^t = (int_0^t h_1 dB^1, ..., int_0^t h_M dB^d) jointly over times.

    Returns an array of shape (len(times), n_paths, M*d) in the flat j-major
    layout.  All requested times share one Brownian path per path index.

    Sampling is exact for every basis.  Over an interval (t_{k-1}, t_k] the
    increment of I^t is, independently for each Brownian component and of
    the past, N(0, G(t_{k-1}) - G(t_k)) with G the Gram tail.  Each interval
    of positive length draws (n_paths, d, rank) standard normals from the
    driver's generator, in time order, and adds them through a root of that
    covariance; time 0 and repeated times draw nothing.  For the
    piecewise-constant family the covariance is diagonal, so an interval
    inside one cell draws one normal per component.  The combination runs in
    numpy's own einsum loop, so the bits do not depend on BLAS threading.
    """
    walk = _walk_integrals(spec, driver, times, n_paths, d, tags)
    out = np.empty((len(times), n_paths, spec.size * d))
    for ti, ints in enumerate(walk):
        out[ti] = ints
    return out


def _walk_integrals(spec, driver, times, n_paths, d=1, tags=()):
    """Check the arguments of `sample_integrals`; return an iterator over its
    draws, I^t per time as a view of the running sum, valid until the next."""
    times = [float(t) for t in times]
    if any(t < 0 or t > spec.horizon for t in times):
        raise ValidationError(f"times must lie in [0, {spec.horizon}]")
    if sorted(times) != times:
        raise ValidationError("times must be sorted ascending")
    if n_paths < 1:
        raise ValidationError("n_paths must be >= 1")

    def steps():
        gen = driver.generator(*tags)
        acc = np.zeros((n_paths, d, spec.size))
        prev, g_prev = 0.0, gram_tail(spec, 0.0)
        for t in times:
            if t > prev:
                g_t = gram_tail(spec, t)
                root = _interval_root(g_prev - g_t)
                z = gen.standard_normal((n_paths, d, root.shape[1]))
                acc += np.einsum("pjr,ir->pji", z, root)
                prev, g_prev = t, g_t
            yield acc.reshape(n_paths, spec.size * d)

    return steps()
