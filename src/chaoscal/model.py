"""The Wiener chaos martingale model.

The terminal value is S_T = S_0 + sum_a d_a Phi_a over the truncated index
set, and the price process is the martingale S_t = E[S_T | F_t].  Everything
downstream (pricing, calibration) works with per-path *feature matrices*
whose columns are samples of E[Phi_a | F_T]; S_T is then an affine function
S_0 + features @ coefficients, and gradients in the coefficients are exact.

For the piecewise-constant basis the second moment is closed-form:

    E[(S_T)^2] = S_0^2 + sum_a d_a^2 * prod_e v_e^{a_e} / a!,

v = 1 - diag G(T) the variance each Ito integral has accrued by T (0 after
T's cell, which annihilates indices supported there).  Negative sample paths
are permitted by construction; nothing clamps them.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bases import PiecewiseConstantBasis, _walk_integrals, gram_tail, sample_integrals
from .conditional import dyson_features, expand_gram, piecewise_features
from .errors import ValidationError
from .indices import enumerate_indices, index_space_dim


@dataclass
class ChaosModel:
    s0: float
    p: int
    m: int
    d: int
    basis: object
    coefficients: np.ndarray

    def __post_init__(self):
        if not (np.isfinite(self.s0) and self.s0 > 0):
            raise ValidationError(f"key 's0' must be a finite number > 0, got {self.s0!r}")
        self.coefficients = np.asarray(self.coefficients, dtype=float)
        want = index_space_dim(self.p, self.m, self.d) - 1
        if self.coefficients.shape != (want,):
            raise ValidationError(
                f"coefficient array has shape {self.coefficients.shape}, "
                f"expected ({want},)"
            )
        if not np.all(np.isfinite(self.coefficients)):
            raise ValidationError("coefficients must be finite")
        if self.basis.size != self.m:
            raise ValidationError(
                f"basis size {self.basis.size} != M = {self.m}"
            )

    @property
    def horizon(self):
        return self.basis.horizon

    @cached_property
    def indices(self):
        return enumerate_indices(self.p, self.m, self.d)

    def with_coefficients(self, theta):
        return ChaosModel(self.s0, self.p, self.m, self.d, self.basis, theta)


@dataclass(frozen=True)
class FeatureBlock:
    maturity: float
    features: np.ndarray  # (n_paths, n_indices), columns in enumeration order


def sample_features(model, t, n_paths, driver, tags=()):
    """Sample E[Phi_a | F_t] for every index; the offline matrix reused across
    calibration iterations.

    Piecewise basis: exact, from iid standard normals (full-cell increments
    below the running cell, the normalized partial increment at it).  Other
    bases: Dyson series on sampled Ito integrals.
    """
    if not 0.0 < t <= model.horizon:
        raise ValidationError(f"maturity {t} outside (0, {model.horizon}]")
    if isinstance(model.basis, PiecewiseConstantBasis):
        gen = driver.generator(*tags)
        z = gen.standard_normal((n_paths, model.m * model.d))
        feats = piecewise_features(model.basis, model.indices, t, z, model.d)
    else:
        ints = sample_integrals(model.basis, driver, [t], n_paths, model.d, tags=tags)[0]
        g = expand_gram(gram_tail(model.basis, t), model.d)
        feats = dyson_features(model.indices, g, ints)
    return FeatureBlock(float(t), feats)


def terminal_values(model, block):
    """S_t samples: S_0 + features @ coefficients."""
    if block.features.shape[1] != model.coefficients.shape[0]:
        raise ValidationError(
            f"block has {block.features.shape[1]} columns, model "
            f"{model.coefficients.shape[0]} coefficients"
        )
    return model.s0 + block.features @ model.coefficients


def second_moment_coeffs(model, t):
    """Per-index weights c_a with E[(S_t)^2] = S_0^2 + sum_a d_a^2 c_a.

    c_a = prod_e v_e^{a_e} / a! with v = 1 - diag G(t) over the M*d layout;
    0 for indices annihilated at t.  Piecewise-constant basis only: the
    formula needs a diagonal Gram tail.
    """
    if not isinstance(model.basis, PiecewiseConstantBasis):
        raise ValidationError("second moment in closed form needs the piecewise basis")
    if not 0.0 < t <= model.horizon:
        raise ValidationError(f"t={t} outside (0, {model.horizon}]")
    v = np.tile(1.0 - np.diag(gram_tail(model.basis, t)), model.d)
    exps = np.array([a.exponents for a in model.indices])
    return np.prod(v**exps, axis=1) / [a.factorial for a in model.indices]


def second_moment(model, t):
    """Closed-form E[(S_t)^2] for the piecewise-constant basis."""
    c = second_moment_coeffs(model, t)
    return model.s0**2 + float(c @ (model.coefficients**2))


def path_grid(model, times, n_paths, driver, tags=()):
    """Jointly consistent S_t samples at the given times, shape (n_times, n_paths).

    All times share one Brownian path per path index (needed for exotics).
    The integrals are drawn as `sample_integrals` draws them, but one time
    at a time, so only one time's slice is held.  Time 0 draws nothing and
    its row is exactly S_0, so the other rows are those of the grid without it.
    """
    times = [float(t) for t in times]
    if any(not 0.0 <= t <= model.horizon for t in times):
        raise ValidationError(f"times must lie in [0, {model.horizon}]")
    walk = _walk_integrals(model.basis, driver, times, n_paths, model.d, tags)
    out = np.empty((len(times), n_paths))
    for ti, (t, ints) in enumerate(zip(times, walk)):
        if t == 0.0:  # every feature vanishes; the Legendre G(0) is I only to round-off
            out[ti] = model.s0
            continue
        g = expand_gram(gram_tail(model.basis, t), model.d)
        out[ti] = model.s0 + dyson_features(model.indices, g, ints) @ model.coefficients
    return out
