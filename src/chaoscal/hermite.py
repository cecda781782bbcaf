"""Hermite polynomials, normalized as H_n = He_n / n!.

With this scaling the family satisfies

    (n+1) H_{n+1}(x) = x H_n(x) - H_{n-1}(x),      H_0 = 1, H_1(x) = x,
    H_n'(x) = H_{n-1}(x),
    exp(t x - t^2/2) = sum_{n>=0} t^n H_n(x),

and for Z ~ N(0,1): E[H_m(Z) H_n(Z)] = delta_{mn} / n!, so sqrt(n!) H_n(Z)
is orthonormal in L^2.  All chaos-expansion code in this package uses this
normalization exclusively.

For a Gaussian martingale X, X_T ~ N(0,1), with variance v accrued by t,
E[H_n(X_T) | F_t] = H_n(X_t; v) = v^{n/2} H_n(X_t / sqrt(v)): the shifted
family, (n+1) H_{n+1} = x H_n - v H_{n-1}, generating exp(t x - v t^2/2).
"""

import numpy as np

from .errors import ValidationError


def hermite_upto(n_max, x):
    """Evaluate H_0, ..., H_{n_max} at x via the stable upward recurrence.

    Parameters
    ----------
    n_max : int
        Highest order to evaluate, >= 0.
    x : float or ndarray
        Evaluation points; must be finite.

    Returns
    -------
    ndarray, shape (n_max + 1,) + np.shape(x)
        Row n holds H_n(x).
    """
    if not isinstance(n_max, (int, np.integer)) or n_max < 0:
        raise ValidationError(f"n_max must be a nonnegative integer, got {n_max!r}")
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValidationError("hermite_upto: x contains non-finite values")
    return _upto(n_max, x)


def _upto(n_max, x, v=None):
    """`hermite_upto` unchecked, for callers whose x is finite; with v, the
    shifted family H_n(x; v) of the module docstring by its recurrence
    (n+1) H_{n+1} = x H_n - v H_{n-1}, v broadcasting against x."""
    out = np.empty((n_max + 1,) + x.shape, dtype=float)
    out[0] = 1.0
    if n_max >= 1:
        out[1] = x
    for n in range(1, n_max):
        prev = out[n - 1] if v is None else v * out[n - 1]
        out[n + 1] = (x * out[n] - prev) / (n + 1)
    return out
