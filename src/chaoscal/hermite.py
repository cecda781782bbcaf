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
Both families run through one in-place recurrence (`_recurrence`), which
`hermite_upto` and the path kernels of `conditional` share.
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
    out = np.empty((n_max + 1,) + x.shape, dtype=float)
    out[0] = 1.0
    if n_max >= 1:
        out[1] = x
    _recurrence(out.reshape(n_max + 1, -1), n_max)  # rows as views, even at a scalar x
    return out


def _recurrence(table, n_max, v=None, spare=None):
    """Fill rows 2..n_max of table from its rows 0 = 1 and 1 = x, in place,
    by (n+1) H_{n+1} = x H_n - v H_{n-1}: the plain family if v is None,
    else the shifted one, v broadcast against a row and v H_{n-1} formed in
    the row `spare`.  It allocates nothing."""
    for n in range(1, n_max):
        np.multiply(table[1], table[n], out=table[n + 1])
        if v is None:
            table[n + 1] -= table[n - 1]
        else:
            np.multiply(table[n - 1], v, out=spare)
            table[n + 1] -= spare
        table[n + 1] /= n + 1
