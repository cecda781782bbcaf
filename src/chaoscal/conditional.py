"""Conditional expectations E[Phi_a | F_t] of chaos basis elements.

One kernel serves every basis.  With G = gram_tail(spec, t) expanded
block-diagonally over components, v = 1 - diag G is the variance each Ito
integral has accrued by t, and conditioning shifts each Hermite factor to it,
E[H_n(I_e) | F_t] = H_n(I^t_e; v_e) (see `hermite`).  The off-diagonal of G
couples positions: with A_t = sum_{i != k} G_ik d_i d_k acting on Hermite
monomials via H_n' = H_{n-1},

    E[Phi_a | F_t] = sum_{n=0}^{floor(|a|/2)} (1 / (2^n n!)) (A_t)^n f_a,

each monomial evaluated at (I^t; v).  The series terminates and is expanded
once per (a, t); for the piecewise basis G is diagonal and it is a single
monomial.  Where v_e = 0 (cells after t) I^t_e = 0 = H_n(0; 0), n > 0, so
such monomials are skipped as exact zeros.

Oracles for the tests: the Dyson series over all of G with plain Hermite
polynomials (`dyson_cond_exp`), and the piecewise closed form
(`cond_exp_piecewise`): with t in cell u and tau = (t - s_{u-1}) / delta_u,

    E[Phi_a | F_t] = prod_j [ prod_{i<u} H_{a_i^j}(Z_i^j) ]
                     * tau^{a_u^j / 2} H_{a_u^j}(Ztilde_u^j),

Z_i^j the normalized full-cell increments and Ztilde_u^j the normalized
partial increment of the running cell; 0 if any a_i^j > 0 for i > u.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import block_diag

from .bases import cell_index, gram_tail
from .errors import ValidationError
from .hermite import hermite_upto


@dataclass
class HermitePolyCombo:
    """Sparse linear combination sum_b c_b * prod_e H_{b_e}(x_e)."""

    terms: dict  # exponent tuple -> coefficient

    def add_into(self, other, c=1.0):
        for b, v in other.terms.items():
            self.terms[b] = self.terms.get(b, 0.0) + c * v


def dyson_operator_apply(f, g):
    """One application of A = sum_{i,k} G_ik d_i d_k to a Hermite combo.

    On a monomial with exponents b, the pair (i, k), i != k, contributes
    G_ik * (b with b_i - 1, b_k - 1) twice (once per ordering), and i = k
    contributes G_ii * (b with b_i - 2); exponents driven negative kill the
    term.
    """
    g = np.asarray(g)
    nz = [(i, k) for i in range(g.shape[0]) for k in range(i, g.shape[1]) if g[i, k] != 0.0]
    out = {}
    for b, c in f.terms.items():
        for i, k in nz:
            mult = g[i, k] if i == k else 2.0 * g[i, k]
            if i == k:
                if b[i] < 2:
                    continue
                nb = list(b)
                nb[i] -= 2
            else:
                if b[i] < 1 or b[k] < 1:
                    continue
                nb = list(b)
                nb[i] -= 1
                nb[k] -= 1
            nb = tuple(nb)
            out[nb] = out.get(nb, 0.0) + c * mult
    return HermitePolyCombo(out)


def dyson_combo(a, g):
    """The full (terminating) Dyson series of Phi_a as one Hermite combo."""
    total = HermitePolyCombo({tuple(a.exponents): 1.0})
    current = HermitePolyCombo(dict(total.terms))
    fact = 1.0
    for n in range(1, a.order // 2 + 1):
        current = dyson_operator_apply(current, g)
        if not current.terms:
            break
        fact *= 2.0 * n
        total.add_into(current, 1.0 / fact)
    return total


def evaluate_combo(combo, x):
    """Evaluate a Hermite combo at x with basis positions on the last axis."""
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.shape[:-1])
    if not combo.terms:
        return out if out.ndim else 0.0
    n_max = max(max(b) for b in combo.terms)
    table = hermite_upto(n_max, x)  # (n_max+1, ..., n_pos)
    for b, c in combo.terms.items():
        term = np.full(x.shape[:-1], c)
        for pos, n in enumerate(b):
            if n > 0:
                term = term * table[n][..., pos]
        out += term
    return out if out.ndim else float(out)


def expand_gram(g, d):
    """Block-diagonal expansion of an M x M Gram matrix to M*d positions."""
    return block_diag(*[g] * d)


def dyson_cond_exp(a, t, integrals, g):
    """E[Phi_a | F_t] via the Dyson series; g must be gram_tail at t, expanded
    to the M*d layout when d > 1."""
    del t  # the time dependence is entirely inside g and integrals
    return evaluate_combo(dyson_combo(a, g), integrals)


def cond_exp_piecewise(spec, a, t, increments, d=1):
    """Closed-form E[Phi_a | F_t] for the piecewise-constant basis.

    `increments` has the flat M*d layout on its last axis and holds
    (B_{s_i} - B_{s_{i-1}})/sqrt(delta_i) for cells i < u and
    (B_t - B_{s_{u-1}})/sqrt(t - s_{u-1}) at the running cell u; entries for
    i > u are ignored.
    """
    u = cell_index(spec, t)
    m = spec.size
    z = np.asarray(increments, dtype=float)
    if z.shape[-1] != m * d:
        raise ValidationError(f"increments last axis {z.shape[-1]} != M*d = {m * d}")
    if len(a) != m * d:
        raise ValidationError(f"index length {len(a)} != M*d = {m * d}")
    tau = (t - spec.grid[u - 1]) / spec.widths[u - 1]

    scalar = z.ndim == 1
    exps = a.exponents
    for e, n in enumerate(exps):
        if n > 0 and (e % m) + 1 > u:
            out = np.zeros(z.shape[:-1])
            return 0.0 if scalar else out

    out = np.ones(z.shape[:-1])
    n_max = max(exps)
    table = None
    pow_u = 0
    for e, n in enumerate(exps):
        if n == 0:
            continue
        if table is None:
            table = hermite_upto(n_max, z)
        out = out * table[n][..., e]
        if (e % m) + 1 == u:
            pow_u += n
    out = out * tau ** (0.5 * pow_u)
    return float(out) if scalar else out


def piecewise_features(spec, indices, t, z, d=1):
    """Matrix of E[Phi_a | F_t] values for many indices at once.

    z: (n_paths, M*d) normalized increments as in cond_exp_piecewise, which
    are I^t / sqrt(v) on the cells up to t's.  Returns (n_paths,
    len(indices)), column-major; columns of indices annihilated at t (some
    a_i^j > 0 with i > u) are exact zeros.
    """
    g = expand_gram(gram_tail(spec, t), d)
    return _hermite_products(indices, g, z, normalized=True)


def dyson_features(indices, g, integrals):
    """Matrix of E[Phi_a | F_t] values for many indices at once, any basis.

    g: Gram tail G(t) expanded to the M*d layout; integrals: (n_paths, M*d)
    samples of I^t.  Returns (n_paths, len(indices)), column-major; columns
    that vanish at t are exact zeros.
    """
    return _hermite_products(indices, np.asarray(g, dtype=float), integrals,
                             normalized=False)


def _hermite_products(indices, g, x, normalized):
    """Columns sum_b c_b prod_e v_e^{b_e/2} H_{b_e}(y_e) over the Dyson combo
    of each index in the off-diagonal of g; y = x if `normalized`, else
    x / sqrt(v).  The table holds positions with v > 0 only, positions
    leading.  Products form in place in the output column: a fresh temporary
    per column made every `path_grid` step page-fault.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    v = 1.0 - np.diag(g)
    live = np.flatnonzero(v > 0.0)
    slot = {e: s for s, e in enumerate(live)}  # table row of each live position
    off = g - np.diag(np.diag(g))
    columns = []  # per index: [(coefficient * scale, [(table slot, order)])]
    n_max = 0
    for a in indices:
        terms = []
        for b, c in dyson_combo(a, off).terms.items():
            factors = [(slot.get(e), n) for e, n in enumerate(b) if n > 0]
            if all(s is not None for s, _ in factors):
                scale = math.prod(v[e] ** (0.5 * n) for e, n in enumerate(b) if n > 0)
                terms.append((c * scale, factors))
                n_max = max([n_max] + [n for _, n in factors])
        columns.append(terms)
    rows = x.T[live]  # a copy
    if not normalized:
        rows /= np.sqrt(v[live])[:, None]
    table = hermite_upto(n_max, rows)
    out = np.empty((x.shape[0], len(indices)), order="F")
    tmp = np.empty(x.shape[0])
    for col, terms in enumerate(columns):
        if not terms:
            out[:, col] = 0.0
        for k, (c, factors) in enumerate(terms):
            acc = tmp if k else out[:, col]
            acc[:] = table[factors[0][1], factors[0][0]] if factors else c
            for s, n in factors[1:]:
                acc *= table[n, s]
            if factors and c != 1.0:
                acc *= c
            if k:
                out[:, col] += acc
    return out
