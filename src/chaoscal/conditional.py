"""Conditional expectations E[Phi_a | F_t] of chaos basis elements.

One kernel serves every basis.  With G = gram_tail(spec, t) taken
block-diagonally over components, v = 1 - diag G is the variance each Ito
integral has accrued by t, and conditioning shifts each Hermite factor to it,
E[H_n(I_e) | F_t] = H_n(I^t_e; v_e) (see `hermite`).  The off-diagonal of G
couples positions: with A_t = sum_{i != k} G_ik d_i d_k acting on Hermite
monomials via H_n' = H_{n-1},

    E[Phi_a | F_t] = sum_{n=0}^{floor(|a|/2)} (1 / (2^n n!)) (A_t)^n f_a,

each monomial evaluated at (I^t; v).  The series terminates; it runs over
the couplings G_ik != 0, i < k, listed once per plan from the M x M tail,
none for the diagonal piecewise G.  Where v_e = 0 (cells after t) I^t_e =
0 = H_n(0; 0), n > 0, so such monomials are skipped as exact zeros.

One plan type holds those monomials for every caller (`_cell_plan`): built
at a time and split over the positions that run after it, up to the end of
the cell it closes.  Feature rows read a plan with no running position, one
column per index (`_plan_rows`), or its sum at the coefficients, S_t - S_0
(`_collapse`); path rows sum the frozen factors onto a polynomial in the
running ones once a cell (`_collapse`) and evaluate it at each time
(`_cell_rows`).  Every Hermite table, plain or shifted, is built
by `hermite._recurrence`.

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

from .bases import cell_index, gram_tail
from .errors import ValidationError
from .hermite import _recurrence, hermite_upto


def _couplings(g, d=1, diagonal=False):
    """The nonzero terms of the M x M Gram tail g over the block-diagonal M*d
    layout, as arrays (i, k, w) in row-major order: w = 2 G_ik for i < k,
    and G_ii on the diagonal if `diagonal`."""
    g = np.asarray(g, dtype=float)
    i, k = np.nonzero(np.triu(g, 0 if diagonal else 1))
    w = g[i, k]
    w[i != k] *= 2.0
    shift = g.shape[0] * np.arange(d)[:, None]  # row j: block j
    return (i + shift).ravel(), (k + shift).ravel(), np.tile(w, d)


def dyson_operator_apply(f, couplings):
    """One application of A = sum_{i,k} G_ik d_i d_k, G by its `_couplings`, to
    a Hermite combo {exponent tuple b: c_b}, sum_b c_b * prod_e H_{b_e}(x_e).

    On a monomial with exponents b, the pair (i, k), i != k, contributes
    G_ik * (b with b_i - 1, b_k - 1) twice (once per ordering), and i = k
    contributes G_ii * (b with b_i - 2); exponents driven negative kill the
    term.
    """
    i, k, w = couplings
    out = {}
    for b, c in f.items():
        on = np.array(b) > 0
        for s in np.flatnonzero(on[i] & on[k]):  # the pairs b can lose
            nb = list(b)
            nb[i[s]] -= 1
            nb[k[s]] -= 1  # i == k takes 2 from one position
            if nb[i[s]] >= 0 and nb[k[s]] >= 0:
                nb = tuple(nb)
                out[nb] = out.get(nb, 0.0) + c * w[s]
    return out


def dyson_combo(a, couplings):
    """The full (terminating) Dyson series of Phi_a over `_couplings`."""
    total = {tuple(a.exponents): 1.0}
    current = dict(total) if len(couplings[0]) else {}  # no couplings: Phi_a alone
    fact = 1.0
    for n in range(1, a.order // 2 + 1):
        current = dyson_operator_apply(current, couplings)
        if not current:
            break
        fact *= 2.0 * n
        for b, v in current.items():
            total[b] = total.get(b, 0.0) + 1.0 / fact * v
    return total


def evaluate_combo(combo, x):
    """Evaluate a Hermite combo at x with basis positions on the last axis."""
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.shape[:-1])
    n_max = max((max(b) for b in combo), default=0)
    table = hermite_upto(n_max, x)  # (n_max+1, ..., n_pos)
    for b, c in combo.items():
        term = np.full(x.shape[:-1], c)
        for pos, n in enumerate(b):
            if n > 0:
                term = term * table[n][..., pos]
        out += term
    return out if out.ndim else float(out)


def dyson_cond_exp(a, t, integrals, g):
    """E[Phi_a | F_t] via the Dyson series over all of g, which must be
    gram_tail at t, expanded block-diagonally to the M*d layout when d > 1."""
    del t  # the time dependence is entirely inside g and integrals
    return evaluate_combo(dyson_combo(a, _couplings(g, diagonal=True)), integrals)


def _check_layout(x, indices, width):
    """Raise ValidationError unless the samples x (on their last axis) and
    every index span the M*d layout of `width` positions."""
    if np.shape(x)[-1] != width:
        raise ValidationError(f"samples last axis {np.shape(x)[-1]} != M*d = {width}")
    for a in indices:
        if len(a) != width:
            raise ValidationError(f"index length {len(a)} != M*d = {width}")


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
    _check_layout(z, [a], m * d)
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
    _check_layout(z, indices, spec.size * d)
    return _plan_rows(_cell_plan(indices, gram_tail(spec, t), d), z, normalized=True)


def dyson_features(indices, g, integrals):
    """Matrix of E[Phi_a | F_t] values for many indices at once, any basis.

    g: Gram tail G(t) expanded to the M*d layout; integrals: (n_paths, M*d)
    samples of I^t.  Returns (n_paths, len(indices)), column-major; columns
    that vanish at t are exact zeros.
    """
    _check_layout(integrals, indices, np.shape(g)[0])
    return _plan_rows(_cell_plan(indices, g, 1), integrals, normalized=False)


@dataclass(frozen=True)
class _Plan:
    """The Hermite products of E[Phi_a | F_t] at one (indices, Gram tail),
    split over the positions `running` (`_cell_plan`).  Built at the end of
    a cell over which only the running positions move, S_t in the cell is

        sum_k Q_k prod_j H_{r_kj}(I^t_j; v_j(t)),   j over `running`,

    with r_k = `patterns[k]` (the all-zero pattern first) and Q_k the
    theta-weighted sum of pattern k's terms (`_collapse`), held in column
    order in `terms[k]` as (column, c, ((frozen row, order), ...)); the rows
    index `frozen`, the other positions with v > 0, and `root_v`, their
    sqrt(v).  c is the Dyson coefficient times prod_e v_e^{b_e/2}, over the
    running factors' v^{n/2}.  With no running position the one pattern ()
    holds the `width` feature columns (`_plan_rows`), of which `live` have
    terms.  `n_max` and `order` are the highest frozen and running orders.
    """

    frozen: np.ndarray
    root_v: np.ndarray
    running: np.ndarray
    patterns: tuple
    terms: tuple
    live: np.ndarray
    n_max: int
    order: int
    width: int


def _cell_plan(indices, g, d, running=()):
    """The `_Plan` of `indices` at the M x M Gram tail g, taken
    block-diagonally over d components, over the positions `running` (M*d
    layout); with every position running the Q_k are constants.  It depends
    on neither the paths nor the coefficients."""
    v = np.tile(1.0 - np.diag(g), d)
    root = np.sqrt(v)
    where = {int(e): j for j, e in enumerate(running)}
    frozen = [e for e in np.flatnonzero(v > 0.0).tolist() if e not in where]
    row = {e: f for f, e in enumerate(frozen)}
    couplings = _couplings(g, d)  # listed once for every index
    terms = {(0,) * len(where): []}
    live, n_max, order = [], 0, 0
    for col, a in enumerate(indices):
        for b, c in dyson_combo(a, couplings).items():
            factors = [(e, n) for e, n in enumerate(b) if n > 0]
            if any(v[e] <= 0.0 for e, _ in factors):
                continue  # a position after t: an exact zero
            c *= math.prod(v[e] ** (0.5 * n) for e, n in factors)
            pattern, fixed = [0] * len(where), []
            for e, n in factors:
                j = where.get(e)
                if j is None:
                    fixed.append((row[e], n))
                    n_max = max(n_max, n)
                else:
                    pattern[j] = n
                    order = max(order, n)
                    c /= root[e] ** n
            terms.setdefault(tuple(pattern), []).append((col, c, tuple(fixed)))
            if live[-1:] != [col]:
                live.append(col)
    frozen = np.asarray(frozen, dtype=int)
    plan = _Plan(frozen, root[frozen], np.asarray(list(where), dtype=int), tuple(terms),
                 tuple(tuple(ts) for ts in terms.values()), np.asarray(live, dtype=int),
                 n_max, order, len(indices))
    for arr in (plan.frozen, plan.root_v, plan.running, plan.live):  # shared by its callers
        arr.setflags(write=False)
    return plan


def _plan_rows(plan, x, normalized, out=None, live=False):
    """Feature rows of `plan`, which runs no position, at the samples x,
    (n_rows, M*d): x are the normalized values y if `normalized`, else I^t,
    divided here by sqrt(v).  Returns (n_rows, width), column-major, or only
    the `live` columns, in column order, if `live`; written into `out` if
    given (rows of a column-major matrix).  Every row and column is computed
    on its own, so a block of rows gives the bits of the same rows of a
    larger call, and a live column the bits of its column in the full
    matrix.  Products form in place in the output column: a fresh temporary
    per column made every `path_grid` step page-fault.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    rows = x.T[plan.frozen]  # a copy
    if not normalized:
        rows /= plan.root_v[:, None]
    table = hermite_upto(plan.n_max, rows)
    if out is None:
        out = np.empty((x.shape[0], len(plan.live) if live else plan.width), order="F")
    if not live:
        # one dead column at a time: a fancy index, or np.setdiff1d, raised
        # the desk `evaluate` peak RSS by about 1 MB
        for col in set(range(plan.width)).difference(plan.live.tolist()):
            out[:, col] = 0.0
    tmp = np.empty(x.shape[0])
    last, j = None, -1
    for col, c, factors in plan.terms[0]:
        first = col != last
        if first:
            last, j = col, (j + 1 if live else col)
        acc = out[:, j] if first else tmp
        acc[:] = table[factors[0][1], factors[0][0]] if factors else c
        for s, n in factors[1:]:
            acc *= table[n, s]
        if factors and c != 1.0:
            acc *= c
        if not first:
            out[:, j] += acc
    return out


def _collapse(cell, weights, x, out, work, normalized=False):
    """Write Q_k = sum of weights[column] * c * frozen factors over pattern k's
    terms into out[k], (len(patterns), n_rows), at the rows x of I^t
    (n_rows, M*d) at a time whose frozen positions are complete, or of the
    normalized values I^t / sqrt(v) if `normalized`.  With no running
    position (a feature plan) out[0] is S_t - S_0 at the coefficients
    `weights`.  The Hermite table and the products go into work, flat
    scratch of at least (n_max + 1) len(frozen) n_rows + n_rows values, so
    the call allocates nothing."""
    n, f = x.shape[0], len(cell.frozen)
    table = work[: (cell.n_max + 1) * f * n].reshape(cell.n_max + 1, f, n)
    tmp = work[(cell.n_max + 1) * f * n:][:n]
    table[0] = 1.0
    if cell.n_max >= 1:
        for i, e in enumerate(cell.frozen):
            if normalized:
                table[1, i] = x[:, e]
            else:
                np.divide(x[:, e], cell.root_v[i], out=table[1, i])
    _recurrence(table, cell.n_max)
    for q, terms in zip(out, cell.terms):
        q[:] = 0.0
        for col, c, factors in terms:
            w = weights[col] * c
            if not factors:
                q += w
                continue
            np.multiply(table[factors[0][1], factors[0][0]], w, out=tmp)
            for f, n in factors[1:]:
                tmp *= table[n, f]
            q += tmp


def _cell_rows(cell, q, x, v, out, work):
    """S_t = sum_k q[k] prod_j H_{r_kj}(x_j; v_j) into out: q from
    `_collapse`, x the rows of I^t (n_rows, M*d) at t in the cell and v the
    running positions' variance accrued by t.  The shifted Hermite table,
    with a spare row, and the products go into work, flat scratch of at
    least (order + 2) len(running) n_rows + n_rows values, so the call
    allocates nothing."""
    n, r, order = x.shape[0], len(cell.running), cell.order
    table = work[: (order + 2) * r * n].reshape(order + 2, r, n)  # row -1: spare
    tmp = work[(order + 2) * r * n:][:n]
    table[0] = 1.0
    if order >= 1:
        for j, e in enumerate(cell.running):
            table[1, j] = x[:, e]
    _recurrence(table, order, v[:, None], table[-1])
    out[:] = q[0]
    for qk, pattern in zip(q[1:], cell.patterns[1:]):
        factors = [(j, n) for j, n in enumerate(pattern) if n]
        np.multiply(qk, table[factors[0][1], factors[0][0]], out=tmp)
        for j, n in factors[1:]:
            tmp *= table[n, j]
        out += tmp
