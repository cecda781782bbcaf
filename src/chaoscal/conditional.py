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
none for the diagonal piecewise G.  Where v_e = 0 (cells after t) I^t_e = 0 = H_n(0; 0), n > 0, so
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

from .bases import cell_index, gram_tail
from .errors import ValidationError
from .hermite import hermite_upto


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
    return _plan_rows(_column_plan(indices, gram_tail(spec, t), d), z, normalized=True)


def dyson_features(indices, g, integrals):
    """Matrix of E[Phi_a | F_t] values for many indices at once, any basis.

    g: Gram tail G(t) expanded to the M*d layout; integrals: (n_paths, M*d)
    samples of I^t.  Returns (n_paths, len(indices)), column-major; columns
    that vanish at t are exact zeros.
    """
    return _plan_rows(_column_plan(indices, g, 1), integrals, normalized=False)


@dataclass(frozen=True)
class _ColumnPlan:
    """The Hermite products of E[Phi_a | F_t] at one (indices, Gram tail).

    Column `col` is sum_b c_b prod_e v_e^{b_e/2} H_{b_e}(y_e) over the Dyson
    combo of its index in the off-diagonal of the Gram tail; `columns[col]`
    holds its terms as (c_b * scale, ((table row, order), ...)).  The table
    rows are the positions with v > 0 (`positions`, whose sqrt(v) is
    `root_v`); a column without terms is an exact zero.
    """

    positions: np.ndarray
    root_v: np.ndarray
    columns: tuple
    n_max: int


def _column_plan(indices, g, d):
    """The `_ColumnPlan` of `indices` at the M x M Gram tail g, taken
    block-diagonally over d components; it depends on neither the paths nor
    the coefficients, so one plan serves every row block of a maturity."""
    v = np.tile(1.0 - np.diag(g), d)
    positions = np.flatnonzero(v > 0.0)
    slot = {e: s for s, e in enumerate(positions)}  # table row of each live position
    couplings = _couplings(g, d)  # listed once for every index
    columns = []
    n_max = 0
    for a in indices:
        terms = []
        for b, c in dyson_combo(a, couplings).items():
            factors = tuple((slot.get(e), n) for e, n in enumerate(b) if n > 0)
            if all(s is not None for s, _ in factors):
                scale = math.prod(v[e] ** (0.5 * n) for e, n in enumerate(b) if n > 0)
                terms.append((c * scale, factors))
                n_max = max([n_max] + [n for _, n in factors])
        columns.append(tuple(terms))
    root_v = np.sqrt(v[positions])
    for arr in (positions, root_v):  # a cached plan is shared by its callers
        arr.setflags(write=False)
    return _ColumnPlan(positions, root_v, tuple(columns), n_max)


def _plan_rows(plan, x, normalized, out=None, live=False):
    """Feature rows of `plan` at the samples x, (n_rows, M*d): x are the
    normalized values y if `normalized`, else I^t, divided here by sqrt(v).
    Returns (n_rows, len(columns)), column-major, or only the columns with
    terms, in column order, if `live`; written into `out` if given (rows of
    a column-major matrix).  Every row and column is computed on its own, so
    a block of rows gives the bits of the same rows of a larger call, and a
    live column the bits of its column in the full matrix.  Products form in
    place in the output column: a fresh temporary per column made every
    `path_grid` step page-fault.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    rows = x.T[plan.positions]  # a copy
    if not normalized:
        rows /= plan.root_v[:, None]
    table = hermite_upto(plan.n_max, rows)
    columns = [terms for terms in plan.columns if terms] if live else plan.columns
    if out is None:
        out = np.empty((x.shape[0], len(columns)), order="F")
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


@dataclass(frozen=True)
class _CellPlan:
    """A `_ColumnPlan` at a cell's end split over the cell's running positions
    (`_cell_plan`): S_t at t in the cell is

        sum_k Q_k prod_j H_{r_kj}(I^t_j; v_j(t)),   j over `running`,

    with r_k = `patterns[k]` (the all-zero pattern first) and Q_k the
    coefficient-weighted sum of pattern k's terms over the frozen factors,
    which hold still over the cell (`_collapse`).  `terms[k]` holds those
    terms as (column, c, ((frozen row, order), ...)), the frozen rows indexing
    `frozen` (positions) and `root_v`; c is the plan's coefficient over the
    running factors' v^{n/2} at the cell's end.
    """

    frozen: np.ndarray
    root_v: np.ndarray
    running: np.ndarray
    patterns: tuple
    terms: tuple
    n_max: int


def _cell_plan(plan, running):
    """Split every term of `plan`, built at a cell's end, into its factors at
    the positions `running` (M*d layout, an int array) and its frozen
    factors: the `_CellPlan` of the cell.  With no running position every
    term is frozen and the one pattern is (): Q_0 is S_t at the plan's time.
    With every position running nothing is frozen and Q_k are constants."""
    where = {int(e): j for j, e in enumerate(running)}
    frozen = [s for s, e in enumerate(plan.positions) if int(e) not in where]
    row = {s: f for f, s in enumerate(frozen)}
    terms = {(0,) * len(where): []}
    n_max = 0
    for col, col_terms in enumerate(plan.columns):
        for c, factors in col_terms:
            pattern, fixed = [0] * len(where), []
            for s, n in factors:
                j = where.get(int(plan.positions[s]))
                if j is None:
                    fixed.append((row[s], n))
                    n_max = max(n_max, n)
                else:
                    pattern[j] = n
                    c /= plan.root_v[s] ** n
            terms.setdefault(tuple(pattern), []).append((col, c, tuple(fixed)))
    frozen = np.asarray(frozen, dtype=int)
    return _CellPlan(plan.positions[frozen], plan.root_v[frozen],
                     np.asarray(running), tuple(terms),
                     tuple(tuple(ts) for ts in terms.values()), n_max)


def _collapse_work(cell, n_rows):
    """Values of `_collapse`'s work buffer at n_rows rows: its Hermite table
    of the frozen positions and a product row."""
    return (cell.n_max + 1) * len(cell.frozen) * n_rows + n_rows


def _collapse(cell, weights, x, out, work):
    """Write Q_k = sum of weights[column] * c * frozen factors over pattern k's
    terms into out[k], (len(patterns), n_rows), at the rows x of I^t
    (n_rows, M*d) at a time whose frozen positions are complete.  The
    Hermite table and the products go into work, flat scratch of at least
    `_collapse_work` values, so the call allocates nothing."""
    n, f = x.shape[0], len(cell.frozen)
    table = work[: (cell.n_max + 1) * f * n].reshape(cell.n_max + 1, f, n)
    tmp = work[(cell.n_max + 1) * f * n:][:n]
    table[0] = 1.0
    if cell.n_max >= 1:
        for i, e in enumerate(cell.frozen):
            np.divide(x[:, e], cell.root_v[i], out=table[1, i])
    for k in range(1, cell.n_max):  # (k+1) H_{k+1} = y H_k - H_{k-1}
        np.multiply(table[1], table[k], out=table[k + 1])
        table[k + 1] -= table[k - 1]
        table[k + 1] /= k + 1
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


def _cell_work(cell, n_rows):
    """Values of `_cell_rows`'s work buffer at n_rows rows: its Hermite table
    of the running positions with a spare row, and a product row."""
    return (_cell_order(cell) + 2) * len(cell.running) * n_rows + n_rows


def _cell_order(cell):
    """The highest order a running position takes in the cell's patterns."""
    return max(max(r, default=0) for r in cell.patterns)


def _cell_rows(cell, q, x, v, out, work):
    """S_t = sum_k q[k] prod_j H_{r_kj}(x_j; v_j) into out: q from
    `_collapse`, x the rows of I^t (n_rows, M*d) at t in the cell and v the
    running positions' variance accrued by t.  The shifted Hermite table and
    the products go into work, flat scratch of at least `_cell_work` values,
    so the call allocates nothing."""
    n, r, n_max = x.shape[0], len(cell.running), _cell_order(cell)
    table = work[: (n_max + 2) * r * n].reshape(n_max + 2, r, n)  # row -1: spare
    tmp = work[(n_max + 2) * r * n:][:n]
    table[0] = 1.0
    if n_max >= 1:
        for j, e in enumerate(cell.running):
            table[1, j] = x[:, e]
    for k in range(1, n_max):  # (k+1) H_{k+1} = x H_k - v H_{k-1}
        np.multiply(table[k - 1], v[:, None], out=table[-1])
        np.multiply(table[1], table[k], out=table[k + 1])
        table[k + 1] -= table[-1]
        table[k + 1] /= k + 1
    out[:] = q[0]
    for qk, pattern in zip(q[1:], cell.patterns[1:]):
        factors = [(j, n) for j, n in enumerate(pattern) if n]
        np.multiply(qk, table[factors[0][1], factors[0][0]], out=tmp)
        for j, n in factors[1:]:
            tmp *= table[n, j]
        out += tmp
