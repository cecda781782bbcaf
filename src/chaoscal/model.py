"""The Wiener chaos martingale model.

The terminal value is S_T = S_0 + sum_a d_a Phi_a over the truncated index
set, and the price process is the martingale S_t = E[S_T | F_t].  Everything
downstream (pricing, calibration) works with per-path *feature rows* whose
columns are samples of E[Phi_a | F_T]; S_T is then an affine function
S_0 + features @ coefficients, and gradients in the coefficients are exact.

Feature rows are built in row blocks (`_feature_blocks`) from one Hermite
plan per (indices, Gram tail).  Calibration writes the blocks into one
matrix (`sample_features`), since its price Jacobian needs every row; it
keeps only the columns that can be nonzero at the maturity
(`_live_columns`) and redraws one such matrix in place at each
resimulation.  Pricing sums each block of draws to S_T at once
(`_sample_terminal`), through the feature plan's `_collapse`, so it builds
no feature row; its bits agree with `terminal_values` to rounding only.
`_path_rows` gives the model's paths as blocks for `bases._run_blocks`, for
the exotics fold in `reference` or for `path_grid`, and builds no feature
rows on any basis: each cell sums the chaos onto a polynomial in its
running positions once, and each time evaluates it.

Each kernel states its arrays once, as shapes for given sizes
(`_draw_shapes`, `_terminal_shapes`, `_rows_shapes`): it allocates from
them, one set a call or a worker whatever the path count, and its byte
count, checked against MAX_BYTES before the first draw, sums them.

Every product `features @ coefficients` of a held matrix, the quadrature
nodes' and `terminal_values`', runs over row blocks that start at
multiples of 1024 rows and hold at most 16384 (`_row_dot`); a fit's Monte
Carlo passes form theirs in numpy's einsum instead (`pricing._terminal`),
since they run on worker threads, where no threaded BLAS may run.
OpenBLAS splits the rows of a matrix-vector product across its threads,
and at odd row counts the split moved the last bits: at 100003
paths, the desk model's terminal values hashed one way under 1 thread and
another under 2 and 4 (at 100000 they agreed).  Products over such aligned
blocks reproduced the 1-thread bits under 1 to 4 threads at 100003, 200001
and 1000003 rows; blocks of 32768 and 65536 rows did not always.  So the
blocks change no bits at the path counts where threads agreed before, and
remove the thread dependence at the others.

For the piecewise-constant basis the second moment is closed-form:

    E[(S_T)^2] = S_0^2 + sum_a d_a^2 * prod_e v_e^{a_e} / a!,

v = 1 - diag G(T) the variance each Ito integral has accrued by T (0 after
T's cell, which annihilates indices supported there).  Negative sample paths
are permitted by construction; nothing clamps them.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bases import (
    _PATH_BLOCK,
    _TIME_BYTES,
    PiecewiseConstantBasis,
    _block_walk,
    _bytes,
    _check_times,
    _interval_roots,
    _PathBlocks,
    _run_blocks,
    _spans,
    _walk_bytes,
    _walk_shapes,
    _workers,
    cell_index,
    gram_tail,
)
from .conditional import _cell_plan, _cell_rows, _collapse, _plan_rows, _plan_rows_bytes
from .errors import ValidationError
from .indices import _set_bytes, enumerate_indices, index_space_dim

MAX_BYTES = 1 << 30  # cap on the arrays one command holds at once
_BLOCK_BYTES = 8 << 20  # cap on one block of feature rows and its scratch
# cap on the Hermite table `_collapse` builds for one chunk of a path block,
# which every worker holds in its scratch set
_CHUNK_BYTES = 1 << 20
_ROW_ALIGN = 1024  # every row block starts at a multiple of this
_MAX_BLOCK_ROWS = _PATH_BLOCK  # 16 * _ROW_ALIGN
_PLANS = 256  # plans `_plan` keeps


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

    @property
    def indices(self):
        return enumerate_indices(self.p, self.m, self.d)

    def with_coefficients(self, theta):
        return ChaosModel(self.s0, self.p, self.m, self.d, self.basis, theta)


@dataclass(frozen=True)
class FeatureBlock:
    maturity: float
    features: np.ndarray  # (n_paths, n_indices), or the live columns; enumeration order


def _block_rows(p, m, d):
    """Rows per feature block: as many rows of features, normals, their copy
    and Hermite table as fit in _BLOCK_BYTES, rounded down to a multiple of
    _ROW_ALIGN, and within [_ROW_ALIGN, _MAX_BLOCK_ROWS]."""
    row = 8 * (index_space_dim(p, m, d) + (p + 3) * m * d)
    rows = _BLOCK_BYTES // row // _ROW_ALIGN * _ROW_ALIGN
    return min(_MAX_BLOCK_ROWS, max(_ROW_ALIGN, rows))


def _row_dot(features, theta):
    """features @ theta in row blocks of _MAX_BLOCK_ROWS: the 1-thread BLAS
    bits at any thread count (see the module docstring).  It serves the
    quadrature nodes and `terminal_values`, on the calling thread."""
    out = np.empty(features.shape[0])
    for a, b in _spans(len(out), _MAX_BLOCK_ROWS):
        out[a:b] = features[a:b] @ theta
    return out


@lru_cache(maxsize=_PLANS)
def _plan(p, m, d, basis, t, running):
    """The `conditional._Plan` at t over the positions `running`, a tuple:
    () for feature rows, a cell's running positions for path rows."""
    return _cell_plan(enumerate_indices(p, m, d), gram_tail(basis, t), d, running)


def _index_bytes(p, m, d, n_plans):
    """Bytes the index layer may hold with n_plans plans alive: the
    enumerated set (`_set_bytes`), at most 512 bytes a column per plan, and
    the larger of a plan build's M x M matrices (4 in the Legendre `gram_tail`)
    and couplings, within M^2 + 3 (d + 1) q words for q = M (M + 1) / 2, and
    the n x M*d exponent and power tables of `second_moment_coeffs`."""
    n = index_space_dim(p, m, d) - 1
    build = m * m + 3 * (d + 1) * m * (m + 1) // 2
    return _set_bytes(p, m, d) + 8 * (64 * n * n_plans + max(build, 2 * n * m * d))


def _feature_plan(model, t):
    """The Hermite plan of the model's features at t, which runs no
    position, built once per model structure and time."""
    return _plan(model.p, model.m, model.d, model.basis, float(t), ())


def _live_columns(model, t):
    """Enumeration positions of the feature columns at t that can be nonzero:
    those with terms in the plan.  The piecewise basis annihilates every
    index with an exponent in a cell after t's, which leaves
    index_space_dim(p, u, d) - 1 of them at t in cell u."""
    return _feature_plan(model, t).live


def _draw_shapes(basis, m, d, rows, roots=None):
    """A feature draw's arrays for a block of `rows` rows: the normals on
    the piecewise basis, a walk's arrays (`bases._walk_shapes`) on others."""
    if isinstance(basis, PiecewiseConstantBasis):
        return [(rows, m * d)]
    return _walk_shapes(m, d, rows, roots)


def _feature_blocks(model, t, n_paths, driver, tags=(), out=None, live=False):
    """Check the arguments; return an iterator over (first row, x) blocks of
    the draws under the E[Phi_a | F_t] matrix that `sample_features`
    returns: x holds the normalized values I^t / sqrt(v) on the piecewise
    basis, I^t on the others, (rows, M*d), valid until the next block.  If
    `out` is given, each block's rows of that matrix (its `_live_columns`
    only if `live`) are written into its rows of `out` before the block is
    yielded.

    Piecewise basis: exact, from iid standard normals (full-cell increments
    below the running cell, the normalized partial increment at it).  Other
    bases: the Dyson series on exactly drawn Ito integrals I^t.  Every block
    draws after the one before from one generator, so the blocks are the
    rows of a single draw, bit for bit, into one set of `_draw_shapes`."""
    if not 0.0 < t <= model.horizon:
        raise ValidationError(f"maturity {t} outside (0, {model.horizon}]")
    if n_paths < 1:
        raise ValidationError("n_paths must be >= 1")
    plan = _feature_plan(model, t)
    piecewise = isinstance(model.basis, PiecewiseConstantBasis)
    roots = None if piecewise else _interval_roots(model.basis, [t])
    size = min(n_paths, _block_rows(model.p, model.m, model.d))
    draws = [np.empty(shape)
             for shape in _draw_shapes(model.basis, model.m, model.d, size, roots)]

    def blocks():
        gen = driver.generator(*tags)
        for a, b in _spans(n_paths, size):
            if piecewise:
                x = draws[0][: b - a]
                gen.standard_normal(out=x)
            else:  # a walk of one time
                x = next(_block_walk(roots, gen, draws, b - a)).reshape(b - a, -1)
            if out is not None:
                _plan_rows(plan, x, normalized=piecewise, out=out[a:b], live=live)
            yield a, x

    return blocks()


def _features_bytes(model, n_paths, width):
    """Bytes `sample_features` holds: its (n_paths, width) matrix, a block's
    draws and `_plan_rows` temporaries, and the index layer with one plan."""
    p, m, d = model.p, model.m, model.d
    n = max(n_paths, 0)
    rows = min(n, _block_rows(p, m, d))
    return (8 * n * width + _bytes(_draw_shapes(model.basis, m, d, rows))
            + _plan_rows_bytes(p, m * d, rows) + _index_bytes(p, m, d, 1))


def sample_features(model, t, n_paths, driver, tags=(), live=False, out=None):
    """Sample E[Phi_a | F_t] for every index, or for the `_live_columns` at t
    only if `live`; the offline matrix reused across calibration iterations,
    written block by block (`_feature_blocks`) into `out` if given, which
    must be the (n_paths, width) float64 column-major matrix the call would
    return (ValidationError naming both shapes otherwise), so a fit redraws
    one buffer.  Without `out`, what it holds (`_features_bytes`) is
    checked against MAX_BYTES before the matrix is allocated."""
    width = len(_live_columns(model, t)) if live else len(model.indices)
    if out is None:  # a bad n_paths is reported by _feature_blocks, not by numpy
        _check_held(_features_bytes(model, n_paths, width), 1, n_paths)
        out = np.empty((max(n_paths, 0), width), order="F")
    elif (out.shape != (n_paths, width) or out.dtype != np.float64
          or not out.flags.f_contiguous):
        layout = "column-major" if out.flags.f_contiguous else "not column-major"
        raise ValidationError(f"out is a {out.shape} {out.dtype} array, {layout}; "
                              f"expected ({n_paths}, {width}) float64, column-major")
    for _ in _feature_blocks(model, t, n_paths, driver, tags, out=out, live=live):
        pass  # each block writes its rows into out
    return FeatureBlock(float(t), out)


def _terminal_shapes(p, m, d, basis, n_paths):
    """`_sample_terminal`'s arrays beside S_t, at their widest: a block of
    draws (`_draw_shapes`) and the `_collapse` work (`_work`)."""
    rows = min(n_paths, _block_rows(p, m, d))
    return _draw_shapes(basis, m, d, rows) + [(_work(p, m, d, n_paths),)]


def _sample_terminal(model, t, n_paths, driver, tags=(), out=None):
    """S_t samples on the streams of `sample_features`, written into `out`
    if given: each block of draws is summed at the coefficients through the
    feature plan (`_collapse`, in `_collapse_rows` chunks), so no feature
    row is built; beside S_t it holds `_terminal_shapes`.  Its products sum
    in another order than `terminal_values` does, so the two agree to
    rounding, not bit for bit; each row is summed on its own, in numpy's
    elementwise loops, so the bits depend on neither the block size nor
    BLAS."""
    blocks = _feature_blocks(model, t, n_paths, driver, tags)  # checks t and n_paths
    plan = _feature_plan(model, t)
    normalized = isinstance(model.basis, PiecewiseConstantBasis)
    s = np.empty(n_paths) if out is None else out
    work = np.empty(_work(model.p, model.m, model.d, n_paths))
    chunk = _collapse_rows(model.p, model.m, model.d)
    for a, x in blocks:
        for b, c in _spans(len(x), chunk):
            _collapse(plan, model.coefficients, x[b:c], s[None, a + b:a + c], work,
                      normalized)
    s += model.s0
    return s


def terminal_values(model, block):
    """S_t samples: S_0 + features @ coefficients."""
    if block.features.shape[1] != model.coefficients.shape[0]:
        raise ValidationError(
            f"block has {block.features.shape[1]} columns, model "
            f"{model.coefficients.shape[0]} coefficients"
        )
    return model.s0 + _row_dot(block.features, model.coefficients)


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


def _cell(basis, d, t):
    """(end, running) of the cell holding t > 0: its end, and the positions
    (M*d layout) whose integrals move over it.  A piecewise cell moves its
    own position in each component and freezes the rest (every position on a
    grid of one cell).  A Legendre basis has no cells on which positions
    freeze, so each time is a cell of its own, ending at t, over which no
    position runs.  The positions are a tuple, a key of `_plan`."""
    if not isinstance(basis, PiecewiseConstantBasis):
        return t, ()
    u = cell_index(basis, t)
    return basis.grid[u], tuple(basis.size * j + u - 1 for j in range(d))


def _collapse_rows(p, m, d):
    """Rows a `_collapse` call takes at once: as many as keep its work (at
    most (p + 1) M d + 1 values a row) within _CHUNK_BYTES, rounded down to
    a multiple of _ROW_ALIGN, within [_ROW_ALIGN, _PATH_BLOCK]."""
    rows = _CHUNK_BYTES // (8 * ((p + 1) * m * d + 1)) // _ROW_ALIGN * _ROW_ALIGN
    return min(_PATH_BLOCK, max(_ROW_ALIGN, rows))


def _work(p, m, d, n_paths):
    """Values of a `_path_rows` worker's work buffer at n_paths paths: the
    larger of `_cell_rows`' at a block (at most (p + 2) d + 1 values a path)
    and `_collapse`'s at a `_collapse_rows` chunk (at most (p + 1) M d + 1
    values a row)."""
    block, rows = min(n_paths, _PATH_BLOCK), min(n_paths, _collapse_rows(p, m, d))
    return max(((p + 2) * d + 1) * block, ((p + 1) * m * d + 1) * rows)


def _patterns(model):
    """The most patterns a cell plan of the model has: the
    exponent tuples of degree <= p over the d positions a piecewise cell
    runs, and the one pattern () of a Legendre time, which runs none."""
    if isinstance(model.basis, PiecewiseConstantBasis):
        return math.comb(model.p + model.d, model.d)
    return 1


def _rows_shapes(model, n_paths, roots=None):
    """A `_path_rows` worker's scratch: a block's walk (`bases._walk_shapes`),
    Q array (`_patterns` rows) and the work buffer (`_work`), and on the
    piecewise basis a row, which a Legendre time's Q_0 is."""
    size = min(n_paths, _PATH_BLOCK)
    row = [(size,)] if isinstance(model.basis, PiecewiseConstantBasis) else []
    return _walk_shapes(model.m, model.d, size, roots) + [
        (_patterns(model), size), (_work(model.p, model.m, model.d, n_paths),)] + row


def _rows_bytes(model, n_times, n_paths, shapes=None):
    """Bytes `_path_rows` holds: its walk with `shapes` a worker
    (`_rows_shapes` if None), _TIME_BYTES a time of its schedule, and the
    index layer with the plans the schedule holds, one a cell (a time on
    Legendre), and as many more that pricing may have cached, up to
    _PLANS."""
    p, m, d = model.p, model.m, model.d
    cells = min(n_times, m) if isinstance(model.basis, PiecewiseConstantBasis) else n_times
    shapes = _rows_shapes(model, n_paths) if shapes is None else shapes
    return (_walk_bytes(model.basis, d, n_times, n_paths, shapes)
            + _TIME_BYTES * n_times + _index_bytes(p, m, d, cells + min(cells, _PLANS)))


def _check_held(need, n_times, n_paths):
    """Raise ValidationError if need bytes for n_times rows of n_paths paths
    are over MAX_BYTES."""
    if need > MAX_BYTES:
        raise ValidationError(f"n_paths = {n_paths} at n_times = {n_times} need "
                              f"{need} bytes, above the {MAX_BYTES}-byte cap")


def _check_grid(model, n_times, n_paths):
    """Raise ValidationError if `path_grid` would hold over MAX_BYTES: its
    output and what `_path_rows` holds."""
    _check_held(8 * n_paths * n_times + _rows_bytes(model, n_times, n_paths), n_times,
                n_paths)


def _path_rows(model, times, n_paths, driver, tags=()):
    """Check the times and n_paths; return the `bases._PathBlocks` of
    `path_grid`: block k of _PATH_BLOCK paths yields S_t at each time in
    order, into one row of its worker's scratch.

    Each block draws its integrals as `sample_integrals` draws them, from
    the stream keyed (*tags, k), one time at a time, so only one time's
    slice is held.  Time 0 draws nothing and its row is exactly S_0, so the
    other rows are those of the grid without it.  It holds `_rows_bytes`,
    never the grid.

    Over t's cell (`_cell`) the chaos sum is a polynomial in the running
    positions' integrals whose coefficients hold still: the plan at each
    cell's end, split over them, is cached (`_plan`), and at the cell's first
    time a block sums its frozen factors into the Q arrays (`_collapse`, in
    `_collapse_rows` chunks); each time evaluates that polynomial over the
    block (`_cell_rows`).  On Legendre every time is its own cell, its row
    is Q_0, yielded as it is, and no position runs, so it needs neither a
    Gram tail nor more than one Q row, and the schedule holds every time's
    plan.  Time 0 yields Q_0 filled with S_0, since the next time opens a
    cell.  The walk, the
    Q arrays and both kernels' Hermite tables live in the worker's scratch
    set (`_rows_shapes`), so a block allocates nothing on its thread: with
    the tables allocated there, each worker thread's heap kept them, and the
    desk_eval benchmark's peak RSS read 64.5 MB against 59.5 MB (2 CPUs,
    numpy 2.4).
    """
    times = _check_times(times)
    roots = _interval_roots(model.basis, times)
    if n_paths < 1:
        raise ValidationError("n_paths must be >= 1")
    d, still = model.d, np.empty(0)
    schedule, end = [], 0.0  # per time: None at 0, else (cell, opens it, v)
    for t in times.tolist():
        if t == 0.0:  # every feature vanishes; the Legendre G(0) is I only to round-off
            schedule.append(None)
            continue
        opens = t > end
        if opens:
            end, running = _cell(model.basis, d, t)
            cell = _plan(model.p, model.m, d, model.basis, end, running)
        v = (np.tile(1.0 - np.diag(gram_tail(model.basis, t)), d)[cell.running]
             if running else still)
        schedule.append((cell, opens, v))
    chunk = _collapse_rows(model.p, model.m, d)

    def rows(k, cols, scratch):
        n = cols.stop - cols.start
        walk = _block_walk(roots, driver.generator(*tags, k), scratch[:3], n)
        q, work, row = scratch[3][:, :n], scratch[4], scratch[5:]
        for acc, step in zip(walk, schedule):
            if step is None:
                q[0] = model.s0
                yield q[0]
                continue
            cell, opens, v = step
            ints = acc.reshape(n, -1)
            if opens:
                for a, b in _spans(n, chunk):
                    _collapse(cell, model.coefficients, ints[a:b], q[:, a:b], work)
                q[0] += model.s0
            if not cell.running.size:
                yield q[0]
                continue
            _cell_rows(cell, q, ints, v, row[0][:n], work)
            yield row[0][:n]

    return _PathBlocks(n_paths, _PATH_BLOCK, rows, _rows_shapes(model, n_paths, roots))


def path_grid(model, times, n_paths, driver, tags=()):
    """Jointly consistent S_t samples at the given times, shape (n_times, n_paths).

    All times share one Brownian path per path index (needed for exotics).
    The rows are those of `_path_rows`, each block's written into its
    columns as it steps (`bases._run_blocks`): one plan per cell (per
    time on Legendre) and a small polynomial per time.  Block k draws from
    the stream keyed (*tags, k).  `_check_grid` runs first.
    """
    _check_grid(model, len(times), n_paths)
    blocks = _path_rows(model, times, n_paths, driver, tags)  # checks the times and n_paths
    out = np.empty((len(times), n_paths))

    def sink(cols, rows):
        for ti, row in enumerate(rows):
            out[ti, cols] = row

    _run_blocks([(blocks, sink)], _workers(n_paths))
    return out
