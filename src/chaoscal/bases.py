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
(seed, 0, *tags) through SeedSequence, so any (seed, tags) pair reproduces its
draws bit-for-bit regardless of what else was sampled.

The path simulators (`sample_integrals`, `model.path_grid`, the exotics
fold, `reference.heston_simulate`) step their paths in blocks of
_PATH_BLOCK: block k draws from its own stream, keyed (*tags, k), and steps
through every time before it is done.  `_run_blocks` runs each block as one
task on a pool of `_workers` threads, each task with a scratch set that no
other running task holds, and hands the block's rows to a sink, which
writes them into the block's columns of an output or, in the exotics
fold, reduces them to the block's payoff statistics.  One pool of scratch
sets serves every job of a call: each set has a slot for each array of
the widest job (`_pool_shapes`), allocated from the shapes that the
simulators' counts (`_job_bytes`) sum.  A block draws as it would alone
and every step is elementwise over its paths, so the bits do not depend on
the worker count or the order the tasks run in.
The runner under it, `_run`, also runs a fit's draws and pricing passes
(`calibrate`), one task a Monte Carlo maturity, on the one pool the fit
holds; a single task, or a single thread, runs on the calling thread.
"""

import math
import os
from concurrent.futures import Executor, ThreadPoolExecutor, wait
from dataclasses import dataclass
from functools import partial
from itertools import zip_longest

import numpy as np
from numpy.polynomial.legendre import leggauss, legval

from .errors import ValidationError

_PATH_BLOCK = 1 << 14  # paths of one stream block
_TASK_BYTES = 1 << 14  # Python objects a block or worker adds (about 4 KiB)
_TIME_BYTES = 384  # Python objects a time holds in roots or a schedule (360 B seen)


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
        if not self.horizon > 0:
            raise ValidationError(f"key 'horizon' must be positive, got {self.horizon}")
        if self.size < 1:
            raise ValidationError(f"key 'size' must be at least 1, got {self.size}")


@dataclass(frozen=True)
class BrownianDriver:
    """Counter-based Gaussian source keyed by (seed, *tags).

    It has no time resolution: every basis is sampled exactly from the
    interval covariances of its Ito integrals (see `sample_integrals`).

    A stream's key is the words (seed, 0, *tags), which SeedSequence pads
    with zeros to 4: keys of at most 4 words that differ only by trailing
    zeros share a stream, as generator(7001) and generator(7001, 0) do, so
    block 0 keyed (*tags, 0) draws what a stream keyed (*tags,) draws.
    """

    seed: int

    def __post_init__(self):
        seed = self.seed
        if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
            raise ValidationError(f"key 'seed' must be a nonnegative integer, got {seed!r}")

    def generator(self, *tags):
        # the 0 after the seed is part of every stream's key, so every seeded
        # result depends on it
        return np.random.Generator(
            np.random.Philox(np.random.SeedSequence((self.seed, 0) + tags))
        )


def cell_index(spec, t):
    """Cell u with t in (s_{u-1}, s_u], for t in (0, horizon]."""
    grid = np.asarray(spec.grid)
    if not 0.0 < t <= spec.horizon:
        raise ValidationError(f"t={t} outside (0, horizon {spec.horizon}]")
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
    unit = np.zeros(i)
    unit[-1] = 1.0  # L_{i-1} in the Legendre series
    val = np.sqrt((2 * i - 1) / spec.horizon) * legval(x, unit)
    return float(val) if np.ndim(val) == 0 else val


def gram_tail(spec, t):
    """G_{ik}(t) = int_t^T h_i h_k ds, an M x M symmetric PSD matrix."""
    if not 0.0 <= t <= spec.horizon:
        raise ValidationError(f"t={t} outside [0, {spec.horizon}]")
    m = spec.size
    if t == 0.0:
        # both families are orthonormal on [0, T]; an exact identity keeps
        # the (degenerate) factor of G(0) - G(T) free of quadrature round-off
        return np.eye(m)
    if isinstance(spec, PiecewiseConstantBasis):
        u = cell_index(spec, t)
        diag = np.ones(m)
        diag[: u - 1] = 0.0
        diag[u - 1] = (spec.grid[u] - t) / spec.widths[u - 1]
        return np.diag(diag)
    if t == spec.horizon:
        return np.zeros((m, m))
    # Polynomial integrand of degree <= 2(M-1): an M-node rule is exact.
    x, w = leggauss(m)
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


def _moved_span(root):
    """(lo, hi): the rows lo..hi-1 of an interval root span its nonzero rows.
    A zero row adds exact zeros, so skipping it leaves every sum's bits."""
    moved = np.flatnonzero(np.any(root != 0.0, axis=1))
    return (moved[0], moved[-1] + 1) if moved.size else (0, 0)


def sample_integrals(spec, driver, times, n_paths, d=1, tags=()):
    """Sample I^t = (int_0^t h_1 dB^1, ..., int_0^t h_M dB^d) jointly over times.

    Returns an array of shape (len(times), n_paths, M*d) in the flat j-major
    layout.  All requested times share one Brownian path per path index.

    Sampling is exact for every basis.  Over an interval (t_{k-1}, t_k] the
    increment of I^t is, independently for each Brownian component and of
    the past, N(0, G(t_{k-1}) - G(t_k)) with G the Gram tail.  Each block of
    _PATH_BLOCK paths draws from the stream keyed (*tags, block) and walks
    every time (`_run_blocks`): each interval of positive length draws
    (paths, d, rank) standard normals, in time order, and adds them through a
    root of that covariance into the positions its nonzero rows span; time 0
    and repeated times draw nothing.  For the piecewise-constant family the
    covariance is diagonal, so an interval inside one cell draws one normal
    per component and moves only that cell's position.  The combination runs
    in numpy's own einsum loop, so the bits do not depend on BLAS threading.
    The output and `_walk_bytes` are checked against `model.MAX_BYTES` before
    the first draw.
    """
    from .model import _check_held  # the model module imports this one

    roots = _interval_roots(spec, times)
    if n_paths < 1:
        raise ValidationError("n_paths must be >= 1")
    width = spec.size * d
    _check_held(8 * len(roots) * n_paths * width + _walk_bytes(spec, d, len(roots), n_paths),
                len(roots), n_paths)
    out = np.empty((len(roots), n_paths, width))

    def rows(k, cols, scratch):
        return _block_walk(roots, driver.generator(*tags, k), scratch, cols.stop - cols.start)

    def sink(cols, walk):
        for ti, acc in enumerate(walk):
            out[ti, cols] = acc.reshape(-1, width)

    shapes = _walk_shapes(spec.size, d, min(n_paths, _PATH_BLOCK), roots)
    _run_blocks([(_PathBlocks(n_paths, _PATH_BLOCK, rows, shapes), sink)], _workers(n_paths))
    return out


def _check_times(times):
    """times as a float array; ValidationError naming them unless they are a
    1-d array of finite numbers in ascending order.  Every entry point that
    takes monitoring times (the walk, the Heston rows, the exotics fold) runs
    it first: a NaN compares false both ways, so range and order checks
    alone let it through."""
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or not np.all(np.isfinite(times)):
        raise ValidationError(f"times must be a 1-d array of finite numbers, got {times}")
    if np.any(np.diff(times) < 0):
        raise ValidationError(f"times must be sorted ascending, got {times}")
    return times


def _interval_roots(spec, times):
    """Check the times (`_check_times`, within [0, horizon]); per time, None
    if it draws nothing (time 0, a repeat), else (lo, rows): the rows lo..
    of its interval root (`_interval_root`) that its moved span covers
    (`_moved_span`).  One call serves every block of paths."""
    times = _check_times(times).tolist()
    if any(t < 0 or t > spec.horizon for t in times):
        raise ValidationError(f"times must lie in [0, {spec.horizon}]")
    roots = []
    prev, g_prev = 0.0, gram_tail(spec, 0.0)
    for t in times:
        if t > prev:
            g_t = gram_tail(spec, t)
            root = _interval_root(g_prev - g_t)
            lo, hi = _moved_span(root)
            roots.append((lo, root[lo:hi]))
            prev, g_prev = t, g_t
        else:
            roots.append(None)
    return roots


def _walk_shapes(m, d, n, roots=None):
    """A walk's arrays for n paths (`_block_walk`): the running sum, and
    room for the normals of the interval of highest rank and the combination
    of the widest span among the `_interval_roots` roots (rank = span = M,
    the widest, if None); inside a piecewise cell both are one value."""
    drawn = [rows.shape for _, rows in filter(None, roots)] if roots is not None else [(m, m)]
    rank = max((shape[1] for shape in drawn), default=0)
    span = max((shape[0] for shape in drawn), default=0)
    return [(n, d, m), (n * d * rank,), (n * d * span,)]


def _block_walk(roots, gen, scratch, n):
    """Iterator over I^t of n paths at each time of `_interval_roots`, drawn
    from the generator gen into the leading rows of arrays of `_walk_shapes`:
    its running sum, (n, d, M), itself, valid until the next.  A time's
    normals are drawn path-major, so walks over consecutive row blocks from
    one generator give the rows of a single walk over all of them; only the
    positions from the first to the last nonzero root row move: inside a
    piecewise cell, one per component."""
    acc, z, tmp = scratch
    acc = acc[:n]
    acc[:] = 0.0
    d = acc.shape[1]
    for root in roots:
        if root is not None:
            lo, rows = root
            draw = z[: n * d * rows.shape[1]].reshape(n, d, rows.shape[1])
            gen.standard_normal(out=draw)
            inc = tmp[: n * d * rows.shape[0]].reshape(n, d, rows.shape[0])
            np.einsum("pjr,ir->pji", draw, rows, out=inc)
            acc[..., lo:lo + rows.shape[0]] += inc
        yield acc


def _bytes(shapes):
    """Bytes of float64 arrays of the given shapes."""
    return 8 * sum(math.prod(shape) for shape in shapes)


def _job_bytes(shapes, n_paths, block, workers):
    """Bytes a `_PathBlocks` job of n_paths paths in blocks of `block` holds
    on `workers` threads: `shapes` and _TASK_BYTES a worker and a block."""
    return workers * _bytes(shapes) + _TASK_BYTES * (-(-n_paths // block) + workers)


def _walk_bytes(spec, d, n_times, n_paths, shapes=None):
    """Bytes a walk of n_paths paths over n_times times holds: its job of
    `shapes` a worker (`_walk_shapes` at their widest if None), and its
    roots, M x M and _TIME_BYTES a time, with 4 M x M for the Gram tails and
    eigendecomposition that build one."""
    m = spec.size
    shapes = _walk_shapes(m, d, min(n_paths, _PATH_BLOCK)) if shapes is None else shapes
    return (_job_bytes(shapes, n_paths, _PATH_BLOCK, _workers(n_paths))
            + 8 * (n_times + 4) * m * m + _TIME_BYTES * n_times)


def _spans(n_rows, block):
    """(first, stop) row spans of length `block`, the last one shorter."""
    return [(a, min(a + block, n_rows)) for a in range(0, n_rows, block)]


def _threads(n_tasks):
    """Threads for n_tasks independent tasks: one a task, at most one a CPU
    this process may run on."""
    return min(n_tasks, len(os.sched_getaffinity(0)))


def _workers(n_paths):
    """Threads `_run_blocks` steps n_paths paths on: one a block of
    _PATH_BLOCK (`_threads`)."""
    return _threads(-(-n_paths // _PATH_BLOCK))


@dataclass(frozen=True)
class _PathBlocks:
    """A simulator's paths as `_run_blocks` steps them: n_paths columns in
    blocks of `block` (`_spans`); rows(k, cols, scratch) is an iterator over
    block k's rows, the columns cols at each time in order, each valid until
    the next; scratch is one worker's list of float64 arrays of `shapes`."""

    n_paths: int
    block: int
    rows: object
    shapes: list


def _run(tasks, pool, costs=None):
    """Run each callable of `tasks` as one task on `pool`, a thread pool, or
    on one made here of `pool` threads, and return their results in list
    order once every task has ended.  Tasks are submitted in list order, or
    by descending `costs` if given (ties in list order), so the longest
    start first.  The first exception in list order is raised, whatever
    order the tasks ran in; if the wait itself is interrupted, the tasks not
    yet started are dropped.  Given one task or one thread and no pool, the
    tasks run here in list order, up to the first that raises, and no thread
    is started."""
    if not tasks:
        return []
    if not isinstance(pool, Executor):
        if len(tasks) == 1 or pool <= 1:
            return [task() for task in tasks]
        with ThreadPoolExecutor(pool) as own:
            return _run(tasks, own, costs)
    order = range(len(tasks))
    if costs is not None:
        order = sorted(order, key=lambda i: -costs[i])
    futures = [None] * len(tasks)
    for i in order:
        futures[i] = pool.submit(tasks[i])
    try:
        wait(futures)
    finally:
        for f in futures:
            f.cancel()
    return [f.result() for f in futures]


def _pool_shapes(shapes):
    """One scratch set that serves jobs of each list of shapes in `shapes`:
    a flat array a slot, where the k-th largest array of every list takes
    slot k (`_places`), as long as the longest of them."""
    sizes = [sorted((math.prod(s) for s in job), reverse=True) for job in shapes]
    return [(max(slot),) for slot in zip_longest(*sizes, fillvalue=0)]


def _places(shapes):
    """The `_pool_shapes` slot of each shape of one job: the k-th largest
    takes slot k (ties in list order)."""
    order = sorted(range(len(shapes)), key=lambda i: -math.prod(shapes[i]))
    return [order.index(i) for i in range(len(shapes))]


def _run_blocks(jobs, workers):
    """Run every block of each (`_PathBlocks`, sink) job as one task on one
    pool of `workers` threads (`_run`), and return when all are done.  The
    call's scratch sets, one a worker up to the block count, are allocated
    here from `_pool_shapes` of every job's shapes, so they come from this
    thread's heap and each serves any job; a task takes one that no running
    task holds, views its slots as its job's shapes and calls
    sink(cols, rows) with the block's columns and row iterator.  The first
    exception a task raises, in block order, is raised here."""

    def task(blocks, places, sink, k, cols):
        scratch = free.pop()
        try:
            arrays = [scratch[i][:math.prod(s)].reshape(s)
                      for i, s in zip(places, blocks.shapes)]
            sink(cols, blocks.rows(k, cols, arrays))
        finally:
            free.append(scratch)

    tasks = []
    for blocks, sink in jobs:
        places = _places(blocks.shapes)
        tasks += [partial(task, blocks, places, sink, k, slice(a, b))
                  for k, (a, b) in enumerate(_spans(blocks.n_paths, blocks.block))]
    shapes = _pool_shapes([blocks.shapes for blocks, _ in jobs])
    free = [[np.empty(s) for s in shapes] for _ in range(min(workers, len(tasks)))]
    _run(tasks, workers)
