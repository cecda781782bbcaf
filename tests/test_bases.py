"""Orthonormal bases: evaluation, Gram tails, and Ito-integral sampling."""

import hashlib
import threading
from functools import partial

import mpmath
import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy.special import roots_legendre

from chaoscal.bases import (
    BrownianDriver,
    LegendreBasis,
    PiecewiseConstantBasis,
    _interval_root,
    _PathBlocks,
    _run,
    _run_blocks,
    _walk_bytes,
    basis_eval,
    cell_index,
    gram_tail,
    sample_integrals,
)
from chaoscal import bases
from chaoscal import model as model_module
from chaoscal.errors import ValidationError

PW = PiecewiseConstantBasis.uniform(2.0, 4)
LEG = LegendreBasis(horizon=1.5, size=5)


class TestEval:
    def test_piecewise_indicator(self):
        d1 = PW.widths[0]
        assert basis_eval(PW, 1, d1 / 2) == pytest.approx(1 / np.sqrt(d1))
        assert basis_eval(PW, 1, PW.grid[1]) == pytest.approx(1 / np.sqrt(d1))
        # half-open cells: s=0 is outside cell 1, s just past s_1 is in cell 2
        assert basis_eval(PW, 1, 0.0) == 0.0
        assert basis_eval(PW, 1, PW.grid[1] + 1e-12) == 0.0
        assert basis_eval(PW, 2, PW.grid[1] + 1e-12) > 0.0

    def test_legendre_constant(self):
        for s in [0.0, 0.3, 1.5]:
            assert basis_eval(LEG, 1, s) == pytest.approx(np.sqrt(1 / 1.5))

    def test_legendre_third_at_midpoint(self):
        assert basis_eval(LEG, 3, 0.75) == pytest.approx(-np.sqrt(5 / 1.5) / 2)

    def test_index_range(self):
        with pytest.raises(ValidationError):
            basis_eval(PW, 0, 0.5)
        with pytest.raises(ValidationError):
            basis_eval(LEG, 6, 0.5)

    def test_cell_index_half_open(self):
        assert cell_index(PW, PW.grid[1]) == 1
        assert cell_index(PW, PW.grid[1] + 1e-12) == 2
        assert cell_index(PW, PW.horizon) == 4
        with pytest.raises(ValidationError):
            cell_index(PW, 0.0)

    @pytest.mark.parametrize("spec", [PW, LEG], ids=["piecewise", "legendre"])
    def test_orthonormality_by_quadrature(self, spec):
        # int_0^T h_i h_k = delta_ik, checked with a dense trapezoid rule
        s = np.linspace(0.0, spec.horizon, 40001)
        vals = np.array([basis_eval(spec, i, s) for i in range(1, spec.size + 1)])
        gram = np.trapezoid(vals[:, None, :] * vals[None, :, :], s, axis=-1)
        np.testing.assert_allclose(gram, np.eye(spec.size), atol=5e-5)

    def test_grid_validation(self):
        with pytest.raises(ValidationError):
            PiecewiseConstantBasis((0.0, 0.5, 0.5, 1.0))
        with pytest.raises(ValidationError):
            PiecewiseConstantBasis((0.1, 0.5, 1.0))


class TestNumpyLegendre:
    """numpy's Gauss-Legendre rule and series in place of scipy's."""

    @pytest.mark.parametrize("m", range(1, 16))
    def test_rule_matches_roots_legendre(self, m):
        x, w = leggauss(m)
        x_ref, w_ref = roots_legendre(m)
        assert np.abs(x - x_ref).max() <= 2e-15
        assert np.abs(w - w_ref).max() <= 2e-15

    def test_basis_values_match_exact_polynomials(self):
        # mpmath evaluates L_{i-1} exactly at the same double x; scipy's
        # eval_legendre is itself 5e-15 off by degree 11, so it is no oracle
        spec = LegendreBasis(horizon=2.0, size=12)
        s = np.linspace(0.0, 2.0, 201)
        x = 2.0 * s / spec.horizon - 1.0
        for i in range(1, spec.size + 1):
            scale = np.sqrt((2 * i - 1) / spec.horizon)
            exact = scale * np.array([float(mpmath.legendre(i - 1, float(v)))
                                      for v in x])
            err = np.abs(basis_eval(spec, i, s) - exact)
            assert np.all(err <= 2e-15 * scale + np.spacing(np.abs(exact)))


class TestGramTail:
    @pytest.mark.parametrize("spec", [PW, LEG], ids=["piecewise", "legendre"])
    def test_endpoints(self, spec):
        np.testing.assert_allclose(gram_tail(spec, 0.0), np.eye(spec.size), atol=1e-13)
        np.testing.assert_allclose(
            gram_tail(spec, spec.horizon), np.zeros((spec.size, spec.size)), atol=1e-13
        )

    def test_piecewise_diagonal(self):
        t = 1.2  # inside cell 3 of PW (cells of width 0.5)
        u = cell_index(PW, t)
        g = gram_tail(PW, t)
        want = np.diag([0.0, 0.0, (PW.grid[u] - t) / PW.widths[u - 1], 1.0])
        np.testing.assert_allclose(g, want, atol=1e-14)

    def test_legendre_against_dense_quadrature(self):
        t = 0.6
        g = gram_tail(LEG, t)
        s = np.linspace(t, LEG.horizon, 40001)
        vals = np.array([basis_eval(LEG, i, s) for i in range(1, LEG.size + 1)])
        dense = np.trapezoid(vals[:, None, :] * vals[None, :, :], s, axis=-1)
        np.testing.assert_allclose(g, dense, atol=5e-5)
        np.testing.assert_allclose(g, g.T, atol=1e-15)

    @pytest.mark.parametrize("spec", [PW, LEG], ids=["piecewise", "legendre"])
    def test_monotone_psd(self, spec):
        ts = np.linspace(0.0, spec.horizon, 7)
        for t0, t1 in zip(ts[:-1], ts[1:]):
            diff = gram_tail(spec, t0) - gram_tail(spec, t1)
            eigs = np.linalg.eigvalsh(diff)
            assert eigs.min() > -1e-12


class TestSampling:
    def test_time_zero_is_zero(self):
        drv = BrownianDriver(seed=1)
        out = sample_integrals(PW, drv, [0.0, 1.0], 16, d=2)
        np.testing.assert_array_equal(out[0], 0.0)
        assert out.shape == (2, 16, 8)

    def test_piecewise_terminal_is_standard_normal(self):
        drv = BrownianDriver(seed=7)
        out = sample_integrals(PW, drv, [PW.horizon], 1_000_000, d=1)[0]
        mean = out.mean(axis=0)
        cov = np.cov(out.T)
        se = 1 / np.sqrt(out.shape[0])
        assert np.max(np.abs(mean)) < 4 * se
        assert np.max(np.abs(cov - np.eye(4))) < 4 * 2 * se

    def test_legendre_terminal_covariance_identity(self):
        # Ito isometry + orthonormality: Cov(I^T) = Gram = identity (4 sigma).
        # The draws come from the exact interval covariance G(0) - G(T), so
        # the only error is Monte Carlo noise.
        drv = BrownianDriver(seed=21)
        spec = LegendreBasis(horizon=1.0, size=3)
        out = sample_integrals(spec, drv, [1.0], 400_000, d=1)[0]
        cov = np.cov(out.T)
        se = 2 / np.sqrt(out.shape[0])
        assert np.max(np.abs(cov - np.eye(3))) < 4 * se

    def test_ito_isometry_partial_time(self):
        # Var(int_0^t h_i dB) = 1 - G_ii(t), piecewise and Legendre
        drv = BrownianDriver(seed=5)
        for spec in [PW, LegendreBasis(horizon=1.5, size=3)]:
            t = 0.8 * spec.horizon
            out = sample_integrals(spec, drv, [t], 400_000, d=1)[0]
            var = out.var(axis=0)
            want = 1.0 - np.diag(gram_tail(spec, t))
            se = np.sqrt(2.0 / out.shape[0])  # SE of a unit-variance chi^2 mean
            assert np.max(np.abs(var - want)) < 4 * se

    def test_joint_consistency_across_times(self):
        # increments of I over [t0, t1] have variance G(t0) - G(t1) entrywise
        drv = BrownianDriver(seed=9)
        t0, t1 = 0.7, 1.6
        out = sample_integrals(PW, drv, [t0, t1], 300_000, d=1)
        inc = out[1] - out[0]
        var = inc.var(axis=0)
        want = np.diag(gram_tail(PW, t0)) - np.diag(gram_tail(PW, t1))
        assert np.max(np.abs(var - want)) < 4 * np.sqrt(2.0 / out.shape[1])

    def test_legendre_joint_consistency_across_times(self):
        # The increment I^{t1} - I^{t0} has the full covariance
        # G(t0) - G(t1) per Brownian component, off-diagonals included, is
        # uncorrelated across components, and is uncorrelated with I^{t0}.
        spec = LegendreBasis(horizon=1.5, size=4)
        t0, t1 = 0.6, 1.1
        out = sample_integrals(spec, BrownianDriver(seed=17), [t0, t1], 300_000, d=2)
        n = out.shape[1]
        past, inc = out[0], out[1] - out[0]
        c = gram_tail(spec, t0) - gram_tail(spec, t1)
        want = np.kron(np.eye(2), c)
        got = inc.T @ inc / n  # both means are 0 by construction
        var = np.diag(want)
        se = np.sqrt((np.outer(var, var) + want**2) / n)
        assert np.all(np.abs(got - want) < 4 * se)
        var_past = np.diag(np.kron(np.eye(2), np.eye(4) - gram_tail(spec, t0)))
        cross = inc.T @ past / n
        assert np.all(np.abs(cross) < 4 * np.sqrt(np.outer(var, var_past) / n))

    @pytest.mark.parametrize("spec", [
        PiecewiseConstantBasis((0.0, 0.1, 0.25, 0.6, 0.7, 1.3, 2.0)),
        LegendreBasis(horizon=2.0, size=4)], ids=["piecewise", "legendre"])
    def test_sparse_walk_is_the_dense_update(self, spec):
        # each interval adds its draws only into the positions its root rows
        # span; the dense einsum over every position gives the same bits,
        # also over intervals that span 3 or more cells (root rank >= 3)
        times = [0.05, 0.1, 0.1, 0.2, 0.65, 0.65, 1.9, 2.0]
        got = sample_integrals(spec, BrownianDriver(seed=23), times, 500, d=2, tags=(7,))
        gen = BrownianDriver(seed=23).generator(7, 0)  # (tags, block): one block
        acc = np.zeros((500, 2, spec.size))
        prev, g_prev, ranks = 0.0, gram_tail(spec, 0.0), []
        for ti, t in enumerate(times):
            if t > prev:
                g_t = gram_tail(spec, t)
                root = _interval_root(g_prev - g_t)
                ranks.append(root.shape[1])
                acc += np.einsum("pjr,ir->pji", gen.standard_normal((500, 2, root.shape[1])),
                                 root)
                prev, g_prev = t, g_t
            assert got[ti].tobytes() == acc.reshape(500, -1).tobytes()
        assert max(ranks) >= 3

    def test_array_over_the_byte_cap(self, monkeypatch):
        # the output and the walk's count, one byte over the cap, raise
        # naming n_paths before a stream is opened; at the cap it runs
        class NoStreams:
            def generator(self, *key):
                raise AssertionError("a stream was opened")

        times, n = [0.5, 1.0, 2.0], 3000
        need = 8 * 3 * n * 8 + _walk_bytes(PW, 2, 3, n)
        monkeypatch.setattr(model_module, "MAX_BYTES", need - 1)
        with pytest.raises(ValidationError, match=rf"n_paths = {n} at n_times = 3 need "
                                                  rf"{need} bytes"):
            sample_integrals(PW, NoStreams(), times, n, d=2)
        monkeypatch.setattr(model_module, "MAX_BYTES", need)
        assert sample_integrals(PW, BrownianDriver(1), times, n, d=2).shape == (3, n, 8)

    def test_a_trillion_paths_are_refused(self):
        # numpy's own error (58.2 TiB) was raised before
        with pytest.raises(ValidationError, match=r"n_paths = 1000000000000 at n_times = 2"):
            sample_integrals(PiecewiseConstantBasis.uniform(1.0, 4), BrownianDriver(0),
                             [0.5, 1.0], 10**12)

    def test_block_runner_raises_a_task_error(self):
        # a task's exception reaches the caller once the running tasks end
        def rows(k, cols, scratch):
            yield k

        def sink(cols, rows):
            if next(rows) == 1:
                raise ZeroDivisionError("block 1")

        blocks = _PathBlocks(10 * 64, 64, rows, [])
        for workers in (1, 2):
            with pytest.raises(ZeroDivisionError, match="block 1"):
                _run_blocks([(blocks, sink)], workers)

    def test_one_task_or_one_thread_runs_here(self, monkeypatch):
        # no pool is made: the tasks run on the calling thread in list
        # order, and the first error stops them
        def no_pool(workers):
            raise AssertionError("a thread pool was made")

        monkeypatch.setattr(bases, "ThreadPoolExecutor", no_pool)
        ran = []

        def task(value):
            ran.append(threading.get_ident())
            if value is None:
                raise ZeroDivisionError("task")
            return value

        assert _run([partial(task, 1), partial(task, 2)], 1) == [1, 2]
        assert _run([partial(task, 3)], 4) == [3]
        with pytest.raises(ZeroDivisionError, match="task"):
            _run([partial(task, 4), partial(task, None), partial(task, 5)], 1)
        assert ran == [threading.get_ident()] * 5

    def test_determinism_and_streams(self):
        drv = BrownianDriver(seed=42)
        a = sample_integrals(PW, drv, [1.0], 1000, d=2, tags=(3,))
        b = sample_integrals(PW, drv, [1.0], 1000, d=2, tags=(3,))
        assert hashlib.sha256(a.tobytes()).digest() == hashlib.sha256(b.tobytes()).digest()
        c = sample_integrals(PW, drv, [1.0], 1000, d=2, tags=(4,))
        assert not np.array_equal(a, c)

    def test_validation(self):
        drv = BrownianDriver(seed=1)
        with pytest.raises(ValidationError):
            sample_integrals(PW, drv, [3.0], 10)
        with pytest.raises(ValidationError):
            sample_integrals(PW, drv, [1.0, 0.5], 10)

    @pytest.mark.parametrize("seed, tag", [(-1, 0), (0, -2), (1.5, 0), (True, 0)])
    def test_driver_keys_are_nonnegative_integers(self, seed, tag):
        # the seed is checked when the driver is built, a tag by SeedSequence
        with pytest.raises((ValidationError, ValueError), match="non-?negative integer"):
            BrownianDriver(seed).generator(tag)

    def test_stream_keys_of_the_cli_are_distinct(self):
        # a key of at most 4 words (the seed and the 0 count) is padded with
        # zeros, so keys that differ only by trailing zeros share a stream;
        # the keys the commands draw for the desk must not: evaluation
        # (0, mi, 0|1), calibration (r, 3233, mi, 0|1), exotics (7001, k)
        # and (7002, k)
        drv = BrownianDriver(0)
        keys = ([(0, mi, j) for mi in range(5) for j in (0, 1)]
                + [(r, 3233, mi, j) for r in range(3) for mi in range(5) for j in (0, 1)]
                + [(tag, k) for tag in (7001, 7002) for k in range(4)])
        firsts = {tuple(drv.generator(*key).standard_normal(3)) for key in keys}
        assert len(firsts) == len(keys)
        # block 0 of a one-block simulator keeps the stream of its tags alone
        np.testing.assert_array_equal(drv.generator(7001).standard_normal(5),
                                      drv.generator(7001, 0).standard_normal(5))

    def test_short_interval_is_sampled_exactly(self):
        # An interval of 1e-4 needs no time resolution: its increment
        # variance is diag(G(0.5) - G(0.5 + 1e-4)), 4 SE per component.
        t0, t1 = 0.5, 0.5 + 1e-4
        out = sample_integrals(LEG, BrownianDriver(seed=1), [t0, t1], 100_000)
        inc = out[1] - out[0]
        want = np.diag(gram_tail(LEG, t0) - gram_tail(LEG, t1))
        got = (inc**2).mean(axis=0)  # the increment has mean 0
        assert np.all(np.abs(got - want) < 4 * want * np.sqrt(2.0 / inc.shape[0]))
