"""Chaos model: feature sampling, terminal values, second moment, path grids."""

import numpy as np
import pytest
from scipy.linalg import block_diag

from chaoscal.bases import (
    BrownianDriver,
    LegendreBasis,
    PiecewiseConstantBasis,
    _block_walk,
    _interval_roots,
    _walk_shapes,
    cell_index,
    gram_tail,
    sample_integrals,
)
from chaoscal import model as model_module
from chaoscal.conditional import _cell_plan, dyson_features
from chaoscal.errors import ValidationError
from chaoscal.indices import enumerate_indices, phi_eval
from chaoscal.model import (
    ChaosModel,
    FeatureBlock,
    path_grid,
    sample_features,
    second_moment,
    second_moment_coeffs,
    terminal_values,
)

PW = PiecewiseConstantBasis.uniform(2.0, 4)


def assert_ulps(got, want, ulps=4):
    """got equals want within `ulps` units in the last place of max |want|."""
    assert np.abs(got - want).max() <= ulps * np.spacing(np.abs(want).max())


def make_model(seed=0, scale=0.3, basis=PW, p=2, d=1, s0=100.0):
    n = len(enumerate_indices(p, basis.size, d))
    rng = np.random.default_rng(seed)
    return ChaosModel(s0, p, basis.size, d, basis, scale * rng.standard_normal(n))


class TestConstruction:
    def test_coefficient_length_checked(self):
        with pytest.raises(ValidationError):
            ChaosModel(100.0, 2, 4, 1, PW, np.zeros(3))

    def test_nonfinite_rejected(self):
        n = len(enumerate_indices(2, 4, 1))
        theta = np.zeros(n)
        theta[0] = np.nan
        with pytest.raises(ValidationError):
            ChaosModel(100.0, 2, 4, 1, PW, theta)

    def test_basis_size_consistency(self):
        with pytest.raises(ValidationError):
            ChaosModel(100.0, 2, 5, 1, PW, np.zeros(len(enumerate_indices(2, 5, 1))))


class TestSampleFeatures:
    def test_terminal_piecewise_is_phi(self):
        model = make_model(d=2)
        drv = BrownianDriver(seed=3)
        block = sample_features(model, model.horizon, 200, drv)
        # At T = horizon the features are Phi_a of the drawn normals; verify
        # every column against phi_eval on reconstructed draws.
        z = drv.generator().standard_normal((200, model.m * model.d))
        for col, a in enumerate(model.indices):
            np.testing.assert_allclose(block.features[:, col], phi_eval(a, z), atol=1e-12)

    def test_terminal_legendre_is_phi(self):
        leg = LegendreBasis(horizon=1.0, size=2)
        model = make_model(basis=leg, p=2, d=1)
        drv = BrownianDriver(seed=4)
        block = sample_features(model, 1.0, 50, drv)
        ints = sample_integrals(leg, drv, [1.0], 50, d=1)[0]
        for col, a in enumerate(model.indices):
            np.testing.assert_allclose(block.features[:, col], phi_eval(a, ints), atol=1e-12)

    def test_annihilated_columns_exact_zero(self):
        model = make_model(d=1)
        block = sample_features(model, 0.3, 64, BrownianDriver(seed=5))  # cell 1
        for col, a in enumerate(model.indices):
            if any(n > 0 for e, n in enumerate(a.exponents) if e >= 1):
                assert np.all(block.features[:, col] == 0.0)

    def test_column_means_martingale(self):
        model = make_model(d=2)
        block = sample_features(model, 1.3, 1_000_000, BrownianDriver(seed=6))
        means = block.features.mean(axis=0)
        ses = block.features.std(axis=0) / np.sqrt(block.features.shape[0])
        alive = block.features.any(axis=0)
        assert np.all(np.abs(means[alive]) < 4 * ses[alive])

    def test_maturity_domain(self):
        model = make_model()
        with pytest.raises(ValidationError):
            sample_features(model, 2.5, 10, BrownianDriver(seed=1))

    @pytest.mark.parametrize("shape, dtype, order", [
        ((200, 44), np.float64, "F"), ((100, 50), np.float64, "F"),
        ((90, 44), np.float64, "F"), ((100, 44), np.float32, "F"),
        ((100, 44), np.float64, "C")])
    def test_out_must_be_the_matrix_it_would_return(self, shape, dtype, order):
        # 100 paths of 44 columns: a taller out came back with rows never
        # written, a wider one with stale columns, a shorter one raised
        # numpy's broadcast error; now each raises before anything is drawn
        model = make_model(d=2)
        out = np.zeros(shape, dtype=dtype, order=order)
        name = np.dtype(dtype).name
        with pytest.raises(ValidationError, match=rf"^out is a \({shape[0]}, {shape[1]}\) "
                                                  rf"{name} array, .*; expected \(100, 44\) "
                                                  r"float64, column-major$"):
            sample_features(model, 1.0, 100, BrownianDriver(seed=1), out=out)
        assert not out.any()

    def test_out_receives_the_matrix(self):
        model = make_model(d=2)
        live = model_module._live_columns(model, 0.3)
        assert len(live) == 5  # degree <= 2 in the first cell's 2 positions
        out = np.empty((100, len(live)), order="F")
        block = sample_features(model, 0.3, 100, BrownianDriver(seed=1), live=True, out=out)
        assert block.features is out
        full = sample_features(model, 0.3, 100, BrownianDriver(seed=1)).features
        np.testing.assert_array_equal(out, full[:, live])


class TestTerminalValues:
    def test_zero_theta_constant(self):
        model = make_model()
        model = model.with_coefficients(np.zeros_like(model.coefficients))
        block = sample_features(model, 1.0, 100, BrownianDriver(seed=2))
        np.testing.assert_array_equal(terminal_values(model, block), 100.0)

    def test_single_first_order_unit_variance(self):
        # unit coefficient on a_1^1 = 1 at T = s_1: S = S_0 + Z, Z ~ N(0,1)
        idx = enumerate_indices(2, 4, 1)
        theta = np.zeros(len(idx))
        col = next(i for i, a in enumerate(idx) if a.exponents == (1, 0, 0, 0))
        theta[col] = 1.0
        model = ChaosModel(100.0, 2, 4, 1, PW, theta)
        block = sample_features(model, PW.grid[1], 400_000, BrownianDriver(seed=8))
        s = terminal_values(model, block)
        assert abs(s.mean() - 100.0) < 4 * s.std() / np.sqrt(s.size)
        assert abs(s.var() - 1.0) < 4 * np.sqrt(2.0 / s.size)

    def test_mean_is_s0(self):
        model = make_model(seed=12, d=2)
        block = sample_features(model, 1.7, 500_000, BrownianDriver(seed=9))
        s = terminal_values(model, block)
        assert abs(s.mean() - model.s0) < 4 * s.std() / np.sqrt(s.size)

    def test_shape_mismatch(self):
        model = make_model()
        bad = FeatureBlock(1.0, np.zeros((10, 3)))
        with pytest.raises(ValidationError):
            terminal_values(model, bad)


class TestSecondMoment:
    def test_zero_theta(self):
        model = make_model()
        model = model.with_coefficients(np.zeros_like(model.coefficients))
        assert second_moment(model, 1.0) == pytest.approx(100.0**2)

    def test_single_first_order(self):
        idx = enumerate_indices(2, 4, 1)
        theta = np.zeros(len(idx))
        col = next(i for i, a in enumerate(idx) if a.exponents == (1, 0, 0, 0))
        theta[col] = 0.7
        model = ChaosModel(100.0, 2, 4, 1, PW, theta)
        assert second_moment(model, PW.grid[1]) == pytest.approx(100.0**2 + 0.7**2)

    @pytest.mark.parametrize("t", [0.3, 1.0, 1.7, 2.0])
    def test_matches_monte_carlo(self, t):
        model = make_model(seed=21, scale=5.0, d=2)
        block = sample_features(model, t, 1_000_000, BrownianDriver(seed=10))
        s2 = terminal_values(model, block) ** 2
        want = second_moment(model, t)
        assert abs(s2.mean() - want) < 4 * s2.std() / np.sqrt(s2.size)

    def test_gradient_coeffs(self):
        # d m2 / d theta = 2 theta * c, checked by finite differences
        model = make_model(seed=3, scale=2.0)
        t = 1.2
        c = second_moment_coeffs(model, t)
        eps = 1e-6
        for k in [0, 3, len(c) - 1]:
            up = model.coefficients.copy()
            dn = model.coefficients.copy()
            up[k] += eps
            dn[k] -= eps
            fd = (
                second_moment(model.with_coefficients(up), t)
                - second_moment(model.with_coefficients(dn), t)
            ) / (2 * eps)
            assert fd == pytest.approx(2 * model.coefficients[k] * c[k], abs=1e-6)

    def test_coeffs_match_per_cell_form(self):
        # reference: tau^(exponents on t's cell) / a!, 0 if supported after it
        model = make_model(d=2)
        for t in [0.3, 0.5, 1.1, 1.9, 2.0]:
            u = cell_index(PW, t)
            tau = (t - PW.grid[u - 1]) / PW.widths[u - 1]
            want = []
            for a in model.indices:
                cells = [(e % 4 + 1, n) for e, n in enumerate(a.exponents) if n > 0]
                dead = any(i > u for i, _ in cells)
                want.append(0.0 if dead else tau ** sum(n for i, n in cells if i == u) / a.factorial)
            np.testing.assert_allclose(second_moment_coeffs(model, t), want, rtol=1e-14, atol=0)

    def test_legendre_unsupported(self):
        leg = LegendreBasis(horizon=1.0, size=2)
        model = make_model(basis=leg)
        with pytest.raises(ValidationError):
            second_moment(model, 0.5)


class TestPathGrid:
    def test_terminal_matches_terminal_values(self):
        model = make_model(seed=5, d=2)
        drv = BrownianDriver(seed=11)
        paths = path_grid(model, [model.horizon], 500, drv, tags=(1,))
        # same stream, same draws: features at T reduce to Phi_a of the
        # terminal integrals, identical to a sample_features pass would give
        # via sample_integrals; here just check martingale + reproducibility
        paths2 = path_grid(model, [model.horizon], 500, drv, tags=(1,))
        np.testing.assert_array_equal(paths, paths2)

    def test_zero_theta_constant_paths(self):
        model = make_model()
        model = model.with_coefficients(np.zeros_like(model.coefficients))
        paths = path_grid(model, [0.5, 1.0, 2.0], 50, BrownianDriver(seed=12))
        np.testing.assert_array_equal(paths, 100.0)

    def test_martingale_means_along_grid(self):
        model = make_model(seed=31, scale=1.0, d=2)
        times = [0.25, 0.8, 1.4, 2.0]
        paths = path_grid(model, times, 400_000, BrownianDriver(seed=13))
        for row in paths:
            assert abs(row.mean() - model.s0) < 4 * row.std() / np.sqrt(row.size)

    def test_increment_uncorrelated_with_past(self):
        # Cov(S_t' - S_t, S_t) = 0 within 4 SE (martingale increments)
        model = make_model(seed=41, scale=1.0)
        paths = path_grid(model, [0.7, 1.6], 400_000, BrownianDriver(seed=14))
        inc = paths[1] - paths[0]
        x = paths[0] - paths[0].mean()
        cov = (inc * x).mean()
        se = np.std(inc * x) / np.sqrt(inc.size)
        assert abs(cov) < 4 * se

    def test_legendre_path_grid_martingale(self):
        leg = LegendreBasis(horizon=1.0, size=2)
        model = make_model(seed=51, scale=1.0, basis=leg, p=2)
        drv = BrownianDriver(seed=15)
        paths = path_grid(model, [0.5, 1.0], 100_000, drv)
        for row in paths:
            assert abs(row.mean() - model.s0) < 4 * row.std() / np.sqrt(row.size)

    @pytest.mark.parametrize("basis", [PiecewiseConstantBasis.uniform(2.0, 3),
                                       LegendreBasis(horizon=2.0, size=3)],
                             ids=["piecewise", "legendre"])
    def test_streamed_grid_is_the_kernel_on_sampled_integrals(self, basis):
        # rows collapse cell by cell (a cell a time on Legendre) and sum in
        # another order than the feature product, within 4 ulps of S
        model = make_model(seed=61, d=2, basis=basis)
        times = [0.3, 2.0 / 3.0, 1.0, 1.0, 1.9, 2.0]
        drv = BrownianDriver(seed=16)
        paths = path_grid(model, times, 300, drv, tags=(5,))
        ints = sample_integrals(basis, drv, times, 300, d=2, tags=(5,))
        for ti, t in enumerate(times):
            g = block_diag(*[gram_tail(basis, t)] * 2)
            want = model.s0 + dyson_features(model.indices, g, ints[ti]) @ model.coefficients
            assert_ulps(paths[ti], want)

    @pytest.mark.parametrize("d, basis", [
        (d, basis) for basis in (PiecewiseConstantBasis((0.0, 0.2, 0.5, 1.1, 2.0)),
                                 LegendreBasis(horizon=2.0, size=3),
                                 PiecewiseConstantBasis((0.0, 2.0)))
        for d in (1, 2)], ids=["1", "2", "1-legendre", "2-legendre", "1-one_cell",
                                "2-one_cell"])
    def test_collapsed_rows_are_the_kernel_on_sampled_integrals(self, d, basis):
        # p 3: times inside cells, on the uneven grid's cell ends (0.2, 0.5,
        # 1.1), repeated, skipping a cell, and at the horizon; each Legendre
        # time is a cell of no running position, and the one cell runs every
        # position
        model = make_model(seed=81, scale=0.5, d=d, basis=basis, p=3)
        times = [0.1, 0.2, 0.2, 0.35, 0.5, 1.7, 1.7, 2.0]
        drv = BrownianDriver(seed=18)
        rows = path_grid(model, times, 400, drv, tags=(9,))
        ints = sample_integrals(basis, drv, times, 400, d=d, tags=(9,))
        for ti, t in enumerate(times):
            g = block_diag(*[gram_tail(basis, t)] * d)
            want = model.s0 + dyson_features(model.indices, g, ints[ti]) @ model.coefficients
            assert_ulps(rows[ti], want)

    @pytest.mark.parametrize("basis", [PiecewiseConstantBasis((0.0, 0.2, 0.5, 1.1, 2.0)),
                                       LegendreBasis(horizon=2.0, size=3)],
                             ids=["piecewise", "legendre"])
    def test_rows_across_a_block_boundary_are_the_kernel(self, basis):
        # 16384 + 3 paths are two stream blocks, the second of 3 paths, each
        # drawn from its own stream (tags, block) by both samplers; on
        # piecewise the collapse runs in 4096-row chunks inside a block
        n = model_module._PATH_BLOCK + 3
        model = make_model(seed=83, scale=0.5, d=2, basis=basis, p=2)
        times = [0.0, 0.35, 0.5, 1.7, 2.0]
        drv = BrownianDriver(seed=19)
        rows = path_grid(model, times, n, drv, tags=(4,))
        ints = sample_integrals(basis, drv, times, n, d=2, tags=(4,))
        np.testing.assert_array_equal(rows[0], model.s0)
        for ti, t in enumerate(times[1:], start=1):
            g = block_diag(*[gram_tail(basis, t)] * 2)
            want = model.s0 + dyson_features(model.indices, g, ints[ti]) @ model.coefficients
            assert_ulps(rows[ti], want)
        # the second block is a walk of its own on the stream (tags, 1)
        roots = _interval_roots(basis, times)
        scratch = [np.empty(shape) for shape in _walk_shapes(basis.size, 2, 3, roots)]
        walk = _block_walk(roots, drv.generator(4, 1), scratch, 3)
        for ti, last in enumerate(walk):
            np.testing.assert_array_equal(ints[ti, -3:], last.reshape(3, -1))

    def test_a_piecewise_pass_builds_a_plan_per_cell(self, monkeypatch):
        built = []

        def counted(*args):
            built.append(args)
            return _cell_plan(*args)

        model = make_model(seed=91, d=2)
        monkeypatch.setattr(model_module, "_cell_plan", counted)
        model_module._plan.cache_clear()
        try:
            path_grid(model, np.linspace(0.0, 2.0, 65), 50, BrownianDriver(2))
        finally:
            model_module._plan.cache_clear()  # no plan of this pass outlives it
        assert 0 < len(built) <= model.m

    @pytest.mark.parametrize("basis", [PW, LegendreBasis(horizon=2.0, size=3)],
                             ids=["piecewise", "legendre"])
    def test_a_second_pass_builds_no_plan(self, monkeypatch, basis):
        # the plans split over each cell's running positions are cached
        built = []
        model = make_model(seed=92, d=2, basis=basis)
        times = np.linspace(0.0, 2.0, 9)
        model_module._plan.cache_clear()
        try:
            first = path_grid(model, times, 50, BrownianDriver(2))
            monkeypatch.setattr(model_module, "_cell_plan",
                                lambda *args: built.append(args) or _cell_plan(*args))
            second = path_grid(model, times, 50, BrownianDriver(2))
        finally:
            model_module._plan.cache_clear()
        assert built == []
        np.testing.assert_array_equal(first, second)

    @pytest.mark.parametrize("basis", [PiecewiseConstantBasis.uniform(2.0, 3),
                                       LegendreBasis(horizon=2.0, size=3)],
                             ids=["piecewise", "legendre"])
    def test_time_zero_row_is_spot(self, basis):
        # time 0 draws nothing: its row is S_0 and the rest keep their bits;
        # a small spot shows any round-off left in the features at 0
        model = make_model(seed=71, d=2, basis=basis, s0=0.01)
        times = [0.3, 1.0, 2.0]
        with_zero = path_grid(model, [0.0] + times, 300, BrownianDriver(seed=17),
                              tags=(6,))
        without = path_grid(model, times, 300, BrownianDriver(seed=17), tags=(6,))
        np.testing.assert_array_equal(with_zero[0], model.s0)
        np.testing.assert_array_equal(with_zero[1:], without)

    def test_times_domain(self):
        model = make_model()
        for bad in ([-0.1, 1.0], [1.0, 2.5]):
            with pytest.raises(ValidationError):
                path_grid(model, bad, 10, BrownianDriver(seed=1))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_times_rejected(self, bad):
        # a NaN time passed the range and order checks and left the cell
        # of its row unset (UnboundLocalError)
        with pytest.raises(ValidationError, match=r"finite numbers, got \[ *0\. +(nan|inf)\]"):
            path_grid(make_model(), [0.0, bad], 10, BrownianDriver(seed=1))
