"""Conditional expectations: closed form vs Dyson series, and the H_2 gate.

The H_2 single-factor check is load-bearing: it pins the 1/(2^n n!) prefactor
of the Dyson series against the independent martingale closed form
U_t^{n/2} H_n(B(g)_t / sqrt(U_t)) and must pass before any calibration result
is trusted (it is re-run in the acceptance suite).
"""

import numpy as np
import pytest
from scipy.linalg import block_diag

from chaoscal import conditional
from chaoscal.bases import (
    BrownianDriver,
    LegendreBasis,
    PiecewiseConstantBasis,
    cell_index,
    gram_tail,
    sample_integrals,
)
from chaoscal.conditional import (
    _cell_plan,
    _collapse,
    _couplings,
    _plan_rows,
    cond_exp_piecewise,
    dyson_combo,
    dyson_cond_exp,
    dyson_features,
    dyson_operator_apply,
    evaluate_combo,
    piecewise_features,
)
from chaoscal.errors import ValidationError
from chaoscal.indices import MultiIndex, enumerate_indices, phi_eval


class TestOperator:
    def test_h2_single_variable(self):
        f = {(2,): 1.0}
        g = np.array([[0.3]])
        out = dyson_operator_apply(f, _couplings(g, diagonal=True))
        assert out == {(0,): pytest.approx(0.3)}

    def test_mixed_first_order_pair(self):
        f = {(1, 1): 1.0}
        g = np.array([[0.5, 0.2], [0.2, 0.7]])
        out = dyson_operator_apply(f, _couplings(g, diagonal=True))
        # (i,k) = (1,2) and (2,1) both contribute g12
        assert out == {(0, 0): pytest.approx(0.4)}

    def test_linear_term_annihilated(self):
        f = {(1,): 1.0}
        out = dyson_operator_apply(f, _couplings(np.array([[2.0]]), diagonal=True))
        assert out == {}


class TestH2Gate:
    @pytest.mark.parametrize(
        "spec",
        [PiecewiseConstantBasis.uniform(1.0, 1), LegendreBasis(horizon=1.0, size=1)],
        ids=["piecewise", "legendre"],
    )
    def test_dyson_matches_martingale_closed_form(self, spec):
        # E[H_2 basis element | F_t] must equal (I_t^2 - U_t)/2 with
        # U_t = int_0^t h^2 = 1 - G_11(t).
        a = MultiIndex((2,))
        for t in np.linspace(0.05, 1.0, 20):
            g = gram_tail(spec, float(t))
            u_t = 1.0 - g[0, 0]
            for i_t in [-1.3, -0.2, 0.0, 0.9, 2.4]:
                got = dyson_cond_exp(a, t, np.array([i_t]), g)
                want = (i_t**2 - u_t) / 2.0
                assert abs(got - want) < 1e-12

    def test_terminal_only_n0_survives(self):
        a = MultiIndex((2, 1, 0))
        g = np.zeros((3, 3))
        z = np.array([0.7, -1.1, 2.0])
        assert dyson_cond_exp(a, 1.0, z, g) == pytest.approx(phi_eval(a, z))

    def test_odd_order_is_plain_hermite(self):
        a = MultiIndex((1, 0))
        g = np.array([[0.4, 0.1], [0.1, 0.8]])
        assert dyson_cond_exp(a, 0.5, np.array([0.3, 9.0]), g) == pytest.approx(0.3)


class TestPiecewiseClosedForm:
    SPEC = PiecewiseConstantBasis.uniform(2.0, 4)

    def test_first_order_first_cell(self):
        # E[Phi | F_t] = b / sqrt(delta_1) for a_1^1 = 1 and t in cell 1
        t, b = 0.3, 0.45
        d1 = self.SPEC.widths[0]
        z = np.zeros(4)
        z[0] = b / np.sqrt(t)  # normalized partial increment
        got = cond_exp_piecewise(self.SPEC, MultiIndex((1, 0, 0, 0)), t, z)
        assert got == pytest.approx(b / np.sqrt(d1))

    def test_future_support_is_zero(self):
        t = 0.3  # cell 1
        a = MultiIndex((0, 1, 0, 0))  # supported on cell 2
        z = np.ones(4)
        assert cond_exp_piecewise(self.SPEC, a, t, z) == 0.0

    def test_cell_boundary_is_phi(self):
        t = self.SPEC.grid[2]  # = s_2, tau = 1
        a = MultiIndex((1, 2, 0, 0))
        z = np.array([0.3, -0.8, 99.0, 99.0])
        want = phi_eval(MultiIndex((1, 2)), z[:2])
        assert cond_exp_piecewise(self.SPEC, a, t, z) == pytest.approx(want)

    def test_domain_error(self):
        with pytest.raises(ValidationError):
            cond_exp_piecewise(self.SPEC, MultiIndex((1, 0, 0, 0)), 0.0, np.ones(4))

    def test_feature_matrix_matches_scalar_form(self):
        rng = np.random.default_rng(2)
        idx = enumerate_indices(3, 4, 2)
        z = rng.standard_normal((40, 8))
        t = 1.1
        feats = piecewise_features(self.SPEC, idx, t, z, d=2)
        for col in [0, 5, 17, len(idx) - 1]:
            for row in [0, 13]:
                want = cond_exp_piecewise(self.SPEC, idx[col], t, z[row], d=2)
                assert feats[row, col] == pytest.approx(want, abs=1e-14)

    def test_feature_matrix_checks_its_widths(self):
        # samples of another width, and indices of another (p, m, d), are
        # refused naming both widths, as the scalar form refuses them
        idx = enumerate_indices(2, 4, 2)
        for width in (7, 9):
            with pytest.raises(ValidationError, match=rf"last axis {width} != M\*d = 8"):
                piecewise_features(PiecewiseConstantBasis.uniform(1.0, 4), idx, 0.6,
                                   np.ones((5, width)), d=2)
        with pytest.raises(ValidationError, match=r"index length 6 != M\*d = 8"):
            piecewise_features(PiecewiseConstantBasis.uniform(1.0, 4),
                               enumerate_indices(2, 3, 2), 0.6, np.ones((5, 8)), d=2)


class TestEquivalence:
    def test_piecewise_vs_dyson_random_triples(self):
        # Smaller copy of acceptance criterion 2 (300 triples here).
        rng = np.random.default_rng(77)
        for _ in range(300):
            m = int(rng.integers(1, 7))
            d = int(rng.integers(1, 3))
            spec = PiecewiseConstantBasis(
                tuple(np.concatenate([[0.0], np.sort(rng.uniform(0.1, 2.0, m))]))
            )
            order = int(rng.integers(1, 5))
            exps = rng.multinomial(order, np.full(m * d, 1 / (m * d)))
            a = MultiIndex(tuple(int(e) for e in exps))
            t = float(rng.uniform(1e-3, spec.horizon))
            u = cell_index(spec, t)
            tau = (t - spec.grid[u - 1]) / spec.widths[u - 1]

            z = rng.standard_normal(m * d)
            ints = z.copy()  # I^t layout: sqrt(tau) scaling at the running cell
            for j in range(d):
                ints[j * m + (u - 1)] = z[j * m + (u - 1)] * np.sqrt(tau)
                ints[j * m + u :][: m - u] = 0.0
            g = block_diag(*[gram_tail(spec, t)] * d)
            closed = cond_exp_piecewise(spec, a, t, z, d)
            dyson = dyson_cond_exp(a, t, ints, g)
            assert abs(closed - dyson) < 1e-10

    def test_martingale_mean_over_time(self):
        # E[ E[Phi_a | F_t] ] = 0 at 4 sigma for a spread of indices and times
        spec = PiecewiseConstantBasis.uniform(1.0, 3)
        idx = enumerate_indices(2, 3, 1)
        drv = BrownianDriver(seed=31)
        n = 1_000_000
        for t in [0.2, 0.5, 0.9]:
            z = drv.generator(int(t * 1000)).standard_normal((n, 3))
            feats = piecewise_features(spec, idx, t, z, d=1)
            means = feats.mean(axis=0)
            ses = feats.std(axis=0) / np.sqrt(n)
            alive = feats.any(axis=0)
            assert np.all(np.abs(means[alive]) < 4 * ses[alive])

    def test_tower_consistency_statistical(self):
        # E[ E[Phi_a|F_t] * E[Phi_b|F_s] ] for s<t equals
        # E[ E[Phi_a|F_s] * E[Phi_b|F_s] ] by the tower property; check via
        # joint sampling on one Brownian path.
        spec = PiecewiseConstantBasis.uniform(1.0, 2)
        drv = BrownianDriver(seed=13)
        s, t = 0.4, 0.9
        n = 400_000
        ints = sample_integrals(spec, drv, [s, t], n, d=1)
        a = MultiIndex((2, 0))
        b = MultiIndex((1, 0))
        gs = gram_tail(spec, s)
        gt = gram_tail(spec, t)
        ea_t = dyson_cond_exp(a, t, ints[1], gt)
        eb_s = dyson_cond_exp(b, s, ints[0], gs)
        ea_s = dyson_cond_exp(a, s, ints[0], gs)
        x = ea_t * eb_s
        y = ea_s * eb_s
        diff = x - y
        assert abs(diff.mean()) < 4 * diff.std() / np.sqrt(n)


class TestKernelBeforeMaturity:
    """dyson_features at t < T against both oracles, cross terms included."""

    def test_legendre_matches_full_dyson_series(self):
        spec = LegendreBasis(horizon=1.0, size=3)
        idx = enumerate_indices(3, 3, 2)
        times = [0.2, 0.55, 0.9]
        ints = sample_integrals(spec, BrownianDriver(seed=61), times, 40, d=2)
        for ti, t in enumerate(times):
            g = block_diag(*[gram_tail(spec, t)] * 2)
            assert np.any(g - np.diag(np.diag(g)) != 0.0)  # cross terms live
            feats = dyson_features(idx, g, ints[ti])
            for col, a in enumerate(idx):
                want = dyson_cond_exp(a, t, ints[ti], g)
                np.testing.assert_allclose(feats[:, col], want, rtol=0, atol=1e-13)

    def test_piecewise_matches_closed_form_with_exact_zeros(self):
        spec = PiecewiseConstantBasis.uniform(2.0, 4)
        idx = enumerate_indices(3, 4, 2)
        for t in [0.3, 0.5, 1.1, 1.75]:
            u = cell_index(spec, t)
            ints = sample_integrals(spec, BrownianDriver(seed=62), [t], 30, d=2)[0]
            v = np.tile(1.0 - np.diag(gram_tail(spec, t)), 2)
            # normalized increments; entries after the running cell are ignored
            z = np.where(v > 0.0, ints / np.sqrt(np.where(v > 0.0, v, 1.0)), 99.0)
            feats = dyson_features(idx, block_diag(*[gram_tail(spec, t)] * 2), ints)
            for col, a in enumerate(idx):
                dead = any(n > 0 and e % 4 + 1 > u for e, n in enumerate(a.exponents))
                want = cond_exp_piecewise(spec, a, t, z, d=2)
                if dead:
                    assert np.all(feats[:, col] == 0.0)
                else:
                    assert np.all(feats[:, col] != 0.0)
                    np.testing.assert_allclose(feats[:, col], want, rtol=0, atol=1e-13)

    def test_samples_of_another_width_are_refused(self):
        spec = LegendreBasis(horizon=1.0, size=3)
        g = gram_tail(spec, 0.4)
        with pytest.raises(ValidationError, match=r"last axis 5 != M\*d = 3"):
            dyson_features(enumerate_indices(2, 3, 1), g, np.ones((4, 5)))
        with pytest.raises(ValidationError, match=r"index length 4 != M\*d = 3"):
            dyson_features(enumerate_indices(2, 4, 1), g, np.ones((4, 3)))


class TestComboEvaluation:
    def test_evaluate_combo_vectorized(self):
        combo = {(2, 0): 1.5, (0, 1): -2.0, (0, 0): 0.25}
        x = np.random.default_rng(4).standard_normal((10, 2))
        want = 1.5 * (x[:, 0] ** 2 - 1) / 2 - 2.0 * x[:, 1] + 0.25
        np.testing.assert_allclose(evaluate_combo(combo, x), want, atol=1e-14)

    def test_dyson_combo_terminates(self):
        a = MultiIndex((3, 1))
        g = np.array([[0.2, 0.1], [0.1, 0.6]])
        combo = dyson_combo(a, _couplings(g, diagonal=True))
        # orders present: 4 (n=0) and 2 (n=1) and 0 (n=2)
        orders = {sum(b) for b in combo}
        assert orders == {4, 2, 0}


class TestCouplings:
    """Plans read the M x M Gram tail and list its couplings once."""

    @pytest.mark.parametrize("spec,p,d", [
        (PiecewiseConstantBasis.uniform(1.0, 4), 3, 2),
        (LegendreBasis(horizon=1.0, size=3), 3, 2),
        (LegendreBasis(horizon=1.0, size=3), 2, 3)],
        ids=["piecewise-d2", "legendre-d2", "legendre-d3"])
    def test_plan_of_the_tail_is_the_plan_of_its_expansion(self, spec, p, d):
        # the dense block-diagonal expansion, read as a tail with d = 1
        idx = enumerate_indices(p, spec.size, d)
        for t in [0.2, 0.55, 0.9]:
            g = gram_tail(spec, t)
            got = _cell_plan(idx, g, d)
            want = _cell_plan(idx, block_diag(*[g] * d), 1)
            assert got.terms == want.terms
            np.testing.assert_array_equal(got.frozen, want.frozen)
            np.testing.assert_array_equal(got.root_v, want.root_v)
            np.testing.assert_array_equal(got.live, want.live)
            assert got.n_max == want.n_max

    def test_couplings_listed_once_per_plan(self, monkeypatch):
        calls = []
        listing = conditional._couplings
        monkeypatch.setattr(conditional, "_couplings",
                            lambda *args: calls.append(args) or listing(*args))
        spec = LegendreBasis(horizon=1.0, size=3)
        plan = _cell_plan(enumerate_indices(3, 3, 2), gram_tail(spec, 0.4), 2)
        assert len(calls) == 1
        cols = [col for col, _, _ in plan.terms[0]]
        assert len(cols) > len(set(cols))  # cross terms used

    @pytest.mark.parametrize("spec", [PiecewiseConstantBasis.uniform(1.0, 4),
                                      LegendreBasis(horizon=1.0, size=3)],
                             ids=["piecewise", "legendre"])
    def test_plan_without_running_positions_is_the_feature_plan(self, spec):
        # `live` lists the nonzero feature columns, and the collapse of the
        # plan's one pattern () gives S_t within 4 ulps, as the path rows do
        # (it sums in another order than the feature product)
        idx = enumerate_indices(3, spec.size, 2)
        theta = 0.3 * np.random.default_rng(5).standard_normal(len(idx))
        t = 0.6
        plan = _cell_plan(idx, gram_tail(spec, t), 2)
        assert plan.patterns == ((),) and plan.running.size == 0
        ints = sample_integrals(spec, BrownianDriver(seed=63), [t], 50, d=2)[0]
        rows = _plan_rows(plan, ints, normalized=False)
        np.testing.assert_array_equal(plan.live, np.flatnonzero(np.any(rows != 0.0, axis=0)))
        assert 0 < len(plan.live) <= len(idx)
        q = np.empty((1, 50))
        _collapse(plan, theta, ints, q, np.empty((plan.n_max + 1) * len(plan.frozen) * 50 + 50))
        got, want = 100.0 + q[0], 100.0 + rows @ theta
        assert np.abs(got - want).max() <= 4 * np.spacing(np.abs(want).max())

    def test_piecewise_tail_has_no_couplings(self):
        spec = PiecewiseConstantBasis.uniform(1.0, 4)
        i, k, w = _couplings(gram_tail(spec, 0.3), 3)
        assert len(i) == len(k) == len(w) == 0
