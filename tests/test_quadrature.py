import math

import numpy as np
import pytest

from drivenbath import (DrivenSource, FrequencyGrid, InversionPlan,
                        QuadratureError, Rule, integrate_lambda,
                        invert_characteristic, invert_samples, lambda_weight,
                        green_pair, oscillatory_pair)
from drivenbath.quadrature import _build_panels, _gl_nodes_weights

from conftest import DEFAULT_SOURCE, make_spec


def adaptive_grid(source=DEFAULT_SOURCE):
    return FrequencyGrid.for_source(source)


def trapezoid_grid(source=DEFAULT_SOURCE, n=1 << 16):
    return FrequencyGrid.for_source(source, rule=Rule.TRAPEZOID, n_points=n)


class TestLambdaWeight:
    def test_peak_value(self):
        src = DrivenSource(0.01, 100.0)
        assert lambda_weight(0.0, src) == pytest.approx(
            1e-4 * math.sqrt(8.0 * math.pi) * 1e4, rel=1e-15)

    def test_even(self):
        src = DrivenSource(0.3, 17.0)
        w = np.linspace(0.0, 0.5, 11)
        assert np.array_equal(lambda_weight(w, src), lambda_weight(-w, src))

    def test_derived_point(self):
        # lam0^2 sqrt(8 pi) t^2 e^{-2 w^2 t^2} at w = 0.02, t = 100
        src = DrivenSource(0.01, 100.0)
        expected = 1e-4 * math.sqrt(8.0 * math.pi) * 1e4 * math.exp(-8.0)
        assert lambda_weight(0.02, src) == pytest.approx(expected, rel=1e-14)


class TestIntegrateLambda:
    def test_zero_integrand(self):
        assert integrate_lambda(np.zeros_like, DEFAULT_SOURCE,
                                adaptive_grid()) == 0.0

    @pytest.mark.parametrize("rule_grid",
                             [adaptive_grid(), trapezoid_grid()])
    def test_unit_integrand_gives_drive_norm(self, rule_grid):
        # closed Gaussian integral: int dw/2pi |lam|^2 = lam0^2 t_int
        value = integrate_lambda(np.ones_like, DEFAULT_SOURCE, rule_grid)
        assert value == pytest.approx(1e-4 * 100.0, rel=1e-12)

    def test_odd_integrand_vanishes(self):
        value = integrate_lambda(lambda w: w, DEFAULT_SOURCE,
                                 adaptive_grid(), breakpoints=(0.0,))
        assert abs(value) < 1e-20

    def test_rules_agree_on_singular_integrand(self):
        # |w|^{-1/2} endpoint handled by the power substitution
        def f(w):
            out = np.zeros_like(w)
            m = w > 0
            out[m] = w[m] ** -0.5
            return out

        kwargs = dict(breakpoints=(0.0,), singular_exponent=-0.5)
        a = integrate_lambda(f, DEFAULT_SOURCE, adaptive_grid(), **kwargs)
        t = integrate_lambda(f, DEFAULT_SOURCE, trapezoid_grid(), **kwargs)
        assert a == pytest.approx(t, rel=1e-9)
        assert a > 0

    def test_window_doubling_is_inert(self):
        grid = adaptive_grid()
        wide = FrequencyGrid(omega_max=2.0 * grid.omega_max)
        f = lambda w: np.cos(3.0 * w)  # noqa: E731
        a = integrate_lambda(f, DEFAULT_SOURCE, grid)
        b = integrate_lambda(f, DEFAULT_SOURCE, wide)
        assert a == pytest.approx(b, rel=1e-13)

    def test_complex_integrand(self):
        f = lambda w: np.exp(1j * 40.0 * w)  # noqa: E731
        a = integrate_lambda(f, DEFAULT_SOURCE, adaptive_grid(),
                             complex_valued=True)
        t = integrate_lambda(f, DEFAULT_SOURCE, trapezoid_grid(),
                             complex_valued=True)
        assert a == pytest.approx(t, rel=1e-10)

    def test_non_finite_integrand_reports_location(self):
        def bad(w):
            out = np.ones_like(w)
            out[w > 0.01] = np.nan
            return out

        with pytest.raises(QuadratureError, match="omega"):
            integrate_lambda(bad, DEFAULT_SOURCE, trapezoid_grid())
        with pytest.raises(QuadratureError, match="omega"):
            integrate_lambda(bad, DEFAULT_SOURCE, adaptive_grid())


def dense_phase_sum(f1, f2, v, source, grid, breakpoints=(),
                    singular_exponent=None, rows=2048):
    """The same sums as oscillatory_pair, one e^{i w v} per (v, node)."""
    panels = _build_panels(grid.omega_max, breakpoints, singular_exponent)
    nodes, weights = _gl_nodes_weights(panels, float(np.max(np.abs(v))))
    measure = lambda_weight(nodes, source) / (2.0 * math.pi) * weights
    c = np.stack([measure * f1(nodes), measure * f2(nodes)], axis=1)
    out = np.concatenate([np.exp(1j * np.outer(v[i:i + rows], nodes)) @ c
                          for i in range(0, v.size, rows)])
    return out[:, 0], out[:, 1]


class TestOscillatoryPair:
    def test_matches_direct_integral(self):
        f1 = lambda w: np.where(w > 0, w, 0.0)  # noqa: E731
        f2 = lambda w: np.exp(-np.abs(w))  # noqa: E731
        v = np.arange(0.0, 6401.0)
        a1, a2 = oscillatory_pair(f1, f2, v, DEFAULT_SOURCE, adaptive_grid(),
                                  breakpoints=(0.0,))
        for vv in (0.0, 13.0, 500.0, 6400.0):
            k = int(vv)
            direct1 = integrate_lambda(
                lambda w: f1(w) * np.exp(1j * w * vv), DEFAULT_SOURCE,
                adaptive_grid(), breakpoints=(0.0,), complex_valued=True)
            direct2 = integrate_lambda(
                lambda w: f2(w) * np.exp(1j * w * vv), DEFAULT_SOURCE,
                adaptive_grid(), breakpoints=(0.0,), complex_valued=True)
            # large-v values are heavily cancelled (|integral| many orders
            # below the integrand mass); agreement is conditioning-limited
            assert a1[k] == pytest.approx(direct1, rel=1e-8, abs=1e-16)
            assert a2[k] == pytest.approx(direct2, rel=1e-8, abs=1e-16)

    @pytest.mark.parametrize("n, h", [(1, 32.0), (2, 32.0), (201, 32.0),
                                      (225, 32.0), (32769, 0.1953125)])
    @pytest.mark.parametrize("coupling", [None, "spin", "fermion",
                                          "topological"])
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 5.0])
    def test_matches_dense_phase_sum(self, alpha, coupling, n, h):
        # 225 = 15^2 fills its blocks; 2, 201 and 32769 leave the last
        # block short.  The 32769-sample plan grid is checked against the
        # dense sum on every 11th sample and the last one (whose |v| sets
        # the node set), which still meets every block and every in-block
        # offset (11 is coprime to the 182-row table).
        spec = make_spec(alpha=alpha, coupling=coupling, p=0.8)
        pair = green_pair(spec)
        v = h * np.arange(n)
        kwargs = dict(breakpoints=pair.edges,
                      singular_exponent=pair.singular_exponent)
        a_mp, a_pm = oscillatory_pair(pair.g_mp, pair.g_pm, v, spec.source,
                                      adaptive_grid(), **kwargs)
        rows = np.unique(np.r_[np.arange(0, n, 11), n - 1])
        d_mp, d_pm = dense_phase_sum(pair.g_mp, pair.g_pm, v[rows],
                                     spec.source, adaptive_grid(), **kwargs)
        tail = 0.5 * (a_mp[rows] + np.conj(a_pm[rows]))
        dense_tail = 0.5 * (d_mp + np.conj(d_pm))
        scale = np.max(np.abs(dense_tail))
        assert np.max(np.abs(tail - dense_tail)) <= 1e-12 * scale
        for got, want in ((a_mp[rows], d_mp), (a_pm[rows], d_pm)):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("start", [-3200.0, -3217.5, 1000.25])
    def test_offset_grid_matches_dense_phase_sum(self, start):
        spec = make_spec(alpha=0.5, coupling="spin", p=0.8)
        pair = green_pair(spec)
        v = start + 32.0 * np.arange(201)
        kwargs = dict(breakpoints=pair.edges,
                      singular_exponent=pair.singular_exponent)
        a_mp, a_pm = oscillatory_pair(pair.g_mp, pair.g_pm, v, spec.source,
                                      adaptive_grid(), **kwargs)
        # v = 0 is added to the reference only for the scale: far from it
        # the samples are cancelled many orders below the integrand mass
        d_mp, d_pm = dense_phase_sum(pair.g_mp, pair.g_pm, np.r_[0.0, v],
                                     spec.source, adaptive_grid(), **kwargs)
        for got, want in ((a_mp, d_mp), (a_pm, d_pm)):
            assert np.max(np.abs(got - want[1:])) <= \
                1e-12 * np.max(np.abs(want))

    def test_integrands_evaluated_once_on_the_nodes(self):
        calls = []

        def f1(w):
            calls.append(np.size(w))
            return np.exp(-np.abs(w))

        oscillatory_pair(f1, f1, np.linspace(0.0, 6400.0, 201),
                         DEFAULT_SOURCE, adaptive_grid())
        assert len(calls) == 2 and calls[0] == calls[1] > 201

    @pytest.mark.parametrize("v", [[0.0, 13.0, 500.0, 6400.0],
                                   [-120.0, -3.0, 0.0, 17.0, 640.0],
                                   [0.0, 1.0, 2.0 + 1e-9, 3.0],
                                   [0.0, np.nan, 2.0]])
    def test_uneven_grid_rejected(self, v):
        f = lambda w: np.exp(-np.abs(w))  # noqa: E731
        with pytest.raises(ValueError, match="evenly spaced"):
            oscillatory_pair(f, f, np.asarray(v), DEFAULT_SOURCE,
                             adaptive_grid())


class TestInversionPlan:
    def test_resolution_relation(self):
        plan = InversionPlan(v_max=6400.0, n_fft=1 << 16, atom_weight=0.5)
        assert plan.dw == pytest.approx(math.pi / 6400.0, rel=1e-15)
        assert plan.v_grid()[plan.n_fft // 2] == 0.0
        assert plan.w_grid().size == plan.n_fft

    def test_small_or_odd_fft_rejected(self):
        with pytest.raises(ValueError):
            InversionPlan(v_max=10.0, n_fft=1 << 10)
        with pytest.raises(ValueError):
            InversionPlan(v_max=10.0, n_fft=5000)


class TestInversion:
    def test_constant_chi_is_pure_atom(self):
        plan = InversionPlan(v_max=200.0, n_fft=1 << 12, atom_weight=1.0)
        dist = invert_characteristic(lambda v: np.ones(v.size, complex), plan)
        assert dist.atom_weight == 1.0
        assert np.max(np.abs(dist.density)) < 1e-15
        assert dist.normalization == pytest.approx(1.0, abs=1e-12)

    def test_shift_theorem_concentrates_mass(self):
        # e^{i w0 v} inverts to a single-bin spike at w0
        plan = InversionPlan(v_max=200.0, n_fft=1 << 12, atom_weight=0.0)
        w0 = 64.0 * plan.dw
        dist = invert_characteristic(
            lambda v: np.exp(1j * w0 * v), plan)
        peak = int(np.argmax(dist.density))
        assert dist.w_grid[peak] == pytest.approx(w0, abs=1e-12)
        assert dist.density[peak] * plan.dw == pytest.approx(1.0, rel=1e-10)

    def test_chi_zero_must_be_one(self):
        plan = InversionPlan(v_max=200.0, n_fft=1 << 12, atom_weight=0.0)
        with pytest.raises(ValueError, match="chi\\(0\\)"):
            invert_characteristic(
                lambda v: np.full(v.size, 0.5, complex), plan)

    def test_round_trip_reproduces_samples(self):
        plan = InversionPlan(v_max=150.0, n_fft=1 << 12, atom_weight=0.0)
        v = plan.v_grid()
        chi = np.exp(-0.5 * (v * 0.05) ** 2) * np.exp(1j * 0.3 * plan.dw * v)
        w, density = invert_samples(chi.astype(complex), plan)
        # forward transform of the recovered density on the same grids
        rebuilt = (density[None, :] * np.exp(1j * np.outer(v, w))).sum(axis=1)
        rebuilt *= plan.dw
        assert np.max(np.abs(rebuilt - chi)) < 1e-6

    def test_gaussian_pair_matches_analytic_density(self):
        sigma_w = 0.05
        plan = InversionPlan(v_max=400.0, n_fft=1 << 13, atom_weight=0.0)
        dist = invert_characteristic(
            lambda v: np.exp(-0.5 * (sigma_w * v) ** 2).astype(complex),
            plan)
        expected = np.exp(-0.5 * (dist.w_grid / sigma_w) ** 2) / \
            (sigma_w * math.sqrt(2.0 * math.pi))
        assert np.max(np.abs(dist.density - expected)) < 1e-9
