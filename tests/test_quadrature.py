import math
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drivenbath import (DrivenSource, FrequencyGrid, InversionPlan,
                        QuadratureError, Rule, default_plan, invert_samples,
                        lambda_weight, oscillatory_pair, w_ext2)
from drivenbath.green import ChannelTable, _edge_power
from drivenbath import quadrature
from drivenbath.quadrature import (_build_panels, _edge,
                                   _gl_nodes_weights, _unit_phases,
                                   integrate_rows)
from drivenbath.workstats import (_i_beta_grids, _work_one, _work_rows,
                                  chi2_field, default_i_beta_grid,
                                  drive_grid, i_beta_deficit)

from conftest import (DEFAULT_SOURCE, dense_phase_sum, green_pair,
                      make_spec)


def adaptive_grid(source=DEFAULT_SOURCE):
    return FrequencyGrid.for_source(source)


#: each of the two integrals of _work_rows, asked for alone
EACH_INTEGRAL = pytest.mark.parametrize(
    "integral", ["mean_work", "deficit"])


def integral_rows(specs, integral):
    """The Integrals of the one integral ``integral`` of _work_rows for
    ``specs``, on the direct calls' default windows."""
    source = specs[0].source
    if integral == "mean_work":
        grids = ([FrequencyGrid.for_source(source)] * len(specs), None)
    else:
        grids = (None, _i_beta_grids(source, [s.beta for s in specs]))
    _, _, (res,) = _work_rows(specs, *grids)
    return res


def trapezoid_grid(source=DEFAULT_SOURCE, n=1 << 16):
    return replace(FrequencyGrid.for_source(source), rule=Rule.TRAPEZOID,
                   n_points=n)


def integrate_pair(f, grid, breakpoints=(), edge_power=1.0):
    """The integral of the pair ``f(omega)`` = (a, b) against the default
    drive measure.

    A batch of one row of :func:`integrate_rows`; raises the row's
    QuadratureError if it failed.
    """
    return integrate_rows(lambda omega, rows, near: f(omega), DEFAULT_SOURCE,
                          [grid], [breakpoints], [edge_power]).value()


def integrate_one(f, grid, breakpoints=(), edge_power=1.0):
    """The integral of one array ``f(omega)``, as the pair (f, 0)."""
    return integrate_pair(lambda omega: (f(omega), 0.0), grid, breakpoints,
                          edge_power)


def integrate_complex(f, grid, breakpoints=()):
    """The integral of a complex ``f(omega)``: its real and imaginary
    parts are two rows of one batch, each one real integral."""
    def parts(omega, rows, near):
        out = f(omega)
        return np.where((rows == 1)[:, None], out.imag, out.real), 0.0

    res = integrate_rows(parts, DEFAULT_SOURCE, [grid] * 2,
                         [breakpoints] * 2, [1.0] * 2)
    assert res.errors == (None, None)
    return complex(*res.values)


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
    """Single integrals against the drive measure, batches of one."""

    def test_zero_integrand(self):
        assert integrate_one(np.zeros_like, adaptive_grid()) == 0.0

    @pytest.mark.parametrize("rule_grid",
                             [adaptive_grid(), trapezoid_grid()])
    def test_unit_integrand_gives_drive_norm(self, rule_grid):
        # closed Gaussian integral: int dw/2pi |lam|^2 = lam0^2 t_int
        value = integrate_one(np.ones_like, rule_grid)
        assert value == pytest.approx(1e-4 * 100.0, rel=1e-12)

    def test_odd_integrand_vanishes(self):
        value = integrate_one(lambda w: w, adaptive_grid(),
                              breakpoints=(0.0,))
        assert abs(value) < 1e-20

    def test_unresolved_jump_stalls_and_raises(self):
        # without a breakpoint the jump is never resolved: refinement runs
        # out above its tolerance, and the stall is an error, not an
        # estimate.  With the breakpoint the integral is the Gaussian
        # tail lam0^2 t_int erfc(sqrt(2) t_int edge) / 2, here erfc(1)
        edge = 0.01 / math.sqrt(2.0)

        def step(w):
            return (w > edge).astype(float)

        with pytest.raises(QuadratureError, match=(
                r"^adaptive refinement stalled after [\d,]+ points: "
                r"error \S+ above tolerance \S+$")):
            integrate_one(step, adaptive_grid())
        split = integrate_one(step, adaptive_grid(), breakpoints=(edge,))
        assert split == pytest.approx(0.5e-2 * math.erfc(1.0), rel=1e-13)

    def test_pair_resolves_cancellation_down_to_its_floor(self):
        # a and delta - a cancel to delta = cos(3w), whose integral is
        # lam0^2 t_int e^{-9/(8 t_int^2)}; both rules integrate the pair
        def f(w):
            a = 1e12 * w * w
            return a, np.cos(3.0 * w) - a

        def l1(w):
            return sum(np.abs(term) for term in f(w))

        adaptive = integrate_pair(f, adaptive_grid())
        trapezoid = integrate_pair(f, trapezoid_grid(n=1 << 18))
        norm = integrate_one(l1, trapezoid_grid())
        exact = 1e-2 * math.exp(-9.0 / 8e4)
        assert norm > 1e7 * exact
        assert abs(adaptive - trapezoid) <= 1e-14 * norm
        assert abs(adaptive - exact) <= 1e-14 * norm

    def test_rules_agree_on_singular_integrand(self):
        # |w|^{-1/2} endpoint handled by the power substitution
        def f(w):
            out = np.zeros_like(w)
            m = w > 0
            out[m] = w[m] ** -0.5
            return out

        kwargs = dict(breakpoints=(0.0,), edge_power=4.0)
        a = integrate_one(f, adaptive_grid(), **kwargs)
        t = integrate_one(f, trapezoid_grid(), **kwargs)
        assert a == pytest.approx(t, rel=1e-9)
        assert a > 0

    def test_window_doubling_is_inert(self):
        grid = adaptive_grid()
        wide = FrequencyGrid(omega_max=2.0 * grid.omega_max)
        f = lambda w: np.cos(3.0 * w)  # noqa: E731
        a = integrate_one(f, grid)
        b = integrate_one(f, wide)
        assert a == pytest.approx(b, rel=1e-13)

    def test_complex_integrand(self):
        # Re and Im of e^{i 40 w} as two rows of one batch, on both rules
        f = lambda w: np.exp(1j * 40.0 * w)  # noqa: E731
        a = integrate_complex(f, adaptive_grid())
        t = integrate_complex(f, trapezoid_grid())
        assert a == pytest.approx(t, rel=1e-10)

    def test_non_finite_integrand_reports_location(self):
        def bad(w):
            out = np.ones_like(w)
            out[w > 0.01] = np.nan
            return out

        with pytest.raises(QuadratureError, match="omega"):
            integrate_one(bad, trapezoid_grid())
        with pytest.raises(QuadratureError, match="omega"):
            integrate_one(bad, adaptive_grid())


def kronrod(n):
    """(nodes, K weights, G weights) of G_n and its Kronrod extension.

    The recipe of the rule's literals, in double precision: the Stieltjes
    polynomial E_{n+1} = P_{n+1} + sum_{j <= n} c_j P_j is orthogonal to
    P_0 .. P_n against the weight P_n, its roots come from legroots, and
    the 2n + 1 weights solve sum_i w_i P_k(x_i) = 2 delta_k0, k <= 2n.
    The nodes ascend; G weights are 0 at the Kronrod nodes.  Symmetrized
    as leggauss symmetrizes its rule.
    """
    leg = np.polynomial.legendre
    x_gauss, w_gauss = leg.leggauss(n)
    # int P_n P_k P_j dx, exact by Gauss-Legendre on 2n + 2 nodes
    xq, wq = leg.leggauss(2 * n + 2)
    vq = leg.legvander(xq, n + 1)
    moments = (vq[:, :n + 1] * (wq * vq[:, n])[:, None]).T @ vq
    c = np.linalg.solve(moments[:, :n + 1], -moments[:, n + 1])
    x_kronrod = leg.legroots(np.append(c, 1.0)).real
    x = np.sort(np.concatenate([x_gauss, x_kronrod]))
    rhs = np.zeros(2 * n + 1)
    rhs[0] = 2.0
    w = np.linalg.solve(leg.legvander(x, 2 * n).T, rhs)
    g = np.zeros(2 * n + 1)
    g[1::2] = w_gauss
    return ((x - x[::-1]) / 2, (w + w[::-1]) / 2, (g + g[::-1]) / 2)


class TestKronrodRule:
    """The adaptive rule's nested pair G15/K31 and how it is built."""

    def test_recipe_matches_tabulated_k21(self):
        # scipy tabulates G10/K21 in its quad_vec; recover its nodes,
        # K21 weights and G10 weights by calling the rule on [-1, 1]
        from scipy.integrate._quad_vec import _quadrature_gk21
        nodes, deltas = [], []
        _quadrature_gk21(-1.0, 1.0, lambda t: nodes.append(t) or 0.0, abs)

        def unit(t):
            return np.eye(21)[nodes.index(t)]

        def norm(v):
            deltas.append(v)  # (K21 - G10) weights, on the first call
            return float(np.abs(v).max())

        k21 = _quadrature_gk21(-1.0, 1.0, unit, norm)[0]
        order = np.argsort(nodes)
        x, w, g = kronrod(10)
        assert np.abs(np.array(nodes)[order] - x).max() <= 1e-14
        assert np.abs(k21[order] - w).max() <= 1e-14
        assert np.abs((k21 - deltas[0])[order] - g).max() <= 1e-14

    def test_recipe_matches_the_literals(self):
        x, w, g = kronrod(15)
        assert np.abs(x - quadrature._X_BOTH).max() <= 1e-14
        assert np.abs(w - quadrature._W_K31).max() <= 1e-14
        rules = quadrature._RULES
        assert np.abs(w - g - rules[:31, 0]).max() <= 1e-14
        assert np.array_equal(rules[:31, 1], quadrature._W_K31)
        assert np.array_equal(rules[31:, 2], quadrature._W_K31)
        assert not rules[31:, :2].any() and not rules[:31, 2].any()

    def test_k31_exact_to_degree_46(self):
        for degree in range(47):
            exact = 2.0 / (degree + 1) if degree % 2 == 0 else 0.0
            got = quadrature._W_K31 @ quadrature._X_BOTH ** degree
            assert abs(got - exact) <= 1e-15, degree

    def test_g15_nodes_are_k31_nodes(self):
        nodes = quadrature._X_BOTH
        assert np.all(np.diff(nodes) > 0)
        assert np.array_equal(nodes[1::2], quadrature._X_LOW)
        g15 = quadrature._W_K31 - quadrature._RULES[:31, 0]
        assert np.abs(g15[1::2] - quadrature._W_LOW).max() <= 1e-15
        assert np.abs(g15[0::2]).max() <= 1e-15

    def test_31_nodes_per_interval(self):
        # every integrand call sees whole intervals of 31 nodes, and a
        # row's points count 31 per interval evaluated
        shapes = []

        def f(omega, rows, near):
            shapes.append(omega.shape)
            return np.cos(40.0 * omega), np.abs(omega)

        res = integrate_rows(f, DEFAULT_SOURCE, [adaptive_grid()] * 2,
                             [(0.0,), (-0.01, 0.02)], [1.0, 4.0])
        assert len(shapes) > 1
        assert all(shape[1] == 31 for shape in shapes)
        assert sum(shape[0] for shape in shapes) * 31 == res.points.sum()
        assert all(points % 31 == 0 and points > 31
                   for points in res.points)


#: spin specs of the benchmark's point evaluations on which the per-panel
#: rule that this one replaced took 0.5-0.9 M points per integral
RUNAWAY_SPIN = [dict(beta=40.9, alpha=0.823, coupling="spin",
                     omega_gap=0.00455, p=0.797),
                dict(beta=67.2, alpha=1.128, coupling="spin",
                     omega_gap=0.0218, p=0.0)]


class TestRunawayRefinement:
    """Cancelling integrals stop at the floor of their uncancelled terms.

    Each took 0.4-0.9 M integrand points under a per-panel rule with a
    1e-15 floor on the summed interval magnitudes; the reference values
    are that rule's.
    """

    @pytest.mark.parametrize("alpha", [0.3, 5.0])
    @pytest.mark.parametrize("beta", [0.1, 100.0])
    def test_pure_bath_deficit(self, count_points, alpha, beta):
        # the two terms cancel pointwise: the value is rounding noise,
        # bounded by the floor against a 2^18-point trapezoid
        spec = make_spec(beta=beta, alpha=alpha)
        value = i_beta_deficit(spec)
        assert count_points() < 20_000
        pair = green_pair(spec)

        def f(w):
            return (-np.expm1(-beta * w) * pair.g_mp(w),
                    -np.expm1(beta * w) * pair.g_pm(w))

        grid = replace(default_i_beta_grid(spec), rule=Rule.TRAPEZOID,
                       n_points=1 << 18)
        kwargs = dict(breakpoints=pair.edges,
                      edge_power=pair.edge_power)
        reference = 0.5 * integrate_pair(f, grid, **kwargs)
        l1 = 0.5 * integrate_one(
            lambda w: sum(np.abs(term) for term in f(w)), grid, **kwargs)
        assert abs(value - reference) <= 1e-14 * l1

    @pytest.mark.parametrize("fn, kwargs, reference", [
        (i_beta_deficit, dict(beta=100.0, alpha=4.0, coupling="topological",
                              omega_gap=0.08, p=0.156),
         1.2536197377766046e-11),
        (w_ext2, dict(beta=2.05, alpha=6.0, coupling="fermion",
                      omega_gap=0.05, p=0.5625), 1.4986109404090696e-17),
        (w_ext2, RUNAWAY_SPIN[0], -4.9678779088538e-07),
        (i_beta_deficit, RUNAWAY_SPIN[0], 8.516822803588214e-06),
        (w_ext2, RUNAWAY_SPIN[1], -1.4164504894625604e-07),
        (i_beta_deficit, RUNAWAY_SPIN[1], -5.022816000684557e-07),
    ])
    def test_qubit_cells(self, count_points, fn, kwargs, reference):
        value = fn(make_spec(**kwargs))
        assert count_points() < 20_000
        assert value == pytest.approx(reference, rel=1e-12)

    @EACH_INTEGRAL
    @pytest.mark.parametrize("coupling", ["spin", "fermion", "topological"])
    def test_sub_ohmic_qubit_edges_converge(self, integral, coupling):
        # every term at a mapped qubit edge takes its exact offset from
        # the edge, so no row stalls; while x was formed as w - gap, the
        # spin rows took up to ~0.5 M points and 87 of 108 stalled
        specs = [make_spec(beta=beta, alpha=alpha, coupling=coupling,
                           omega_gap=gap, p=p)
                 for alpha in (0.1, 0.3, 0.5) for gap in (0.003, 0.01)
                 for beta in (1e-3, 1.0, 1e3) for p in (0.0, 0.5, 1.0)]
        res = integral_rows(specs, integral)
        assert res.errors == (None,) * len(specs)
        assert res.points.max() <= 2000


def exp_phase_pair(pair, h, n, source, grid, breakpoints, edge_power,
                   keep_zeros=False):
    """oscillatory_pair with its phase tables built by the complex
    exponential and its coefficients joined by hstack, as before the
    tables were filled from cos and sin.  Nodes whose two coefficients are
    both 0.0 are dropped, as oscillatory_pair drops them, unless
    ``keep_zeros``: then every node is summed, as before the drop."""
    panels = _build_panels(grid.omega_max, breakpoints, edge_power)
    nodes, weights = _gl_nodes_weights(panels, abs(h) * (n - 1))
    measure = lambda_weight(nodes, source) / (2.0 * math.pi) * weights
    f1, f2 = pair(nodes)
    c1 = measure * np.asarray(f1, dtype=float)
    c2 = measure * np.asarray(f2, dtype=float)
    if not keep_zeros:
        live = (c1 != 0.0) | (c2 != 0.0)
        nodes, c1, c2 = nodes[live], c1[live], c2[live]
    block = math.isqrt(max(n - 1, 0)) + 1
    table = np.exp(1j * np.outer(h * np.arange(block), nodes))
    shift = np.exp(1j * np.outer(nodes, h * np.arange(0, n, block)))
    samples = table @ np.hstack([c1[:, None] * shift, c2[:, None] * shift])
    return tuple(part.T.ravel()[:n] for part in np.hsplit(samples, 2))


class TestOscillatoryPair:
    def test_matches_direct_integral(self):
        f1 = lambda w: np.where(w > 0, w, 0.0)  # noqa: E731
        f2 = lambda w: np.exp(-np.abs(w))  # noqa: E731
        a1, a2 = oscillatory_pair(lambda w: (f1(w), f2(w)), 1.0, 6401,
                                  DEFAULT_SOURCE, adaptive_grid(),
                                  breakpoints=(0.0,), edge_power=1.0)
        for vv in (0.0, 13.0, 500.0, 6400.0):
            k = int(vv)
            direct1 = integrate_complex(
                lambda w: f1(w) * np.exp(1j * w * vv), adaptive_grid(),
                breakpoints=(0.0,))
            direct2 = integrate_complex(
                lambda w: f2(w) * np.exp(1j * w * vv), adaptive_grid(),
                breakpoints=(0.0,))
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
                      edge_power=pair.edge_power)
        a_mp, a_pm = oscillatory_pair(pair.channels, h, n, spec.source,
                                      adaptive_grid(), **kwargs)
        rows = np.unique(np.r_[np.arange(0, n, 11), n - 1])
        d_mp, d_pm = dense_phase_sum(pair.channels, v[rows], spec.source,
                                     adaptive_grid(), **kwargs)
        tail = 0.5 * (a_mp[rows] + np.conj(a_pm[rows]))
        dense_tail = 0.5 * (d_mp + np.conj(d_pm))
        scale = np.max(np.abs(dense_tail))
        assert np.max(np.abs(tail - dense_tail)) <= 1e-12 * scale
        for got, want in ((a_mp[rows], d_mp), (a_pm[rows], d_pm)):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("n, h", [
        pytest.param(n, h, id=f"n{n}")
        for n, h in [(1, 32.0), (2, 32.0), (201, 32.0), (225, 32.0),
                     (32769, 0.1953125)]])
    @pytest.mark.parametrize("coupling", [None, "spin", "fermion",
                                          "topological"])
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 5.0])
    def test_bits_match_complex_exponential(self, alpha, coupling, n, h):
        spec = make_spec(alpha=alpha, coupling=coupling, p=0.8)
        pair = green_pair(spec)
        args = (pair.channels, h, n, spec.source, adaptive_grid())
        kwargs = dict(breakpoints=pair.edges,
                      edge_power=pair.edge_power)
        got = oscillatory_pair(*args, **kwargs)
        want = exp_phase_pair(*args, **kwargs)
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("size", [1, 3, 8, 9, 17, 1000])
    @pytest.mark.parametrize("scale", [1e-300, 1.0, 20.0, 3.3e4])
    def test_unit_phases_equal_complex_exponential(self, scale, size):
        # 3.3e4 rad is about omega_max times the largest |v| the node cap
        # allows; sizes cover the vector loops' short and ragged tails
        x = np.random.default_rng(size).uniform(-scale, scale, size)
        x[:4] = [0.0, -0.0, -scale, scale][:size]
        for phase in (x, x.reshape(1, -1), np.outer(x, [1.0, -1.0, 0.5])):
            want = np.exp(1j * phase)
            assert _unit_phases(phase.copy()).tobytes() == want.tobytes()

    def test_integrands_evaluated_once_on_the_nodes(self):
        calls = []

        def pair(w):
            calls.append(np.size(w))
            return np.exp(-np.abs(w)), np.exp(-np.abs(w))

        oscillatory_pair(pair, 32.0, 201, DEFAULT_SOURCE, adaptive_grid(),
                         breakpoints=(), edge_power=1.0)
        # one pair call on all nodes
        assert len(calls) == 1 and calls[0] > 201

    def test_node_cap(self):
        # |v| = 1,280,000 stays below the cap; 1,540,000 is refused
        panels = _build_panels(adaptive_grid().omega_max, (), 1.0)
        assert _gl_nodes_weights(panels, 1280000.0)[0].size == 109_880
        with pytest.raises(ValueError, match="needs 132,200 quadrature "
                           "nodes, above the cap of 131,072"):
            _gl_nodes_weights(panels, 1540000.0)

    def test_node_cap_counts_the_edge_cuts(self, monkeypatch):
        # alpha 0.1: 7 equal-omega subpanels per side of the edge at 0, and
        # 2 more toward it on each; the cap counts all 18 before building
        panels = _build_panels(adaptive_grid().omega_max, (0.0,),
                               _edge_power(0.1))
        size = _gl_nodes_weights(panels, 6400.0)[0].size
        assert size == 720
        monkeypatch.setattr(quadrature, "_GL_MAX_NODES", size - 1)
        with pytest.raises(ValueError, match=f"needs {size:,} quadrature"):
            _gl_nodes_weights(panels, 6400.0)

    @pytest.mark.parametrize("power", [2.0 + 1e-9, 2.5, 4.0, 20.0])
    @pytest.mark.parametrize("rate", [1.0, 6400.0, 1.28e6])
    def test_edge_cuts_bound_each_piece_by_its_largest_rate(self, power,
                                                            rate):
        # the edge subpanel of a panel one omega budget wide: each piece's
        # t-width times p |v| t^(p - 1) at its upper end is <= the budget
        t = (quadrature._GL_PHASE / rate) ** (1.0 / power)
        cuts = quadrature._edge_cuts(t, power, rate)
        assert len(cuts) <= 2
        edges = [t, *cuts, 0.0]
        for upper, lower in zip(edges[:-1], edges[1:]):
            assert (upper - lower) * power * rate * upper ** (power - 1.0) \
                <= quadrature._GL_PHASE * (1.0 + 1e-12)


@pytest.fixture
def phase_tables(monkeypatch):
    """The phases of every table ``_unit_phases`` builds, in call order.

    oscillatory_pair builds two: the in-block table, (B, nodes), then the
    block shifts, (nodes, blocks), whose columns are nodes x v_{bB}.
    """
    seen = []
    unit_phases = quadrature._unit_phases

    def recording(phase):
        seen.append(phase.copy())
        return unit_phases(phase)

    monkeypatch.setattr(quadrature, "_unit_phases", recording)
    return seen


def all_nodes(spec, v_abs_max=6400.0):
    """The Gauss-Legendre nodes of ``spec``'s channels before the drop."""
    pair = green_pair(spec)
    panels = _build_panels(adaptive_grid(spec.source).omega_max, pair.edges,
                           pair.edge_power)
    return _gl_nodes_weights(panels, v_abs_max)[0]


class TestZeroCoefficientNodes:
    """oscillatory_pair leaves out the nodes where both coefficients are
    exactly 0.0: below the support of every channel term."""

    @pytest.mark.parametrize("n", [201, 32769])
    def test_bare_bath_field_uses_the_positive_half(self, phase_tables, n):
        spec = make_spec()
        v = (np.linspace(0.0, 6400.0, n) if n == 201
             else default_plan(spec.source).v_grid())
        chi2_field(spec, v)
        # the lattice chi2_field samples, h k for k = 0 .. n - 1
        lattice = abs(v[-1] - v[0]) / (v.size - 1) * np.arange(n)
        nodes = all_nodes(spec)
        assert nodes.size == 560
        table, shift = phase_tables
        assert table.shape[1] == shift.shape[0] == 280
        block = table.shape[0]
        np.testing.assert_array_equal(
            shift, np.outer(nodes[nodes > 0.0], lattice[::block]))

    def test_spin_qubit_keeps_the_nodes_above_minus_the_gap(
            self, phase_tables):
        spec = make_spec(coupling="spin", omega_gap=0.02, p=0.8)
        pair = green_pair(spec)
        v = 32.0 * np.arange(201)
        oscillatory_pair(pair.channels, 32.0, 201, spec.source,
                         adaptive_grid(), pair.edges, pair.edge_power)
        nodes = all_nodes(spec)
        kept = nodes[nodes > -0.02]
        assert (kept.size, nodes.size) == (440, 600)
        table, shift = phase_tables
        np.testing.assert_array_equal(
            shift, np.outer(kept, v[::table.shape[0]]))

    @pytest.mark.parametrize("coupling", ["spin", "fermion", "topological"])
    def test_gap_outside_the_window_keeps_every_node_and_bit(
            self, phase_tables, coupling):
        spec = make_spec(coupling=coupling, omega_gap=1.0, p=0.8)
        pair = green_pair(spec)
        args = (pair.channels, 32.0, 201, spec.source, adaptive_grid(),
                pair.edges, pair.edge_power)
        got = oscillatory_pair(*args)
        assert phase_tables[0].shape[1] == all_nodes(spec).size == 560
        for g, w in zip(got, exp_phase_pair(*args, keep_zeros=True)):
            assert g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("n", [1, 2, 201])
    def test_pair_zero_on_every_node_gives_zeros(self, n):
        def zeros(w):
            return np.zeros(w.size), np.zeros(w.size)

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = oscillatory_pair(zeros, 32.0, n, DEFAULT_SOURCE,
                                   adaptive_grid(), (0.0,), 1.0)
        for part in got:
            assert part.dtype == complex and part.shape == (n,)
            assert not part.any()

    @pytest.mark.parametrize("n, h", [
        pytest.param(201, 32.0, id="n201"),
        pytest.param(32769, 0.1953125, id="n32769")])
    @pytest.mark.parametrize("coupling, gap", [(None, 0.05)] + [
        (coupling, gap) for coupling in ("spin", "fermion", "topological")
        for gap in (0.003, 0.02, 1.0)])
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 5.0])
    def test_matches_the_sum_over_every_node(self, alpha, coupling, gap, n,
                                             h):
        spec = make_spec(alpha=alpha, coupling=coupling, omega_gap=gap,
                         p=0.8)
        pair = green_pair(spec)
        args = (pair.channels, h, n, spec.source, adaptive_grid(),
                pair.edges, pair.edge_power)
        for got, want in zip(oscillatory_pair(*args),
                             exp_phase_pair(*args, keep_zeros=True)):
            assert np.max(np.abs(got - want)) <= \
                1e-14 * np.max(np.abs(want))


class TestInversionPlan:
    def test_resolution_relation(self):
        plan = InversionPlan(v_max=6400.0, n_fft=1 << 16)
        assert plan.dw == pytest.approx(math.pi / 6400.0, rel=1e-15)
        assert plan.v_grid()[plan.n_fft // 2] == 0.0
        w, density = invert_samples(np.zeros(plan.n_fft), plan)
        assert w.size == density.size == plan.n_fft

    def test_small_or_odd_fft_rejected(self):
        with pytest.raises(ValueError):
            InversionPlan(v_max=10.0, n_fft=1 << 10)
        with pytest.raises(ValueError):
            InversionPlan(v_max=10.0, n_fft=5000)

    @pytest.mark.parametrize("v_max", [math.inf, math.nan])
    def test_non_finite_window_rejected(self, v_max):
        with pytest.raises(ValueError, match="v_max must be finite"):
            InversionPlan(v_max=v_max)


class TestInversion:
    def test_constant_chi_is_pure_atom(self):
        # an atom left in the samples inverts to unit mass in the W = 0 bin
        plan = InversionPlan(v_max=200.0, n_fft=1 << 12)
        w, density = invert_samples(np.ones(plan.n_fft, complex), plan)
        zero = plan.n_fft // 2
        assert w[zero] == 0.0
        assert density[zero] * plan.dw == pytest.approx(1.0, rel=1e-12)
        assert np.max(np.abs(np.delete(density, zero))) < 1e-12

    def test_shift_theorem_concentrates_mass(self):
        # e^{i w0 v} inverts to a single-bin spike at w0
        plan = InversionPlan(v_max=200.0, n_fft=1 << 12)
        w0 = 64.0 * plan.dw
        w, density = invert_samples(np.exp(1j * w0 * plan.v_grid()), plan)
        peak = int(np.argmax(density.real))
        assert w[peak] == pytest.approx(w0, abs=1e-12)
        assert density[peak].real * plan.dw == pytest.approx(1.0, rel=1e-10)

    def test_samples_off_the_plan_grid_rejected(self):
        plan = InversionPlan(v_max=200.0, n_fft=1 << 12)
        with pytest.raises(ValueError, match="plan.v_grid"):
            invert_samples(np.ones(plan.n_fft // 2, complex), plan)

    def test_round_trip_reproduces_samples(self):
        plan = InversionPlan(v_max=150.0, n_fft=1 << 12)
        v = plan.v_grid()
        chi = np.exp(-0.5 * (v * 0.05) ** 2) * np.exp(1j * 0.3 * plan.dw * v)
        w, density = invert_samples(chi.astype(complex), plan)
        # forward transform of the recovered density on the same grids
        rebuilt = (density[None, :] * np.exp(1j * np.outer(v, w))).sum(axis=1)
        rebuilt *= plan.dw
        assert np.max(np.abs(rebuilt - chi)) < 1e-6

    @pytest.mark.parametrize("v_max, n_fft", [(6400.0, 1 << 16),
                                              (200.0, 1 << 12),
                                              (3.7, 1 << 14)])
    def test_bits_match_sorted_exact_sign(self, v_max, n_fft):
        # fftshift orders k as argsort did, and the phase e^{i v_max w_k}
        # is applied as its exact value (-1)^k
        def sorted_sign(residual, plan):
            spectrum = np.fft.fft(residual)
            k = np.fft.fftfreq(plan.n_fft, d=1.0 / plan.n_fft)
            w = 2.0 * math.pi * k / (plan.n_fft * plan.dv)
            density = spectrum * plan.dv / (2.0 * math.pi) \
                * np.where(k % 2 == 0.0, 1.0, -1.0)
            order = np.argsort(k)
            return w[order], density[order]

        plan = InversionPlan(v_max=v_max, n_fft=n_fft)
        rng = np.random.default_rng(n_fft)
        residual = rng.standard_normal(n_fft) \
            + 1j * rng.standard_normal(n_fft)
        for got, want in zip(invert_samples(residual, plan),
                             sorted_sign(residual, plan)):
            assert got.tobytes() == want.tobytes()

    def test_gaussian_pair_matches_analytic_density(self):
        sigma_w = 0.05
        plan = InversionPlan(v_max=400.0, n_fft=1 << 13)
        v = plan.v_grid()
        w, density = invert_samples(
            np.exp(-0.5 * (sigma_w * v) ** 2).astype(complex), plan)
        expected = np.exp(-0.5 * (w / sigma_w) ** 2) / \
            (sigma_w * math.sqrt(2.0 * math.pi))
        assert np.max(np.abs(density.real - expected)) < 1e-9


def reference_panels(omega_max, breakpoints, power):
    """One window's panels, split recursively at every edge inside it.

    The per-row layout that the run builder must reproduce to the bit:
    with m != 1 a panel with one edge end maps toward it, and one between
    two edges is halved.
    """
    pts = [-omega_max, *sorted({float(b) for b in breakpoints
                                if -omega_max < b < omega_max}), omega_max]
    singular = set(pts[1:-1]) if power != 1.0 else set()
    panels = []

    def add(a, b, left, right):
        if b <= a:
            return
        if left and right:
            mid = 0.5 * (a + b)
            add(a, mid, True, False)
            add(mid, b, False, True)
        elif left or right:
            panels.append(quadrature._Panel((b - a) ** (1.0 / power),
                                            a if left else b,
                                            1.0 if left else -1.0, power))
        else:
            panels.append(quadrature._Panel(b - a, a, 1.0, 1.0))

    for a, b in zip(pts, pts[1:]):
        add(a, b, a in singular, b in singular)
    return panels


def _layout_batches():
    """Batches of rows for integrate_rows, as (grids, edges, powers).

    Runs of one coupling's edges and power over ascending i-beta windows
    (beta 1e-3 to 2e4): no edge, the bare edge 0, or +-gap with a gap
    inside every window, at one row's window exactly (left out there),
    beyond every window or between the run's first and last window.  The
    last run always holds its gap only from beta 1 up, so the layout
    changes mid-run.  Powers 1, 2 and 2/alpha (alpha sub-Ohmic); some
    windows and gaps are numpy floats, and some rows take the trapezoid
    rule.
    """
    base = adaptive_grid().omega_max

    @st.composite
    def batch(draw):
        grids, edges, powers = [], [], []
        for _ in range(draw(st.integers(1, 4))):
            betas = sorted(draw(st.lists(st.floats(-3.0, math.log10(2e4)),
                                         min_size=2, max_size=12)))
            windows = [g.omega_max for g in _i_beta_grids(
                DEFAULT_SOURCE, [10.0 ** b for b in betas])]
            if draw(st.booleans()):
                windows = [np.float64(w) for w in windows]
            crossing = 0.5 * (windows[0] + windows[-1])
            kind = draw(st.sampled_from(
                ["none", "bare", "below", "at", "beyond", "crossing"]))
            gap = {"below": 0.5 * base, "at": windows[len(windows) // 2],
                   "beyond": 2.0 * windows[-1]}.get(kind, crossing)
            if draw(st.booleans()):
                gap = np.float64(gap)
            run_edges = {"none": (), "bare": (0.0,)}.get(kind, (-gap, gap))
            power = draw(st.sampled_from(
                [1.0, 2.0, _edge_power(draw(st.floats(0.1, 0.95)))]))
            for w in windows:
                rule = draw(st.sampled_from([Rule.ADAPTIVE_GK] * 3
                                            + [Rule.TRAPEZOID]))
                grids.append(FrequencyGrid(w, 3, rule))
                edges.append(run_edges)
                powers.append(power)
        power = draw(st.sampled_from([1.0, 2.0, _edge_power(0.3)]))
        windows = [g.omega_max for g in _i_beta_grids(
            DEFAULT_SOURCE, (1e-3, 0.3, 1.0, 30.0, 2e4))]
        gap = 0.5 * (windows[1] + windows[2])
        grids += [FrequencyGrid(w) for w in windows]
        edges += [(-gap, gap)] * len(windows)
        powers += [power] * len(windows)
        return grids, edges, powers

    return batch()


def _batch_specs(seed):
    """Seeded specs in groups that share coupling and drive.

    Every coupling and the pure bath, alpha log-uniform on [0.1, 6],
    beta on [0.1, 1e3], gaps on [0.003, 5] and p at 0, 1 or inside;
    then the two cells that ran away before the L1 floor, and the spin
    cell whose chi2(i beta) breaks down (alpha 0.5, beta 100, gap 0.02,
    lambda0 50).
    """
    rng = np.random.default_rng(seed)
    groups = []
    for coupling in (None, "spin", "fermion", "topological"):
        specs = []
        for k in range(50):
            p = (0.0, 1.0, float(rng.uniform()))[k % 3]
            specs.append(make_spec(
                alpha=float(np.exp(rng.uniform(math.log(0.1), math.log(6)))),
                beta=float(np.exp(rng.uniform(math.log(0.1),
                                              math.log(1e3)))),
                coupling=coupling,
                omega_gap=float(np.exp(rng.uniform(math.log(0.003),
                                                   math.log(5)))),
                p=p))
        groups.append(specs)
    groups[2].append(make_spec(beta=2.05, alpha=6.0, coupling="fermion",
                               omega_gap=0.05, p=0.5625))
    groups[3].append(make_spec(beta=100.0, alpha=4.0, coupling="topological",
                               omega_gap=0.08, p=0.156))
    groups[1] += [make_spec(**cell) for cell in RUNAWAY_SPIN]
    breakdown = dict(alpha=0.5, beta=100.0, coupling="spin",
                     omega_gap=0.02, lambda0=50.0)
    groups.append([make_spec(p=p, **breakdown) for p in (0.0, 0.3, 1.0)])
    return groups


class TestPanelRuns:
    """integrate_rows builds the panels once per run of rows that share
    their layout, and sizes the outer panels per row."""

    @given(_layout_batches())
    @settings(max_examples=200, deadline=None)
    def test_run_columns_equal_per_row_builds(self, batch):
        grids, edges, powers = batch
        seen = []

        def capture(f, source, active, columns, values, points, errors):
            seen.append((list(active), columns))

        with mock.patch.object(quadrature, "_adaptive", capture):
            res = integrate_rows(
                lambda omega, rows, near: (np.zeros_like(omega), 0.0),
                DEFAULT_SOURCE, grids, edges, powers)
        (active, columns), = seen
        assert active == [r for r, grid in enumerate(grids)
                          if grid.rule is Rule.ADAPTIVE_GK]
        want = [], [], [], [], [], [], []
        for r, grid in enumerate(grids):
            panels = reference_panels(grid.omega_max, edges[r], powers[r])
            assert np.array(_build_panels(grid.omega_max, edges[r],
                                          powers[r])).tobytes() == \
                np.array(panels).tobytes()
            if grid.rule is Rule.TRAPEZOID:
                assert res.points[r] == 3 * len(panels)
                assert res.values[r] == 0.0 and res.errors[r] is None
                continue
            want[0].append(len(panels))
            want[1].append(sum(p.length for p in panels))
            for p in panels:
                for column, value in zip(want[2:], (*p, _edge(p))):
                    column.append(value)
        assert columns[0] == want[0]
        for got, ref in zip(columns[1:], want[1:]):
            assert np.array(got).tobytes() == np.array(ref).tobytes()


class TestBatchedRule:
    """A row of the batched rule does not depend on the rest of its batch."""

    @staticmethod
    def assert_rows_equal(batch, i, single):
        assert np.array_equal(batch.values[i:i + 1], single.values,
                              equal_nan=True)
        assert batch.points[i] == single.points[0]
        assert batch.errors[i] == single.errors[0]

    @EACH_INTEGRAL
    def test_batch_equals_singletons_bit_for_bit(self, integral):
        groups = _batch_specs(20251018)
        assert sum(map(len, groups)) >= 200
        rng = np.random.default_rng(1)
        for specs in groups:
            order = rng.permutation(len(specs))
            batch = integral_rows([specs[i] for i in order], integral)
            for pos, i in enumerate(order):
                self.assert_rows_equal(batch, pos,
                                       integral_rows([specs[i]], integral))
        # a sweep row: one gap and 48 ascending beta values, whose i-beta
        # windows leave the gap out below beta ~ 300 and hold it above, so
        # the panel layout changes mid-batch; identity edges at alpha 5,
        # mapped by t^2 at alpha 2.5
        base = adaptive_grid().omega_max
        gap = base + 300.0 / (4.0 * DEFAULT_SOURCE.t_int ** 2)
        betas = np.geomspace(0.1, 1e3, 48).tolist()
        for coupling, alpha in (("fermion", 5.0), ("spin", 2.5)):
            specs = [make_spec(beta=beta, alpha=alpha, coupling=coupling,
                               omega_gap=gap, p=0.9) for beta in betas]
            windows = [default_i_beta_grid(s).omega_max for s in specs]
            assert min(windows) < gap < max(windows)
            batch = integral_rows(specs, integral)
            for i, spec in enumerate(specs):
                self.assert_rows_equal(batch, i,
                                       integral_rows([spec], integral))

    def test_stalled_row_fails_alone(self):
        # a jump without its breakpoint stalls; in a batch it fails with
        # its singleton's message, and the other rows, an identity and
        # two mapped ones, keep their bits
        jump = 0.01 / math.sqrt(2.0)
        terms = [lambda w: np.cos(40.0 * w), lambda w: (w > jump) * 1.0,
                 np.abs, lambda w: np.abs(w) ** 0.5]
        breakpoints = [(), (), (0.0,), (-0.01, 0.02)]
        powers = [1.0, 1.0, 2.0, 4.0]

        def rows_of(terms, breakpoints, powers):
            def f(omega, rows, near):
                out = np.empty_like(omega)
                for k, term in enumerate(terms):
                    out[rows == k] = term(omega[rows == k])
                return out, np.zeros_like(omega)
            return integrate_rows(f, DEFAULT_SOURCE,
                                  [adaptive_grid()] * len(terms),
                                  breakpoints, powers)

        batch = rows_of(terms, breakpoints, powers)
        for k in range(len(terms)):
            single = rows_of(terms[k:k + 1], breakpoints[k:k + 1],
                             powers[k:k + 1])
            self.assert_rows_equal(batch, k, single)
        assert batch.errors[1].startswith("adaptive refinement stalled")
        assert math.isnan(batch.values[1])
        assert [batch.errors[k] for k in (0, 2, 3)] == [None] * 3

    @EACH_INTEGRAL
    @pytest.mark.parametrize("coupling", [None, "spin", "fermion",
                                          "topological"])
    def test_integer_and_t2_edges_in_one_batch(self, monkeypatch, integral,
                                               coupling):
        # integer alpha keeps identity panels and non-integer alpha >= 1
        # maps its edges by t^2, so both kinds of line meet in the batch's
        # _panel_map and pair calls
        alphas = (1.0, 1.083, 2.0, 1.5, 5.0, 3.3, 4.0, 1.597)
        betas = (0.1, 1.0, 10.0, 1000.0, 0.3, 3.0, 30.0, 100.0)
        specs = [make_spec(alpha=alpha, beta=beta, coupling=coupling,
                           omega_gap=0.02, p=0.3)
                 for alpha, beta in zip(alphas, betas)]
        powers = []
        panel_map = quadrature._panel_map

        def recording(t, anchor, sign, line_powers):
            powers.append(set(line_powers.tolist()))
            return panel_map(t, anchor, sign, line_powers)

        monkeypatch.setattr(quadrature, "_panel_map", recording)
        batch = integral_rows(specs, integral)
        assert powers[0] == {1.0, 2.0}
        for i, spec in enumerate(specs):
            self.assert_rows_equal(batch, i, integral_rows([spec], integral))

    def test_singletons_are_batches_of_one(self):
        # w_ext2, i_beta_deficit and _work_one return the bits, or raise
        # the error, of the spec's row in a batch on the default windows
        def outcome(fn, *args):
            try:
                value = fn(*args)
            except QuadratureError as exc:
                return str(exc)
            return tuple(map(float.hex, value)) \
                if isinstance(value, tuple) else value.hex()

        # then a clean fermion cell and one whose i-beta deficit fails
        failing = [make_spec(beta=beta, alpha=5.0, coupling="fermion",
                             omega_gap=0.05, p=0.9) for beta in (1.0, 5e3)]
        for specs in [*_batch_specs(7), failing]:
            source = specs[0].source
            values, errors, (mean, deficit) = _work_rows(
                specs, [adaptive_grid(source)] * len(specs),
                _i_beta_grids(source, [spec.beta for spec in specs]))
            for k in [*range(0, len(specs), 10), len(specs) - 1]:
                spec, (w_bar, d) = specs[k], values[k].tolist()
                assert outcome(w_ext2, spec) == \
                    (mean.errors[k] or (-w_bar).hex())
                assert outcome(i_beta_deficit, spec) == \
                    (deficit.errors[k] or d.hex())
                assert outcome(_work_one, spec, drive_grid,
                               default_i_beta_grid) == \
                    (errors[k] or (w_bar.hex(), d.hex()))
        assert errors == [None, "integrand evaluation failed at omega = "
                                "-0.167802"]

    @EACH_INTEGRAL
    def test_drive_window_sized_once_per_batch(self, monkeypatch, integral):
        # a batch shares its drive, so its drive-only window is one
        specs = [make_spec(beta=beta, alpha=5.0, coupling="fermion",
                           omega_gap=0.05, p=0.9)
                 for beta in (0.3, 1.0, 3.0, 10.0, 30.0)]
        expected = [integral_rows([spec], integral).values[0]
                    for spec in specs]
        sized = []
        for_source = FrequencyGrid.for_source.__func__

        def counted(cls, source):
            sized.append(source)
            return for_source(cls, source)

        monkeypatch.setattr(FrequencyGrid, "for_source",
                            classmethod(counted))
        assert list(integral_rows(specs, integral).values) == expected
        assert len(sized) == 1

    def test_non_finite_sample_fails_its_row_alone(self, monkeypatch):
        specs = [make_spec(beta=beta, alpha=5.0, coupling="fermion",
                           omega_gap=0.05, p=0.9)
                 for beta in (0.3, 1.0, 3.0, 10.0, 30.0)]
        clean = integral_rows(specs, "mean_work")
        poisoned_beta = specs[2].beta
        pair = ChannelTable.pair

        def poisoned(self, omega, rows, near):
            g_mp, g_pm = pair(self, omega, rows, near)
            # params row 0 is beta
            hit = ((self.params[0, rows] == poisoned_beta)[:, None]
                   & (omega > 0.02))
            return np.where(hit, np.nan, g_mp), g_pm

        monkeypatch.setattr(ChannelTable, "pair", poisoned)
        batch = integral_rows(specs, "mean_work")
        single = integral_rows([specs[2]], "mean_work")
        assert single.errors[0].startswith(
            "integrand evaluation failed at omega = 0.02")
        assert batch.errors[2] == single.errors[0]
        assert math.isnan(batch.values[2])
        with pytest.raises(QuadratureError) as info:
            w_ext2(specs[2])
        assert str(info.value) == single.errors[0]
        for i in (0, 1, 3, 4):
            self.assert_rows_equal(batch, i,
                                   integral_rows([specs[i]], "mean_work"))
            assert batch.values[i] == clean.values[i]
