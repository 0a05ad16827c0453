import math
from dataclasses import replace

import numpy as np
import pytest

from drivenbath import (DrivenSource, FrequencyGrid, InversionPlan,
                        QuadratureError, Rule, green_pair, invert_samples,
                        lambda_weight, oscillatory_pair, w_ext2)
from drivenbath.green import ChannelTable
from drivenbath.quadrature import (_build_panels, _gl_nodes_weights,
                                   _unit_phases, integrate_rows)
from drivenbath.workstats import (default_i_beta_grid, i_beta_deficit,
                                  i_beta_deficit_rows, w_ext2_rows)

from conftest import DEFAULT_SOURCE, make_spec


def adaptive_grid(source=DEFAULT_SOURCE):
    return FrequencyGrid.for_source(source)


def trapezoid_grid(source=DEFAULT_SOURCE, n=1 << 16):
    return replace(FrequencyGrid.for_source(source), rule=Rule.TRAPEZOID,
                   n_points=n)


def integrate_one(f, grid, breakpoints=(), singular_exponent=None,
                  complex_valued=False):
    """The integral of ``f(omega)`` against the default drive measure.

    A batch of one row of :func:`integrate_rows`; raises the row's
    QuadratureError if it failed.
    """
    return integrate_rows(lambda omega, rows: f(omega), DEFAULT_SOURCE,
                          [grid], [breakpoints], [singular_exponent],
                          complex_valued=complex_valued).value()


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

    def test_unresolved_jump_keeps_its_open_intervals(self):
        # without a breakpoint the jump is never resolved: refinement runs
        # all its steps, and the intervals still open must still count
        edge = 0.01 / math.sqrt(2.0)

        def step(w):
            return (w > edge).astype(float)

        blind = integrate_one(step, adaptive_grid())
        split = integrate_one(step, adaptive_grid(), breakpoints=(edge,))
        assert abs(blind - split) <= 1e-12 * abs(split)

    def test_pair_resolves_cancellation_down_to_its_floor(self):
        # a and delta - a cancel to delta = cos(3w), whose integral is
        # lam0^2 t_int e^{-9/(8 t_int^2)}; both rules integrate the pair
        def f(w):
            a = 1e12 * w * w
            return a, np.cos(3.0 * w) - a

        def l1(w):
            return sum(np.abs(term) for term in f(w))

        adaptive = integrate_one(f, adaptive_grid())
        trapezoid = integrate_one(f, trapezoid_grid(n=1 << 18))
        norm = integrate_one(l1, trapezoid_grid())
        exact = 1e-2 * math.exp(-9.0 / 8e4)
        assert norm > 1e7 * exact
        assert abs(adaptive - trapezoid) <= 1e-14 * norm
        assert abs(adaptive - exact) <= 1e-14 * norm

    def test_lone_array_is_the_pair_with_zero(self):
        f = lambda w: np.cos(3.0 * w)  # noqa: E731
        pair = lambda w: (f(w), np.zeros_like(w))  # noqa: E731
        for grid in (adaptive_grid(), trapezoid_grid()):
            assert integrate_one(pair, grid) == integrate_one(f, grid)

    def test_rules_agree_on_singular_integrand(self):
        # |w|^{-1/2} endpoint handled by the power substitution
        def f(w):
            out = np.zeros_like(w)
            m = w > 0
            out[m] = w[m] ** -0.5
            return out

        kwargs = dict(breakpoints=(0.0,), singular_exponent=-0.5)
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
        f = lambda w: np.exp(1j * 40.0 * w)  # noqa: E731
        a = integrate_one(f, adaptive_grid(), complex_valued=True)
        t = integrate_one(f, trapezoid_grid(), complex_valued=True)
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
                      singular_exponent=pair.singular_exponent)
        reference = 0.5 * integrate_one(f, grid, **kwargs)
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


def exp_phase_pair(f1, f2, v, source, grid, breakpoints=(),
                   singular_exponent=None):
    """oscillatory_pair with its phase tables built by the complex
    exponential and its coefficients joined by hstack, as before the
    tables were filled from cos and sin."""
    n = v.size
    h = (v[-1] - v[0]) / (n - 1) if n > 1 else 0.0
    panels = _build_panels(grid.omega_max, breakpoints, singular_exponent)
    nodes, weights = _gl_nodes_weights(
        panels, float(np.max(np.abs(v), initial=0.0)))
    measure = lambda_weight(nodes, source) / (2.0 * math.pi) * weights
    c1 = measure * np.asarray(f1(nodes), dtype=float)
    c2 = measure * np.asarray(f2(nodes), dtype=float)
    block = math.isqrt(max(n - 1, 0)) + 1
    table = np.exp(1j * np.outer(h * np.arange(block), nodes))
    shift = np.exp(1j * np.outer(nodes, v[::block]))
    samples = table @ np.hstack([c1[:, None] * shift, c2[:, None] * shift])
    return tuple(part.T.ravel()[:n] for part in np.hsplit(samples, 2))


class TestOscillatoryPair:
    def test_matches_direct_integral(self):
        f1 = lambda w: np.where(w > 0, w, 0.0)  # noqa: E731
        f2 = lambda w: np.exp(-np.abs(w))  # noqa: E731
        v = np.arange(0.0, 6401.0)
        a1, a2 = oscillatory_pair(f1, f2, v, DEFAULT_SOURCE, adaptive_grid(),
                                  breakpoints=(0.0,))
        for vv in (0.0, 13.0, 500.0, 6400.0):
            k = int(vv)
            direct1 = integrate_one(
                lambda w: f1(w) * np.exp(1j * w * vv), adaptive_grid(),
                breakpoints=(0.0,), complex_valued=True)
            direct2 = integrate_one(
                lambda w: f2(w) * np.exp(1j * w * vv), adaptive_grid(),
                breakpoints=(0.0,), complex_valued=True)
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

    @pytest.mark.parametrize("v", [
        pytest.param(h * np.arange(n), id=f"n{n}")
        for n, h in [(1, 32.0), (2, 32.0), (201, 32.0), (225, 32.0),
                     (32769, 0.1953125)]] + [
        pytest.param(start + 32.0 * np.arange(201), id=f"start{start:g}")
        for start in (-3200.0, -3217.5, 1000.25)])
    @pytest.mark.parametrize("coupling", [None, "spin", "fermion",
                                          "topological"])
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 5.0])
    def test_bits_match_complex_exponential(self, alpha, coupling, v):
        spec = make_spec(alpha=alpha, coupling=coupling, p=0.8)
        pair = green_pair(spec)
        args = (pair.g_mp, pair.g_pm, v, spec.source, adaptive_grid())
        kwargs = dict(breakpoints=pair.edges,
                      singular_exponent=pair.singular_exponent)
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

        def f1(w):
            calls.append(np.size(w))
            return np.exp(-np.abs(w))

        oscillatory_pair(f1, f1, np.linspace(0.0, 6400.0, 201),
                         DEFAULT_SOURCE, adaptive_grid())
        assert len(calls) == 2 and calls[0] == calls[1] > 201

    def test_node_cap(self):
        # |v| = 640,000 stays below the cap; 770,000 is refused
        panels = _build_panels(adaptive_grid().omega_max, (), None)
        assert _gl_nodes_weights(panels, 640000.0)[0].size == 109_880
        with pytest.raises(ValueError, match="needs 132,200 quadrature "
                           "nodes, above the cap of 131,072"):
            _gl_nodes_weights(panels, 770000.0)

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
        plan = InversionPlan(v_max=6400.0, n_fft=1 << 16)
        assert plan.dw == pytest.approx(math.pi / 6400.0, rel=1e-15)
        assert plan.v_grid()[plan.n_fft // 2] == 0.0
        assert plan.w_grid().size == plan.n_fft

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

    def test_gaussian_pair_matches_analytic_density(self):
        sigma_w = 0.05
        plan = InversionPlan(v_max=400.0, n_fft=1 << 13)
        v = plan.v_grid()
        w, density = invert_samples(
            np.exp(-0.5 * (sigma_w * v) ** 2).astype(complex), plan)
        expected = np.exp(-0.5 * (w / sigma_w) ** 2) / \
            (sigma_w * math.sqrt(2.0 * math.pi))
        assert np.max(np.abs(density.real - expected)) < 1e-9


def _batch_specs(seed):
    """Seeded specs in groups that share coupling and drive.

    Every coupling and the pure bath, alpha log-uniform on [0.1, 6],
    beta on [0.1, 1e3], gaps on [0.003, 5] and p at 0, 1 or inside;
    then the two cells that ran away before the L1 floor, and the spin
    cell that stalls (alpha 0.5, beta 100, gap 0.02, lambda0 50).
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
    stalling = dict(alpha=0.5, beta=100.0, coupling="spin", omega_gap=0.02,
                    lambda0=50.0)
    groups.append([make_spec(p=p, **stalling) for p in (0.0, 0.3, 1.0)])
    return groups


class TestBatchedRule:
    """A row of the batched rule does not depend on the rest of its batch."""

    @staticmethod
    def assert_rows_equal(batch, i, single):
        assert np.array_equal(batch.values[i:i + 1], single.values,
                              equal_nan=True)
        assert batch.points[i] == single.points[0]
        assert batch.stalled[i] == single.stalled[0]
        assert batch.errors[i] == single.errors[0]

    @pytest.mark.parametrize("rows", [w_ext2_rows, i_beta_deficit_rows])
    def test_batch_equals_singletons_bit_for_bit(self, rows):
        groups = _batch_specs(20251018)
        assert sum(map(len, groups)) >= 200
        rng = np.random.default_rng(1)
        stalled = 0
        for specs in groups:
            order = rng.permutation(len(specs))
            batch = rows([specs[i] for i in order])
            for pos, i in enumerate(order):
                self.assert_rows_equal(batch, pos, rows([specs[i]]))
            stalled += int(batch.stalled.sum())
        if rows is i_beta_deficit_rows:
            assert stalled > 0  # the spin cell above

    def test_singletons_are_batches_of_one(self):
        for specs in _batch_specs(7):
            spec = specs[0]
            assert w_ext2(spec) == w_ext2_rows([spec]).values[0]
            assert i_beta_deficit(spec) == \
                i_beta_deficit_rows([spec]).values[0]

    def test_non_finite_sample_fails_its_row_alone(self, monkeypatch):
        specs = [make_spec(beta=beta, alpha=5.0, coupling="fermion",
                           omega_gap=0.05, p=0.9)
                 for beta in (0.3, 1.0, 3.0, 10.0, 30.0)]
        clean = w_ext2_rows(specs)
        poisoned_beta = specs[2].beta
        pair = ChannelTable.pair

        def poisoned(self, omega, rows):
            g_mp, g_pm = pair(self, omega, rows)
            # params row 0 is beta
            hit = ((self.params[0, rows] == poisoned_beta)[:, None]
                   & (omega > 0.02))
            return np.where(hit, np.nan, g_mp), g_pm

        monkeypatch.setattr(ChannelTable, "pair", poisoned)
        batch = w_ext2_rows(specs)
        single = w_ext2_rows([specs[2]])
        assert single.errors[0].startswith(
            "integrand evaluation failed at omega = 0.02")
        assert batch.errors[2] == single.errors[0]
        assert math.isnan(batch.values[2])
        with pytest.raises(QuadratureError) as info:
            w_ext2(specs[2])
        assert str(info.value) == single.errors[0]
        for i in (0, 1, 3, 4):
            self.assert_rows_equal(batch, i, w_ext2_rows([specs[i]]))
            assert batch.values[i] == clean.values[i]
