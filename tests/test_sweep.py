import math

import numpy as np
import pytest

import drivenbath.quadrature as quadrature
import drivenbath.sweep as sweepmod
import drivenbath.thermo as thermo
import drivenbath.workstats as ws
from drivenbath import (Axis, Quantity, QuadratureError, SweepError,
                        SweepPlan, beta_q_marker, chi2_at_i_beta,
                        engine_report, entropy_production,
                        extract_zero_contour, run_sweep, w_ext2, with_param)
from drivenbath.green import ChannelTable
from drivenbath.model import require_valid
from drivenbath.sweep import CELL_ERRORS, SweepResult
from drivenbath.thermo import _engine_guard
from drivenbath.workstats import chi2_from_deficit, work_integrals

from conftest import (make_spec, scalar_engine_report,
                      scalar_entropy_production)

#: what a cell of each quantity evaluates when integrated on its own
DIRECT = {
    Quantity.W_EXT: w_ext2,
    Quantity.CHI_I_BETA: chi2_at_i_beta,
    Quantity.DELTA_S: entropy_production,
    Quantity.FIGURE_OF_MERIT: lambda spec: engine_report(spec).figure_of_merit,
}


def w_ext_scan(parameter, values, fixed):
    """W_ext along one parameter with the others held at ``fixed``."""
    return np.array([w_ext2(with_param(fixed, parameter, float(v)))
                     for v in values])


def cell_spec(plan, x, y):
    return with_param(with_param(plan.fixed, plan.x.name, float(x)),
                      plan.y.name, float(y))


def direct_cells(plan, quantity):
    """Per-cell direct values, and the message of each cell that raises."""
    fn = DIRECT[quantity]
    values = np.full((plan.x.n, plan.y.n), np.nan)
    failures = {}
    for i, x in enumerate(plan.x.values()):
        for j, y in enumerate(plan.y.values()):
            try:
                values[i, j] = fn(cell_spec(plan, x, y))
            except CELL_ERRORS as exc:
                failures[(i, j)] = str(exc)
    return values, failures


def assert_matches_direct(result):
    """Each cell within 1e-12 of its column's max |value| of the direct
    per-cell evaluation; a column holds the non-p coordinate fixed."""
    expected, _ = direct_cells(result.plan, result.quantity)
    got = result.grid
    if result.plan.x.name == "p":
        expected, got = expected.T, got.T
    for want, have in zip(expected, got):
        assert np.array_equal(np.isnan(want), np.isnan(have))
        scale = np.nanmax(np.abs(want))
        assert np.nanmax(np.abs(have - want)) <= 1e-12 * scale


def reference_cell_value(spec, quantity, w_bar, deficit):
    """One cell's quantity from its integrals, evaluated on its own spec."""
    if quantity is Quantity.FIGURE_OF_MERIT:
        return scalar_engine_report(spec, w_bar, deficit).figure_of_merit
    require_valid(spec)
    if quantity is Quantity.W_EXT:
        return -w_bar
    if quantity is Quantity.CHI_I_BETA:
        return chi2_from_deficit(deficit)
    return scalar_entropy_production(spec, w_bar, deficit)


def reference_cells(plan, quantity, xs, ys):
    """Per-cell reference of the sweep's cell stage at (xs[i], ys[j]).

    With a p axis a cell blends (1 - p) I_0 + p I_1 in scalars from its
    column's endpoint integrals (the first error of the two fails it,
    after the cell's own engine guards and validity, as in a direct
    call); without one, each cell is its own batch of one, which gives
    the bits of any batch.  Returns the values and the failures tuple.
    """
    values = np.full((len(xs), len(ys)), np.nan)
    failures = []
    wanted = dict(mean_work=quantity is not Quantity.CHI_I_BETA,
                  deficit=quantity is not Quantity.W_EXT)
    p_on_x, p_on_y = plan.x.name == "p", plan.y.name == "p"
    if p_on_x or p_on_y:
        axis = plan.y if p_on_x else plan.x
        keys = ys if p_on_x else xs
        ends = [with_param(with_param(plan.fixed, axis.name, key), "p", p)
                for key in keys for p in (0.0, 1.0)]
        entries, _ = work_integrals(ends, **wanted)
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            spec = with_param(with_param(plan.fixed, plan.x.name, x),
                              plan.y.name, y)
            try:
                if p_on_x or p_on_y:
                    pair = entries[2 * (j if p_on_x else i):][:2]
                    failed = [e for e in pair if isinstance(e, Exception)]
                    if failed:
                        if quantity is Quantity.FIGURE_OF_MERIT:
                            _engine_guard(spec)
                        require_valid(spec)
                        raise failed[0]
                    p = x if p_on_x else y
                    (w0, d0), (w1, d1) = pair
                    values[i, j] = reference_cell_value(
                        spec, quantity, (1.0 - p) * w0 + p * w1,
                        (1.0 - p) * d0 + p * d1)
                elif quantity is Quantity.FIGURE_OF_MERIT:
                    values[i, j] = engine_report(spec).figure_of_merit
                else:
                    (entry,), _ = work_integrals([spec], **wanted)
                    if isinstance(entry, Exception):
                        raise entry
                    values[i, j] = reference_cell_value(spec, quantity,
                                                        *entry)
            except CELL_ERRORS as exc:
                failures.append((i, j, str(exc)))
    return values, tuple(failures)


def spin_gap_plan(p_range=(0.0, 1.0)):
    fixed = make_spec(beta=2.0, alpha=5.0, coupling="spin", p=0.9)
    return SweepPlan(x=Axis("p", *p_range, n=16),
                     y=Axis("omega_gap", 0.01, 5.0, n=16, scale="log"),
                     fixed=fixed)


def alpha_p_plan(p_range=(0.05, 0.95)):
    fixed = make_spec(beta=1.0, coupling="topological", omega_gap=0.5,
                      p=0.9)
    return SweepPlan(x=Axis("alpha", 0.5, 6.0, n=16),
                     y=Axis("p", *p_range, n=16), fixed=fixed)


def spin_plan(nx=16, ny=16, p_range=(0.0, 1.0), beta_range=(0.1, 100.0)):
    fixed = make_spec(beta=1.0, alpha=5.0, coupling="spin", omega_gap=0.05,
                      p=0.9)
    return SweepPlan(x=Axis("p", *p_range, n=nx),
                     y=Axis("beta", *beta_range, n=ny, scale="log"),
                     fixed=fixed)


def gap_beta_from_zero_plan(p):
    return SweepPlan(x=Axis("omega_gap", 0.0, 0.1, n=16),
                     y=Axis("beta", 0.0, 10.0, n=16),
                     fixed=make_spec(alpha=5.0, coupling="fermion", p=p))


#: out-of-range p, the engine guard and the chi2(i beta) breakdown
REFUSAL_PLANS = [
    (spin_plan(p_range=(-0.2, 1.0)), Quantity.W_EXT),
    (spin_plan(p_range=(0.3, 0.9)), Quantity.FIGURE_OF_MERIT),
    (spin_gap_plan(p_range=(-0.1, 1.1)), Quantity.DELTA_S),
    (SweepPlan(x=Axis("p", 0.0, 1.0, n=16),
               y=Axis("beta", 1.0, 100.0, n=16, scale="log"),
               fixed=make_spec(alpha=2.0, lambda0=50.0, coupling="spin",
                               omega_gap=0.02)),
     Quantity.CHI_I_BETA),
    # out-of-range p on y: the validity check's first y is invalid
    (SweepPlan(x=Axis("beta", 0.1, 100.0, n=16, scale="log"),
               y=Axis("p", -0.2, 1.0, n=16), fixed=spin_plan().fixed),
     Quantity.W_EXT),
    # no valid cell at the first x or the first y, and failed columns:
    # each cell is checked, and an invalid p comes before the column
    *((SweepPlan(x=Axis("p", -0.2, 1.0, n=16),
                 y=Axis("omega_gap", -0.01, 0.1, n=16),
                 fixed=spin_plan().fixed), quantity)
      for quantity in Quantity),
    # no p axis: the engine guards come first, a gapless qubit before
    # beta = 0, and at p 0.4 they refuse every cell
    *((gap_beta_from_zero_plan(p), Quantity.FIGURE_OF_MERIT)
      for p in (0.9, 0.4)),
]

#: plans with p on either axis, beta on either or neither, and none
STAGE_PLANS = {
    "p-beta": spin_plan(),
    "p-gap": spin_gap_plan(),
    "alpha-p": alpha_p_plan(),
    "alpha-p-out-of-range": alpha_p_plan(p_range=(0.05, 1.2)),
    "beta-p": SweepPlan(x=Axis("beta", 0.1, 10.0, n=16, scale="log"),
                        y=Axis("p", 0.0, 1.0, n=16),
                        fixed=make_spec(alpha=3.0, coupling="fermion",
                                        omega_gap=0.1, p=0.9)),
    "gap-beta": SweepPlan(x=Axis("omega_gap", 0.01, 1.0, n=16, scale="log"),
                          y=Axis("beta", 0.1, 10.0, n=16, scale="log"),
                          fixed=make_spec(alpha=5.0, coupling="spin",
                                          p=0.9)),
}


class TestAxis:
    def test_validation(self):
        with pytest.raises(ValueError, match="unknown sweep parameter"):
            Axis("lc", 0.0, 1.0)
        with pytest.raises(ValueError, match=">= 16"):
            Axis("p", 0.0, 1.0, n=8)
        with pytest.raises(ValueError, match="positive"):
            Axis("beta", -1.0, 10.0, scale="log")
        for start, stop in ((1.0, math.inf), (math.nan, 1.0)):
            with pytest.raises(ValueError, match="finite"):
                Axis("beta", start, stop)

    @pytest.mark.parametrize("n", [16.5, 16.0, np.float64(16.0), "16"])
    def test_non_integer_resolution_rejected(self, n):
        # a float count used to pass and then fail run_sweep in linspace
        with pytest.raises(ValueError, match="must be an integer"):
            Axis("p", 0.0, 1.0, n=n)

    def test_numpy_integer_resolution_accepted(self):
        for n in (np.int64(16), np.int32(17)):
            assert Axis("p", 0.0, 1.0, n=n).values().size == n

    def test_log_values_are_geometric(self):
        vals = Axis("beta", 0.1, 100.0, n=16, scale="log").values()
        ratios = vals[1:] / vals[:-1]
        assert np.allclose(ratios, ratios[0], rtol=1e-12)

    def test_plan_rejects_duplicate_axes(self):
        spec = make_spec(coupling="spin")
        with pytest.raises(ValueError, match="distinct"):
            SweepPlan(x=Axis("p", 0.0, 1.0), y=Axis("p", 0.0, 0.5),
                      fixed=spec)

    def test_qubit_axes_need_qubit(self):
        with pytest.raises(ValueError, match="qubit"):
            SweepPlan(x=Axis("p", 0.0, 1.0),
                      y=Axis("beta", 0.1, 1.0, scale="log"),
                      fixed=make_spec())


class TestRunSweep:
    def test_deterministic_across_runs(self):
        plan = spin_plan()
        first = run_sweep(plan, Quantity.W_EXT)
        second = run_sweep(plan, Quantity.W_EXT)
        assert np.array_equal(first.grid, second.grid)

    def test_affine_in_population(self):
        # p-axis cells are blended from p = 0 and p = 1 column integrals;
        # each must still match its own direct integral
        assert_matches_direct(run_sweep(spin_plan(), Quantity.W_EXT))

    def test_chi_i_beta_affine_in_population(self):
        plan = spin_plan(ny=16, beta_range=(0.5, 5.0))
        assert_matches_direct(run_sweep(plan, Quantity.CHI_I_BETA))

    @pytest.mark.parametrize("quantity", [Quantity.DELTA_S,
                                          Quantity.FIGURE_OF_MERIT])
    @pytest.mark.parametrize("make_plan", [spin_plan, spin_gap_plan,
                                           alpha_p_plan])
    def test_blended_cells_match_direct_evaluation(self, quantity,
                                                   make_plan):
        # figure-of-merit cells need p > 1/2
        p_range = (0.55, 1.0) if quantity is Quantity.FIGURE_OF_MERIT \
            else (0.0, 1.0)
        result = run_sweep(make_plan(p_range=p_range), quantity)
        assert result.failures == ()
        assert_matches_direct(result)

    def test_cells_without_a_population_axis_are_engine_reports(self):
        # integrated per cell: bit for bit engine_report, NaN for NaN
        fixed = make_spec(alpha=5.0, coupling="fermion", omega_gap=0.05,
                          p=0.9)
        plan = SweepPlan(x=Axis("omega_gap", 0.01, 1.0, n=16, scale="log"),
                         y=Axis("beta", 0.1, 100.0, n=16, scale="log"),
                         fixed=fixed)
        result = run_sweep(plan, Quantity.FIGURE_OF_MERIT)
        expected, failures = direct_cells(plan, Quantity.FIGURE_OF_MERIT)
        assert failures == {}
        assert np.array_equal(result.grid, expected, equal_nan=True)

    @pytest.mark.parametrize("plan, quantity", REFUSAL_PLANS)
    def test_blended_cells_keep_their_refusals(self, monkeypatch, plan,
                                               quantity):
        # out-of-range p, the engine guard and the chi2(i beta) breakdown
        # fail the same cells with the same messages as direct calls
        monkeypatch.setattr(sweepmod, "MAX_FAILED_FRACTION", 1.0)
        result = run_sweep(plan, quantity)
        _, expected = direct_cells(plan, quantity)
        assert expected
        assert {(i, j): m for i, j, m in result.failures} == expected

    def test_counts_integrals(self):
        # two endpoint integrals per column, against nx * ny per cell
        result = run_sweep(spin_plan(nx=64, ny=64), Quantity.W_EXT)
        assert result.metadata["integrals"] == 128
        chi = run_sweep(spin_plan(), Quantity.CHI_I_BETA)
        assert chi.metadata["integrals"] == 32
        plan = SweepPlan(x=Axis("omega_gap", 0.01, 1.0, n=16, scale="log"),
                         y=Axis("beta", 0.1, 10.0, n=16, scale="log"),
                         fixed=spin_plan().fixed)
        assert run_sweep(plan, Quantity.DELTA_S).metadata["integrals"] == 512

    def test_high_temperature_antisymmetry(self):
        # W_ext(p) = -W_ext(1-p) as beta -> 0 for the spin coupling
        fixed = make_spec(beta=1e-6, alpha=5.0, coupling="spin",
                          omega_gap=0.05, p=0.9)
        ps = np.linspace(0.0, 1.0, 21)
        values = w_ext_scan("p", ps, fixed)
        assert np.max(np.abs(values + values[::-1])) <= 1e-10

    def test_saturation_at_large_beta(self):
        fixed = make_spec(alpha=5.0, coupling="spin", omega_gap=0.05, p=0.95)
        values = w_ext_scan("beta", [500.0, 1000.0], fixed)
        assert abs(values[1] - values[0]) < 0.01 * abs(values[1])

    def test_small_and_large_gap_have_opposite_patterns(self):
        # the extraction regime swaps sides in p between small and large
        # gaps: at p near 0 the signs are opposite for every beta
        betas = [1.0, 20.0]
        small = w_ext_scan("beta", betas,
                           make_spec(alpha=5.0, coupling="spin",
                                     omega_gap=0.05, p=0.05))
        large = w_ext_scan("beta", betas,
                           make_spec(alpha=5.0, coupling="spin",
                                     omega_gap=5.0, p=0.05))
        assert np.all(np.sign(small) == -np.sign(large))
        assert np.all(small < 0) and np.all(large > 0)

    def test_failed_cells_abort_with_list(self):
        # figure-of-merit rejects p <= 1/2, more than 1% of this grid
        plan = spin_plan(p_range=(0.3, 0.9))
        with pytest.raises(SweepError) as info:
            run_sweep(plan, Quantity.FIGURE_OF_MERIT)
        assert len(info.value.failures) > 0

    def test_beta_axis_from_zero_fails_those_cells_by_validation(self):
        # the engine guard runs on numpy axis values before validation: at
        # beta = 0 it must refuse nothing and divide by nothing
        plan = SweepPlan(x=Axis("omega_gap", 0.01, 0.1, n=16),
                         y=Axis("beta", 0.0, 10.0, n=16),
                         fixed=make_spec(coupling="fermion", p=0.9))
        with pytest.raises(SweepError) as info:
            run_sweep(plan, Quantity.FIGURE_OF_MERIT)
        assert info.value.failures == tuple(
            (i, 0, "invalid system spec: beta must be > 0")
            for i in range(16))

    def test_beta_without_a_window_is_refused_alone(self):
        # at t_int 100 the i-beta window 4.29/t_int + beta/(4 t_int^2) is
        # <= 0 from beta ~ -1716 down, and no FrequencyGrid holds it: the
        # refused beta -2000 takes no window, so its 16 cells (1% of the
        # map) are recorded and the rest of each row integrates
        plan = SweepPlan(x=Axis("omega_gap", 0.01, 0.1, n=16),
                         y=Axis("beta", -2000.0, 200000.0, n=101),
                         fixed=make_spec(coupling="spin", p=0.9))
        result = run_sweep(plan, Quantity.W_EXT)
        assert result.failures == tuple(
            (i, 0, "invalid system spec: beta must be > 0")
            for i in range(16))
        assert np.isnan(result.grid[:, 0]).all()
        assert np.isfinite(result.grid[:, 1:]).all()

    def test_all_betas_without_a_window_fail_with_the_cell_list(self):
        plan = SweepPlan(x=Axis("omega_gap", 0.01, 0.1, n=16),
                         y=Axis("beta", -3000.0, -2000.0, n=16),
                         fixed=make_spec(coupling="fermion", p=0.9))
        with pytest.raises(SweepError) as info:
            run_sweep(plan, Quantity.FIGURE_OF_MERIT)
        assert info.value.failures == tuple(
            (i, j, "invalid system spec: beta must be > 0")
            for i in range(16) for j in range(16))

    def test_quadrature_failure_is_recorded_per_cell(self, monkeypatch):
        # the seam is the stage's last step, which turns each cell's
        # integrals into the quantity or the cell's error
        original = sweepmod._CellEvaluator._values

        def flaky(self, xs, ys, specs, w_bar, deficit, errors):
            values = original(self, xs, ys, specs, w_bar, deficit, errors)
            for i, p in enumerate(xs):
                for j, beta in enumerate(ys):
                    if p == 0.0 and beta == 0.1:
                        errors[i, j] = QuadratureError("non-finite integrand")
                        values[i, j] = math.nan
            return values

        monkeypatch.setattr(sweepmod._CellEvaluator, "_values", flaky)
        result = run_sweep(spin_plan(), Quantity.W_EXT)
        assert result.failures == ((0, 0, "non-finite integrand"),)
        assert np.isnan(result.grid[0, 0])
        assert np.isfinite(result.grid).sum() == result.grid.size - 1

    def test_failed_saddle_center_uses_corner_mean(self, monkeypatch):
        # W = (p - 1/2)(ln beta - ln 1.2) has its saddle inside cell (7, 5)
        plan = spin_plan()
        xs = plan.x.values()

        def saddle(self, ps, betas, specs, w_bar, deficit, errors):
            values = np.full(w_bar.shape, math.nan)
            for i, p in enumerate(ps):
                for j, beta in enumerate(betas):
                    if p not in xs:
                        errors[i, j] = QuadratureError("stalled")
                    else:
                        values[i, j] = (p - 0.5) * (math.log(beta)
                                                    - math.log(1.2))
            return values

        monkeypatch.setattr(sweepmod._CellEvaluator, "_values", saddle)
        result = run_sweep(plan, Quantity.W_EXT)
        assert result.failures == ((7, 5, "center: stalled"),)
        assert result.metadata["failed_cells"] == 1
        assert np.all(np.isfinite(result.grid))
        mean_rule = extract_zero_contour(result)
        assert len(result.zero_contour) == len(mean_rule)
        for line, expected in zip(result.zero_contour, mean_rule):
            assert np.array_equal(line, expected)

    def test_failed_endpoint_integral_fails_its_column(self, monkeypatch):
        plan = spin_plan()
        beta = plan.y.values()[3]
        original = ws._work_rows

        def flaky(specs, mean_grids, deficit_grids):
            # the batched rule fails the rows at this beta, as it fails a
            # row with a non-finite sample
            values, errors, calls = original(specs, mean_grids,
                                             deficit_grids)
            hit = [spec.beta == beta for spec in specs]
            values[hit] = np.nan
            return values, ["non-finite integrand" if h else e
                            for h, e in zip(hit, errors)], calls

        monkeypatch.setattr(ws, "_work_rows", flaky)
        column = tuple((i, 3, "non-finite integrand") for i in range(16))
        with pytest.raises(SweepError) as info:
            run_sweep(plan, Quantity.W_EXT)
        assert info.value.failures == column
        monkeypatch.setattr(sweepmod, "MAX_FAILED_FRACTION", 0.1)
        result = run_sweep(plan, Quantity.W_EXT)
        assert result.failures == column
        assert np.all(np.isnan(result.grid[:, 3]))
        assert np.isfinite(result.grid).sum() == 15 * 16

    def test_non_finite_integrand_fails_one_cell(self, monkeypatch):
        # a row of the batched rule that fails takes down its cell alone,
        # with the message its direct evaluation raises
        fixed = make_spec(alpha=5.0, coupling="fermion", omega_gap=0.05,
                          p=0.9)
        plan = SweepPlan(x=Axis("omega_gap", 0.01, 1.0, n=16, scale="log"),
                         y=Axis("beta", 0.1, 100.0, n=16, scale="log"),
                         fixed=fixed)
        clean = run_sweep(plan, Quantity.FIGURE_OF_MERIT)
        i, j = 5, 9
        gap, beta = plan.x.values()[i], plan.y.values()[j]
        pair = ChannelTable.pair

        def poisoned(self, omega, rows, near):
            g_mp, g_pm = pair(self, omega, rows, near)
            # params rows: beta first, the shift +gap of the last term last
            hit = ((self.params[0, rows] == beta)
                   & (self.params[-1, rows] == gap))[:, None]
            return g_mp, np.where(hit & (omega < 0.0), np.inf, g_pm)

        monkeypatch.setattr(ChannelTable, "pair", poisoned)
        result = run_sweep(plan, Quantity.FIGURE_OF_MERIT)
        with pytest.raises(QuadratureError) as info:
            engine_report(cell_spec(plan, gap, beta))
        assert result.failures == ((i, j, str(info.value)),)
        others = np.ones(clean.grid.shape, dtype=bool)
        others[i, j] = False
        assert np.array_equal(result.grid[others], clean.grid[others],
                              equal_nan=True)

    @pytest.mark.parametrize("p, batches", [(0.9, [15] * 30), (0.4, [])])
    def test_engine_guards_refuse_before_integrating(self, monkeypatch, p,
                                                     batches):
        # without a p axis the guarded cells never reach the batched rule:
        # no gap-0 cell at p 0.9 (the row at x_0), none at all at p 0.4;
        # each other row batches its 15 cells with beta > 0, per integral
        sizes = []
        original = ws.integrate_rows

        def recorded(f, source, grids, *args):
            sizes.append(len(grids))
            return original(f, source, grids, *args)

        monkeypatch.setattr(ws, "integrate_rows", recorded)
        monkeypatch.setattr(sweepmod, "MAX_FAILED_FRACTION", 1.0)
        result = run_sweep(gap_beta_from_zero_plan(p),
                           Quantity.FIGURE_OF_MERIT)
        assert sizes == batches
        assert result.metadata["integrals"] == sum(batches)

    def test_metadata_and_failures_empty_on_clean_run(self):
        result = run_sweep(spin_plan(), Quantity.W_EXT)
        assert result.failures == ()
        assert result.metadata["quantity"] == "wext"

    @pytest.mark.parametrize("plan, quantity", [
        (spin_plan(), Quantity.DELTA_S),
        (SweepPlan(x=Axis("omega_gap", 0.01, 1.0, n=16, scale="log"),
                   y=Axis("beta", 0.1, 10.0, n=16, scale="log"),
                   fixed=spin_plan().fixed), Quantity.W_EXT),
    ], ids=["population-axis", "cells"])
    def test_metadata_counts_points_and_stalls(self, monkeypatch, plan,
                                               quantity):
        # the totals are those of the batched calls the sweep makes
        calls = []
        original = ws.integrate_rows

        def recorded(*args, **kwargs):
            calls.append(original(*args, **kwargs))
            return calls[-1]

        monkeypatch.setattr(ws, "integrate_rows", recorded)
        meta = run_sweep(plan, quantity).metadata
        points = np.concatenate([res.points for res in calls])
        assert meta["integrals"] == points.size
        assert meta["points"] == points.sum() > 0
        assert meta["max_points"] == points.max()
        # a stall fails its cell, so no integral is counted as stalled
        assert "stalled" not in meta


class TestCellStage:
    """The array cell stage bit for bit against the per-cell reference."""

    @staticmethod
    def check(monkeypatch, plan, quantity):
        xs, ys = plan.x.values(), plan.y.values()
        want, failures = reference_cells(plan, quantity, xs, ys)
        evaluator = sweepmod._CellEvaluator(plan, quantity)
        values, errors = evaluator.grid(xs, ys)
        assert np.array_equal(values, want, equal_nan=True)
        assert tuple((i, j, str(errors[i, j]))
                     for i, j in sorted(errors)) == failures
        monkeypatch.setattr(sweepmod, "MAX_FAILED_FRACTION", 1.0)
        result = run_sweep(plan, quantity)
        assert np.array_equal(result.grid, want, equal_nan=True)
        assert result.failures[:len(failures)] == failures
        assert all(m.startswith("center: ")
                   for _, _, m in result.failures[len(failures):])
        # saddle centres go through the same stage as 1 x 1 grids
        for x in 0.5 * (xs[:-1] + xs[1:])[::4]:
            for y in 0.5 * (ys[:-1] + ys[1:])[::4]:
                value, error = evaluator.grid([float(x)], [float(y)])
                want, failures = reference_cells(plan, quantity, [float(x)],
                                                 [float(y)])
                assert np.array_equal(value, want, equal_nan=True)
                assert tuple((0, 0, str(e)) for e in error.values()) \
                    == failures

    @pytest.mark.parametrize("quantity", list(Quantity))
    @pytest.mark.parametrize("name", list(STAGE_PLANS))
    def test_matches_per_cell_reference(self, monkeypatch, name, quantity):
        self.check(monkeypatch, STAGE_PLANS[name], quantity)

    @pytest.mark.parametrize("plan, quantity", REFUSAL_PLANS)
    def test_refusals_match_per_cell_reference(self, monkeypatch, plan,
                                               quantity):
        self.check(monkeypatch, plan, quantity)

    def test_invalid_first_axis_value_keeps_validation_per_axis_value(
            self, monkeypatch):
        # p from -0.2: the first 11 p values are invalid, so the reference
        # row and column of the validity check are taken at the first
        # valid axis values, and only the invalid cells build their own
        plan = spin_plan(nx=64, ny=64, p_range=(-0.2, 1.0))
        xs, ys = plan.x.values(), plan.y.values()
        want, failures = reference_cells(plan, Quantity.W_EXT, xs, ys)
        evaluator = sweepmod._CellEvaluator(plan, Quantity.W_EXT)
        validated = []
        for name in ("validate", "require_valid"):
            def counted(spec, check=getattr(sweepmod, name)):
                validated.append(spec)
                return check(spec)
            monkeypatch.setattr(sweepmod, name, counted)
        values, errors = evaluator.grid(xs, ys)
        assert np.array_equal(values, want, equal_nan=True)
        assert tuple((i, j, str(errors[i, j]))
                     for i, j in sorted(errors)) == failures
        assert len(failures) == 11 * 64
        assert len(validated) <= len(xs) + len(ys) + len(failures)

    def test_row_layout_keeps_guards_and_validation_per_axis_value(
            self, monkeypatch):
        # gap and beta from 0: the guards refuse the gapless row and
        # validation the beta = 0 column.  The guards run once per gap,
        # validate once per axis value, and only the invalid cells build
        # their own spec; the i-beta windows are one per beta value
        # of a cell left to integrate
        plan = gap_beta_from_zero_plan(0.9)
        xs, ys = plan.x.values(), plan.y.values()
        want, failures = reference_cells(plan, Quantity.FIGURE_OF_MERIT,
                                         xs, ys)
        evaluator = sweepmod._CellEvaluator(plan, Quantity.FIGURE_OF_MERIT)
        checked = []
        for module, name in ((sweepmod, "_engine_guard"),
                             (thermo, "_engine_guard"),
                             (sweepmod, "validate"),
                             (sweepmod, "require_valid"),
                             (ws, "require_valid")):
            def counted(spec, check=getattr(module, name)):
                checked.append(spec)
                return check(spec)
            monkeypatch.setattr(module, name, counted)
        windows = []
        widened = sweepmod._i_beta_grids

        def window(source, betas):
            windows.extend(betas)
            return widened(source, betas)

        monkeypatch.setattr(sweepmod, "_i_beta_grids", window)
        values, errors = evaluator.grid(xs, ys)
        assert np.array_equal(values, want, equal_nan=True)
        assert tuple((i, j, str(errors[i, j]))
                     for i, j in sorted(errors)) == failures
        assert len(failures) == 16 + 15
        assert len(checked) <= len(xs) + len(ys) + len(failures)
        # beta = 0 refuses its whole column, which takes no window
        assert sorted(windows) == sorted(ys[1:])

    def test_wext_rows_take_no_i_beta_window(self, monkeypatch):
        # W_ext reads only the mean work, so a row-layout W_ext sweep
        # builds no i-beta window; the figure of merit of the same plan
        # builds them, so the counter sees them
        plan = SweepPlan(x=Axis("omega_gap", 0.01, 1.0, n=16, scale="log"),
                         y=Axis("beta", 0.1, 100.0, n=16, scale="log"),
                         fixed=make_spec(alpha=5.0, coupling="fermion",
                                         p=0.9))
        windows = []
        for module in (sweepmod, ws):
            def counted(source, betas, widen=module._i_beta_grids):
                windows.append(betas)
                return widen(source, betas)
            monkeypatch.setattr(module, "_i_beta_grids", counted)
        result = run_sweep(plan, Quantity.W_EXT)
        assert np.all(np.isfinite(result.grid))
        assert windows == []
        run_sweep(plan, Quantity.FIGURE_OF_MERIT)
        assert windows

    def test_panels_built_once_per_layout_run(self, monkeypatch):
        # the 48 x 48 gap x beta figure-of-merit map: each row's deficit
        # call has one i-beta window per beta, and a gap just above the
        # drive window lies inside the large-beta windows only, so that
        # row's layout changes mid-batch.  Panels are built once per run of
        # rows with one layout: at most once per integrate_rows call and
        # once more per layout change (one build per row made 2,352)
        plan = SweepPlan(x=Axis("omega_gap", 0.01, 1.0, n=48, scale="log"),
                         y=Axis("beta", 0.1, 100.0, n=48, scale="log"),
                         fixed=make_spec(alpha=5.0, coupling="fermion",
                                         omega_gap=0.05, p=0.9))
        builds, calls, changes = [], [], []
        build = quadrature._run_panels

        def counted_build(*args):
            builds.append(args)
            return build(*args)

        integrate = ws.integrate_rows

        def counted_rows(f, source, grids, edges, powers):
            calls.append(len(grids))
            layouts = [(tuple(e), m, [b for b in e
                                      if -g.omega_max < b < g.omega_max])
                       for g, e, m in zip(grids, edges, powers)]
            changes.append(sum(a != b for a, b in zip(layouts, layouts[1:])))
            return integrate(f, source, grids, edges, powers)

        monkeypatch.setattr(quadrature, "_run_panels", counted_build)
        monkeypatch.setattr(ws, "integrate_rows", counted_rows)
        evaluator = sweepmod._CellEvaluator(plan, Quantity.FIGURE_OF_MERIT)
        values, errors = evaluator.grid(plan.x.values(), plan.y.values())
        assert not errors and np.isfinite(values).any()
        assert calls == [48] * (2 * 48)
        assert sum(changes) >= 1
        assert len(builds) <= len(calls) + sum(changes)


def per_cell_zero_contour(result, center_fn=None):
    """Marching squares that classifies every cell in a Python loop.

    The reference of extract_zero_contour: same crossings, segments,
    saddle rule and chain assembly, with no array classification.
    """
    su = result.plan.x.scale_values()
    sv = result.plan.y.scale_values()
    values = result.grid
    nx, ny = values.shape
    crossings = {}

    def crossing(key):
        if key not in crossings:
            (ia, ja), (ib, jb) = key
            a, b = values[ia, ja], values[ib, jb]
            crossings[key] = None
            if (a > 0.0) != (b > 0.0):
                t = a / (a - b)
                crossings[key] = (su[ia] + t * (su[ib] - su[ia]),
                                  sv[ja] + t * (sv[jb] - sv[ja]))
        return crossings[key]

    adjacency = {}
    for i in range(nx - 1):
        for j in range(ny - 1):
            corner_vals = [values[i + di, j + dj]
                           for di, dj in sweepmod._CORNERS]
            if any(math.isnan(c) for c in corner_vals):
                continue
            code = sum((1 << k) for k, c in enumerate(corner_vals)
                       if c > 0.0)
            if code in sweepmod._SEGMENTS:
                segments = sweepmod._SEGMENTS[code]
            else:
                center = math.nan
                if center_fn is not None:
                    cx = result.plan.x.to_coord(0.5 * (su[i] + su[i + 1]))
                    cy = result.plan.y.to_coord(0.5 * (sv[j] + sv[j + 1]))
                    center = center_fn(i, j, float(cx), float(cy))
                if math.isnan(center):
                    center = float(np.mean(corner_vals))
                if (center > 0.0) == (corner_vals[0] > 0.0):
                    segments = [(0, 1), (2, 3)]
                else:
                    segments = [(3, 0), (1, 2)]
            for e1, e2 in segments:
                k1 = sweepmod._edge_key(i, j, e1)
                k2 = sweepmod._edge_key(i, j, e2)
                if crossing(k1) is not None and crossing(k2) is not None:
                    adjacency.setdefault(k1, []).append(k2)
                    adjacency.setdefault(k2, []).append(k1)

    polylines = []
    for chain in sweepmod._assemble_chains(adjacency):
        coords = np.array([crossings[k] for k in chain])
        coords[:, 0] = result.plan.x.to_coord(coords[:, 0])
        coords[:, 1] = result.plan.y.to_coord(coords[:, 1])
        polylines.append(coords)
    return polylines


def contour_field(seed):
    """A seeded random grid with NaN holes, exact +-0.0 nodes and saddles."""
    rng = np.random.default_rng(seed)
    nx, ny = 16 + seed, 24 - seed
    plan = SweepPlan(x=Axis("p", 0.0, 1.0, n=nx),
                     y=Axis("beta", 0.1, 10.0, n=ny, scale="log"),
                     fixed=make_spec(coupling="spin"))
    grid = rng.normal(size=(nx, ny))
    grid[rng.random((nx, ny)) < 0.05] = np.nan
    zeros = rng.random((nx, ny)) < 0.1
    grid[zeros] = np.where(rng.random(zeros.sum()) < 0.5, 0.0, -0.0)
    for _ in range(8):
        i, j = rng.integers(nx - 1), rng.integers(ny - 1)
        block = rng.uniform(0.1, 2.0, (2, 2)) * [[1.0, -1.0], [-1.0, 1.0]]
        grid[i:i + 2, j:j + 2] = rng.choice([-1.0, 1.0]) * block
    return SweepResult(plan=plan, quantity=Quantity.W_EXT, xs=plan.x.values(),
                       ys=plan.y.values(), grid=grid)


class TestZeroContour:
    def test_constant_sign_grid_has_no_contour(self):
        plan = spin_plan(p_range=(0.9, 1.0), beta_range=(0.2, 2.0))
        result = run_sweep(plan, Quantity.W_EXT)
        assert np.all(result.grid > 0)
        assert result.zero_contour == []

    def test_analytic_diagonal(self):
        plan = SweepPlan(x=Axis("p", 0.0, 1.0, n=17),
                         y=Axis("beta", 0.0 + 1e-9, 1.0, n=17),
                         fixed=make_spec(coupling="spin"))
        xs, ys = plan.x.values(), plan.y.values()
        grid = xs[:, None] - ys[None, :]
        result = SweepResult(plan=plan, quantity=Quantity.W_EXT, xs=xs,
                             ys=ys, grid=grid)
        lines = extract_zero_contour(result)
        assert len(lines) == 1
        diag = lines[0]
        assert np.max(np.abs(diag[:, 0] - diag[:, 1])) < 1e-12

    @pytest.mark.parametrize("center", ["absent", "finite", "nan"])
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_per_cell_classifier(self, seed, center):
        # same polylines in the same order, same center_fn calls
        result = contour_field(seed)

        def center_fn(calls):
            def fn(i, j, x, y):
                calls.append((i, j, x, y))
                if center == "nan":
                    return math.nan
                return math.sin(7.0 * i + 3.0 * j + x * y)
            return None if center == "absent" else fn

        got_calls, want_calls = [], []
        got = extract_zero_contour(result, center_fn(got_calls))
        want = per_cell_zero_contour(result, center_fn(want_calls))
        assert want
        assert len(got) == len(want)
        for line, expected in zip(got, want):
            assert line.shape == expected.shape
            assert line.tobytes() == expected.tobytes()
        assert got_calls == want_calls
        assert (len(want_calls) > 0) == (center != "absent")

    def test_vertices_zero_bilinear_interpolant(self):
        result = run_sweep(spin_plan(nx=24, ny=24), Quantity.W_EXT)
        assert result.zero_contour
        su, sv = result.xs, np.log(result.ys)
        from scipy.interpolate import RegularGridInterpolator
        interp = RegularGridInterpolator((su, sv), result.grid)
        scale = 1e-3 * np.nanmax(np.abs(result.grid))
        for line in result.zero_contour:
            pts = np.column_stack([line[:, 0], np.log(line[:, 1])])
            assert np.max(np.abs(interp(pts))) < scale

    def test_vertices_refined_by_bisection_on_population(self):
        # along a p-edge the quantity is exactly affine, so the crossing
        # interpolated by marching squares equals the true root
        result = run_sweep(spin_plan(nx=24, ny=24), Quantity.W_EXT)
        fixed = result.plan.fixed
        checked = 0
        for line in result.zero_contour:
            for p_v, beta_v in line:
                if not any(np.isclose(beta_v, result.ys, rtol=1e-12)):
                    continue  # vertex not on a constant-beta edge
                spec = with_param(fixed, "beta", float(beta_v))
                lo, hi = 0.0, 1.0
                f_lo = w_ext2(with_param(spec, "p", lo))
                for _ in range(60):
                    mid = 0.5 * (lo + hi)
                    f_mid = w_ext2(with_param(spec, "p", mid))
                    if (f_mid > 0) == (f_lo > 0):
                        lo, f_lo = mid, f_mid
                    else:
                        hi = mid
                assert abs(0.5 * (lo + hi) - p_v) < 1e-8
                checked += 1
                if checked >= 3:
                    return
        assert checked > 0


class TestBetaQMarker:
    def test_p_beta_plane_follows_population_curve(self):
        curves = beta_q_marker(spin_plan())
        assert curves
        pts = np.vstack(curves)
        expected = np.log(pts[:, 0] / (1.0 - pts[:, 0])) / 0.05
        assert np.allclose(pts[:, 1], expected, rtol=1e-12)

    def test_no_marker_without_qubit(self):
        plan = SweepPlan(x=Axis("alpha", 0.5, 5.0),
                         y=Axis("beta", 0.1, 10.0, scale="log"),
                         fixed=make_spec())
        assert beta_q_marker(plan) == []

    def test_beta_omega_plane(self):
        fixed = make_spec(coupling="topological", omega_gap=1.0, p=0.9)
        plan = SweepPlan(x=Axis("beta", 0.1, 100.0, scale="log"),
                         y=Axis("omega_gap", 0.01, 10.0, scale="log"),
                         fixed=fixed)
        curves = beta_q_marker(plan)
        assert curves
        pts = np.vstack(curves)
        assert np.allclose(pts[:, 0] * pts[:, 1], np.log(9.0), rtol=1e-12)

    def test_p_omega_plane_at_fixed_beta(self):
        fixed = make_spec(beta=2.0, coupling="spin", omega_gap=1.0, p=0.9)
        plan = SweepPlan(x=Axis("p", 0.5, 1.0 - 1e-6),
                         y=Axis("omega_gap", 0.01, 10.0, scale="log"),
                         fixed=fixed)
        curves = beta_q_marker(plan)
        assert curves
        pts = np.vstack(curves)
        expected = np.log(pts[:, 0] / (1.0 - pts[:, 0])) / 2.0
        assert np.allclose(pts[:, 1], expected, rtol=1e-12)
