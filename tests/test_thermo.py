import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import drivenbath.workstats as ws
from drivenbath import (EngineMode, PerturbativeBreakdownError,
                        chi2_at_i_beta, engine_report, entropy_production,
                        heat_flows, w_ext2)
from drivenbath.model import beta_q
from drivenbath.sweep import CELL_ERRORS
from drivenbath.thermo import (DEGENERACY_TOL, _engine_guard,
                               _engine_reports, default_mode_tol)

from conftest import make_spec, scalar_engine_report

finite = st.floats(-10.0, 10.0, allow_nan=False)
temps = st.floats(0.01, 100.0)


class TestHeatFlows:
    def test_zero_inputs(self):
        assert heat_flows(0.0, 0.0, 2.0, 1.0) == (0.0, 0.0)

    @given(finite, finite, temps, temps)
    # Q_B = -Q_Q = 13,866.95 here; their sum is one ulp (1.8e-12) off 0
    @example(0.0, 2.4327982019672927, 75.0, 76.0)
    # S_B + S_Q is 16 ulp(0) off 0: Q_Q underflows, and 1/T_Q = 32
    @example(1.1125369292536007e-308, 0.0, 5.0, 0.03125)
    @settings(max_examples=100, deadline=None)
    def test_first_law_identity(self, w_bar, delta_s, t_b, t_q):
        if abs(t_b - t_q) <= 1e-6 * max(t_b, t_q):
            return
        q_b, q_q = heat_flows(w_bar, delta_s, t_b, t_q)
        # each side carries a few roundings of its largest term, so the
        # absolute slack is a few ulp of the largest compared magnitude;
        # a product that underflows errs by up to ulp(0) instead, which
        # the division by T_B - T_Q (and by T for an entropy) scales up
        floor = 8 * math.ulp(0.0) * (1 + max(t_b, t_q)) / abs(t_b - t_q)
        assert q_b + q_q == pytest.approx(w_bar, rel=1e-9, abs=8 * math.ulp(
            max(abs(q_b), abs(q_q), abs(w_bar))) + floor)
        s_b, s_q = q_b / t_b, q_q / t_q
        assert s_b + s_q == pytest.approx(delta_s, rel=1e-9, abs=8 * math.ulp(
            max(abs(s_b), abs(s_q), abs(delta_s))) + floor / min(t_b, t_q))

    @given(finite, finite, finite, finite)
    @settings(max_examples=50, deadline=None)
    def test_exactly_linear(self, w1, s1, w2, s2):
        t_b, t_q = 3.0, 1.0
        qb1, qq1 = heat_flows(w1, s1, t_b, t_q)
        qb2, qq2 = heat_flows(w2, s2, t_b, t_q)
        qb, qq = heat_flows(w1 + w2, s1 + s2, t_b, t_q)
        assert qb == pytest.approx(qb1 + qb2, rel=1e-12, abs=1e-12)
        assert qq == pytest.approx(qq1 + qq2, rel=1e-12, abs=1e-12)

    def test_degenerate_temperatures_rejected(self):
        with pytest.raises(ValueError, match="T_B = T_Q"):
            heat_flows(1.0, 0.5, 2.0, 2.0 * (1.0 + 1e-12))

    def test_reversible_engine_reaches_carnot(self):
        # dS = 0, W_mean < 0, bath hotter: efficiency = 1 - T_Q/T_B
        t_b, t_q, w_bar = 4.0, 1.0, -0.8
        q_b, q_q = heat_flows(w_bar, 0.0, t_b, t_q)
        assert q_b < 0 < q_q
        eta = -w_bar / (-q_b)
        assert eta == pytest.approx(1.0 - t_q / t_b, rel=1e-12)


class TestEntropyProduction:
    def test_pure_bath_reduces_to_beta_times_work(self):
        spec = make_spec(beta=2.0, alpha=2.0)
        assert entropy_production(spec) == pytest.approx(
            -2.0 * w_ext2(spec), rel=1e-10, abs=1e-30)

    def test_gapless_spin_same_reduction(self):
        spec = make_spec(beta=1.0, coupling="spin", omega_gap=0.0, p=0.7)
        assert entropy_production(spec) == pytest.approx(
            -w_ext2(spec), rel=1e-10, abs=1e-30)

    def test_nonnegative_with_qubit(self):
        spec = make_spec(beta=1.0, coupling="spin", omega_gap=0.05, p=0.8)
        assert entropy_production(spec) >= -1e-10

    def test_oracle_composition(self):
        spec = make_spec(beta=1.0, coupling="spin", omega_gap=0.05, p=0.8)
        expected = spec.beta * -w_ext2(spec) + \
            math.log(chi2_at_i_beta(spec))
        assert entropy_production(spec) == pytest.approx(expected, rel=1e-12)


class TestEngineReport:
    @given(st.floats(4.0, 6.0), st.floats(0.01, 0.07), st.floats(-1.0, 2.0),
           st.floats(0.5, 1.0, exclude_min=True, exclude_max=True))
    @example(6.0, 0.014, math.log10(0.4489251258218605), 0.9)
    @settings(max_examples=100, deadline=None)
    def test_small_gap_fermion_cells_obey_second_law_and_carnot(
            self, alpha, gap, log_beta, p):
        # |W| and the i-beta deficit sit near 1e-15 here, where 1 - deficit
        # rounds away the whole entropy production unless ln uses log1p
        report = engine_report(make_spec(beta=10.0 ** log_beta, alpha=alpha,
                                         coupling="fermion", omega_gap=gap,
                                         p=p))
        assert report.delta_s >= 0.0
        assert abs(report.q_b + report.q_q - report.w_bar) <= 1e-10
        if report.mode is EngineMode.HEAT_ENGINE:
            carnot = 1.0 - report.r
        elif report.mode is EngineMode.REFRIGERATOR:
            carnot = report.r / (1.0 - report.r)
        else:
            return
        assert -1e-10 <= report.figure_of_merit <= carnot + 1e-10

    def test_requires_qubit_and_honest_population(self):
        with pytest.raises(ValueError, match="requires a qubit"):
            engine_report(make_spec())
        with pytest.raises(ValueError, match="p > 1/2"):
            engine_report(make_spec(coupling="spin", p=0.5))
        with pytest.raises(ValueError, match="p > 1/2"):
            engine_report(make_spec(coupling="spin", p=0.2))
        # beta 0 is invalid too, but the engine guard speaks first
        with pytest.raises(ValueError, match="p > 1/2"):
            engine_report(make_spec(beta=0.0, coupling="spin", p=0.4))

    def test_zero_beta_is_refused_by_validation(self):
        # the engine guard runs before validation and must not divide
        with pytest.raises(ValueError,
                           match="invalid system spec: beta must be > 0"):
            engine_report(make_spec(beta=0.0, coupling="fermion", p=0.9))

    def test_guard_refuses_before_integrating(self, monkeypatch):
        calls = []
        original = ws.integrate_rows

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(ws, "integrate_rows", counted)
        with pytest.raises(ValueError, match="p > 1/2"):
            engine_report(make_spec(coupling="spin", p=0.4))
        assert len(calls) == 0
        engine_report(make_spec(coupling="spin", p=0.9))
        assert len(calls) == 2  # the mean work and the i-beta deficit

    def test_heat_engine_point(self):
        spec = make_spec(beta=1.0, alpha=5.0, coupling="spin",
                         omega_gap=0.05, p=1.0)
        report = engine_report(spec)
        assert report.mode is EngineMode.HEAT_ENGINE
        assert report.w_bar < 0
        assert 0.0 <= report.figure_of_merit <= 1.0 - report.r + 1e-10
        assert report.q_b + report.q_q == pytest.approx(report.w_bar,
                                                        abs=1e-10)

    def test_figure_of_merit_composition(self):
        spec = make_spec(beta=1.0, alpha=5.0, coupling="spin",
                         omega_gap=0.05, p=0.9)
        report = engine_report(spec)
        w_bar = -w_ext2(spec)
        delta_s = entropy_production(spec)
        assert report.w_bar == pytest.approx(w_bar, rel=1e-12)
        if report.mode is EngineMode.HEAT_ENGINE:
            expected = (1.0 - report.r) / (
                1.0 + report.t_l * delta_s / (-w_bar))
        else:
            expected = report.r / (1.0 - report.r) * (
                1.0 - report.t_h * delta_s / w_bar)
        assert report.figure_of_merit == pytest.approx(expected, rel=1e-10)

    def test_refrigerator_point_with_bounds(self):
        spec = make_spec(beta=100.0, alpha=5.0, coupling="spin",
                         omega_gap=0.05, p=0.95)
        report = engine_report(spec)
        assert report.mode is EngineMode.REFRIGERATOR
        assert report.w_bar > 0
        carnot = report.r / (1.0 - report.r)
        assert 0.0 <= report.figure_of_merit <= carnot + 1e-10

    def test_dissipator_has_nan_figure(self):
        # positive mean work with heat entering both baths
        found = False
        for beta in (20.0, 100.0):
            spec = make_spec(beta=beta, alpha=5.0, coupling="spin",
                             omega_gap=0.05, p=0.75)
            report = engine_report(spec)
            if report.mode is EngineMode.DISSIPATOR:
                assert math.isnan(report.figure_of_merit)
                assert report.w_bar > 0
                found = True
        assert found

    def test_full_ground_population_has_zero_cold_temperature(self):
        spec = make_spec(beta=1.0, alpha=5.0, coupling="spin",
                         omega_gap=0.05, p=1.0)
        report = engine_report(spec)
        assert report.t_l == 0.0
        assert report.r == 0.0

    def test_mode_tol_scales_with_drive(self):
        assert default_mode_tol(make_spec()) == \
            pytest.approx(1e-16 * 1e-4 * 100.0, rel=1e-12)


#: the degeneracy band around W_bar = 0 of every cell drawn below
MODE_TOL = default_mode_tol(make_spec())

#: W_bar on both edges of the band and one ulp either side of them
BAND_EDGES = [sign * w for sign in (1.0, -1.0) for w in (
    MODE_TOL, math.nextafter(MODE_TOL, 0.0),
    math.nextafter(MODE_TOL, math.inf))]


def cell(beta=1.0, gap=0.05, p=0.9, w_bar=-1e-9, deficit=0.0):
    return make_spec(beta=beta, coupling="spin", omega_gap=gap, p=p), \
        w_bar, deficit


def tied_beta(gap, p, factor):
    """beta at ``factor`` times the qubit's beta_q: T_B next to T_Q."""
    return factor * beta_q(make_spec(coupling="spin", omega_gap=gap,
                                     p=p).qubit)


#: one cell at each edge of the bookkeeping, and what the scalar
#: reference makes of it
EDGE_CELLS = {
    # beta 1 and deficit 0: T_H dS / W_bar is exactly 1, so COP = 0
    "cop-zero": (cell(beta=1.0, w_bar=1e-9, deficit=0.0),
                 lambda r: r.mode is EngineMode.REFRIGERATOR
                 and r.figure_of_merit == 0.0),
    "dissipator": (cell(beta=1.0, w_bar=1e-9, deficit=-0.5),
                   lambda r: r.mode is EngineMode.DISSIPATOR),
    "p-one": (cell(p=1.0, w_bar=-1e-9),
              lambda r: r.t_l == 0.0 and r.r == 0.0
              and r.figure_of_merit == 1.0),
    "band-inside": (cell(w_bar=-MODE_TOL),
                    lambda r: r.mode is EngineMode.DEGENERATE),
    "band-outside": (cell(w_bar=math.nextafter(-MODE_TOL, -math.inf)),
                     lambda r: r.mode is EngineMode.HEAT_ENGINE),
    "tied-temperatures": (cell(beta=tied_beta(0.05, 0.9, 1.0 + 5e-10)),
                          ValueError),
    "deficit-one": (cell(deficit=1.0), PerturbativeBreakdownError),
    # T_L dS / W_ext = -1 exactly: T_L = T_B = 1, dS = W_bar = -1
    "zero-denominator": (cell(gap=5.0, p=0.6, w_bar=-1.0, deficit=0.0),
                         ZeroDivisionError),
}


@st.composite
def engine_cells(draw):
    """A valid qubit cell past the engine guards with its W_bar and
    deficit, drawn toward the edges of EDGE_CELLS."""
    p = draw(st.sampled_from([1.0, math.nextafter(0.5, 1.0)])
             | st.floats(0.5, 1.0, exclude_min=True))
    gap = draw(st.floats(1e-3, 5.0))
    if p < 1.0 and draw(st.booleans()):
        beta = tied_beta(gap, p, draw(st.sampled_from(
            [1.0, 1.0 + 0.5 * DEGENERACY_TOL, 1.0 - 0.5 * DEGENERACY_TOL,
             1.0 + 3.0 * DEGENERACY_TOL])))
    else:
        beta = draw(st.sampled_from([0.5, 1.0, 2.0])
                    | st.floats(1e-3, 1e3))
    w_bar = draw(st.sampled_from(BAND_EDGES) | st.sampled_from([-1.0, 1.0])
                 | st.floats(-1e-6, 1e-6))
    deficit = draw(st.sampled_from([0.0, 1.0, 1.5, math.nextafter(1.0, 0.0)])
                   | st.floats(-1.0, 2.0))
    return cell(beta, gap, p, w_bar, deficit)


def same_bits(a, b):
    """Equal as floats including the sign of zero, or both NaN; equal as
    anything else."""
    if isinstance(b, float):
        return (math.isnan(a) and math.isnan(b)) or (
            a == b and math.copysign(1.0, a) == math.copysign(1.0, b))
    return a is b


class TestCellBookkeeping:
    """thermo._engine_reports against the scalar per-cell reference."""

    @pytest.mark.parametrize("name", list(EDGE_CELLS))
    def test_edges_are_reached(self, name):
        (spec, w_bar, deficit), expected = EDGE_CELLS[name]
        if isinstance(expected, type):
            with pytest.raises(expected):
                scalar_engine_report(spec, w_bar, deficit)
        else:
            assert expected(scalar_engine_report(spec, w_bar, deficit))

    @given(st.lists(engine_cells(), min_size=1, max_size=6))
    @example([edge for edge, _ in EDGE_CELLS.values()])
    @example([cell(w_bar=w) for w in BAND_EDGES])
    @settings(max_examples=200, deadline=None)
    def test_each_cell_matches_the_scalar_reference(self, cells):
        specs, w_bar, deficit = zip(*cells)
        report, errors = _engine_reports(
            np.array(w_bar), np.array(deficit),
            np.array([s.beta for s in specs]),
            np.array([_engine_guard(s) for s in specs]), MODE_TOL)
        for k, (spec, w, d) in enumerate(cells):
            try:
                want = scalar_engine_report(spec, w, d)
            except CELL_ERRORS as exc:
                assert type(errors[k]) is type(exc)
                assert str(errors[k]) == str(exc)
                assert report.mode[k] is None
                assert math.isnan(report.figure_of_merit[k])
                continue
            assert k not in errors
            for field in dataclasses.fields(want):
                assert same_bits(getattr(report, field.name)[k].item()
                                 if field.name != "mode"
                                 else report.mode[k],
                                 getattr(want, field.name)), field.name
