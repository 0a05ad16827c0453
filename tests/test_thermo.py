import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from drivenbath import (EngineMode, chi2_at_i_beta, engine_report,
                        entropy_production, heat_flows, w_ext2)
from drivenbath.thermo import default_mode_tol

from conftest import make_spec

finite = st.floats(-10.0, 10.0, allow_nan=False)
temps = st.floats(0.01, 100.0)


class TestHeatFlows:
    def test_zero_inputs(self):
        assert heat_flows(0.0, 0.0, 2.0, 1.0) == (0.0, 0.0)

    @given(finite, finite, temps, temps)
    @settings(max_examples=100, deadline=None)
    def test_first_law_identity(self, w_bar, delta_s, t_b, t_q):
        if abs(t_b - t_q) <= 1e-6 * max(t_b, t_q):
            return
        q_b, q_q = heat_flows(w_bar, delta_s, t_b, t_q)
        assert q_b + q_q == pytest.approx(w_bar, rel=1e-9, abs=1e-12)
        assert q_b / t_b + q_q / t_q == pytest.approx(delta_s, rel=1e-9,
                                                      abs=1e-12)

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
