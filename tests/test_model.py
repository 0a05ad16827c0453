import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from drivenbath import (Coupling, FrequencyGrid, OhmicSpectrum, QubitSpec,
                        beta_q, validate, w_ext2, with_param)
from drivenbath.model import ALPHA_MIN

from conftest import make_spec


class TestBetaQ:
    def test_half_population_is_zero(self):
        assert beta_q(QubitSpec(Coupling.SPIN, 2.7, 0.5)) == 0.0

    def test_high_ground_population(self):
        # -(1/omega) ln((1-p)/p) at p = 0.95, omega = 1
        assert beta_q(QubitSpec(Coupling.SPIN, 1.0, 0.95)) == \
            pytest.approx(math.log(19.0), rel=1e-14)

    def test_population_inversion_gives_negative_temperature(self):
        assert beta_q(QubitSpec(Coupling.FERMION, 1.0, 0.3)) < 0.0

    def test_extreme_populations(self):
        assert beta_q(QubitSpec(Coupling.SPIN, 1.0, 1.0)) == math.inf
        assert beta_q(QubitSpec(Coupling.SPIN, 1.0, 0.0)) == -math.inf

    def test_gapless_qubit_rejected(self):
        with pytest.raises(ValueError, match="gapless"):
            beta_q(QubitSpec(Coupling.SPIN, 0.0, 0.7))

    @given(st.floats(0.01, 0.99), st.floats(0.01, 0.99))
    @settings(max_examples=50, deadline=None)
    def test_strictly_increasing_in_p(self, p1, p2):
        # only pairs whose relative separation the ratio (1-p)/p keeps
        # above its rounding (~1e-14 relative for p in [0.01, 0.99])
        lo, hi = sorted((p1, p2))
        assume(hi > lo * (1.0 + 1e-12))
        b_lo = beta_q(QubitSpec(Coupling.SPIN, 0.4, lo))
        b_hi = beta_q(QubitSpec(Coupling.SPIN, 0.4, hi))
        assert b_lo < b_hi

    @given(st.floats(1e-6, 1.0 - 1e-6))
    @settings(max_examples=50, deadline=None)
    def test_antisymmetric_about_half(self, p):
        # tolerance bounded by the rounding of the mirrored input 1 - p
        plus = beta_q(QubitSpec(Coupling.SPIN, 1.3, p))
        minus = beta_q(QubitSpec(Coupling.SPIN, 1.3, 1.0 - p))
        assert plus == pytest.approx(-minus, rel=1e-9, abs=1e-9)


class TestValidate:
    def test_reference_configuration_is_valid(self):
        report = validate(make_spec(beta=1.0, alpha=5.0))
        assert report.is_valid and not report.warnings

    def test_zero_alpha_is_error(self):
        report = validate(make_spec(alpha=0.0))
        assert any("alpha" in e for e in report.errors)

    def test_alpha_below_minimum_is_refused(self):
        # at alpha = 0.02 the endpoint substitution w = t^(2/alpha) gives
        # a subnormal w and the integrand overflows
        for alpha in (0.02, 0.5 * ALPHA_MIN, math.nextafter(ALPHA_MIN, 0.0)):
            report = validate(make_spec(alpha=alpha))
            assert report.errors == (f"alpha must be >= {ALPHA_MIN:g}",)
        assert validate(make_spec(alpha=ALPHA_MIN)).is_valid
        with pytest.raises(ValueError, match="alpha must be >="):
            w_ext2(make_spec(alpha=0.02))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field, kwarg", [
        ("beta", "beta"), ("lambda0", "lambda0"),
        ("t_int", "t_int"), ("omega_gap", "omega_gap")])
    def test_non_finite_value_is_error(self, field, kwarg, value):
        # a NaN gap passes "< 0" and +inf passes every "> 0"
        report = validate(make_spec(coupling="spin", **{kwarg: value}))
        assert report.errors == (f"{field} must be finite",)

    def test_fast_drive_warns_non_adiabatic(self):
        report = validate(make_spec(t_int=1.0))
        assert report.is_valid
        assert any("non-adiabatic" in w for w in report.warnings)

    def test_cutoff_length_is_the_unit(self):
        # l_c = 1 fixes the units, so the spectrum takes alpha alone
        with pytest.raises(TypeError):
            OhmicSpectrum(alpha=5.0, l_c=1.0)

    def test_pinned_population_warns(self):
        report = validate(make_spec(coupling="spin", p=1.0))
        assert report.is_valid
        assert any("engine" in w for w in report.warnings)

    def test_negative_beta_is_error(self):
        assert not validate(make_spec(beta=-1.0)).is_valid

    def test_out_of_range_population_is_error(self):
        assert not validate(make_spec(coupling="spin", p=1.5)).is_valid

    def test_validation_is_pure(self):
        spec = make_spec(t_int=2.0)
        assert validate(spec) == validate(spec)


class TestFrequencyGrid:
    def test_window_from_drive_tail(self):
        grid = FrequencyGrid.for_source(make_spec().source)
        # envelope at the edge equals TAIL_EPS
        assert math.exp(-2.0 * (grid.omega_max * 100.0) ** 2) == \
            pytest.approx(1e-16, rel=1e-10)


class TestWithParam:
    def test_replaces_each_parameter(self):
        spec = make_spec(coupling="spin")
        assert with_param(spec, "beta", 7.0).beta == 7.0
        assert with_param(spec, "alpha", 2.0).spectrum.alpha == 2.0
        assert with_param(spec, "p", 0.25).qubit.p_ground == 0.25
        assert with_param(spec, "omega_gap", 3.0).qubit.omega_gap == 3.0

    def test_qubit_parameters_need_qubit(self):
        with pytest.raises(ValueError, match="requires a qubit"):
            with_param(make_spec(), "p", 0.5)

    def test_unknown_parameter(self):
        with pytest.raises(ValueError, match="unknown sweep parameter"):
            with_param(make_spec(), "lc", 2.0)
