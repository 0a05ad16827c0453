import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import drivenbath
from drivenbath import (Coupling, OhmicSpectrum, bose_occupation,
                        bosonic_wightman, damped_wightman_pair,
                        fermi_occupation, ohmic_density, wightman_pair)

from conftest import make_spec


class TestOhmicDensity:
    def test_vanishes_below_zero(self):
        spec = OhmicSpectrum(alpha=1.0)
        assert ohmic_density(-1.0, spec) == 0.0
        assert ohmic_density(0.0, spec) == 0.0

    def test_ohmic_point_value(self):
        # 2 * 1 * 1 * e^{-1} / Gamma(1)
        assert ohmic_density(1.0, OhmicSpectrum(alpha=1.0)) == \
            pytest.approx(2.0 * math.exp(-1.0), rel=1e-14)

    @pytest.mark.parametrize("alpha,lc", [(0.5, 1.0), (2.0, 1.0), (5.0, 0.7)])
    def test_peak_location(self, alpha, lc):
        spec = OhmicSpectrum(alpha=alpha, l_c=lc)
        w = np.linspace(1e-4, 6.0 / lc, 200001)
        peak = w[np.argmax(ohmic_density(w, spec))]
        assert peak == pytest.approx(math.sqrt(alpha / 2.0) / lc, rel=1e-3)

    def test_vectorized_matches_scalar(self):
        spec = OhmicSpectrum(alpha=2.5)
        w = np.array([-1.0, 0.5, 2.0])
        values = ohmic_density(w, spec)
        assert values.shape == w.shape
        assert values[1] == ohmic_density(0.5, spec)


class TestOccupations:
    def test_bose_values(self):
        assert bose_occupation(math.log(2.0)) == pytest.approx(1.0, rel=1e-14)
        assert bose_occupation(-math.log(2.0)) == \
            pytest.approx(-2.0, rel=1e-14)
        assert bose_occupation(800.0) == 0.0

    def test_bose_pole_rejected(self):
        with pytest.raises(ValueError, match="pole"):
            bose_occupation(0.0)

    def test_fermi_values(self):
        assert fermi_occupation(0.0) == 0.5
        assert fermi_occupation(800.0) == 0.0
        assert fermi_occupation(-800.0) == 1.0

    @given(st.floats(-700, 700))
    @settings(max_examples=100, deadline=None)
    def test_fermi_complement(self, x):
        assert fermi_occupation(x) + fermi_occupation(-x) == \
            pytest.approx(1.0, abs=1e-15)


def _within_ulps(got, expected, ulps=4):
    got, expected = np.asarray(got), np.asarray(expected)
    return bool(np.all(np.abs(got - expected)
                       <= ulps * np.spacing(np.abs(expected))))


class TestLogistic:
    """The Fermi factor and fermion channels without a scipy dependency."""

    def test_import_does_not_load_scipy(self):
        src = os.path.dirname(os.path.dirname(drivenbath.__file__))
        code = ("import sys, drivenbath.cli; "
                "print(sorted(m for m in sys.modules "
                "if m.split('.')[0] == 'scipy'))")
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"

    def test_fermi_occupation_matches_libm_formula(self):
        xs = np.concatenate([np.linspace(-700.0, 700.0, 14001),
                             [-1e-300, 0.0, 1e-12, 36.7, 709.0 - 9.0]])
        expected = [1.0 / (1.0 + math.exp(x)) for x in xs]
        assert _within_ulps(fermi_occupation(xs), expected)
        for x in (-700.0, -3.5, 0.25, 42.0, 700.0):
            assert _within_ulps(fermi_occupation(x), 1.0 / (1.0 + math.exp(x)))

    def test_fermion_channels_match_libm_formula(self):
        beta = 200.0
        spec = make_spec(beta=beta, alpha=2.0, coupling="fermion")
        pair, damped = wightman_pair(spec), damped_wightman_pair(spec)
        w = np.linspace(1e-3, 3.0, 3001)
        bare = ohmic_density(w, spec.spectrum)
        particle = bare * [1.0 / (1.0 + math.exp(beta * x)) for x in w]
        hole = bare * [1.0 / (1.0 + math.exp(-beta * x)) for x in w]
        assert _within_ulps(pair.s1(w), particle)
        assert _within_ulps(pair.s2(w), hole)
        assert _within_ulps(damped.s2(w), particle)

    def test_zero_beyond_exp_overflow(self):
        spec = make_spec(beta=1000.0, alpha=2.0, coupling="fermion")
        pair, damped = wightman_pair(spec), damped_wightman_pair(spec)
        w = np.array([0.72, 1.0, 5.0])  # beta * w > log(max float)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.all(fermi_occupation(1000.0 * w) == 0.0)
            assert fermi_occupation(710.0) == 0.0
            assert np.all(pair.s1(w) == 0.0)
            assert np.all(damped.s2(w) == 0.0)


class TestBosonicWightman:
    def test_support(self):
        assert bosonic_wightman(-0.3, 1.0, OhmicSpectrum(alpha=1.0)) == 0.0

    def test_point_value(self):
        # S(1)/(1 - e^{-1}) with S(1) = 2 e^{-1}
        expected = 2.0 * math.exp(-1.0) / (1.0 - math.exp(-1.0))
        assert bosonic_wightman(1.0, 1.0, OhmicSpectrum(alpha=1.0)) == \
            pytest.approx(expected, rel=1e-14)

    def test_zero_temperature_limit(self):
        spec = OhmicSpectrum(alpha=2.0)
        w = np.array([0.3, 1.0, 2.4])
        cold = bosonic_wightman(w, 1e4, spec)
        assert cold == pytest.approx(ohmic_density(w, spec), rel=1e-12)

    def test_detailed_balance_against_damped_channel(self):
        # e^{-beta w} S_b(w) equals the absorption-weighted channel
        from drivenbath.spectral import bosonic_wightman_damped
        spec = OhmicSpectrum(alpha=1.5)
        for w in (0.01, 0.4, 2.0):
            assert bosonic_wightman_damped(w, 2.0, spec) == pytest.approx(
                math.exp(-2.0 * w) * bosonic_wightman(w, 2.0, spec),
                rel=1e-13)


class TestWightmanPair:
    def test_topological_is_temperature_independent(self):
        w = np.array([0.2, 1.0, 3.0])
        cold = wightman_pair(make_spec(beta=7.0, coupling="topological"))
        warm = wightman_pair(make_spec(beta=1.0, coupling="topological"))
        assert np.array_equal(cold.s1(w), warm.s1(w))
        assert np.array_equal(cold.s2(w), warm.s2(w))

    def test_fermion_channels_sum_to_bare_density(self):
        spec = make_spec(beta=2.0, alpha=1.0, coupling="fermion")
        pair = wightman_pair(spec)
        w = np.linspace(0.05, 4.0, 64)
        total = pair.s1(w) + pair.s2(w)
        assert total == pytest.approx(ohmic_density(w, spec.spectrum),
                                      rel=1e-14)

    def test_spin_channel_equals_emission_density(self):
        spec = make_spec(beta=1.0, alpha=1.0, coupling="spin")
        pair = wightman_pair(spec)
        expected = 2.0 * math.exp(-1.0) / (1.0 - math.exp(-1.0))
        assert pair.s1(1.0) == pytest.approx(expected, rel=1e-14)
        assert pair.s1(1.0) == pair.s2(1.0)

    @given(st.floats(0.02, 5.0), st.floats(0.1, 50.0))
    @settings(max_examples=50, deadline=None)
    def test_fermion_detailed_balance(self, w, beta):
        pair = wightman_pair(make_spec(beta=beta, alpha=1.0,
                                       coupling="fermion"))
        s1 = pair.s1(w)
        if s1 == 0.0 or beta * w > 500:
            return
        assert pair.s2(w) / s1 == pytest.approx(math.exp(beta * w),
                                                rel=1e-12)

    def test_channels_nonnegative(self):
        w = np.linspace(-2.0, 6.0, 201)
        for coupling in Coupling:
            spec = make_spec(beta=0.3, alpha=0.5, coupling=coupling.value)
            for pair in (wightman_pair(spec), damped_wightman_pair(spec)):
                assert np.all(pair.s1(w) >= 0.0)
                assert np.all(pair.s2(w) >= 0.0)

    def test_damped_channels_are_stable_at_huge_beta_omega(self):
        # e^{-beta x} folding must not overflow for shifted arguments
        spec = make_spec(beta=1000.0, alpha=5.0, coupling="fermion",
                         omega_gap=5.0)
        pair = damped_wightman_pair(spec)
        w = np.array([-5.05, -1.0, 0.02, 5.0, 20.0])
        assert np.all(np.isfinite(pair.s1(w)))
        assert np.all(np.isfinite(pair.s2(w)))

    def test_requires_qubit(self):
        with pytest.raises(ValueError, match="qubit"):
            wightman_pair(make_spec())
