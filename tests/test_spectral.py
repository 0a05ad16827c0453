"""The Ohmic density and the channel occupations, through ``green_pair``
(conftest: one spec's channels over ``ChannelTable.pair``).

At gap 0 and p in {0, 1} each channel isolates one occupation of the
table: g_mp is s1 at p = 1 and s2 at p = 0, g_pm is d1 at p = 1 and d2 at
p = 0.  The topological s1 is half the Ohmic density S at every
temperature, so twice it is S to the bit.
"""

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
from drivenbath import Coupling

from conftest import green_pair, make_spec


def channels(coupling, p, beta=1.0, alpha=1.0, lc=1.0):
    return green_pair(make_spec(beta=beta, alpha=alpha, lc=lc,
                                coupling=coupling, omega_gap=0.0, p=p))


def ohmic(w, alpha=1.0, lc=1.0):
    return 2.0 * channels("topological", 1.0, alpha=alpha, lc=lc).g_mp(w)


class TestOhmicDensity:
    def test_vanishes_below_zero(self):
        assert ohmic(-1.0) == 0.0
        assert ohmic(0.0) == 0.0

    def test_ohmic_point_value(self):
        # 2 * 1 * 1 * e^{-1} / Gamma(1)
        assert ohmic(1.0) == pytest.approx(2.0 * math.exp(-1.0), rel=1e-14)

    @pytest.mark.parametrize("alpha,lc", [(0.5, 1.0), (2.0, 1.0), (5.0, 0.7)])
    def test_peak_location(self, alpha, lc):
        w = np.linspace(1e-4, 6.0 / lc, 200001)
        peak = w[np.argmax(ohmic(w, alpha, lc))]
        assert peak == pytest.approx(math.sqrt(alpha / 2.0) / lc, rel=1e-3)

    def test_vectorized_matches_scalar(self):
        w = np.array([-1.0, 0.5, 2.0])
        values = ohmic(w, alpha=2.5)
        assert values.shape == w.shape
        assert values[1] == ohmic(0.5, alpha=2.5)


class TestOccupations:
    def test_bose_values(self):
        # n_BE(ln 2) = 1: absorption S n = S, emission S (1 + n) = 2 S
        w = math.log(2.0)
        for pair in (channels("spin", 1.0), channels("spin", 0.0),
                     green_pair(make_spec(alpha=1.0))):
            assert pair.g_pm(w) / ohmic(w) == pytest.approx(1.0, rel=1e-14)
            assert pair.g_mp(w) / ohmic(w) == pytest.approx(2.0, rel=1e-14)
        assert channels("spin", 1.0, beta=800.0).g_pm(1.0) == 0.0

    def test_bose_pole_rejected(self):
        # beta x = 0 is off the support, so no occupation pole is evaluated
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for coupling in Coupling:
                for p in (0.0, 1.0):
                    pair = channels(coupling.value, p)
                    for channel in (pair.g_mp, pair.g_pm):
                        assert np.all(channel(np.array([-0.0, 0.0])) == 0.0)
                    gapped = green_pair(make_spec(
                        coupling=coupling.value, omega_gap=0.05, p=p))
                    for channel in (gapped.g_mp, gapped.g_pm):
                        assert np.all(np.isfinite(
                            channel(np.array([-0.05, 0.0, 0.05]))))

    def test_fermi_values(self):
        w = np.linspace(0.1, 3.0, 30)
        for p in (0.0, 1.0):
            # n_FD(0) = 1/2: both fermion channels are the Majorana half
            assert np.array_equal(
                channels("fermion", p, beta=1e-300).g_mp(w),
                channels("topological", p).g_mp(w))
        assert channels("fermion", 1.0, beta=800.0).g_mp(1.0) == 0.0
        assert channels("fermion", 0.0, beta=800.0).g_mp(1.0) == ohmic(1.0)

    @given(st.floats(1e-3, 700))
    @settings(max_examples=100, deadline=None)
    def test_fermi_complement(self, beta):
        total = channels("fermion", 1.0, beta).g_mp(1.0) \
            + channels("fermion", 0.0, beta).g_mp(1.0)
        assert total / ohmic(1.0) == pytest.approx(1.0, abs=1e-15)


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
        # S n_FD(x) at beta = 1: the particle channel at w = x > 0 and the
        # hole channel, S (1 - n_FD(-x)), at w = -x; l_c = 1e-3 keeps S
        # normal out to |x| = 700
        xs = np.concatenate([np.linspace(-700.0, 700.0, 14001),
                             [-1e-300, 1e-300, 1e-12, 36.7, 709.0 - 9.0]])
        xs = xs[xs != 0.0]
        w = np.abs(xs)
        expected = ohmic(w, lc=1e-3) * [1.0 / (1.0 + math.exp(x)) for x in xs]
        got = np.where(xs > 0.0,
                       channels("fermion", 1.0, lc=1e-3).g_mp(w),
                       channels("fermion", 0.0, lc=1e-3).g_mp(w))
        assert _within_ulps(got, expected)

    def test_fermion_channels_match_libm_formula(self):
        beta = 200.0
        w = np.linspace(1e-3, 3.0, 3001)
        bare = ohmic(w, alpha=2.0)
        particle = bare * [1.0 / (1.0 + math.exp(beta * x)) for x in w]
        hole = bare * [1.0 / (1.0 + math.exp(-beta * x)) for x in w]
        ground = channels("fermion", 1.0, beta, alpha=2.0)
        excited = channels("fermion", 0.0, beta, alpha=2.0)
        assert _within_ulps(ground.g_mp(w), particle)
        assert _within_ulps(excited.g_mp(w), hole)
        assert _within_ulps(excited.g_pm(w), particle)

    def test_zero_beyond_exp_overflow(self):
        ground = channels("fermion", 1.0, beta=1000.0, alpha=2.0)
        excited = channels("fermion", 0.0, beta=1000.0, alpha=2.0)
        w = np.array([0.72, 1.0, 5.0])  # beta * w > log(max float)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.all(ground.g_mp(w) == 0.0)
            assert np.all(ground.g_pm(w) == 0.0)
            assert np.all(excited.g_pm(w) == 0.0)
            assert channels("fermion", 1.0, beta=710.0).g_mp(1.0) == 0.0


class TestBosonicWightman:
    def test_support(self):
        assert green_pair(make_spec(alpha=1.0)).g_mp(-0.3) == 0.0

    def test_point_value(self):
        # S(1)/(1 - e^{-1}) with S(1) = 2 e^{-1}
        expected = 2.0 * math.exp(-1.0) / (1.0 - math.exp(-1.0))
        assert green_pair(make_spec(beta=1.0, alpha=1.0)).g_mp(1.0) == \
            pytest.approx(expected, rel=1e-14)

    def test_zero_temperature_limit(self):
        w = np.array([0.3, 1.0, 2.4])
        cold = green_pair(make_spec(beta=1e4, alpha=2.0)).g_mp(w)
        assert cold == pytest.approx(ohmic(w, alpha=2.0), rel=1e-12)

    def test_detailed_balance_against_damped_channel(self):
        # every damped channel is e^{-beta w} times its undamped partner
        pairs = [green_pair(make_spec(beta=2.0, alpha=1.5))]
        pairs += [channels(c.value, p, beta=2.0, alpha=1.5)
                  for c in Coupling for p in (0.0, 1.0)]
        for pair in pairs:
            for w in (0.01, 0.4, 2.0):
                assert pair.g_pm(w) == pytest.approx(
                    math.exp(-2.0 * w) * pair.g_mp(w), rel=1e-13)


class TestWightmanPair:
    def test_topological_is_temperature_independent(self):
        w = np.array([0.2, 1.0, 3.0])
        for p in (0.0, 1.0):
            cold = channels("topological", p, beta=7.0, alpha=5.0)
            warm = channels("topological", p, beta=1.0, alpha=5.0)
            assert np.array_equal(cold.g_mp(w), warm.g_mp(w))

    def test_fermion_channels_sum_to_bare_density(self):
        w = np.linspace(0.05, 4.0, 64)
        total = channels("fermion", 1.0, beta=2.0).g_mp(w) \
            + channels("fermion", 0.0, beta=2.0).g_mp(w)
        assert total == pytest.approx(ohmic(w), rel=1e-14)

    def test_spin_channel_equals_emission_density(self):
        expected = 2.0 * math.exp(-1.0) / (1.0 - math.exp(-1.0))
        s1 = channels("spin", 1.0).g_mp(1.0)
        assert s1 == pytest.approx(expected, rel=1e-14)
        assert s1 == channels("spin", 0.0).g_mp(1.0)
        assert s1 == green_pair(make_spec(beta=1.0, alpha=1.0)).g_mp(1.0)

    @given(st.floats(0.02, 5.0), st.floats(0.1, 50.0))
    @settings(max_examples=50, deadline=None)
    def test_fermion_detailed_balance(self, w, beta):
        s1 = channels("fermion", 1.0, beta).g_mp(w)
        if s1 == 0.0 or beta * w > 500:
            return
        assert channels("fermion", 0.0, beta).g_mp(w) / s1 == \
            pytest.approx(math.exp(beta * w), rel=1e-12)

    def test_channels_nonnegative(self):
        w = np.linspace(-2.0, 6.0, 201)
        for coupling in Coupling:
            for p in (0.0, 1.0):
                pair = channels(coupling.value, p, beta=0.3, alpha=0.5)
                assert np.all(pair.g_mp(w) >= 0.0)
                assert np.all(pair.g_pm(w) >= 0.0)

    def test_damped_channels_are_stable_at_huge_beta_omega(self):
        # e^{-beta x} folding must not overflow for shifted arguments
        w = np.array([-5.05, -1.0, 0.02, 5.0, 20.0])
        for coupling in Coupling:
            for p in (0.0, 1.0):
                pair = green_pair(make_spec(beta=1000.0, alpha=5.0,
                                            coupling=coupling.value,
                                            omega_gap=5.0, p=p))
                assert np.all(np.isfinite(pair.g_mp(w)))
                assert np.all(np.isfinite(pair.g_pm(w)))
