import dataclasses
import importlib
import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import drivenbath
from drivenbath import green_pair, quadrature, workstats
from drivenbath.green import channel_table

from conftest import make_spec


def causal_spectral(pair):
    """The commutator spectral function g_mp - g_pm of a channel pair."""
    return lambda w: pair.g_mp(w) - pair.g_pm(w)


def ohmic(w, spec):
    """Closed-form Ohmic density 2 l (l w)^a e^{-(l w)^2} / Gamma((1+a)/2)."""
    a, lc = spec.spectrum.alpha, spec.spectrum.l_c
    x = lc * np.maximum(w, 0.0)
    return 2.0 * lc * x ** a * np.exp(-x * x) / math.gamma((1.0 + a) / 2.0)


def retarded_im(spec):
    """Im G^R of the pure bath, -S(w)/2, zero off the support."""
    return lambda w: -0.5 * ohmic(w, spec)


class TestPureBath:
    def test_vanishes_outside_support(self):
        pair = green_pair(make_spec(alpha=1.0))
        assert pair.g_pm(-0.5) == 0.0
        assert pair.g_mp(-0.5) == 0.0

    def test_kms_ratio(self):
        pair = green_pair(make_spec(beta=1.0, alpha=1.0))
        w = 0.03
        assert pair.g_mp(w) / pair.g_pm(w) == pytest.approx(math.exp(w),
                                                            rel=1e-13)

    def test_channel_values(self):
        pair = green_pair(make_spec(beta=1.0, alpha=1.0))
        s_beta = 2.0 * math.exp(-1.0) / (1.0 - math.exp(-1.0))
        assert pair.g_mp(1.0) == pytest.approx(s_beta, rel=1e-14)
        assert pair.g_pm(1.0) == pytest.approx(math.exp(-1.0) * s_beta,
                                               rel=1e-13)

    @given(st.floats(0.01, 4.0), st.floats(0.1, 100.0),
           st.floats(0.3, 6.0))
    @settings(max_examples=80, deadline=None)
    def test_kms_everywhere(self, w, beta, alpha):
        if beta * w > 600:
            return
        pair = green_pair(make_spec(beta=beta, alpha=alpha))
        g_pm = pair.g_pm(w)
        if g_pm == 0.0:
            return
        assert pair.g_mp(w) == pytest.approx(math.exp(beta * w) * g_pm,
                                             rel=1e-12)


class TestQubitPair:
    def test_gapless_spin_reduces_to_pure_bath(self):
        bare = green_pair(make_spec(beta=1.0, alpha=5.0))
        gapless = green_pair(make_spec(beta=1.0, alpha=5.0, coupling="spin",
                                       omega_gap=0.0, p=0.3))
        w = np.linspace(-0.06, 0.06, 241)
        for channel in ("g_mp", "g_pm"):
            a = getattr(bare, channel)(w)
            b = getattr(gapless, channel)(w)
            assert np.max(np.abs(a - b)) <= 1e-12 * max(a.max(), 1e-300)

    def test_shift_identity_at_full_ground_population(self):
        spec = make_spec(beta=1.0, alpha=5.0, coupling="spin",
                         omega_gap=0.05, p=1.0)
        pair = green_pair(spec)
        expected = green_pair(make_spec(beta=1.0, alpha=5.0)).g_mp(0.01)
        assert pair.g_mp(0.06) == pytest.approx(expected, rel=1e-14)

    @given(st.floats(0.0, 1.0), st.floats(-0.1, 0.1))
    @settings(max_examples=60, deadline=None)
    def test_affine_mixture_in_p(self, p, w):
        kwargs = dict(beta=2.0, alpha=2.0, coupling="fermion",
                      omega_gap=0.03)
        mixed = green_pair(make_spec(p=p, **kwargs))
        ground = green_pair(make_spec(p=1.0, **kwargs))
        excited = green_pair(make_spec(p=0.0, **kwargs))
        for channel in ("g_mp", "g_pm"):
            value = getattr(mixed, channel)(w)
            blend = p * getattr(ground, channel)(w) + \
                (1.0 - p) * getattr(excited, channel)(w)
            assert value == pytest.approx(blend, rel=1e-13, abs=1e-300)

    def test_fermion_and_topological_agree_at_infinite_temperature(self):
        # n_FD(0) = 1/2 matches the Majorana half-weight channel
        w = np.linspace(-0.06, 0.06, 101)
        fermion = green_pair(make_spec(beta=1e-9, alpha=2.0,
                                       coupling="fermion", p=0.7))
        topo = green_pair(make_spec(beta=1e-9, alpha=2.0,
                                    coupling="topological", p=0.7))
        assert fermion.g_mp(w) == pytest.approx(topo.g_mp(w), rel=1e-6)

    def test_edges_carry_gap(self):
        pair = green_pair(make_spec(coupling="spin", omega_gap=0.05))
        assert pair.edges == (-0.05, 0.05)
        assert green_pair(make_spec(coupling="spin",
                                    omega_gap=0.0)).edges == (0.0,)

    def test_sub_ohmic_flags_singular_exponent(self):
        pair = green_pair(make_spec(alpha=0.5))
        assert pair.singular_exponent == pytest.approx(-0.5)
        assert green_pair(make_spec(alpha=2.0)).singular_exponent is None

    def test_extreme_sweep_corner_is_finite(self):
        pair = green_pair(make_spec(beta=1000.0, alpha=5.0, coupling="spin",
                                    omega_gap=5.0, p=0.9))
        w = np.linspace(-0.06, 0.06, 101)
        assert np.all(np.isfinite(pair.g_mp(w)))
        assert np.all(np.isfinite(pair.g_pm(w)))


class TestCausalSpectral:
    def test_pure_bath_difference_is_bare_density(self):
        spec = make_spec(beta=1.0, alpha=2.0)
        s_v = causal_spectral(green_pair(spec))
        w = np.linspace(0.01, 4.0, 57)
        assert s_v(w) == pytest.approx(ohmic(w, spec), rel=1e-12)
        assert np.all(s_v(-w) == 0.0)

    def test_fine_grained_irreversibility(self):
        spec = make_spec(beta=0.7, alpha=0.5)
        s_v = causal_spectral(green_pair(spec))
        w = np.linspace(0.01, 4.0, 57)
        assert np.all(s_v(w) > s_v(-w))

    def test_fluctuation_dissipation_link(self):
        # -2 Im G^R equals the causal spectral function for the pure bath
        spec = make_spec(beta=1.3, alpha=1.0)
        im_r = retarded_im(spec)
        s_v = causal_spectral(green_pair(spec))
        w = np.linspace(-1.0, 3.0, 41)
        assert -2.0 * im_r(w) == pytest.approx(s_v(w), rel=1e-12,
                                               abs=1e-300)

    def test_retarded_point_value(self):
        assert retarded_im(make_spec(alpha=1.0))(1.0) == \
            pytest.approx(-math.exp(-1.0), rel=1e-14)
        assert retarded_im(make_spec(alpha=1.0))(-1.0) == 0.0


#: (beta, alpha, gap, p) of the specs of one channel table: alpha mixes
#: sub-Ohmic, Ohmic and super-Ohmic values, the gaps include 0
TABLE_SPECS = [(0.5, 0.3, 0.05, 0.9), (10.0, 0.75, 0.2, 0.0),
               (1.0, 1.0, 0.0, 1.0), (300.0, 2.5, 1.0, 0.5),
               (3.0, 5.0, 0.05, 0.3), (1000.0, 0.15, 0.01, 0.7),
               (0.1, 6.0, 5.0, 0.95)]


class TestChannelTableRows:
    """The multi-spec path of ChannelTable.pair, line by line.

    green_pair takes the one-spec path (every parameter a float); a table
    of several specs holds them per line, as repeated arrays where a term
    is on for every node of the call and indexed by line where it is on
    for some.  Each line must give its own spec's channels to the bit.
    """

    @pytest.mark.parametrize("coupling", [None, "spin", "fermion",
                                          "topological"])
    def test_lines_equal_their_green_pair(self, coupling):
        specs = [make_spec(beta=b, alpha=a, coupling=coupling, omega_gap=g,
                           p=p) for b, a, g, p in TABLE_SPECS]
        table = channel_table(specs)
        rows = np.array([0, 0, 1, 2, 2, 2, 3, 4, 5, 5, 6])
        gaps = np.array([g for _, _, g, _ in TABLE_SPECS])[rows]
        offsets = 1e-3 * np.arange(rows.size)[:, None]
        # lines across -gap, 0 and gap (terms partly on), then lines above
        # every edge of the table (every term on at every node)
        straddle = np.linspace(-1.5, 1.5, 13) * (gaps[:, None] + 0.02) \
            + offsets
        above = np.linspace(5.1, 5.4, 13) + offsets
        for omega in (straddle, above):
            g_mp, g_pm = table.pair(omega, rows)
            for line, row in enumerate(rows):
                pair = green_pair(specs[row])
                assert np.array_equal(g_mp[line], pair.g_mp(omega[line]))
                assert np.array_equal(g_pm[line], pair.g_pm(omega[line]))


class TestPublicApi:
    def test_all_names_pinned(self):
        assert sorted(drivenbath.__all__) == sorted([
            "Axis", "ConstraintError", "Coupling", "DrivenSource",
            "EngineMode", "FrequencyGrid", "InversionError", "InversionPlan",
            "OhmicSpectrum", "PerturbativeBreakdownError", "Quantity",
            "QuadratureError", "QubitSpec", "Rule", "SweepError",
            "SweepPlan", "SystemSpec", "atom_weight2", "beta_q",
            "beta_q_marker", "channel_sum_integral", "chi2",
            "chi2_at_i_beta", "chi2_field", "correction_field",
            "crooks_ratio", "default_plan", "default_w_grid",
            "engine_report", "entropy_production", "extract_zero_contour",
            "green_pair", "heat_flows", "invert_samples", "lambda_weight",
            "mean_work_finite_difference", "oscillatory_pair",
            "positivity_check", "run_sweep", "validate", "w_ext2", "wdf2",
            "wdf_nonperturbative", "with_param"])
        assert len(drivenbath.__all__) == 44
        assert all(hasattr(drivenbath, name) for name in drivenbath.__all__)

    def test_defaulted_options_pinned(self):
        # defaulted parameters of every public function and classmethod,
        # and defaulted dataclass fields: a new setting shows up here.
        # The batched rule and its workstats entry are not public, but a
        # mode flag added to either shows up here too.
        options = []
        functions = {"quadrature.integrate_rows": quadrature.integrate_rows,
                     "workstats._rows": workstats._rows}
        for name in drivenbath.__all__:
            obj = getattr(drivenbath, name)
            functions.update({name: obj} if inspect.isfunction(obj) else {
                f"{name}.{attr}": member.__func__
                for attr, member in vars(obj).items()
                if isinstance(member, classmethod)})
            if dataclasses.is_dataclass(obj):
                options += [f"{name}.{f.name}"
                            for f in dataclasses.fields(obj)
                            if f.default is not dataclasses.MISSING
                            or f.default_factory is not dataclasses.MISSING]
        for label, fn in functions.items():
            options += [f"{label}({p.name})"
                        for p in inspect.signature(fn).parameters.values()
                        if p.default is not p.empty]
        assert sorted(options) == sorted([
            "Axis.n", "Axis.scale", "FrequencyGrid.n_points",
            "FrequencyGrid.rule", "InversionPlan.n_fft", "OhmicSpectrum.l_c",
            "SystemSpec.qubit", "channel_sum_integral(grid)", "chi2(grid)",
            "chi2_at_i_beta(grid)", "default_w_grid(n)",
            "extract_zero_contour(center_fn)",
            "oscillatory_pair(breakpoints)",
            "oscillatory_pair(singular_exponent)", "w_ext2(grid)",
            "wdf2(w_grid)"])

    def test_no_spectral_module(self):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("drivenbath.spectral")
