import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drivenbath import (ConstraintError, Coupling, FrequencyGrid,
                        PerturbativeBreakdownError,
                        atom_weight2, channel_sum_integral, chi2,
                        chi2_at_i_beta, chi2_field, correction_field,
                        crooks_ratio, default_plan, default_w_grid,
                        invert_samples, lambda_weight,
                        mean_work_finite_difference,
                        positivity_check, w_ext2, wdf2, wdf_nonperturbative)
from drivenbath import quadrature, verify
from drivenbath.model import ALPHA_MIN
from drivenbath.workstats import (CROOKS_FLOOR, WorkDistribution,
                                  i_beta_deficit)

from conftest import (dense_drive_integral, dense_phase_sum, green_pair,
                      make_spec)


class TestChi2:
    def test_unity_at_origin(self):
        for spec in (make_spec(), make_spec(coupling="fermion", p=0.4)):
            assert chi2(0.0, spec) == 1.0 + 0.0j

    def test_conjugation_symmetry(self):
        spec = make_spec(beta=1.0, alpha=5.0)
        value = chi2(50.0, spec)
        assert chi2(-50.0, spec) == np.conj(value)

    def test_matches_dense_riemann_oracle(self):
        # independent two-sided uniform Riemann/trapezoid sum, no panels
        spec = make_spec(beta=1.0, alpha=5.0)
        pair = green_pair(spec)
        v = 50.0

        def integrand(w):
            return ((1.0 - np.exp(1j * w * v)) * pair.g_mp(w)
                    + (1.0 - np.exp(-1j * w * v)) * pair.g_pm(w))

        oracle = 1.0 - 0.5 * dense_drive_integral(integrand, spec.source)
        value = chi2(v, spec)
        assert value == pytest.approx(oracle, rel=1e-8)
        assert abs(value - 1.0) > 1e-13  # not a trivial comparison

    def test_field_matches_scalar_calls(self):
        spec = make_spec(beta=0.5, alpha=2.0, coupling="spin", p=0.8)
        v = np.arange(-120.0, 641.0)
        field = chi2_field(spec, v)
        values = field.chi2_values()
        assert values[120] == 1.0 + 0.0j
        for vv in (-120.0, -3.0, 0.0, 17.0, 640.0):
            assert values[int(vv) + 120] == pytest.approx(
                chi2(vv, spec), rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("t_int", [37.3, 12.345])
    def test_plan_grid_samples_each_lattice_point_once(self, monkeypatch,
                                                       t_int):
        # dv = 2 v_max / n is not a binary fraction here, so mirrored
        # |v| differ in the last bit; each must still map to one sample
        import drivenbath.quadrature as quadrature
        original = quadrature.oscillatory_pair
        sizes = []

        def counted(pair, h, n, *args, **kwargs):
            sizes.append(n)
            return original(pair, h, n, *args, **kwargs)

        monkeypatch.setattr(quadrature, "oscillatory_pair", counted)
        spec = make_spec(t_int=t_int)
        plan = default_plan(spec.source)
        n = plan.n_fft
        tail = chi2_field(spec, plan.v_grid()).tail
        assert sizes == [n // 2 + 1]
        mirrored = np.conj(tail[n // 2 - 1:0:-1])
        assert np.array_equal(tail[n // 2 + 1:].view(float),
                              mirrored.view(float))

    @pytest.mark.parametrize("start", [-3200.0, -1024.0, 1024.0])
    @pytest.mark.parametrize("coupling", [None, "spin", "fermion",
                                          "topological"])
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 5.0])
    def test_field_on_offset_grids_matches_dense_phase_sum(self, alpha,
                                                           coupling, start):
        # the sampler covers the lattice from 0 only; an offset grid is
        # read off it, and v < 0 by conjugation
        spec = make_spec(alpha=alpha, coupling=coupling, p=0.8)
        pair = green_pair(spec)
        v = start + 32.0 * np.arange(201)
        tail = chi2_field(spec, v).tail
        # v = 0 is added to the reference only for the scale: far from it
        # the samples are cancelled many orders below the integrand mass
        d_mp, d_pm = dense_phase_sum(pair.channels, np.r_[0.0, v],
                                     spec.source,
                                     FrequencyGrid.for_source(spec.source),
                                     pair.edges, pair.edge_power)
        dense_tail = 0.5 * (d_mp + np.conj(d_pm))
        assert np.max(np.abs(tail - dense_tail[1:])) <= \
            1e-12 * np.max(np.abs(dense_tail))

    @pytest.mark.parametrize("v", [[0.0, 13.0, 500.0, 6400.0],
                                   [-120.0, -3.0, 0.0, 17.0, 640.0],
                                   np.arange(0.5, 10.0), [2.0, 2.0],
                                   [0.0, 1.0, 2.0 + 1e-9, 3.0],
                                   [0.0, np.nan, 2.0]])
    def test_field_rejects_grids_off_an_even_lattice(self, v):
        with pytest.raises(ValueError, match="evenly spaced"):
            chi2_field(make_spec(), np.asarray(v))

    @pytest.mark.parametrize("v", [[], [0.0], [37.0], [0.0, 37.0],
                                   [-64.0, -32.0, 0.0]])
    def test_field_on_short_grids(self, v):
        spec = make_spec(coupling="fermion", p=0.4)
        values = chi2_field(spec, np.asarray(v)).chi2_values()
        assert values.shape == (len(v),)
        for k, vv in enumerate(v):
            assert values[k] == pytest.approx(chi2(vv, spec),
                                              rel=1e-12, abs=1e-15)


    @pytest.mark.parametrize("coupling", [None, "spin", "fermion",
                                          "topological"])
    def test_small_v_needs_no_deep_refinement(self, count_points, coupling):
        # 1 - e^{iwv} at small v must not leave rounding noise for the
        # adaptive rule to refine on
        spec = make_spec(beta=1.0, alpha=5.0, coupling=coupling, p=0.9)
        value = chi2(1e-2, spec)
        assert count_points() < 10_000
        # first moment: Im chi2(v) = v * mean work to O(v^3)
        assert value.imag == pytest.approx(1e-2 * -w_ext2(spec), rel=1e-6)


class TestChi2AtImaginaryBeta:
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 5.0])
    @pytest.mark.parametrize("beta", [0.1, 1.0, 10.0, 100.0])
    def test_pure_bath_is_unity(self, alpha, beta):
        assert chi2_at_i_beta(make_spec(beta=beta, alpha=alpha)) == \
            pytest.approx(1.0, abs=1e-8)

    def test_gapless_spin_is_unity(self):
        spec = make_spec(coupling="spin", omega_gap=0.0, p=0.8)
        assert chi2_at_i_beta(spec) == pytest.approx(1.0, abs=1e-8)

    def test_spin_oracle_from_shifted_emission_densities(self):
        # independent arrangement: the deficit written with explicit
        # shifted emission densities and bare e^{+-beta gap} prefactors
        beta, gap, p = 1.0, 0.05, 1.0
        spec = make_spec(beta=beta, coupling="spin", omega_gap=gap, p=p)
        emission = green_pair(make_spec(beta=beta)).g_mp

        def integrand(w):
            s_minus = emission(w - gap)
            s_plus = emission(w + gap)
            return -np.expm1(-beta * w) * (
                (p - (1.0 - p) * math.exp(beta * gap)) * s_minus
                + (1.0 - p - p * math.exp(-beta * gap)) * s_plus)

        oracle = 1.0 - 0.5 * dense_drive_integral(integrand, spec.source)
        value = chi2_at_i_beta(spec)
        assert value == pytest.approx(oracle, rel=1e-8)
        assert abs(value - 1.0) > 1e-11  # detailed balance genuinely broken

    def test_jarzynski_check_reports_the_deficit(self):
        # the margin is the deficit itself, not 1 - deficit rounded to 1
        result = verify.check_jarzynski_pure_bath()
        assert 0.0 < result.worst <= 1e-8
        spec = make_spec(coupling="spin", omega_gap=0.05, p=1.0)
        assert chi2_at_i_beta(spec) == 1.0 - i_beta_deficit(spec)

    @pytest.mark.parametrize("beta, alpha, coupling, gap, p", [
        (100.0, 0.5, "spin", 0.05, 0.8),
        (10.0, 1.0, "fermion", 1.0, 0.3),
        (1000.0, 2.0, "topological", 5.0, 0.9),
    ])
    def test_chi2_at_imaginary_v_matches_the_probe(self, beta, alpha,
                                                   coupling, gap, p):
        # chi2's default window widens with |Im v| as the probe's does;
        # on the drive-only window the topological case misses 2e-4
        spec = make_spec(beta=beta, alpha=alpha, coupling=coupling,
                         omega_gap=gap, p=p)
        deficit = i_beta_deficit(spec)
        assert abs(chi2(1j * beta, spec) - chi2_at_i_beta(spec)) <= \
            1e-6 * abs(deficit)

    def test_real_v_keeps_the_drive_window(self):
        spec = make_spec(beta=10.0, alpha=1.0, coupling="fermion",
                         omega_gap=1.0, p=0.3)
        drive = FrequencyGrid.for_source(spec.source)
        for v in (-37.7, 1.0, 250.0):
            assert chi2(v, spec) == chi2(v, spec, drive)

    def test_breakdown_raises(self):
        # huge drive amplitude pushes chi2(i beta) negative
        spec = make_spec(beta=100.0, alpha=0.5, lambda0=50.0,
                         coupling="spin", omega_gap=0.02, p=1.0)
        with pytest.raises(PerturbativeBreakdownError):
            chi2_at_i_beta(spec)


#: (coupling, shifts): a qubit whose gap lies inside the drive window
#: puts two shifts on the nodes, the bare bath one
SHIFTS = [(None, 1), ("spin", 2), ("fermion", 2), ("topological", 2)]


class TestChannelEvaluations:
    """chi2_field and wdf2 take both channels from one ChannelTable.pair
    call, which forms each Ohmic density once per shift."""

    @pytest.fixture
    def power_calls(self, monkeypatch):
        from drivenbath import green, quadrature
        calls = []

        def counted(base, exponent):
            calls.append(base.size)
            return quadrature.power(base, exponent)

        monkeypatch.setattr(green, "power", counted)
        return calls

    @pytest.mark.parametrize("coupling, shifts", SHIFTS)
    def test_chi2_field_forms_each_density_once(self, power_calls,
                                                coupling, shifts):
        spec = make_spec(coupling=coupling, omega_gap=0.01, p=0.7)
        chi2_field(spec, np.linspace(0.0, 640.0, 21))
        assert len(power_calls) == shifts

    @pytest.mark.parametrize("coupling, shifts", SHIFTS)
    def test_wdf2_makes_one_pair_call(self, monkeypatch, power_calls,
                                      coupling, shifts):
        import drivenbath.workstats as ws
        from drivenbath.green import ChannelTable
        # the atom is an integral of its own; only the density is counted
        monkeypatch.setattr(ws, "atom_weight2", lambda spec: 0.0)
        original, lines = ChannelTable.pair, []

        def counted(self, omega, rows, near):
            lines.append(omega.copy())
            return original(self, omega, rows, near)

        monkeypatch.setattr(ChannelTable, "pair", counted)
        spec = make_spec(coupling=coupling, omega_gap=0.01, p=0.7)
        w = default_w_grid(spec.source)
        wdf2(spec, w)
        assert len(lines) == 1
        assert np.array_equal(lines[0], np.stack([w, -w]))
        assert len(power_calls) == shifts


class TestWorkDistribution:
    def test_atom_approaches_one_in_weak_drive(self):
        weak = wdf2(make_spec(lambda0=1e-5))
        assert weak.atom_weight == pytest.approx(1.0, abs=1e-9)
        assert np.max(weak.density) < 1e-15

    def test_crooks_ratio_pure_bath(self):
        beta = 1.0
        dist = wdf2(make_spec(beta=beta, alpha=5.0))
        ratio = crooks_ratio(dist)
        mask = np.isfinite(ratio.values) & \
            (dist.density > 1e-12 * dist.density.max())
        expected = np.exp(-beta * dist.w_grid[mask])
        assert np.max(np.abs(ratio.values[mask] / expected - 1.0)) < 1e-6

    def test_crooks_ratio_spec_point(self):
        dist = wdf2(make_spec(beta=1.0, alpha=5.0))
        ratio = crooks_ratio(dist)
        w = dist.w_grid[np.argmin(np.abs(dist.w_grid - 0.02))]
        assert ratio(float(w)) == pytest.approx(math.exp(-w), rel=1e-6)

    def test_crooks_ratio_qubit_deviates(self):
        spec = make_spec(beta=1.0, coupling="spin", omega_gap=0.05, p=1.0)
        dist = wdf2(spec)
        ratio = crooks_ratio(dist)
        mask = np.isfinite(ratio.values) & \
            (dist.density > 1e-6 * dist.density.max())
        expected = np.exp(-dist.w_grid[mask])
        assert np.max(np.abs(ratio.values[mask] / expected - 1.0)) > 1e-2

    @pytest.mark.parametrize("seed", range(4))
    def test_crooks_ratio_matches_per_point_loop(self, seed):
        # the per-point loop that the array division replaced: a NaN
        # density is divided, not skipped, and W without a mirror is NaN
        rng = np.random.default_rng(seed)
        w = np.concatenate([np.linspace(-1.0, 1.0, 2 * (seed + 8)), [1.5]])
        density = rng.exponential(size=w.size)
        density[seed::5], density[1::7], density[2::9] = 0.0, np.nan, 1e-301
        ratio = crooks_ratio(WorkDistribution(0.5, w, density))
        mirrored = np.clip(np.searchsorted(w, -w), 0, w.size - 1)
        values, skipped = np.full(w.size, np.nan), []
        for i in range(w.size):
            if not math.isclose(w[mirrored[i]], -w[i], rel_tol=1e-12,
                                abs_tol=1e-300):
                continue
            if density[i] <= CROOKS_FLOOR:
                skipped.append(float(w[i]))
            else:
                values[i] = density[mirrored[i]] / density[i]
        assert ratio.values.tobytes() == values.tobytes()
        assert ratio.skipped == tuple(skipped)
        assert np.isnan(density).any() and skipped

    def test_crooks_off_grid_rejected(self):
        dist = wdf2(make_spec())
        with pytest.raises(ValueError, match="not on the distribution grid"):
            crooks_ratio(dist)(0.0123456)

    def test_half_population_density_is_mixture(self):
        kwargs = dict(beta=1.0, alpha=5.0, coupling="spin", omega_gap=0.05)
        half = wdf2(make_spec(p=0.5, **kwargs))
        ground = wdf2(make_spec(p=1.0, **kwargs))
        excited = wdf2(make_spec(p=0.0, **kwargs))
        blend = 0.5 * (ground.density + excited.density)
        assert np.max(np.abs(half.density - blend)) <= \
            1e-12 * blend.max()

    def test_default_grid_excludes_zero(self):
        grid = default_w_grid(make_spec().source)
        assert 0.0 not in grid
        assert grid.size == 800

    def test_normalization_against_channel_sum(self):
        spec = make_spec(beta=1.0, alpha=2.0)
        dist = wdf2(spec)
        continuous = np.trapezoid(dist.density, dist.w_grid)
        assert continuous == pytest.approx(
            0.5 * channel_sum_integral(spec), rel=1e-4)
        assert dist.normalization == pytest.approx(1.0, abs=1e-6)


class TestPositivity:
    def test_reference_drive_passes(self):
        report = positivity_check(make_spec())
        assert report.passed and 0.0 < report.value < 1e-3

    def test_vanishing_drive_fails(self):
        # lambda0 = 0 itself is a validation error; an underflowing drive
        # exercises the "not strictly positive" branch
        report = positivity_check(make_spec(lambda0=1e-300))
        assert not report.passed
        assert "not strictly positive" in report.message

    def test_overdriven_reports_not_clips(self):
        spec = make_spec(beta=100.0, alpha=0.5, lambda0=1.0)
        report = positivity_check(spec)
        assert not report.passed
        assert "reduce lambda0" in report.message
        with pytest.raises(ConstraintError):
            atom_weight2(spec)


class TestSubOhmicLimit:
    @given(st.floats(ALPHA_MIN, 1.5 * ALPHA_MIN),
           st.sampled_from([None, *(c.value for c in Coupling)]),
           st.sampled_from([0.0, 1.0]))
    @settings(max_examples=30, deadline=None)
    def test_finite_just_above_minimum(self, alpha, coupling, p):
        spec = make_spec(beta=1e3, alpha=alpha, coupling=coupling,
                         omega_gap=5.0, p=p)
        values = [w_ext2(spec), i_beta_deficit(spec),
                  channel_sum_integral(spec), chi2(37.7, spec),
                  chi2_field(spec, np.linspace(0.0, 6400.0, 201)).p0]
        assert np.all(np.isfinite(values))


class TestWorkExtraction:
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 5.0])
    @pytest.mark.parametrize("beta", [0.1, 1.0, 10.0, 100.0])
    def test_pure_bath_is_passive(self, alpha, beta):
        assert w_ext2(make_spec(beta=beta, alpha=alpha)) <= 1e-14

    @pytest.mark.parametrize("alpha", [1.083, 1.5, 1.597, 2.236, 3.3, 4.7])
    @pytest.mark.parametrize("beta", [0.1, 1.0, 1000.0])
    def test_pure_bath_matches_closed_form(self, count_points, alpha, beta):
        # g_mp - g_pm = S(w) at every beta, so W_ext = -(1/2) int_lam w S(w)
        # = -lam0^2 sqrt(8 pi) t^2 Gamma(1 + a/2)
        #   / (4 pi Gamma((1 + a)/2) c^(1 + a/2)), c = 1 + 2 t^2 (l_c = 1).
        # The t^2 map reaches the edge at w = 0 in at most 6 intervals.
        spec = make_spec(beta=beta, alpha=alpha)
        lam0, t = spec.source.lambda0, spec.source.t_int
        c = 1.0 + 2.0 * t * t
        exact = -(lam0 ** 2 * math.sqrt(8.0 * math.pi) * t * t
                  * math.gamma(1.0 + alpha / 2.0)
                  / (4.0 * math.pi * math.gamma((1.0 + alpha) / 2.0)
                     * c ** (1.0 + alpha / 2.0)))
        assert abs(w_ext2(spec) - exact) <= 1e-12 * abs(exact)
        assert count_points() <= 6 * 31

    def test_half_population_high_temperature_limit(self):
        spec = make_spec(beta=1e-6, coupling="spin", omega_gap=0.05, p=0.5)
        # beta-independent residual, tiny on the absolute work scale
        assert abs(w_ext2(spec)) < 1e-10

    def test_ground_state_qubit_extracts(self):
        spec = make_spec(beta=1.0, alpha=5.0, coupling="spin",
                         omega_gap=0.05, p=1.0)
        assert w_ext2(spec) > 0.0

    def test_spin_appendix_oracle_at_full_population(self):
        # W_mean(p=1) = (1/2) int_lam w [S_b(w-gap) - e^{-b(w+gap)} S_b(w+gap)]
        beta, gap = 1.0, 0.05
        spec = make_spec(beta=beta, coupling="spin", omega_gap=gap, p=1.0)
        emission = green_pair(make_spec(beta=beta)).g_mp

        def integrand(w):
            return w * (emission(w - gap)
                        - np.exp(-beta * (w + gap)) * emission(w + gap))

        oracle = 0.5 * dense_drive_integral(integrand, spec.source)
        assert -w_ext2(spec) == pytest.approx(oracle, rel=1e-8)

    def test_finite_difference_cross_check(self):
        spec = make_spec(beta=0.5, alpha=2.0, coupling="fermion",
                         omega_gap=0.03, p=0.9)
        fd = mean_work_finite_difference(spec)
        assert fd == pytest.approx(-w_ext2(spec), rel=1e-6)


WCF_GRID = np.linspace(0.0, 6400.0, 201)  # `wcf`'s default samples

#: (bath alpha, coupling, gap) of the fields checked against a denser rule:
#: the bare bath from deep sub-Ohmic to alpha 20, and the three couplings
#: with the gap outside the window (1.0 at every alpha, 0.05 at alpha >= 1)
DENSER_ALPHAS = (0.1, 0.2, 0.3, 0.5, 0.8, 1.0, 2.0, 5.0, 12.0, 20.0)
QUBIT_FIELDS = [(alpha, coupling, gap)
                for coupling in ("spin", "fermion", "topological")
                for gap in (1.0, 0.05)
                for alpha in DENSER_ALPHAS if gap == 1.0 or alpha >= 1.0]


def denser_field_miss(monkeypatch, spec, v):
    """max |T - T_16| / max |T_16|: the field's tail against the tail of
    the same sampler with every subpanel's phase budget cut 16-fold."""
    tail = chi2_field(spec, v).tail
    with monkeypatch.context() as patch:
        patch.setattr(quadrature, "_GL_PHASE", quadrature._GL_PHASE / 16.0)
        dense = chi2_field(spec, v).tail
    return np.max(np.abs(tail - dense)) / np.max(np.abs(dense))


class TestFieldRule:
    """The Gauss-Legendre sampling of chi2 fields, against the adaptive
    rule and against itself at 16 times the subpanels."""

    @pytest.mark.parametrize("kwargs", [
        pytest.param(dict(alpha=alpha), id=f"bare-{alpha}")
        for alpha in (0.1, 0.2, 0.3)] + [pytest.param(
            dict(alpha=0.1, coupling="topological", omega_gap=0.02, p=0.9),
            id="topological-0.1")])
    def test_sub_ohmic_field_matches_adaptive_chi2(self, kwargs):
        # chi2(v) = 1 - (...)/2 keeps only ~1e-16 absolute near 1, hence the
        # floor
        spec = make_spec(**kwargs)
        field = chi2_field(spec, WCF_GRID)
        scale = np.max(np.abs(field.tail))
        want = np.array([chi2(v, spec) for v in WCF_GRID])
        assert np.max(np.abs(field.chi2_values() - want)) <= \
            1e-14 * scale + 2.0 * np.finfo(float).eps

    @pytest.mark.parametrize("v", [
        pytest.param(WCF_GRID, id="wcf"),
        pytest.param(default_plan(make_spec().source).v_grid(), id="plan")])
    @pytest.mark.parametrize("alpha", DENSER_ALPHAS)
    def test_bare_bath_field_is_converged(self, monkeypatch, alpha, v):
        assert denser_field_miss(monkeypatch, make_spec(alpha=alpha), v) \
            <= 1e-14

    @pytest.mark.parametrize("alpha, coupling, gap", QUBIT_FIELDS)
    def test_qubit_field_is_converged(self, monkeypatch, alpha, coupling,
                                      gap):
        spec = make_spec(alpha=alpha, coupling=coupling, omega_gap=gap,
                         p=0.8)
        assert denser_field_miss(monkeypatch, spec, WCF_GRID) <= 5e-14

    @pytest.mark.parametrize("kwargs, bound", [
        pytest.param(dict(alpha=1.597), 2e-12, id="bare-1.597"),
        pytest.param(dict(alpha=2.128), 1e-14, id="bare-2.128"),
        pytest.param(dict(alpha=1.128, coupling="spin", omega_gap=0.0218,
                          p=0.8), 1e-13, id="spin-1.128"),
        pytest.param(dict(alpha=1.217, coupling="topological",
                          omega_gap=0.007, p=0.8), 1e-14,
                     id="topological-1.217")])
    def test_non_integer_edge_field_is_converged(self, monkeypatch, kwargs,
                                                 bound):
        # the edges inside the window are reached by w = e +/- t^2; on
        # identity panels these fields missed by 9.0e-7, 6.8e-9, 8.3e-10
        # and 7.8e-10.  Bare alpha 1.083 misses by 1.8e-9 (1.5e-5 on
        # identity panels) and is not gated: its edge term x^0.083 dx is
        # still only 2 t^1.17 dt in t
        spec = make_spec(**kwargs)
        assert denser_field_miss(monkeypatch, spec, WCF_GRID) <= bound


def chi_all_orders(v, spec):
    """All-order characteristic function e^{chi2(v) - 1} of the pure bath."""
    return complex(np.exp(chi2(v, spec) - 1.0))


class TestNonperturbative:
    def test_unity_at_origin(self):
        assert chi_all_orders(0.0, make_spec()) == 1.0 + 0.0j

    def test_qubit_refused(self):
        with pytest.raises(ValueError, match="pure thermal bath"):
            correction_field(make_spec(coupling="spin"))
        with pytest.raises(ValueError, match="pure thermal bath"):
            wdf_nonperturbative(make_spec(coupling="spin"))

    def test_exponential_resummation_identity(self):
        # the all-order transform is built as atom + atom expm1(T(v))
        spec = make_spec(beta=1.0, alpha=5.0)
        v = 37.0
        field = chi2_field(spec, np.array([0.0, v]))
        atom = math.exp(field.p0 - 1.0)
        assert atom + atom * np.expm1(field.tail[1]) == pytest.approx(
            chi_all_orders(v, spec), rel=1e-12)

    def test_jarzynski_to_all_orders(self):
        for alpha in (0.5, 1.0, 2.0, 5.0):
            for beta in (0.1, 1.0, 10.0, 100.0):
                value = chi2_at_i_beta(make_spec(beta=beta, alpha=alpha))
                assert abs(math.exp(value - 1.0) - 1.0) <= 1e-8

    def test_inversion_normalization_and_reality(self):
        spec = make_spec(beta=1.0, alpha=5.0)
        dist = wdf_nonperturbative(spec)
        assert dist.normalization == pytest.approx(1.0, abs=1e-6)
        assert dist.imag_residue < 1e-8 * max(dist.density.max(), 1e-300)
        assert 0.0 < dist.atom_weight <= 1.0

    def test_second_order_inversion_matches_analytic_density(self):
        spec = make_spec(beta=1.0, alpha=5.0)
        plan = default_plan(spec.source)
        field = chi2_field(spec, plan.v_grid())
        w, density = invert_samples(field.tail, plan)
        analytic = wdf2(spec, w_grid=w)
        mask = np.abs(w) < 0.06
        assert np.max(np.abs(density.real[mask]
                             - analytic.density[mask])) < 1e-6
        assert field.p0 == pytest.approx(analytic.atom_weight, abs=1e-12)

    def test_lambda_fourth_scaling(self):
        diffs = []
        for lam in (0.01, 0.005):
            spec = make_spec(beta=1.0, alpha=5.0, lambda0=lam)
            _, diff = correction_field(spec)
            diffs.append(np.max(np.abs(diff)))
        assert 14.0 <= diffs[0] / diffs[1] <= 18.0

    def test_first_moment_agrees_with_second_order(self):
        # -i d(chi)/dv at 0 equals the second-order mean work
        spec = make_spec(beta=1.0, alpha=5.0)
        h = 1e-4
        d1 = (chi_all_orders(h, spec) - chi_all_orders(-h, spec)) / (2 * h)
        d2 = (chi_all_orders(h / 2, spec) - chi_all_orders(-h / 2, spec)) / h
        derivative = (4.0 * d2 - d1) / 3.0
        assert float((-1j * derivative).real) == \
            pytest.approx(-w_ext2(spec), rel=1e-6)


class TestModalStructure:
    @pytest.mark.parametrize("alpha,expected",
                             [(0.5, 1), (1.0, 1), (2.0, 2), (5.0, 2)])
    def test_local_maxima_count(self, alpha, expected):
        dist = wdf2(make_spec(beta=1.0, alpha=alpha))
        interior = dist.density[1:-1]
        count = int(np.sum((interior > dist.density[:-2])
                           & (interior > dist.density[2:])))
        assert count == expected

    def test_qubit_coupling_turns_bimodal_unimodal(self):
        dist = wdf2(make_spec(beta=1.0, alpha=5.0, coupling="spin",
                              omega_gap=0.05, p=1.0))
        interior = dist.density[1:-1]
        count = int(np.sum((interior > dist.density[:-2])
                           & (interior > dist.density[2:])))
        assert count == 1
