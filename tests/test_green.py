import dataclasses
import importlib
import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import drivenbath
from drivenbath import Coupling, green, quadrature, verify, workstats
from drivenbath.green import ChannelTable, channel_table

from conftest import green_pair, make_spec


def causal_spectral(pair):
    """The commutator spectral function g_mp - g_pm of a channel pair."""
    return lambda w: pair.g_mp(w) - pair.g_pm(w)


def ohmic(w, spec):
    """Closed-form Ohmic density 2 w^a e^{-w^2} / Gamma((1+a)/2)."""
    a = spec.spectrum.alpha
    x = np.maximum(w, 0.0)
    return 2.0 * x ** a * np.exp(-x * x) / math.gamma((1.0 + a) / 2.0)


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
        assert pair.edge_power == 4.0
        assert green_pair(make_spec(alpha=2.0)).edge_power == 1.0

    @pytest.mark.parametrize("alpha, power", [
        (0.1, 2.0 / (1.0 - 0.9)), (0.5, 4.0), (0.999, 2.0 / 0.999),
        (1.0, 1.0), (1.001, 2.0), (1.5, 2.0), (2.0, 1.0), (4.7, 2.0),
        (5.0, 1.0), (50.0, 1.0)])
    def test_every_non_integer_alpha_maps_its_edges(self, alpha, power):
        for coupling in (None, "spin", "fermion", "topological"):
            spec = make_spec(alpha=alpha, coupling=coupling)
            assert green_pair(spec).edge_power == power

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


#: the library paths that reach ChannelTable.pair and .beta
ROW_CALLERS = {
    "engine_report": lambda: drivenbath.engine_report(
        make_spec(beta=2.0, coupling="fermion", p=0.9)),
    "row-sweep": lambda: drivenbath.run_sweep(drivenbath.SweepPlan(
        x=drivenbath.Axis("omega_gap", 0.01, 0.1, n=16),
        y=drivenbath.Axis("beta", 0.1, 100.0, n=16, scale="log"),
        fixed=make_spec(coupling="fermion", p=0.9)),
        drivenbath.Quantity.FIGURE_OF_MERIT),
    "p-column-sweep": lambda: drivenbath.run_sweep(drivenbath.SweepPlan(
        x=drivenbath.Axis("p", 0.0, 1.0, n=16),
        y=drivenbath.Axis("beta", 0.1, 100.0, n=16, scale="log"),
        fixed=make_spec(coupling="spin", p=0.9)),
        drivenbath.Quantity.DELTA_S),
    "chi2": lambda: drivenbath.chi2(3.0, make_spec(coupling="spin", p=0.7)),
    "chi2_field": lambda: drivenbath.chi2_field(
        make_spec(coupling="topological", p=0.7), np.linspace(0.0, 100.0, 33)),
    "wdf2": lambda: drivenbath.wdf2(make_spec(coupling="spin", p=0.7)),
    "check_gapless_reduction": verify.check_gapless_reduction,
}


class TestChannelTableRows:
    """The multi-spec path of ChannelTable.pair, line by line.

    green_pair takes the one-spec path (every parameter a float); a table
    of several specs holds them per line, as repeated arrays where a term
    is on for every node of the call and indexed by line where it is on
    for some.  Each line must give its own spec's channels to the bit.
    """

    @pytest.mark.parametrize("other", [None, "fermion"])
    def test_table_needs_one_coupling(self, other):
        specs = [make_spec(coupling="spin"), make_spec(coupling=other)]
        with pytest.raises(ValueError, match="needs one coupling"):
            channel_table(specs)

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
            g_mp, g_pm = table.pair(omega, rows, None)
            for line, row in enumerate(rows):
                pair = green_pair(specs[row])
                assert np.array_equal(g_mp[line], pair.g_mp(omega[line]))
                assert np.array_equal(g_pm[line], pair.g_pm(omega[line]))

    @pytest.mark.parametrize("caller", ROW_CALLERS)
    def test_every_caller_passes_ascending_rows(self, monkeypatch, caller):
        # pair and beta read rows[0] == rows[-1] as "every line is one
        # spec", which holds only for ascending rows; no production guard
        # checks it, so every caller must pass them ascending
        seen = []
        pair, beta = ChannelTable.pair, ChannelTable.beta

        def recording_pair(self, omega, rows, near):
            seen.append(np.array(rows))
            return pair(self, omega, rows, near)

        def recording_beta(self, rows):
            seen.append(np.array(rows))
            return beta(self, rows)

        monkeypatch.setattr(ChannelTable, "pair", recording_pair)
        monkeypatch.setattr(ChannelTable, "beta", recording_beta)
        ROW_CALLERS[caller]()
        assert seen
        assert all(np.all(np.diff(rows) >= 0) for rows in seen)


def per_term_pair(specs, omega, rows):
    """(g_mp, g_pm) of ``specs`` at ``omega`` (k, m), line i at spec
    ``rows[i]`` (ascending), by a loop over the channel terms that forms
    x, the support mask and the Ohmic density S once per term.

    The reference of ChannelTable.pair, which forms them once per shift
    and shares them between the two terms there: the same elementwise
    operations on the same inputs, so the same bits.
    """
    first = specs[0]
    n = len(specs)
    alpha = [s.spectrum.alpha for s in specs]
    if first.qubit is None:
        s1, _, d1, _ = green._OCCUPATIONS[Coupling.SPIN]
        occupations, channel_terms = (s1, d1), ((0,), (1,))
        weights_shifts = [[1.0] * n] * 2 + [[0.0] * n] * 2
    else:
        s1, s2, d1, d2 = green._OCCUPATIONS[first.qubit.coupling]
        occupations, channel_terms = (s1, s2, d1, d2), ((0, 1), (2, 3))
        p = np.array([s.qubit.p_ground for s in specs])
        gap = np.array([s.qubit.omega_gap for s in specs])
        # g_mp = p s1(w - D) + (1-p) s2(w + D),
        # g_pm = p d1(w + D) + (1-p) d2(w - D)
        weights_shifts = [p, 1.0 - p, p, 1.0 - p, gap, -gap, -gap, gap]
    norm = [2.0 / math.gamma((1.0 + a) / 2.0) for a in alpha]
    table = np.array([[s.beta for s in specs], alpha, norm,
                      *weights_shifts])
    if rows[0] == rows[-1]:
        params = table[:, rows[0]].tolist()
    else:
        params = list(table[:, rows])
        if (params[1] == params[1][0]).all():
            params[1] = float(params[1][0])
    m = omega.shape[1]
    w = omega.reshape(-1)

    def channel(terms):
        total = None
        for i in terms:
            shift = params[3 + len(occupations) + i]
            x = w - shift if isinstance(shift, float) else \
                (omega - shift[:, None]).reshape(-1)
            on = x > 0.0
            n_on = np.count_nonzero(on)
            if not n_on:
                continue
            partial = n_on < x.size
            if partial:
                x = x[on]
            node = [params[0], params[1], params[2], params[3 + i]]
            if not isinstance(node[0], float):
                lines = np.flatnonzero(on) // m if partial else None
                node = [a if isinstance(a, float) else
                        a.repeat(m) if lines is None else a[lines]
                        for a in node]
            beta, a, norm_, weight = node
            term = weight * occupations[i](
                norm_ * quadrature.power(x, a) * np.exp(-x * x),
                beta * x)
            if partial:
                full = np.zeros(w.shape)
                full[on] = term
                term = full
            total = term if total is None else total + term
        if total is None:
            total = np.zeros(w.shape)
        return total.reshape(omega.shape)

    with np.errstate(over="ignore", under="ignore"):
        return tuple(channel(terms) for terms in channel_terms)


def seeded_batch(seed, coupling, shared_alpha, shared=()):
    """Six specs with beta up to 10^3, a zero gap, p at 0 and 1, and
    alpha shared or per spec (sub-Ohmic to 6); and ascending rows.

    Each of the parameters named in ``shared`` ("beta", "gap", "p")
    takes the first spec's value in every spec.
    """
    rng = np.random.default_rng(seed)
    betas = 10.0 ** rng.uniform(-1.0, 3.0, 6)
    betas[0] = 1e3
    alphas = np.full(6, 2.5) if shared_alpha else \
        np.exp(rng.uniform(math.log(0.15), math.log(6.3), 6))
    gaps = 10.0 ** rng.uniform(-3.0, math.log10(5.0), 6)
    gaps[2] = 0.0
    ps = rng.uniform(0.0, 1.0, 6)
    ps[3], ps[4] = 0.0, 1.0
    for name, values in (("beta", betas), ("gap", gaps), ("p", ps)):
        if name in shared:
            values[:] = values[0]
    specs = [make_spec(beta=float(b), alpha=float(a), coupling=coupling,
                       omega_gap=float(g), p=float(p))
             for b, a, g, p in zip(betas, alphas, gaps, ps)]
    rows = np.sort(np.concatenate([np.arange(6),
                                   rng.integers(0, 6, 5)]))
    return specs, rows


def probe_lines(specs, rows):
    """Lines across -gap, 0 and gap with the edges themselves as nodes
    (terms partly on), lines above every edge (all on, beta x up to
    5.4e3) and lines below every edge (all off)."""
    gaps = np.array([0.0 if s.qubit is None else s.qubit.omega_gap
                     for s in specs])[rows][:, None]
    offsets = 1e-3 * np.arange(rows.size)[:, None]
    straddle = np.linspace(-1.5, 1.5, 13) * (gaps + 0.02) + offsets
    straddle[:, [0, 6, 12]] = np.hstack([-gaps, 0.0 * gaps, gaps])
    above = np.linspace(5.1, 5.4, 13) + offsets
    below = -gaps - np.linspace(0.0, 0.3, 13) - offsets
    return straddle, above, below


def assert_same_bits(got, want):
    assert len(got) == len(want)
    for g, r in zip(got, want):
        assert g.shape == r.shape and g.dtype == r.dtype
        assert g.tobytes() == r.tobytes()


COUPLINGS = [None, "spin", "fermion", "topological"]


class TestSharedShifts:
    """ChannelTable.pair forms x, the support mask and S once per shift
    and lets the g_mp and g_pm terms there share them: the bits of the
    per-term loop, and one density evaluation per shift."""

    @pytest.mark.parametrize("shared_alpha", [True, False],
                             ids=["shared-alpha", "per-row-alpha"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("coupling", COUPLINGS)
    def test_multi_spec_batch_matches_per_term_loop(self, coupling, seed,
                                                    shared_alpha):
        specs, rows = seeded_batch(seed, coupling, shared_alpha)
        table = channel_table(specs)
        for omega in probe_lines(specs, rows):
            assert_same_bits(table.pair(omega, rows, None),
                             per_term_pair(specs, omega, rows))

    @pytest.mark.parametrize("shared", [("gap", "p"), ("beta",)],
                             ids=["sweep-row", "shared-beta"])
    @pytest.mark.parametrize("shared_alpha", [True, False],
                             ids=["shared-alpha", "per-row-alpha"])
    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("coupling", COUPLINGS)
    def test_shared_parameters_match_per_term_loop(self, coupling, seed,
                                                   shared_alpha, shared):
        # pair keeps every parameter that the lines' specs share as a
        # float: in a sweep row only beta varies, and with a shared beta
        # the weights and shifts still vary and must be gathered per node
        specs, rows = seeded_batch(seed, coupling, shared_alpha, shared)
        table = channel_table(specs)
        for omega in probe_lines(specs, rows):
            assert_same_bits(table.pair(omega, rows, None),
                             per_term_pair(specs, omega, rows))

    @pytest.mark.parametrize("coupling", COUPLINGS)
    def test_one_spec_path_matches_per_term_loop(self, coupling):
        # a table of one spec, and one spec's lines of a larger table,
        # take the float path; so does conftest's green_pair, which reads
        # one channel of a one-line pair call
        specs, _ = seeded_batch(4, coupling, shared_alpha=False)
        for k, spec in enumerate(specs):
            rows = np.full(3, k)
            lines = probe_lines(specs, rows)
            table = channel_table(specs)
            for omega in lines:
                want = per_term_pair(specs, omega, rows)
                assert_same_bits(table.pair(omega, rows, None), want)
                assert_same_bits(
                    channel_table([spec]).pair(omega, rows * 0, None), want)
                pair = green_pair(spec)
                assert_same_bits((pair.g_mp(omega), pair.g_pm(omega)), want)
                assert pair.g_pm(float(omega[0, 0])) == want[1][0, 0]

    @pytest.mark.parametrize("rows", [[0, 0], [0, 1]],
                             ids=["one-spec", "two-specs"])
    @pytest.mark.parametrize("coupling, shifts",
                             [(None, 1), ("spin", 2), ("fermion", 2),
                              ("topological", 2)])
    def test_one_density_per_shift(self, monkeypatch, coupling, shifts,
                                   rows):
        calls = []

        def counted(base, exponent):
            calls.append(base.size)
            return quadrature.power(base, exponent)

        monkeypatch.setattr(green, "power", counted)
        specs = [make_spec(beta=b, alpha=a, coupling=coupling, omega_gap=g)
                 for b, a, g in ((1.0, 0.5, 0.05), (30.0, 3.0, 0.2))]
        rows = np.array(rows)
        omega = np.linspace(1.0, 2.0, 15) + np.zeros((2, 1))
        channel_table(specs).pair(omega, rows, None)
        assert calls == [omega.size] * shifts


    @pytest.mark.parametrize("gaps", [[0.01], [0.01, 0.003]],
                             ids=["one-spec", "two-specs"])
    def test_mapped_edge_takes_exact_offset(self, gaps):
        # at p = 1 a spin g_mp is the bare bath's at x = w - gap; handed
        # the rule's (edge, offset), it takes x = offset to the bit,
        # where w - gap keeps none of the offset's digits below gap's
        specs = [make_spec(alpha=0.3, coupling="spin", omega_gap=gap, p=1.0)
                 for gap in gaps]
        rows = np.arange(len(gaps))
        edge = np.array(gaps)[:, None]
        offset = np.geomspace(1e-30, 1e-3, 28) + np.zeros_like(edge)
        omega = edge + offset
        table = channel_table(specs)
        want = channel_table([make_spec(alpha=0.3)]).pair(offset, rows * 0,
                                                           None)[0]
        assert table.pair(omega, rows, (edge, offset))[0].tobytes() == \
            want.tobytes()
        assert not np.array_equal(table.pair(omega, rows, None)[0], want)


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
            "heat_flows", "invert_samples", "lambda_weight",
            "mean_work_finite_difference", "oscillatory_pair",
            "positivity_check", "run_sweep", "validate", "w_ext2", "wdf2",
            "wdf_nonperturbative", "with_param"])
        assert len(drivenbath.__all__) == 43
        assert all(hasattr(drivenbath, name) for name in drivenbath.__all__)

    def test_defaulted_options_pinned(self):
        # defaulted parameters of every public function and classmethod,
        # and defaulted dataclass fields: a new setting shows up here.
        # The batched rule, its workstats entry and the channel table's
        # evaluation are not public, but a mode flag added to any of them
        # shows up here too.
        options = []
        functions = {"quadrature.integrate_rows": quadrature.integrate_rows,
                     "workstats._rows": workstats._rows,
                     "workstats._work_rows": workstats._work_rows,
                     "ChannelTable.pair": ChannelTable.pair,
                     "ChannelTable._channels": ChannelTable._channels}
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
            "FrequencyGrid.rule", "InversionPlan.n_fft",
            "SystemSpec.qubit", "channel_sum_integral(grid)", "chi2(grid)",
            "chi2_at_i_beta(grid)", "default_w_grid(n)",
            "extract_zero_contour(center_fn)", "w_ext2(grid)",
            "wdf2(w_grid)"])

    def test_no_spectral_module(self):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("drivenbath.spectral")
