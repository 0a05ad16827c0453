"""Built-in verification suite.

Each check function computes its worst observed deviation against the
pinned tolerance and reports it; the CLI ``verify`` subcommand and the
acceptance tests both run these.  Checks are self-contained (they build
their own specs) and deterministic, including the seeded randomized one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from . import sweep as sweepmod
from . import workstats as ws
from .green import channel_table
from .model import (Coupling, DrivenSource, FrequencyGrid, OhmicSpectrum,
                    QubitSpec, Rule, SystemSpec, beta_q)
from .thermo import EngineMode, _engine_reports, default_mode_tol

DEFAULT_SOURCE = DrivenSource(lambda0=0.01, t_int=100.0)

#: pure-bath verification grid shared by several checks
ALPHAS = (0.5, 1.0, 2.0, 5.0)
BETAS = (0.1, 1.0, 10.0, 100.0)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    worst: float
    tolerance: float
    detail: str = ""


def _spec(beta: float, alpha: float, qubit: Optional[QubitSpec] = None,
          source: DrivenSource = DEFAULT_SOURCE) -> SystemSpec:
    return SystemSpec(beta=beta, spectrum=OhmicSpectrum(alpha=alpha),
                      source=source, qubit=qubit)


def _rel(a: float, b: float, floor: float = 1e-300) -> float:
    return abs(a - b) / max(abs(a), abs(b), floor)


def check_jarzynski_pure_bath() -> CheckResult:
    """|chi2(i beta) - 1| and |chi(i beta) - 1| below 1e-8 on the grid.

    Both come from the deficit d = 1 - chi2(i beta) itself, as |d| and
    |expm1(-d)|, so the worst value is the true margin and not the
    rounding of 1 - d to 1.
    """
    worst, lines = 0.0, []
    for alpha in ALPHAS:
        for beta in BETAS:
            deficit = ws.i_beta_deficit(_spec(beta, alpha))
            dev2 = abs(deficit)
            dev_all = abs(math.expm1(-deficit))
            worst = max(worst, dev2, dev_all)
            lines.append(f"alpha={alpha} beta={beta}: "
                         f"|chi2-1|={dev2:.2e} |chi-1|={dev_all:.2e}")
    return CheckResult("jarzynski-pure-bath", worst <= 1e-8, worst, 1e-8,
                       "\n".join(lines))


def check_crooks_pure_bath() -> CheckResult:
    """Reverse/forward density ratio equals e^{-beta W} to 1e-6 relative."""
    worst, lines = 0.0, []
    for alpha, beta in ((5.0, 0.5), (5.0, 1.0), (5.0, 2.0), (0.5, 1.0),
                        (1.0, 10.0)):
        dist = ws.wdf2(_spec(beta, alpha))
        ratio = ws.crooks_ratio(dist)
        mask = (dist.density > 1e-12 * dist.density.max()) \
            & np.isfinite(ratio.values)
        expected = np.exp(-beta * dist.w_grid[mask])
        dev = float(np.max(np.abs(ratio.values[mask] / expected - 1.0)))
        worst = max(worst, dev)
        lines.append(f"alpha={alpha} beta={beta}: worst rel dev {dev:.2e} "
                     f"over {int(mask.sum())} points")
    return CheckResult("crooks-pure-bath", worst <= 1e-6, worst, 1e-6,
                       "\n".join(lines))


def check_passivity_pure_bath() -> CheckResult:
    """w_ext2 <= 1e-14 for every pure-bath grid point."""
    worst = -math.inf
    for alpha in ALPHAS:
        for beta in BETAS:
            worst = max(worst, ws.w_ext2(_spec(beta, alpha)))
    return CheckResult("passivity-pure-bath", worst <= 1e-14, worst, 1e-14)


def check_gapless_reduction() -> CheckResult:
    """Gapless spin coupling reproduces the pure bath to 1e-12 relative."""
    alpha, beta = 5.0, 1.0
    bare = _spec(beta, alpha)
    gapless = _spec(beta, alpha,
                    QubitSpec(Coupling.SPIN, omega_gap=0.0, p_ground=0.3))
    w = np.linspace(-0.06, 0.06, 241)[None]
    rows = np.zeros(1, dtype=np.intp)
    worst = 0.0
    for a, b in zip(channel_table([bare]).pair(w, rows, None),
                    channel_table([gapless]).pair(w, rows, None)):
        scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-300)
        worst = max(worst, float(np.max(np.abs(a - b) / scale
                                        * (np.abs(a) + np.abs(b) > 0))))
    dist_bare = ws.wdf2(bare)
    dist_gapless = ws.wdf2(gapless)
    dens_scale = dist_bare.density.max()
    worst = max(worst, float(np.max(
        np.abs(dist_bare.density - dist_gapless.density)) / dens_scale))
    worst = max(worst, abs(dist_bare.atom_weight - dist_gapless.atom_weight))
    worst = max(worst, _rel(ws.w_ext2(bare), ws.w_ext2(gapless)))
    return CheckResult("gapless-reduction", worst <= 1e-12, worst, 1e-12)


def check_p_averaging() -> CheckResult:
    """Density at p = 1/2 equals the mean of the p = 0 and p = 1 ones."""
    worst = 0.0
    for coupling in Coupling:
        specs = [_spec(1.0, 5.0, QubitSpec(coupling, 0.05, p))
                 for p in (0.0, 0.5, 1.0)]
        dists = [ws.wdf2(s) for s in specs]
        avg = 0.5 * (dists[0].density + dists[2].density)
        scale = max(float(avg.max()), 1e-300)
        worst = max(worst, float(
            np.max(np.abs(dists[1].density - avg)) / scale))
    return CheckResult("p-averaging", worst <= 1e-12, worst, 1e-12)


def check_half_population_mean_work() -> CheckResult:
    """|W_mean(p=1/2)| vs its p=1 magnitude at beta = 1e-6 (spin).

    Stated bound: the p = 1/2 mean work is below 1e-10 of the p = 1
    magnitude.  For the spin coupling W_mean(1/2) is exactly
    beta-independent (the channel combination collapses to the bare
    density), so the achievable ratio is O(beta * gap), about 3e-8 at
    these parameters; the check reports the measured value either way.
    """
    qubit = lambda p: QubitSpec(Coupling.SPIN, 0.05, p)  # noqa: E731
    w_half = -ws.w_ext2(_spec(1e-6, 5.0, qubit(0.5)))
    w_one = -ws.w_ext2(_spec(1e-6, 5.0, qubit(1.0)))
    ratio = abs(w_half) / abs(w_one)
    detail = (f"|W(1/2)| = {abs(w_half):.3e} (absolute), "
              f"|W(1)| = {abs(w_one):.3e}, ratio = {ratio:.3e}")
    return CheckResult("half-population-mean-work", ratio <= 1e-10, ratio,
                       1e-10, detail)


def check_lambda4_scaling() -> CheckResult:
    """max|P - P2| shrinks by 14x-18x when lambda0 is halved."""
    diffs = []
    for lam in (0.01, 0.005):
        spec = _spec(1.0, 5.0, source=DrivenSource(lam, 100.0))
        _, diff = ws.correction_field(spec)
        diffs.append(float(np.max(np.abs(diff))))
    ratio = diffs[0] / diffs[1]
    passed = 14.0 <= ratio <= 18.0
    worst = abs(ratio - 16.0)
    return CheckResult("lambda4-scaling", passed, worst, 2.0,
                       f"ratio = {ratio:.6f}, max|P-P2| at lambda0=0.01: "
                       f"{diffs[0]:.3e}")


def check_moment_cross_check() -> CheckResult:
    """Finite-difference -i chi2'(0) vs the frequency-integral mean work."""
    rng = np.random.default_rng(20250810)
    worst, lines = 0.0, []
    couplings = [None, Coupling.SPIN, Coupling.FERMION, Coupling.TOPOLOGICAL]
    for _ in range(10):
        alpha = float(10.0 ** rng.uniform(math.log10(0.3), math.log10(6.0)))
        beta = float(10.0 ** rng.uniform(-1.0, 1.5))
        coupling = couplings[rng.integers(0, len(couplings))]
        qubit = None
        if coupling is not None:
            qubit = QubitSpec(coupling,
                              omega_gap=float(10.0 ** rng.uniform(-2.5, 0.7)),
                              p_ground=float(rng.uniform(0.0, 1.0)))
        spec = _spec(beta, alpha, qubit)
        fd = ws.mean_work_finite_difference(spec)
        integral = -ws.w_ext2(spec)
        rel = _rel(fd, integral)
        worst = max(worst, rel)
        lines.append(
            f"alpha={alpha:.3f} beta={beta:.3f} "
            f"q={coupling.value if coupling else 'none'}: "
            f"fd={fd:.6e} int={integral:.6e} rel={rel:.2e}")
    return CheckResult("moment-cross-check", worst <= 1e-6, worst, 1e-6,
                       "\n".join(lines))


def _count_local_maxima(density: np.ndarray) -> int:
    interior = density[1:-1]
    return int(np.sum((interior > density[:-2]) & (interior > density[2:])))


def check_modal_structure() -> CheckResult:
    """Pure-bath density: unimodal up to alpha = 1, bimodal above."""
    failures, lines = [], []
    for alpha, expected in ((0.5, 1), (1.0, 1), (2.0, 2), (5.0, 2)):
        dist = ws.wdf2(_spec(1.0, alpha))
        count = _count_local_maxima(dist.density)
        lines.append(f"alpha={alpha}: {count} maxima (expected {expected})")
        if count != expected:
            failures.append(alpha)
    return CheckResult("modal-structure", not failures, float(len(failures)),
                       0.0, "\n".join(lines))


def check_sign_map_topology() -> CheckResult:
    """Spin (p, beta) sweep: extraction corner signs and contour placement.

    The zero contour must exist and stay at least one cell (in scale
    space) away from the matched-temperature line everywhere.
    """
    fixed = _spec(1.0, 5.0, QubitSpec(Coupling.SPIN, 0.05, 0.9))
    plan = sweepmod.SweepPlan(
        x=sweepmod.Axis("p", 0.0, 1.0, 64),
        y=sweepmod.Axis("beta", 0.1, 100.0, 64, scale="log"),
        fixed=fixed)
    result = sweepmod.run_sweep(plan, sweepmod.Quantity.W_EXT)
    j1 = int(np.argmin(np.abs(result.ys - 1.0)))
    corner_pos = result.grid[-1, j1]
    corner_neg = result.grid[0, j1]
    gap = fixed.qubit.omega_gap
    cell = math.log(result.ys[1] / result.ys[0])
    min_dist = math.inf
    for polyline in result.zero_contour:
        p, b = polyline[:, 0], polyline[:, 1]
        inner = (p > 0.0) & (p < 1.0)
        if inner.any():
            bq = np.log(p[inner] / (1.0 - p[inner])) / gap
            min_dist = min(min_dist,
                           float(np.min(np.abs(np.log(b[inner]) - bq))))
    passed = (corner_pos > 0 and corner_neg < 0 and result.zero_contour
              and min_dist > cell)
    detail = (f"W_ext(p=1, beta~1) = {corner_pos:.3e}, "
              f"W_ext(p=0, beta~1) = {corner_neg:.3e}, "
              f"{len(result.zero_contour)} contour line(s), "
              f"min scale-space distance to beta_q line = {min_dist:.3f} "
              f"(cell {cell:.3f})")
    return CheckResult("sign-map-topology", bool(passed), min_dist, cell,
                       detail)


def check_statistics_ordering() -> CheckResult:
    """Spin density dominates fermion and topological by > 10x."""
    peaks = {}
    for coupling in Coupling:
        dist = ws.wdf2(_spec(1.0, 5.0, QubitSpec(coupling, 0.05, 1.0)))
        peaks[coupling] = float(dist.density.max())
    ratio_f = peaks[Coupling.SPIN] / peaks[Coupling.FERMION]
    ratio_t = peaks[Coupling.SPIN] / peaks[Coupling.TOPOLOGICAL]
    worst = min(ratio_f, ratio_t)
    detail = (f"spin peak {peaks[Coupling.SPIN]:.3e}, "
              f"fermion x{ratio_f:.1f}, topological x{ratio_t:.1f}")
    return CheckResult("statistics-ordering", worst > 10.0, worst, 10.0,
                       detail)


def check_engine_bounds() -> CheckResult:
    """Carnot bounds, entropy sign and first law over the engine maps.

    W_bar and the i-beta deficit are affine in p, so each coupling's
    betas are integrated at p = 0 and p = 1 only and every cell is
    blended from those ends, as a p-axis sweep does: the check bounds the
    figure-of-merit map's own values, through the sweeps' array engine
    bookkeeping.  A failed end raises; a cell that the bookkeeping
    refuses (the heat split at T_B = T_Q) is counted on the detail line.
    """
    eps = 1e-6
    ps = np.linspace(0.5 + eps, 1.0 - eps, 64)
    betas = np.geomspace(0.1, 100.0, 64)
    worst_eta, worst_cop, worst_ds, worst_first = 0.0, 0.0, 0.0, 0.0
    counts = {mode: 0 for mode in EngineMode}
    refused = 0
    for coupling in Coupling:
        ends = [_spec(float(beta), 5.0, QubitSpec(coupling, 0.05, p))
                for beta in betas for p in (0.0, 1.0)]
        entries, _ = ws.work_integrals(ends)
        for entry in entries:
            if isinstance(entry, Exception):
                raise entry
        # (beta, p) arrays from the (w0, d0, w1, d1) ends of each beta
        w0, d0, w1, d1 = np.reshape(entries, (len(betas), 4)).T[:, :, None]
        w_bar = (1.0 - ps) * w0 + ps * w1
        deficit = (1.0 - ps) * d0 + ps * d1
        # beta_q once per qubit, by the scalar log of model.beta_q
        bq = [beta_q(QubitSpec(coupling, 0.05, p)) for p in ps.tolist()]
        report, errors = _engine_reports(
            w_bar.ravel(), deficit.ravel(), np.repeat(betas, len(ps)),
            np.tile(bq, len(betas)), default_mode_tol(ends[0]))
        refused += len(errors)
        for mode in EngineMode:
            counts[mode] += int(np.count_nonzero(report.mode == mode))
        done = np.ones(w_bar.size, dtype=bool)
        done[list(errors)] = False
        worst_ds = max(worst_ds, float(np.max(-report.delta_s[done],
                                              initial=0.0)))
        worst_first = max(worst_first, float(np.max(np.abs(
            report.q_b + report.q_q - report.w_bar)[done], initial=0.0)))
        fom, r = report.figure_of_merit, report.r
        engine = report.mode == EngineMode.HEAT_ENGINE
        worst_eta = max(worst_eta, float(np.max(np.maximum(
            -fom, fom - (1.0 - r))[engine], initial=0.0)))
        fridge = report.mode == EngineMode.REFRIGERATOR
        worst_cop = max(worst_cop, float(np.max(np.maximum(
            -fom, fom - r / (1.0 - r))[fridge], initial=0.0)))
    worst = max(worst_eta, worst_cop, worst_ds, worst_first)
    detail = (f"modes: {[f'{m.value}:{n}' for m, n in counts.items()]}, "
              f"refused {refused}, eta overshoot {worst_eta:.2e}, "
              f"cop overshoot {worst_cop:.2e}, -delta_s {worst_ds:.2e}, "
              f"first-law {worst_first:.2e}")
    return CheckResult("engine-bounds", worst <= 1e-10, worst, 1e-10, detail)


def check_quadrature_oracle() -> CheckResult:
    """Adaptive vs dense-trapezoid agreement and window-doubling stability.

    Every family runs on its own default window (the detailed-balance
    probe widens it with beta); the trapezoid variant keeps that window
    with 2^16 nodes per panel and the doubling variant scales it by two.
    The worst rule entry, 1.05e-10 on the alpha 0.5 channel sum, is the
    trapezoid's own error at that endpoint: the 40-digit references of
    tests/test_references.py put the adaptive rule within 7e-16 there.
    """
    specs = [
        _spec(1.0, 0.5), _spec(1.0, 5.0),
        _spec(100.0, 0.5, QubitSpec(Coupling.SPIN, 0.05, 0.8)),
        _spec(10.0, 1.0, QubitSpec(Coupling.FERMION, 1.0, 0.3)),
        _spec(1000.0, 2.0, QubitSpec(Coupling.TOPOLOGICAL, 5.0, 0.9)),
    ]
    families: list[tuple[str, Callable, Callable]] = [
        ("channel-sum", ws.channel_sum_integral,
         lambda s: FrequencyGrid.for_source(s.source)),
        ("mean-work", lambda s, grid: -ws.w_ext2(s, grid),
         lambda s: FrequencyGrid.for_source(s.source)),
        ("chi-i-beta", ws.chi2_at_i_beta, ws.default_i_beta_grid),
        ("chi2(v=37.7)", lambda s, grid: ws.chi2(37.7, s, grid),
         lambda s: FrequencyGrid.for_source(s.source)),
    ]
    worst_rule, worst_window, lines = 0.0, 0.0, []
    for spec in specs:
        for name, fn, grid_for in families:
            base = grid_for(spec)
            trap = replace(base, rule=Rule.TRAPEZOID, n_points=1 << 16)
            doubled = replace(base, omega_max=2.0 * base.omega_max)
            a = fn(spec, base)
            t = fn(spec, trap)
            d = fn(spec, doubled)
            rule_dev = abs(a - t) / max(abs(a), abs(t), 1e-300)
            window_dev = abs(a - d) / max(abs(a), abs(d), 1e-300)
            worst_rule = max(worst_rule, rule_dev)
            worst_window = max(worst_window, window_dev)
            lines.append(
                f"{name} alpha={spec.spectrum.alpha} beta={spec.beta:g} "
                f"q={spec.qubit.coupling.value if spec.qubit else 'none'}: "
                f"rule {rule_dev:.2e} window {window_dev:.2e}")
    passed = worst_rule <= 1e-8 and worst_window <= 1e-12
    lines.append(f"worst rule {worst_rule:.3e} (tol 1e-8), "
                 f"worst window {worst_window:.3e} (tol 1e-12)")
    return CheckResult("quadrature-oracle", passed,
                       max(worst_rule, worst_window), 1e-8,
                       "\n".join(lines))


CHECKS: tuple[tuple[str, Callable[[], CheckResult]], ...] = (
    ("jarzynski-pure-bath", check_jarzynski_pure_bath),
    ("crooks-pure-bath", check_crooks_pure_bath),
    ("passivity-pure-bath", check_passivity_pure_bath),
    ("gapless-reduction", check_gapless_reduction),
    ("p-averaging", check_p_averaging),
    ("half-population-mean-work", check_half_population_mean_work),
    ("lambda4-scaling", check_lambda4_scaling),
    ("moment-cross-check", check_moment_cross_check),
    ("modal-structure", check_modal_structure),
    ("sign-map-topology", check_sign_map_topology),
    ("statistics-ordering", check_statistics_ordering),
    ("engine-bounds", check_engine_bounds),
    ("quadrature-oracle", check_quadrature_oracle),
)


def run_all(names=None) -> list[CheckResult]:
    selected = dict(CHECKS)
    if names:
        unknown = [n for n in names if n not in selected]
        if unknown:
            raise ValueError(f"unknown checks: {', '.join(unknown)}")
        return [selected[n]() for n in names]
    return [fn() for _, fn in CHECKS]
