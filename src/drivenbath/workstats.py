"""Work statistics of the cyclically driven bath.

Second-order quantities (characteristic function, work density, mean
work, no-transition weight) are frequency integrals of the Green-function
channels against the drive measure; the all-order characteristic function
of the pure bath is their exponential resummation.  Everything here is a
pure function of the spec.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import quadrature
from .green import ChannelTable, channel_table
from .model import DrivenSource, FrequencyGrid, SystemSpec, require_valid
from .quadrature import (Integrals, QuadratureError, default_plan,
                         integrate_rows, lambda_weight)

#: continuous densities this far below zero are clipped (FFT ringing);
#: anything lower means the perturbative constraint is genuinely broken
NEGATIVE_DENSITY_TOL = 1e-12

#: density floor below which a reverse/forward ratio is meaningless
CROOKS_FLOOR = 1e-300

#: rounding slack, as a fraction of max|v|, between a sampled v grid and
#: the even lattice it stands for
GRID_RTOL = 16.0 * np.finfo(float).eps


class ConstraintError(ValueError):
    """Positivity of the second-order work distribution is violated."""


class PerturbativeBreakdownError(RuntimeError):
    """chi2(i beta) came out non-positive; its log is undefined."""


@dataclass(frozen=True)
class WorkDistribution:
    """Atom at W = 0 plus a sampled continuous density.

    ``imag_residue`` is the largest imaginary part discarded when the
    density came out of an inverse transform; ``clipped`` counts grid
    points whose slightly negative values were set to zero.
    """

    atom_weight: float
    w_grid: np.ndarray
    density: np.ndarray
    imag_residue: float = 0.0
    clipped: int = 0

    @property
    def normalization(self) -> float:
        return self.atom_weight + float(
            np.trapezoid(self.density, self.w_grid))


@dataclass(frozen=True)
class PositivityReport:
    """Value of the channel-sum integral and whether it sits inside (0, 2)."""

    value: float
    passed: bool
    message: str = ""


def default_i_beta_grid(spec: SystemSpec) -> FrequencyGrid:
    """Window for the detailed-balance probe at v = i beta: the one-spec
    view of :func:`_i_beta_grids`."""
    return _i_beta_grids(spec.source, [spec.beta])[0]


def _i_beta_grids(source: DrivenSource,
                  betas: Sequence[float]) -> list[FrequencyGrid]:
    """The i-beta probe's window at each of ``betas`` for ``source``.

    Its integrand carries e^{+-beta w}, which grows like e^{beta |w|}
    before the drive envelope cuts it, so the Gaussian peak of the
    integrand is shifted by beta/(4 t_int^2); the drive-only window,
    sized once, is widened by that amount to keep the truncated tail
    below TAIL_EPS of the peak (drive-only sizing misses a ~1e-11 tail
    at beta ~ 1e3).
    """
    base = FrequencyGrid.for_source(source)
    return [FrequencyGrid(base.omega_max + beta / (4.0 * source.t_int ** 2),
                          base.n_points, base.rule) for beta in betas]


def _rows(integrand, table: ChannelTable, source: DrivenSource,
          grids: Sequence[FrequencyGrid]) -> Integrals:
    """Integrals of ``integrand(table, omega, rows, near)`` for the specs
    of ``table``, which share the drive ``source``; row r integrates on
    ``grids[r]`` with the support edges of spec r."""
    return integrate_rows(
        lambda omega, rows, near: integrand(table, omega, rows, near),
        source, grids, table.edges, table.edge_powers)


def default_w_grid(source: DrivenSource, n: int = 800) -> np.ndarray:
    """Symmetric work grid covering the drive support, excluding W = 0.

    Even ``n`` keeps 0 off the grid so the continuous part never double
    counts the atom.
    """
    if n < 2:
        raise ValueError(f"a work grid needs at least 2 samples, got {n}")
    if n % 2:
        raise ValueError("n must be even to keep W = 0 off the grid")
    w_max = FrequencyGrid.for_source(source).omega_max
    return np.linspace(-w_max, w_max, n)


def chi2(v: float, spec: SystemSpec,
         grid: Optional[FrequencyGrid] = None) -> complex:
    """Second-order characteristic function at real transform variable v.

    chi2(0) = 1 identically (the integrand vanishes), and the value at -v
    is the complex conjugate.  v must be real: a complex v, Python or
    numpy, raises ``TypeError``.  The continuation to
    v = i beta is :func:`chi2_at_i_beta`.  The real and imaginary parts
    are two rows of one batched call, each against its own tolerance
    (the imaginary part can sit ten orders below the real part); the
    first row error, real part first, is raised.
    """
    require_valid(spec)
    if np.iscomplexobj(v):
        # float() only warns on a numpy complex and drops its imaginary part
        raise TypeError(f"chi2 takes real v, got {v!r}")
    v = float(v)
    if grid is None:
        grid = FrequencyGrid.for_source(spec.source)

    # on real v, -expm1(+-i theta) = 2 sin^2(theta/2) -+ i sin theta, the
    # bits of numpy's complex expm1 without its cos and exp: accurate at
    # small |wv|, where the plain difference is rounding noise that
    # adaptive refinement would chase.  Both rows are the one spec, and
    # rows * 0 keeps pair on its one-spec path.
    def f(table, w, rows, near):
        g_mp, g_pm = table.pair(w, rows * 0, near)
        imag = (rows == 1)[:, None]
        theta = w * v
        half = np.sin(0.5 * theta)
        trig = np.where(imag, np.sin(theta), 2.0 * half * half)
        return np.where(imag, -trig, trig) * g_mp, trig * g_pm

    res = _rows(f, channel_table([spec, spec]), spec.source, [grid, grid])
    if res.errors != (None, None):
        raise QuadratureError(res.errors[0] or res.errors[1])
    re, im = res.values
    return 1.0 - 0.5 * complex(re + 1j * im)


def i_beta_deficit(spec: SystemSpec,
                   grid: Optional[FrequencyGrid] = None) -> float:
    """The detailed-balance deficit 1 - chi2(i beta), integrated directly.

    Zero for the pure thermal bath up to quadrature rounding (both
    channels are evaluated and the integrand cancels pointwise; no
    identity is assumed), so it carries the margin that 1 - deficit
    rounds away.  All exponentials act on the windowed frequency, so the
    evaluation stays in range for beta up to ~1e3 at the default drive.
    Without ``grid`` it integrates on :func:`default_i_beta_grid`.
    """
    require_valid(spec)
    values, (error,), _ = _work_rows(
        [spec], None, [default_i_beta_grid(spec) if grid is None else grid])
    if error:
        raise QuadratureError(error)
    return float(values[0, 1])


def _deficit_integrand(table: ChannelTable, w, rows, near):
    """The integrand of twice the i-beta deficit."""
    g_mp, g_pm = table.pair(w, rows, near)
    beta = table.beta(rows)
    return (-np.expm1(-beta * w) * g_mp, -np.expm1(beta * w) * g_pm)


def chi2_at_i_beta(spec: SystemSpec,
                   grid: Optional[FrequencyGrid] = None) -> float:
    """chi2 continued to v = i*beta, 1 - :func:`i_beta_deficit`.

    Equals 1 for the pure thermal bath; raises
    :class:`PerturbativeBreakdownError` when it is not positive, because
    its log is then undefined.
    """
    return chi2_from_deficit(i_beta_deficit(spec, grid))


def chi2_from_deficit(deficit: float) -> float:
    """chi2(i beta) = 1 - ``deficit``; the breakdown guard of
    :func:`chi2_at_i_beta` for callers that hold the deficit."""
    value = 1.0 - deficit
    if value <= 0.0:
        raise PerturbativeBreakdownError(
            f"perturbative breakdown: chi2(i beta) = {value:g} <= 0, "
            "log undefined")
    return value


def channel_sum_integral(spec: SystemSpec,
                         grid: Optional[FrequencyGrid] = None) -> float:
    """The integral of g_mp + g_pm against the drive measure (= 2(1 - p0))."""
    require_valid(spec)

    # both channels are >= 0, so the pair's |a| + |b| is its sum
    if grid is None:
        grid = FrequencyGrid.for_source(spec.source)
    return float(_rows(ChannelTable.pair, channel_table([spec]), spec.source,
                       [grid]).value())


def positivity_check(spec: SystemSpec) -> PositivityReport:
    """Whether the channel-sum integral sits strictly inside (0, 2).

    Outside that window the second-order distribution cannot be a
    probability (the atom weight leaves (0, 1)); the report says so
    instead of clipping anything.
    """
    value = channel_sum_integral(spec)
    if value <= 0.0:
        return PositivityReport(value, False, "not strictly positive")
    if value >= 2.0:
        return PositivityReport(
            value, False,
            "channel-sum integral >= 2: no-transition weight would be "
            "negative; reduce lambda0")
    return PositivityReport(value, True)


def atom_weight2(spec: SystemSpec) -> float:
    """Second-order no-transition weight p0 = 1 - channel_sum/2."""
    report = positivity_check(spec)
    if not report.passed:
        raise ConstraintError(
            f"positivity constraint violated ({report.message}); "
            "reduce lambda0")
    return 1.0 - 0.5 * report.value


def wdf2(spec: SystemSpec,
         w_grid: Optional[np.ndarray] = None) -> WorkDistribution:
    """Second-order work distribution on ``w_grid``.

    density(W) = |lam(W)|^2 [g_mp(W) + g_pm(-W)] / 4 pi, with the atom
    p0 carried separately.  The default grid excludes W = 0.
    """
    atom = atom_weight2(spec)
    w = default_w_grid(spec.source) if w_grid is None else \
        np.asarray(w_grid, dtype=float)
    # g_mp(W) from line 0 and g_pm(-W) from line 1 of one pair call
    g_mp, g_pm = channel_table([spec]).pair(
        np.stack([w, -w]).reshape(2, -1), np.zeros(2, dtype=np.intp), None)
    dens = lambda_weight(w, spec.source) / (4.0 * math.pi) * (
        g_mp[0] + g_pm[1]).reshape(w.shape)
    dens, clipped = _clip_density(dens)
    return WorkDistribution(atom_weight=atom, w_grid=w, density=dens,
                            clipped=clipped)


def _clip_density(dens: np.ndarray) -> tuple[np.ndarray, int]:
    low = float(dens.min(initial=0.0))
    if low < -NEGATIVE_DENSITY_TOL:
        raise ConstraintError(
            f"density reached {low:g} < -{NEGATIVE_DENSITY_TOL:g}: "
            "perturbative positivity violated; reduce lambda0")
    negatives = dens < 0.0
    if negatives.any():
        dens = np.where(negatives, 0.0, dens)
    return dens, int(np.count_nonzero(negatives))


def w_ext2(spec: SystemSpec, grid: Optional[FrequencyGrid] = None) -> float:
    """Second-order work extraction -(1/2) int_lam w [g_mp - g_pm].

    Equals minus the mean work; nonpositive for the pure thermal bath
    (passivity), either sign once a qubit breaks detailed balance.
    """
    require_valid(spec)
    if grid is None:
        grid = FrequencyGrid.for_source(spec.source)
    values, (error,), _ = _work_rows([spec], [grid], None)
    if error:
        raise QuadratureError(error)
    return -float(values[0, 0])


def _mean_work_integrand(table: ChannelTable, w, rows, near):
    """The integrand of twice the mean work."""
    g_mp, g_pm = table.pair(w, rows, near)
    return w * g_mp, -w * g_pm


def work_integrals(specs: Sequence[SystemSpec], mean_work: bool = True,
                   deficit: bool = True) -> tuple[list, list[Integrals]]:
    """(W_bar, i-beta deficit) of each spec, one batched call per integral.

    The specs share coupling and drive; an integral not asked for is
    NaN.  Where the direct calls (-:func:`w_ext2`, then
    :func:`i_beta_deficit`) raise, the entry is the error they raise
    first: the ValueError of an invalid spec, else the QuadratureError of
    the mean work, then of the deficit.  The valid specs go through
    :func:`_work_rows` on the direct calls' default windows, the mean
    work's drive window and each spec's own i-beta window, so every
    entry has the bits of those calls.  Also returns the calls'
    :class:`Integrals`, which carry their points.
    """
    entries: list = [None] * len(specs)
    valid = []
    for k, spec in enumerate(specs):
        try:
            require_valid(spec)
        except ValueError as exc:
            entries[k] = exc
        else:
            valid.append(k)
    if not valid:
        return entries, []
    batch = [specs[k] for k in valid]
    source = batch[0].source
    values, errors, calls = _work_rows(
        batch,
        [FrequencyGrid.for_source(source)] * len(batch) if mean_work else None,
        _i_beta_grids(source, [s.beta for s in batch]) if deficit else None)
    for k, pair, error in zip(valid, values.tolist(), errors):
        entries[k] = QuadratureError(error) if error else tuple(pair)
    return entries, calls


def _work_rows(specs: Sequence[SystemSpec],
               mean_grids: Optional[Sequence[FrequencyGrid]],
               deficit_grids: Optional[Sequence[FrequencyGrid]]):
    """W_bar and the i-beta deficit of valid specs, batched.

    The one batch step of both integrals: :func:`w_ext2`,
    :func:`i_beta_deficit`, :func:`work_integrals` and the sweep rows all
    integrate through it.  The specs must be valid and share coupling
    and drive; ``mean_grids`` and ``deficit_grids`` hold each spec's
    window of the mean work and of the deficit, None for an integral not
    asked for.  One channel table serves both integrals, one
    :func:`integrate_rows` call each.  Returns an (n, 2) array of
    (W_bar, deficit), NaN where not asked for or failed; each row's
    first error message, the mean work's before the deficit's, or None;
    and the calls' :class:`Integrals`.
    """
    table, source = channel_table(specs), specs[0].source
    values = np.full((len(specs), 2), math.nan)
    calls = []
    for column, integrand, grids in ((0, _mean_work_integrand, mean_grids),
                                     (1, _deficit_integrand, deficit_grids)):
        if grids is not None:
            calls.append(_rows(integrand, table, source, grids))
            values[:, column] = 0.5 * calls[-1].values
    errors = [next(filter(None, row), None)
              for row in zip(*(res.errors for res in calls))]
    return values, errors, calls


def mean_work_finite_difference(spec: SystemSpec) -> float:
    """-i d(chi2)/dv at v = 0 by Richardson-extrapolated central steps.

    Test-side cross-check only; production mean work comes from the
    frequency integral.  The imaginary part of chi2 is integrated
    separately from the real part, so no cancellation against chi2 ~ 1
    occurs.
    """
    def central(step: float) -> complex:
        return (chi2(step, spec) - chi2(-step, spec)) / (2 * step)

    h = 1e-4
    coarse = central(h)
    fine = central(h / 2.0)
    derivative = (4.0 * fine - coarse) / 3.0
    return float((-1j * derivative).real)


@dataclass(frozen=True)
class CrooksRatio:
    """Reverse-to-forward density ratio sampled on a symmetric grid.

    ``skipped`` lists grid values whose forward density sat below the
    evaluation floor; those points carry NaN.
    """

    w_grid: np.ndarray
    values: np.ndarray
    skipped: tuple[float, ...] = ()

    def __call__(self, w: float) -> float:
        idx = int(np.argmin(np.abs(self.w_grid - w)))
        if not math.isclose(self.w_grid[idx], w, rel_tol=1e-9, abs_tol=1e-15):
            raise ValueError(f"W = {w:g} is not on the distribution grid")
        return float(self.values[idx])


def crooks_ratio(dist: WorkDistribution) -> CrooksRatio:
    """density(-W)/density(W) over the grid of ``dist``.

    Requires a sign-symmetric grid so each W has its mirror; for a pure
    thermal bath the result equals e^{-beta W} pointwise (the fluctuation
    ratio), while qubit-coupled deviations from that are the observable.
    """
    w = dist.w_grid
    mirrored = np.searchsorted(w, -w)
    mirrored = np.clip(mirrored, 0, w.size - 1)
    ok = np.isclose(w[mirrored], -w, rtol=1e-12, atol=1e-300)
    forward = dist.density
    # a NaN density is not below the floor: its ratio is NaN, not skipped
    low = forward <= CROOKS_FLOOR
    values = np.full(w.size, np.nan)
    np.divide(forward[mirrored], forward, out=values, where=ok & ~low)
    return CrooksRatio(w_grid=w, values=values,
                       skipped=tuple(w[ok & low].tolist()))


def require_pure_bath(spec: SystemSpec) -> None:
    """Refuse a qubit: the all-order resummation exists for the bath alone."""
    if spec.qubit is not None:
        raise ValueError(
            "all-order characteristic function is available only for the "
            "pure thermal bath")


# -- sampled fields and inversion -------------------------------------------

@dataclass(frozen=True)
class ChiField:
    """chi2 sampled on a v grid, kept in atom + residual split form.

    ``tail`` is T(v) = chi2(v) - p0: it decays to zero at large |v| and
    is the numerically clean object to transform (the all-order residual
    is atom * expm1(T), evaluated without cancellation).
    """

    v_grid: np.ndarray
    p0: float
    tail: np.ndarray

    def chi2_values(self) -> np.ndarray:
        return self.p0 + self.tail


def chi2_field(spec: SystemSpec, v: np.ndarray) -> ChiField:
    """Sample chi2 on an evenly spaced v grid whose lattice holds 0.

    Every v_j must be k_j h for an integer k_j, where h is the grid
    spacing; ``InversionPlan.v_grid()`` and ``linspace(0, v_max, n)`` both
    are.  Any other grid raises ValueError.  chi2 is sampled once per
    lattice index 0..max k_j by ``quadrature.oscillatory_pair`` on the
    lattice (h, max k_j + 1), which it takes as given (both
    drive-weighted channel transforms come from one ``ChannelTable.pair``
    call on its nodes), and v < 0 takes
    the complex conjugate, so mirrored samples are exact conjugates and
    chi2(0) = 1 holds on the field to within one rounding of p0 + T(0).
    Only the nodes where a channel is nonzero enter the samples: the
    channels vanish exactly below their lowest shift (w <= 0 for the
    bare bath, half its nodes, and w <= -gap with a qubit), and those
    nodes would add only zeros.
    """
    require_valid(spec)
    v = np.asarray(v, dtype=float)
    table, rows = channel_table([spec]), np.zeros(1, dtype=np.intp)
    v_abs = np.abs(v)
    v_abs_max = float(v_abs.max(initial=0.0))
    h = abs(v[-1] - v[0]) / (v.size - 1) if v.size > 1 else v_abs_max or 1.0
    if not (h > 0.0 and np.all(np.abs(v_abs - np.rint(v_abs / h) * h)
                               <= GRID_RTOL * v_abs_max)):
        raise ValueError("v must be an evenly spaced grid on the lattice "
                         "v_j = k_j h with integer k_j")
    k = np.rint(v_abs / h).astype(np.intp)
    a_mp, a_pm = quadrature.oscillatory_pair(
        lambda w: tuple(g[0] for g in table.pair(w[None], rows, None)),
        h, int(k.max(initial=0)) + 1, spec.source,
        FrequencyGrid.for_source(spec.source), table.edges[0],
        table.edge_powers[0])
    p0 = 1.0 - 0.5 * float(a_mp[0].real + a_pm[0].real)
    # T(v) = (A_mp(v) + conj(A_pm(v)))/2 for v >= 0, conjugate below
    tail = 0.5 * (a_mp + np.conj(a_pm))[k]
    negative = v < 0.0
    tail[negative] = np.conj(tail[negative])
    return ChiField(v_grid=v, p0=p0, tail=tail)


NORMALIZATION_ABORT = 1e-4


class InversionError(RuntimeError):
    """The FFT window failed to capture the distribution."""


def _all_order_field(spec: SystemSpec):
    """(default plan, atom e^{p0 - 1}, chi2 tail T) of the pure bath."""
    require_pure_bath(spec)
    plan = default_plan(spec.source)
    field = chi2_field(spec, plan.v_grid())
    return plan, math.exp(field.p0 - 1.0), field.tail


def wdf_nonperturbative(spec: SystemSpec) -> WorkDistribution:
    """All-order work distribution of the pure bath by FFT inversion.

    Samples chi2 on the v grid of ``default_plan(spec.source)``.  The
    atom is e^{p0 - 1} and the transform residual is evaluated as
    atom * expm1(T(v)), which keeps the full relative accuracy of the
    tail.  Against the second-order density this resummation carries the
    small oscillatory corrections (self-convolutions of the tail).
    Raises :class:`InversionError` when the normalization is off by more
    than NORMALIZATION_ABORT.
    """
    plan, atom, tail = _all_order_field(spec)
    w, complex_density = quadrature.invert_samples(atom * np.expm1(tail),
                                                   plan)
    imag_residue = float(np.max(np.abs(complex_density.imag), initial=0.0))
    density, clipped = _clip_density(complex_density.real.copy())
    dist = WorkDistribution(atom_weight=atom, w_grid=w, density=density,
                            imag_residue=imag_residue, clipped=clipped)
    defect = abs(dist.normalization - 1.0)
    if defect > NORMALIZATION_ABORT:
        raise InversionError(
            f"inversion window too small: normalization off by {defect:.3e}")
    return dist


def correction_field(spec: SystemSpec):
    """(w, P - P2) difference of all-order and second-order densities.

    Transforming the residual difference atom*expm1(T) - T in a single
    FFT cancels the shared window truncation exactly, exposing the pure
    fourth-order-and-up correction; computing the two densities
    separately and subtracting would bury it in shared artifacts.
    """
    plan, atom, tail = _all_order_field(spec)
    w, density = quadrature.invert_samples(atom * np.expm1(tail) - tail,
                                           plan)
    return w, density.real
