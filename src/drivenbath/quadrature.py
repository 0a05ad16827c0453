"""Drive-weighted frequency integrals and characteristic-function inversion.

The only measure this artifact integrates against is the squared Fourier
amplitude of the Gaussian drive, |lam(w)|^2 dw / 2pi.  Its e^{-2 w^2 t^2}
envelope dominates every polynomially bounded spectral factor, so the
window is sized from the drive alone.  Integrands may declare support
edges (kinks) and the power m of a map w = e +/- t^m that reaches them;
panels are split at the edges and, with m != 1, each edge is approached
in t.  The channels take m from their exponent alpha, known analytically
(see ``green``): m = 2/a regularizes the integrable singularity
|w - e|^(a-1) of a sub-Ohmic spectrum, and m = 2 smooths the singular
derivatives at any other non-integer a, instead of extrapolation or
bisection toward the edge.

An integrand returns a pair (a, b) of real arrays whose sum is what is
integrated.  The pair carries the two uncancelled terms of a small
difference (W_ext and the chi2(i beta) deficit are differences of the
two Green channels, and for the pure bath the deficit cancels
pointwise), and both rules integrate a + b.  Every row is one real
integral: chi2 integrates its real and imaginary parts as two rows.

The adaptive rule integrates a batch of rows, one integral each, in one
refinement loop over the intervals of every (row, panel) pair, with one
integrand call per step on all open intervals.  Each row keeps its own
tolerance, tol = max(1e-14 int(|a| + |b|), 1e-12 |I|): the first term
is the floor that the rounding of the terms sets, below which refinement
would chase noise.  A row leaves the loop when the summed error estimate
of its intervals is at most tol.  A row fails alone, with a
QuadratureError message, on a non-finite sample or when refinement runs
out of steps or intervals above tol (a stall); no row leaves with an
unconverged estimate.  A row's value does not depend on the rest of the
batch, to the bit, by construction: every node value is an elementwise
function of its own row, each interval's rule is its own matrix
product, and each row's sums run over its own intervals in a fixed
order.  A single integral is a batch of one.  A run of rows with one
panel layout is built once, and only its outer panels are sized per row.

A nonzero mapped edge e at w = e +/- t^m is also handed to the
integrand, with each node's exact offset +/- t^m from it.  The integrand
can then take the distance x = w - e to the edge as that offset instead
of forming the difference again, which would keep none of its digits
below the rounding of e: next to the edge of a spin qubit the Bose
factor 1/(beta x) turns that rounding into a staircase that no
refinement resolves.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence, Union

import numpy as np

from .model import DrivenSource, FrequencyGrid, Rule

ArrayLike = Union[float, np.ndarray]

ROOT_8PI = math.sqrt(8.0 * math.pi)

#: adaptive-rule tolerance of one integral, relative to its value and,
#: as a floor, to the L1 norm of its uncancelled terms
_EPSREL = 1e-12
_EPS_L1 = 1e-14
_MAX_INTERVALS = 4096
_MAX_STEPS = 40

#: max phase of e^{i w v} per Gauss-Legendre subpanel, in the variable
#: the rule integrates (see _gl_nodes_weights)
_GL_PHASE = 40.0
_GL_ORDER = 40
#: most nodes one oscillatory sampling may use; a bare bath at
#: |v| = 1,280,000 takes 109,920.  A sampling peaks at ~1.1 kB per node at
#: 201 samples and ~18 kB at 65,536, most of it the phase tables
#: (measured ru_maxrss).  The cap counts every subpanel, edge cuts
#: included, before those nodes with zero coefficients are dropped, so it
#: does not depend on the integrand.
_GL_MAX_NODES = 1 << 17


class QuadratureError(RuntimeError):
    """Integrand returned a non-finite sample or a rule failed."""


def lambda_weight(omega: ArrayLike, source: DrivenSource) -> ArrayLike:
    """|lam(w)|^2 = lam0^2 sqrt(8 pi) t_int^2 e^{-2 w^2 t_int^2}; real, even."""
    w = np.asarray(omega, dtype=float)
    t2 = source.t_int * source.t_int
    out = (source.lambda0 ** 2) * ROOT_8PI * t2 * np.exp(-2.0 * t2 * w * w)
    return float(out) if out.ndim == 0 else out


class _Panel(NamedTuple):
    """One integration panel in a transformed variable t in [0, length].

    See :func:`_panel_map` for omega(t); power == 1 encodes the identity
    map (anchor = left edge, sign = +1).  As an array, a list of panels
    has one row per panel and these fields as columns.
    """

    length: float
    anchor: float
    sign: float
    power: float


def _panel_map(t: np.ndarray, anchor: np.ndarray, sign: np.ndarray,
               powers: np.ndarray):
    """(omega, Jacobian, offset) of panel nodes ``t``, shape (k, m).

    Line i lies on a panel with ``anchor[i]``, ``sign[i]`` and
    ``powers[i]``: omega = anchor + offset with the offset sign t^power
    exact, and Jacobian |domega/dt| = power t^(power - 1).  The Jacobian
    and the offset are None when every line has the identity map (power
    1, sign +1); on the identity lines of a mixed call t^1 = t and
    1 t^0 = 1 hold exactly.
    """
    if (powers == 1.0).all():
        return anchor[:, None] + t, None, None
    p = powers[:, None]
    offset = sign[:, None] * power(t, p)
    return anchor[:, None] + offset, p * power(t, p - 1.0), offset


def power(base: np.ndarray, exponent) -> np.ndarray:
    """``base ** exponent`` with each distinct exponent taken as a float.

    ``exponent`` is a float or an array that broadcasts against ``base``.
    numpy's pow gives other last bits for an array exponent than for a
    float (a float 0.5 or 2 even becomes sqrt or square), so every element
    is raised exactly as it would be by a float exponent alone.
    """
    if not isinstance(exponent, float):
        first = exponent.flat[0]
        if (exponent == first).all():
            exponent = float(first)
    if isinstance(exponent, float):
        return base ** exponent
    out = np.empty_like(base)
    for value in np.unique(exponent).tolist():
        where = np.broadcast_to(exponent == value, base.shape)
        out[where] = base[where] ** value
    return out


def _build_panels(omega_max: float,
                  breakpoints: Sequence[float],
                  power: float) -> list[_Panel]:
    """The panels of one window: :func:`_panel_columns` of one row."""
    columns = _panel_columns([omega_max], [breakpoints], [power])
    return list(map(_Panel, *columns[2:6]))


def _between_edges(edges: list[float], power: float) -> list[_Panel]:
    """The panels between consecutive ``edges`` (ascending); with power
    m != 1 each is halved, so that each half has one mapped end."""
    if power == 1.0:
        return [_Panel(b - a, a, 1.0, 1.0) for a, b in zip(edges, edges[1:])]
    inverse = 1.0 / power
    panels = []
    for a, b in zip(edges, edges[1:]):
        mid = 0.5 * (a + b)
        if mid > a:
            panels.append(_Panel((mid - a) ** inverse, a, 1.0, power))
        if b > mid:
            panels.append(_Panel((b - mid) ** inverse, b, -1.0, power))
    return panels


def _edge(panel: _Panel) -> float:
    """The support edge that ``panel`` maps in t, NaN if none.

    At an anchor of 0, omega - 0 already is the exact offset sign t^m,
    so only a nonzero anchor of a power panel counts.
    """
    return panel.anchor if panel.power != 1.0 and panel.anchor != 0.0 \
        else math.nan


def _failure(bad: np.ndarray, omegas: np.ndarray) -> Optional[str]:
    """The QuadratureError message for the first flagged sample, if any."""
    if not bad.any():
        return None
    return f"integrand evaluation failed at omega = {omegas[bad][0]:.6g}"


@dataclass(frozen=True)
class Integrals:
    """What :func:`integrate_rows` returns, one entry per row.

    A failed row holds NaN in ``values`` and its QuadratureError message
    in ``errors`` (None elsewhere).  ``points`` counts the integrand
    points each row took.
    """

    values: np.ndarray
    points: np.ndarray
    errors: tuple[Optional[str], ...]

    def value(self):
        """The value of a batch of one; raises its QuadratureError if any."""
        if self.errors[0] is not None:
            raise QuadratureError(self.errors[0])
        return self.values[0]


def _trapezoid_row(f, row: int, source: DrivenSource, panels: list[_Panel],
                   n: int):
    """(integral, error message) of one row by the trapezoid rule."""
    total = 0.0
    for panel in panels:
        t = np.linspace(0.0, panel.length, n)
        om, jac, offset = _panel_map(t[None, :], *np.array([panel]).T[1:])
        edge = _edge(panel)
        near = None if math.isnan(edge) else (np.full((1, 1), edge), offset)
        a, b = f(om, np.array([row]), near)
        vals = lambda_weight(om, source) * (a + b) / (2.0 * math.pi)
        message = _failure(~np.isfinite(vals), om)
        if message is not None:
            return math.nan, message
        total += np.trapezoid((vals if jac is None else vals * jac)[0], t)
    return total, None


#: G15 and its Kronrod extension K31 (QUADPACK's QK31), exact to degree
#: 46.  The 16 Kronrod nodes are the roots of the Stieltjes polynomial
#: E16, orthogonal to all lower degrees against the weight P15: solved in
#: the Legendre basis, roots by legroots, and the K31 weights from the
#: moment system sum_i w_i P_k(x_i) = 2 delta_k0, k <= 30; in double
#: precision, symmetrized as leggauss does (8.4e-16 from exact).  For x >
#: 0, ascending: Kronrod nodes, K31 weights there, then at G15's x >= 0.
_X_LOW, _W_LOW = np.polynomial.legendre.leggauss(15)
_X_KRONROD = [0.10114206691871747, 0.29918000715316850, 0.48508186364023997,
              0.65099674129741736, 0.79041850144246539, 0.89726453234408199,
              0.96773907567913953, 0.99800229869339718]
_W_KRONROD = [0.10076984552387562, 0.096642726983623417, 0.088564443056211375,
              0.076849680757720626, 0.062009567800670753, 0.044589751324764476,
              0.025460847326715087, 0.0053774798729232763]
_W_GAUSS = [0.10133000701479143, 0.099173598721791850, 0.093126598170826136,
            0.083080502823133284, 0.069854121318727425, 0.053481524690928588,
            0.035346360791376367, 0.015007947329315836]
#: the 31 nodes ascending (Kronrod and G15 alternate) and K31 weights
_X_BOTH, _W_K31 = np.empty(31), np.empty(31)
_X_BOTH[0::2] = [-x for x in _X_KRONROD[::-1]] + _X_KRONROD
_X_BOTH[1::2] = _X_LOW
_W_K31[0::2] = _W_KRONROD[::-1] + _W_KRONROD
_W_K31[1::2] = _W_GAUSS[:0:-1] + _W_GAUSS
#: the oscillatory sampling's rule on each of its subpanels
_X_GL, _W_GL = np.polynomial.legendre.leggauss(_GL_ORDER)

#: an interval's row holds m (a + b) at its 31 nodes, then m (|a| + |b|)
#: there, m being |lam|^2 times the Jacobian; the columns turn it into
#: K31 - G15, K31 and the K31 of |a| + |b| per unit half-width.  The
#: measure's 1/2pi is applied once, to the final sum.
_RULES = np.zeros((62, 3))
_RULES[:31, 0] = _RULES[:31, 1] = _RULES[31:, 2] = _W_K31
_RULES[1:31:2, 0] -= _W_LOW


def _adaptive(f, source: DrivenSource, active: Sequence[int], columns,
              values, points, errors) -> None:
    """Globally adaptive nested pair G15/K31 (31 nodes), all rows at once.

    Fills ``values``, ``points`` and ``errors`` of the rows ``active``,
    whose panels ``columns`` holds as :func:`_panel_columns` returns them.
    One refinement loop runs over the open intervals of every (row, panel)
    pair and evaluates ``f`` once per step, on all their nodes.  The
    intervals stay grouped by row, then panel, and every sum over a row's
    intervals is taken over its own run of them, so a row's bits do not
    depend on the batch.  Per row, with tol = max(_EPS_L1 int(|a| + |b|),
    _EPSREL |I|), the row leaves the loop when the summed |K31 - G15| of
    its intervals, open and retired, is at most tol.  Otherwise it
    bisects its intervals whose error exceeds their length share of tol
    and retires the others with their K31 estimates.  A row that is still
    above tol past _MAX_STEPS steps or _MAX_INTERVALS open intervals, or
    with nothing left to bisect, has stalled and fails alone, as a
    non-finite sample fails its row.  ``f`` gets ``near`` as
    :func:`integrate_rows` says, with each panel's edge (:func:`_edge`)
    fixed once, before the loop.
    """
    # per open row: its index, open intervals, total panel length and the
    # summed error, value and L1 of its retired intervals
    counts, total_len, length, anchor, sign, powers, edge = columns
    done = [(0.0, 0.0, 0.0)] * len(active)
    prow = np.array(active).repeat(counts)
    anchor, sign, powers = map(np.array, (anchor, sign, powers))
    edge = None if all(map(math.isnan, edge)) else np.array(edge)[:, None]
    pid = np.arange(len(length))
    lo = np.zeros(len(length))
    half = 0.5 * np.array(length)

    # a non-finite sample fails its row below, so numpy's warnings about
    # the sums it spoils would only repeat that
    with np.errstate(invalid="ignore", over="ignore"):
        for step in range(_MAX_STEPS):
            k = lo.size
            starts = [0, *itertools.accumulate(counts[:-1])]
            rows = prow[pid]
            om, jac, offset = _panel_map(
                (lo + half)[:, None] + half[:, None] * _X_BOTH,
                anchor[pid], sign[pid], powers[pid])
            measure = lambda_weight(om, source)
            if jac is not None:
                measure *= jac
            del jac
            a, b = f(om, rows, None if edge is None or offset is None
                     else (edge[pid], offset))
            del offset
            norm = np.abs(a)
            norm += np.abs(b)
            vals = np.empty((k, 1, 62))
            np.multiply(a + b, measure, out=vals[:, 0, :31])
            del a, b
            np.multiply(norm, measure, out=vals[:, 0, 31:])
            # one product per interval: BLAS picks its kernel by the shape of
            # a product, and a (k, 62) GEMM would sum a row differently for
            # different k
            rules = (vals @ _RULES)[:, 0]
            rules *= half[:, None]
            err = np.abs(rules[:, 0], out=rules[:, 0])

            # per row, in Python floats: summed error, estimate and L1 of the
            # retired and open intervals, and the tolerance
            opened = np.add.reduceat(rules, starts, axis=0).tolist()
            sums = [(d0 + s0, d1 + s1, d2 + s2)
                    for (d0, d1, d2), (s0, s1, s2) in zip(done, opened)]
            tols = [max(_EPS_L1 * l1, _EPSREL * abs(value))
                    for _, value, l1 in sums]
            split = err > np.array(
                [2.0 * tol / span for tol, span in zip(tols, total_len)]
            ).repeat(counts) * half
            n_split = np.add.reduceat(split, starts, dtype=np.intp).tolist()
            stay = []
            for i, (row, (err_sum, value, l1), tol) in enumerate(
                    zip(active, sums, tols)):
                points[row] += 31 * counts[i]
                if not math.isfinite(err_sum + value + l1):
                    run = slice(starts[i], starts[i] + counts[i])
                    bad = ~np.isfinite(vals[run, 0, :31])
                    bad |= ~np.isfinite(vals[run, 0, 31:])
                    errors[row] = _failure(bad, om[run]) or \
                        "integrand samples overflow the integral"
                    values[row] = math.nan
                elif err_sum <= tol:
                    values[row] = value / (2.0 * math.pi)
                elif (not n_split[i] or counts[i] > _MAX_INTERVALS
                      or step == _MAX_STEPS - 1):
                    errors[row] = (
                        f"adaptive refinement stalled after "
                        f"{points[row]:,} points: error "
                        f"{err_sum / (2.0 * math.pi):.3g} above tolerance "
                        f"{tol / (2.0 * math.pi):.3g}")
                    values[row] = math.nan
                else:
                    stay.append(i)
            if not stay:
                return
            if len(stay) < len(active):
                keep = np.zeros(len(active), dtype=bool)
                keep[stay] = True
                split &= np.repeat(keep, counts)
            # when every interval is bisected, nothing retires and nothing
            # is dropped (a row's sums would only gain zeros)
            if len(stay) < len(active) or sum(n_split) < k:
                retired = np.add.reduceat(
                    np.where(split[:, None], 0.0, rules), starts,
                    axis=0).tolist()
                done = [(d0 + r0, d1 + r1, d2 + r2)
                        for (d0, d1, d2), (r0, r1, r2) in zip(done, retired)]
                half, pid, lo = half[split], pid[split], lo[split]
            active = [active[i] for i in stay]
            counts = [2 * n_split[i] for i in stay]
            total_len = [total_len[i] for i in stay]
            done = [done[i] for i in stay]
            # an interval's two halves stay next to each other, and so the
            # intervals stay grouped by row and panel
            pid = pid.repeat(2)
            lo = lo.repeat(2)
            lo[1::2] += half
            half = (0.5 * half).repeat(2)


def _run_panels(windows: list[float], inside: list[float], power: float):
    """The panels of a run of rows that share their edges ``inside``
    every window (ascending) and their power.

    Returns the first row's panels and, per row, the lengths of the
    outer panels, which reach +-omega_max, and the first one's anchor:
    (panels, firsts, anchors, lasts), lasts empty with no edge inside.
    """
    # b - a with a = -omega_max is b + omega_max, to the bit
    anchors = [-w for w in windows]
    if not inside:
        firsts = [w + w for w in windows]
        return [_Panel(firsts[0], anchors[0], 1.0, 1.0)], firsts, anchors, []
    lo, hi = inside[0], inside[-1]
    firsts = [lo + w for w in windows]
    lasts = [w - hi for w in windows]
    if power == 1.0:
        first = _Panel(firsts[0], anchors[0], 1.0, 1.0)
    else:
        inverse = 1.0 / power
        firsts = [d ** inverse for d in firsts]
        lasts = [d ** inverse for d in lasts]
        anchors = [lo] * len(windows)
        first = _Panel(firsts[0], lo, -1.0, power)
    panels = [first, *_between_edges(inside, power),
              _Panel(lasts[0], hi, 1.0, first.power)]
    return panels, firsts, anchors, lasts


def _panel_columns(windows: Sequence[float],
                   breakpoints: Sequence[Sequence[float]],
                   edge_powers: Sequence[float]):
    """The panels of rows, as columns.

    Row r spans +-``windows[r]``, split at its edges ``breakpoints[r]``
    inside the window.  With power m = ``edge_powers[r]`` != 1 both
    panels at an edge e reach it as w = e +/- t^m (the channels' m:
    green._edge_power), and a panel between two edges is halved.
    Returns each row's panel count and total length (summed left to
    right), then each panel's length, anchor, sign, power and
    :func:`_edge`, row after row, as lists.  A run of rows with one layout
    (edges, power and the edges inside the window) is laid out once by
    :func:`_run_panels`; per row only its two outer panels are sized.
    """
    def layout(row):
        window, edges, edge_power = row
        edges = tuple(edges)
        return edges, edge_power, [b for b in edges if -window < b < window]

    columns = [], [], [], [], [], [], []
    counts, total_len, length, anchor, sign, powers, edge = columns
    for (_, edge_power, inside), run in itertools.groupby(
            zip(windows, breakpoints, edge_powers), layout):
        ws = [row[0] for row in run]
        panels, firsts, anchors, lasts = _run_panels(
            ws, sorted({float(b) for b in inside}), edge_power)
        k, n = len(ws), len(panels)
        lengths, anchors_k, signs, maps = map(list, zip(*panels))
        lengths *= k
        anchors_k *= k
        lengths[0::n] = firsts
        anchors_k[0::n] = anchors
        if lasts:
            lengths[n - 1::n] = lasts
        counts += [n] * k
        # each row's n lengths, summed left to right
        total_len += map(sum, zip(*[iter(lengths)] * n))
        length += lengths
        anchor += anchors_k
        sign += signs * k
        powers += maps * k
        edge += list(map(_edge, panels)) * k
    return columns


def integrate_rows(f, source: DrivenSource, grids: Sequence[FrequencyGrid],
                   breakpoints: Sequence[Sequence[float]],
                   edge_powers: Sequence[float]) -> Integrals:
    """Integrals of a batch of integrands against dw/2pi |lam(w)|^2.

    Row r integrates ``f`` on ``grids[r]``; the drive is shared.
    ``f(omega, rows, near)`` gets nodes ``omega`` of shape (k, m), whose
    line i belongs to row ``rows[i]``, and returns a pair (a, b) of real
    arrays of that shape (see the module docstring).  ``near`` is None,
    or (edge, offset): per line the nonzero support edge that its panel
    maps in t (NaN for a line that maps none) as a (k, 1) column, and
    each node's exact offset omega - edge, shape (k, m).  ``breakpoints[r]``
    mark support edges of row r's integrand inside the window; with
    ``edge_powers[r]`` = m != 1 each edge is additionally reached by the
    power substitution w = e +/- t^m (m = 1: identity panels only).  The
    adaptive rows' panels are built once per run of consecutive rows
    with one layout (:func:`_panel_columns`), and the rows share one
    refinement loop with one call of ``f`` per step; each keeps the
    tolerance and exits that it has alone, so a row's value is the same
    to the bit in any batch.  A row whose integrand gives a non-finite
    sample, or whose refinement stalls above its tolerance, fails alone;
    the other rows keep their values.
    """
    n = len(grids)
    values, points = np.zeros(n), np.zeros(n, dtype=np.int64)
    errors = [None] * n
    adaptive = []
    for row, (grid, edges, edge_power) in enumerate(
            zip(grids, breakpoints, edge_powers)):
        if grid.rule is Rule.TRAPEZOID:
            panels = _build_panels(grid.omega_max, edges, edge_power)
            values[row], errors[row] = _trapezoid_row(
                f, row, source, panels, grid.n_points)
            points[row] = grid.n_points * len(panels)
        else:
            adaptive.append((row, grid.omega_max, edges, edge_power))
    if adaptive:
        rows, *layout = zip(*adaptive)
        _adaptive(f, source, rows, _panel_columns(*layout), values, points,
                  errors)
    return Integrals(values=values, points=points, errors=tuple(errors))


# -- oscillatory sampling ---------------------------------------------------

def _edge_cuts(t: float, power: float, rate: float) -> list[float]:
    """Cuts of [0, t] on a power panel, stepping toward its edge t = 0.

    The phase rate in t, rate power t^(power - 1), grows away from the
    edge (power > 1), so it is largest at a subpanel's upper end.  Each
    cut moves down by _GL_PHASE over the rate there, until [0, t] itself
    advances at most _GL_PHASE at its upper end's rate.  Descending.
    """
    cuts = []
    while power * rate * t ** power > _GL_PHASE:
        t -= _GL_PHASE / (power * rate * t ** (power - 1.0))
        cuts.append(t)
    return cuts


def _gl_nodes_weights(panels: list[_Panel], v_abs_max: float):
    """Composite Gauss-Legendre nodes on the panels, in omega space.

    Each 40-node subpanel is sized by the phase of e^{i w v} in t, the
    variable the rule integrates: its t-width times the largest phase
    rate |v| |dw/dt| on it should stay within _GL_PHASE.  A panel is
    split at equal omega increments of at most _GL_PHASE / |v|, which on
    an identity panel (dw/dt = 1) is that bound.  On a power panel
    w = e +/- t^p the rate p |v| t^(p - 1) grows away from the edge:
    the subpanel at the edge sees p times its mean rate, so it is cut
    further toward the edge (:func:`_edge_cuts`); the next one sees at
    most 2 ln 2 ~ 1.39 times its mean, and the rest less, which leaves
    ~56 rad, inside the ~80 rad that 40 Gauss-Legendre nodes integrate
    e^{i theta} to rounding.  Every subpanel is counted against
    _GL_MAX_NODES before any array is built.
    """
    _, *params = np.array(panels).T
    ends = _panel_map(np.array([[0.0, p.length] for p in panels]), *params)[0]
    widths = np.abs(ends[:, 1] - ends[:, 0])
    rate = max(v_abs_max, 1.0)
    n_subs = [max(1, int(math.ceil(width * rate / _GL_PHASE)))
              for width in widths]
    cuts = [[] if panel.power == 1.0 else
            _edge_cuts((width / n_sub) ** (1.0 / panel.power), panel.power,
                       rate)
            for panel, width, n_sub in zip(panels, widths, n_subs)]
    count = _GL_ORDER * (sum(n_subs) + sum(map(len, cuts)))
    if count > _GL_MAX_NODES:
        raise ValueError(
            f"sampling up to |v| = {v_abs_max:g} needs {count:,} "
            f"quadrature nodes, above the cap of {_GL_MAX_NODES:,} "
            f"(~{count * 1.1e-3:,.0f} MB at 201 samples, "
            f"~{count * 18e-3:,.0f} MB at 65,536)")
    # one line of nodes per subpanel: its panel, lower edge and half-width
    line_panel, lo, half = [], [], []
    for k, (panel, width_omega, n_sub, edge) in enumerate(
            zip(panels, widths, n_subs, cuts)):
        # equal omega increments mapped back to the transformed variable
        om_frac = np.linspace(0.0, 1.0, n_sub + 1)
        if panel.power == 1.0:
            t_edges = om_frac * panel.length
        else:
            t_edges = (om_frac * width_omega) ** (1.0 / panel.power)
            t_edges = np.concatenate([t_edges[:1], edge[::-1], t_edges[1:]])
        line_panel += [k] * (t_edges.size - 1)
        lo.append(t_edges[:-1])
        half.append(0.5 * (t_edges[1:] - t_edges[:-1]))
    lo, half = np.concatenate(lo)[:, None], np.concatenate(half)[:, None]
    nodes, jac, _ = _panel_map(lo + half * (_X_GL + 1.0),
                               *(a[line_panel] for a in params))
    weights = half * _W_GL
    if jac is not None:
        weights *= jac
    return nodes.ravel(), weights.ravel()


def _unit_phases(phase: np.ndarray) -> np.ndarray:
    """e^{i phase} of a real array, bit for bit ``np.exp(1j * phase)``.

    The cosine fills the real and the sine the imaginary part of one
    complex array, which costs less than the complex exponential.  The
    imaginary part of 1j * phase is phase + 0.0, which turns -0.0 into
    +0.0, so the sine takes phase + 0.0 too.  ``phase`` is overwritten.
    """
    phase += 0.0
    out = np.empty(phase.shape, dtype=complex)
    np.cos(phase, out=out.real)
    np.sin(phase, out=out.imag)
    return out


def oscillatory_pair(pair: Callable[[np.ndarray], tuple],
                     h: float,
                     n: int,
                     source: DrivenSource,
                     grid: FrequencyGrid,
                     breakpoints: Sequence[float],
                     edge_power: float):
    """Sample F_k(v) = int dw/2pi |lam|^2 f_k(w) e^{i w v} for k = 1, 2
    on the lattice v_j = j h, j = 0 .. n - 1.

    ``pair(nodes)`` returns the real pair (f_1, f_2) at a 1-D node array:
    both come from one call on one composite Gauss-Legendre node set, from
    a 40-node rule built once at import, on panels split as in
    ``integrate_rows`` and subpanels sized for the phase up to |v| =
    |h| (n - 1) (:func:`_gl_nodes_weights`).  Splitting j = b B + m with B = ceil(sqrt(n))
    factors every phase exactly as e^{i w v_bB} e^{i w m h}: the block
    phases fold into the two coefficient vectors, and the samples are one
    complex product of the B x nodes table e^{i w m h} with that nodes x
    2 ceil(n/B) matrix.  Both phase tables hold cos and sin of the real
    phases, written into one complex array; with -0.0 phases taken as
    +0.0 for the sine, as the complex exponential takes them, that is
    e^{i phi} to the bit.  Nodes where f_1 and f_2 both give coefficients
    of exactly 0.0 (below the support of every channel term: w <= 0 for
    the bare bath, w <= -gap with a qubit) are left out before any phase
    is formed; their terms are zeros in every sample, so each sample is
    the same dense sum, and only the blocking of the shorter inner
    dimension of the product can move its last bits.  Returns a pair of
    complex arrays of length n, sample j at v_j.
    """
    v_abs_max = abs(h) * (n - 1)
    panels = _build_panels(grid.omega_max, breakpoints, edge_power)
    nodes, weights = _gl_nodes_weights(panels, v_abs_max)
    measure = lambda_weight(nodes, source) / (2.0 * math.pi) * weights
    f1, f2 = pair(nodes)
    c1 = measure * np.asarray(f1, dtype=float)
    c2 = measure * np.asarray(f2, dtype=float)
    for c in (c1, c2):
        message = _failure(~np.isfinite(c), nodes)
        if message is not None:
            raise QuadratureError(message)
    # a node whose coefficients are both 0.0 adds only zeros to every sample
    live = (c1 != 0.0) | (c2 != 0.0)
    nodes, c1, c2 = nodes[live], c1[live], c2[live]

    block = math.isqrt(max(n - 1, 0)) + 1
    table = _unit_phases(np.outer(h * np.arange(block), nodes))
    shift = _unit_phases(np.outer(nodes, h * np.arange(0, n, block)))
    cols = shift.shape[1]
    coeffs = np.empty((nodes.size, 2 * cols), dtype=complex)
    np.multiply(c1[:, None], shift, out=coeffs[:, :cols])
    np.multiply(c2[:, None], shift, out=coeffs[:, cols:])
    del shift
    samples = table @ coeffs
    # column b of each half holds v_{bB} .. v_{bB+B-1}
    return tuple(part.T.ravel()[:n] for part in np.hsplit(samples, 2))


# -- characteristic-function inversion --------------------------------------

@dataclass(frozen=True)
class InversionPlan:
    """FFT window for recovering a distribution from its transform.

    The resolution relation is dW = 2 pi / (2 v_max).
    """

    v_max: float
    n_fft: int = 1 << 16

    def __post_init__(self) -> None:
        if self.n_fft < (1 << 12) or self.n_fft & (self.n_fft - 1):
            raise ValueError("n_fft must be a power of two >= 4096")
        if not math.isfinite(self.v_max):
            raise ValueError("v_max must be finite")
        if not self.v_max > 0:
            raise ValueError("v_max must be > 0")

    @property
    def dv(self) -> float:
        return 2.0 * self.v_max / self.n_fft

    @property
    def dw(self) -> float:
        return math.pi / self.v_max

    def v_grid(self) -> np.ndarray:
        return -self.v_max + self.dv * np.arange(self.n_fft)


def default_plan(source: DrivenSource) -> InversionPlan:
    """Window wide enough to resolve the ~1/t_int support of the density."""
    return InversionPlan(v_max=64.0 * source.t_int)


def invert_samples(residual: np.ndarray, plan: InversionPlan):
    """Continuous inverse transform of atom-subtracted samples.

    ``residual`` holds chi(v_j) - atom on ``plan.v_grid()``.  Returns
    (w_grid, complex density) with w ascending; the caller decides how to
    treat the imaginary residue.
    """
    if residual.shape != (plan.n_fft,):
        raise ValueError("residual must be sampled on plan.v_grid()")
    spectrum = np.fft.fftshift(np.fft.fft(residual))  # k ascending, as w
    k = np.fft.fftshift(np.fft.fftfreq(plan.n_fft, d=1.0 / plan.n_fft))
    w = 2.0 * math.pi * k / (plan.n_fft * plan.dv)
    density = spectrum * plan.dv / (2.0 * math.pi)
    # the phase e^{i v_max w_k} is (-1)^k exactly, as n dv = 2 v_max; k
    # starts at -n/2, which is even
    np.negative(density[1::2], out=density[1::2])
    return w, density
