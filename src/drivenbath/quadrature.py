"""Drive-weighted frequency integrals and characteristic-function inversion.

The only measure this artifact integrates against is the squared Fourier
amplitude of the Gaussian drive, |lam(w)|^2 dw / 2pi.  Its e^{-2 w^2 t^2}
envelope dominates every polynomially bounded spectral factor, so the
window is sized from the drive alone.  Integrands may declare support
edges (kinks) and, for sub-Ohmic spectra, an integrable power singularity
|w - e|^(a-1); panels are split at the edges and singular endpoints are
regularized by the substitution w = e +/- t^(2/a), whose exponent is known
analytically, instead of extrapolation.

An integrand returns one array or a pair (a, b) of arrays whose sum is
what is integrated.  The pair carries the two uncancelled terms of a
small difference (W_ext and the chi2(i beta) deficit are differences of
the two Green channels, and for the pure bath the deficit cancels
pointwise), and both rules integrate a + b.  A lone array is the pair
(a, 0).

The adaptive rule integrates a batch of rows, one integral each, in one
refinement loop over the intervals of every (row, panel) pair, with one
integrand call per step on all open intervals.  Each row keeps its own
tolerance, tol = max(1e-14 int(|a| + |b|), 1e-12 |I|): the first term
is the floor that the rounding of the terms sets, below which refinement
would chase noise.  A row leaves the loop when the summed error estimate
of its intervals is at most tol.  Refinement that runs out of steps or
intervals above tol stalls: the row leaves with its current estimate,
the open intervals included, and is flagged.  A row's value does not
depend on the rest of the batch, to the bit, by construction: every node
value is an elementwise function of its own row, each interval's rule is
its own matrix product, each row's sums run over its own intervals in a
fixed order, and a non-finite sample fails its row alone.  A single
integral is a batch of one.
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

#: max phase advance of e^{i w v} per Gauss-Legendre subpanel
_GL_PHASE = 20.0
_GL_ORDER = 40
#: most nodes one oscillatory sampling may use; |v| = 640,000 takes
#: 109,920.  A sampling peaks at ~1.1 kB per node at 201 samples and
#: ~18 kB at 65,536, most of it the phase tables (measured ru_maxrss).
_GL_MAX_NODES = 1 << 17

#: rounding slack, as a fraction of max|v|, between a sampled v grid and
#: the even lattice it stands for
GRID_RTOL = 16.0 * np.finfo(float).eps


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
    """(omega, Jacobian) of panel nodes ``t``, shape (k, m).

    Line i lies on a panel with ``anchor[i]``, ``sign[i]`` and
    ``powers[i]``: omega = anchor + sign t^power, with Jacobian
    |domega/dt| = power t^(power - 1).  The Jacobian is None when every
    line has the identity map (power 1, sign +1); on the identity lines
    of a mixed call t^1 = t and 1 t^0 = 1 hold exactly.
    """
    if (powers == 1.0).all():
        return anchor[:, None] + t, None
    p = powers[:, None]
    return (anchor[:, None] + sign[:, None] * power(t, p),
            p * power(t, p - 1.0))


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
                  singular_exponent: Optional[float]) -> list[_Panel]:
    pts = [-omega_max]
    interior = sorted({float(b) for b in breakpoints
                       if -omega_max < b < omega_max})
    pts.extend(interior)
    pts.append(omega_max)

    singular = set(interior) if singular_exponent is not None else set()
    if singular_exponent is not None:
        # |w-e|^(a-1) with a = 1 + exponent; w = e + t^m, m = 2/a makes the
        # transformed integrand vanish linearly at the endpoint.
        power = 2.0 / (1.0 + singular_exponent)
    else:
        power = 1.0

    panels: list[_Panel] = []

    def add(a: float, b: float, left_sing: bool, right_sing: bool) -> None:
        if b <= a:
            return
        if left_sing and right_sing:
            mid = 0.5 * (a + b)
            add(a, mid, True, False)
            add(mid, b, False, True)
            return
        if left_sing:
            panels.append(_Panel(length=(b - a) ** (1.0 / power),
                                 anchor=a, sign=1.0, power=power))
        elif right_sing:
            panels.append(_Panel(length=(b - a) ** (1.0 / power),
                                 anchor=b, sign=-1.0, power=power))
        else:
            panels.append(_Panel(length=b - a, anchor=a, sign=1.0, power=1.0))

    for a, b in zip(pts[:-1], pts[1:]):
        add(a, b, a in singular, b in singular)
    return panels


def _sum_and_l1(out):
    """a + b and |a| + |b| of an integrand pair (a, b); a lone array is a."""
    if isinstance(out, tuple):
        a, b = out
        norm = np.abs(a)
        norm += np.abs(b)
        return a + b, norm
    return out, np.abs(out)


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
    points each row took, and ``stalled`` flags the rows whose refinement
    ran out of steps or intervals above their tolerance.
    """

    values: np.ndarray
    points: np.ndarray
    stalled: np.ndarray
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
        om, jac = _panel_map(t[None, :], *np.array([panel]).T[1:])
        out = _sum_and_l1(f(om, np.array([row])))[0]
        vals = lambda_weight(om, source) * out / (2.0 * math.pi)
        message = _failure(~np.isfinite(vals), om)
        if message is not None:
            return math.nan, message
        total += np.trapezoid((vals if jac is None else vals * jac)[0], t)
    return total, None


_X_LOW, _W_LOW = np.polynomial.legendre.leggauss(15)
_X_HIGH, _W_HIGH = np.polynomial.legendre.leggauss(31)
_X_BOTH = np.concatenate([_X_LOW, _X_HIGH])
#: the oscillatory sampling's rule on each of its subpanels
_X_GL, _W_GL = np.polynomial.legendre.leggauss(_GL_ORDER)

#: an interval's row holds m (a + b) at its 15 and 31 nodes, then
#: m (|a| + |b|) at the 31 nodes, m being |lam|^2 times the Jacobian; the
#: columns turn it into G31 - G15, G31 and the G31 of |a| + |b| per unit
#: half-width.  The measure's 1/2pi is applied once, to the final sum.
_RULES = np.zeros((77, 3))
_RULES[:15, 0] = -_W_LOW
_RULES[15:46, 0] = _W_HIGH
_RULES[15:46, 1] = _W_HIGH
_RULES[46:, 2] = _W_HIGH


def _adaptive(f, source: DrivenSource, row_panels: list, values, points,
              stalled, errors) -> None:
    """Globally adaptive embedded Gauss pair (15/31 nodes), all rows at once.

    Fills ``values``, ``points``, ``stalled`` and ``errors`` of every row
    whose entry of ``row_panels`` is a panel list.  One refinement loop
    runs over the open intervals of every (row, panel) pair and evaluates
    ``f`` once per step, on all their nodes.  The intervals stay grouped
    by row, then panel, and every sum over a row's intervals is taken over
    its own run of them, so a row's bits do not depend on the batch.  Per
    row, with tol = max(_EPS_L1 int(|a| + |b|), _EPSREL |I|), the row
    leaves the loop when the summed |G31 - G15| of its intervals, open and
    retired, is at most tol.  Otherwise it bisects its intervals whose
    error exceeds their length share of tol and retires the others with
    their 31-point estimates.  Past _MAX_STEPS steps or _MAX_INTERVALS
    open intervals, or with nothing left to bisect, the row stalls: it
    leaves with its open intervals' 31-point estimates.  A non-finite
    sample fails its row alone.
    """
    # per open row: its index, open intervals, total panel length and the
    # summed error, value and L1 of its retired intervals
    active, counts, total_len, done = [], [], [], []
    prow, anchor, sign, powers, length = [], [], [], [], []
    for row, panels in enumerate(row_panels):
        panels = [p for p in panels or () if p.length > 0.0]
        if not panels:
            continue
        active.append(row)
        counts.append(len(panels))
        total_len.append(sum(p.length for p in panels))
        done.append((0.0, 0.0, 0.0))
        for p in panels:
            prow.append(row)
            anchor.append(p.anchor)
            sign.append(p.sign)
            powers.append(p.power)
            length.append(p.length)
    if not active:
        return
    prow, anchor, sign, powers = map(np.array, (prow, anchor, sign, powers))
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
            om, jac = _panel_map(
                (lo + half)[:, None] + half[:, None] * _X_BOTH,
                anchor[pid], sign[pid], powers[pid])
            measure = lambda_weight(om, source)
            if jac is not None:
                measure *= jac
            del jac
            total, norm = _sum_and_l1(f(om, rows))
            vals = np.empty((k, 1, 77))
            np.multiply(total, measure, out=vals[:, 0, :46])
            np.multiply(norm[:, 15:], measure[:, 15:], out=vals[:, 0, 46:])
            # one product per interval: BLAS picks its kernel by the shape of
            # a product, and a (k, 77) GEMM would sum a row differently for
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
                points[row] += 46 * counts[i]
                if not math.isfinite(err_sum + value + l1):
                    run = slice(starts[i], starts[i] + counts[i])
                    bad = ~np.isfinite(vals[run, 0, :46])
                    bad[:, 15:] |= ~np.isfinite(vals[run, 0, 46:])
                    errors[row] = _failure(bad, om[run]) or \
                        "integrand samples overflow the integral"
                    values[row] = math.nan
                elif err_sum <= tol:
                    values[row] = value / (2.0 * math.pi)
                elif (not n_split[i] or counts[i] > _MAX_INTERVALS
                      or step == _MAX_STEPS - 1):
                    # stalled above tol
                    values[row] = value / (2.0 * math.pi)
                    stalled[row] = True
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


def integrate_rows(f, source: DrivenSource, grids: Sequence[FrequencyGrid],
                   breakpoints: Sequence[Sequence[float]],
                   singular_exponents: Sequence[Optional[float]],
                   *, complex_valued: bool = False) -> Integrals:
    """Integrals of a batch of integrands against dw/2pi |lam(w)|^2.

    Row r integrates ``f`` on ``grids[r]``; the drive is shared.
    ``f(omega, rows)`` gets nodes ``omega`` of shape (k, m), whose line i
    belongs to row ``rows[i]``, and returns one array or a pair (a, b) of
    arrays of that shape (see the module docstring).  ``breakpoints[r]``
    mark support edges of row r's integrand inside the window; with
    ``singular_exponents[r]`` in (-1, 0) each edge is additionally
    treated as an integrable |w - e|^exponent endpoint via the power
    substitution.  The adaptive rows share one refinement loop with one
    call of ``f`` per step, and each keeps the tolerance and exits that it
    has alone, so a row's value is the same to the bit in any batch.
    With ``complex_valued`` each row's real and imaginary parts are two
    rows of the loop, each against its own tolerance: the imaginary part
    of a characteristic function can sit ten orders below the real part.
    A row whose integrand gives a non-finite sample fails alone; the
    other rows keep their values.
    """
    if complex_valued:
        def part(omega, rows):
            out = f(omega, rows // 2)
            imag = (rows % 2 == 1)[:, None]

            def pick(a):
                return np.where(imag, a.imag, a.real)
            return tuple(map(pick, out)) if isinstance(out, tuple) \
                else pick(out)

        def twice(seq):
            return [item for item in seq for _ in range(2)]
        res = integrate_rows(part, source, twice(grids), twice(breakpoints),
                             twice(singular_exponents))
        return Integrals(
            values=res.values[0::2] + 1j * res.values[1::2],
            points=res.points[0::2] + res.points[1::2],
            stalled=res.stalled[0::2] | res.stalled[1::2],
            errors=tuple(a or b for a, b in zip(res.errors[0::2],
                                                res.errors[1::2])))

    n = len(grids)
    values, points = np.zeros(n), np.zeros(n, dtype=np.int64)
    stalled, errors = np.zeros(n, dtype=bool), [None] * n
    built: dict = {}
    row_panels: list = []
    for row, (grid, edges, exponent) in enumerate(
            zip(grids, breakpoints, singular_exponents)):
        key = (grid.omega_max, tuple(edges), exponent)
        if key not in built:
            built[key] = _build_panels(*key)
        panels = built[key]
        if grid.rule is Rule.TRAPEZOID:
            values[row], errors[row] = _trapezoid_row(
                f, row, source, panels, grid.n_points)
            points[row] = grid.n_points * len(panels)
            panels = None
        row_panels.append(panels)
    _adaptive(f, source, row_panels, values, points, stalled, errors)
    return Integrals(values=values, points=points, stalled=stalled,
                     errors=tuple(errors))


# -- oscillatory sampling ---------------------------------------------------

def _gl_nodes_weights(panels: list[_Panel], v_abs_max: float):
    """Composite Gauss-Legendre nodes on the panels, in omega space.

    Subpanels are split at equal *omega* increments so the phase of
    e^{i w v} advances at most _GL_PHASE per subpanel regardless of the
    endpoint transform.
    """
    _, *params = np.array(panels).T
    ends = _panel_map(np.array([[0.0, p.length] for p in panels]), *params)[0]
    widths = np.abs(ends[:, 1] - ends[:, 0])
    n_subs = [max(1, int(math.ceil(width * max(v_abs_max, 1.0) / _GL_PHASE)))
              for width in widths]
    count = _GL_ORDER * sum(n_subs)
    if count > _GL_MAX_NODES:
        raise ValueError(
            f"sampling up to |v| = {v_abs_max:g} needs {count:,} "
            f"quadrature nodes, above the cap of {_GL_MAX_NODES:,} "
            f"(~{count * 1.1e-3:,.0f} MB at 201 samples, "
            f"~{count * 18e-3:,.0f} MB at 65,536)")
    # one line of nodes per subpanel: its panel, lower edge and half-width
    line_panel, lo, half = [], [], []
    for k, (panel, width_omega, n_sub) in enumerate(
            zip(panels, widths, n_subs)):
        # equal omega increments mapped back to the transformed variable
        om_frac = np.linspace(0.0, 1.0, n_sub + 1)
        t_edges = (om_frac * width_omega) ** (1.0 / panel.power) \
            if panel.power != 1.0 else om_frac * panel.length
        line_panel += [k] * n_sub
        lo.append(t_edges[:-1])
        half.append(0.5 * (t_edges[1:] - t_edges[:-1]))
    lo, half = np.concatenate(lo)[:, None], np.concatenate(half)[:, None]
    nodes, jac = _panel_map(lo + half * (_X_GL + 1.0),
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


def oscillatory_pair(f1: Callable[[np.ndarray], np.ndarray],
                     f2: Callable[[np.ndarray], np.ndarray],
                     v: np.ndarray,
                     source: DrivenSource,
                     grid: FrequencyGrid,
                     *,
                     breakpoints: Sequence[float] = (),
                     singular_exponent: Optional[float] = None):
    """Sample F_k(v) = int dw/2pi |lam|^2 f_k(w) e^{i w v} for k = 1, 2.

    ``v`` is a 1-D evenly spaced grid, v_j = v_0 + j h, as
    ``InversionPlan.v_grid()`` and ``linspace`` give; any other grid
    raises ValueError.  Both integrands share one composite
    Gauss-Legendre node set, from a 40-node rule built once at import.
    Splitting j = b B + m with B = ceil(sqrt(n)) factors every phase
    exactly as e^{i w v_bB} e^{i w m h}: the block phases fold into the
    two coefficient vectors, and the samples are one complex product of
    the B x nodes table e^{i w m h} with that nodes x 2 ceil(n/B) matrix.
    Both phase tables hold cos and sin of the real phases, written into
    one complex array; with -0.0 phases taken as +0.0 for the sine, as
    the complex exponential takes them, that is e^{i phi} to the bit.
    Returns a pair of complex arrays aligned with ``v``.
    """
    v = np.asarray(v, dtype=float)
    n = v.size
    v_abs_max = float(np.max(np.abs(v), initial=0.0))
    h = (v[-1] - v[0]) / (n - 1) if n > 1 else 0.0
    lattice = v[:1] + h * np.arange(n)
    if not np.all(np.abs(v - lattice) <= GRID_RTOL * v_abs_max):
        raise ValueError("v must be an evenly spaced grid")
    panels = _build_panels(grid.omega_max, breakpoints, singular_exponent)
    nodes, weights = _gl_nodes_weights(panels, v_abs_max)
    measure = lambda_weight(nodes, source) / (2.0 * math.pi) * weights
    c1 = measure * np.asarray(f1(nodes), dtype=float)
    c2 = measure * np.asarray(f2(nodes), dtype=float)
    for c in (c1, c2):
        message = _failure(~np.isfinite(c), nodes)
        if message is not None:
            raise QuadratureError(message)

    block = math.isqrt(max(n - 1, 0)) + 1
    table = _unit_phases(np.outer(h * np.arange(block), nodes))
    shift = _unit_phases(np.outer(nodes, v[::block]))
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

    def w_grid(self) -> np.ndarray:
        return self.dw * (np.arange(self.n_fft) - self.n_fft // 2)


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
    spectrum = np.fft.fft(residual)
    k = np.fft.fftfreq(plan.n_fft, d=1.0 / plan.n_fft)
    w = 2.0 * math.pi * k / (plan.n_fft * plan.dv)
    density = spectrum * plan.dv / (2.0 * math.pi) * np.exp(1j * plan.v_max * w)
    order = np.argsort(k)
    return w[order], density[order]
