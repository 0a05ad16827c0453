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
pointwise), and both rules integrate a + b.  The adaptive rule runs one
refinement loop per integral over the intervals of all its panels, with
one tolerance, tol = max(1e-14 int(|a| + |b|), 1e-12 |I|): the first
term is the floor that the rounding of the terms sets, below which
refinement would chase noise.  It stops when the summed error estimate
of all intervals is at most tol.  A lone array is the pair (a, 0).
Refinement that runs out of steps or intervals above tol stalls: it
returns its current estimate, the open intervals included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

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


@dataclass(frozen=True)
class _Panel:
    """One integration panel in a transformed variable t in [0, length].

    omega(t) = anchor + sign * t**power, |domega/dt| = power * t**(power-1).
    power == 1 encodes the identity map (anchor = left edge, sign = +1).
    """

    length: float
    anchor: float
    sign: float
    power: float

    def omega(self, t: np.ndarray) -> np.ndarray:
        if self.power == 1.0:
            return self.anchor + self.sign * t
        return self.anchor + self.sign * t ** self.power

    def jacobian(self, t: np.ndarray) -> np.ndarray:
        if self.power == 1.0:
            return np.ones_like(t)
        return self.power * t ** (self.power - 1.0)


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
        return a + b, np.abs(a) + np.abs(b)
    return out, np.abs(out)


def _part(f, part):
    """The real or imaginary part of an integrand array or of each term."""
    def g(w):
        out = f(w)
        return tuple(map(part, out)) if isinstance(out, tuple) else part(out)
    return g


def _check_finite(values: np.ndarray, omegas: np.ndarray) -> None:
    bad = ~np.isfinite(values)
    if np.any(bad):
        where = np.atleast_1d(omegas)[np.atleast_1d(bad)][0]
        raise QuadratureError(
            f"integrand evaluation failed at omega = {where:.6g}")


def _trapezoid_panel(f, source: DrivenSource, panel: _Panel, n: int,
                     complex_valued: bool):
    t = np.linspace(0.0, panel.length, n)
    om = panel.omega(t)
    total = _sum_and_l1(f(om))[0]
    vals = np.asarray(lambda_weight(om, source) * total / (2.0 * math.pi),
                      dtype=complex if complex_valued else float)
    _check_finite(vals, om)
    return np.trapezoid(vals * panel.jacobian(t), t)


_X_LOW, _W_LOW = np.polynomial.legendre.leggauss(15)
_X_HIGH, _W_HIGH = np.polynomial.legendre.leggauss(31)
_X_BOTH = np.concatenate([_X_LOW, _X_HIGH])

#: an interval's row holds m (a + b) at its 15 and 31 nodes, then
#: m (|a| + |b|) at the 31 nodes, m being |lam|^2 times the Jacobian; the
#: columns turn it into G31, G31 - G15 and the G31 of |a| + |b| per unit
#: half-width.  The measure's 1/2pi is applied once, to the final sum.
_RULES = np.zeros((77, 3))
_RULES[15:46, 0] = _W_HIGH
_RULES[:15, 1] = -_W_LOW
_RULES[15:46, 1] = _W_HIGH
_RULES[46:, 2] = _W_HIGH


def _adaptive(f, source: DrivenSource, panels: list[_Panel]) -> float:
    """Globally adaptive embedded Gauss pair (15/31 nodes) on all panels.

    One refinement loop runs over the open intervals of every panel and
    evaluates ``f`` once per panel per step, on all of that panel's
    nodes.  With tol = max(_EPS_L1 int(|a| + |b|), _EPSREL |I|) it stops
    when the summed |G31 - G15| of all intervals, open and retired, is at
    most tol.  Otherwise it bisects the intervals whose error exceeds
    their length share of tol and retires the others with their 31-point
    estimates.  Past _MAX_STEPS steps or _MAX_INTERVALS open intervals,
    or with nothing left to bisect, it stalls: it returns with the open
    intervals' 31-point estimates.
    """
    panels = [p for p in panels if p.length > 0.0]
    if not panels:
        return 0.0
    total_len = sum(p.length for p in panels)
    lo = np.zeros(len(panels))
    half = 0.5 * np.array([p.length for p in panels])
    # open intervals per panel; the intervals stay grouped by panel
    counts = [1] * len(panels)
    done = done_err = done_l1 = 0.0

    for step in range(_MAX_STEPS):
        t_nodes = (lo + half)[:, None] + half[:, None] * _X_BOTH
        vals = np.empty((lo.size, 77))
        start = 0
        for panel, count in zip(panels, counts):
            if not count:
                continue
            stop = start + count
            t = t_nodes[start:stop].ravel()
            om = panel.omega(t)
            total, norm = _sum_and_l1(f(om))
            measure = lambda_weight(om, source)
            if panel.power != 1.0:
                measure = measure * panel.jacobian(t)
            measure = measure.reshape(count, 46)
            np.multiply(total.reshape(count, 46), measure,
                        out=vals[start:stop, :46])
            np.multiply(norm.reshape(count, 46)[:, 15:], measure[:, 15:],
                        out=vals[start:stop, 46:])
            start = stop
        rules = vals @ _RULES
        rules *= half[:, None]
        err = np.abs(rules[:, 1], out=rules[:, 1])
        i_high, err_sum, l1 = rules.sum(axis=0).tolist()
        if not math.isfinite(i_high + err_sum + l1):
            i, j = np.argwhere(~np.isfinite(vals[:, :46]))[0]
            panel = panels[int(np.searchsorted(np.cumsum(counts), i,
                                               side="right"))]
            _check_finite(vals[i, j], panel.omega(t_nodes[i, j]))

        estimate = done + i_high
        tol = max(_EPS_L1 * (done_l1 + l1), _EPSREL * abs(estimate))
        if done_err + err_sum <= tol:
            return estimate / (2.0 * math.pi)
        split = err > (2.0 * tol / total_len) * half
        if (not split.any() or lo.size > _MAX_INTERVALS
                or step == _MAX_STEPS - 1):
            # stalled above tol
            return estimate / (2.0 * math.pi)
        retired, retired_err, retired_l1 = \
            rules[~split].sum(axis=0).tolist()
        done += retired
        done_err += retired_err
        done_l1 += retired_l1
        # an interval's two halves stay next to each other, and so the
        # intervals stay grouped by panel
        start = 0
        for k, count in enumerate(counts):
            counts[k] = 2 * np.count_nonzero(split[start:start + count])
            start += count
        half = half[split]
        lo = lo[split].repeat(2)
        lo[1::2] += half
        half = (0.5 * half).repeat(2)


def integrate_lambda(f: Callable[[np.ndarray], np.ndarray],
                     source: DrivenSource,
                     grid: FrequencyGrid,
                     *,
                     breakpoints: Sequence[float] = (),
                     singular_exponent: Optional[float] = None,
                     complex_valued: bool = False):
    """Integral of f against the drive measure dw/2pi |lam(w)|^2.

    ``f`` must accept numpy arrays and return either one array or a pair
    (a, b) of arrays whose sum is the integrand.  A pair hands the rules
    the two uncancelled terms of a difference, for example w g_mp and
    -w g_pm; a lone array is the pair (a, 0).  Both rules integrate
    a + b.  The adaptive rule has one tolerance per integral,
    tol = max(1e-14 int(|a| + |b|), 1e-12 |I|), whose first term is the
    floor that the rounding of the terms sets; it stops when the summed
    |G31 - G15| of all intervals of all panels is at most tol, and
    bisects only the intervals above their length share of tol.  When it
    runs out of steps or intervals above tol, it stalls and returns its
    estimate with the open intervals included.  ``breakpoints`` mark
    support edges of f inside the window; with ``singular_exponent`` in
    (-1, 0) each edge is additionally treated as an integrable
    |w - e|^exponent endpoint via the power substitution.  With
    ``complex_valued`` the real and imaginary parts are integrated
    separately, each against its own tolerance: the imaginary part of a
    characteristic function can sit ten orders below the real part.
    Raises :class:`QuadratureError` when f produces a non-finite sample.
    """
    panels = _build_panels(grid.omega_max, breakpoints, singular_exponent)
    if grid.rule is Rule.TRAPEZOID:
        total = sum(_trapezoid_panel(f, source, p, grid.n_points,
                                     complex_valued) for p in panels)
    elif complex_valued:
        total = (_adaptive(_part(f, np.real), source, panels)
                 + 1j * _adaptive(_part(f, np.imag), source, panels))
    else:
        total = _adaptive(f, source, panels)
    return complex(total) if complex_valued else float(total)


# -- oscillatory sampling ---------------------------------------------------

def _gl_nodes_weights(panels: list[_Panel], v_abs_max: float):
    """Composite Gauss-Legendre nodes on the panels, in omega space.

    Subpanels are split at equal *omega* increments so the phase of
    e^{i w v} advances at most _GL_PHASE per subpanel regardless of the
    endpoint transform.
    """
    base_x, base_w = np.polynomial.legendre.leggauss(_GL_ORDER)
    all_nodes, all_weights = [], []
    for panel in panels:
        width_omega = abs(panel.omega(np.array(panel.length))
                          - panel.omega(np.array(0.0)))
        n_sub = max(1, int(math.ceil(width_omega * max(v_abs_max, 1.0)
                                     / _GL_PHASE)))
        # equal omega increments mapped back to the transformed variable
        om_frac = np.linspace(0.0, 1.0, n_sub + 1)
        t_edges = (om_frac * width_omega) ** (1.0 / panel.power) \
            if panel.power != 1.0 else om_frac * panel.length
        for lo, hi in zip(t_edges[:-1], t_edges[1:]):
            half = 0.5 * (hi - lo)
            t = lo + half * (base_x + 1.0)
            all_nodes.append(panel.omega(t))
            all_weights.append(half * base_w * panel.jacobian(t))
    return np.concatenate(all_nodes), np.concatenate(all_weights)


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
    Gauss-Legendre node set.  Splitting j = b B + m with B = ceil(sqrt(n))
    factors every phase exactly as e^{i w v_bB} e^{i w m h}: the block
    phases fold into the two coefficient vectors, and the samples are one
    complex product of the B x nodes table e^{i w m h} with that
    nodes x 2 ceil(n/B) matrix.  Returns a pair of complex arrays
    aligned with ``v``.
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
    _check_finite(c1, nodes)
    _check_finite(c2, nodes)

    block = math.isqrt(max(n - 1, 0)) + 1
    table = np.exp(1j * np.outer(h * np.arange(block), nodes))
    shift = np.exp(1j * np.outer(nodes, v[::block]))
    samples = table @ np.hstack([c1[:, None] * shift, c2[:, None] * shift])
    # column b of each half holds v_{bB} .. v_{bB+B-1}
    return tuple(part.T.ravel()[:n] for part in np.hsplit(samples, 2))


# -- characteristic-function inversion --------------------------------------

@dataclass(frozen=True)
class InversionPlan:
    """FFT window for recovering a distribution from its transform.

    The resolution relation is dW = 2 pi / (2 v_max); ``atom_weight`` is
    the constant the transform approaches at large |v| (the no-transition
    weight), subtracted before the FFT and re-added as an explicit atom.
    """

    v_max: float
    n_fft: int = 1 << 16
    atom_weight: float = 1.0

    def __post_init__(self) -> None:
        if self.n_fft < (1 << 12) or self.n_fft & (self.n_fft - 1):
            raise ValueError("n_fft must be a power of two >= 4096")
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


def default_plan(source: DrivenSource, atom_weight: float = 1.0,
                 v_factor: float = 64.0, n_fft: int = 1 << 16) -> InversionPlan:
    """Window wide enough to resolve the ~1/t_int support of the density."""
    return InversionPlan(v_max=v_factor * source.t_int, n_fft=n_fft,
                         atom_weight=atom_weight)


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
