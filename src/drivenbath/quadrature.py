"""Drive-weighted frequency integrals and characteristic-function inversion.

The only measure this artifact integrates against is the squared Fourier
amplitude of the Gaussian drive, |lam(w)|^2 dw / 2pi.  Its e^{-2 w^2 t^2}
envelope dominates every polynomially bounded spectral factor, so the
window is sized from the drive alone.  Integrands may declare support
edges (kinks) and, for sub-Ohmic spectra, an integrable power singularity
|w - e|^(a-1); panels are split at the edges and singular endpoints are
regularized by the substitution w = e +/- t^(2/a), whose exponent is known
analytically, instead of extrapolation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .model import DrivenSource, FrequencyGrid, Rule

ArrayLike = Union[float, np.ndarray]

ROOT_8PI = math.sqrt(8.0 * math.pi)

#: adaptive-rule relative target; the absolute floor follows the
#: integrand scale discovered during refinement
_EPSREL = 1e-12
_MAX_INTERVALS = 4096

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


def _weighted(f: Callable[[np.ndarray], np.ndarray],
              source: DrivenSource) -> Callable[[np.ndarray], np.ndarray]:
    def g(w: np.ndarray) -> np.ndarray:
        return lambda_weight(w, source) * f(w) / (2.0 * math.pi)
    return g


def _check_finite(values: np.ndarray, omegas: np.ndarray) -> None:
    bad = ~np.isfinite(values)
    if np.any(bad):
        where = np.atleast_1d(omegas)[np.atleast_1d(bad)][0]
        raise QuadratureError(
            f"integrand evaluation failed at omega = {where:.6g}")


def _trapezoid_panel(g, panel: _Panel, n: int, complex_valued: bool):
    t = np.linspace(0.0, panel.length, n)
    om = panel.omega(t)
    vals = np.asarray(g(om), dtype=complex if complex_valued else float)
    _check_finite(vals, om)
    return np.trapezoid(vals * panel.jacobian(t), t)


_X_LOW, _W_LOW = np.polynomial.legendre.leggauss(15)
_X_HIGH, _W_HIGH = np.polynomial.legendre.leggauss(31)


def _adaptive_panel(g, panel: _Panel, complex_valued: bool):
    """Globally adaptive embedded Gauss pair (15/31 nodes) on one panel.

    The whole refinement queue is evaluated in a single vectorized call
    per sweep; the 31-point result is kept and |G31 - G15| drives the
    splits.  Interval error budgets are allocated proportionally to
    length against both an absolute floor set by the integrand scale and
    the relative target.

    Complex integrands are integrated component by component so each
    part converges relative to its own magnitude (the imaginary part of
    a characteristic function can sit ten orders below the real part).
    """
    if complex_valued:
        real = _adaptive_panel(lambda w: np.real(g(w)), panel, False)
        imag = _adaptive_panel(lambda w: np.imag(g(w)), panel, False)
        return real + 1j * imag

    lo = np.array([0.0])
    hi = np.array([panel.length])
    done = 0.0
    done_abs = 0.0
    total_len = panel.length
    if total_len == 0.0:
        return done

    for _ in range(40):
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        t_nodes = np.concatenate(
            [mid[:, None] + half[:, None] * _X_LOW[None, :],
             mid[:, None] + half[:, None] * _X_HIGH[None, :]], axis=1)
        flat = t_nodes.ravel()
        omegas = panel.omega(flat)
        flat_vals = g(omegas)
        if panel.power != 1.0:
            flat_vals = flat_vals * panel.jacobian(flat)
        # contiguous: np.real/np.imag give strided views, and the GEMVs
        # below round differently on strided input
        flat_vals = np.ascontiguousarray(flat_vals, dtype=float)
        _check_finite(flat_vals, omegas)
        vals = flat_vals.reshape(t_nodes.shape)
        i_low = (vals[:, :15] @ _W_LOW) * half
        i_high = (vals[:, 15:] @ _W_HIGH) * half
        err = np.abs(i_high - i_low)

        estimate = done + i_high.sum()
        scale_abs = done_abs + float(np.sum(np.abs(i_high)))
        budget = max(scale_abs * 1e-15, abs(estimate) * _EPSREL)
        frac = (hi - lo) / total_len
        ok = err <= budget * frac
        done += i_high[ok].sum()
        done_abs += float(np.sum(np.abs(i_high[ok])))
        if ok.all() or lo.size > _MAX_INTERVALS:
            done += i_high[~ok].sum()
            return done
        bad_lo, bad_hi = lo[~ok], hi[~ok]
        mids = 0.5 * (bad_lo + bad_hi)
        lo = np.concatenate([bad_lo, mids])
        hi = np.concatenate([mids, bad_hi])
    # refinement stalled: best current estimate
    return done


def integrate_lambda(f: Callable[[np.ndarray], np.ndarray],
                     source: DrivenSource,
                     grid: FrequencyGrid,
                     *,
                     breakpoints: Sequence[float] = (),
                     singular_exponent: Optional[float] = None,
                     complex_valued: bool = False):
    """Integral of f against the drive measure dw/2pi |lam(w)|^2.

    ``f`` must accept numpy arrays.  ``breakpoints`` mark support edges of
    f inside the window; with ``singular_exponent`` in (-1, 0) each edge is
    additionally treated as an integrable |w - e|^exponent endpoint via the
    power substitution.  Raises :class:`QuadratureError` when f produces a
    non-finite sample.
    """
    panels = _build_panels(grid.omega_max, breakpoints, singular_exponent)
    g = _weighted(f, source)
    if grid.rule is Rule.TRAPEZOID:
        parts = [_trapezoid_panel(g, p, grid.n_points, complex_valued)
                 for p in panels]
    else:
        parts = [_adaptive_panel(g, p, complex_valued) for p in panels]
    total = sum(parts)
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
