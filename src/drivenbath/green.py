"""Frequency-domain real-time Green-function pairs.

The two channels (i G~^{+-}, i G~^{-+}) are returned as evaluable closures
rather than sampled arrays: the qubit couplings shift their argument by
the level spacing, and closures avoid any per-gap regridding.

Every channel is a sum of terms weight * S(w - shift) * occ(beta (w - shift))
over one Ohmic density S.  The couplings differ only in the quantum
statistics of the occupations, kept in one table.  Each term is exactly
zero for w - shift <= 0 (stability support of the bath), and no growing
exponential is ever evaluated: the overflow-prone textbook forms
e^{bx} n_BE(x) and e^{bx} n_FD(x) are written as 1/(1-e^{-bx}) and
1/(1+e^{-bx}).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .model import Coupling, SystemSpec

ArrayLike = Union[float, np.ndarray]
DensityFn = Callable[[ArrayLike], ArrayLike]


@dataclass(frozen=True)
class GreenPair:
    """The channel pair plus integration metadata.

    ``edges`` are the support edges of the channels (candidate kinks or,
    for sub-Ohmic spectra, integrable power singularities with exponent
    ``singular_exponent`` = alpha - 1); quadrature splits its panels
    there.
    """

    g_pm: DensityFn
    g_mp: DensityFn
    edges: tuple[float, ...] = (0.0,)
    singular_exponent: Optional[float] = None


def _logistic(x: np.ndarray) -> np.ndarray:
    """1/(1 + e^{-x}); where e^{-x} overflows the result is exactly 0."""
    return 1.0 / (1.0 + np.exp(-x))


def _emission(s, bx):
    return s / (-np.expm1(-bx))


def _absorption(s, bx):
    return s / np.expm1(bx)


def _particle(s, bx):
    return s * _logistic(-bx)


def _majorana(s, bx):
    return 0.5 * s


def _majorana_damped(s, bx):
    return 0.5 * s * np.exp(-bx)


#: occupation of each channel term, as (density S, beta x) -> weighted
#: density at x = w - shift > 0, for the channel densities (s1, s2) of
#: g_mp and their damped forms (d1, d2) = e^{-bx} (s1, s2) of g_pm.  Spin
#: is Bose emission/absorption; fermion splits S into quasiparticle
#: (n_FD) and quasihole (1 - n_FD) parts; topological is half of S at
#: every temperature.  The bare bath is bosonic: it takes the spin s1/d1.
_OCCUPATIONS = {
    Coupling.SPIN: (_emission, _emission, _absorption, _absorption),
    Coupling.FERMION: (
        _particle,
        lambda s, bx: s * _logistic(bx),
        # e^{-bx} n_FD(x) = e^{-2bx}/(1+e^{-bx})
        lambda s, bx: s * np.exp(-2.0 * bx) / (1.0 + np.exp(-bx)),
        _particle),
    Coupling.TOPOLOGICAL: (_majorana, _majorana, _majorana_damped,
                           _majorana_damped),
}


def green_pair(spec: SystemSpec) -> GreenPair:
    """The channel pair of the bath, alone or coupled to the spec's qubit.

    Bare bath: g_mp = S_b(w) = S(w)/(1 - e^{-bw}) and g_pm = e^{-bw} S_b(w),
    which satisfy detailed balance g_mp = e^{bw} g_pm on w > 0.  With a
    qubit at gap D and ground population p, from the table's (s1, s2,
    d1, d2):

        g_mp(w) = p s1(w - D) + (1-p) s2(w + D)
        g_pm(w) = p d1(w + D) + (1-p) d2(w - D)

    Both are affine in p with coefficients evaluated identically, so the
    p-mixture identity holds to the bit level.
    """
    beta = spec.beta
    alpha, l_c = spec.spectrum.alpha, spec.spectrum.l_c
    norm = 2.0 * l_c / math.gamma((1.0 + alpha) / 2.0)
    qubit = spec.qubit
    if qubit is None:
        s1, _, d1, _ = _OCCUPATIONS[Coupling.SPIN]
        mp_terms, pm_terms = [(1.0, 0.0, s1)], [(1.0, 0.0, d1)]
        edges = (0.0,)
    else:
        s1, s2, d1, d2 = _OCCUPATIONS[qubit.coupling]
        p, gap = qubit.p_ground, qubit.omega_gap
        mp_terms = [(p, gap, s1), (1.0 - p, -gap, s2)]
        pm_terms = [(p, -gap, d1), (1.0 - p, gap, d2)]
        edges = (0.0,) if gap == 0.0 else (-gap, gap)

    def channel(terms) -> DensityFn:
        def g(omega: ArrayLike) -> ArrayLike:
            w = np.atleast_1d(np.asarray(omega, dtype=float))
            total = None
            # an occupation overflowing at huge beta x takes its intended
            # limit (s/inf -> 0); the support mask keeps beta x positive
            with np.errstate(over="ignore", under="ignore"):
                for weight, shift, occupation in terms:
                    x = w - shift
                    on = x > 0.0
                    if not on.any():
                        continue
                    # quadrature panels end at the support edges, so a
                    # term is mostly on or off for a whole call
                    partial = not on.all()
                    if partial:
                        x = x[on]
                    # Ohmic density 2 l_c (l_c x)^a e^{-(l_c x)^2} / Gamma((1+a)/2)
                    lx = l_c * x
                    term = occupation(norm * lx ** alpha * np.exp(-lx * lx),
                                      beta * x)
                    if partial:
                        full = np.zeros(w.shape)
                        full[on] = term
                        term = full
                    term = weight * term
                    total = term if total is None else total + term
            if total is None:
                total = np.zeros(w.shape)
            return float(total[0]) if np.ndim(omega) == 0 else total
        return g

    return GreenPair(g_pm=channel(pm_terms), g_mp=channel(mp_terms),
                     edges=edges,
                     singular_exponent=alpha - 1.0 if alpha < 1.0 else None)
