"""Frequency-domain real-time Green-function pairs.

The two channels (i G~^{+-}, i G~^{-+}) are returned as evaluable closures
rather than sampled arrays: the qubit couplings shift their argument by
the level spacing, and closures avoid any per-gap regridding.  Both
channels are real, nonnegative, and built from the stable occupation
forms in :mod:`drivenbath.spectral`; growing exponentials only ever
appear multiplied into densities evaluated at positive argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import spectral
from .model import SystemSpec
from .spectral import ArrayLike, DensityFn


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


def _edge_exponent(spec: SystemSpec) -> Optional[float]:
    a = spec.spectrum.alpha
    return a - 1.0 if a < 1.0 else None


def green_pure_bath(spec: SystemSpec) -> GreenPair:
    """Thermal-bath pair: g_mp = S_b, g_pm = e^{-bw} S_b = n_BE S.

    The two channels satisfy detailed balance g_mp = e^{bw} g_pm on the
    support w > 0 and vanish identically for w <= 0.
    """
    if spec.qubit is not None:
        raise ValueError("green_pure_bath requires a spec without qubit")
    beta, spectrum = spec.beta, spec.spectrum

    def g_mp(w: ArrayLike) -> ArrayLike:
        return spectral.bosonic_wightman(w, beta, spectrum)

    def g_pm(w: ArrayLike) -> ArrayLike:
        return spectral.bosonic_wightman_damped(w, beta, spectrum)

    return GreenPair(g_pm=g_pm, g_mp=g_mp, edges=(0.0,),
                     singular_exponent=_edge_exponent(spec))


def green_qubit(spec: SystemSpec) -> GreenPair:
    """Qubit-coupled pair in the unified shifted-channel form.

    With the channel densities s1/s2 and their damped counterparts
    d1/d2 (= e^{-bx} s1/2(x), folded before any shift):

        g_mp(w) = p s1(w - gap) + (1-p) s2(w + gap)
        g_pm(w) = p d1(w + gap) + (1-p) d2(w - gap)

    Both are affine in p with coefficients evaluated identically, so the
    p-mixture identity holds to the bit level.
    """
    if spec.qubit is None:
        raise ValueError("green_qubit requires a qubit in the spec")
    pair = spectral.wightman_pair(spec)
    damped = spectral.damped_wightman_pair(spec)
    p = spec.qubit.p_ground
    gap = spec.qubit.omega_gap

    def g_mp(w: ArrayLike) -> ArrayLike:
        w = np.asarray(w, dtype=float)
        return p * pair.s1(w - gap) + (1.0 - p) * pair.s2(w + gap)

    def g_pm(w: ArrayLike) -> ArrayLike:
        w = np.asarray(w, dtype=float)
        return p * damped.s1(w + gap) + (1.0 - p) * damped.s2(w - gap)

    edges = (0.0,) if gap == 0.0 else (-gap, gap)
    return GreenPair(g_pm=g_pm, g_mp=g_mp, edges=edges,
                     singular_exponent=_edge_exponent(spec))


def green_pair(spec: SystemSpec) -> GreenPair:
    """Dispatch on whether the spec carries a qubit."""
    if spec.qubit is None:
        return green_pure_bath(spec)
    return green_qubit(spec)

