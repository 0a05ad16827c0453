"""Ohmic spectral densities, thermal occupations and Wightman channels.

Every density here is a plain function of frequency, vectorized over numpy
arrays, exactly zero for non-positive argument (stability support of the
bath), and written so that no growing exponential is ever evaluated: the
overflow-prone textbook forms e^{bw} n_BE(w) and e^{bw} n_FD(w) are
rewritten as 1/(1-e^{-bw}) and 1/(1+e^{-bw}).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .model import Coupling, OhmicSpectrum, SystemSpec

ArrayLike = Union[float, np.ndarray]
DensityFn = Callable[[ArrayLike], ArrayLike]


def _on_support(omega: ArrayLike, fn) -> ArrayLike:
    """Evaluate ``fn`` for omega > 0, return 0 elsewhere.

    The masking matters: several callers shift the argument by the qubit
    gap, and evaluating occupation factors at large negative frequencies
    would overflow before the vanishing density could cancel it.
    """
    w = np.atleast_1d(np.asarray(omega, dtype=float))
    out = np.zeros(w.shape)
    m = w > 0.0
    if m.any():
        # overflow of e^{bx}-type factors at huge bx yields inf whose
        # reciprocal role (density/inf -> 0) is the intended limit
        with np.errstate(over="ignore", under="ignore"):
            out[m] = fn(w[m])
    if np.ndim(omega) == 0:
        return float(out[0])
    return out


def ohmic_density(omega: ArrayLike, spec: OhmicSpectrum) -> ArrayLike:
    """Ohmic-family quasiparticle density 2 l_c (l_c w)^a e^{-(l_c w)^2} / Gamma((1+a)/2).

    Zero for w <= 0.  Used for both the bosonic and the fermionic
    quasiparticle channel; its peak sits at sqrt(a/2)/l_c.
    """
    return _on_support(omega, lambda w: _ohmic_positive(w, spec))


def _ohmic_positive(w: np.ndarray, spec: OhmicSpectrum) -> np.ndarray:
    """:func:`ohmic_density` on an array already restricted to w > 0."""
    x = spec.l_c * w
    norm = 2.0 * spec.l_c / math.gamma((1.0 + spec.alpha) / 2.0)
    return norm * x ** spec.alpha * np.exp(-x * x)


def bose_occupation(x: ArrayLike) -> ArrayLike:
    """Bose-Einstein factor 1/(e^x - 1) via expm1; x = beta*omega.

    Raises at x = 0: the pole must be resolved analytically by the caller
    (the combined density forms below stay finite there).
    """
    x = np.asarray(x, dtype=float)
    if np.any(x == 0.0):
        raise ValueError("pole of Bose factor at x = 0")
    with np.errstate(over="ignore"):
        out = 1.0 / np.expm1(x)
    return float(out) if out.ndim == 0 else out


def _logistic(x: ArrayLike) -> ArrayLike:
    """1/(1 + e^{-x}); where e^{-x} overflows the result is exactly 0."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def fermi_occupation(x: ArrayLike) -> ArrayLike:
    """Fermi-Dirac factor 1/(e^x + 1), saturating stably at large |x|."""
    out = _logistic(-np.asarray(x, dtype=float))
    return float(out) if out.ndim == 0 else out


def bosonic_wightman(omega: ArrayLike, beta: float,
                     spec: OhmicSpectrum) -> ArrayLike:
    """Thermal emission density S_b(w) = S(w)/(1 - e^{-bw}) for w > 0.

    Inherits the w <= 0 support cut from the Ohmic density; diverges
    integrably as w^{a-1} toward w = 0+ when a < 1 (quadrature handles
    that endpoint by substitution, the density itself is not clipped).
    """
    def positive(w):
        return _ohmic_positive(w, spec) / (-np.expm1(-beta * w))

    return _on_support(omega, positive)


def bosonic_wightman_damped(omega: ArrayLike, beta: float,
                            spec: OhmicSpectrum) -> ArrayLike:
    """Absorption-weighted density e^{-bw} S_b(w) = n_BE(w) S(w), w > 0."""
    def positive(w):
        return _ohmic_positive(w, spec) / np.expm1(beta * w)

    return _on_support(omega, positive)


@dataclass(frozen=True)
class WightmanPair:
    """Quasiparticle / quasihole spectral channels (s1, s2).

    Both are nonnegative, vanish for non-positive frequency, and obey the
    coupling-specific detailed-balance relations tested in the suite.
    """

    s1: DensityFn
    s2: DensityFn


def wightman_pair(spec: SystemSpec) -> WightmanPair:
    """Coupling-appropriate (s1, s2) channel densities.

    Spin: both equal the bosonic emission density.  Fermion: occupation-
    split quasiparticle/quasihole densities of the same Ohmic family.
    Topological: both equal half the bare density, independent of the
    bath temperature.
    """
    if spec.qubit is None:
        raise ValueError("wightman_pair requires a qubit coupling")
    beta, spectrum = spec.beta, spec.spectrum
    kind = spec.qubit.coupling

    if kind is Coupling.SPIN:
        def s_emit(w):
            return bosonic_wightman(w, beta, spectrum)
        return WightmanPair(s1=s_emit, s2=s_emit)

    if kind is Coupling.FERMION:
        def s_particle(w):
            return _on_support(
                w, lambda x: _ohmic_positive(x, spectrum)
                * _logistic(-beta * x))

        def s_hole(w):
            return _on_support(
                w, lambda x: _ohmic_positive(x, spectrum)
                * _logistic(beta * x))
        return WightmanPair(s1=s_particle, s2=s_hole)

    def s_majorana(w):
        return _on_support(w, lambda x: 0.5 * _ohmic_positive(x, spectrum))
    return WightmanPair(s1=s_majorana, s2=s_majorana)


def damped_wightman_pair(spec: SystemSpec) -> WightmanPair:
    """The e^{-beta w}-weighted channels, each in a stable closed form.

    These enter the +- Green function; folding the damping factor into the
    occupation before any shift is what keeps sweeps up to beta ~ 1e3 free
    of overflow.
    """
    if spec.qubit is None:
        raise ValueError("damped_wightman_pair requires a qubit coupling")
    beta, spectrum = spec.beta, spec.spectrum
    kind = spec.qubit.coupling

    if kind is Coupling.SPIN:
        def s_damped(w):
            return bosonic_wightman_damped(w, beta, spectrum)
        return WightmanPair(s1=s_damped, s2=s_damped)

    if kind is Coupling.FERMION:
        # e^{-bx} n_FD(x) = e^{-2bx}/(1+e^{-bx});  e^{-bx} e^{bx} n_FD = n_FD
        def s1_damped(w):
            return _on_support(
                w, lambda x: _ohmic_positive(x, spectrum)
                * np.exp(-2.0 * beta * x) / (1.0 + np.exp(-beta * x)))

        def s2_damped(w):
            return _on_support(
                w, lambda x: _ohmic_positive(x, spectrum)
                * _logistic(-beta * x))
        return WightmanPair(s1=s1_damped, s2=s2_damped)

    def s_damped(w):
        return _on_support(
            w, lambda x: 0.5 * _ohmic_positive(x, spectrum)
            * np.exp(-beta * x))
    return WightmanPair(s1=s_damped, s2=s_damped)
