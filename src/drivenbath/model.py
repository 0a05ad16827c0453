"""Configuration types for driven-bath work statistics.

All quantities are expressed in units of the bath cutoff length: the
cutoff l_c = 1 is the unit of time and inverse energy, so no type carries
it.  Every type here is an immutable value object and safe to share
across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

#: minimum t_int, in cutoff lengths, before a drive counts as adiabatic
ADIABATIC_RATIO_MIN = 10.0

#: largest supported Ohmic exponent (gamma-function accuracy degrades beyond)
ALPHA_MAX = 50.0

#: smallest supported Ohmic exponent.  The sub-Ohmic endpoint substitution
#: w = t^(2/alpha) gives a subnormal w at alpha = 0.02, where w^(alpha-1)
#: overflows; from alpha = 0.1 on, the smallest node the adaptive rule's
#: step cap allows on any panel wider than 1e-15 still maps to a normal w.
ALPHA_MIN = 0.1

#: drive-envelope level at the edge of the frequency window
TAIL_EPS = 1e-16


class Coupling(Enum):
    """Qubit-bath coupling channel."""

    SPIN = "spin"
    FERMION = "fermion"
    TOPOLOGICAL = "topological"


class Rule(Enum):
    """Quadrature rule used for frequency integrals."""

    TRAPEZOID = "trapezoid"
    ADAPTIVE_GK = "adaptive-gk"


@dataclass(frozen=True)
class DrivenSource:
    """Gaussian drive profile: amplitude and effective interaction time."""

    lambda0: float
    t_int: float


@dataclass(frozen=True)
class OhmicSpectrum:
    """Ohmic-family quasiparticle spectral density parameters.

    ``alpha`` is the low-frequency exponent (sub-Ohmic below 1, Ohmic at 1,
    super-Ohmic above).  The UV cutoff length is the unit, so the density
    is S(w) = 2 w^alpha e^{-w^2} / Gamma((1+alpha)/2) on w > 0 and
    identically zero at negative frequencies (thermal stability).
    """

    alpha: float


@dataclass(frozen=True)
class QubitSpec:
    """Two-level system attached to the bath.

    ``p_ground`` is the ground-state population; the derived effective
    inverse temperature is negative under population inversion (p < 1/2).
    """

    coupling: Coupling
    omega_gap: float
    p_ground: float


@dataclass(frozen=True)
class SystemSpec:
    """Complete physical configuration: bath, drive and optional qubit."""

    beta: float
    spectrum: OhmicSpectrum
    source: DrivenSource
    qubit: Optional[QubitSpec] = None


@dataclass(frozen=True)
class FrequencyGrid:
    """Frequency-integration window and rule.

    ``omega_max`` truncates the drive-weighted integrals; pick it so the
    Gaussian drive envelope is below ``TAIL_EPS`` at the edge (see
    :meth:`for_source`).  ``n_points`` is the per-panel node count of the
    trapezoid rule; the adaptive rule ignores it.
    """

    omega_max: float
    n_points: int = 4097
    rule: Rule = Rule.ADAPTIVE_GK

    def __post_init__(self) -> None:
        if not 0.0 < self.omega_max < math.inf:
            raise ValueError("omega_max must be finite and > 0, got "
                             f"{self.omega_max!r}")

    @classmethod
    def for_source(cls, source: DrivenSource) -> "FrequencyGrid":
        """Adaptive-rule window sized from the drive envelope alone.

        exp(-2 w^2 t_int^2) = TAIL_EPS  =>  w_max = sqrt(ln(1/eps)/2)/t_int.
        The envelope dominates every polynomially bounded spectral factor,
        so no other scale enters.
        """
        return cls(omega_max=math.sqrt(math.log(1.0 / TAIL_EPS) / 2.0)
                   / source.t_int)


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of :func:`validate`: hard violations and soft warnings."""

    errors: tuple[str, ...] = ()
    warnings: tuple[str, ...] = ()

    @property
    def is_valid(self) -> bool:
        return not self.errors


def validate(spec: SystemSpec) -> ValidationReport:
    """Check all physical parameter ranges of ``spec``.

    Range violations are errors, and beta, lambda0, t_int and the gap
    must also be finite; a drive too fast for the adiabatic regime
    (t_int < ADIABATIC_RATIO_MIN cutoff lengths) is only a warning, as is a
    qubit population pinned at exactly 0 or 1 (its effective temperature
    is then infinite, which engine analysis rejects).
    """
    errors: list[str] = []
    warnings: list[str] = []

    def positive(name: str, value: float) -> bool:
        """Record an error unless ``value`` is finite and > 0."""
        if not math.isfinite(value):
            errors.append(f"{name} must be finite")
        elif not value > 0:
            errors.append(f"{name} must be > 0")
        else:
            return True
        return False

    positive("beta", spec.beta)
    if not spec.spectrum.alpha >= ALPHA_MIN:
        errors.append(f"alpha must be >= {ALPHA_MIN:g}")
    elif spec.spectrum.alpha > ALPHA_MAX:
        errors.append(f"alpha must be <= {ALPHA_MAX:g}")
    positive("lambda0", spec.source.lambda0)
    if (positive("t_int", spec.source.t_int)
            and spec.source.t_int < ADIABATIC_RATIO_MIN):
        warnings.append(
            f"non-adiabatic drive: t_int = {spec.source.t_int:g} < "
            f"{ADIABATIC_RATIO_MIN:g}")

    q = spec.qubit
    if q is not None:
        if not 0.0 <= q.p_ground <= 1.0:
            errors.append("p_ground must lie in [0, 1]")
        if not math.isfinite(q.omega_gap):
            errors.append("omega_gap must be finite")
        elif q.omega_gap < 0:
            errors.append("omega_gap must be >= 0")
        if q.p_ground in (0.0, 1.0):
            warnings.append(
                "p_ground at 0 or 1: qubit temperature is infinite/zero; "
                "work statistics are fine but engine analysis is restricted")

    return ValidationReport(errors=tuple(errors), warnings=tuple(warnings))


def require_valid(spec: SystemSpec) -> None:
    """Raise ``ValueError`` if ``spec`` has any validation errors."""
    report = validate(spec)
    if not report.is_valid:
        raise ValueError("invalid system spec: " + "; ".join(report.errors))


def beta_q(qubit: QubitSpec) -> float:
    """Effective inverse temperature of the qubit population.

    Returns -(1/omega_gap) * ln((1-p)/p); +inf at p=1, -inf at p=0,
    exactly 0 at p=1/2.  A gapless qubit has no defined temperature.
    """
    if qubit.omega_gap == 0:
        raise ValueError("gapless qubit has no defined temperature")
    p = qubit.p_ground
    if not 0.0 <= p <= 1.0:
        raise ValueError("p_ground must lie in [0, 1]")
    if p == 0.0:
        return -math.inf
    if p == 1.0:
        return math.inf
    return -math.log((1.0 - p) / p) / qubit.omega_gap


def with_param(spec: SystemSpec, name: str, value: float) -> SystemSpec:
    """Return a copy of ``spec`` with one sweepable parameter replaced.

    Recognized names: ``p``, ``beta``, ``omega_gap``, ``alpha``.  The
    constructors build the copy: a sweep calls this once per cell, and
    ``dataclasses.replace`` costs ~1.7 times as much.
    """
    beta, spectrum, qubit = spec.beta, spec.spectrum, spec.qubit
    if name == "beta":
        beta = value
    elif name == "alpha":
        spectrum = OhmicSpectrum(alpha=value)
    elif name in ("p", "omega_gap"):
        if qubit is None:
            raise ValueError(f"parameter {name!r} requires a qubit")
        qubit = QubitSpec(coupling=qubit.coupling,
                          omega_gap=value if name == "omega_gap"
                          else qubit.omega_gap,
                          p_ground=value if name == "p" else qubit.p_ground)
    else:
        raise ValueError(f"unknown sweep parameter {name!r}")
    return SystemSpec(beta=beta, spectrum=spectrum, source=spec.source,
                      qubit=qubit)
