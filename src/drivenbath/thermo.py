"""Engine quantities built from the work statistics.

The qubit acts as a second bath at its population temperature; the first
law splits the mean work into the two heat flows once the entropy
production is known from the fluctuation-theorem combination
beta * W_mean + ln chi2(i beta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .model import SystemSpec, beta_q
from .workstats import (chi2_from_deficit, i_beta_deficit, w_ext2,
                        work_integrals)

#: relative temperature difference below which the heat split is singular
DEGENERACY_TOL = 1e-9


class EngineMode(Enum):
    HEAT_ENGINE = "heat-engine"
    REFRIGERATOR = "refrigerator"
    #: positive mean work that nonetheless heats both baths (Clausius
    #: condition for refrigeration fails); neither engine nor refrigerator
    DISSIPATOR = "dissipator"
    DEGENERATE = "degenerate"


@dataclass(frozen=True)
class EngineReport:
    """First-law bookkeeping of one operating point.

    ``figure_of_merit`` is the efficiency for a heat engine, the COP for
    a refrigerator, NaN when degenerate; ``q_b``/``q_q`` are the heat
    flows into bath and qubit (their sum is the mean work).
    """

    w_bar: float
    delta_s: float
    q_b: float
    q_q: float
    mode: EngineMode
    figure_of_merit: float
    t_h: float
    t_l: float
    r: float


def default_mode_tol(spec: SystemSpec) -> float:
    """Degeneracy band around W_mean = 0, scaled to the natural work size."""
    return 1e-16 * spec.source.lambda0 ** 2 * spec.source.t_int


def entropy_production(spec: SystemSpec) -> float:
    """Mean entropy production beta * W_mean + ln chi2(i beta).

    Nonnegative up to O(lambda^4) roundoff: the linearized integrand is
    pointwise nonnegative.
    """
    return _entropy_production(spec, -w_ext2(spec), i_beta_deficit(spec))


def _entropy_production(spec: SystemSpec, w_bar: float,
                        deficit: float) -> float:
    """:func:`entropy_production` from the mean work and the i-beta deficit.

    Raises :class:`PerturbativeBreakdownError` when chi2(i beta) =
    1 - deficit is not positive.  The log is taken as log1p(-deficit):
    at deficits near 1e-15 (small-gap fermion cells) forming 1 - deficit
    first would round away the whole entropy production.
    """
    chi2_from_deficit(deficit)
    return spec.beta * w_bar + math.log1p(-deficit)


def heat_flows(w_bar: float, delta_s: float, t_b: float,
               t_q: float) -> tuple[float, float]:
    """Solve the first-law pair for (Q_bath, Q_qubit).

    Q_b + Q_q = w_bar and Q_b/T_b + Q_q/T_q = delta_s; the solve is
    exactly linear in (w_bar, delta_s) and undefined at equal
    temperatures (relative difference within DEGENERACY_TOL).
    """
    if abs(t_b - t_q) <= DEGENERACY_TOL * max(abs(t_b), abs(t_q)):
        raise ValueError("heat split undefined at T_B = T_Q")
    q_b = -t_b * (t_q * delta_s - w_bar) / (t_b - t_q)
    q_q = t_q * (t_b * delta_s - w_bar) / (t_b - t_q)
    return q_b, q_q


def engine_report(spec: SystemSpec) -> EngineReport:
    """Classify one operating point and compute its figure of merit.

    Requires a qubit with p > 1/2 (a population-inverted qubit is held by
    external pumping, and the Carnot bounds below do not apply to it).
    With tol = ``default_mode_tol(spec)``, W_mean below -tol is a heat
    engine with

        eta = (1 - r) / (1 + T_L dS / W_ext),    r = T_L / T_H,

    above +tol a refrigerator with COP = r/(1-r) (1 - T_H dS/W_mean);
    both saturate their Carnot values exactly at dS = 0.  |W_mean| <= tol
    is DEGENERATE with a NaN figure of merit.

    Positive mean work does not by itself make a refrigerator: when the
    entropy production is large enough that heat flows *into* the cold
    bath (the COP expression turns negative), the point merely dissipates
    the work into both baths and is reported as DISSIPATOR with a NaN
    figure of merit.

    A spec that the engine guards refuse is never integrated; the others
    meet validity, then a failed integral, then the chi2(i beta) breakdown
    and the degenerate heat split, the order a sweep's cells keep.
    """
    _engine_guard(spec)  # refuse before integrating
    (entry,), _ = work_integrals([spec])
    if isinstance(entry, Exception):
        raise entry
    return _engine_report(spec, *entry)


def _engine_guard(spec: SystemSpec) -> float:
    """beta_q of an engine operating point, or ValueError if it is none.

    Safe before validation: it divides by nothing but a nonzero gap.
    """
    if spec.qubit is None:
        raise ValueError("engine analysis requires a qubit")
    if not spec.qubit.p_ground > 0.5:
        raise ValueError(
            "population-inverted or infinite-temperature qubit excluded "
            "from engine analysis (requires p > 1/2)")
    return beta_q(spec.qubit)


def _engine_report(spec: SystemSpec, w_bar: float,
                   deficit: float) -> EngineReport:
    """First-law and mode bookkeeping of :func:`engine_report`.

    Takes the mean work and the i-beta deficit instead of integrating
    them, so a caller that already holds both gets the same report and
    the same refusals, which are checked here: engine_report, each cell
    of a figure-of-merit sweep and the engine-bounds check of verify,
    whose cells are blended from their p = 0 and p = 1 ends.  The spec
    must be valid, as it is wherever its integrals were taken.
    """
    bq = _engine_guard(spec)
    t_b, t_q = 1.0 / spec.beta, 0.0 if math.isinf(bq) else 1.0 / bq
    mode_tol = default_mode_tol(spec)
    delta_s = _entropy_production(spec, w_bar, deficit)
    q_b, q_q = heat_flows(w_bar, delta_s, t_b, t_q)
    t_h, t_l = max(t_b, t_q), min(t_b, t_q)
    r = t_l / t_h

    if w_bar < -mode_tol:
        w_ext = -w_bar
        fom = (1.0 - r) / (1.0 + t_l * delta_s / w_ext)
        mode = EngineMode.HEAT_ENGINE
    elif w_bar > mode_tol:
        cop = r / (1.0 - r) * (1.0 - t_h * delta_s / w_bar)
        if cop >= 0.0:
            fom, mode = cop, EngineMode.REFRIGERATOR
        else:
            fom, mode = math.nan, EngineMode.DISSIPATOR
    else:
        fom = math.nan
        mode = EngineMode.DEGENERATE
    return EngineReport(w_bar=w_bar, delta_s=delta_s, q_b=q_b, q_q=q_q,
                        mode=mode, figure_of_merit=fom, t_h=t_h, t_l=t_l, r=r)
