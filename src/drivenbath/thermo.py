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

import numpy as np

from .model import SystemSpec, beta_q
from .workstats import (PerturbativeBreakdownError, chi2_from_deficit,
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
    pointwise nonnegative.  The integrals are those of
    :func:`work_integrals` and the formula that of the sweeps' cells, on
    one cell; it raises the ValueError of an invalid spec, else the
    QuadratureError of the mean work, then of the deficit, then
    :class:`PerturbativeBreakdownError` when chi2(i beta) is not
    positive.
    """
    (entry,), _ = work_integrals([spec])
    if isinstance(entry, Exception):
        raise entry
    w_bar, deficit = entry
    delta_s, errors = _entropy_productions(
        np.array([w_bar]), np.array([deficit]), np.array([spec.beta]))
    if errors:
        raise errors[0]
    return delta_s.item()


def _entropy_productions(w_bar: np.ndarray, deficit: np.ndarray,
                         beta) -> tuple[np.ndarray, dict]:
    """:func:`entropy_production` of cells, on arrays.

    ``w_bar``, ``deficit`` and ``beta`` are 1-D arrays over the cells.
    Returns Delta S, NaN at each cell whose chi2(i beta) = 1 - deficit is
    not positive, and the :class:`PerturbativeBreakdownError` of each
    such cell keyed by its index.  The log is taken as log1p(-deficit):
    at deficits near 1e-15 (small-gap fermion cells) forming 1 - deficit
    first would round away the whole entropy production.  It is
    math.log1p per cell: on an AVX-512 host np.log1p differs from it in
    the last bit on some inputs.
    """
    errors = _breakdowns(deficit)
    if errors:
        deficit = deficit.copy()
        deficit[list(errors)] = math.nan
    log_chi = [math.log1p(-d) for d in deficit.tolist()]
    with np.errstate(all="ignore"):
        return beta * w_bar + np.array(log_chi), errors


def _breakdowns(deficit: np.ndarray) -> dict:
    """The :class:`PerturbativeBreakdownError` of each cell of ``deficit``
    (1-D) whose chi2(i beta) = 1 - deficit is not positive, by index."""
    errors = {}
    for k in np.flatnonzero(1.0 - deficit <= 0.0).tolist():
        try:
            chi2_from_deficit(float(deficit[k]))
        except PerturbativeBreakdownError as exc:
            errors[k] = exc
    return errors


_DEGENERATE = "heat split undefined at T_B = T_Q"


def heat_flows(w_bar, delta_s, t_b, t_q):
    """Solve the first-law pair for (Q_bath, Q_qubit).

    Q_b + Q_q = w_bar and Q_b/T_b + Q_q/T_q = delta_s; the solve is
    exactly linear in (w_bar, delta_s) and undefined at equal
    temperatures (relative difference within DEGENERACY_TOL).  Takes
    floats or arrays, elementwise; any degenerate pair raises.
    """
    if np.any(_degenerate(t_b, t_q)):
        raise ValueError(_DEGENERATE)
    q_b = -t_b * (t_q * delta_s - w_bar) / (t_b - t_q)
    q_q = t_q * (t_b * delta_s - w_bar) / (t_b - t_q)
    return q_b, q_q


def _degenerate(t_b, t_q):
    """Whether T_B and T_Q agree within DEGENERACY_TOL, elementwise."""
    return np.abs(t_b - t_q) <= DEGENERACY_TOL * np.maximum(np.abs(t_b),
                                                           np.abs(t_q))


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
    meet validity, then a failed integral, then the refusals of the
    bookkeeping (chi2(i beta) breakdown, degenerate heat split), the
    order a sweep's cells keep.  The integrals are those of
    :func:`work_integrals`, as for :func:`entropy_production`, and the
    bookkeeping is that of the sweeps and of verify's engine-bounds
    check, on one cell.
    """
    bq = _engine_guard(spec)  # refuse before integrating
    (entry,), _ = work_integrals([spec])
    if isinstance(entry, Exception):
        raise entry
    w_bar, deficit = entry
    report, errors = _engine_reports(
        np.array([w_bar]), np.array([deficit]), np.array([spec.beta]),
        np.array([bq]), default_mode_tol(spec))
    if errors:
        raise errors[0]
    return EngineReport(**{name: value.item()
                           for name, value in vars(report).items()})


def _engine_guard(spec: SystemSpec) -> float:
    """beta_q of an engine operating point, or ValueError if it is none.

    Reads only the qubit, so a sweep runs it once per distinct qubit.
    Safe before validation: it divides by nothing but a nonzero gap.
    """
    if spec.qubit is None:
        raise ValueError("engine analysis requires a qubit")
    if not spec.qubit.p_ground > 0.5:
        raise ValueError(
            "population-inverted or infinite-temperature qubit excluded "
            "from engine analysis (requires p > 1/2)")
    return beta_q(spec.qubit)


#: the modes in the order of their codes in :func:`_engine_reports`, then
#: the mode of a refused cell
_MODES = np.array([*EngineMode, None], dtype=object)


def _engine_reports(w_bar: np.ndarray, deficit: np.ndarray,
                    beta: np.ndarray, beta_q: np.ndarray,
                    mode_tol: float) -> tuple[EngineReport, dict]:
    """First-law and mode bookkeeping of :func:`engine_report`, on cells.

    Takes each cell's mean work and i-beta deficit instead of integrating
    them: engine_report on its one cell, each figure-of-merit sweep on
    its cells and verify's engine-bounds check on cells blended from
    their p = 0 and p = 1 ends.  ``w_bar``, ``deficit``, ``beta`` and
    ``beta_q`` (what the engine guards return, +inf at p = 1) are 1-D
    arrays over the cells, and ``mode_tol`` is their shared
    ``default_mode_tol``.  The cells must be valid and past the guards.

    Returns an :class:`EngineReport` whose fields are arrays over the
    cells, ``mode`` an object array, and the error of each refused cell
    keyed by its index, in the order of the scalar formulas: chi2(i beta)
    <= 0, then the degenerate heat split, then a heat-engine denominator
    1 + T_L dS/W_ext of exactly 0 (ZeroDivisionError).  A refused cell's
    numbers are NaN and its mode None; every other element has the bits
    of the scalar formulas.
    """
    delta_s, errors = _entropy_productions(w_bar, deficit, beta)
    # as in Python float arithmetic, an overflow or a NaN passes silently;
    # only the one division that can meet an exact zero raises, below
    with np.errstate(all="ignore"):
        t_b = 1.0 / beta
        t_q = 1.0 / beta_q  # 1/inf = 0: T_Q = 0 at p = 1
        for k in np.flatnonzero(_degenerate(t_b, t_q)).tolist():
            errors.setdefault(k, ValueError(_DEGENERATE))
        if errors:
            # NaN temperatures keep the refused cells out of the heat split
            t_q[list(errors)] = math.nan
        q_b, q_q = heat_flows(w_bar, delta_s, t_b, t_q)
        t_h, t_l = np.maximum(t_b, t_q), np.minimum(t_b, t_q)
        r = t_l / t_h
        denominator = 1.0 + t_l * delta_s / -w_bar
        eta = (1.0 - r) / denominator
        cop = r / (1.0 - r) * (1.0 - t_h * delta_s / w_bar)
    engine, above = w_bar < -mode_tol, w_bar > mode_tol
    fridge = above & (cop >= 0.0)
    for k in np.flatnonzero(engine & (denominator == 0.0)).tolist():
        errors[k] = ZeroDivisionError("float division by zero")
    report = EngineReport(
        w_bar=w_bar, delta_s=delta_s, q_b=q_b, q_q=q_q,
        mode=_MODES[np.where(engine, 0, np.where(
            fridge, 1, np.where(above, 2, 3)))],
        figure_of_merit=np.where(engine, eta,
                                 np.where(fridge, cop, math.nan)),
        t_h=t_h, t_l=t_l, r=r)
    if errors:
        refused = list(errors)
        for name, value in vars(report).items():
            if name != "w_bar":
                value[refused] = None if name == "mode" else math.nan
    return report, errors
