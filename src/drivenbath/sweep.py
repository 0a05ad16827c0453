"""Two-dimensional parameter sweeps, zero contours and marker lines.

Every cell value is a pure function of the plan, evaluated in a fixed
order, so reruns are bit-identical.  A p axis is not integrated cell by
cell: the mean work and the chi2(i beta) deficit are affine in p, so each
column (one value of the other axis) is integrated at p = 0 and p = 1 and
its cells are blended from those two values.  Sweeps without a p axis
integrate every cell and match the library calls bit for bit.  Contours
are marching-squares polylines in the axis scale space (log axes
interpolate geometrically); saddle cells are disambiguated by evaluating
the true function at the cell center, not the bilinear interpolant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional

import numpy as np

from .model import SystemSpec, require_valid, with_param
from .quadrature import QuadratureError
from .thermo import _engine_report, _entropy_production, _temperatures
from .workstats import (PerturbativeBreakdownError, chi2_from_deficit,
                        i_beta_deficit, w_ext2)

SWEEP_PARAMETERS = ("p", "beta", "omega_gap", "alpha")

#: fraction of failed cells beyond which a sweep aborts
MAX_FAILED_FRACTION = 0.01

#: what a failing cell raises; recorded as data, never propagated
CELL_ERRORS = (ValueError, PerturbativeBreakdownError, ZeroDivisionError,
               QuadratureError)


class SweepError(RuntimeError):
    def __init__(self, message: str, failures=()):
        super().__init__(message)
        self.failures = tuple(failures)


class Quantity(Enum):
    W_EXT = "wext"
    CHI_I_BETA = "chi-i-beta"
    DELTA_S = "delta-s"
    FIGURE_OF_MERIT = "figure-of-merit"


@dataclass(frozen=True)
class Axis:
    """One sweep axis: parameter name, range and scale."""

    name: str
    start: float
    stop: float
    n: int = 64
    scale: str = "linear"

    def __post_init__(self) -> None:
        if self.name not in SWEEP_PARAMETERS:
            raise ValueError(f"unknown sweep parameter {self.name!r}")
        if self.n < 16:
            raise ValueError("axis resolution must be >= 16")
        if self.scale not in ("linear", "log"):
            raise ValueError("scale must be 'linear' or 'log'")
        if self.scale == "log" and (self.start <= 0 or self.stop <= 0):
            raise ValueError("log-scale range must be strictly positive")

    def values(self) -> np.ndarray:
        if self.scale == "log":
            return np.geomspace(self.start, self.stop, self.n)
        return np.linspace(self.start, self.stop, self.n)

    def to_coord(self, u: np.ndarray) -> np.ndarray:
        """Map scale-space position (log value for log axes) to value."""
        return np.exp(u) if self.scale == "log" else u

    def scale_values(self) -> np.ndarray:
        v = self.values()
        return np.log(v) if self.scale == "log" else v


@dataclass(frozen=True)
class SweepPlan:
    x: Axis
    y: Axis
    fixed: SystemSpec

    def __post_init__(self) -> None:
        if self.x.name == self.y.name:
            raise ValueError("sweep axes must be distinct parameters")
        if "p" in (self.x.name, self.y.name) or \
                "omega_gap" in (self.x.name, self.y.name):
            if self.fixed.qubit is None:
                raise ValueError("qubit axes require a qubit in the spec")


@dataclass
class SweepResult:
    """Grid of one scalar quantity plus derived contours.

    ``grid[i, j]`` belongs to (xs[i], ys[j]); failed cells hold NaN and
    are listed in ``failures`` (a numerical failure is data, never zero).
    """

    plan: SweepPlan
    quantity: Quantity
    xs: np.ndarray
    ys: np.ndarray
    grid: np.ndarray
    zero_contour: list[np.ndarray] = field(default_factory=list)
    betaq_contour: list[np.ndarray] = field(default_factory=list)
    failures: tuple = ()
    metadata: dict = field(default_factory=dict)


def _cell_value(spec: SystemSpec, quantity: Quantity, w_bar: float,
                deficit: float) -> float:
    """``quantity`` at ``spec`` from its mean work and i-beta deficit.

    Every cell, blended or integrated, goes through here, so each keeps
    the refusals its direct evaluation raises: an invalid spec, the
    engine guards, the breakdown of chi2(i beta) and the degenerate heat
    split.  A quantity ignores the integral it does not use (NaN).
    """
    if quantity is Quantity.FIGURE_OF_MERIT:
        # the engine guards come first, as in engine_report
        return _engine_report(spec, w_bar, deficit).figure_of_merit
    require_valid(spec)
    if quantity is Quantity.W_EXT:
        return -w_bar
    if quantity is Quantity.CHI_I_BETA:
        return chi2_from_deficit(deficit)
    return _entropy_production(spec, w_bar, deficit)


class _CellEvaluator:
    """Quantity at one point of a plan, counting the integrals it takes.

    Without a p axis every point integrates its own mean work and
    deficit.  With one, W_bar and the deficit are affine in p (green_pair
    builds both qubit channels as p (...) + (1 - p) (...)), so each
    column, one value of the other axis, is integrated once at p = 0 and
    p = 1, and a point at p gets (1 - p) I_0 + p I_1, exact at both
    endpoints.
    Columns are cached by axis value, so saddle centres reuse them.
    """

    def __init__(self, plan: SweepPlan, quantity: Quantity):
        self.plan, self.quantity = plan, quantity
        self.integrals = 0
        self._columns: dict = {}

    def __call__(self, x: float, y: float) -> float:
        plan = self.plan
        spec = with_param(with_param(plan.fixed, plan.x.name, x),
                          plan.y.name, y)
        if plan.x.name == "p":
            ends = self._column(y, spec)
        elif plan.y.name == "p":
            ends = self._column(x, spec)
        else:
            if self.quantity is Quantity.FIGURE_OF_MERIT:
                _temperatures(spec)  # refuse before integrating
            return _cell_value(spec, self.quantity, *self._integrals(spec))
        p = spec.qubit.p_ground
        (w0, d0), (w1, d1) = ends
        return _cell_value(spec, self.quantity, (1.0 - p) * w0 + p * w1,
                           (1.0 - p) * d0 + p * d1)

    def _integrals(self, spec: SystemSpec) -> tuple[float, float]:
        """(W_bar, deficit) at ``spec``; NaN for the one not needed."""
        w_bar = deficit = math.nan
        if self.quantity is not Quantity.CHI_I_BETA:
            self.integrals += 1
            w_bar = -w_ext2(spec)
        if self.quantity is not Quantity.W_EXT:
            self.integrals += 1
            deficit = i_beta_deficit(spec)
        return w_bar, deficit

    def _column(self, key: float, spec: SystemSpec) -> tuple:
        """Integrals at p = 0 and p = 1 of the column through ``spec``.

        An error they raise is kept and raised again for every point of
        the column.
        """
        if key not in self._columns:
            try:
                self._columns[key] = tuple(
                    self._integrals(with_param(spec, "p", p))
                    for p in (0.0, 1.0))
            except CELL_ERRORS as exc:
                self._columns[key] = exc
        ends = self._columns[key]
        if isinstance(ends, Exception):
            raise ends
        return ends


def run_sweep(plan: SweepPlan, quantity: Quantity) -> SweepResult:
    """Evaluate ``quantity`` over the plan's grid and extract contours.

    Cells failing with one of CELL_ERRORS are recorded as NaN; more than
    MAX_FAILED_FRACTION of them aborts with the cell list.  A saddle cell
    whose center evaluation fails falls back to the corner mean and is
    listed too, with the message prefixed by "center: ".
    ``metadata["integrals"]`` counts the drive-weighted integrals taken.
    """
    xs, ys = plan.x.values(), plan.y.values()
    values = np.full((plan.x.n, plan.y.n), np.nan)
    failures: list[tuple[int, int, str]] = []
    value_at = _CellEvaluator(plan, quantity)

    def evaluate(i: int, j: int, x: float, y: float, tag: str = "") -> float:
        try:
            return value_at(x, y)
        except CELL_ERRORS as exc:
            failures.append((i, j, tag + str(exc)))
            return math.nan

    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            values[i, j] = evaluate(i, j, x, y)

    if len(failures) > MAX_FAILED_FRACTION * values.size:
        raise SweepError(
            f"{len(failures)} of {values.size} sweep cells failed",
            failures)

    result = SweepResult(plan=plan, quantity=quantity, xs=xs, ys=ys,
                         grid=values)

    def center_fn(i: int, j: int, x: float, y: float) -> float:
        return evaluate(i, j, x, y, "center: ")

    result.zero_contour = extract_zero_contour(result, center_fn=center_fn)
    result.betaq_contour = beta_q_marker(plan)
    result.failures = tuple(failures)
    result.metadata = {
        "x": plan.x.name, "y": plan.y.name, "quantity": quantity.value,
        "failed_cells": len(failures), "integrals": value_at.integrals,
    }
    return result


# -- marching squares --------------------------------------------------------

# cell corners in (di, dj): 0 = (0,0), 1 = (1,0), 2 = (1,1), 3 = (0,1);
# edge k connects corner k and corner (k+1) % 4
_CORNERS = ((0, 0), (1, 0), (1, 1), (0, 1))

_SEGMENTS = {
    0b0000: [], 0b1111: [],
    0b0001: [(3, 0)], 0b1110: [(3, 0)],
    0b0010: [(0, 1)], 0b1101: [(0, 1)],
    0b0100: [(1, 2)], 0b1011: [(1, 2)],
    0b1000: [(2, 3)], 0b0111: [(2, 3)],
    0b0011: [(3, 1)], 0b1100: [(3, 1)],
    0b0110: [(0, 2)], 0b1001: [(0, 2)],
    # saddles resolved by the center sample
}


def _edge_key(i: int, j: int, edge: int):
    """Unique identifier of a grid edge, shared by the two adjacent cells."""
    if edge == 0:
        return ("v", i, j)        # (i,j)-(i+1,j)
    if edge == 1:
        return ("h", i + 1, j)    # (i+1,j)-(i+1,j+1)
    if edge == 2:
        return ("v", i, j + 1)    # (i,j+1)-(i+1,j+1)
    return ("h", i, j)            # (i,j)-(i,j+1)


def extract_zero_contour(result: SweepResult,
                         center_fn: Optional[Callable] = None
                         ) -> list[np.ndarray]:
    """Marching-squares polylines of ``grid == 0`` in axis coordinates.

    Crossing points are linearly interpolated in scale space and computed
    once per grid edge, so adjacent cells share vertices exactly and the
    segments join into chains without tolerance matching.  Cells touching
    NaN are skipped.  No sign change yields an empty list.

    ``center_fn(i, j, x, y)`` gives the true value at the center (x, y) of
    saddle cell (i, j); without it, or where it returns NaN, the mean of
    the four corners decides.
    """
    su = result.plan.x.scale_values()
    sv = result.plan.y.scale_values()
    values = result.grid
    nx, ny = values.shape

    crossings: dict = {}

    def crossing(kind: str, i: int, j: int) -> Optional[tuple]:
        key = (kind, i, j)
        if key in crossings:
            return crossings[key]
        if kind == "v":
            a, b = values[i, j], values[i + 1, j]
            pa = (su[i], sv[j])
            pb = (su[i + 1], sv[j])
        else:
            a, b = values[i, j], values[i, j + 1]
            pa = (su[i], sv[j])
            pb = (su[i], sv[j + 1])
        if (a > 0.0) == (b > 0.0):
            crossings[key] = None
            return None
        t = a / (a - b)
        point = (pa[0] + t * (pb[0] - pa[0]), pa[1] + t * (pb[1] - pa[1]))
        crossings[key] = point
        return point

    adjacency: dict = {}

    def link(k1, k2) -> None:
        adjacency.setdefault(k1, []).append(k2)
        adjacency.setdefault(k2, []).append(k1)

    points: dict = {}
    for i in range(nx - 1):
        for j in range(ny - 1):
            corner_vals = [values[i + di, j + dj] for di, dj in _CORNERS]
            if any(math.isnan(c) for c in corner_vals):
                continue
            code = sum((1 << k) for k, c in enumerate(corner_vals) if c > 0.0)
            if code in _SEGMENTS:
                segments = _SEGMENTS[code]
            else:
                # saddle: pair edges by the sign at the true cell center
                center = math.nan
                if center_fn is not None:
                    cx = result.plan.x.to_coord(0.5 * (su[i] + su[i + 1]))
                    cy = result.plan.y.to_coord(0.5 * (sv[j] + sv[j + 1]))
                    center = center_fn(i, j, float(cx), float(cy))
                if math.isnan(center):
                    center = float(np.mean(corner_vals))
                positive_center = center > 0.0
                corner0_positive = corner_vals[0] > 0.0
                if positive_center == corner0_positive:
                    segments = [(0, 1), (2, 3)]
                else:
                    segments = [(3, 0), (1, 2)]
            for e1, e2 in segments:
                k1, k2 = _edge_key(i, j, e1), _edge_key(i, j, e2)
                p1 = crossing(*k1)
                p2 = crossing(*k2)
                if p1 is None or p2 is None:
                    continue
                points[k1], points[k2] = p1, p2
                link(k1, k2)

    chains = _assemble_chains(adjacency)
    polylines = []
    x_axis, y_axis = result.plan.x, result.plan.y
    for chain in chains:
        coords = np.array([points[k] for k in chain])
        coords[:, 0] = x_axis.to_coord(coords[:, 0])
        coords[:, 1] = y_axis.to_coord(coords[:, 1])
        polylines.append(coords)
    return polylines


def _assemble_chains(adjacency: dict) -> list[list]:
    """Walk segment adjacency into open chains, then leftover loops."""
    visited = set()
    chains: list[list] = []

    def walk(start) -> list:
        chain = [start]
        visited.add(start)
        current = start
        while True:
            nxt = [k for k in adjacency[current] if k not in visited]
            if not nxt:
                return chain
            current = nxt[0]
            visited.add(current)
            chain.append(current)

    for node in adjacency:
        if node in visited or len(adjacency[node]) != 1:
            continue
        chains.append(walk(node))
    for node in adjacency:
        if node not in visited:
            loop = walk(node)
            loop.append(loop[0])
            chains.append(loop)
    return chains


# -- qubit-temperature marker ------------------------------------------------

def _marker_curve(xs: np.ndarray, solve) -> list[np.ndarray]:
    """Assemble (x, y) marker segments from a per-x analytic solve.

    ``solve`` returns the y value or NaN when outside the plot range;
    NaN gaps split the polyline.
    """
    segments: list[list] = [[]]
    for x in xs:
        y = solve(float(x))
        if math.isfinite(y):
            segments[-1].append((x, y))
        elif segments[-1]:
            segments.append([])
    return [np.array(s) for s in segments if len(s) >= 2]


def beta_q_marker(plan: SweepPlan) -> list[np.ndarray]:
    """Polyline of the matched-temperature condition beta = beta_q.

    Solved analytically for the first of beta, the gap and p that is an
    axis, at four times the resolution of the other axis; empty when the
    spec has no qubit or the curve misses the plotted window.
    """
    spec = plan.fixed
    if spec.qubit is None:
        return []
    names = (plan.x.name, plan.y.name)
    target = next(n for n in ("beta", "omega_gap", "p") if n in names)
    target_axis, along = (plan.x, plan.y) if plan.x.name == target \
        else (plan.y, plan.x)
    lo, hi = sorted((target_axis.start, target_axis.stop))
    fixed = {"beta": spec.beta, "omega_gap": spec.qubit.omega_gap,
             "p": spec.qubit.p_ground}

    def solve(value: float) -> float:
        params = {**fixed, along.name: value}
        p, gap, beta = params["p"], params["omega_gap"], params["beta"]
        if target == "p":
            # beta_q(p) = beta  <=>  p = 1 / (1 + e^{-beta gap})
            z = beta * gap
            solved = 1.0 / (1.0 + math.exp(-z)) if z < 700 else 1.0
        elif not 0.0 < p < 1.0:
            return math.nan
        elif target == "beta":
            solved = math.log(p / (1.0 - p)) / gap if gap > 0.0 else math.nan
        else:
            solved = math.log(p / (1.0 - p)) / beta
            solved = solved if solved > 0.0 else math.nan
        return solved if lo <= solved <= hi else math.nan

    space = np.geomspace if along.scale == "log" else np.linspace
    curves = _marker_curve(space(along.start, along.stop, 4 * along.n),
                           solve)
    if target_axis is plan.x:
        curves = [c[:, ::-1] for c in curves]
    return curves
