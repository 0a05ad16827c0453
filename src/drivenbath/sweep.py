"""Two-dimensional parameter sweeps, zero contours and marker lines.

Every cell value is a pure function of the plan, evaluated in a fixed
order, so reruns are bit-identical.  Integrals are batched: one call of
the batched adaptive rule integrates a whole set of specs in one
refinement loop, and a row of that rule gives the same bits in any batch
as alone.  A p axis is not integrated cell by cell: the mean work and the
chi2(i beta) deficit are affine in p, so each column (one value of the
other axis) is integrated at p = 0 and p = 1, all 2n endpoints in one
call per integral, and its cells are blended from those two values.
Sweeps without a p axis integrate one sweep row (all y at one x) per call
and match the library calls bit for bit by construction.  Both layouts
share one cell stage, and a failed cell records the error its direct
call raises first: for a figure of merit the engine guards, which keep
the cell out of every integral; then an invalid spec; then a failed row
or column integral; then chi2(i beta) <= 0 and the degenerate heat
split.  The cells of a grid are evaluated on arrays, not one by one: the
engine guards run once per distinct qubit and validation once per axis
value, the blend is a broadcast, and W_ext, chi2(i beta), Delta S and
the figure of merit are array expressions with the bits of the scalar
formulas.
Contours are marching-squares polylines in the axis scale space (log
axes interpolate geometrically).  Every cell is classified at once, and
only the cells the contour crosses are visited, in row-major order;
saddle cells are disambiguated by evaluating the true function at the
cell center, a 1 x 1 grid, not the bilinear interpolant.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from enum import Enum
from itertools import product
from typing import Callable, Optional

import numpy as np

from .model import (FrequencyGrid, SystemSpec, require_valid, validate,
                    with_param)
from .quadrature import QuadratureError
from .thermo import (_breakdowns, _engine_guard, _engine_reports,
                     _entropy_productions, default_mode_tol)
from .workstats import (PerturbativeBreakdownError, _i_beta_grids,
                        _work_rows, work_integrals)

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
        try:
            operator.index(self.n)
        except TypeError:
            raise ValueError("axis resolution must be an integer, "
                             f"got {self.n!r}") from None
        if self.n < 16:
            raise ValueError("axis resolution must be >= 16")
        if not (math.isfinite(self.start) and math.isfinite(self.stop)):
            raise ValueError("axis range must be finite")
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


class _CellEvaluator:
    """The quantity on a grid of plan points, tallying the integrals taken.

    One stage serves the sweep grid and each saddle centre, a 1 x 1 grid.
    Without a p axis each sweep row, all y at one x, is one batch step of
    workstats: one channel table and one batched call per integral the
    quantity needs, and one i-beta window per beta value it integrates
    where it needs the deficit.  With one, W_bar and the deficit are
    affine in p (channel_table builds both qubit channels as p (...) +
    (1 - p) (...)), so each column, one value of the other axis, is
    integrated once at p = 0 and p = 1, all columns of the grid in one
    call per integral, and the grid gets (1 - p) I_0 + p I_1 by
    broadcasting, exact at both endpoints.  Columns are cached by axis
    value, so saddle centres reuse them.

    Both layouts take the same steps: the engine guards (figure of merit
    only), then validity, then each cell's integrals (a row batch of the
    cells not refused yet, or the blend of their columns), then the
    quantity from them.  A failed cell holds the error that its direct
    evaluation raises first: for a figure of merit the engine guards, as
    in engine_report; then an invalid spec; then a failed column, or the
    error of its batched row; then the breakdown of chi2(i beta) and the
    degenerate heat split.  The guards read only the qubit, so they run
    once per distinct qubit: per value of a p or gap axis.  Validity is
    checked once per axis value (see _refuse_invalid).  The quantity is
    formed on arrays, with the bits of the scalar formulas: W_ext and
    chi2(i beta) directly, Delta S and the figure of merit by thermo's
    cell entropy production and engine bookkeeping.
    """

    def __init__(self, plan: SweepPlan, quantity: Quantity):
        self.plan, self.quantity = plan, quantity
        self.stats = {"integrals": 0, "points": 0, "max_points": 0}
        self._wanted = dict(mean_work=quantity is not Quantity.CHI_I_BETA,
                            deficit=quantity is not Quantity.W_EXT)
        self._columns: dict = {}
        # with a p axis, the other axis indexes the columns
        self._column_axis = plan.y if plan.x.name == "p" else \
            plan.x if plan.y.name == "p" else None
        if self._column_axis is not None:
            self._integrate_columns(self._column_axis.values())

    def _row_specs(self, x: float, ys) -> list:
        """The spec at (x, y) for every y, built from the spec at x."""
        plan = self.plan
        row = with_param(plan.fixed, plan.x.name, x)
        return [with_param(row, plan.y.name, y) for y in ys]

    def _beta(self, xs, ys) -> np.ndarray:
        """beta of every cell, as an array broadcastable to the grid."""
        plan = self.plan
        if plan.x.name == "beta":
            return np.asarray(xs, dtype=float)[:, None]
        if plan.y.name == "beta":
            return np.asarray(ys, dtype=float)[None, :]
        return np.full((1, 1), plan.fixed.beta)

    def _count(self, calls) -> None:
        """Add the integrals and points of ``calls`` to the stats."""
        stats = self.stats
        for res in calls:
            stats["integrals"] += res.points.size
            stats["points"] += int(res.points.sum())
            stats["max_points"] = max(stats["max_points"],
                                      int(res.points.max()))

    def _integrate_columns(self, keys) -> None:
        """Integrate the p = 0 and p = 1 ends of the columns at ``keys``.

        A column keeps (W_0, D_0, W_1, D_1), or the first error its
        endpoint integrals raise, in the order of direct calls, which
        fails every point of the column.
        """
        name = self._column_axis.name
        ends = [with_param(with_param(self.plan.fixed, name, key), "p", p)
                for key in keys for p in (0.0, 1.0)]
        entries, calls = work_integrals(ends, **self._wanted)
        self._count(calls)
        for c, key in enumerate(keys):
            pair = entries[2 * c:2 * c + 2]
            failed = [e for e in pair if isinstance(e, Exception)]
            self._columns[key] = failed[0] if failed else pair[0] + pair[1]

    def grid(self, xs, ys) -> tuple[np.ndarray, dict]:
        """The quantity at every (xs[i], ys[j]), NaN where the cell fails,
        and the error of each failed cell keyed by (i, j)."""
        errors: dict = {}
        beta_q = None
        if self.quantity is Quantity.FIGURE_OF_MERIT:
            # the engine guards refuse a cell before anything else
            beta_q = self._engine_guards(xs, ys, errors)
        self._refuse_invalid(xs, ys, errors)
        if self._column_axis is not None:
            w_bar, deficit = self._blend(xs, ys, errors)
        else:
            w_bar, deficit = self._integrate_rows(xs, ys, errors)
        return self._values(xs, ys, beta_q, w_bar, deficit, errors), errors

    def _engine_guards(self, xs, ys, errors: dict) -> np.ndarray:
        """beta_q of every cell, broadcastable to the grid, recording the
        error of each cell that the engine guards refuse.

        The guards read only the qubit, so they run once per value of a p
        or gap axis (per cell when both are axes), and once in all
        without either.
        """
        plan = self.plan
        axes = [values if axis.name in ("p", "omega_gap") else [None]
                for axis, values in ((plan.x, xs), (plan.y, ys))]
        beta_q = np.full((len(axes[0]), len(axes[1])), np.nan)
        for i, x in enumerate(axes[0]):
            at = plan.fixed if x is None else \
                with_param(plan.fixed, plan.x.name, x)
            for j, y in enumerate(axes[1]):
                try:
                    beta_q[i, j] = _engine_guard(
                        at if y is None else with_param(at, plan.y.name, y))
                except ValueError as exc:
                    for cell in product(
                            range(len(xs)) if x is None else [i],
                            range(len(ys)) if y is None else [j]):
                        errors[cell] = exc
        return beta_q

    def _integrate_rows(self, xs, ys, errors: dict):
        """W_bar and the deficit of every cell not failed yet, one batch
        step per row, on the mean work's drive window and with one i-beta
        window per beta value of those cells (a refused cell's beta may
        have no window); each integral only where the quantity needs it."""
        todo = np.ones((len(xs), len(ys)), dtype=bool)
        for cell in errors:
            todo[cell] = False
        source, mean, window = self.plan.fixed.source, None, None
        if self._wanted["mean_work"]:
            mean = FrequencyGrid.for_source(source)
        if self._wanted["deficit"]:
            betas = np.broadcast_to(self._beta(xs, ys), todo.shape)
            keys = list(dict.fromkeys(betas[todo].tolist()))
            window = dict(zip(keys, _i_beta_grids(source, keys)))
        both = np.full((len(xs), len(ys), 2), np.nan)
        for i, x in enumerate(xs):
            cells = np.flatnonzero(todo[i])
            if not cells.size:
                continue
            values, failed, calls = _work_rows(
                self._row_specs(x, np.asarray(ys)[cells]),
                None if mean is None else [mean] * cells.size,
                None if window is None else
                [window[b] for b in betas[i, cells].tolist()])
            self._count(calls)
            both[i, cells] = values
            for j, message in zip(cells.tolist(), failed):
                if message:
                    errors[i, j] = QuadratureError(message)
        return both[..., 0], both[..., 1]

    def _blend(self, xs, ys, errors: dict):
        """W_bar and the deficit of every cell from its column's ends."""
        p_on_x = self.plan.x.name == "p"
        keys = ys if p_on_x else xs
        new = [key for key in dict.fromkeys(keys) if key not in self._columns]
        if new:
            self._integrate_columns(new)
        ends = np.full((len(keys), 4), np.nan)  # w0, d0, w1, d1 per column
        failed = []
        for k, key in enumerate(keys):
            column = self._columns[key]
            if isinstance(column, Exception):
                failed.append((k, column))
            else:
                ends[k] = column
        # (column, p) arrays, transposed when p runs along x
        p = np.asarray(xs if p_on_x else ys, dtype=float)[None, :]
        w0, d0, w1, d1 = ends.T[:, :, None]
        w_bar = (1.0 - p) * w0 + p * w1
        deficit = (1.0 - p) * d0 + p * d1
        for k, column in failed:
            for other in range(len(xs) if p_on_x else len(ys)):
                errors.setdefault((other, k) if p_on_x else (k, other),
                                  column)
        return (w_bar.T, deficit.T) if p_on_x else (w_bar, deficit)

    def _refuse_invalid(self, xs, ys, errors: dict) -> None:
        """Record the require_valid error of each invalid cell not failed.

        validate checks each field on its own, so with (x_a, y_b) a valid
        cell, cell (i, j) is valid when the specs at (x_i, y_b) and
        (x_a, y_j) both are: one validate per axis value, and only a cell
        for which one of them fails builds its own spec to learn its
        message.  The reference is the first valid spec at the fixed
        spec's y, else at its x; without one, every cell is checked on
        its own.
        """
        plan = self.plan
        x, y = plan.x.name, plan.y.name

        def valid(at, axis, values) -> list:
            return [validate(with_param(at, axis, v)).is_valid
                    for v in values]

        rows = valid(plan.fixed, x, xs)
        if any(rows):
            cols = valid(with_param(plan.fixed, x, xs[rows.index(True)]),
                         y, ys)
        else:
            cols = valid(plan.fixed, y, ys)
            if any(cols):
                rows = valid(with_param(plan.fixed, y, ys[cols.index(True)]),
                             x, xs)
        for i, j in np.argwhere(~np.outer(rows, cols)).tolist():
            if (i, j) not in errors:
                try:
                    require_valid(self._row_specs(xs[i], [ys[j]])[0])
                except ValueError as exc:
                    errors[i, j] = exc

    def _values(self, xs, ys, beta_q, w_bar, deficit,
                errors: dict) -> np.ndarray:
        """The quantity at every cell not failed yet from its integrals; a
        cell that the quantity refuses gets its error instead.  ``beta_q``
        holds the engine guards' beta_q of a figure of merit,
        broadcastable to the grid, else None."""
        ok = np.ones(w_bar.shape, dtype=bool)
        for cell in errors:
            ok[cell] = False
        values = np.full(w_bar.shape, np.nan)
        if self.quantity is Quantity.W_EXT:
            values[ok] = -w_bar[ok]
            return values
        beta = np.broadcast_to(self._beta(xs, ys), ok.shape)[ok]
        if self.quantity is Quantity.FIGURE_OF_MERIT:
            report, refused = _engine_reports(
                w_bar[ok], deficit[ok], beta,
                np.broadcast_to(beta_q, ok.shape)[ok],
                default_mode_tol(self.plan.fixed))
            got = report.figure_of_merit
        elif self.quantity is Quantity.DELTA_S:
            got, refused = _entropy_productions(w_bar[ok], deficit[ok], beta)
        else:
            got, refused = 1.0 - deficit[ok], _breakdowns(deficit[ok])
        got[list(refused)] = np.nan
        values[ok] = got
        cells = np.argwhere(ok)
        for k, exc in refused.items():
            errors[tuple(cells[k].tolist())] = exc
        return values


def run_sweep(plan: SweepPlan, quantity: Quantity) -> SweepResult:
    """Evaluate ``quantity`` over the plan's grid and extract contours.

    Cells failing with one of CELL_ERRORS are recorded as NaN; more than
    MAX_FAILED_FRACTION of them aborts with the cell list.  A saddle cell
    whose center evaluation fails falls back to the corner mean and is
    listed too, with the message prefixed by "center: ".
    ``metadata["integrals"]`` counts the drive-weighted integrals taken,
    ``"points"`` their integrand points and ``"max_points"`` the most
    one integral took; an integral whose refinement stalls above its
    tolerance fails its cell with a QuadratureError.
    """
    xs, ys = plan.x.values(), plan.y.values()
    value_at = _CellEvaluator(plan, quantity)
    values, errors = value_at.grid(xs, ys)
    failures = [(i, j, str(errors[i, j])) for i, j in sorted(errors)]

    if len(failures) > MAX_FAILED_FRACTION * values.size:
        raise SweepError(
            f"{len(failures)} of {values.size} sweep cells failed",
            failures)

    result = SweepResult(plan=plan, quantity=quantity, xs=xs, ys=ys,
                         grid=values)

    def center_fn(i: int, j: int, x: float, y: float) -> float:
        # a saddle centre is a 1 x 1 grid
        value, error = value_at.grid([x], [y])
        if error:
            failures.append((i, j, "center: " + str(error[0, 0])))
        return value[0, 0]

    result.zero_contour = extract_zero_contour(result, center_fn=center_fn)
    result.betaq_contour = beta_q_marker(plan)
    result.failures = tuple(failures)
    result.metadata = {
        "x": plan.x.name, "y": plan.y.name, "quantity": quantity.value,
        "failed_cells": len(failures), **value_at.stats,
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


def _edge_key(i: int, j: int, edge: int) -> tuple:
    """Edge ``edge`` of cell (i, j) as its two grid nodes, lower first.

    The two cells that share an edge give it the same key.
    """
    (a, b), (c, d) = _CORNERS[edge], _CORNERS[(edge + 1) % 4]
    return tuple(sorted(((i + a, j + b), (i + c, j + d))))


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

    def crossing(key: tuple) -> Optional[tuple]:
        if key not in crossings:
            (ia, ja), (ib, jb) = key
            a, b = values[ia, ja], values[ib, jb]
            crossings[key] = None
            if (a > 0.0) != (b > 0.0):
                t = a / (a - b)
                crossings[key] = (su[ia] + t * (su[ib] - su[ia]),
                                  sv[ja] + t * (sv[jb] - sv[ja]))
        return crossings[key]

    # corner k of every cell, then each cell's code; only cells whose
    # corners are all numbers and differ in sign hold segments
    corners = np.stack([values[di:nx - 1 + di, dj:ny - 1 + dj]
                        for di, dj in _CORNERS])
    codes = sum((corners[k] > 0.0).astype(int) << k for k in range(4))
    crossed = ~np.isnan(corners).any(axis=0) & (codes != 0) & (codes != 15)

    adjacency: dict = {}
    for i, j in np.argwhere(crossed).tolist():  # row-major
        segments = _SEGMENTS.get(int(codes[i, j]))
        if segments is None:
            # saddle: pair edges by the sign at the true cell center
            corner_vals = [values[i + di, j + dj] for di, dj in _CORNERS]
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
            if crossing(k1) is not None and crossing(k2) is not None:
                adjacency.setdefault(k1, []).append(k2)
                adjacency.setdefault(k2, []).append(k1)

    chains = _assemble_chains(adjacency)
    polylines = []
    x_axis, y_axis = result.plan.x, result.plan.y
    for chain in chains:
        coords = np.array([crossings[k] for k in chain])
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
