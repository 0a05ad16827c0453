"""Span tracing at the package's layer boundaries, from outside the package.

:meth:`Tracer.install` replaces each public function named in ``TARGETS``
in every ``drivenbath`` module namespace that binds it (so
``workstats.integrate_lambda``, ``sweep.w_ext2`` and
``thermo.chi2_at_i_beta`` are all caught) and :meth:`Tracer.uninstall`
puts the originals back.  A target missing at some commit is listed in
``Tracer.absent`` instead of raising.

A span records its name, start, end, parent span, task id and thread id.
Sweeps evaluate cells in a thread pool; a span opened on a worker thread
with nothing open on that thread takes as parent the innermost span open
on the thread that runs the task (there, ``run_sweep``).  The channel
densities of every ``GreenPair`` that ``green_pair`` returns are wrapped
too, but as they run hundreds of thousands of times per pass their time
and points are added to the innermost open span instead of getting spans
of their own.  Spans stay in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import json
import statistics
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

#: (module, function) pairs wrapped in the traced run
TARGETS = (
    ("cli", "main"), ("cli", "_write_csv"),
    ("sweep", "run_sweep"), ("sweep", "extract_zero_contour"),
    ("sweep", "beta_q_marker"),
    ("thermo", "engine_report"), ("thermo", "entropy_production"),
    ("workstats", "w_ext2"), ("workstats", "chi2_at_i_beta"),
    ("workstats", "chi2"), ("workstats", "chi2_field"),
    ("workstats", "wdf2"), ("workstats", "wdf_nonperturbative"),
    ("workstats", "correction_field"),
    ("quadrature", "integrate_lambda"), ("quadrature", "oscillatory_pair"),
    ("quadrature", "invert_samples"),
    ("green", "green_pair"),
)

#: what a sweep cell evaluates; such a span under extract_zero_contour is a
#: saddle-cell center evaluation
CELL_FUNCTIONS = ("workstats.w_ext2", "workstats.chi2_at_i_beta",
                  "thermo.entropy_production", "thermo.engine_report")

#: bytes of one complex128 phase-matrix element
PHASE_ELEM_BYTES = 16

#: an integral above this many integrand points counts as runaway refinement
RUNAWAY_POINTS = 100_000

#: what a span keeps of its call, from the result (None when the call
#: raised) and the positional arguments
KEEP = {
    "cli.write_csv": lambda r, args: Path(args[0]).stat().st_size,
    "sweep.run_sweep":
        lambda r, args: None if r is None else (r.grid.size, len(r.failures)),
    "workstats.wdf2": lambda r, args: None if r is None else r.clipped,
    "workstats.wdf_nonperturbative":
        lambda r, args: None if r is None else r.clipped,
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "task", "thread",
                 "density_s", "density_points", "info")

    def __init__(self, name, parent, task):
        self.name = name
        self.parent = parent
        self.task = task
        self.thread = threading.get_ident()
        self.start = self.end = 0.0
        self.density_s = 0.0
        self.density_points = 0
        self.info = None


class Tracer:
    """Spans of the traced passes; create one per run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.task = None
        self.absent: list[str] = []
        self._local = threading.local()
        self._owner_stack = self._stack()
        self._patches: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list):
        if stack:
            return stack[-1]
        owner = self._owner_stack
        return owner[-1] if owner else None

    def call(self, name: str, fn, args, kwargs, info=None):
        """Run ``fn`` inside a span; ``info(result, args)`` is kept on it."""
        stack = self._stack()
        span = Span(name, self._parent(stack), self.task)
        self.spans.append(span)
        stack.append(span)
        result = None
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            span.end = time.perf_counter()
            stack.pop()
            if info is not None:
                span.info = info(result, args)

    def density(self, fn):
        """Wrap a channel density; its cost goes to the innermost span."""
        def traced(w):
            start = time.perf_counter()
            out = fn(w)
            elapsed = time.perf_counter() - start
            span = self._parent(self._stack())
            if span is not None:
                span.density_s += elapsed
                span.density_points += int(np.size(w))
            return out
        return traced

    def _wrapper(self, name: str, fn):
        tracer = self
        if name == "quadrature.integrate_lambda":
            def wrapper(f, *args, **kwargs):
                points = [0]

                def counted(w):
                    points[0] += int(np.size(w))
                    return f(w)
                return tracer.call(name, fn, (counted,) + args, kwargs,
                                   lambda *_: points[0])
        elif name == "quadrature.oscillatory_pair":
            def wrapper(f1, f2, v, *args, **kwargs):
                nodes = [0]

                def counted(w):
                    nodes[0] = int(np.size(w))
                    return f1(w)
                return tracer.call(name, fn, (counted, f2, v) + args, kwargs,
                                   lambda *_: (nodes[0], int(np.size(v))))
        elif name == "green.green_pair":
            def wrapper(*args, **kwargs):
                pair = tracer.call(name, fn, args, kwargs)
                return replace(pair, g_mp=tracer.density(pair.g_mp),
                               g_pm=tracer.density(pair.g_pm))
        else:
            def wrapper(*args, **kwargs):
                return tracer.call(name, fn, args, kwargs, KEEP.get(name))
        return wrapper

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if n == "drivenbath" or n.startswith("drivenbath.")]
        self.absent = []
        for mod_name, attr in TARGETS:
            module = sys.modules.get("drivenbath." + mod_name)
            original = getattr(module, attr, None)
            name = f"{mod_name}.{attr.lstrip('_')}"
            if original is None:
                self.absent.append(name)
                continue
            wrapper = self._wrapper(name, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patches.append((m, key, value))
                        setattr(m, key, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            module, key, value = self._patches.pop()
            setattr(module, key, value)

    def write(self, path: Path) -> None:
        index = {id(s): i for i, s in enumerate(self.spans)}
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "name": s.name, "start": s.start, "end": s.end,
                    "parent": index.get(id(s.parent)), "task": s.task,
                    "thread": s.thread, "density_s": s.density_s,
                    "density_points": s.density_points}) + "\n")


def _covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of ``intervals``."""
    total, reach = 0.0, start
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, end)
        if b > a:
            total += b - a
            reach = b
    return total


def layer_metrics(spans: list[Span], passes: int) -> dict:
    """Per-layer counts and times per traced pass, and rates, from the spans.

    ``.s`` is the busy time summed over threads; ``.self_s`` subtracts the
    part of each span covered by its child spans and density calls.
    """
    children: dict[int, list[Span]] = {}
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
        if s.parent is not None:
            children.setdefault(id(s.parent), []).append(s)

    def named(name):
        return by_name.get(name, [])

    def busy(name):
        return sum(s.end - s.start for s in named(name))

    def self_time(name):
        return sum(s.end - s.start - s.density_s - _covered(
            s.start, s.end,
            [(c.start, c.end) for c in children.get(id(s), ())])
            for s in named(name))

    m: dict[str, float] = {}
    m["cli.main.calls"] = len(named("cli.main"))
    m["cli.main.self_s"] = self_time("cli.main")
    m["cli.write_csv.s"] = busy("cli.write_csv")
    m["cli.csv_bytes"] = sum(s.info or 0 for s in named("cli.write_csv"))

    sweeps = named("sweep.run_sweep")
    loop_s = 0.0
    for s in sweeps:
        contour = [c.start for c in children.get(id(s), ())
                   if c.name == "sweep.extract_zero_contour"]
        loop_s += (min(contour) if contour else s.end) - s.start
    results = [s.info for s in sweeps if s.info is not None]
    cells = sum(n for n, _ in results)
    m["sweep.run_sweep.s"] = busy("sweep.run_sweep")
    m["sweep.cell_loop.s"] = loop_s
    m["sweep.cells"] = cells
    m["sweep.cells_failed"] = sum(f for _, f in results)
    m["sweep.center_evals"] = sum(
        1 for s in named("sweep.extract_zero_contour")
        for c in children.get(id(s), ()) if c.name in CELL_FUNCTIONS)
    rates = {"sweep.cells_per_s": cells / loop_s if loop_s else 0.0}
    m["sweep.extract_zero_contour.s"] = busy("sweep.extract_zero_contour")
    m["sweep.beta_q_marker.s"] = busy("sweep.beta_q_marker")

    for fn in ("engine_report", "entropy_production"):
        m[f"thermo.{fn}.calls"] = len(named(f"thermo.{fn}"))
        m[f"thermo.{fn}.s"] = busy(f"thermo.{fn}")
    for fn in ("w_ext2", "chi2_at_i_beta", "chi2", "chi2_field", "wdf2",
               "wdf_nonperturbative", "correction_field"):
        m[f"workstats.{fn}.calls"] = len(named(f"workstats.{fn}"))
        m[f"workstats.{fn}.s"] = busy(f"workstats.{fn}")
    m["workstats.wdf.clipped_points"] = sum(
        s.info for name in ("workstats.wdf2", "workstats.wdf_nonperturbative")
        for s in named(name) if s.info is not None)

    integrals = named("quadrature.integrate_lambda")
    points = [s.info for s in integrals if isinstance(s.info, int)]
    m["quadrature.integrate_lambda.calls"] = len(integrals)
    m["quadrature.integrate_lambda.s"] = busy("quadrature.integrate_lambda")
    m["quadrature.integrate_lambda.self_s"] = \
        self_time("quadrature.integrate_lambda")
    m["quadrature.integrate_lambda.points"] = sum(points)
    rates["quadrature.integrate_lambda.points_per_call_p50"] = \
        statistics.median(points) if points else 0
    rates["quadrature.integrate_lambda.points_per_call_max"] = max(
        points, default=0)
    m["quadrature.integrate_lambda.runaway_calls"] = sum(
        p > RUNAWAY_POINTS for p in points)

    pairs = [s.info for s in named("quadrature.oscillatory_pair")
             if isinstance(s.info, tuple)]
    elems = sum(nodes * nv for nodes, nv in pairs)
    m["quadrature.oscillatory_pair.calls"] = len(
        named("quadrature.oscillatory_pair"))
    m["quadrature.oscillatory_pair.s"] = busy("quadrature.oscillatory_pair")
    m["quadrature.oscillatory_pair.nodes"] = sum(n for n, _ in pairs)
    m["quadrature.oscillatory_pair.phase_elems"] = elems
    m["quadrature.oscillatory_pair.phase_bytes_computed"] = \
        elems * PHASE_ELEM_BYTES
    m["quadrature.invert_samples.calls"] = len(
        named("quadrature.invert_samples"))
    m["quadrature.invert_samples.s"] = busy("quadrature.invert_samples")

    m["spectral.points"] = sum(s.density_points for s in spans)
    m["spectral.s"] = sum(s.density_s for s in spans)
    m["green.green_pair.calls"] = len(named("green.green_pair"))
    m["trace.spans"] = len(spans)

    return {**{k: v / passes for k, v in m.items()}, **rates}
