"""Benchmark of the drivenbath library and CLI, built from ``src/``.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sweep-maps --seed 1 --seconds 36
    python3 perfbench/run.py --workload all --seed 1 --seconds 36

Workloads (see ``workloads.py``): ``sweep-maps``, ``wdf-inversion`` and
``point-evals``; ``all`` runs each in a fresh process and prints every
metric.  A run repeats the workload's fixed task list for ``--seconds``
seconds: it starts another pass while the slowest pass so far still fits
in what is left, and makes at least two (three when traced).  It then
checks each pass's outputs and prints, as its last stdout line, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
OpenBLAS runs one thread (``OPENBLAS_NUM_THREADS=1``, also in every
interpreter the benchmark starts): at its default of one thread per core
its second thread spins without lowering wall time, and on a small
shared host the spinning makes wall time depend on what else runs there.

Every time metric is given in reference seconds, so that it follows the
program and not the host.  On a shared host the CPU speed a process gets
drifts by 20-40% over minutes, and the same task list takes that much
longer.  So a fixed reference kernel in this file (a pure-Python loop
plus a small numpy expression) runs between tasks, for about
``REF_SHARE`` of the task time, and each task's time is scaled by
``REF_UNIT_S`` over the time one kernel unit took within
``REF_WINDOW_S`` of the task; the kernel's own time is left out.  For
sweep-maps the kernel runs on as many threads as the sweep's cell loop
(``REF_THREADS``): there the work moves between CPUs, and one thread
would time only its own.  ``setup_s`` is scaled alike by fresh
interpreters that import numpy alone (``REF_LAUNCH_S``).  Raw seconds
are printed beside the metrics.

With ``--trace 0`` the metrics are end to end: ``setup_s`` (median of
fresh interpreters importing ``drivenbath.cli``), and per pass the median
``wall_s`` (the pass's tasks, back to back) and ``cpu_s`` (user + system,
all threads), ``peak_rss_mb``, and ``task_p50_ms`` and ``task_tail_ms``
over the task list, taking each task's latency as its median over the
passes.  The failed share of tasks is printed as ``ops_failed_frac``;
it is carried by ``failed``/``attempted`` rather than by a bounded metric
because it is 0 on two workloads.  With ``--trace 1`` untraced and
traced passes alternate, starting untraced, and the metrics are the
per-layer ones of ``tracing.py``, per traced pass, plus
``trace.overhead_s`` (median traced minus median untraced pass wall
time, leaving out the first pass, which also warms caches).  Spans, and
the SHA-256 of every task's output files or result arrays, go to
``.bench_out/``; two runs of the same code and seed write identical
digests.

Exit status is 0 when the run completed, whether or not outputs were
correct, and 2 when no ``src/drivenbath`` package is found beside this
directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from importlib import metadata
from pathlib import Path

#: set before numpy is first imported, so that it holds in this process
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOAD_NAMES = ("sweep-maps", "wdf-inversion", "point-evals")

#: passes a run makes however long they take; a traced run alternates
#: untraced and traced passes and leaves out its first untraced one
MIN_PASSES = 2
MIN_TRACED_PASSES = 3

#: fresh interpreters per run for setup_s and for the import profile
SETUP_LAUNCHES = 5

#: share of a pass's task time spent on the reference kernel
REF_SHARE = 0.05

#: seconds a fresh interpreter importing numpy alone takes at reference
#: speed
REF_LAUNCH_S = 0.15

#: seconds one reference-kernel unit takes at reference speed
REF_UNIT_S = 1e-3

#: reference-kernel units this close to a task calibrate its time
REF_WINDOW_S = 0.5

#: threads the reference kernel runs on: sweeps evaluate cells on the
#: CLI's default of one thread per CPU, the other tasks on one thread
REF_THREADS = {"sweep-maps": os.cpu_count() or 1}

_REF_X = np.linspace(0.01, 50.0, 4096)

#: a task latency percentile needs this many tasks beyond it
TAIL_BEYOND = 10

CHILD_TIMEOUT_S = 170


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _launch(args: list) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=_child_env(),
                          capture_output=True, text=True, check=True,
                          timeout=60)


def _reference_unit() -> float:
    """One unit of the fixed reference kernel, about a millisecond."""
    s = 0.0
    for i in range(6000):
        s += (i * 0.5) % 7.0
    for j in range(4):
        s += float(np.sum(np.exp(-_REF_X / (j + 1)) * np.cos(_REF_X * j)
                          / (1.0 + _REF_X * _REF_X)))
    return s


class Reference:
    """Runs and times reference-kernel units between tasks.

    With ``threads`` > 1 the units run on that many threads, as sweep
    cells do, so that the kernel shares the CPUs the way the work does.
    Each run of units is kept as (start, end, units); ``cpu`` is the CPU
    time all of them took.
    """

    def __init__(self, threads: int = 1):
        self.threads = threads
        self.samples = []
        self.wall = 0.0
        self.cpu = 0.0

    def run(self, seconds: float) -> None:
        """Run units for about ``seconds``."""
        units = 0
        cpu0 = time.process_time()
        start = now = time.perf_counter()
        if self.threads > 1:
            with ThreadPoolExecutor(max_workers=self.threads) as pool:
                while units == 0 or now - start < seconds:
                    list(pool.map(lambda _: _reference_unit(),
                                  range(4 * self.threads)))
                    units += 4 * self.threads
                    now = time.perf_counter()
        while units == 0 or now - start < seconds:
            _reference_unit()
            units += 1
            now = time.perf_counter()
        self.samples.append((start, now, units))
        self.wall += now - start
        self.cpu += time.process_time() - cpu0

    def scale(self, t0: float, t1: float) -> float:
        """Reference seconds per measured second over [t0, t1].

        Taken from the units run within ``REF_WINDOW_S`` of the interval,
        or from all units when none were.
        """
        near = [(b - a, n) for a, b, n in self.samples
                if a < t1 + REF_WINDOW_S and b > t0 - REF_WINDOW_S]
        wall, units = map(sum, zip(*(near or [(b - a, n) for a, b, n
                                              in self.samples])))
        return REF_UNIT_S * units / wall


def setup_seconds() -> tuple[float, float]:
    """Median time of fresh interpreters importing drivenbath.cli.

    Returns (reference seconds, raw seconds).  Each launch is followed by
    a launch that imports numpy alone, and is scaled by ``REF_LAUNCH_S``
    over that one's time: launches slow with the host far more, and less
    in step with the CPU, than the reference kernel does.
    """
    _launch(["-c", "import drivenbath.cli"])  # bytecode cache
    ref, raw = [], []
    for _ in range(SETUP_LAUNCHES):
        start = time.perf_counter()
        _launch(["-c", "import drivenbath.cli"])
        raw.append(time.perf_counter() - start)
        start = time.perf_counter()
        _launch(["-c", "import numpy"])
        ref.append(raw[-1] * REF_LAUNCH_S / (time.perf_counter() - start))
    return statistics.median(ref), statistics.median(raw)


def import_profile() -> dict:
    """Median cumulative import times from ``python -X importtime``.

    ``drivenbath`` is every top-level ``drivenbath*`` import; a module
    that is never imported reads 0.
    """
    runs = {"setup.import.drivenbath_s": [],
            "setup.import.scipy_special_s": []}
    for _ in range(SETUP_LAUNCHES):
        err = _launch(["-X", "importtime", "-c",
                       "import drivenbath.cli"]).stderr
        entries = []
        for line in err.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                name = parts[2].rstrip()
                entries.append((len(name) - len(name.lstrip()),
                                name.strip(), int(parts[1]) * 1e-6))
        top = min(indent for indent, _, _ in entries)
        ours = sum(t for indent, name, t in entries
                   if indent == top and name.startswith("drivenbath"))
        scipy_special = next(
            (t for _, name, t in entries if name == "scipy.special"), 0.0)
        runs["setup.import.drivenbath_s"].append(ours)
        runs["setup.import.scipy_special_s"].append(scipy_special)
    return {k: statistics.median(v) for k, v in runs.items()}


def tail_latency(latencies: list) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with 10 tasks beyond.

    When that percentile would not lie above the median (fewer than 22
    tasks), the maximum is reported with percentile 100.
    """
    xs = sorted(latencies)
    n = len(xs)
    if n < 2 * (TAIL_BEYOND + 1):
        return xs[-1], 100.0
    k = n - 1 - TAIL_BEYOND
    return xs[k], 100.0 * k / (n - 1)


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None
    return {
        "nproc": os.cpu_count(), "machine": platform.machine(),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from workloads import OperationFailed, WORKLOADS
    from tracing import Tracer, layer_metrics

    metrics = {}
    if trace:
        metrics.update(import_profile())
    else:
        metrics["setup_s"], raw_setup = setup_seconds()

    out = OUT / f"{name}-seed{seed}-{os.getpid()}"
    tasks = WORKLOADS[name](seed, out)
    tracer = Tracer() if trace else None
    ref = Reference(REF_THREADS.get(name, 1))
    # per pass, in reference seconds: the tasks' time, back to back
    walls = {False: [], True: []}
    cpus, latencies, digests, problems = [], [], [], []
    raw_walls, pass_seconds = [], []
    attempted = failed = 0
    incorrect = False
    peak_kb = 0
    passes = 0
    busy = 0.0
    start_run = time.perf_counter()
    try:
        while passes < (MIN_TRACED_PASSES if trace else MIN_PASSES) or (
                time.perf_counter() - start_run + max(pass_seconds)
                <= seconds):
            traced = trace and passes % 2 == 1
            passes += 1
            if traced:
                tracer.install()
            results, spans = [], []
            ref_cpu0 = ref.cpu
            cpu0 = resource.getrusage(resource.RUSAGE_SELF)
            start = time.perf_counter()
            for i, task in enumerate(tasks):
                if traced:
                    tracer.task = i
                t0 = time.perf_counter()
                try:
                    results.append(task.run())
                except Exception as exc:  # a failed operation, counted below
                    results.append(exc)
                t1 = time.perf_counter()
                spans.append((t0, t1))
                busy += t1 - t0
                if ref.wall < REF_SHARE * busy:
                    ref.run(REF_SHARE * busy - ref.wall)
            pass_seconds.append(time.perf_counter() - start)
            cpu1 = resource.getrusage(resource.RUSAGE_SELF)
            peak_kb = cpu1.ru_maxrss
            if traced:
                tracer.uninstall()
            pass_latencies = [(t1 - t0) * ref.scale(t0, t1)
                              for t0, t1 in spans]
            walls[traced].append(sum(pass_latencies))
            if not traced:
                raw = sum(t1 - t0 for t0, t1 in spans)
                raw_walls.append(raw)
                latencies.append(pass_latencies)
                cpus.append(walls[False][-1] / raw * (
                    cpu1.ru_utime + cpu1.ru_stime - cpu0.ru_utime
                    - cpu0.ru_stime - (ref.cpu - ref_cpu0)))

            # checks and digests, outside the timed region
            task_digests = {}
            for task, res in zip(tasks, results):
                attempted += 1
                try:
                    if isinstance(res, Exception):
                        raise OperationFailed(f"{type(res).__name__}: {res}")
                    task_digests[task.label] = hashlib.sha256(
                        task.check(res)).hexdigest()
                    continue
                except OperationFailed as exc:
                    task_digests[task.label] = "failed"
                    problems.append(f"failed {task.label}: {exc}")
                except Exception as exc:
                    incorrect = True
                    problems.append(
                        f"INCORRECT {task.label}: {type(exc).__name__}: {exc}")
                failed += 1
            digests.append(task_digests)
    finally:
        shutil.rmtree(out, ignore_errors=True)

    deterministic = all(d == digests[0] for d in digests)
    digest_path = OUT / f"digests-{name}-seed{seed}.json"
    OUT.mkdir(exist_ok=True)
    digest_path.write_text(json.dumps(digests[0], indent=0) + "\n")
    for line in dict.fromkeys(problems):
        print(f"  {line}")
    print(f"{name} seed {seed}: {passes} passes of {len(tasks)} tasks, "
          f"{failed}/{attempted} failed (ops_failed_frac = "
          f"{failed / attempted:.6g} [1]), outputs "
          f"{'correct' if not incorrect else 'INCORRECT'}, passes "
          f"{'identical' if deterministic else 'DIFFER'}; SHA-256 per task "
          f"in {digest_path.relative_to(ROOT)}")

    if trace:
        spans_path = OUT / f"spans-{name}-seed{seed}.jsonl"
        tracer.write(spans_path)
        metrics.update(layer_metrics(tracer.spans, len(walls[True])))
        # the first pass also pays for warming caches and the heap
        metrics["trace.overhead_s"] = (statistics.median(walls[True])
                                       - statistics.median(walls[False][1:]))
        metrics["trace.absent"] = len(tracer.absent)
        print(f"  spans: {spans_path.relative_to(ROOT)}; absent wrappers: "
              f"{', '.join(tracer.absent) or 'none'}")
    else:
        # a task's latency is its median over the passes
        per_task = [statistics.median(times) for times in zip(*latencies)]
        tail, pct = tail_latency(per_task)
        scales = [f"{w / r:.3f}" for w, r in zip(walls[False], raw_walls)]
        metrics["wall_s"] = statistics.median(walls[False])
        metrics["cpu_s"] = statistics.median(cpus)
        metrics["peak_rss_mb"] = peak_kb / 1024.0
        metrics["task_p50_ms"] = 1e3 * statistics.median(per_task)
        metrics["task_tail_ms"] = 1e3 * tail
        print(f"  task_tail_ms is p{pct:.4g} of {len(per_task)} tasks; "
              f"pass walls {', '.join(f'{w:.3f}' for w in raw_walls)} s, "
              f"reference s per s {', '.join(scales)}; "
              f"raw setup_s {raw_setup:.6g} s")

    units = _units()
    for key, value in metrics.items():
        print(f"  {key} = {value:.6g} {units.get(key, '')}")
    return {"correct": not incorrect and deterministic,
            "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units.get(k, "")}
                        for k, v in metrics.items()}}


def _units() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["end_to_end"] + spec["per_layer"]}


def run_all(seed: int, seconds: float, trace: int) -> dict:
    """Each workload in a fresh process; metrics keyed workload.metric."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, check=True,
            timeout=CHILD_TIMEOUT_S)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    return combined


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "drivenbath" / "__init__.py").is_file():
        print(f"error: no drivenbath package under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, args.trace)
    else:
        sys.path.insert(0, str(SRC))
        import drivenbath
        if not Path(drivenbath.__file__).resolve().is_relative_to(
                SRC.resolve()):
            print(f"error: drivenbath imported from {drivenbath.__file__}",
                  file=sys.stderr)
            return 2
        print("env: " + json.dumps(environment()))
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
