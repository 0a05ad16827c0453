"""Seeded task lists and correctness checks for the three workloads.

Each workload is a closed loop: one client runs its fixed task list back
to back.  A task is one CLI invocation (``drivenbath.cli.main``) or one
public library call.  The program receives only inputs made from the
workload seed; what the seed may change is chosen so that the regime mix,
and with it the work of a pass, does not change with the seed.

Every task carries a check that runs after the timed pass.  The checks
assert the identities the repository's own acceptance checks assert, at
their tolerances; they are not applied where those checks do not apply.

Library functions are looked up on the ``drivenbath`` package at call
time, so the traced run sees its wrappers.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

import drivenbath as lib
from drivenbath import cli

T_INT = 100.0
LAMBDA0 = 0.01

EPS = float(np.finfo(float).eps)

#: the wcf subcommand's default v grid (v_max = 64 t_int, 201 samples)
WCF_V = np.linspace(0.0, 64.0 * T_INT, 201)


class CheckFailed(Exception):
    """A task's output broke an identity the repository asserts."""


class OperationFailed(Exception):
    """The operation raised or exited non-zero; there is no output to judge."""


@dataclass
class Task:
    """One operation of the closed loop.

    ``run`` does the timed work and returns its result.  ``check`` gets
    that result after the pass, raises :class:`CheckFailed` on a wrong
    output and returns the bytes that go into the run's digest.
    """

    label: str
    run: Callable[[], object]
    check: Callable[[object], bytes]


def _spec(alpha: float, beta: float, qubit=None, lambda0: float = LAMBDA0):
    return lib.SystemSpec(beta=beta, spectrum=lib.OhmicSpectrum(alpha=alpha),
                          source=lib.DrivenSource(lambda0, T_INT), qubit=qubit)


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _finite(*values) -> bytes:
    arrays = [np.asarray(v) for v in values]
    _require(all(np.all(np.isfinite(a)) for a in arrays), "non-finite value")
    return b"".join(np.ascontiguousarray(a).tobytes() for a in arrays)


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


# -- CLI tasks ----------------------------------------------------------------

@dataclass
class CliResult:
    code: int
    output: str
    files: dict


def _cli_task(label: str, argv: list, outputs: list[Path],
              check_files: Callable[[CliResult], None]) -> Task:
    def run() -> CliResult:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            code = cli.main([str(a) for a in argv])
        return CliResult(code, buf.getvalue(), {})

    def check(res: CliResult) -> bytes:
        if res.code != 0:
            raise OperationFailed(
                f"exit {res.code}: {res.output.strip()[-200:]}")
        digest = hashlib.sha256()
        for path in outputs:
            data = path.read_bytes()
            res.files[path.name] = data
            digest.update(path.name.encode() + b"\0" + data)
        check_files(res)
        return digest.digest()

    return Task(label, run, check)


def _csv_rows(data: bytes) -> tuple[str, list[list[str]]]:
    lines = data.decode("utf-8").splitlines()
    _require(bool(lines) and lines[0].startswith("# "), "missing CSV header")
    return lines[0][2:], [ln.split(",") for ln in lines[1:] if ln]


def _csv_array(data: bytes) -> tuple[str, np.ndarray]:
    """Header and values of a CSV without empty cells."""
    header = data[:data.index(b"\n")].decode("utf-8")
    _require(header.startswith("# "), "missing CSV header")
    return header[2:], np.loadtxt(io.BytesIO(data), delimiter=",", ndmin=2)


def _header_value(header: str, key: str) -> float:
    return float(header.split(key + "=")[1].split(",")[0])


# -- sweep-maps ---------------------------------------------------------------

#: the sign-map-topology check's bath and gap.  Drawing them instead (alpha
#: in [4, 6], gap in [0.03, 0.08]) puts a cell next to a zero of W_ext or of
#: the chi2(i beta) deficit for about a third of the draws; adaptive
#: refinement then runs away on that cell (0.5-1.3 M points, 1-2 s), so the
#: work of a pass would depend on the seed.  Runaway refinement is what
#: point-evals measures.
SWEEP_ALPHA = 5.0
SWEEP_GAP = 0.05


def sweep_maps(seed: int, out: Path) -> list[Task]:
    """The paper's three map types through the CLI at its default threads.

    (a) spin p x beta W_ext sign map with the beta_Q marker, 64 x 64;
    (b) fermion gap x beta figure-of-merit map at p = 0.9, 48 x 48;
    (c) topological p x beta entropy-production map, 32 x 32.
    The seed sets the order of the three sweeps.
    """
    beta_axis = ["--sweep-y", "beta", "--y-range", "0.1,100",
                 "--y-scale", "log"]

    def sweep_args(qubit, x, x_range, x_scale, n, quantity, where):
        return ["sweep", "--qubit", qubit, "--alpha", SWEEP_ALPHA,
                "--omega", SWEEP_GAP, "--p", 0.9, "--sweep-x", x,
                "--x-range", x_range, "--x-scale", x_scale, *beta_axis,
                "--nx", n, "--ny", n, "--quantity", quantity, "--out", where]

    def grid_of(res: CliResult, n: int) -> tuple[np.ndarray, np.ndarray]:
        _require("(0 failed cells)" in res.output, "sweep reported failures")
        _, rows = _csv_rows(res.files["grid.csv"])
        _require(len(rows) == n * n, f"grid has {len(rows)} rows")
        xy = np.array([[float(r[0]), float(r[1])] for r in rows])
        vals = np.array([float(r[2]) if r[2] else math.nan for r in rows])
        return xy, vals

    def polylines(data: bytes) -> int:
        _, rows = _csv_rows(data)
        return len(data.decode("utf-8").split("\n\n")) if rows else 0

    def check_sign_map(res: CliResult) -> None:
        _, vals = grid_of(res, 64)
        _require(bool(np.all(np.isfinite(vals))), "non-finite W_ext cell")
        _require(polylines(res.files["contour.csv"]) > 0,
                 "empty zero contour on the spin sign map")
        _require(polylines(res.files["betaq.csv"]) > 0, "empty beta_Q marker")

    def check_fom(res: CliResult) -> None:
        xy, vals = grid_of(res, 48)
        _require(bool(np.isfinite(vals).any()), "no finite figure of merit")
        # the first law and Carnot bounds are asserted on library reports of
        # a fixed sample of cells, which must also reproduce the grid values
        for k in range(0, 48 * 48, 151):
            spec = _spec(SWEEP_ALPHA, float(xy[k, 1]), lib.QubitSpec(
                lib.Coupling.FERMION, float(xy[k, 0]), 0.9))
            report = lib.engine_report(spec)
            _check_engine(report)
            fom = report.figure_of_merit
            _require((math.isnan(fom) and math.isnan(vals[k]))
                     or _rel(fom, vals[k]) <= 1e-8,
                     f"grid figure of merit {vals[k]!r} != report {fom!r}")

    def check_delta_s(res: CliResult) -> None:
        _, vals = grid_of(res, 32)
        _require(bool(np.all(np.isfinite(vals))), "non-finite delta-s cell")

    def task(label, qubit, x, x_range, x_scale, n, quantity, where, check):
        files = [out / where / f for f in ("grid.csv", "contour.csv",
                                           "betaq.csv")]
        return _cli_task(label, sweep_args(qubit, x, x_range, x_scale, n,
                                           quantity, out / where),
                         files, check)

    tasks = [
        task("sweep.spin.wext", "spin", "p", "0,1", "linear", 64, "wext",
             "signmap", check_sign_map),
        task("sweep.fermion.fom", "fermion", "omega_gap", "0.01,1", "log", 48,
             "figure-of-merit", "fom", check_fom),
        task("sweep.topological.delta_s", "topological", "p", "0,1",
             "linear", 32, "delta-s", "deltas", check_delta_s),
    ]
    order = np.random.default_rng(seed).permutation(len(tasks))
    return [tasks[i] for i in order]


def _check_engine(report) -> None:
    """First law and Carnot bounds at the engine-bounds check's 1e-10.

    delta_s = beta W + ln chi2(i beta) carries one rounding of the log,
    about eps, which the figure of merit multiplies by T/|W|.  Where |W|
    sits near 1e-15 (small gaps, large alpha) that alone exceeds 1e-10,
    so the bound adds it; measured overshoots stay below half of it.
    """
    _require(abs(report.q_b + report.q_q - report.w_bar) <= 1e-10,
             "first law violated")
    mode, fom, r = report.mode, report.figure_of_merit, report.r
    if mode is lib.EngineMode.HEAT_ENGINE:
        carnot, temperature = 1.0 - r, report.t_l
    elif mode is lib.EngineMode.REFRIGERATOR:
        carnot, temperature = r / (1.0 - r), report.t_h
    else:
        return
    slack = 1e-10 + carnot * temperature * EPS / abs(report.w_bar)
    _require(-slack <= fom <= carnot + slack,
             f"{mode.value} figure of merit {fom!r} outside "
             f"[0, {carnot!r}] by more than {slack:.3e}")


# -- wdf-inversion ------------------------------------------------------------

#: pure-bath alpha strata; alpha = 0.5 and 2 are refused with
#: ConstraintError (negative all-order density) for every beta in the band,
#: and those refusals count as failed operations
WDF_ALPHAS = (0.5, 1.0, 2.0, 5.0)
WDF_BETA_BAND = (0.2, 5.0)


def wdf_inversion(seed: int, out: Path) -> list[Task]:
    """All-order distributions by FFT inversion, the lambda^4 pair, one wcf."""
    rng = np.random.default_rng(seed)
    betas = [float(b) for b in np.exp(rng.uniform(
        *np.log(WDF_BETA_BAND), size=len(WDF_ALPHAS)))]
    tasks = []
    for alpha, beta in zip(WDF_ALPHAS, betas):
        path = out / f"wdf_a{alpha:g}.csv"
        full = path.with_name(path.stem + "_nonperturbative.csv")
        spec = _spec(alpha, beta)
        tasks.append(_cli_task(
            f"wdf.nonperturbative.alpha{alpha:g}",
            ["wdf", "--qubit", "none", "--alpha", alpha, "--beta", beta,
             "--nonperturbative", "--out", path],
            [path, full],
            lambda res, spec=spec, path=path, full=full:
                _check_wdf_files(res, spec, path.name, full.name)))

    lam4 = {}
    beta5 = betas[WDF_ALPHAS.index(5.0)]
    for lam in (0.01, 0.005):
        def run(lam=lam):
            return lib.correction_field(_spec(5.0, beta5, lambda0=lam))

        def check(res, lam=lam):
            w, diff = res
            lam4[lam] = float(np.max(np.abs(diff)))
            if lam == 0.005:
                ratio = lam4[0.01] / lam4[0.005]
                _require(14.0 <= ratio <= 18.0,
                         f"lambda^4 ratio {ratio!r} outside [14, 18]")
            return _finite(w, diff)
        tasks.append(Task(f"correction_field.lambda{lam:g}", run, check))

    wcf = out / "wcf.csv"
    beta1 = betas[WDF_ALPHAS.index(1.0)]
    tasks.append(_cli_task(
        "wcf.nonperturbative",
        ["wcf", "--qubit", "none", "--alpha", 1.0, "--beta", beta1,
         "--nonperturbative", "--out", wcf], [wcf], _check_wcf_file))
    return tasks


def _check_wdf_files(res: CliResult, spec, second: str, full: str) -> None:
    header, values = _csv_array(res.files[full])
    _require(len(values) == 1 << 16, f"{len(values)} rows in the inversion")
    norm = _header_value(header, "normalization")
    _require(abs(norm - 1.0) <= 1e-6, f"normalization off by {norm - 1:.3e}")
    w, dens = values.T
    _require(bool(np.all(dens >= 0.0)), "negative density written")
    # first moment of the all-order distribution = second-order mean work
    moment = float(np.trapezoid(w * dens, w))
    mean = -lib.w_ext2(spec)
    _require(_rel(moment, mean) <= 1e-6,
             f"first moment {moment!r} vs mean work {mean!r}")
    header2, _ = _csv_array(res.files[second])
    norm2 = _header_value(header2, "normalization")
    _require(abs(norm2 - 1.0) <= 1e-6, f"second-order normalization {norm2!r}")


def _check_wcf_file(res: CliResult) -> None:
    _, values = _csv_array(res.files["wcf.csv"])
    _require(values.shape == (201, 5), f"wcf shape {values.shape}")
    _require(bool(np.all(values[0, 1:] == (1.0, 0.0, 1.0, 0.0))),
             f"chi(0) row is {values[0].tolist()}")


# -- point-evals --------------------------------------------------------------

def oracle_specs() -> list:
    """The quadrature-oracle check's specs.

    Only these are compared with the trapezoid rule at 1e-8; on arbitrary
    specs the trapezoid rule itself has not converged to that level.
    """
    q = lib.QubitSpec
    return [
        _spec(0.5, 1.0), _spec(5.0, 1.0),
        _spec(0.5, 100.0, q(lib.Coupling.SPIN, 0.05, 0.8)),
        _spec(1.0, 10.0, q(lib.Coupling.FERMION, 1.0, 0.3)),
        _spec(2.0, 1000.0, q(lib.Coupling.TOPOLOGICAL, 5.0, 0.9)),
    ]


#: seeds the fixed part of the point-evals design: which strata of alpha,
#: beta, gap and p meet in one spec, and which specs get chi2(1e-2)
DESIGN_SEED = 20251017


def _stratum_values(strata: np.ndarray, n: int, lo: float, hi: float,
                    u: np.ndarray, log: bool = True) -> np.ndarray:
    """Position u in [0, 1) inside stratum k of n equal strata of [lo, hi]."""
    a, b = (math.log(lo), math.log(hi)) if log else (lo, hi)
    x = a + (strata + u) / n * (b - a)
    return np.exp(x) if log else x


def point_specs(seed: int) -> list:
    """12 pure-bath, 12 spin, 12 fermion and 12 topological specs.

    Per kind: alpha log-uniform on [0.3, 6] with 5 of 12 below 1, beta
    log-uniform on [0.1, 1e3] and the gap on [0.003, 5], one spec per
    stratum; p is 0 twice, 1 twice and one per eighth of (0, 1)
    otherwise, so 6 of the 12 qubit specs of a kind have p > 1/2.

    Which strata meet in one spec is fixed; the seed only places each
    value inside its stratum.  Adaptive refinement runs away on specs
    where an integral nearly vanishes (small W with a sub-Ohmic bath and
    a gap inside the drive window, for example), so letting the seed pair
    the strata too would change the work of a pass by up to 75%.
    """
    design = np.random.default_rng(DESIGN_SEED)
    rng = np.random.default_rng(seed)
    specs = []
    for kind in (None, *lib.Coupling):
        alpha_strata = design.permutation(12)
        beta_strata = design.permutation(12)
        gap_strata = design.permutation(12)
        p_slots = design.permutation(12)
        u = rng.random((4, 12))
        alphas = np.where(
            alpha_strata < 5,
            _stratum_values(alpha_strata, 5, 0.3, 1.0, u[0]),
            _stratum_values(alpha_strata - 5, 7, 1.0, 6.0, u[0]))
        lowest_alphas = np.where(alpha_strata < 5, _stratum_values(
            alpha_strata, 5, 0.3, 1.0, 0.0), 1.0)
        def gaps(u):
            return _stratum_values(gap_strata, 12, 0.003, 5.0, u)

        def ps(u):
            return np.where(p_slots < 4, (p_slots >= 2).astype(float),
                            _stratum_values(p_slots - 4, 8, 0.0, 1.0, u,
                                            log=False))
        # Sub-Ohmic baths at high temperature leave the perturbative regime
        # (channel-sum integral >= 2, which wdf2 refuses).  Strata are
        # re-paired, whatever the seed, until the lower corner of each
        # spec's strata keeps the no-transition weight above 1/2.
        corner_gaps, corner_ps = gaps(0.0), ps(0.0)

        def corner(i, j):
            return _spec(float(lowest_alphas[i]),
                         float(_stratum_values(beta_strata[j], 12, 0.1,
                                               1000.0, 0.0)),
                         _qubit(kind, corner_gaps[i], corner_ps[i]))
        for i in range(12):
            if _perturbative(corner(i, i)):
                continue
            for j in range(12):
                if _perturbative(corner(i, j)) and _perturbative(corner(j, i)):
                    beta_strata[[i, j]] = beta_strata[[j, i]]
                    break
            else:
                raise ValueError(f"no perturbative beta stratum for spec {i}")
        betas = _stratum_values(beta_strata, 12, 0.1, 1000.0, u[1])
        gap_values, p_values = gaps(u[2]), ps(u[3])
        specs += [_spec(float(alphas[i]), float(betas[i]),
                        _qubit(kind, gap_values[i], p_values[i]))
                  for i in range(12)]
    return specs


def _qubit(kind, gap: float, p: float):
    return None if kind is None else lib.QubitSpec(kind, float(gap), float(p))


def _perturbative(spec) -> bool:
    return lib.positivity_check(spec).value < 1.0


def point_evals(seed: int, out: Path) -> list[Task]:
    """Independent library calls on the stratified specs plus the oracle set.

    A fixed quarter of the specs, 3 of each kind, also get chi2 at 1e-2.
    """
    design = np.random.default_rng([DESIGN_SEED, 1])
    small_v = {12 * k + int(j) for k in range(4)
               for j in design.choice(12, size=3, replace=False)}
    tasks = []
    for i, spec in enumerate(point_specs(seed)):
        tasks += _spec_tasks(f"s{i}", spec, oracle=False,
                             small_v=i in small_v)
    for i, spec in enumerate(oracle_specs()):
        tasks += _spec_tasks(f"oracle{i}", spec, oracle=True, small_v=False)
    return tasks


def _spec_tasks(tag: str, spec, oracle: bool, small_v: bool) -> list[Task]:
    pure = spec.qubit is None
    drive_grid = lib.FrequencyGrid.for_source(spec.source)

    def against_oracle(value, fn, grid):
        if oracle:
            reference = fn(spec, replace(grid, rule=lib.Rule.TRAPEZOID,
                                         n_points=1 << 16))
            _require(_rel(value, reference) <= 1e-8,
                     f"{value!r} vs trapezoid oracle {reference!r}")

    def check_w_ext(value):
        if pure:
            _require(value <= 1e-14, f"pure-bath W_ext = {value!r} > 0")
        against_oracle(value, lib.w_ext2, drive_grid)
        return _finite(value)

    def check_chi_ib(value):
        if pure:
            _require(abs(value - 1.0) <= 1e-8,
                     f"pure-bath |chi2(i beta) - 1| = {abs(value - 1):.3e}")
        against_oracle(value, lib.chi2_at_i_beta,
                       lib.workstats.default_i_beta_grid(spec))
        return _finite(value)

    def chi2_task(v):
        def check(value):
            if v == 37.7:
                against_oracle(value, lambda s, g: lib.chi2(37.7, s, g),
                               drive_grid)
            return _finite(value)
        return Task(f"{tag}.chi2({v:g})", lambda: lib.chi2(v, spec), check)

    def check_field(field):
        values = field.chi2_values()
        _require(abs(values[0] - 1.0) <= 1e-12,
                 f"chi2_field at v = 0 is {values[0]!r}")
        return _finite(field.p0, values)

    def check_wdf2(dist):
        _require(0.0 < dist.atom_weight <= 1.0,
                 f"atom weight {dist.atom_weight!r}")
        _require(bool(np.all(dist.density >= 0.0)), "negative density")
        return _finite(dist.atom_weight, dist.w_grid, dist.density)

    def check_engine(report):
        _check_engine(report)
        return report.mode.value.encode() + _finite(
            report.w_bar, report.delta_s, report.q_b, report.q_q) + \
            np.float64(report.figure_of_merit).tobytes()

    tasks = [
        Task(f"{tag}.w_ext2", lambda: lib.w_ext2(spec), check_w_ext),
        Task(f"{tag}.chi2_at_i_beta", lambda: lib.chi2_at_i_beta(spec),
             check_chi_ib),
        chi2_task(1.0), chi2_task(37.7),
        Task(f"{tag}.chi2_field", lambda: lib.chi2_field(spec, WCF_V),
             check_field),
        Task(f"{tag}.wdf2", lambda: lib.wdf2(spec), check_wdf2),
    ]
    if small_v:
        tasks.append(chi2_task(1e-2))
    if not pure and spec.qubit.p_ground > 0.5:
        tasks.append(Task(f"{tag}.engine_report",
                          lambda: lib.engine_report(spec), check_engine))
    return tasks


WORKLOADS: dict[str, Callable[[int, Path], list[Task]]] = {
    "sweep-maps": sweep_maps,
    "wdf-inversion": wdf_inversion,
    "point-evals": point_evals,
}
