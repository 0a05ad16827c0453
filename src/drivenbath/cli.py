"""Command-line frontend.

Subcommands: wcf, wdf, wext, engine, sweep, verify.  Physical defaults
match the reference figure conventions (lambda0 = 0.01, t_int = 100);
every value is in units of the bath cutoff length, which is therefore no
setting.  Every value can come from an INI-style config file and be
overridden by a flag.  Exit codes: 0 success, 1 numerical/verification
failure, 2 usage or configuration error.

All output files are UTF-8 CSV with a single '#' header row and
17-significant-digit scientific notation, each cell the bytes of
'%.16e' % x.  One numpy kernel, _csv_rows, writes every file in
4,096-row blocks: a Dekker two-product gives each cell's 17 digits on
int64, table words lay down the sign, leading digit and '.', the digits
four at a time and the exponent over a template row, and one
bytes.translate strips the unused bytes.  The 65,536-row all-order wdf
file takes ~15 ms to write (2 vCPUs, AVX-512).  Identical configuration
produces byte-identical files on one BLAS kernel.  Under another
OpenBLAS core type two BLAS products move the last bits: verify, engine
and sweep values by up to 1.4e-13 relative, wcf by up to 7.2e-14 of the
Im chi2 column's max, and the all-order wdf by up to 2.9e-16 of its
peak.  Contour files separate polylines with blank lines, an empty
grid.csv cell is a failed or undefined cell, and engine.csv writes nan
for a dissipator's figure of merit.  main parses with one parser per
process (build_parser is cached).
"""

from __future__ import annotations

import argparse
import configparser
import functools
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import sweep as sweepmod
from . import thermo, verify, workstats
from .model import (Coupling, DrivenSource, OhmicSpectrum, QubitSpec,
                    SystemSpec, validate)
from .quadrature import QuadratureError, default_plan

_QUANTITIES = {q.value: q for q in sweepmod.Quantity}


@dataclass(frozen=True)
class _Setting:
    """One setting: its config key ("section.name"), flag and type.

    The flag overrides the config file, which overrides ``default``; a
    setting without a flag comes from the config file or the default.
    """

    key: str
    flag: Optional[str] = None
    cast: type = float
    default: object = None
    choices: Optional[Sequence[str]] = None
    help: Optional[str] = None


def _common(out: str) -> tuple[_Setting, ...]:
    """Settings of every computing command; ``out`` is its default output."""
    return (
        _Setting("bath.alpha", "--alpha", default=5.0, help="Ohmic exponent"),
        _Setting("bath.beta", "--beta", default=1.0,
                 help="bath inverse temperature"),
        _Setting("drive.lambda0", "--lambda0", default=0.01,
                 help="drive amplitude"),
        _Setting("drive.tint", "--tint", default=100.0,
                 help="drive interaction time"),
        _Setting("qubit.coupling", "--qubit", str, "none",
                 ("none", "spin", "fermion", "topological"),
                 "qubit coupling type"),
        _Setting("qubit.omega", "--omega", default=0.05,
                 help="qubit level spacing"),
        _Setting("qubit.p", "--p", default=1.0,
                 help="qubit ground population"),
        _Setting("output.out", "--out", str, out, help="output path"),
    )


_SCALES = ("linear", "log")

#: settings of each computing command; a config file may carry any of them
_SETTINGS = {
    "wcf": _common("wcf.csv") + (
        _Setting("wcf.vmax", "--vmax"),  # default: default_plan's v_max
        _Setting("wcf.samples", "--samples", int, 201),
        _Setting("wcf.nonperturbative", "--nonperturbative", bool, False),
    ),
    "wdf": _common("wdf.csv") + (
        _Setting("wdf.samples", "--samples", int, 800),
        _Setting("wdf.nonperturbative", "--nonperturbative", bool, False),
    ),
    "wext": _common("wext.csv"),
    "engine": _common("engine.csv"),
    "sweep": _common("sweep_out") + (
        _Setting("sweep.x", "--sweep-x", str,
                 choices=sweepmod.SWEEP_PARAMETERS),
        _Setting("sweep.y", "--sweep-y", str,
                 choices=sweepmod.SWEEP_PARAMETERS),
        # set by --x-range / --y-range together
        _Setting("sweep.x_start"), _Setting("sweep.x_stop"),
        _Setting("sweep.y_start"), _Setting("sweep.y_stop"),
        _Setting("sweep.x_scale", "--x-scale", str, "linear", _SCALES),
        _Setting("sweep.y_scale", "--y-scale", str, "linear", _SCALES),
        _Setting("sweep.nx", "--nx", int, 64),
        _Setting("sweep.ny", "--ny", int, 64),
        _Setting("sweep.quantity", "--quantity", str, "wext",
                 sorted(_QUANTITIES)),
    ),
}

_CONFIG_KEYS = {s.key for settings in _SETTINGS.values() for s in settings}


def _load_config(path: Optional[str]) -> dict:
    """Flat {section.key: string} mapping; unknown keys are rejected,
    as are keys under [DEFAULT] and files configparser cannot parse."""
    if path is None:
        return {}
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path)
        items = {section: parser.items(section)
                 for section in parser.sections()}
    except configparser.Error as exc:
        # one line: configparser spreads some messages over several
        raise ValueError(f"malformed config file {path}: "
                         + " ".join(str(exc).split())) from None
    if not read:
        raise ValueError(f"config file not found: {path}")
    if parser.defaults():
        raise ValueError(f"unknown config section [{parser.default_section}]")
    sections = {key.split(".")[0] for key in _CONFIG_KEYS}
    values: dict[str, str] = {}
    for section, pairs in items.items():
        if section not in sections:
            raise ValueError(f"unknown config section [{section}]")
        for key, value in pairs:
            if f"{section}.{key}" not in _CONFIG_KEYS:
                raise ValueError(
                    f"unknown key {key!r} in config section [{section}]")
            values[f"{section}.{key}"] = value
    return values


def _resolve(args) -> dict:
    """The command's settings by name: flag, then config file, then default."""
    config = _load_config(getattr(args, "config", None))
    values = {}
    for setting in _SETTINGS.get(args.command, ()):
        value = None
        if setting.flag is not None:
            value = getattr(args, setting.flag[2:].replace("-", "_"))
        if value is None and setting.key in config:
            raw = config[setting.key]
            if setting.cast is bool:
                value = configparser.ConfigParser.BOOLEAN_STATES.get(
                    raw.strip().lower())
                if value is None:
                    raise ValueError(f"{setting.key} must be 1/yes/true/on or "
                                     f"0/no/false/off, not {raw!r}")
            else:
                value = setting.cast(raw)
            if setting.choices and value not in setting.choices:
                raise ValueError(
                    f"unknown {setting.key} {value!r} (expected "
                    + "|".join(setting.choices) + ")")
        name = setting.key.split(".")[1]
        values[name] = setting.default if value is None else value
    return values


def _build_spec(s: dict) -> SystemSpec:
    qubit = None
    if s["coupling"] != "none":
        qubit = QubitSpec(coupling=Coupling(s["coupling"]),
                          omega_gap=s["omega"], p_ground=s["p"])
    spec = SystemSpec(
        beta=s["beta"], spectrum=OhmicSpectrum(alpha=s["alpha"]),
        source=DrivenSource(lambda0=s["lambda0"], t_int=s["tint"]),
        qubit=qubit)
    report = validate(spec)
    if not report.is_valid:
        raise ValueError("; ".join(report.errors))
    for warning in report.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return spec


def _fmt(x: float) -> str:
    return f"{x:.16e}"


#: rows formatted by one kernel call and written by one write
_CSV_CHUNK = 4096
#: |x| range the kernel formats itself, where 16 - E spans _S_MIN.._S_MAX
_FAST_MIN, _FAST_MAX, _S_MIN, _S_MAX = 1e-290, 1e290, -274, 307
#: smallest E of _exponent_words, which runs to a carry's 17 - _S_MIN
_E_MIN = 16 - _S_MAX


@functools.cache
def _pow10() -> tuple[np.ndarray, ...]:
    """hi, lo and hi's halves (split at 2**-100 scale, where it cannot
    overflow): hi + lo = 10**s from exact ints, s = _S_MIN.._S_MAX."""
    rows = []
    for s in range(_S_MIN, _S_MAX + 1):
        num, den = 10 ** max(s, 0), 10 ** max(-s, 0)
        a, b = (num / den).as_integer_ratio()
        rows.append((a / b, (num * b - a * den) / (den * b)))
    hi, lo = np.array(rows).T
    t = hi * 2.0 ** -100 * 134217729.0  # 2**27 + 1: Veltkamp's split
    upper = (t - (t - hi * 2.0 ** -100)) * 2.0 ** 100
    return hi, lo, upper, hi - upper


def _scaled(ax: np.ndarray, e: np.ndarray):
    """floor(y) as int64 and y - floor(y) for y = ax * 10**(16 - e): an
    exact Dekker two-product ax * hi plus ax * lo, right to ~5e-15."""
    hi, lo, hh, hl = (table.take(16 - _S_MIN - e) for table in _pow10())
    p = ax * hi
    ah = ax * 134217729.0
    al = ah - ax
    np.subtract(ah, al, out=ah)  # c - (c - ax), c = ax * (2**27 + 1)
    np.subtract(ax, ah, out=al)
    # r = al * hl - (((p - ah * hh) - al * hh) - ah * hl) + ax * lo
    t = np.multiply(ah, hh, out=hi)
    np.subtract(p, t, out=t)
    hh *= al
    t -= hh
    ah *= hl
    t -= ah
    r = np.multiply(al, hl, out=hl)
    r -= t
    lo *= ax
    r += lo
    floor = np.floor(r, out=lo)
    n = p.astype(np.int64)
    n += floor.astype(np.int64)
    return n, np.subtract(r, floor, out=r)


@functools.cache
def _digit_quads() -> np.ndarray:
    """The four ASCII digits of 0..9999 as '<u4' words, first digit first."""
    digits = np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10
    return (digits + 48).astype(np.uint8).view("<u4").ravel()


@functools.cache
def _head_words() -> np.ndarray:
    """Sign (0 for none), leading digit d and '.' as '<u4' words, at
    10 * negative + d; the fourth byte is the first of the 16 digits."""
    words = np.zeros((2, 10, 4), np.uint8)
    words[1, :, 0] = ord("-")
    words[:, :, 1] = np.arange(48, 58)
    words[:, :, 2] = ord(".")
    return words.view("<u4").ravel()


@functools.cache
def _exponent_words() -> np.ndarray:
    """Exponent sign, hundreds digit (0 below 100) and two digits as
    '<u4' words, at E - _E_MIN."""
    e = np.arange(_E_MIN, 18 - _S_MIN)
    a = np.abs(e)
    words = np.stack([np.where(e < 0, ord("-"), ord("+")),
                      np.where(a >= 100, a // 100 + 48, 0),
                      a // 10 % 10 + 48, a % 10 + 48], axis=1)
    return words.astype(np.uint8).view("<u4").ravel()


def _csv_rows(block: np.ndarray, prefix: np.ndarray, seps: np.ndarray,
              blank_nan: bool) -> bytes:
    """``block``'s rows as bytes, each cell as '%.16e' % x gives it.

    Row i starts with seps[i] blank lines and ``prefix``.  A cell with
    _FAST_MIN <= |x| < _FAST_MAX is rounded to 17 digits N * 10**(E - 16)
    on int64 into a 25-byte field: a template row holds 'e', ',' and the
    newline, table words write sign, leading digit and '.', the 16
    digits four at a time and the exponent, and the field's 0 bytes (no
    sign, two exponent digits) are stripped at the end.  _fmt formats the
    other nonzero cells, those within 1e-9 of a tie and those whose log10
    misses E by one (N outside 1e16..1e17), save NaN under ``blank_nan``.
    """
    ax = np.abs(block)
    slow = ~((ax >= _FAST_MIN) & (ax < _FAST_MAX))
    ax[slow] = 1.0  # 0.0 becomes N = 0 below, with E = 0
    e = np.floor(np.log10(ax)).astype(np.int64)
    n, frac = _scaled(ax, e)
    up = frac > 0.5
    exact = (slow & (block != 0.0)) | (np.abs(frac - 0.5) < 1e-9) \
        | (n < 10 ** 16) | (n + up > 10 ** 17)
    n += up
    carry = n == 10 ** 17
    e += carry
    n[carry] = 10 ** 16
    n[slow] = 0
    del ax, frac, up, carry  # the strip below is this call's peak of memory

    rows, cols = block.shape
    width = int(seps.max(initial=0))
    lead = width + prefix.size
    template = np.zeros(lead + 25 * cols, dtype=np.uint8)
    template[width:lead] = prefix
    fields = template[lead:].reshape(cols, 25)
    fields[:, 19], fields[:, 24] = ord("e"), ord(",")
    template[-1] = ord("\n")
    out = np.empty((rows, template.size), dtype=np.uint8)
    out[...] = template
    out[:, :width] = (np.arange(width) < seps[:, None]) * np.uint8(10)

    def words(offset: int) -> np.ndarray:
        """The '<u4' words at byte ``offset`` of every field."""
        return np.ndarray(block.shape, "<u4", out, lead + offset,
                          (out.strides[0], 25))

    # N's halves N // 10**8 and N % 10**8, then each half's 10**4 quotient
    # and remainder: the leading digit times 10**4 plus four digits, and
    # three more groups of four (floor_divide by a scalar beats divmod)
    rem = np.empty((2, rows, cols), dtype=np.int64)
    np.floor_divide(n, 10 ** 8, out=rem[0])
    np.subtract(n, rem[0] * 10 ** 8, out=rem[1])
    quot = rem // 10 ** 4
    rem -= quot * 10 ** 4
    digit = quot[0] // 10 ** 4
    quot[0] -= digit * 10 ** 4
    digit += np.signbit(block) * 10
    # an exact cell's N may be any size; its words are written over below
    words(0)[...] = _head_words().take(digit, mode="clip")
    quads = _digit_quads()
    groups = quot[0], rem[0], quot[1], rem[1]  # digits 1-4 ... 13-16
    for offset, group in zip((3, 7, 11, 15), groups):
        words(offset)[...] = quads.take(group)
    e -= _E_MIN
    words(20)[...] = _exponent_words().take(e)
    if exact.any():
        cell = out[:, lead:].reshape(rows, cols, 25)
        for i, j in zip(*np.nonzero(exact)):
            text = b"" if blank_nan and math.isnan(block[i, j]) \
                else _fmt(block[i, j]).encode()
            cell[i, j, :24] = np.frombuffer(text.ljust(24, b"\0"), np.uint8)
    return out.tobytes().translate(None, b"\0")


def _write_csv(path: Path, header: str, *tables, lead: str = "",
               blank_nan: bool = False) -> None:
    """Write 2-D float tables of one width as %.16e rows under a '#' header.

    ``lead`` starts every row, a blank line separates the tables (a
    contour file's polylines), ``blank_nan`` leaves NaN cells empty, and
    the tables are formatted together, _CSV_CHUNK rows per _csv_rows call.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tables = [np.asarray(t, float) for t in tables] or [np.empty((0, 0))]
    with open(path, "wb") as fh:
        fh.write(("# " + header + "\n").encode())
        cells = tables[0] if len(tables) == 1 else np.concatenate(tables)
        # blank lines before each row; the last entry follows the last row
        ends = np.cumsum([len(t) for t in tables[:-1]], dtype=np.int64)
        seps = np.bincount(ends, minlength=len(cells) + 1)
        prefix = np.frombuffer(lead.encode(), dtype=np.uint8)
        for start in range(0, len(cells), _CSV_CHUNK):
            block = cells[start:start + _CSV_CHUNK]
            fh.write(_csv_rows(block, prefix, seps[start:start + len(block)],
                               blank_nan))
        fh.write(b"\n" * int(seps[-1]))


def cmd_wcf(args, s: dict) -> int:
    spec = _build_spec(s)
    if s["nonperturbative"]:
        workstats.require_pure_bath(spec)
    v_max = default_plan(spec.source).v_max if s["vmax"] is None \
        else s["vmax"]
    samples = s["samples"]
    if samples < 1:
        raise ValueError(f"wcf needs at least 1 sample, got {samples}")
    if not math.isfinite(v_max) or (v_max == 0.0 and samples > 1):
        raise ValueError(f"--vmax must be finite, and nonzero for more "
                         f"than one sample, got {v_max:g}")
    v = np.linspace(0.0, v_max, samples)
    field = workstats.chi2_field(spec, v)
    chi = field.chi2_values()
    columns, header = [v, chi.real, chi.imag], "v,re_chi2,im_chi2"
    if s["nonperturbative"]:
        chi_full = np.exp(chi - 1.0)
        columns += [chi_full.real, chi_full.imag]
        header += ",re_chi,im_chi"
    _write_csv(Path(s["out"]), header, np.column_stack(columns))
    return 0


def _with_suffix(path: Path, tag: str) -> Path:
    return path.with_name(path.stem + tag + path.suffix)


def cmd_wdf(args, s: dict) -> int:
    spec = _build_spec(s)
    if s["nonperturbative"]:
        workstats.require_pure_bath(spec)
    w_grid = workstats.default_w_grid(spec.source, n=s["samples"])
    dist = workstats.wdf2(spec, w_grid=w_grid)
    out = Path(s["out"])
    header = (f"w,density,atom_weight={_fmt(dist.atom_weight)},"
              f"normalization={_fmt(dist.normalization)}")
    _write_csv(out, header, np.column_stack((dist.w_grid, dist.density)))
    if s["nonperturbative"]:
        full = workstats.wdf_nonperturbative(spec)
        header = (f"w,density,atom_weight={_fmt(full.atom_weight)},"
                  f"normalization={_fmt(full.normalization)}")
        _write_csv(_with_suffix(out, "_nonperturbative"), header,
                   np.column_stack((full.w_grid, full.density)))
    return 0


def cmd_wext(args, s: dict) -> int:
    value = workstats.w_ext2(_build_spec(s))
    _write_csv(Path(s["out"]), "w_ext2", [[value]])
    print(f"w_ext2 = {_fmt(value)}")
    return 0


def cmd_engine(args, s: dict) -> int:
    report = thermo.engine_report(_build_spec(s))
    _write_csv(Path(s["out"]),
               "mode,w_bar,delta_s,q_b,q_q,t_h,t_l,r,figure_of_merit",
               [[report.w_bar, report.delta_s, report.q_b, report.q_q,
                 report.t_h, report.t_l, report.r, report.figure_of_merit]],
               lead=report.mode.value + ",")
    print(f"mode = {report.mode.value}, figure_of_merit = "
          f"{_fmt(report.figure_of_merit)}, delta_s = {_fmt(report.delta_s)}")
    return 0


def _parse_range(text: str) -> tuple[float, float]:
    try:
        lo, hi = (float(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"expected 'low,high', got {text!r}") from None
    return lo, hi


def cmd_sweep(args, s: dict) -> int:
    spec = _build_spec(s)
    if s["x"] is None or s["y"] is None:
        raise ValueError("sweep requires --sweep-x and --sweep-y")
    x_start, x_stop = (s["x_start"], s["x_stop"]) if args.x_range is None \
        else _parse_range(args.x_range)
    y_start, y_stop = (s["y_start"], s["y_stop"]) if args.y_range is None \
        else _parse_range(args.y_range)
    if None in (x_start, x_stop, y_start, y_stop):
        raise ValueError("sweep requires ranges for both axes")
    plan = sweepmod.SweepPlan(
        x=sweepmod.Axis(s["x"], x_start, x_stop, s["nx"], s["x_scale"]),
        y=sweepmod.Axis(s["y"], y_start, y_stop, s["ny"], s["y_scale"]),
        fixed=spec)

    result = sweepmod.run_sweep(plan, _QUANTITIES[s["quantity"]])
    out_dir = Path(s["out"])
    xs, ys = np.meshgrid(result.xs, result.ys, indexing="ij")
    _write_csv(out_dir / "grid.csv", f"{s['x']},{s['y']},{s['quantity']}",
               np.column_stack((xs.ravel(), ys.ravel(), result.grid.ravel())),
               blank_nan=True)
    axes = f"{s['x']},{s['y']}"
    _write_csv(out_dir / "contour.csv", axes, *result.zero_contour)
    _write_csv(out_dir / "betaq.csv", axes, *result.betaq_contour)
    print(f"sweep written to {out_dir} "
          f"({len(result.failures)} failed cells)")
    return 0


def cmd_verify(args, s: dict) -> int:
    results = verify.run_all(names=args.checks or None)
    failed = 0
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"{status} {res.name}: worst = {res.worst:.3e} "
              f"(tolerance {res.tolerance:.3e})")
        if args.verbose and res.detail:
            for line in res.detail.splitlines():
                print(f"    {line}")
        failed += 0 if res.passed else 1
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 1 if failed else 0


_COMMANDS = {
    "wcf": ("characteristic function samples", cmd_wcf),
    "wdf": ("work distribution", cmd_wdf),
    "wext": ("work extraction scalar", cmd_wext),
    "engine": ("engine/refrigerator report", cmd_engine),
    "sweep": ("2-D parameter sweep", cmd_sweep),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: parse_args keeps no state in it."""
    parser = argparse.ArgumentParser(
        prog="drivenbath",
        description="Work statistics of a cyclically driven Ohmic bath "
                    "with optional qubit coupling")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, (help_text, func) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        for setting in _SETTINGS[name]:
            if setting.flag is None:
                continue
            if setting.cast is bool:
                command.add_argument(setting.flag, action="store_true",
                                     default=None, help=setting.help)
            else:
                command.add_argument(setting.flag, type=setting.cast,
                                     choices=setting.choices,
                                     help=setting.help)
        command.add_argument("--config", help="INI config file")
        if name == "sweep":
            command.add_argument("--x-range", help="low,high")
            command.add_argument("--y-range", help="low,high")
        command.set_defaults(func=func)

    p_verify = sub.add_parser("verify", help="run the acceptance checks")
    p_verify.add_argument("--verbose", action="store_true",
                          help="print per-check numeric details")
    p_verify.add_argument("--checks", nargs="*",
                          help="subset of check names to run")
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, _resolve(args))
    except (QuadratureError, workstats.ConstraintError,
            workstats.PerturbativeBreakdownError, workstats.InversionError,
            sweepmod.SweepError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
