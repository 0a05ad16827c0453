"""Command-line frontend.

Subcommands: wcf, wdf, wext, engine, sweep, verify.  Physical defaults
match the reference figure conventions (lambda0 = 0.01, t_int = 100,
l_c = 1); every value can come from an INI-style config file and be
overridden by a flag.  Exit codes: 0 success, 1 numerical/verification
failure, 2 usage or configuration error.

All output files are UTF-8 CSV with a single '#' header row and
17-significant-digit scientific notation, and identical configuration
always produces byte-identical files.
"""

from __future__ import annotations

import argparse
import configparser
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import sweep as sweepmod
from . import thermo, verify, workstats
from .model import (Coupling, DrivenSource, OhmicSpectrum, QubitSpec,
                    SystemSpec, validate)
from .quadrature import QuadratureError

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
        _Setting("bath.lc", "--lc", default=1.0, help="bath cutoff length"),
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
        _Setting("wcf.vmax", "--vmax"),  # default 64 t_int
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
                value = raw.strip().lower() in ("1", "true", "yes", "on")
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
        beta=s["beta"], spectrum=OhmicSpectrum(alpha=s["alpha"], l_c=s["lc"]),
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


def _write_csv(path: Path, header: str, rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# " + header + "\n")
        for row in rows:
            fh.write(",".join("" if cell is None else
                              (cell if isinstance(cell, str) else _fmt(cell))
                              for cell in row) + "\n")


def cmd_wcf(args, s: dict) -> int:
    spec = _build_spec(s)
    if s["nonperturbative"]:
        workstats.require_pure_bath(spec)
    v_max = 64.0 * spec.source.t_int if s["vmax"] is None else s["vmax"]
    samples = s["samples"]
    v = np.linspace(0.0, v_max, samples)
    field = workstats.chi2_field(spec, v)
    chi = field.chi2_values()
    if s["nonperturbative"]:
        chi_full = np.exp(chi - 1.0)
        rows = [(v[i], chi[i].real, chi[i].imag,
                 chi_full[i].real, chi_full[i].imag) for i in range(samples)]
        header = "v,re_chi2,im_chi2,re_chi,im_chi"
    else:
        rows = [(v[i], chi[i].real, chi[i].imag) for i in range(samples)]
        header = "v,re_chi2,im_chi2"
    _write_csv(Path(s["out"]), header, rows)
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
    _write_csv(out, header,
               zip(dist.w_grid.tolist(), dist.density.tolist()))
    if s["nonperturbative"]:
        full = workstats.wdf_nonperturbative(spec)
        header = (f"w,density,atom_weight={_fmt(full.atom_weight)},"
                  f"normalization={_fmt(full.normalization)}")
        _write_csv(_with_suffix(out, "_nonperturbative"), header,
                   zip(full.w_grid.tolist(), full.density.tolist()))
    return 0


def cmd_wext(args, s: dict) -> int:
    value = workstats.w_ext2(_build_spec(s))
    _write_csv(Path(s["out"]), "w_ext2", [(value,)])
    print(f"w_ext2 = {_fmt(value)}")
    return 0


def cmd_engine(args, s: dict) -> int:
    report = thermo.engine_report(_build_spec(s))
    _write_csv(Path(s["out"]),
               "mode,w_bar,delta_s,q_b,q_q,t_h,t_l,r,figure_of_merit",
               [(report.mode.value, report.w_bar, report.delta_s,
                 report.q_b, report.q_q, report.t_h, report.t_l,
                 report.r, report.figure_of_merit)])
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
    out_dir.mkdir(parents=True, exist_ok=True)

    rows = []
    for i, x in enumerate(result.xs):
        for j, y in enumerate(result.ys):
            value = result.grid[i, j]
            rows.append((float(x), float(y),
                         None if np.isnan(value) else float(value)))
    _write_csv(out_dir / "grid.csv", f"{s['x']},{s['y']},{s['quantity']}",
               rows)
    _write_contours(out_dir / "contour.csv", s["x"], s["y"],
                    result.zero_contour)
    _write_contours(out_dir / "betaq.csv", s["x"], s["y"],
                    result.betaq_contour)
    print(f"sweep written to {out_dir} "
          f"({len(result.failures)} failed cells)")
    return 0


def _write_contours(path: Path, x_name: str, y_name: str,
                    polylines) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# {x_name},{y_name}\n")
        for idx, line in enumerate(polylines):
            if idx:
                fh.write("\n")
            for x, y in line:
                fh.write(f"{_fmt(x)},{_fmt(y)}\n")


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


def build_parser() -> argparse.ArgumentParser:
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
