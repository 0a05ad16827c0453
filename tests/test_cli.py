import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drivenbath import cli, workstats
from drivenbath.cli import _CSV_CHUNK, _write_csv, main

from conftest import make_spec


def run(args):
    return main([str(a) for a in args])


def read_rows(path):
    header = None
    rows = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                header = line[1:].strip()
            elif line:
                rows.append(line.split(","))
    return header, rows


class TestWcf:
    def test_default_first_row_is_unity(self, tmp_path):
        out = tmp_path / "wcf.csv"
        assert run(["wcf", "--qubit", "none", "--samples", "32",
                    "--out", out]) == 0
        header, rows = read_rows(out)
        assert header == "v,re_chi2,im_chi2"
        assert len(rows) == 32
        v0, re0, im0 = (float(x) for x in rows[0])
        assert v0 == 0.0 and re0 == 1.0 and im0 == 0.0

    def test_nonperturbative_needs_pure_bath(self, tmp_path, capsys):
        code = run(["wcf", "--qubit", "spin", "--nonperturbative",
                    "--out", tmp_path / "x.csv"])
        assert code == 2
        assert "pure thermal bath" in capsys.readouterr().err

    def test_nonperturbative_columns(self, tmp_path):
        out = tmp_path / "wcf.csv"
        assert run(["wcf", "--qubit", "none", "--samples", "16",
                    "--nonperturbative", "--out", out]) == 0
        header, rows = read_rows(out)
        assert header == "v,re_chi2,im_chi2,re_chi,im_chi"
        assert len(rows) == 16


    @pytest.mark.parametrize("samples", ["0", "-4"])
    def test_empty_sample_count_is_usage_error(self, tmp_path, capsys,
                                               samples):
        out = tmp_path / "wcf.csv"
        assert run(["wcf", "--samples", samples, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err == f"error: wcf needs at least 1 sample, got {samples}\n"
        assert not out.exists()

    @pytest.mark.parametrize("vmax", ["0", "nan", "inf"])
    def test_degenerate_window_is_usage_error(self, tmp_path, capsys, vmax):
        # refused before chi2_field sees the grid, and before numpy warns
        out = tmp_path / "wcf.csv"
        assert run(["wcf", "--vmax", vmax, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err == ("error: --vmax must be finite, and nonzero for more "
                       f"than one sample, got {float(vmax):g}\n")
        assert list(tmp_path.iterdir()) == []

    def test_oversized_node_set_is_usage_error(self, tmp_path, capsys):
        # ~1.5x the node cap: refused before the nodes are built (without
        # the guard, two samples would still fit in a few tens of MB)
        out = tmp_path / "wcf.csv"
        assert run(["wcf", "--vmax", "2.3e6", "--samples", "2",
                    "--out", out]) == 2
        err = capsys.readouterr().err
        assert "needs 197,440 quadrature nodes, above the cap of 131,072" \
            in err
        assert not out.exists()


class TestWdf:
    @pytest.mark.parametrize("samples", ["0", "-4"])
    def test_empty_sample_count_is_usage_error(self, tmp_path, capsys,
                                               samples):
        out = tmp_path / "wdf.csv"
        assert run(["wdf", "--samples", samples, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err == ("error: a work grid needs at least 2 samples, "
                       f"got {samples}\n")
        assert list(tmp_path.iterdir()) == []

    def test_header_carries_atom_and_normalization(self, tmp_path):
        out = tmp_path / "wdf.csv"
        assert run(["wdf", "--qubit", "none", "--alpha", "5", "--beta", "1",
                    "--out", out]) == 0
        header, rows = read_rows(out)
        assert "atom_weight=" in header and "normalization=" in header
        norm = float(header.split("normalization=")[1].split(",")[0])
        assert abs(norm - 1.0) < 1e-6
        assert len(rows) == 800

    def test_asymmetry_grows_with_beta(self, tmp_path):
        asymmetry = []
        for beta in (0.5, 1.0, 2.0):
            out = tmp_path / f"wdf_{beta}.csv"
            assert run(["wdf", "--qubit", "none", "--alpha", "5",
                        "--beta", beta, "--out", out]) == 0
            _, rows = read_rows(out)
            w = np.array([float(r[0]) for r in rows])
            dens = np.array([float(r[1]) for r in rows])
            plus = dens[w > 0].sum()
            minus = dens[w < 0].sum()
            asymmetry.append((plus - minus) / (plus + minus))
        assert asymmetry[0] < asymmetry[1] < asymmetry[2]

    def test_spin_peak_dominates_other_couplings(self, tmp_path):
        peaks = {}
        for coupling in ("spin", "fermion", "topological"):
            out = tmp_path / f"wdf_{coupling}.csv"
            assert run(["wdf", "--qubit", coupling, "--alpha", "5",
                        "--beta", "1", "--p", "1.0", "--omega", "0.05",
                        "--out", out]) == 0
            _, rows = read_rows(out)
            peaks[coupling] = max(float(r[1]) for r in rows)
        assert peaks["spin"] > 10.0 * peaks["fermion"]
        assert peaks["spin"] > 10.0 * peaks["topological"]

    def test_nonperturbative_writes_second_file(self, tmp_path):
        out = tmp_path / "wdf.csv"
        assert run(["wdf", "--qubit", "none", "--nonperturbative",
                    "--out", out]) == 0
        assert (tmp_path / "wdf_nonperturbative.csv").exists()


class TestWextEngine:
    def test_pure_bath_extraction_nonpositive(self, tmp_path, capsys):
        out = tmp_path / "wext.csv"
        assert run(["wext", "--qubit", "none", "--out", out]) == 0
        _, rows = read_rows(out)
        assert float(rows[0][0]) <= 1e-14

    def test_engine_rejects_inverted_population(self, tmp_path, capsys):
        code = run(["engine", "--qubit", "spin", "--p", "0.4",
                    "--out", tmp_path / "e.csv"])
        assert code == 2
        assert "p > 1/2" in capsys.readouterr().err

    def test_engine_at_matched_temperatures_is_usage_error(self, tmp_path,
                                                          capsys):
        # at this population beta_q equals beta = 1: no heat split exists
        out = tmp_path / "e.csv"
        code = run(["engine", "--qubit", "spin", "--alpha", "5", "--beta",
                    "1", "--omega", "0.05", "--p", "0.5124973964842103",
                    "--out", out])
        assert code == 2
        assert "error: heat split undefined" in capsys.readouterr().err
        assert not out.exists()

    def test_constraint_violation_stays_numerical_failure(self, tmp_path,
                                                          capsys):
        # ConstraintError is a ValueError, but it is not a usage error
        assert run(["wdf", "--qubit", "none", "--lambda0", "1e4",
                    "--out", tmp_path / "w.csv"]) == 1
        assert "numerical failure: positivity" in capsys.readouterr().err

    def test_engine_report_fields(self, tmp_path):
        out = tmp_path / "engine.csv"
        assert run(["engine", "--qubit", "spin", "--p", "0.9",
                    "--beta", "1", "--alpha", "5", "--omega", "0.05",
                    "--out", out]) == 0
        header, rows = read_rows(out)
        assert header.split(",") == ["mode", "w_bar", "delta_s", "q_b",
                                     "q_q", "t_h", "t_l", "r",
                                     "figure_of_merit"]
        mode = rows[0][0]
        assert mode in ("heat-engine", "refrigerator", "dissipator",
                        "degenerate")
        w_bar, delta_s, q_b, q_q = (float(x) for x in rows[0][1:5])
        assert q_b + q_q == pytest.approx(w_bar, abs=1e-12)
        assert delta_s >= -1e-10

    def test_dissipator_figure_of_merit_is_nan(self, tmp_path):
        out = tmp_path / "engine.csv"
        assert run(["engine", "--qubit", "spin", "--p", "0.9",
                    "--beta", "10", "--omega", "0.5", "--out", out]) == 0
        line = out.read_text().splitlines()[1]
        assert line.startswith("dissipator,") and line.endswith(",nan")
        assert line.count(",") == 8


class TestSweep:
    def test_writes_grid_and_sidecars(self, tmp_path):
        out = tmp_path / "sweepdir"
        assert run(["sweep", "--qubit", "spin", "--alpha", "5",
                    "--omega", "0.05", "--sweep-x", "p",
                    "--x-range", "0,1", "--sweep-y", "beta",
                    "--y-range", "0.1,100", "--y-scale", "log",
                    "--nx", "16", "--ny", "16", "--quantity", "wext",
                    "--out", out]) == 0
        header, rows = read_rows(out / "grid.csv")
        assert header == "p,beta,wext"
        assert len(rows) == 256
        assert (out / "contour.csv").exists()
        assert (out / "betaq.csv").exists()
        contour_text = (out / "contour.csv").read_text()
        assert len(contour_text.splitlines()) > 2

    def test_undefined_cells_are_empty(self, tmp_path):
        # the dissipator cells of a fermion figure-of-merit map are NaN
        out = tmp_path / "fom"
        assert run(["sweep", "--qubit", "fermion", "--p", "0.9",
                    "--sweep-x", "omega_gap", "--x-range", "0.01,1",
                    "--x-scale", "log", "--sweep-y", "beta",
                    "--y-range", "0.1,100", "--y-scale", "log",
                    "--nx", "16", "--ny", "16",
                    "--quantity", "figure-of-merit", "--out", out]) == 0
        text = (out / "grid.csv").read_text()
        _, rows = read_rows(out / "grid.csv")
        values = [row[2] for row in rows]
        assert "nan" not in text and 0 < values.count("") < len(values)
        assert all(len(row) == 3 and float(row[0]) > 0 and float(row[1]) > 0
                   for row in rows)

    def test_missing_axes_is_usage_error(self, tmp_path, capsys):
        assert run(["sweep", "--qubit", "spin",
                    "--out", tmp_path / "d"]) == 2

    @pytest.mark.parametrize("axis", [
        ["--x-range", "0,1", "--y-range", "1,inf"],
        ["--x-range", "0,nan", "--y-range", "1,10"],
    ], ids=["y-inf", "x-nan"])
    def test_non_finite_range_is_usage_error(self, tmp_path, capsys,
                                             monkeypatch, axis):
        import drivenbath.sweep as sweepmod

        def no_integrals(*args, **kwargs):
            raise AssertionError("integrated before refusing the range")

        monkeypatch.setattr(sweepmod, "work_integrals", no_integrals)
        out = tmp_path / "sweep"
        code = run(["sweep", "--qubit", "spin", "--p", "0.9",
                    "--sweep-x", "p", "--sweep-y", "beta", *axis,
                    "--nx", "16", "--ny", "16", "--out", out])
        assert code == 2
        assert capsys.readouterr().err == "error: axis range must be finite\n"
        assert not out.exists()

    def test_byte_identical_reruns(self, tmp_path):
        args = ["wdf", "--qubit", "none", "--alpha", "2", "--beta", "1"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(args + ["--out", out1]) == 0
        assert run(args + ["--out", out2]) == 0
        assert out1.read_bytes() == out2.read_bytes()


#: cells the writer must format as the f-string "{:.16e}" does
_EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                1.7976931348623157e308, -1.7976931348623157e308, 1e-308,
                math.inf, -math.inf)


class TestCsvWriter:
    @pytest.mark.parametrize("n_rows", [0, 1, _CSV_CHUNK - 1, _CSV_CHUNK,
                                        _CSV_CHUNK + 1])
    @given(st.lists(st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats()),
                    min_size=1, max_size=40),
           st.integers(1, 5))
    @settings(max_examples=10, deadline=None)
    def test_bytes_match_per_cell_formatting(self, tmp_path_factory, n_rows,
                                             cells, n_cols):
        rows = np.resize(np.array(cells), (n_rows, n_cols))
        path = tmp_path_factory.mktemp("csv") / "t.csv"
        _write_csv(path, "h", rows)
        assert path.read_bytes() == ("# h\n" + "".join(
            ",".join(f"{x:.16e}" for x in row) + "\n"
            for row in rows.tolist())).encode()

    def test_lead_tables_and_empty_nan(self, tmp_path):
        path = tmp_path / "t.csv"
        _write_csv(path, "a,b", [[1.0, math.nan]], [[-0.0, 2.5]],
                   lead="m,", blank_nan=True)
        assert path.read_text() == ("# a,b\nm,1.0000000000000000e+00,\n"
                                    "\nm,-0.0000000000000000e+00,"
                                    "2.5000000000000000e+00\n")


def _reference_csv(tables, lead="", blank_nan=False):
    """Rows of ``tables`` by per-cell f"{x:.16e}", the tables' texts
    joined by blank lines."""
    def cell(x):
        return "" if blank_nan and math.isnan(x) else f"{x:.16e}"
    return "\n".join("".join(lead + ",".join(map(cell, row)) + "\n"
                             for row in np.asarray(table).tolist())
                     for table in tables)


def _assert_text(path, expected):
    """The file reads ``expected``; a mismatch names its first lines."""
    got, want = path.read_text().split("\n"), expected.split("\n")
    assert [(a, b) for a, b in zip(got, want) if a != b][:3] == []
    assert len(got) == len(want)


def _structured_floats(rng):
    """Powers of ten and their neighbours, the fast-range edges, rounding
    ties, carries to 10**17, subnormals and the non-finite values."""
    values = []
    for k in range(-323, 309):
        x = float(f"1e{k}")
        values += [x, np.nextafter(x, 0.0), np.nextafter(x, math.inf)]
    for x in (1e-290, 1e290):
        values += [x, np.nextafter(x, 0.0), np.nextafter(x, math.inf)]
    # k + 0.25 and k + 0.75 with 16 integer digits are exact ties
    ties = rng.integers(10 ** 15, 2 ** 51, 2000).astype(float)
    values += list(ties + 0.25) + list(ties + 0.75)
    values += list(rng.integers(0, 2 ** 51, 2000) + 0.25)
    for k in range(-300, 300, 3):
        x = float(f"9.99999999999999995e{k}")
        values += [x, np.nextafter(x, 0.0), np.nextafter(x, math.inf)]
    values += list(rng.integers(1, 2 ** 52, 2000, dtype=np.int64)
                   .view(np.float64))  # subnormals
    values += [0.0, 5e-324, 2.2250738585072009e-308, 1.7976931348623157e308,
               math.inf, math.nan]
    values = np.array(values)
    return np.concatenate([values, -values])


class TestCsvKernel:
    """The numpy kernel behind _write_csv against Python's %.16e."""

    @pytest.mark.parametrize("n_cols, lead, blank_nan", [
        (1, "", False), (2, "m,", True), (3, "", True), (4, "mode,", False),
        (5, "", False)])
    def test_bytes_match_python_formatting(self, tmp_path, n_cols, lead,
                                           blank_nan):
        # 40,000 random bit patterns a case, 200,000 over the five
        rng = np.random.default_rng(n_cols)
        bits = rng.integers(0, 2 ** 64, 40_000, dtype=np.uint64,
                            endpoint=False)
        values = np.concatenate([bits.view(np.float64),
                                 _structured_floats(rng)])
        values = rng.permutation(values)[:len(values) // n_cols * n_cols]
        table = values.reshape(-1, n_cols)
        path = tmp_path / "t.csv"
        _write_csv(path, "h", table, lead=lead, blank_nan=blank_nan)
        _assert_text(path, "# h\n" + _reference_csv([table], lead,
                                                    blank_nan))

    def test_empty_tables_keep_their_separators(self, tmp_path):
        tables = [np.empty((0, 2)), [[1.0, 2.0]], np.empty((0, 2)),
                  [[3.0, math.nan]], np.empty((0, 2)), np.empty((0, 2))]
        path = tmp_path / "t.csv"
        _write_csv(path, "a,b", *tables, blank_nan=True)
        assert path.read_text() == "# a,b\n" + _reference_csv(tables,
                                                              blank_nan=True)
        _write_csv(path, "a,b")
        assert path.read_text() == "# a,b\n"

    def test_wdf_nonperturbative_table_needs_no_fallback(self, tmp_path,
                                                         monkeypatch):
        # every cell of the all-order alpha 5 file is certified by the
        # kernel, one call per block: none is handed to Python's formatting
        full = workstats.wdf_nonperturbative(make_spec(alpha=5.0))
        table = np.column_stack((full.w_grid, full.density))
        blocks, fallbacks = [], []
        kernel, fmt = cli._csv_rows, cli._fmt
        monkeypatch.setattr(cli, "_csv_rows",
                            lambda *a: blocks.append(a) or kernel(*a))
        monkeypatch.setattr(cli, "_fmt",
                            lambda x: fallbacks.append(x) or fmt(x))
        path = tmp_path / "wdf.csv"
        _write_csv(path, "w,density", table)
        assert len(table) == 1 << 16
        assert len(blocks) == (1 << 16) // _CSV_CHUNK and fallbacks == []
        _assert_text(path, "# w,density\n" + _reference_csv([table]))

    def test_powers_of_ten_match_python_formatting(self, tmp_path):
        # log10 is off by one next to some powers of ten
        x = 10.0 ** np.arange(-289, 290)
        table = np.column_stack([x, np.nextafter(x, 0.0),
                                 np.nextafter(x, math.inf)])
        path = tmp_path / "t.csv"
        _write_csv(path, "h", table, -table)
        _assert_text(path, "# h\n" + _reference_csv([table, -table]))

    def test_polylines_share_blocks(self, tmp_path, monkeypatch):
        # 50 tables are formatted in _CSV_CHUNK-row blocks, not per table
        rng = np.random.default_rng(7)
        lines = [rng.standard_normal((int(n), 2))
                 for n in rng.integers(2, 200, 50)]
        rows = sum(len(line) for line in lines)
        calls = []
        kernel = cli._csv_rows
        monkeypatch.setattr(cli, "_csv_rows",
                            lambda *a: calls.append(len(a[0])) or kernel(*a))
        path = tmp_path / "contour.csv"
        _write_csv(path, "p,beta", *lines)
        assert len(calls) == -(-rows // _CSV_CHUNK) and sum(calls) == rows
        _assert_text(path, "# p,beta\n" + _reference_csv(lines))

    def test_import_leaves_out_fractions_and_decimal(self):
        # the powers of ten come from Python ints, built on first use
        src = Path(cli.__file__).parents[1]
        code = ("import sys, drivenbath.cli; "
                "print(sorted({'fractions', 'decimal'} & set(sys.modules)))")
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": str(src)})
        assert out.stdout == "[]\n"


class TestConfig:
    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[bath]\nalpha = 2.0\nbeta = 3.0\n"
                       "[qubit]\ncoupling = none\n")
        out = tmp_path / "wext.csv"
        assert run(["wext", "--config", cfg, "--beta", "5.0",
                    "--out", out]) == 0
        # flag beta overrides config beta; config alpha applies
        reference = tmp_path / "ref.csv"
        assert run(["wext", "--alpha", "2.0", "--beta", "5.0",
                    "--qubit", "none", "--out", reference]) == 0
        assert out.read_bytes() == reference.read_bytes()

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[bath]\nalfa = 2.0\n")
        assert run(["wext", "--config", cfg]) == 2
        assert "unknown key" in capsys.readouterr().err

    def test_cutoff_length_is_not_a_setting(self, tmp_path, capsys):
        # l_c = 1 is the unit, so neither the flag nor the key exists
        out = tmp_path / "wext.csv"
        with pytest.raises(SystemExit) as exc:
            run(["wext", "--lc", "2", "--out", out])
        assert exc.value.code == 2
        cfg = tmp_path / "lc.ini"
        cfg.write_text("[bath]\nlc = 2\n")
        assert run(["wext", "--config", cfg, "--out", out]) == 2
        assert "unknown key 'lc'" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_section_rejected(self, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[weird]\nx = 1\n")
        assert run(["wext", "--config", cfg]) == 2

    def test_invalid_physics_is_usage_error(self, tmp_path, capsys):
        assert run(["wext", "--alpha", "-1"]) == 2
        assert "alpha" in capsys.readouterr().err

    @pytest.mark.parametrize("args, field", [
        (["wext", "--qubit", "spin", "--omega", "nan"], "omega_gap"),
        (["engine", "--qubit", "spin", "--omega", "nan", "--p", "0.9"],
         "omega_gap"),
        (["wext", "--qubit", "spin", "--omega", "inf"], "omega_gap"),
        (["wext", "--tint", "inf"], "t_int"),
        (["wext", "--beta", "inf"], "beta"),
        (["wext", "--lambda0", "inf"], "lambda0"),
    ], ids=["wext-omega-nan", "engine-omega-nan", "omega-inf", "tint-inf",
            "beta-inf", "lambda0-inf"])
    def test_non_finite_value_is_usage_error(self, tmp_path, capsys, args,
                                             field):
        out = tmp_path / "out"
        assert run(args + ["--out", out / "x.csv"]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {field} must be finite\n"
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("text, reason", [
        ("beta = 5\n", "bad.ini"),
        ("[bath]\nbeta = 5\nbeta = 6\n", "bad.ini"),
        ("[bath]\nbeta\n", "bad.ini"),
        ("[DEFAULT]\nbeta = 5\n", "unknown config section [DEFAULT]"),
    ], ids=["no-section-header", "repeated-key", "no-equals",
            "default-section"])
    def test_malformed_config_is_usage_error(self, tmp_path, capsys, text,
                                             reason):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(text)
        out = tmp_path / "out"
        assert run(["wext", "--config", cfg, "--out", out / "x.csv"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert reason in err and not out.exists()

    @pytest.mark.parametrize("word, columns", [
        ("Yes", 5), ("ON", 5), ("1", 5), ("true", 5),
        ("No", 3), ("off", 3), ("0", 3), ("FALSE", 3)])
    def test_boolean_config_words(self, tmp_path, word, columns):
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[wcf]\nnonperturbative = {word}\n")
        out = tmp_path / "wcf.csv"
        assert run(["wcf", "--qubit", "none", "--samples", "16",
                    "--config", cfg, "--out", out]) == 0
        assert len(read_rows(out)[1][0]) == columns

    @pytest.mark.parametrize("word", ["ture", "2", "y", ""])
    def test_misspelt_boolean_is_usage_error(self, tmp_path, capsys, word):
        # refused, not read as false (which writes the 3-column file)
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[wcf]\nnonperturbative = {word}\n")
        out = tmp_path / "out"
        assert run(["wcf", "--qubit", "none", "--samples", "16",
                    "--config", cfg, "--out", out / "wcf.csv"]) == 2
        err = capsys.readouterr().err
        assert err == ("error: wcf.nonperturbative must be 1/yes/true/on "
                       f"or 0/no/false/off, not {word!r}\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["wcf", "wdf"])
    def test_nonperturbative_qubit_refused_before_writing(
            self, tmp_path, capsys, command):
        out = tmp_path / "out"
        code = run([command, "--qubit", "spin", "--nonperturbative",
                    "--out", out / "x.csv"])
        assert code == 2
        assert "pure thermal bath" in capsys.readouterr().err
        assert not out.exists()


class TestVerifyCommand:
    def test_subset_passes(self, capsys):
        assert run(["verify", "--checks", "passivity-pure-bath",
                    "modal-structure"]) == 0
        out = capsys.readouterr().out
        assert "PASS passivity-pure-bath" in out
        assert "2/2" in out

    def test_unknown_check_rejected(self, capsys):
        assert run(["verify", "--checks", "does-not-exist"]) == 2
        assert "unknown checks: does-not-exist" in capsys.readouterr().err

    def test_verbose_prints_margins(self, capsys):
        assert run(["verify", "--checks", "modal-structure",
                    "--verbose"]) == 0
        assert "maxima" in capsys.readouterr().out

    def test_broken_detailed_balance_is_caught(self, monkeypatch, capsys):
        # mutate the emission occupation by a smooth factor: the pure-bath
        # detailed-balance cancellation must break and the check must fail
        from drivenbath import Coupling, green
        emission, *rest = green._OCCUPATIONS[Coupling.SPIN]

        def warped(s, bx):
            return emission(s, bx) * 1.05

        monkeypatch.setitem(green._OCCUPATIONS, Coupling.SPIN,
                            (warped, *rest))
        code = run(["verify", "--checks", "jarzynski-pure-bath"])
        assert code == 1
        assert "FAIL jarzynski-pure-bath" in capsys.readouterr().out


class _Captured(Exception):
    """Raised by a patched library call to hand back its arguments."""


#: flag, then config file, then default, for every config key.  Each row:
#: key, command with the other arguments it needs, the flag, the config
#: lines set next to the flag, the config lines set alone, the value the
#: flag gives, the value the config gives, the default, and the probe that
#: reads the value off the captured library call (args, kwargs).
EXIT_2 = ("exit", 2)
_SPEC = _PLAN = lambda call: call[0][0]  # noqa: E731
_RAN = lambda call: "ran"  # noqa: E731
_SWEEP = ["sweep", "--qubit", "spin"]
_AXES = {"x": ["--sweep-x", "p"], "y": ["--sweep-y", "beta"],
         "xr": ["--x-range", "0.1,0.9"], "yr": ["--y-range", "0.5,5"]}


def _sweep_with(*parts):
    return _SWEEP + [arg for part in parts for arg in _AXES[part]]


PRECEDENCE = [
    ("bath.alpha", ["wext"], ["--alpha", "2"], "alpha = 3", "alpha = 3",
     2.0, 3.0, 5.0, lambda c: _SPEC(c).spectrum.alpha),
    ("bath.beta", ["wext"], ["--beta", "2"], "beta = 3", "beta = 3",
     2.0, 3.0, 1.0, lambda c: _SPEC(c).beta),
    ("drive.lambda0", ["wext"], ["--lambda0", "0.02"], "lambda0 = 0.03",
     "lambda0 = 0.03", 0.02, 0.03, 0.01,
     lambda c: _SPEC(c).source.lambda0),
    ("drive.tint", ["wext"], ["--tint", "200"], "tint = 300", "tint = 300",
     200.0, 300.0, 100.0, lambda c: _SPEC(c).source.t_int),
    ("qubit.coupling", ["wext"], ["--qubit", "spin"], "coupling = fermion",
     "coupling = fermion", "spin", "fermion", None,
     lambda c: _SPEC(c).qubit and _SPEC(c).qubit.coupling.value),
    ("qubit.omega", ["wext", "--qubit", "spin"], ["--omega", "0.1"],
     "omega = 0.2", "omega = 0.2", 0.1, 0.2, 0.05,
     lambda c: _SPEC(c).qubit.omega_gap),
    ("qubit.p", ["wext", "--qubit", "spin"], ["--p", "0.7"], "p = 0.8",
     "p = 0.8", 0.7, 0.8, 1.0, lambda c: _SPEC(c).qubit.p_ground),
    ("wcf.vmax", ["wcf", "--samples", "16"], ["--vmax", "10"], "vmax = 20",
     "vmax = 20", 10.0, 20.0, 6400.0, lambda c: float(c[0][1][-1])),
    ("wcf.samples", ["wcf"], ["--samples", "16"], "samples = 24",
     "samples = 24", 16, 24, 201, lambda c: len(c[0][1])),
    ("wcf.nonperturbative", ["wcf", "--qubit", "spin"], ["--nonperturbative"],
     "nonperturbative = false", "nonperturbative = true",
     EXIT_2, EXIT_2, "ran", _RAN),
    ("wdf.samples", ["wdf"], ["--samples", "16"], "samples = 24",
     "samples = 24", 16, 24, 800, lambda c: c[1]["w_grid"].size),
    ("wdf.nonperturbative", ["wdf", "--qubit", "spin"], ["--nonperturbative"],
     "nonperturbative = false", "nonperturbative = true",
     EXIT_2, EXIT_2, "ran", _RAN),
    ("sweep.x", _sweep_with("y", "xr", "yr"), _AXES["x"], "x = omega_gap",
     "x = omega_gap", "p", "omega_gap", EXIT_2, lambda c: _PLAN(c).x.name),
    ("sweep.y", _sweep_with("x", "xr", "yr"), _AXES["y"], "y = alpha",
     "y = alpha", "beta", "alpha", EXIT_2, lambda c: _PLAN(c).y.name),
    ("sweep.x_start", _sweep_with("x", "y", "yr"), _AXES["xr"],
     "x_start = 0.2\nx_stop = 0.8", "x_start = 0.2\nx_stop = 0.8",
     0.1, 0.2, EXIT_2, lambda c: _PLAN(c).x.start),
    ("sweep.x_stop", _sweep_with("x", "y", "yr"), _AXES["xr"],
     "x_start = 0.2\nx_stop = 0.8", "x_start = 0.2\nx_stop = 0.8",
     0.9, 0.8, EXIT_2, lambda c: _PLAN(c).x.stop),
    ("sweep.y_start", _sweep_with("x", "y", "xr"), _AXES["yr"],
     "y_start = 0.6\ny_stop = 4", "y_start = 0.6\ny_stop = 4",
     0.5, 0.6, EXIT_2, lambda c: _PLAN(c).y.start),
    ("sweep.y_stop", _sweep_with("x", "y", "xr"), _AXES["yr"],
     "y_start = 0.6\ny_stop = 4", "y_start = 0.6\ny_stop = 4",
     5.0, 4.0, EXIT_2, lambda c: _PLAN(c).y.stop),
    ("sweep.x_scale", _sweep_with("x", "y", "xr", "yr"), ["--x-scale", "log"],
     "x_scale = linear", "x_scale = log", "log", "log", "linear",
     lambda c: _PLAN(c).x.scale),
    ("sweep.y_scale", _sweep_with("x", "y", "xr", "yr"), ["--y-scale", "log"],
     "y_scale = linear", "y_scale = log", "log", "log", "linear",
     lambda c: _PLAN(c).y.scale),
    ("sweep.nx", _sweep_with("x", "y", "xr", "yr"), ["--nx", "20"],
     "nx = 24", "nx = 24", 20, 24, 64, lambda c: _PLAN(c).x.n),
    ("sweep.ny", _sweep_with("x", "y", "xr", "yr"), ["--ny", "20"],
     "ny = 24", "ny = 24", 20, 24, 64, lambda c: _PLAN(c).y.n),
    ("sweep.quantity", _sweep_with("x", "y", "xr", "yr"),
     ["--quantity", "chi-i-beta"], "quantity = delta-s",
     "quantity = delta-s", "chi-i-beta", "delta-s", "wext",
     lambda c: c[0][1].value),
]


class TestConfigPrecedence:
    @pytest.fixture(autouse=True)
    def capture_library(self, monkeypatch, tmp_path):
        import drivenbath.sweep as sweepmod
        import drivenbath.workstats as ws

        def capture(*args, **kwargs):
            raise _Captured(args, kwargs)

        for module, name in ((ws, "w_ext2"), (ws, "chi2_field"),
                             (ws, "wdf2"), (sweepmod, "run_sweep")):
            monkeypatch.setattr(module, name, capture)
        monkeypatch.chdir(tmp_path)

    @staticmethod
    def observe(argv, probe, tmp_path, ini=None):
        """The probed library argument, or ("exit", code) if none was made."""
        if ini is not None:
            cfg = tmp_path / "run.ini"
            cfg.write_text(ini)
            argv = argv + ["--config", cfg]
        try:
            code = run(argv)
        except _Captured as call:
            return probe(call.args)
        return ("exit", code)

    @pytest.mark.parametrize(
        "key,argv,flag,config_with_flag,config_alone,from_flag,from_config,"
        "default,probe", PRECEDENCE, ids=[row[0] for row in PRECEDENCE])
    def test_flag_over_config_over_default(
            self, tmp_path, key, argv, flag, config_with_flag, config_alone,
            from_flag, from_config, default, probe):
        section = key.split(".")[0]

        def ini(lines):
            return f"[{section}]\n{lines}\n"

        assert self.observe(argv + flag, probe, tmp_path,
                            ini(config_with_flag)) == from_flag
        assert self.observe(argv, probe, tmp_path,
                            ini(config_alone)) == from_config
        assert self.observe(argv, probe, tmp_path) == default

    def test_output_path(self, tmp_path, monkeypatch):
        import drivenbath.workstats as ws
        monkeypatch.setattr(ws, "w_ext2", lambda spec: 0.0)
        cfg = tmp_path / "run.ini"
        cfg.write_text("[output]\nout = from_config.csv\n")
        assert run(["wext", "--config", cfg, "--out", "from_flag.csv"]) == 0
        assert run(["wext", "--config", cfg]) == 0
        assert run(["wext"]) == 0
        written = sorted(p.name for p in tmp_path.iterdir())
        assert written == ["from_config.csv", "from_flag.csv", "run.ini",
                           "wext.csv"]
