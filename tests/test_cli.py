import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from meanmax import cli, func1d, stieltjes
from meanmax.cli import load_csv_function, run_command
from meanmax.cliargs import parse_args
from meanmax.errors import CsvFormatError
from meanmax.func1d import build_nodes
from meanmax.stieltjes import QuadratureConfig, segment_integrals

from oracles import table_log_integral


def run(capsys, *argv):
    code = run_command(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestLoadCsv:
    def test_basic(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("1,1\n2,0.5\n4,0.25\n")
        tab = load_csv_function(p)
        assert tab.domain.a == 1.0 and tab.domain.b == 4.0
        assert tab(2.0) == 0.5
        assert tab(3.0) == pytest.approx(0.375)

    def test_non_increasing_x(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("1,1\n1,2\n")
        with pytest.raises(CsvFormatError, match="strictly increasing"):
            load_csv_function(p)

    def test_comments_skipped(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("# comment\n1,1\n2,2\n")
        tab = load_csv_function(p)
        assert len(tab.xs) == 2

    def test_crlf(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_bytes(b"1,1\r\n2,2\r\n")
        assert len(load_csv_function(p).xs) == 2

    def test_malformed_line_reports_number(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("1,1\nbogus\n")
        with pytest.raises(CsvFormatError, match=":2"):
            load_csv_function(p)

    @pytest.mark.parametrize("row, message", [
        ("2,abc", "expected 'x,value', got '2,abc'"),
        ("2,inf", "non-finite entry"),
    ], ids=["non-number", "non-finite"])
    def test_bad_entry(self, tmp_path, row, message):
        p = tmp_path / "t.csv"
        p.write_text(f"1,1\n{row}\n")
        with pytest.raises(CsvFormatError, match=f"^{re.escape(f'{p}:2: {message}')}$"):
            load_csv_function(p)

    def test_too_few_rows(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("1,1\n")
        with pytest.raises(CsvFormatError, match="at least 2"):
            load_csv_function(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(CsvFormatError, match="no such file"):
            load_csv_function(tmp_path / "nope.csv")

    def test_not_utf8(self, tmp_path, capsys):
        p = tmp_path / "bin.csv"
        p.write_bytes(b"1,1\n2,\xff\xfe2\n")
        message = f"{p}:2: not UTF-8 text (byte 0xff)"
        with pytest.raises(CsvFormatError, match=f"^{re.escape(message)}$"):
            load_csv_function(p)
        assert run(capsys, "table", "--f", str(p), "--a", "1", "--table", "1:2:uniform:3") == (
            3, "", f"error: {message}\n")

    def test_byte_order_mark_and_lone_carriage_returns(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_bytes(b"\xef\xbb\xbf1,1\r2,0.5\r\n4,0.25")
        assert load_csv_function(p).ys.tolist() == [1.0, 0.5, 0.25]

    def test_path_that_cannot_be_opened(self, tmp_path):
        p = tmp_path / "d.csv"
        p.mkdir()
        with pytest.raises(CsvFormatError, match=f"^{re.escape(f'{p}: Is a directory')}$"):
            load_csv_function(p)


class TestMean:
    def test_spec_example(self, capsys):
        code, out, _ = run(
            capsys, "mean", "--f", "1/x", "--m", "ln(x)",
            "--a", "1", "--b", "inf", "--r", "1", "--R", "7.389056099",
        )
        assert code == 0
        assert out.strip() == "0.4323323584"

    def test_partials(self, capsys):
        # expressions with a leading minus need the --flag=value form
        code, out, _ = run(
            capsys, "mean", "--f=-x", "--m", "x",
            "--a", "0", "--b", "10", "--r", "1", "--R", "3", "--partials",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("mean,-2")
        assert lines[1] == "partial_r,-0.5"
        assert lines[2] == "partial_R,-0.5"

    def test_csv_measure(self, capsys, tmp_path):
        p = tmp_path / "m.csv"
        xs = np.linspace(0.0, 10.0, 2001)
        p.write_text("\n".join(f"{x:.12g},{x:.12g}" for x in xs) + "\n")
        code, out, _ = run(
            capsys, "mean", "--f", "x", "--m", str(p),
            "--a", "0", "--b", "10", "--r", "0", "--R", "1",
        )
        assert code == 0
        assert float(out.strip()) == pytest.approx(0.5, rel=1e-6)

    def test_csv_measure_of_257_rows(self, capsys, tmp_path, monkeypatch):
        # Cut at its rows, a CSV measure is linear on each gap, where m' from
        # its values is the gap's slope: 4,001 points here.
        xs = np.geomspace(1.0, 50.0, 257)
        xs[-1] = 50.0
        p = tmp_path / "ln.csv"
        p.write_text("".join(f"{x!r},{y!r}\n" for x, y in zip(xs.tolist(), np.log(xs).tolist())))
        points = []
        compile_orig = cli.compile_expression

        def compile_counted(node):
            fun = compile_orig(node)
            return lambda x: points.append(np.size(x)) or fun(x)

        monkeypatch.setattr(cli, "compile_expression", compile_counted)
        code, out, _ = run(capsys, "mean", "--f", "x^(-1.25)", "--m", str(p),
                           "--a", "1", "--b", "50", "--r", "1", "--R", "45")
        assert (code, out) == (0, "0.2083502146\n")
        assert sum(points) <= 5000

    def test_measure_without_a_derivative(self, capsys):
        # max has no derivative, so m' comes from m's values; the closed form
        # is 0.15354998178.
        code, out, err = run(capsys, "mean", "--f", "x^(-1.25)", "--m", "max(ln(x), 2*ln(x)-1)",
                             "--a", "1", "--b", "50", "--r", "1", "--R", "45", "--tol", "1e-13")
        assert (code, out, err) == (0, "0.1535499818\n", "")

    @pytest.mark.parametrize("argv", [
        ["mean", "--f", "1/x", "--r", "1", "--R", "40"],
        ["verify", "--property", "monotonicity", "--f", "1/x", "--steps", "5"],
    ], ids=["mean", "monotonicity"])
    def test_csv_measure_that_dips_between_close_rows(self, capsys, tmp_path, argv):
        p = tmp_path / "bad.csv"
        p.write_text("1,0\n7,1\n7.0000001,0.99\n50,5\n")
        code, out, err = run(capsys, *argv, "--m", str(p), "--a", "1", "--b", "50")
        assert (code, out) == (3, "")
        assert err == "error: measure is not strictly increasing near x=7.0\n"

    def test_constant_zero_base_in_the_measure(self, capsys):
        # 0^x has no symbolic derivative (ln 0), so m takes the
        # derivative-free route; 0^x + x is x on [1, 2].
        assert run(capsys, "mean", "--f", "1/x", "--m", "0^x+x", "--a", "1",
                   "--r", "1", "--R", "2") == (0, "0.6931471806\n", "")

    def test_negative_base_in_the_measure(self, capsys):
        assert run(capsys, "mean", "--f", "1/x", "--m", "(0-2)^x+x", "--a", "1",
                   "--r", "1", "--R", "2") == (3, "", "error: non-finite value nan at x=1.0\n")

    def test_rejects_measure_not_increasing(self, capsys):
        # x + 2 sin x decreases where cos x < -1/2
        code, out, err = run(
            capsys, "mean", "--f", "1/x", "--m", "x+2*sin(x)",
            "--a", "1", "--b", "inf", "--r", "1", "--R", "12",
        )
        assert code == 3
        assert out == ""
        assert "not strictly increasing" in err

    def test_accepts_steep_measure_at_its_left_end(self, capsys):
        code, out, _ = run(
            capsys, "mean", "--f", "x", "--m", "x^(1/3)",
            "--a", "0", "--b", "1", "--r", "0.25", "--R", "0.75",
        )
        r, R = 0.25, 0.75
        assert code == 0
        want = (R ** (4 / 3) - r ** (4 / 3)) / 4 / (R ** (1 / 3) - r ** (1 / 3))
        assert float(out) == pytest.approx(want, rel=1e-8)

    def test_peak_at_the_left_end(self, capsys):
        # the mass of exp(-1000 x) lies nearer x = 0 than any Kronrod node of [0, 10]
        code, out, _ = run(
            capsys, "mean", "--f", "exp(-1000*x)", "--m", "x", "--a", "0",
            "--r", "0", "--R", "10",
        )
        assert code == 0
        assert float(out) == pytest.approx(-math.expm1(-1e4) / 1e4, rel=1e-8)

    def test_accepts_measure_that_overflows_past_the_interval(self, capsys):
        code, out, _ = run(
            capsys, "mean", "--f", "x", "--m", "exp(x)",
            "--a", "0", "--b", "inf", "--r", "1", "--R", "5",
        )
        assert code == 0
        e = math.e
        assert float(out) == pytest.approx(4 * e**5 / (e**5 - e), rel=1e-8)

    @pytest.mark.parametrize("r,R", [(1.5, 20.0), (3.0, 45.0)])
    def test_kinked_csv_within_tolerance(self, capsys, tmp_path, r, R):
        # x^-0.9 on 40 geometric nodes: a kink at every node inside [r, R]
        xs = np.geomspace(1.0, 50.0, 40)
        xs[-1] = 50.0
        ys = xs**-0.9
        p = tmp_path / "kinked.csv"
        p.write_text("".join(f"{x!r},{y!r}\n" for x, y in zip(xs.tolist(), ys.tolist())))
        code, out, _ = run(
            capsys, "mean", "--f", str(p), "--m", "ln(x)",
            "--a", "1", "--b", "50", "--r", str(r), "--R", str(R),
        )
        assert code == 0
        integral, dm = table_log_integral(xs, ys, r, R), math.log(R / r)
        printed_digit = 0.5 * 10.0 ** (math.floor(math.log10(integral / dm)) - 9)
        tol = max(1e-10, 1e-9 * integral) / dm + printed_digit
        assert abs(float(out) - integral / dm) <= tol


    def test_csv_source_partials(self, capsys, tmp_path):
        xs = np.geomspace(1.0, 50.0, 40)
        xs[-1] = 50.0
        ys = xs**-0.9
        p = tmp_path / "kinked.csv"
        p.write_text("".join(f"{x!r},{y!r}\n" for x, y in zip(xs.tolist(), ys.tolist())))
        r, R = 2.0, 10.0
        code, out, _ = run(capsys, "mean", "--f", str(p), "--m", "ln(x)", "--a", "1",
                           "--b", "50", "--r", str(r), "--R", str(R), "--partials")
        assert code == 0
        got = dict(line.split(",") for line in out.splitlines())
        integral, L = table_log_integral(xs, ys, r, R), math.log(R / r)
        f_r, f_R = np.interp([r, R], xs, ys)
        want = {"mean": integral / L, "partial_r": (integral - f_r * L) / (r * L * L),
                "partial_R": (f_R * L - integral) / (R * L * L)}
        assert got.keys() == want.keys()
        for key, value in want.items():
            assert float(got[key]) == pytest.approx(value, rel=1e-8), key


class TestDefaultConfig:
    def test_cli_default_is_the_library_default(self):
        # --tol 1e-9 builds QuadratureConfig(), whose atol is exactly 1e-10.
        args = parse_args(["mean", "--f", "1/x", "--a", "1", "--r", "1", "--R", "2"])
        cfg, _ = cli._configs(args)
        assert cfg == QuadratureConfig()
        assert cfg.atol == 1e-10


class TestBenchmarkContract:
    # perfbench's cli-session replay builds a TabulatedFunction subclass from
    # xs= and ys= alone, returns it from cli.load_csv_function, and counts the
    # points its __call__ reads: it must see every point of the source.
    def test_counting_table_subclass_sees_every_point(self, capsys, tmp_path, monkeypatch):
        xs = np.geomspace(1.0, 50.0, 40)
        p = tmp_path / "t.csv"
        p.write_text("".join(f"{x!r},{x ** -0.9!r}\n" for x in xs.tolist()))
        seen = []

        class CountedTable(cli.TabulatedFunction):
            def __call__(self, x):
                seen.append(np.size(x))
                return super().__call__(x)

        load_orig = cli.load_csv_function

        def load_counted(path):
            tab = load_orig(path)
            return CountedTable(xs=tab.xs, ys=tab.ys)

        read = []  # every point quadrature reads of the source, whatever its eval

        def recorded(g, *args, **kwargs):
            return segment_integrals(lambda x: read.append(np.size(x)) or g(x), *args, **kwargs)

        monkeypatch.setattr(cli, "load_csv_function", load_counted)
        monkeypatch.setattr(stieltjes, "segment_integrals", recorded)
        code, out, _ = run(capsys, "mean", "--f", str(p), "--m", "ln(x)", "--a", "1",
                           "--b", "50", "--r", "1.5", "--R", "20")
        assert code == 0 and float(out) > 0
        assert sum(read) > 0 and seen == read


class TestTransform:
    def test_q_from_d_spec_example(self, capsys):
        code, out, _ = run(
            capsys, "transform", "--kind", "q-from-d", "--d", "1/ln(x)",
            "--r0", "2.718281828", "--table", "10:1e6:geometric:25",
        )
        assert code == 0
        rows = out.strip().splitlines()
        assert len(rows) == 25
        for row in rows:
            x, v = map(float, row.split(","))
            assert v == pytest.approx(x / math.log(x), rel=1e-9)

    def test_majorant(self, capsys):
        code, out, _ = run(
            capsys, "transform", "--kind", "majorant", "--f", "1/x", "--m", "ln(x)",
            "--a", "1", "--b", "inf", "--hint", "decreasing",
            "--table", "10:10000:geometric:4",
        )
        assert code == 0
        for row in out.strip().splitlines():
            x, v = map(float, row.split(","))
            assert v == pytest.approx((1 - 1 / x) / math.log(x), rel=1e-8)

    def test_double_envelope(self, capsys):
        code, out, _ = run(
            capsys, "transform", "--kind", "double-envelope", "--f", "exp(-x)",
            "--n", "x", "--a", "1", "--b", "inf", "--hint", "decreasing",
            "--table", "2:100:geometric:5",
        )
        assert code == 0
        for row in out.strip().splitlines():
            x, v = map(float, row.split(","))
            assert v == pytest.approx(math.exp(-1) / x, rel=1e-8)

    def test_d_from_q(self, capsys):
        code, out, _ = run(
            capsys, "transform", "--kind", "d-from-q", "--Q", "sqrt(x)",
            "--r0", "1", "--table", "10:10000:geometric:4",
        )
        assert code == 0
        for row in out.strip().splitlines():
            x, v = map(float, row.split(","))
            assert v == pytest.approx(2 * (1 - x**-0.5) / math.log(x), rel=1e-8)

    def test_tail_cap_warned_once(self, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(
                capsys, "transform", "--kind", "q-from-d", "--d", "1/ln(x)",
                "--r0", "2.718281828", "--table", "10:1e6:geometric:3",
            )
        assert code == 0
        assert not [w for w in caught if "cap" in str(w.message)]
        assert err.count("hit its cap") == 1

    def test_hypothesis_warning_on_stderr(self, capsys):
        code, out, err = run(
            capsys, "transform", "--kind", "d-from-q", "--Q", "x",
            "--r0", "1", "--table", "10:100:geometric:3",
        )
        assert code == 0
        assert "warning:" in err


class TestVerify:
    def test_f1_spec_example(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--property", "F1", "--f", "exp(-x)", "--m", "x",
            "--a", "0", "--b", "50", "--pairs", "200", "--seed", "7",
        )
        assert code == 0
        assert "verdict: holds" in out

    def test_monotonicity(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--property", "monotonicity", "--f", "exp(-x)",
            "--m", "x", "--a", "0", "--b", "10", "--steps", "8",
        )
        assert code == 0

    def test_monotonicity_csv_measure(self, capsys, tmp_path):
        # a tabulated measure has no derivative: the grid comparisons decide
        p = tmp_path / "m.csv"
        p.write_text("1,0\n2,0.7\n5,1.6\n50,3.9\n")
        code, out, _ = run(
            capsys, "verify", "--property", "monotonicity", "--f", "1/x",
            "--m", str(p), "--a", "1", "--b", "50", "--steps", "5",
        )
        assert code == 0
        assert "verdict: holds" in out

    def test_inconclusive_exit_code(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--property", "monotonicity", "--f", "x",
            "--m", "x", "--a", "0", "--b", "10", "--steps", "5",
        )
        assert code == 3
        assert "verdict: inconclusive" in out

    def test_sup_identity(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--property", "sup-identity", "--f", "exp(-x)",
            "--m", "x", "--a", "0", "--b", "10", "--R", "5", "--steps", "10",
        )
        assert code == 0

    def test_partials(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--property", "partials", "--f", "1/x", "--m", "ln(x)",
            "--a", "0.5", "--b", "100", "--r", "1", "--R", "2.718281828459045",
        )
        assert code == 0

    @pytest.mark.parametrize("r, R", [("2", "49.9999"), ("1.00001", "10")],
                             ids=["R-near-b", "r-near-a"])
    def test_partials_near_a_domain_end(self, capsys, r, R):
        code, out, _ = run(
            capsys, "verify", "--property", "partials", "--f", "1/x", "--m", "ln(x)",
            "--a", "1", "--b", "50", "--r", r, "--R", R,
        )
        assert code == 0
        assert "verdict: holds" in out

    @pytest.mark.parametrize("argv, message", [
        (["dQ", "--Q", "sqrt(x)", "--r0", "1", "--b", "0.5"], "dQ: empty sample window [1.0, 0.5]"),
        (["dQ", "--Q", "sqrt(x)", "--r0", "1", "--b", "1"], "dQ: empty sample window [1.0, 1.0]"),
        (["Qd", "--d", "1/sqrt(x)", "--r0", "2", "--b", "1"],
         "Qd: empty sample window [2.0, 1.0]"),
    ], ids=["below-r0", "at-r0", "Qd"])
    def test_empty_sample_window_is_a_usage_error(self, capsys, argv, message):
        code, out, err = run(capsys, "verify", "--property", *argv, "--pairs", "5")
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_anma(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--property", "AnmA", "--f", "exp(-x)", "--n", "x",
            "--m", "ln(x)", "--a", "1", "--b", "100", "--pairs", "50", "--seed", "3",
            "--hint", "decreasing",
        )
        assert code == 0

    def test_dq_and_qd(self, capsys):
        code, _, _ = run(
            capsys, "verify", "--property", "dQ", "--Q", "sqrt(x)", "--r0", "1",
            "--b", "10000", "--pairs", "50", "--seed", "3",
        )
        assert code == 0
        code, _, _ = run(
            capsys, "verify", "--property", "Qd", "--d", "1/ln(x)", "--r0", "2.718281828",
            "--b", "1e6", "--pairs", "50", "--seed", "3", "--hint", "decreasing",
        )
        assert code == 0

    def test_line_format(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--property", "sup-identity", "--f", "exp(-x)",
            "--m", "x", "--a", "0", "--b", "10", "--R", "5", "--format", "line",
        )
        assert code == 0
        assert out.startswith("sup-identity holds ")


class TestFrozenPairOutputs:
    # Frozen stdout of the seeded pair checks: a refactor keeps it byte-identical.
    CASES = [
        (["--property", "F1", "--f", "exp(-x)", "--m", "x", "--a", "0", "--b", "50",
          "--seed", "3"],
         "F1 holds worst_slack=-0.01132103968 samples=40 witness=0.6583995771,41.87345406"),
        (["--property", "AnmA", "--f", "exp(-x)", "--m", "x", "--a", "0", "--b", "50",
          "--n", "1+x", "--seed", "3"],
         "AnmA holds worst_slack=-0.02122931879 samples=40 witness=42.82002828,49.54948219"),
        (["--property", "dQ", "--Q", "x^0.5", "--r0", "1", "--b", "40", "--seed", "2"],
         "dQ holds worst_slack=-0.0007617463255 samples=40 witness=1.106582543,1.141741586"),
        (["--property", "Qd", "--d", "x^-0.4", "--r0", "1", "--b", "40", "--seed", "2"],
         "Qd holds worst_slack=-8.176346489e-07 samples=40 witness=9.348870083,9.378487403"),
    ]

    @pytest.mark.parametrize("argv,want", CASES, ids=["F1", "AnmA", "dQ", "Qd"])
    def test_line(self, capsys, argv, want):
        code, out, _ = run(capsys, "verify", *argv, "--pairs", "40", "--format", "line")
        assert code == 0
        assert out == want + "\n"


class TestFrozenTableOutputs:
    # Frozen stdout of a table, a transform and a decay report, each read at
    # all its points in one array call: a refactor keeps it byte-identical.
    WAVE = "exp(-x)*(1+0.5*sin(5*x))"
    CASES = [
        (["table", "--f", WAVE, "--a", "0", "--table", "0:3:uniform:7"],
         "0,1\n0.5,0.7880265119\n1,0.191495178\n1.5,0.3277782027\n2,0.09852265767\n"
         "2.5,0.0793629822\n3,0.06597503095\n"),
        (["transform", "--kind", "majorant", "--f", WAVE, "--m", "x", "--a", "0",
          "--table", "0:20:uniform:6"],
         "0,1.163369746\n4,0.2900446167\n8,0.147610434\n12,0.09843626124\n"
         "16,0.07382759133\n20,0.05906207927\n"),
        (["decay", "--f", WAVE, "--a", "0", "--schedule", "1:2:8:1e-3"],
         "property: decay\nverdict: holds\nworst_slack: -1.260470721e-28\nsamples_used: 8\n"
         "points: 1 2 4 8 16 32 64 128\n"
         "sequence: 0.191495178 0.09852265767 0.02667622666 0.0004604414374 "
         "5.661145806e-08 1.405358445e-14 1.260470721e-28 1.576954048e-56\n"),
    ]

    @pytest.mark.parametrize("argv,want", CASES, ids=["table", "transform", "decay"])
    def test_stdout(self, capsys, argv, want):
        assert run(capsys, *argv) == (0, want, "")

    def test_table_reads_the_transform_once(self, capsys, monkeypatch):
        sizes = []
        build = cli.decreasing_majorant_mean

        def counted(*args):
            res = build(*args)
            D = res.fn.eval
            res.fn.eval = lambda R: sizes.append(np.size(R)) or D(R)
            return res

        monkeypatch.setattr(cli, "decreasing_majorant_mean", counted)
        code, out, _ = run(capsys, "transform", "--kind", "majorant", "--f", self.WAVE,
                           "--m", "x", "--a", "0", "--table", "0:20:uniform:200")
        assert code == 0 and len(out.splitlines()) == 200
        assert sizes == [200]


class TestPairCount:
    @pytest.mark.parametrize("pairs", ["0", "-3"])
    def test_below_one_is_a_usage_error(self, capsys, pairs):
        code, out, err = run(capsys, "verify", "--property", "F1", "--f", "exp(-x)", "--m", "x",
                             "--a", "0", "--b", "50", "--pairs", pairs, "--format", "line")
        assert (code, out) == (2, "")
        assert err == f"error: F1: need at least 1 pair, got {pairs}\n"


class TestTailSpec:
    # -exp(-x) on [0, inf) has no maximum: its right envelope is sup 0, which
    # a vanishing tail reads where the scan cuts the window (|f| < 0.5e-9) and
    # a bounded one at the 1e6 horizon.
    ARGV = ["envelope", "--f=-exp(-x)", "--a", "0", "--side", "right",
            "--table", "0:30:uniform:4"]

    @pytest.mark.parametrize("spec,want", [
        ("vanishing", "0,-1.266416555e-14\n10,-1.266416555e-14\n20,-1.266416555e-14\n"
                      "30,-1.266416555e-14\n"),
        ("bounded:0.5", "0,-0\n10,-0\n20,-0\n30,-0\n"),
        ("bounded:inf", "0,-0\n10,-0\n20,-0\n30,-0\n"),
    ])
    def test_accepted(self, capsys, spec, want):
        assert run(capsys, *self.ARGV, "--tail", spec) == (0, want, "")

    @pytest.mark.parametrize("spec,code,message", [
        ("unknown", 3, "supremum over an unbounded domain needs a vanishing or bounded tail "
                       "declaration (or a decreasing-monotonicity hint)"),
        ("bounded:nan", 2, "bounded tail needs a bound value, got nan"),
        ("bogus", 2, "bad tail spec 'bogus'; use vanishing | unknown | bounded:<v>"),
    ])
    def test_refused(self, capsys, spec, code, message):
        assert run(capsys, *self.ARGV, "--tail", spec) == (code, "", f"error: {message}\n")


class TestMeasureNotFiniteAtLeftEnd:
    # the default --m ln(x) is -inf at --a 0
    @pytest.mark.parametrize("argv", [
        ["--property", "F1", "--pairs", "5"],
        ["--property", "monotonicity", "--steps", "4"],
        ["--property", "sup-identity", "--R", "10"],
    ], ids=["F1", "monotonicity", "sup-identity"])
    def test_clear_error(self, capsys, argv):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, "verify", "--f", "exp(-x)", "--a", "0", "--b", "50",
                                 *argv)
        assert code == 3
        assert out == ""
        assert err == "error: measure is not finite at the left end x=0.0\n"
        assert not caught

    def test_finite_measure_still_holds(self, capsys):
        code, out, _ = run(capsys, "verify", "--property", "F1", "--f", "exp(-x)", "--m", "x",
                           "--a", "0", "--b", "50", "--pairs", "5", "--format", "line")
        assert code == 0
        assert out.startswith("F1 holds ")


class TestDecay:
    def test_holds(self, capsys):
        code, out, _ = run(
            capsys, "decay", "--f", "1/ln(x)", "--a", "2", "--b", "inf",
            "--schedule", "2.718281828:2.718281828:10:0.11",
        )
        assert code == 0
        assert "verdict: holds" in out

    def test_violated_exit_code(self, capsys):
        code, out, _ = run(
            capsys, "decay", "--f", "ln(x)", "--a", "2", "--b", "inf",
            "--schedule", "4:2:5:100",
        )
        assert code == 1
        assert "verdict: violated" in out


class TestTableAndRoundTrip:
    def test_round_trip(self, capsys, tmp_path):
        out_path = tmp_path / "t.csv"
        code = run_command([
            "table", "--f", "exp(-x)", "--a", "0", "--b", "10",
            "--table", "0:5:uniform:21", "--output", str(out_path),
        ])
        assert code == 0
        tab = load_csv_function(out_path)
        assert len(tab.xs) == 21
        assert tab(1.0) == pytest.approx(math.exp(-1), rel=1e-9)

    def test_envelope_emits_monotone_rows(self, capsys):
        code, out, _ = run(
            capsys, "envelope", "--f", "sin(x)", "--side", "left",
            "--a", "0", "--b", "6.283185307", "--table", "0.5:6:uniform:12",
        )
        assert code == 0
        vals = [float(r.split(",")[1]) for r in out.strip().splitlines()]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
        assert vals[-1] == pytest.approx(1.0, abs=1e-8)

    def test_envelope_locates_no_plateau_edge(self, capsys, monkeypatch):
        # The table reads the envelope by value_at alone: the right envelope
        # of the wave has plateau edges, and none is searched for.
        def refused(*args):
            raise AssertionError("plateau edge search")

        monkeypatch.setattr(func1d, "_plateau_edges", refused)
        code, out, _ = run(capsys, "envelope", "--f", "exp(-x)*(1+0.5*sin(5*x))",
                           "--side", "right", "--a", "0", "--tail", "vanishing",
                           "--table", "0:3:uniform:7")
        assert code == 0 and len(out.splitlines()) == 7

    def test_envelope_prints_its_notes(self, capsys):
        # x^-0.01 never falls below the vanishing-tail threshold before the
        # scan's cap, as transform --kind majorant warns for the same source.
        code, out, err = run(
            capsys, "envelope", "--f", "x^(-0.01)", "--side", "right", "--a", "1",
            "--tail", "vanishing", "--table", "1:10:uniform:3",
        )
        assert code == 0
        assert err == "warning: vanishing-tail cutoff scan hit its cap; tail taken on trust\n"
        assert out == "1,1\n5.5,0.9830970052\n10,0.977237221\n"


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 2

    def test_bad_expression(self, capsys):
        code, _, err = run(
            capsys, "mean", "--f", "x +", "--m", "x", "--a", "0", "--b", "10",
            "--r", "1", "--R", "2",
        )
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("argv", [
        ["--property", "monotonicity", "--steps", "1"],
        ["--property", "sup-identity", "--R", "10", "--steps", "1"],
        ["--property", "monotonicity", "--steps", "0"],
    ], ids=["monotonicity", "sup-identity", "zero"])
    def test_steps_below_2(self, capsys, argv):
        # One grid point leaves no pair r < R to compare.
        code, out, err = run(capsys, "verify", "--f", "1/x", "--m", "ln(x)", "--a", "1",
                             "--b", "50", *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: --steps must be at least 2, got {argv[-1]}\n"

    def test_monotonicity_with_nothing_to_compare(self, capsys):
        # Two grid points leave no neighbouring cells and no midpoint pair r < R.
        argv = ["verify", "--property", "monotonicity", "--f", "1/x", "--m", "ln(x)",
                "--a", "1", "--b", "50", "--steps"]
        code, out, err = run(capsys, *argv, "2")
        assert code == 2
        assert out == ""
        assert err == ("error: monotonicity: the grid has no neighbouring cells r < R "
                       "and no midpoint pair to compare\n")
        code, out, _ = run(capsys, *argv, "3")
        assert code == 0
        assert "verdict: holds" in out

    def test_missing_required_source(self, capsys):
        code, _, err = run(
            capsys, "transform", "--kind", "d-from-q", "--table", "1:2:uniform:3",
        )
        assert code == 2

    def test_bad_range_spec(self, capsys):
        code, _, _ = run(
            capsys, "table", "--f", "x", "--a", "0", "--b", "10", "--table", "1:2:3",
        )
        assert code == 2

    @pytest.mark.parametrize("argv, message", [
        (["table", "--f", "x", "--a", "0", "--table", "1:2:cubic:3"],
         "spacing must be uniform or geometric, got 'cubic'"),
        (["table", "--f", "x", "--a", "0", "--table", "1:2:uniform:1"],
         "range count must be at least 2"),
        (["table", "--f", "x", "--a", "0", "--table", "2:2:uniform:3"],
         "range needs lo < hi, got 2.0:2.0"),
        (["table", "--f", "x", "--a", "0", "--table", "0:2:geometric:3"],
         "geometric spacing needs lo > 0"),
        (["decay", "--f", "1/x", "--a", "1", "--schedule", "2:2:8"],
         "schedule must be start:ratio:steps:threshold, got '2:2:8'"),
        (["verify", "--property", "monotonicity", "--f", "1/x", "--a", "1", "--b", "inf"],
         "monotonicity needs a finite --b to bound its samples"),
        (["table", "--f", "1/x", "--a", "1", "--table", "1:inf:uniform:3"],
         "range ends must be finite, got 1.0:inf"),
        (["table", "--f", "1/x", "--a", "1", "--table", "1:1e400:geometric:3"],
         "range ends must be finite, got 1.0:inf"),
        (["envelope", "--f", "1/x", "--side", "right", "--a", "1", "--table", "1:inf:uniform:3"],
         "range ends must be finite, got 1.0:inf"),
        (["transform", "--kind", "majorant", "--f", "1/x", "--m", "ln(x)", "--a", "1",
          "--table", "1:inf:uniform:3"], "range ends must be finite, got 1.0:inf"),
        (["decay", "--f", "1/x", "--a", "1", "--schedule", "2:1e10:40:0.01"],
         "schedule's last point start * ratio^(steps-1) is not finite"),
        (["decay", "--f", "1/x", "--a", "1", "--schedule", "1e308:2:8:0.01"],
         "schedule's last point start * ratio^(steps-1) is not finite"),
    ], ids=["spacing", "count", "lo-hi", "geometric-lo", "schedule", "verify-b-inf", "table-inf",
            "table-1e400", "envelope-inf", "transform-inf", "schedule-overflow", "schedule-inf"])
    def test_bad_spec(self, capsys, argv, message):
        assert run(capsys, *argv) == (2, "", f"error: {message}\n")

    def test_numeric_failure_exit_code(self, capsys):
        # mean over an interval where the integrand blows up at the endpoint
        code, _, err = run(
            capsys, "mean", "--f", "1/x", "--m", "x", "--a", "0", "--b", "10",
            "--r", "0", "--R", "1",
        )
        assert code == 3

    def test_point_budget_exit_code(self, capsys):
        # 5e6 periods of sin on [0, 1] need millions of pieces
        code, out, err = run(
            capsys, "mean", "--f", "sin(10000000*x)", "--m", "x", "--a", "0",
            "--r", "0", "--R", "1",
        )
        assert code == 3
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "budget" in lines[0]

    @pytest.mark.parametrize("argv", [
        ["table", "--f", "1/x", "--a", "1", "--table", "1:10:uniform:10000000000000"],
        ["envelope", "--f", "1/(1+x)", "--side", "right", "--a", "0", "--b", "10",
         "--grid", "10000000000000", "--table", "0:1:uniform:3"],
    ], ids=["table", "envelope"])
    def test_refused_allocation_is_a_numeric_failure(self, capsys, monkeypatch, argv):
        # Exit 1 would read as "violated"; a refused allocation is a numeric
        # failure.  The huge request itself is never made, since a machine
        # that overcommits memory may grant it and then fill it: the stub
        # refuses it and passes every ordinary request to build_nodes.
        message = ("Unable to allocate 72.8 TiB for an array with shape "
                   "(10000000000000,) and data type float64")
        refused = []

        def refuse_huge(lo, hi, count, *rest):
            if count > 10**9:
                refused.append(count)
                raise MemoryError(message)
            return build_nodes(lo, hi, count, *rest)

        monkeypatch.setattr(cli, "build_nodes", refuse_huge)
        monkeypatch.setattr(func1d, "build_nodes", refuse_huge)
        assert run(capsys, *argv) == (3, "", f"error: {message}\n")
        assert refused == [10**13]

    @pytest.mark.parametrize("argv, message", [
        (["mean", "--f", "1/x", "--a", "1", "--r", "1", "--R", "10", "--tol", "nan"],
         "tolerances must be finite and positive"),
        (["decay", "--f", "1/x", "--a", "1", "--schedule", "2:2:8:nan"],
         "threshold must be finite, got nan"),
    ], ids=["tol", "threshold"])
    def test_nan_setting(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("argv, literal, at", [
        (["table", "--f", "1e999", "--a", "1", "--table", "1:2:uniform:3"], "1e999", 1),
        (["table", "--f", "x*1e400", "--a", "1", "--table", "1:2:uniform:3"], "1e400", 3),
        (["mean", "--f", "1/x", "--m", "x+1e999*0", "--a", "1", "--r", "1", "--R", "2"],
         "1e999", 3),
        (["transform", "--kind", "double-envelope", "--f", "1/x", "--a", "1", "--b", "10",
          "--n", "1e999", "--table", "1:2:uniform:3"], "1e999", 1),
    ], ids=["f", "f-product", "m", "n"])
    def test_number_out_of_range(self, capsys, argv, literal, at):
        # A literal that overflows a double is a usage error, not a traceback.
        assert run(capsys, *argv) == (
            2, "", f"error: number {literal} is out of range (at position {at})\n")

    def test_largest_literals_still_parse(self, capsys):
        argv = ["table", "--a", "1", "--table", "1:2:uniform:3"]
        assert run(capsys, *argv, "--f", "1e308") == (
            0, "1,1e+308\n1.5,1e+308\n2,1e+308\n", "")
        assert run(capsys, *argv, "--f", "1e308*x") == (
            3, "", "error: non-finite value inf at x=2.0\n")

    def test_csv_path_that_cannot_be_opened(self, capsys, tmp_path):
        d = tmp_path / "d.csv"
        d.mkdir()
        assert run(capsys, "table", "--f", str(d), "--a", "1", "--table", "1:2:uniform:3") == (
            3, "", f"error: {d}: Is a directory\n")

    def test_help_exits_zero(self, capsys):
        code, _, _ = run(capsys, "--help")
        assert code == 0


TABLE = ["table", "--a", "1", "--table", "1:2:uniform:3"]
MEAN = ["mean", "--f", "1/x", "--a", "1", "--b", "10", "--r", "2", "--R", "3"]


class TestErrorHygiene:
    # Malformed calls, each in a fresh interpreter with Python's default
    # warning filters, as a user runs meanmax: a numpy warning or a traceback
    # on stderr, or anything on stdout, fails the call.
    CALLS = {
        "table-inf": (2, ["table", "--f", "1/x", "--a", "1", "--table", "1:inf:uniform:3"]),
        "table-1e400": (2, ["table", "--f", "1/x", "--a", "1", "--table", "1:1e400:geometric:3"]),
        "envelope-inf": (2, ["envelope", "--f", "1/x", "--side", "right", "--a", "1",
                             "--tail", "vanishing", "--table", "1:inf:uniform:3"]),
        "transform-inf": (2, ["transform", "--kind", "majorant", "--f", "1/x", "--m", "ln(x)",
                              "--a", "1", "--table", "1:inf:uniform:3"]),
        "schedule-overflow": (2, ["decay", "--f", "1/x", "--a", "1",
                                  "--schedule", "2:1e10:40:0.01"]),
        "schedule-inf": (2, ["decay", "--f", "1/x", "--a", "1", "--schedule", "1e308:2:8:0.01"]),
        "expression": (2, ["mean", "--f", "x +", "--m", "x", "--a", "0", "--r", "1", "--R", "2"]),
        "literal": (2, ["table", "--f", "1e999", "--a", "1", "--table", "1:2:uniform:3"]),
        "tol-nan": (2, ["mean", "--f", "1/x", "--a", "1", "--r", "1", "--R", "10",
                        "--tol", "nan"]),
        "steps": (2, ["verify", "--property", "monotonicity", "--f", "1/x", "--m", "ln(x)",
                      "--a", "1", "--b", "50", "--steps", "1"]),
        "pole": (3, ["mean", "--f", "1/x", "--m", "x", "--a", "0", "--b", "10",
                     "--r", "0", "--R", "1"]),
        "overflow": (3, ["table", "--f", "1e308*x", "--a", "1", "--table", "1:2:uniform:3"]),
        "not-increasing": (3, ["mean", "--f", "1/x", "--m", "x+2*sin(x)", "--a", "1",
                               "--r", "1", "--R", "12"]),
    }

    @pytest.mark.parametrize("name", CALLS)
    def test_one_error_line(self, name):
        code, argv = self.CALLS[name]
        src = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.run([sys.executable, "-m", "meanmax", *argv],
                              capture_output=True, text=True, timeout=60,
                              env=dict(os.environ, PYTHONPATH=src, PYTHONWARNINGS="default"))
        assert (proc.returncode, proc.stdout) == (code, "")
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr


class TestDeepExpressions:
    # The parser, the derivative and the compiled code keep their own stacks,
    # so neither Python's recursion limit nor its parser's limit of 200 nested
    # parentheses bounds the nesting of an expression, through --f or --m.
    # name: (text, the rows of --f on 1:2:uniform:3)
    SHAPES = {
        "parens": ("(" * 300 + "x" + ")" * 300, "1,1\n1.5,1.5\n2,2\n"),
        "sums-in-parens": ("1+(" * 210 + "x" + ")" * 210, "1,211\n1.5,211.5\n2,212\n"),
        "minus-signs": ("-" * 300 + "x", "1,1\n1.5,1.5\n2,2\n"),
        "long-sum": ("+".join(["x"] * 400), "1,400\n1.5,600\n2,800\n"),
        "longer-sum": ("+".join(["x"] * 1200), "1,1200\n1.5,1800\n2,2400\n"),
    }

    @pytest.mark.parametrize("name", SHAPES)
    @pytest.mark.parametrize("flag", ["--f", "--m"])
    def test_usage_error(self, capsys, name, flag):
        # Named when these were usage errors; each now computes.  As --m each
        # shape is a multiple of x, so the mean of 1/x over [2, 3] is ln(3/2).
        text, rows = self.SHAPES[name]
        argv = [*TABLE, f"--f={text}"] if flag == "--f" else [*MEAN, f"--m={text}"]
        want = rows if flag == "--f" else "0.4054651081\n"
        assert run(capsys, *argv) == (0, want, "")

    @pytest.mark.parametrize("text, want", [
        ("(" * 190 + "x" + ")" * 190, "1,1\n1.5,1.5\n2,2\n"),
        ("+".join(["x"] * 201), "1,201\n1.5,301.5\n2,402\n"),
    ], ids=["190-levels", "201-terms"])
    def test_deep_but_within_the_limits(self, text, want):
        # A fresh interpreter, so the stack depth of the test runner does not count.
        src = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.run([sys.executable, "-m", "meanmax", *TABLE, f"--f={text}"],
                              capture_output=True, text=True, timeout=60,
                              env=dict(os.environ, PYTHONPATH=src))
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, want, "")


class TestDeterminism:
    def test_verify_byte_identical(self, capsys):
        argv = ["verify", "--property", "F1", "--f", "exp(-x)", "--m", "x",
                "--a", "0", "--b", "50", "--pairs", "60", "--seed", "7"]
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2

    def test_transform_byte_identical(self, capsys):
        argv = ["transform", "--kind", "q-from-d", "--d", "1/ln(x)",
                "--r0", "2.718281828", "--table", "10:1e3:geometric:7"]
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2
