import math
import warnings

import numpy as np
import pytest

from meanmax.cli import load_csv_function, run_command
from meanmax.errors import CsvFormatError


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

    def test_too_few_rows(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("1,1\n")
        with pytest.raises(CsvFormatError, match="at least 2"):
            load_csv_function(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(CsvFormatError, match="no such file"):
            load_csv_function(tmp_path / "nope.csv")


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

    def test_accepts_measure_that_overflows_past_the_interval(self, capsys):
        code, out, _ = run(
            capsys, "mean", "--f", "x", "--m", "exp(x)",
            "--a", "0", "--b", "inf", "--r", "1", "--R", "5",
        )
        assert code == 0
        e = math.e
        assert float(out) == pytest.approx(4 * e**5 / (e**5 - e), rel=1e-8)


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

    def test_numeric_failure_exit_code(self, capsys):
        # mean over an interval where the integrand blows up at the endpoint
        code, _, err = run(
            capsys, "mean", "--f", "1/x", "--m", "x", "--a", "0", "--b", "10",
            "--r", "0", "--R", "1",
        )
        assert code == 3

    def test_help_exits_zero(self, capsys):
        code, _, _ = run(capsys, "--help")
        assert code == 0


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
