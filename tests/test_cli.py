import csv
import hashlib
import io
import json
import math
import shlex
from pathlib import Path

import pytest

from fibzeta.cli import GridRequest, build_parser, main, parse_complex
from fibzeta.errors import DomainError


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -------------------------------------------------------------- complex parsing

@pytest.mark.parametrize(
    "text,expected",
    [
        ("2", 2 + 0j),
        ("-1", -1 + 0j),
        ("1.5+2i", 1.5 + 2j),
        ("1.5-2.25i", 1.5 - 2.25j),
        ("3i", 3j),
        ("-i", -1j),
        ("+i", 1j),
        ("1+i", 1 + 1j),
        ("0.5+14.134725i", 0.5 + 14.134725j),
        ("1e-3-2e-3i", 0.001 - 0.002j),
    ],
)
def test_parse_complex_accepts(text, expected):
    assert parse_complex(text) == expected


@pytest.mark.parametrize("text", ["", "1+2", "i1", "2+3j5", "1 + 2i2", "abc"])
def test_parse_complex_rejects(text):
    with pytest.raises(ValueError):
        parse_complex(text)


# ------------------------------------------------------------------------ eval

def test_eval_reciprocal_fibonacci(capsys):
    code, out, _ = run_cli(capsys, "eval", "--D", "5", "--s", "1",
                           "--parity", "combined", "--method", "binomial")
    assert code == 0
    value = float(out.split("value_re:")[1].splitlines()[0])
    assert abs(value - 3.359885666243) < 1e-9


def test_eval_even_minus_one_poisson(capsys):
    code, out, _ = run_cli(capsys, "eval", "--D", "5", "--s=-1",
                           "--parity", "even", "--method", "poisson")
    assert code == 0
    value = float(out.split("value_re:")[1].splitlines()[0])
    assert abs(value - (-1.0)) < 1e-9


def test_eval_norm_plus_one_failure(capsys):
    code, _, err = run_cli(capsys, "eval", "--D", "6", "--s", "1", "--parity", "odd")
    assert code == 4
    assert "NormPlusOneError" in err


def test_eval_pole_proximity_exit_code(capsys):
    code, _, err = run_cli(capsys, "eval", "--D", "5", "--s", "1e-9", "--parity", "odd")
    assert code == 3
    assert "PoleProximityError" in err


@pytest.mark.parametrize("s, parity, factor", [
    ("0.3+300i", "odd", "1/Gamma(s)"),  # cmath.sin(pi s) overflows in rgamma
    ("-400+1i", "even", "Gamma(1 - s)"),  # the left-region prefactor
    ("400", "odd", "Gamma(s/2 + i v_m) Gamma(s/2 - i v_m)"),
    ("-3+1000i", "even", "sin(pi s/2)"),
    ("0.3+1000i", "even", "sin(pi s/2)"),  # czeta forms its own chi in log form there
])
def test_eval_poisson_factor_out_of_double_range_is_numerical_error(capsys, s, parity, factor):
    code, out, err = run_cli(capsys, "eval", "--D", "5", f"--s={s}", "--parity", parity,
                             "--method", "poisson")
    assert code == 3 and out == ""
    assert err == f"error: FactorOverflowError: the factor {factor} leaves double range " \
                  f"at s={parse_complex(s)}\n"


@pytest.mark.parametrize("parity, re_range, im_range, bad", [
    ("odd", ("0.3", "0.3", "1"), ("100", "300", "100"), {("0.29999999999999999", "300")}),
    ("even", ("-401", "-1", "200"), ("1", "1", "1"), {("-401", "1"), ("-201", "1")}),
])
def test_grid_keeps_its_good_rows_around_a_factor_overflow(capsys, parity, re_range, im_range, bad):
    code, out, _ = run_cli(capsys, "grid", "--D", "5", "--parity", parity, "--methods", "poisson",
                           "--re", *re_range, "--im", *im_range)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert len(rows) == 3
    for row in rows:
        if (row[0], row[1]) in bad:
            assert row[3:] == ["", "", "", "", "FactorOverflowError"]
        else:
            assert row[7] == "ok" and all(math.isfinite(float(cell)) for cell in row[3:7])


@pytest.mark.parametrize("s", ["1e999", "1e999i"])
def test_eval_non_finite_s_is_domain_error(capsys, s):
    code, out, err = run_cli(capsys, "eval", "--D", "5", "--s", s)
    assert code == 4 and out == ""
    assert "DomainError" in err and "finite" in err


@pytest.mark.parametrize("method", ["direct", "binomial", "poisson", "shifted_convolution"])
@pytest.mark.parametrize("tol", ["0", "-1", "nan", "1", "0.0100001"])
def test_eval_tol_out_of_range_is_domain_error(capsys, method, tol):
    code, out, err = run_cli(capsys, "eval", "--D", "5", "--s", "0.3+2i", "--parity", "even",
                             "--method", method, f"--tol={tol}")
    assert code == 4 and out == ""
    assert "DomainError: tol must be in (0, 1e-2]" in err


def test_eval_json_output(capsys):
    code, out, _ = run_cli(capsys, "eval", "--D", "5", "--s", "2", "--json")
    assert code == 0
    record = json.loads(out)
    assert record["method"] == "binomial"
    assert abs(float(record["value_re"]) - 2.426320751167241) < 1e-9


def test_eval_bad_complex_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "eval", "--D", "5", "--s", "nope")
    assert code == 2


# ------------------------------------------------------------------------ grid

def test_grid_rows_and_method_deltas(capsys):
    code, out, _ = run_cli(
        capsys, "grid", "--D", "5", "--parity", "odd",
        "--re", "1", "3", "1", "--im", "-1", "1", "1",
        "--methods", "binomial,poisson", "--tol", "1e-12",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][0] == "re_s"
    data = rows[1:]
    assert len(data) == 18  # 9 points x 2 methods
    by_point = {}
    for row in data:
        assert row[7] == "ok"
        by_point.setdefault((row[0], row[1]), {})[row[2]] = complex(float(row[3]), float(row[4]))
    for vals in by_point.values():
        assert abs(vals["binomial"] - vals["poisson"]) < 1e-8


def test_grid_marks_pole_rows(capsys):
    code, out, _ = run_cli(
        capsys, "grid", "--D", "5", "--parity", "odd",
        "--re", "-1", "1", "1", "--im", "0", "0", "1",
        "--methods", "binomial",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))[1:]
    status = {row[0]: row[7] for row in rows}
    assert status["0"] == "pole"
    assert status["1"] == "ok"


def test_grid_marks_shifted_convolution_rows_that_miss_tol(capsys):
    code, out, _ = run_cli(
        capsys, "grid", "--D", "5", "--parity", "odd",
        "--re", "1", "4", "3", "--im", "0", "0", "1",
        "--methods", "shifted_convolution", "--tol", "1e-12",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))[1:]
    status = {row[0]: row[7] for row in rows}
    assert status == {"1": "TooSlowConvergenceError", "4": "ok"}


def test_grid_reversed_or_endless_range_is_domain_error(capsys):
    for re_range in (("2", "1", "1"), ("1", "0", "0.5"), ("0", "1e308", "1e-300")):
        code, out, err = run_cli(
            capsys, "grid", "--D", "5", "--re", *re_range, "--im", "0", "0", "1",
        )
        assert code == 4 and out == "", re_range
        assert "DomainError" in err


# SHA-256 of the CSV of D=5 binomial grids with pole rows: how the grid path
# builds its rows and finds poles must leave these bytes as they are
GRID_SHA256 = {
    "odd": "59c2892ac1da2f525ebcf69d62f4adaba15ed080d795d5a624b85a1f868445ea",
    "even": "67ae4b0ea9c74fb3743244abc6cb4a67ce90379dc190692f4ff01fa0e25a9bdb",
    "combined": "1330a288f8df4b2f79c3db0723e29286dc8d6285dc96c00f3da8bf8fc2448644",
}


def test_grid_csv_round_trip_bit_identical(capsys):
    code, out, _ = run_cli(
        capsys, "grid", "--D", "5", "--parity", "even",
        "--re", "0.3", "2.3", "0.5", "--im", "0.1", "0.1", "1",
        "--methods", "binomial", "--tol", "1e-12",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))[1:]
    for row in rows:
        for cell in (row[3], row[4]):
            assert f"{float(cell):.17g}" == cell
    for parity, digest in GRID_SHA256.items():
        code, out, _ = run_cli(
            capsys, "grid", "--D", "5", "--parity", parity,
            "--re", "-3", "2", "0.5", "--im", "-7", "7", "1", "--methods", "binomial",
        )
        assert code == 0 and out.count(",pole") > 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, parity


GOLDEN = Path(__file__).resolve().parent / "data"


@pytest.mark.parametrize("parity", ["odd", "even"])
def test_poisson_grid_matches_the_recorded_csv_byte_for_byte(tmp_path, parity):
    """A D = 29 box over the left (Re s <= -0.25), strip and direct regions of
    the even form, and the odd series on the same points.  The CSV was
    recorded before the Lanczos, reflection, Borwein and pair-sum kernels
    were rewritten; any drift in the last bit of a value changes its bytes."""
    out = tmp_path / "grid.csv"
    code = main(["grid", "--D", "29", "--parity", parity, "--methods", "poisson",
                 "--re", "-6.5", "1.0", "0.375", "--im", "-19", "17", "6", "--out", str(out)])
    assert code == 0
    assert out.read_bytes() == (GOLDEN / f"grid_poisson_d29_{parity}.csv").read_bytes()


def test_grid_json_format(capsys):
    code, out, _ = run_cli(
        capsys, "grid", "--D", "5", "--re", "1", "2", "1", "--im", "0", "0", "1",
        "--methods", "binomial", "--format", "json",
    )
    assert code == 0
    records = json.loads(out)
    assert len(records) == 2
    assert records[0]["status"] == "ok"


def test_grid_request_validation():
    with pytest.raises(DomainError):
        GridRequest(5, "odd", (0.0, 1.0, -0.1), (0.0, 1.0, 0.5), ("binomial",), 1e-10, "csv")
    for tol in (0.5, 0.0, -1.0, float("nan")):
        with pytest.raises(DomainError, match=r"tol must be in \(0, 1e-2\]"):
            GridRequest(5, "odd", (0.0, 1.0, 0.1), (0.0, 1.0, 0.5), ("binomial",), tol, "csv")
    with pytest.raises(DomainError):
        GridRequest(5, "odd", (0.0, 1.0, 0.1), (0.0, 1.0, 0.5), ("sorcery",), 1e-10, "csv")
    with pytest.raises(DomainError):
        GridRequest(5, "whatever", (0.0, 1.0, 0.1), (0.0, 1.0, 0.5), ("binomial",), 1e-10, "csv")
    with pytest.raises(DomainError):
        GridRequest(5, "odd", (0.0, 1.0, 0.1), (1.0, 0.0, 0.5), ("binomial",), 1e-10, "csv")
    with pytest.raises(DomainError):
        GridRequest(5, "odd", (-1e308, 1e308, 1.0), (0.0, 1.0, 0.5), ("binomial",), 1e-10, "csv")
    one_point = GridRequest(5, "odd", (1.0, 1.0, 0.1), (0.0, 0.0, 0.5), ("binomial",), 1e-10, "csv")
    assert one_point.axis("re") == [1.0] and one_point.axis("im") == [0.0]


def test_grid_out_to_an_unopenable_path_is_usage_error(capsys, tmp_path):
    grid = ("grid", "--D", "5", "--methods", "binomial", "--re", "1", "2", "1", "--im", "0", "0", "1")
    for target in (tmp_path / "missing" / "grid.csv", tmp_path):
        code, out, err = run_cli(capsys, *grid, "--out", str(target))
        assert code == 2 and out == "", target
        assert err.startswith("error: ") and err.count("\n") == 1, err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("d, parity", [("4", "odd"), ("3", "odd"), ("3", "even")])
def test_grid_domain_error_leaves_out_untouched(capsys, tmp_path, d, parity):
    """A D that is not squarefree, or odd/even on a norm +1 field, refuses
    every row: the grid exits 4 before --out is opened."""
    grid = ("grid", "--D", d, "--parity", parity, "--re", "0", "1", "1", "--im", "0", "0", "1")
    keep = tmp_path / "keep.csv"
    keep.write_bytes(b"re_s,im_s\r\n1,2\r\n")
    for target, before in ((keep, keep.read_bytes()), (tmp_path / "new.csv", None)):
        code, out, err = run_cli(capsys, *grid, "--out", str(target))
        assert code == 4 and out == "", target
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert (target.read_bytes() if target.exists() else None) == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["keep.csv"]


def _csv_writer_text(rows):
    """The reference dialect: what the default csv.writer writes for rows."""
    buf = io.StringIO(newline="")
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


@pytest.mark.parametrize("argv", [
    ("grid", "--D", "5", "--parity", "even", "--methods", "poisson,binomial",
     "--re", "-402", "-2", "200", "--im", "0", "1", "1"),
    ("poles", "--D", "5", "--which", "combined"),
    ("sequence", "--D", "10", "--n", "12"),
])
def test_csv_tables_are_what_csv_writer_writes(capsys, tmp_path, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out, newline="")))
    assert out == _csv_writer_text(rows)
    if argv[0] == "grid":
        assert {row[7] for row in rows[1:]} == {"ok", "pole", "FactorOverflowError"}
        path = tmp_path / "grid.csv"
        assert run_cli(capsys, *argv, "--out", str(path)) == (0, "", "")
        assert path.read_bytes() == _csv_writer_text(rows).encode()


@pytest.mark.parametrize("argv, flag", [
    (("sequence", "--D", "5", "--n", "-1"), "--n"),
    (("poles", "--D", "5", "--kmax", "-1"), "--kmax"),
    (("poles", "--D", "5", "--mmax", "-2"), "--mmax"),
])
def test_negative_table_sizes_are_usage_errors(capsys, argv, flag):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {flag} ") and err.count("\n") == 1, err


# ----------------------------------------------------------------------- poles

def test_poles_odd_table(capsys):
    code, out, _ = run_cli(capsys, "poles", "--D", "5", "--kmax", "1", "--mmax", "1")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert len(rows) == 6


def test_poles_combined_filters(capsys):
    code, out, _ = run_cli(capsys, "poles", "--D", "5", "--kmax", "1", "--mmax", "1",
                           "--which", "combined")
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert {(r[0], r[1]) for r in rows} == {("0", "0"), ("1", "-1"), ("1", "1")}


def test_poles_origin_residue(capsys):
    code, out, _ = run_cli(capsys, "poles", "--D", "5", "--kmax", "0", "--mmax", "0")
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert len(rows) == 1
    assert abs(float(rows[0][4]) - 1.0390434606175138) < 1e-12


def test_poles_norm_plus_one_exit(capsys):
    code, _, err = run_cli(capsys, "poles", "--D", "7")
    assert code == 4


# -------------------------------------------------------------------- sequence

def test_sequence_d3(capsys):
    code, out, _ = run_cli(capsys, "sequence", "--D", "3", "--n", "5")
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert rows[-1][:3] == ["5", "209", "724"]
    assert all(r[3] == "ok" for r in rows)


def test_sequence_d10(capsys):
    code, out, _ = run_cli(capsys, "sequence", "--D", "10", "--n", "4")
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert rows[-1][:3] == ["4", "228", "1442"]


def test_sequence_d5(capsys):
    code, out, _ = run_cli(capsys, "sequence", "--D", "5", "--n", "10")
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert rows[-1][:3] == ["10", "55", "123"]


# ---------------------------------------------------------------------- detect

def test_detect_even_member(capsys):
    code, out, _ = run_cli(capsys, "detect", "--D", "5", "--n", "8")
    assert code == 0
    assert "member_even_index" in out and "witness: 18" in out


def test_detect_non_member(capsys):
    code, out, _ = run_cli(capsys, "detect", "--D", "5", "--n", "4")
    assert code == 0
    assert "not_member" in out


# ---------------------------------------------------------------------- verify

def test_verify_special_values(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "special-values", "--D", "5")
    assert code == 0
    assert "PASS" in out and "FAIL" not in out


def test_verify_cross_method_on_norm_plus_one_fields(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "cross-method", "--D", "3,7")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 6 and all(line.startswith("PASS") for line in lines)
    assert "cross-method combined D=3" in lines[0]
    assert "binomial-vs-shifted-convolution D=7" in lines[5]


def test_verify_pell_small_bound(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "pell", "--D", "5",
                           "--bound", "20000")
    assert code == 0
    assert "pell-membership D=5" in out


def test_verify_unknown_suite_usage_error(capsys):
    code, _, err = run_cli(capsys, "verify", "--suite", "astrology")
    assert code == 2
    assert "unknown suite" in err


@pytest.mark.parametrize("flag", [["--points", "4"], ["--points", "-5"], ["--bound", "0"]])
def test_verify_rejects_empty_samples(capsys, flag):
    for suite in ("cross-method", "pell", "sequences"):
        code, out, err = run_cli(capsys, "verify", "--suite", suite, "--D", "5", *flag)
        assert code == 2 and out == "" and flag[0] in err


def test_verify_all_matches_the_recorded_output_byte_for_byte(capsys):
    """Every suite at a small bound and sample: the lines were recorded while
    the suites still called each evaluator by hand, before they went through
    evaluate; any change of route or of a value's last bit changes them."""
    code, out, err = run_cli(capsys, "verify", "--suite", "all", "--seed", "1",
                             "--bound", "2000", "--points", "20")
    assert (code, err) == (0, "")
    assert out == (GOLDEN / "verify_all_seed1_bound2000_points20.txt").read_text()


def test_verify_deterministic_with_seed(capsys):
    code1, out1, _ = run_cli(capsys, "verify", "--suite", "zeta-cancellation",
                             "--D", "5", "--seed", "42")
    code2, out2, _ = run_cli(capsys, "verify", "--suite", "zeta-cancellation",
                             "--D", "5", "--seed", "42")
    assert (code1, out1) == (code2, out2)


# ------------------------------------------------------------ settings flags

def test_pole_guard_flag_sets_the_radius(capsys):
    argv = ["eval", "--D", "5", "--s", "0.4", "--parity", "odd"]
    # inside a huge guard radius -> pole proximity
    code, _, err = run_cli(capsys, *argv, "--pole-guard", "0.5")
    assert code == 3 and "PoleProximityError" in err
    code, out_flag, _ = run_cli(capsys, *argv, "--pole-guard", "1e-3")
    code_default, out_default, _ = run_cli(capsys, *argv)
    assert code == code_default == 0 and out_flag == out_default


@pytest.mark.parametrize("radius", ["-1", "0", "nan", "inf"])
def test_pole_guard_must_be_finite_and_positive(capsys, radius):
    for argv in (["eval", "--D", "5", "--s", "0", "--parity", "odd", "--method", "binomial"],
                 ["grid", "--D", "5", "--parity", "odd", "--re", "0", "1", "1",
                  "--im", "0", "0", "1", "--methods", "binomial"]):
        code, out, err = run_cli(capsys, *argv, f"--pole-guard={radius}")
        assert code == 2 and out == "" and "pole_guard_radius" in err


def test_settings_flags_only_where_they_change_output(capsys):
    code, _, err = run_cli(capsys, "verify", "--suite", "sequences", "--pole-guard", "1")
    assert code == 2 and "unrecognized arguments" in err
    for argv in (["poles", "--D", "5"], ["sequence", "--D", "5", "--n", "3"],
                 ["detect", "--D", "5", "--n", "8"]):
        assert main(argv + ["--pole-guard", "1"]) == 2


@pytest.mark.parametrize("flag", [["--config", "x.conf"], ["--workers", "2"]])
def test_removed_options_are_usage_errors(capsys, flag):
    for argv in (["eval", "--D", "5", "--s", "2"],
                 ["grid", "--D", "5", "--re", "1", "2", "1", "--im", "0", "0", "1"],
                 ["poles", "--D", "5"], ["verify", "--suite", "sequences"],
                 ["sequence", "--D", "5", "--n", "3"], ["detect", "--D", "5", "--n", "8"]):
        code, out, err = run_cli(capsys, *argv, *flag)
        assert code == 2 and out == "" and "unrecognized arguments" in err


def test_readme_command_lines_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    commands = [shlex.split(line) for line in lines if line.startswith("fibzeta ")]
    assert len(commands) >= 6
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv[1:])  # exits (SystemExit 2) on an unknown flag


def test_usage_error_exit_code(capsys):
    assert main(["eval", "--D", "5"]) == 2  # missing --s
    assert main(["unknown-command"]) == 2
