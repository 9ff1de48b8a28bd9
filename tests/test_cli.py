import csv
import io
import json
import math
import os
import shlex
import subprocess
import sys
import time
from itertools import zip_longest
from pathlib import Path

import pytest

from fibzeta import ZetaEvaluation, make_field, pole_lattice
from fibzeta.cli import GridRequest, build_parser, main, parse_complex
from fibzeta.errors import DomainError


ROOT = Path(__file__).resolve().parents[1]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _python(*args):
    """A new interpreter, with this checkout's src first on its path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, *args], capture_output=True, env=env, timeout=120,
                          check=False)


def _fresh_process(argv):
    """(exit code, stdout, stderr) of argv as a command line in a new interpreter."""
    proc = _python("-c", "from fibzeta.cli import entry_point; entry_point()", *argv)
    return proc.returncode, proc.stdout.decode(), proc.stderr.decode()


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
    ("0.3+1000i", "even", "sin(pi s/2)"),  # Gamma(1 - s) underflows to 0 there
])
def test_eval_poisson_factor_out_of_double_range_is_numerical_error(capsys, s, parity, factor):
    code, out, err = run_cli(capsys, "eval", "--D", "5", f"--s={s}", "--parity", parity,
                             "--method", "poisson")
    assert code == 3 and out == ""
    assert err == f"error: FactorOverflowError: the factor {factor} leaves double range " \
                  f"at s={parse_complex(s)}\n"


@pytest.mark.parametrize("s", ["0.1+1e12i", "0.3-1e300i", "0.2+1e5i"])
def test_eval_poisson_even_far_up_the_axis_refuses_at_once(capsys, s):
    """The pair sum forms sin(pi s/2) before its first pair, and that factor
    leaves double range past |Im s| ~ 452, so the point is refused at once."""
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "eval", "--D", "5", f"--s={s}", "--parity", "even",
                             "--method", "poisson")
    assert time.perf_counter() - start < 1.0
    assert code == 3 and out == ""
    assert err == "error: FactorOverflowError: the factor sin(pi s/2) leaves double range " \
                  f"at s={parse_complex(s)}\n"


@pytest.mark.parametrize("d, s, parity, factor", [
    (5, "-890+3i", "combined", "a term of the k-sum"),
    (5, "-800+3i", "odd", "a term of the k-sum"),  # u^2 overflows: inf / inf
    (5, "-700+3i", "even", "a term of the k-sum"),
    (5, "-2000+3i", "odd", "a term of the k-sum"),  # u itself overflows
    (5, "-1000+3i", "combined", "q^(s/2)"),  # 5^-500 underflows
    (5, "-1000+3i", "even", "q^(s/2)"),
    (5, "-1000+3i", "odd", "q^(s/2)"),
    (5, "900", "odd", "q^(s/2)"),  # 5^450 overflows
    (5, "99990", "odd", "q^(s/2)"),
    (94, "240", "combined", "q^(s/2)"),  # norm +1; every u underflows to 0
])
def test_eval_binomial_factor_out_of_double_range_is_named(capsys, d, s, parity, factor):
    code, out, err = run_cli(capsys, "eval", "--D", str(d), f"--s={s}", "--parity", parity,
                             "--method", "binomial")
    assert code == 3 and out == ""
    assert err == f"error: FactorOverflowError: the factor {factor} leaves double range " \
                  f"at s={parse_complex(s)}\n"


@pytest.mark.parametrize("argv, code, error", [
    # sums that end in NaN: a binomial term and a Poisson odd product
    (("--D", "29", "--s=-385.79660001299067+79.71135429964164i", "--parity", "even",
      "--method", "binomial", "--tol", "1e-9", "--json"), 3, "FactorOverflowError"),
    (("--D", "2", "--s=592.28+3465.61i", "--parity", "odd", "--method", "poisson",
      "--tol", "1e-3"), 3, "FactorOverflowError"),
    # OverflowError in q^(s/2), and in the binomial u
    (("--D", "61", "--s=872.71-4382.88i", "--parity", "odd", "--method", "poisson"),
     3, "FactorOverflowError"),
    (("--D", "5", "--s=-2000+3i", "--method", "binomial"), 3, "FactorOverflowError"),
    # an |s| above the limit, near where math functions fail on their arguments
    (("--D", "5", "--s=1e308+1e308i", "--method", "poisson"), 4, "DomainError"),
])
def test_eval_never_prints_a_non_finite_value_or_a_traceback(capsys, argv, code, error):
    assert run_cli(capsys, "eval", *argv)[0] == code
    proc = _fresh_process(["eval", *argv])
    assert proc == (code, "", proc[2])
    assert proc[2].startswith(f"error: {error}: ") and proc[2].count("\n") == 1, proc[2]


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


def test_eval_prints_the_fields_of_the_record(capsys):
    """eval prints each field of ZetaEvaluation, value as its two parts."""
    fields = list(ZetaEvaluation._fields)
    keys = ["value_re", "value_im", *fields[1:]]
    code, out, _ = run_cli(capsys, "eval", "--D", "5", "--s", "0.5+3i", "--json")
    assert code == 0 and list(json.loads(out)) == keys
    code, out, _ = run_cli(capsys, "eval", "--D", "5", "--s", "0.5+3i")
    assert code == 0 and [line.split(":")[0] for line in out.splitlines()] == keys


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


@pytest.mark.parametrize("axis, exponent_form, plain_form", [
    ("re", ("-1e1", "0", "5"), ("-10", "0", "5")),
    ("re", ("-2.5E-0", "-1e-1", "1.2e0"), ("-2.5", "-0.1", "1.2")),
    ("im", ("-1e1", "0", "5"), ("-10", "0", "5")),
    ("im", ("-1E+0", "-5e-1", "5e-1"), ("-1", "-.5", ".5")),
])
def test_grid_axes_take_negative_bounds_in_exponent_form(capsys, axis, exponent_form, plain_form):
    other = "im" if axis == "re" else "re"
    outputs = []
    for form in (exponent_form, plain_form):
        outputs.append(run_cli(capsys, "grid", "--D", "5", "--methods", "binomial",
                               f"--{axis}", *form, f"--{other}", "-1", "0", "1"))
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == 0 and outputs[0][2] == ""


@pytest.mark.parametrize("value", ["-10", "-10.5", "-.5", "-0", "10", "1e1", "1E-3", ".25",
                                   "inf", "-1e1", "-1.5e-3", "-10.", "-7E+2"])
def test_grid_axis_bounds_parse_as_floats(value):
    """Plain forms, negative or not, and negative exponent forms all parse
    to float(value)."""
    args = build_parser().parse_args(
        ["grid", "--D", "5", "--re", value, "0", "1", "--im", value, "0", "1"])
    assert args.re == args.im == [float(value), 0.0, 1.0]


@pytest.mark.parametrize("value", ["-x", "-1e", "--1", "-e1"])
def test_grid_axis_refuses_what_is_not_a_number(capsys, value):
    code, out, err = run_cli(capsys, "grid", "--D", "5", "--re", value, "0", "1",
                             "--im", "0", "0", "1")
    assert code == 2 and out == ""
    assert "argument --re" in err


def test_grid_csv_round_trip_bit_identical(capsys):
    code, out, _ = run_cli(
        capsys, "grid", "--D", "5", "--parity", "even",
        "--re", "0.3", "2.3", "0.5", "--im", "0.1", "0.1", "1",
        "--methods", "binomial", "--tol", "1e-12",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert rows and all(row[7] == "ok" for row in rows)
    for row in rows:
        for cell in row[3:7]:
            assert f"{float(cell):.17g}" == cell


GOLDEN = Path(__file__).resolve().parent / "data"


@pytest.mark.parametrize("parity", ["odd", "even"])
def test_poisson_grid_matches_the_recorded_csv_byte_for_byte(tmp_path, parity):
    """A D = 29 box over the pair-sum (Re s < 0.5) and direct regions of the
    even form, and the odd series on the same points.  The odd CSV was last
    recorded when log Gamma became Stirling's series alone and zeta
    Euler-Maclaurin alone, the even one when the strip form gave way to the
    pair sum (its rows with -0.25 < Re s < 0.5); any drift in the last bit
    of a value changes its bytes.  tests/data/README.md gives the commands
    that write both."""
    out = tmp_path / "grid.csv"
    code = main(["grid", "--D", "29", "--parity", parity, "--methods", "poisson",
                 "--re", "-6.5", "1.0", "0.375", "--im", "-19", "17", "6", "--out", str(out)])
    assert code == 0
    assert out.read_bytes() == (GOLDEN / f"grid_poisson_d29_{parity}.csv").read_bytes()


@pytest.mark.parametrize("parity", ["odd", "even"])
def test_d5_poisson_grid_matches_the_recorded_csv_byte_for_byte(tmp_path, parity):
    """A D = 5 box, Re s in [-7, 3] and |Im s| <= 30: the odd series both
    reflected and not (Re s >= 1), both branches of log sin(pi z) in the pair
    terms, and a step pi / (2 log eps) other than D = 29's.  The odd CSV was
    last recorded when log Gamma became Stirling's series alone, the even one
    when the strip form gave way to the pair sum (its rows with
    -0.25 < Re s < 0.5)."""
    out = tmp_path / "grid.csv"
    code = main(["grid", "--D", "5", "--parity", parity, "--methods", "poisson",
                 "--re", "-7", "3", "0.625", "--im", "-30", "30", "7.5", "--out", str(out)])
    assert code == 0
    assert out.read_bytes() == (GOLDEN / f"grid_poisson_d5_{parity}.csv").read_bytes()


@pytest.mark.parametrize("d, parity", [(5, "odd"), (5, "even"), (5, "combined"), (3, "combined")],
                         ids=["odd", "even", "combined", "d3-combined"])
def test_binomial_grid_matches_the_recorded_csv_byte_for_byte(tmp_path, d, parity):
    """A binomial box with pole rows: how the grid path builds its rows and
    finds poles, and the split series' values to the last bit, must leave
    these bytes as they are.  The D = 5 files were recorded when the series
    split off its direct head; the D = 3 file (a norm +1 field, so the even
    series of the half unit) before the pole search settled its common case
    inline and the series read its constants from the field."""
    out = tmp_path / "grid.csv"
    code = main(["grid", "--D", str(d), "--parity", parity, "--methods", "binomial",
                 "--re", "-3", "2", "0.5", "--im", "-7", "7", "1", "--out", str(out)])
    assert code == 0
    recorded = (GOLDEN / f"grid_binomial_d{d}_{parity}.csv").read_bytes()
    assert recorded.count(b",pole\r\n") > 0
    assert out.read_bytes() == recorded


def test_grid_json_format(capsys):
    code, out, _ = run_cli(
        capsys, "grid", "--D", "5", "--re", "1", "2", "1", "--im", "0", "0", "1",
        "--methods", "binomial", "--format", "json",
    )
    assert code == 0
    records = json.loads(out)
    assert len(records) == 2
    assert records[0]["status"] == "ok"


def test_grid_json_and_csv_carry_the_same_fields(capsys):
    """Both formats come from the same CSV lines: ok, pole and error rows alike."""
    grid = ("grid", "--D", "5", "--parity", "even", "--methods", "poisson,binomial",
            "--re", "-402", "-2", "200", "--im", "0", "1", "1")
    code, out, _ = run_cli(capsys, *grid)
    assert code == 0
    header, *rows = csv.reader(io.StringIO(out, newline=""))
    code, out, _ = run_cli(capsys, *grid, "--format", "json")
    assert code == 0
    assert json.loads(out) == [dict(zip(header, row)) for row in rows]
    assert {row[7] for row in rows} == {"ok", "pole", "FactorOverflowError"}


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
    with pytest.raises(DomainError):
        one_point._replace(output="xml")  # a changed copy is checked too


def test_grid_request_refuses_repeated_methods_and_too_many_rows():
    """Both refusals count rows by axis()'s own formula, before any axis is
    built: a step of 1e-12 would be 10^12 + 1 points an axis."""
    square = ((0.0, 999.0, 1.0), (0.0, 999.0, 1.0))  # 1000 x 1000 points
    assert GridRequest(5, "odd", *square, ("binomial",), 1e-10, "csv").re_range == square[0]
    for methods in (("binomial", "binomial"), ("poisson", "binomial", "poisson")):
        with pytest.raises(DomainError, match="grid methods repeat"):
            GridRequest(5, "odd", (0.0, 1.0, 1.0), (0.0, 0.0, 1.0), methods, 1e-10, "csv")
    for ranges, methods in ((square, ("binomial", "poisson")),
                            (((0.0, 1.0, 1e-12), (0.0, 1.0, 1e-12)), ("binomial",))):
        with pytest.raises(DomainError, match="more than 1000000"):
            GridRequest(5, "odd", *ranges, methods, 1e-10, "csv")


@pytest.mark.parametrize("extra", [
    ("--methods", "binomial,binomial", "--re", "0", "1", "1", "--im", "0", "0", "1"),
    ("--methods", "binomial", "--re", "0", "1", "1e-12", "--im", "0", "1", "1e-12"),
])
def test_grid_refusal_leaves_out_untouched(capsys, tmp_path, monkeypatch, extra):
    """A repeated method or more than 10^6 rows exits 4 before --out is
    opened and before any row is computed."""
    def no_rows(*_):
        raise AssertionError("a refused grid computed rows")

    monkeypatch.setattr("fibzeta.cli._grid_rows", no_rows)
    keep = tmp_path / "keep.csv"
    keep.write_bytes(b"re_s,im_s\r\n1,2\r\n")
    for target, before in ((keep, keep.read_bytes()), (tmp_path / "new.csv", None)):
        code, out, err = run_cli(capsys, "grid", "--D", "5", *extra, "--out", str(target))
        assert code == 4 and out == "", target
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert (target.read_bytes() if target.exists() else None) == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["keep.csv"]


def test_grid_past_the_largest_abs_s_exits_4_and_creates_no_file(capsys, tmp_path, monkeypatch):
    """A box whose farthest corner passes |s| = 1e300 exits 4 before --out is
    opened and before its in-range rows are computed; one whose last axis
    point stays at 1e300, though its hi passes it, still runs."""
    def no_rows(*_):
        raise AssertionError("a refused grid computed rows")

    target = tmp_path / "F"
    for re_range, im_range in ((("1", "1e301", "5e300"), ("0", "0", "1")),
                               (("0", "0", "1"), ("2e300", "2e300", "1")),
                               (("7e299", "7e299", "1"), ("7.5e299", "7.5e299", "1"))):
        with monkeypatch.context() as patch:
            patch.setattr("fibzeta.cli._grid_rows", no_rows)
            code, out, err = run_cli(capsys, "grid", "--D", "5", "--re", *re_range,
                                     "--im", *im_range, "--methods", "binomial",
                                     "--out", str(target))
        assert code == 4 and out == "", re_range
        assert err.startswith("error: ") and "at most 1e+300" in err, err
    assert list(tmp_path.iterdir()) == []
    code, out, _ = run_cli(capsys, "grid", "--D", "5", "--re", "0", "1.5e300", "1e300",
                           "--im", "0", "0", "1", "--methods", "binomial")
    assert code == 0 and len(out.splitlines()) == 3


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

def test_poles_split_table(capsys):
    code, out, _ = run_cli(capsys, "poles", "--D", "5", "--kmax", "1", "--mmax", "1")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert len(rows) == 6
    assert run_cli(capsys, "poles", "--D", "5", "--kmax", "1", "--mmax", "1",
                   "--which", "split") == (0, out, "")


def test_poles_far_down_the_real_axis_are_neither_zero_nor_nan(capsys):
    """From k = 463 at D=5 q^(s0/2) alone underflows, and from k = 511
    C(-s0, k) alone overflows; every residue to k = 600 is in double range."""
    code, out, _ = run_cli(capsys, "poles", "--D", "5", "--kmax", "600", "--mmax", "0")
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert code == 0 and len(rows) == 601
    for row in rows:
        res_odd, res_even = float(row[4]), float(row[6])
        assert math.isfinite(res_odd) and res_odd != 0.0 and abs(res_even) == abs(res_odd), row
    assert float(rows[500][4]) == pytest.approx(9.19303042091676e-51, rel=1e-13)


@pytest.mark.parametrize("which, k", [("split", 182), ("combined", 182)])
def test_poles_refuses_a_residue_out_of_double_range_before_any_row(capsys, which, k):
    """The 993,391-row table of D=5, k <= 190, |m| <= 2600 printed nan from
    k = 182, m = +-2600 on, after 946,000 rows of work.  Since the residue
    grows with |m| at each k, the row of largest |m| at each k is tried
    first, and the table refuses in milliseconds with no row written."""
    code, out, err = run_cli(capsys, "poles", "--D", "5", "--kmax", "190", "--mmax", "2600",
                             "--which", which)
    assert code == 3 and out == ""
    assert err.startswith(f"error: FactorOverflowError: the factor residue (k={k}, m=2600) ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("which", ["odd", "even"])
def test_poles_which_names_a_lattice_not_a_parity(capsys, which):
    code, out, err = run_cli(capsys, "poles", "--D", "5", "--which", which)
    assert code == 2 and out == "" and "invalid choice" in err


@pytest.mark.parametrize("kmax, mmax, which, rows", [
    ("5", "1000000000", "split", 12000000006),
    ("0", "500000", "split", 1000001),
    ("1", "999999", "combined", 1999999),
])
def test_poles_refuses_a_table_of_too_many_rows_before_building_it(
        capsys, monkeypatch, kmax, mmax, which, rows):
    def no_table(*args):
        raise AssertionError("the table was built")

    monkeypatch.setattr("fibzeta.crosscheck.pole_lattice", no_table)
    code, out, err = run_cli(capsys, "poles", "--D", "5", "--kmax", kmax, "--mmax", mmax,
                             "--which", which)
    assert code == 4 and out == ""
    assert err == f"error: DomainError: poles table has {rows} rows, more than 1000000\n"


@pytest.mark.parametrize("which", ["split", "combined"])
def test_poles_row_count_is_that_of_the_table(capsys, monkeypatch, which):
    """The count the refusal names is the table's own: a cap at that count
    passes the table, one below it refuses."""
    field = make_field(5)
    for k_max in range(4):
        for m_max in range(4):
            rows = len(pole_lattice(field, k_max, m_max, which))
            argv = ("poles", "--D", "5", "--kmax", str(k_max), "--mmax", str(m_max),
                    "--which", which)
            monkeypatch.setattr("fibzeta.cli.MAX_GRID_ROWS", rows)
            code, out, _ = run_cli(capsys, *argv)
            assert code == 0 and out.count("\n") == rows + 1
            monkeypatch.setattr("fibzeta.cli.MAX_GRID_ROWS", rows - 1)
            assert run_cli(capsys, *argv)[0] == 4


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


def test_pole_locations_at_k0_have_a_positive_zero_real_part(capsys):
    """-2k is formed in integers, so the k = 0 poles sit at Re s = +0.0: the
    table's re_s0 and the refusal's pole location never read -0."""
    code, out, _ = run_cli(capsys, "poles", "--D", "5", "--which", "combined")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert {r[2] for r in rows if r[0] == "0"} == {"0"}
    code, _, err = run_cli(capsys, "eval", "--D", "5", "--s", "0", "--method", "binomial")
    assert code == 3 and "pole at 0j (k=0, m=0)" in err and "-0" not in err


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


def _first_lucas_index_of_more_digits(digits):
    """The first n with a Lucas number L(n) of more than `digits` digits."""
    n, a, b = 0, 2, 1
    while a < 10**digits:
        n, a, b = n + 1, b, a + b
    return n


def test_sequence_refuses_an_n_whose_terms_python_cannot_print(capsys):
    """Python prints no int of more than sys.get_int_max_str_digits() digits;
    at its smallest setting, 640, the Lucas numbers pass it at n = 3063."""
    if not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("this Python has no limit on printing an int")
    first = _first_lucas_index_of_more_digits(640)
    assert first == 3063
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, out, err = run_cli(capsys, "sequence", "--D", "5", "--n", str(first - 1))
        assert (code, err) == (0, "")
        rows = list(csv.reader(io.StringIO(out)))[1:]
        assert len(rows) == first and len(rows[-1][2]) == 640
        code, out, err = run_cli(capsys, "sequence", "--D", "5", "--n", str(first))
        assert code == 4 and out == ""
        assert f"the largest --n allowed is {first - 1}" in err
    finally:
        sys.set_int_max_str_digits(saved)


def test_sequence_runs_where_python_has_no_print_limit(capsys, monkeypatch):
    monkeypatch.delattr(sys, "get_int_max_str_digits", raising=False)
    code, out, _ = run_cli(capsys, "sequence", "--D", "5", "--n", "10")
    assert code == 0 and out.splitlines()[-1] == "10,55,123,ok"


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


def test_verify_special_values_on_a_norm_plus_one_field(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "special-values", "--D", "3")
    assert code == 0
    lines = out.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        "PASS special-values binomial D=3", "PASS special-values poisson D=3"]
    assert all("[combined at s = -1, -3, ..., -9, relative]" in line for line in lines)


def test_verify_cross_method_on_norm_plus_one_fields(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "cross-method", "--D", "3,7")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 6 and all(line.startswith("PASS") for line in lines)
    assert "cross-method combined D=3" in lines[0]
    assert "binomial-vs-shifted-convolution D=7" in lines[5]


def test_verify_split_suites_skip_a_norm_plus_one_field(capsys):
    """splitting, trivial-zeros and residues check the odd and even parts,
    which D=3 (norm +1) does not have: they print for 3,5 what they print
    for 5 alone, and the whole run passes on D=3."""
    suites = "splitting,trivial-zeros,residues"
    both = run_cli(capsys, "verify", "--suite", suites, "--D", "3,5")
    five = run_cli(capsys, "verify", "--suite", suites, "--D", "5")
    assert both == five and five[0] == 0 and len(five[1].splitlines()) == 5
    code, out, err = run_cli(capsys, "verify", "--suite", "all", "--D", "3",
                             "--bound", "2000", "--points", "10")
    assert (code, err) == (0, "") and len(out.splitlines()) == 15
    assert "FAIL" not in out and "D=3" in out


@pytest.mark.parametrize("suite", ["residues", "splitting", "trivial-zeros",
                                   "splitting,trivial-zeros,residues"])
def test_verify_that_checks_nothing_is_a_usage_error(capsys, suite):
    code, out, err = run_cli(capsys, "verify", "--suite", suite, "--D", "3")
    assert code == 2 and out == ""
    assert err.startswith(f"error: --suite {suite} checks nothing on --D 3")
    code, out, err = run_cli(capsys, "verify", "--suite", f"{suite},golden", "--D", "3")
    assert (code, err) == (0, "") and len(out.splitlines()) == 2


def test_verify_pell_small_bound(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "pell", "--D", "5",
                           "--bound", "20000")
    assert code == 0
    assert "pell-membership D=5" in out


def test_verify_unknown_suite_usage_error(capsys):
    code, _, err = run_cli(capsys, "verify", "--suite", "astrology")
    assert code == 2
    assert "unknown suite" in err


@pytest.mark.parametrize("argv, named", [
    (("--suite", "sequences,sequences"), "--suite repeats sequences"),
    (("--suite", "golden,sequences,golden"), "--suite repeats golden"),
    (("--suite", "pell", "--D", "5,5"), "--D repeats 5"),
    (("--suite", "sequences", "--D", "10,5,13,5"), "--D repeats 5"),
])
def test_verify_refuses_a_repeated_suite_or_field(capsys, argv, named):
    assert run_cli(capsys, "verify", *argv, "--bound", "10") == (2, "", f"error: {named}\n")


@pytest.mark.parametrize("flag", [["--points", "4"], ["--points", "-5"], ["--bound", "0"]])
def test_verify_rejects_empty_samples(capsys, flag):
    for suite in ("cross-method", "pell", "sequences"):
        code, out, err = run_cli(capsys, "verify", "--suite", suite, "--D", "5", *flag)
        assert code == 2 and out == "" and flag[0] in err


@pytest.mark.parametrize("d_arg, token", [("5,", "''"), ("x", "'x'"), ("5,,10", "''")])
def test_verify_rejects_a_bad_field_list(capsys, d_arg, token):
    code, out, err = run_cli(capsys, "verify", "--suite", "pell", "--D", d_arg, "--bound", "10")
    assert code == 2 and out == ""
    assert "--D" in err and token in err and "invalid literal" not in err


def moved_lines(recorded: str, out: str) -> str:
    """Each line of out that differs from the recorded line at its place, as
    a recorded -> now pair ("(none)" where one side has no line there)."""
    pairs = zip_longest(recorded.splitlines(), out.splitlines(), fillvalue="(none)")
    return "\n".join(f"{old}\n  -> {new}" for old, new in pairs if old != new)


def test_verify_all_matches_the_recorded_output_byte_for_byte(capsys):
    """Every suite at a small bound and sample: the lines were recorded while
    the suites still called each evaluator by hand, before they went through
    evaluate; any change of route or of a value's last bit changes them.  A
    failure lists each moved line, recorded -> now."""
    code, out, err = run_cli(capsys, "verify", "--suite", "all", "--seed", "1",
                             "--bound", "2000", "--points", "20")
    assert (code, err) == (0, "")
    recorded = (GOLDEN / "verify_all_seed1_bound2000_points20.txt").read_text()
    assert out == recorded, "moved lines, recorded -> now:\n" + moved_lines(recorded, out)


def test_moved_lines_pairs_each_changed_line():
    recorded = "PASS a: 1.0\nPASS b: 2.0\nPASS c: 3.0\n"
    out = "PASS a: 1.0\nPASS b: 2.5\nPASS c: 3.0\nPASS d: 4.0\n"
    assert moved_lines(recorded, out) == "PASS b: 2.0\n  -> PASS b: 2.5\n(none)\n  -> PASS d: 4.0"
    assert moved_lines(recorded, recorded) == ""


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
def test_pole_guard_must_be_finite_and_positive(capsys, tmp_path, radius):
    target = tmp_path / "grid.csv"
    for argv in (["eval", "--D", "5", "--s", "0", "--parity", "odd", "--method", "binomial"],
                 ["grid", "--D", "5", "--parity", "odd", "--re", "0", "1", "1",
                  "--im", "0", "0", "1", "--methods", "binomial"],
                 ["grid", "--D", "5", "--re", "0", "1", "1", "--im", "0", "0", "1",
                  "--out", str(target)]):
        code, out, err = run_cli(capsys, *argv, f"--pole-guard={radius}")
        assert code == 2 and out == "" and "pole_guard" in err
    assert not target.exists()


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


# ------------------------------------------------------ fixed costs of a call

# the package's exports, the crosscheck names among them, resolved on first access
PACKAGE_EXPORTS = [
    "DomainError", "FactorOverflowError",
    "FibZetaError", "MEMBER", "MEMBER_EVEN_INDEX", "MEMBER_ODD_INDEX", "METHOD_BINOMIAL",
    "METHOD_DIRECT", "METHOD_POISSON", "METHOD_SHIFTED", "MembershipResult", "NOT_MEMBER",
    "NormPlusOneError", "NotSquarefreeError", "NumericalError", "OutOfRegionError",
    "PARITY_COMBINED", "PARITY_EVEN", "PARITY_ODD", "PoleAtNonpositiveIntegerError",
    "PoleAtOneError", "PoleProximityError", "PoleSpec", "QuadraticField", "RegionSelector",
    "SequenceTerm", "TooSlowConvergenceError", "UnitElement",
    "ZetaEvaluation", "complexfn", "continuation", "crosscheck",
    "dispatch", "errors", "evaluate", "fib", "fib_upto", "is_fib", "iter_sequence", "lucas",
    "make_field", "nearest_lattice_pole", "poisson", "pole_lattice", "quadfield", "r1",
    "residue_numeric", "sequence_terms", "special_value",
    "zeta_functional_reconstruction",
]

LAZY_SCRIPT = r"""
import contextlib, io, json, sys
import fibzeta.cli as cli

def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        return cli.main(list(argv)), out.getvalue().count("\n")

codes = [run("eval", "--D", "5", "--s", "2")[0],
         run("grid", "--D", "5", "--re", "-1", "1", "1", "--im", "0", "1", "1")[0]]
loaded = sorted(name for name in ("fibzeta.suites", "fibzeta.crosscheck") if name in sys.modules)
import fibzeta
poles = len(fibzeta.pole_lattice(fibzeta.make_field(5), 1, 1))
later = [run("poles", "--D", "5"), run("verify", "--suite", "sequences"),
         run("eval", "--D", "5", "--s", "2", "--method", "shifted_convolution", "--tol", "1e-8")]
print(json.dumps({"codes": codes, "loaded": loaded, "poles": poles, "later": later,
                  "all": fibzeta.__all__}))
"""


def test_eval_and_grid_load_no_verification_module():
    proc = _python("-c", LAZY_SCRIPT)
    assert proc.returncode == 0, proc.stderr.decode()
    out = json.loads(proc.stdout)
    assert out["codes"] == [0, 0] and out["loaded"] == []
    # on first use: the package export, poles, verify and the shifted route
    assert out["poles"] == 6
    assert [code for code, _ in out["later"]] == [0, 0, 0]
    assert all(lines > 1 for _, lines in out["later"])
    assert out["all"] == PACKAGE_EXPORTS


STARTUP_SCRIPT = r"""
import io, sys
import fibzeta.cli as cli
from fibzeta import make_field

make_field(5)
out = io.StringIO()
sys.stdout, stdout = out, sys.stdout
codes = [cli.main(["eval", "--D", "5", "--s", "2"]),
         cli.main(["grid", "--D", "5", "--re", "-1", "1", "1", "--im", "0", "1", "1"])]
sys.stdout = stdout
start_up = [name for name in ("dataclasses", "inspect", "json") if name in sys.modules]
import fibzeta.suites, fibzeta.crosscheck
print(codes, start_up, "dataclasses" in sys.modules)
"""


def test_start_up_loads_neither_dataclasses_nor_inspect_and_json_only_for_json():
    """Start-up, a plain eval and a CSV grid load none of the three modules,
    and the verification modules do not load dataclasses either: verify and
    poles would pay for it inside their first call."""
    proc = _python("-c", STARTUP_SCRIPT)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.decode().split("\n")[0] == "[0, 0] [] False"


# each call is followed by one that leaves out its options, where they change
# what is printed: -2.2 and -0.2 lie 0.2 from poles, as 0.3 does from 0
GRID_BOX = ["grid", "--D", "5", "--parity", "odd", "--re", "-2.2", "0.8", "0.5",
            "--im", "0", "2", "1", "--methods", "binomial,poisson"]
SHARED_PARSER_MIX = [
    GRID_BOX + ["--pole-guard", "0.3", "--format", "json"],
    GRID_BOX,
    ["eval", "--D", "5", "--s", "0.3", "--pole-guard", "0.5"],
    ["eval", "--D", "5", "--s", "2", "--bogus"],
    ["eval", "--D", "5", "--s", "0.3", "--json"],
    ["eval", "--D", "5", "--s", "0.3"],
    GRID_BOX + ["--format", "csv"],
]


def test_main_calls_in_one_process_print_what_fresh_processes_print(capsys):
    """main() shares one parser between the calls of a process; no call may
    see an option, a default or an error left by an earlier one."""
    assert build_parser() is build_parser()
    for argv in SHARED_PARSER_MIX:
        assert run_cli(capsys, *argv) == _fresh_process(argv), argv
