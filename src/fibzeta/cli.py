"""Command-line front end.

Subcommands: eval, grid, poles, verify, sequence, detect.  Output is plain
key: value records, CSV (17 significant digits, bit-exact round trips;
comma-separated, CRLF line ends, never quoted), or JSON.  Exit codes:
0 success, 2 usage, 3 numerical failure, 4 domain error.

Fixed costs stay out of every call: a grid row is formatted once, as its CSV
line (an ok row by one %-format of its labels and four .17g values read
from the record's fields), and the JSON grid splits those lines; the Re
and Im labels are formatted once per axis; main() builds its
parser once per process; json loads only for JSON output; and the
verification modules (suites, crosscheck) load only when poles, verify or a
shifted-convolution evaluation first needs them.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from functools import cache, lru_cache
from typing import NamedTuple, Sequence

from .config import Settings, default_settings
from .continuation import LATTICE_COMBINED, LATTICE_SPLIT, METHODS, PARITIES, PARITY_COMBINED
from .dispatch import MAX_ABS_S, check_tol, evaluate
from .errors import DomainError, NumericalError, PoleProximityError
from .quadfield import QuadraticField, is_fib, make_field, sequence_terms

_NUM = r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_PURE_REAL_RE = re.compile(rf"^\s*(?P<re>[+-]?{_NUM})\s*$")
_PURE_IMAG_RE = re.compile(rf"^\s*(?P<im>[+-]?(?:{_NUM})?)[iI]\s*$")
_FULL_RE = re.compile(rf"^\s*(?P<re>[+-]?{_NUM})(?P<im>[+-](?:{_NUM})?)[iI]\s*$")


def _imag_value(body: str) -> float:
    if body in ("", "+"):
        return 1.0
    if body == "-":
        return -1.0
    return float(body)


def parse_complex(text: str) -> complex:
    """Parse 'a+bi' literals: '2', '-1.5', '3i', '-i', '1.5-2e-3i'.

    The sign between the two parts is mandatory; anything ambiguous is
    rejected rather than guessed.
    """
    match = _PURE_REAL_RE.match(text)
    if match:
        return complex(float(match.group("re")), 0.0)
    match = _PURE_IMAG_RE.match(text)
    if match:
        return complex(0.0, _imag_value(match.group("im")))
    match = _FULL_RE.match(text)
    if match:
        return complex(float(match.group("re")), _imag_value(match.group("im")))
    raise ValueError(f"cannot parse complex literal {text!r}; expected forms like 1.5-2i")


def fmt(x: float) -> str:
    """17 significant digits: enough for a bit-exact float round trip."""
    return f"{x:.17g}"


# a grid of more rows (points x methods), or a poles table of more rows, is
# refused before any is built
MAX_GRID_ROWS = 1_000_000


def _axis_points(lo: float, hi: float, step: float) -> int:
    """Points of the grid axis lo, lo + step, ... <= hi, forgiving rounding."""
    return int(math.floor((hi - lo) / step + 1e-9)) + 1


class _GridRequestFields(NamedTuple):
    D: int
    parity: str
    re_range: tuple[float, float, float]
    im_range: tuple[float, float, float]
    methods: tuple[str, ...]
    tol: float
    output: str


class GridRequest(_GridRequestFields):
    """A grid command's request, refused when it is built if any row of it
    would be: bad ranges, tol, parity or methods, too many rows, or a point
    past MAX_ABS_S."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> GridRequest:
        self = super().__new__(cls, *args, **kwargs)
        for lo, hi, step in (self.re_range, self.im_range):
            if step <= 0 or not all(math.isfinite(v) for v in (lo, hi, step)):
                raise DomainError("grid ranges must be finite with step > 0")
            if hi < lo:
                raise DomainError(f"grid range needs hi >= lo, got {lo} > {hi}")
            if not math.isfinite((hi - lo) / step):
                raise DomainError(
                    f"grid range {lo}..{hi} in steps of {step} gives no finite number of points"
                )
        check_tol(self.tol)
        if self.parity not in PARITIES:
            raise DomainError(f"parity must be one of {PARITIES}")
        for m in self.methods:
            if m not in METHODS:
                raise DomainError(f"unknown method {m!r}")
        if len(set(self.methods)) < len(self.methods):
            raise DomainError(f"grid methods repeat: {','.join(self.methods)}")
        rows = _axis_points(*self.re_range) * _axis_points(*self.im_range) * len(self.methods)
        if rows > MAX_GRID_ROWS:
            raise DomainError(f"grid has {rows} rows, more than {MAX_GRID_ROWS}")
        # evaluate refuses every s past MAX_ABS_S, so a grid whose farthest
        # corner (the last point of an axis, as axis() forms it) passes it
        # is refused before any of its rows is computed
        far_corner = math.hypot(*(max(abs(lo), abs(lo + (_axis_points(lo, hi, step) - 1) * step))
                                  for lo, hi, step in (self.re_range, self.im_range)))
        if not far_corner <= MAX_ABS_S:
            raise DomainError(f"grid reaches |s| = {far_corner:g}; |s| must be at most {MAX_ABS_S:g}")
        if self.output not in ("csv", "json"):
            raise DomainError("output must be csv or json")
        return self

    @classmethod
    def _make(cls, values) -> GridRequest:
        return cls(*values)

    def axis(self, which: str) -> list[float]:
        lo, hi, step = self.re_range if which == "re" else self.im_range
        return [lo + i * step for i in range(_axis_points(lo, hi, step))]


# -------------------------------------------------------------------- commands

def _settings(args: argparse.Namespace) -> Settings:
    """Settings for eval and grid, the only commands whose output they change."""
    if args.pole_guard is None:
        return default_settings()
    return Settings(pole_guard_radius=args.pole_guard)


def cmd_eval(args: argparse.Namespace) -> int:
    settings = _settings(args)
    field = make_field(args.D)
    s = parse_complex(args.s)
    ev = evaluate(field, s, args.parity, args.method, args.tol, settings)
    record = {
        "value_re": fmt(ev.value.real),
        "value_im": fmt(ev.value.imag),
        "method": ev.method,
        "terms_used": ev.terms_used,
        "tail_bound": fmt(ev.tail_bound),
        "tail_rigorous": ev.tail_rigorous,
        "nearest_pole_distance": fmt(ev.nearest_pole_distance),
    }
    if args.json:
        import json

        print(json.dumps(record))
    else:
        for key, val in record.items():
            print(f"{key}: {val}")
    return 0


@lru_cache(maxsize=8)
def _cached_field(d: int) -> QuadraticField:
    return make_field(d)


def _grid_rows(field: QuadraticField, request: GridRequest, settings: Settings) -> list[str]:
    """One CSV line per (point, method), Im s outer, Re s inner, methods
    innermost.  Each value is formatted by fmt's .17g spec, an ok row's
    four by one %-format."""
    re_axis = request.axis("re")
    re_labels = [fmt(re_part) for re_part in re_axis]
    # read once: a named tuple's field is read through a descriptor
    parity, methods, tol = request.parity, request.methods, request.tol
    lines = []
    for im in request.axis("im"):
        im_label = fmt(im)
        for re_part, re_label in zip(re_axis, re_labels):
            s = complex(re_part, im)
            for method in methods:
                try:
                    ev = evaluate(field, s, parity, method, tol, settings)
                    v = ev.value
                    lines.append("%s,%s,%s,%.17g,%.17g,%.17g,%.17g,ok" % (
                        re_label, im_label, method, v.real, v.imag, ev.tail_bound,
                        ev.nearest_pole_distance))
                except PoleProximityError as exc:
                    lines.append(f"{re_label},{im_label},{method},,,,{exc.distance:.17g},pole")
                except NumericalError as exc:
                    lines.append(f"{re_label},{im_label},{method},,,,,{type(exc).__name__}")
    return lines


GRID_HEADER = ["re_s", "im_s", "method", "re_z", "im_z", "tail_bound", "pole_distance", "status"]


def _write_csv(out, header: list[str], lines: list[str]) -> None:
    """The header and the lines (fields already joined by commas) as
    csv.writer's default dialect writes them: each row ended by CRLF.  No
    field of the CLI's tables (formatted numbers, method names, status words,
    exception class names) can hold a comma, a quote or a line break, so none
    is quoted."""
    out.write("\r\n".join([",".join(header), *lines, ""]))


def cmd_grid(args: argparse.Namespace) -> int:
    settings = _settings(args)
    request = GridRequest(
        D=args.D,
        parity=args.parity,
        re_range=tuple(args.re),
        im_range=tuple(args.im),
        methods=tuple(args.methods.split(",")),
        tol=args.tol,
        output=args.format,
    )
    # a field or parity that every row would refuse fails before --out is opened
    field = _cached_field(request.D)
    if request.parity != PARITY_COMBINED:
        field.require_norm_minus_one()
    out = sys.stdout
    if args.out:
        try:
            out = open(args.out, "w", newline="")
        except OSError as exc:
            raise UsageError(f"cannot write --out {args.out}: {exc.strerror}")
    try:
        lines = _grid_rows(field, request, settings)
        if request.output == "csv":
            _write_csv(out, GRID_HEADER, lines)
        else:
            import json

            records = [dict(zip(GRID_HEADER, line.split(","))) for line in lines]
            json.dump(records, out, indent=1)
            out.write("\n")
    finally:
        if args.out:
            out.close()
    return 0


def cmd_poles(args: argparse.Namespace) -> int:
    for flag, value in (("--kmax", args.kmax), ("--mmax", args.mmax)):
        if value < 0:
            raise UsageError(f"{flag} must be at least 0, got {value}")
    k_max, m_max = args.kmax, args.mmax
    rows = (k_max + 1) * (2 * m_max + 1)
    if args.which == LATTICE_COMBINED:
        # per k, the m of the parity of k: m_max + 1 of them where that is
        # the parity of m_max, else m_max
        rows = m_max * (k_max + 1) + (k_max + 2 - m_max % 2) // 2
    if rows > MAX_GRID_ROWS:
        raise DomainError(f"poles table has {rows} rows, more than {MAX_GRID_ROWS}")
    from .crosscheck import pole_lattice

    field = make_field(args.D)
    specs = pole_lattice(field, k_max, m_max, args.which)
    _write_csv(sys.stdout,
               ["k", "m", "re_s0", "im_s0", "re_residue_odd", "im_residue_odd",
                "re_residue_even", "im_residue_even", "survives_in_combined"],
               [",".join([str(p.k), str(p.m), fmt(p.location.real), fmt(p.location.imag),
                          fmt(p.residue_odd.real), fmt(p.residue_odd.imag),
                          fmt(p.residue_even.real), fmt(p.residue_even.imag),
                          str(int(p.survives_in_combined))]) for p in specs])
    return 0


def run_suite(name: str, *args, **kwargs) -> list:
    """suites.run_suite, imported on first use: eval and grid never load it."""
    from .suites import run_suite

    return run_suite(name, *args, **kwargs)


def _field_list(text: str) -> list[int]:
    """The D of a --D comma list such as "5,10"."""
    out = []
    for tok in text.split(","):
        try:
            out.append(int(tok))
        except ValueError:
            raise UsageError(f"--D takes a comma list of integers, not {tok!r} in {text!r}") from None
    return out


def cmd_verify(args: argparse.Namespace) -> int:
    from .suites import SUITE_NAMES

    d_list = _field_list(args.D) if args.D else None
    names = SUITE_NAMES if args.suite == "all" else tuple(args.suite.split(","))
    if args.points < 5:
        raise UsageError(f"--points must be at least 5, got {args.points}")
    if args.bound < 1:
        raise UsageError(f"--bound must be at least 1, got {args.bound}")
    for name in names:
        if name not in SUITE_NAMES:
            raise UsageError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)} or all")
    # a repeated suite or field would only print its checks again
    for flag, items in (("--suite", names), ("--D", d_list or ())):
        for i, item in enumerate(items):
            if item in items[:i]:
                raise UsageError(f"{flag} repeats {item}")
    failed = 0
    for name in names:
        results = run_suite(name, d_list, seed=args.seed, bound=args.bound, points=args.points)
        for res in results:
            print(res.line())
            failed += 0 if res.passed else 1
    if failed:
        print(f"{failed} check(s) FAILED", file=sys.stderr)
        return 3
    return 0


def cmd_sequence(args: argparse.Namespace) -> int:
    if args.n < 0:
        raise UsageError(f"--n must be at least 0, got {args.n}")
    field = make_field(args.D)
    rows = []
    for t in sequence_terms(field, args.n + 1):
        ok = t.lucas**2 - field.q * t.fib**2 == 4 * field.norm_eps**t.index
        rows.append(f"{t.index},{t.fib},{t.lucas},{'ok' if ok else 'VIOLATED'}")
    _write_csv(sys.stdout, ["n", "fib", "lucas", "norm_identity"], rows)
    return 0


def cmd_detect(args: argparse.Namespace) -> int:
    field = make_field(args.D)
    result = is_fib(field, args.n)
    print(f"verdict: {result.verdict}")
    if result.witness is not None:
        print(f"witness: {result.witness}")
    return 0


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------- parser

# argparse takes an argument that starts with "-" for a value only if this
# matcher accepts it.  Its own leaves out the exponent form and would read
# the "-1e1" of "--re -1e1 0 5" as an option; the grid's accepts every
# negative decimal literal, with or without an exponent.
_NEGATIVE_NUMBER_RE = re.compile(r"^-(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?$")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, like _cached_field's fields: parse_args
    leaves it unchanged and returns a fresh Namespace on every call."""
    evaluation = argparse.ArgumentParser(add_help=False)
    evaluation.add_argument("--pole-guard", type=float, help="pole guard radius")

    parser = argparse.ArgumentParser(
        prog="fibzeta",
        description="Zeta functions of quadratic-field Fibonacci sequences",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", parents=[evaluation], help="evaluate one point")
    p.add_argument("--D", type=int, required=True)
    p.add_argument("--s", required=True, help="complex literal, e.g. 1.5-2i (use --s=-1 for negatives)")
    p.add_argument("--parity", choices=PARITIES, default=PARITY_COMBINED)
    p.add_argument("--method", choices=METHODS, default="binomial")
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fun=cmd_eval)

    p = sub.add_parser("grid", parents=[evaluation], help="evaluate a rectangular grid")
    p.add_argument("--D", type=int, required=True)
    p.add_argument("--parity", choices=PARITIES, default=PARITY_COMBINED)
    p.add_argument("--re", type=float, nargs=3, required=True, metavar=("LO", "HI", "STEP"))
    p.add_argument("--im", type=float, nargs=3, required=True, metavar=("LO", "HI", "STEP"))
    p._negative_number_matcher = _NEGATIVE_NUMBER_RE
    p.add_argument("--methods", default="binomial,poisson", help="comma list")
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", help="write to file instead of stdout")
    p.set_defaults(fun=cmd_grid)

    p = sub.add_parser("poles", help="pole lattice with residues")
    p.add_argument("--D", type=int, required=True)
    p.add_argument("--kmax", type=int, default=2)
    p.add_argument("--mmax", type=int, default=3)
    p.add_argument("--which", choices=(LATTICE_SPLIT, LATTICE_COMBINED), default=LATTICE_SPLIT)
    p.set_defaults(fun=cmd_poles)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("--suite", required=True,
                   help="comma list of suite names, or all; an unknown name lists them")
    p.add_argument("--D", help="comma list of fields, e.g. 5,10")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--bound", type=int, default=1_000_000, help="pell enumeration bound")
    p.add_argument("--points", type=int, default=200, help="grid points per field")
    p.set_defaults(fun=cmd_verify)

    p = sub.add_parser("sequence", help="print sequence terms")
    p.add_argument("--D", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(fun=cmd_sequence)

    p = sub.add_parser("detect", help="Pell-type membership test")
    p.add_argument("--D", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(fun=cmd_detect)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.fun(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
    except NumericalError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
