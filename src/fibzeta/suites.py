"""Named verification suites shared by the CLI and the acceptance tests.

Each check returns a CheckResult with the worst observed deviation so the
caller can print one line per check and compare against its tolerance.
Randomized grids are driven by a caller-supplied seed and are rejection
sampled away from the pole lattice.  Every zeta value a check compares
comes from dispatch.evaluate, except the raw shifted-convolution scan,
which is checked against its own tail bound rather than evaluate's tol.
"""

from __future__ import annotations

import cmath
import math
import random
from typing import Callable, NamedTuple, Sequence

from .complexfn import cgamma, czeta
from .continuation import (
    METHOD_BINOMIAL,
    METHOD_DIRECT,
    METHOD_POISSON,
    PARITY_COMBINED,
    PARITY_EVEN,
    PARITY_ODD,
    nearest_lattice_pole,
)
from .crosscheck import (
    pole_lattice,
    residue_numeric,
    shifted_convolution_even,
    shifted_convolution_odd,
    special_value,
)
from .dispatch import evaluate
from .poisson import zeta_functional_reconstruction
from .quadfield import (
    MEMBER,
    MEMBER_EVEN_INDEX,
    MEMBER_ODD_INDEX,
    QuadraticField,
    _membership_result,
    _pell_roots,
    fib_upto,
    make_field,
    sequence_terms,
)

DEFAULT_FIELDS = (2, 5, 10, 13)
# the n of the trivial zeros and special values checked, at s = -n
_ODD_N = (1, 3, 5, 7, 9)


class CheckResult(NamedTuple):
    name: str
    passed: bool
    max_deviation: float
    tolerance: float
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        out = f"{status} {self.name}: max deviation {self.max_deviation:.3e} (tol {self.tolerance:.1e})"
        if self.detail:
            out += f" [{self.detail}]"
        return out


def sample_points(
    field: QuadraticField,
    rng: random.Random,
    count: int,
    re_lo: float,
    re_hi: float,
    im_max: float,
) -> list[complex]:
    """Uniform points in the box, rejection-sampled to more than 0.05 off the
    pole lattice."""
    out: list[complex] = []
    while len(out) < count:
        s = complex(rng.uniform(re_lo, re_hi), rng.uniform(-im_max, im_max))
        if nearest_lattice_pole(field, s)[3] > 0.05:
            out.append(s)
    return out


# ------------------------------------------------------------------ sequences

_SEQUENCE_PREFIXES = {
    3: ([0, 1, 4, 15, 56, 209], [2, 4, 14, 52, 194, 724]),
    10: ([0, 1, 6, 37, 228], [2, 6, 38, 234, 1442]),
}


def sequence_checks() -> list[CheckResult]:
    out = []
    for d, (fib_ref, luc_ref) in _SEQUENCE_PREFIXES.items():
        field = make_field(d)
        terms = sequence_terms(field, len(fib_ref))
        ok = [t.fib for t in terms] == fib_ref and [t.lucas for t in terms] == luc_ref
        out.append(CheckResult(f"sequence-prefix D={d}", ok, 0.0 if ok else 1.0, 0.0, "exact"))
    field = make_field(5)
    fibs, lucs = [0, 1], [2, 1]
    for _ in range(60):
        fibs.append(fibs[-1] + fibs[-2])
        lucs.append(lucs[-1] + lucs[-2])
    terms = sequence_terms(field, 51)
    ok = [t.fib for t in terms] == fibs[:51] and [t.lucas for t in terms] == lucs[:51]
    out.append(CheckResult("sequence-standard D=5", ok, 0.0 if ok else 1.0, 0.0, "exact"))
    return out


# ----------------------------------------------------------------------- pell

def pell_check(field: QuadraticField, bound: int = 1_000_000) -> CheckResult:
    """Compare the membership verdict on every n in 1 .. bound with the terms
    fib_upto enumerates.

    A member must get the verdict of its index: the parity verdict of an odd
    or even index on a norm -1 field (either one for a value at both, such as
    1 on D=5), MEMBER on a norm +1 field; any other n must get NOT_MEMBER.
    The max deviation is the number of n whose verdict disagrees, so the
    check passes only at 0.  One call of the membership kernel behind
    is_fib screens every n in bulk and gives its hits, each mapped to a
    verdict by is_fib's rule; an n it does not give is a non-member.  The
    field's six residue tables, packed at 2 bits per n, settle all but
    0.017-0.068% of n <= 10^6 for D = 2, 3, 5, 10, 13, 29 in C; the rest get
    the exact isqrt test.  About 4 ms per field at bound 10^6.
    """
    if field.norm_eps == -1:
        index_verdicts = (MEMBER_EVEN_INDEX, MEMBER_ODD_INDEX)
    else:
        index_verdicts = (MEMBER, MEMBER)
    allowed: dict[int, set[str]] = {}
    for t in fib_upto(field, bound):
        allowed.setdefault(t.fib, set()).add(index_verdicts[t.index % 2])
    hits = [
        (n, _membership_result(field, minus, plus).verdict)
        for n, minus, plus in _pell_roots(field, 1, bound + 1)
    ]
    found = {n for n, _ in hits}
    mismatches = sum(v not in allowed.get(n, ()) for n, v in hits)
    mismatches += sum(n not in found for n in allowed)
    return CheckResult(
        f"pell-membership D={field.D}",
        mismatches == 0,
        float(mismatches),
        0.0,
        f"{bound} integers, {len(allowed)} members",
    )


# --------------------------------------------------------------- cross-method

def cross_method_check(
    field: QuadraticField, rng: random.Random, points: int = 200
) -> list[CheckResult]:
    """Binomial vs Poisson on the standard box, plus direct and
    shifted-convolution comparisons on their convergent sub-ranges.

    A norm -1 field is checked part by part (odd, even); a norm +1 field,
    which has no split, on its full zeta, the even function of the half unit.
    The shifted-convolution scan is called directly: the check allows its
    own tail bound, which evaluate's tol gate would refuse.
    """
    n_box = points - 2 * (points // 5)
    box = sample_points(field, rng, n_box, -4.0, 3.0, 8.0)
    direct_pts = sample_points(field, rng, points // 5, 0.5, 3.0, 8.0)
    sc_pts = sample_points(field, rng, points // 5, 1.0, 3.0, 8.0)
    parities = (PARITY_ODD, PARITY_EVEN) if field.is_norm_minus_one else (PARITY_COMBINED,)

    def value(s: complex, parity: str, method: str) -> complex:
        return evaluate(field, s, parity, method, 1e-12).value

    # one binomial evaluation per (point, parity) serves every comparison there
    all_pts = box + direct_pts + sc_pts
    binomial = {parity: [evaluate(field, s, parity, METHOD_BINOMIAL, 1e-12) for s in all_pts]
                for parity in parities}
    direct_at, sc_at = len(box), len(box) + len(direct_pts)

    d = field.D
    out = []
    for parity in parities:
        worst = 0.0
        for s, b in zip(all_pts, binomial[parity]):
            worst = max(worst, abs(b.value - value(s, parity, METHOD_POISSON)))
        out.append(CheckResult(f"cross-method {parity} D={d}", worst < 1e-8, worst, 1e-8,
                               f"{len(all_pts)} points"))

    worst_direct = 0.0
    for i, s in enumerate(direct_pts, direct_at):
        for parity in parities:
            worst_direct = max(worst_direct, abs(binomial[parity][i].value
                                                 - value(s, parity, METHOD_DIRECT)))

    worst_sc = 0.0
    sc_ok = True
    for i, s in enumerate(sc_pts, sc_at):
        for parity in parities:
            b = binomial[parity][i]
            shifted = shifted_convolution_odd if parity == PARITY_ODD else shifted_convolution_even
            sc = shifted(field, s)
            delta = abs(b.value - sc.value)
            allowed = b.tail_bound + sc.tail_bound + 1e-11
            worst_sc = max(worst_sc, delta - allowed)
            sc_ok = sc_ok and delta <= allowed

    return out + [
        CheckResult(f"binomial-vs-direct D={d}", worst_direct < 1e-10, worst_direct, 1e-10,
                    f"{len(direct_pts)} points, Re s >= 0.5"),
        CheckResult(f"binomial-vs-shifted-convolution D={d}", sc_ok, max(worst_sc, 0.0), 0.0,
                    f"{len(sc_pts)} points, Re s >= 1, within summed tail bounds"),
    ]


# -------------------------------------------------------------------- splitting

def splitting_check(field: QuadraticField, rng: random.Random) -> CheckResult:
    worst = 0.0
    ok = True
    for s in sample_points(field, rng, 100, -6.0, 4.0, 10.0):
        odd, even, comb = (evaluate(field, s, parity, METHOD_BINOMIAL, 1e-13)
                           for parity in (PARITY_ODD, PARITY_EVEN, PARITY_COMBINED))
        delta = abs(comb.value - (odd.value + even.value))
        allowed = odd.tail_bound + even.tail_bound + comb.tail_bound + 1e-9
        worst = max(worst, delta)
        ok = ok and delta <= allowed
    return CheckResult(
        f"splitting-identity D={field.D}", ok, worst, 0.0, "100 points, within tail bounds"
    )


# ------------------------------------------------------ golden specialization

def _odd_at_one_by_theta(field: QuadraticField) -> float:
    """Z_odd(1) = (sqrt(q)/4) theta_2(0, x)^2, x = eps^-2, from Jacobi's
    two-square theta series theta_2(0, x) = 2 sum_{k>=0} x^((k+1/2)^2).

    Its square is the Lambert series 4 sum_{n>=0} x^(n+1/2) / (1 + x^(2n+1)),
    whose n-th term is 4 / (eps^j + eps^-j) = 4 / (sqrt(q) F(j)) at the odd
    j = 2n + 1 (for a norm -1 unit F(j) = (eps^j + eps^-j) / sqrt(q)).  The
    series needs a handful of terms: x^((k+1/2)^2) falls below 2^-53 of the
    sum at k = 6 at D=5, and sooner on fields with a larger unit."""
    x = math.exp(-2.0 * field.log_eps)
    half_theta, k = 0.0, 0
    while True:
        term = x ** ((k + 0.5) ** 2)
        half_theta += term
        if term <= 2.0**-53 * half_theta:
            return math.sqrt(field.q) * half_theta * half_theta
        k += 1


def golden_specialization_checks() -> list[CheckResult]:
    """At D=5 the combined series is the classical golden-ratio
    continuation: its values at s = -1, -3, ..., -9 must be the exact
    special values (the odd part vanishes there), its value at s=1 the
    reciprocal Fibonacci constant, and the odd part there Jacobi's theta
    value (_odd_at_one_by_theta)."""
    field = make_field(5)
    worst_rel = max(
        abs(evaluate(field, -n, PARITY_COMBINED, METHOD_BINOMIAL, 1e-14).value
            / float(special_value(field, n)) - 1.0)
        for n in _ODD_N
    )

    at_one = evaluate(field, 1.0, PARITY_COMBINED, METHOD_BINOMIAL, 1e-14).value
    dev_one = abs(at_one - 3.359885666243)
    odd_at_one = evaluate(field, 1.0, PARITY_ODD, METHOD_BINOMIAL, 1e-14).value
    dev_theta = abs(odd_at_one / _odd_at_one_by_theta(field) - 1.0)

    return [
        CheckResult("golden-specialization exact D=5", worst_rel < 1e-12, worst_rel, 1e-12,
                    "combined binomial at s = -1, -3, ..., -9, relative"),
        CheckResult("reciprocal-fibonacci value", dev_theta < 1e-12 and dev_one < 1e-9,
                    dev_theta, 1e-12,
                    "Z_odd(1) at D=5 against sqrt(5)/4 theta_2(0, eps^-2)^2, relative;"
                    " Z(1) within 1e-9 of 3.359885666243"),
    ]


# -------------------------------------------------------------------- residues

def residue_checks(field: QuadraticField) -> list[CheckResult]:
    # the contour of radius 1e-3 passes inside the default pole guard
    poles = pole_lattice(field, 2, 3)
    worst_rel = 0.0
    for parity in (PARITY_ODD, PARITY_EVEN):
        for p in poles:
            # the trapezoid rule on a circle of radius r errs by about (r/R)^N,
            # R the distance to the next pole (Trefethen & Weideman, SIAM
            # Review 56, 2014): r = 1e-3 and R >= 1.72 for the default fields,
            # so 16 points leave about 1e-52, far below rounding
            num = residue_numeric(
                lambda s: evaluate(field, s, parity, METHOD_BINOMIAL, 1e-12, pole_guard=1e-4).value,
                p.location,
                1e-3,
                num_points=16,
            )
            ana = p.residue_odd if parity == PARITY_ODD else p.residue_even
            worst_rel = max(worst_rel, abs(num - ana) / max(1.0, abs(ana)))
    worst_cancel = 0.0
    for p in poles:
        if not p.survives_in_combined:
            worst_cancel = max(worst_cancel, abs(p.residue_odd + p.residue_even))
    return [
        CheckResult(f"residues-contour-vs-analytic D={field.D}", worst_rel < 1e-6, worst_rel,
                    1e-6, "k<=2, |m|<=3, both parities"),
        CheckResult(f"residue-cancellation D={field.D}", worst_cancel < 1e-8, worst_cancel,
                    1e-8, "m+k odd points"),
    ]


# ---------------------------------------------------------------- trivial zeros

def trivial_zero_checks(field: QuadraticField) -> list[CheckResult]:
    def size(s: int, method: str) -> float:
        return abs(evaluate(field, s, PARITY_ODD, method, 1e-13).value)

    worst_p = worst_b = 0.0
    for n in _ODD_N:
        worst_p = max(worst_p, size(-n, METHOD_POISSON))
        worst_b = max(worst_b, size(-n, METHOD_BINOMIAL))
    return [
        CheckResult(f"trivial-zeros poisson D={field.D}", worst_p < 1e-10, worst_p, 1e-10,
                    "s = -1, -3, ..., -9"),
        CheckResult(f"trivial-zeros binomial D={field.D}", worst_b < 1e-10, worst_b, 1e-10,
                    "same points"),
    ]


# -------------------------------------------------------------- special values

def special_value_checks(field: QuadraticField) -> list[CheckResult]:
    """Each route against the exact crosscheck.special_value at s = -1, ...,
    -9, on the even part, or on the full zeta of a norm +1 field."""
    parity = field.half_unit.direct_parity
    exact = {n: special_value(field, n) for n in _ODD_N}
    out = []
    for method in (METHOD_BINOMIAL, METHOD_POISSON):
        worst = max(abs(evaluate(field, -n, parity, method, 1e-12).value / float(value) - 1.0)
                    for n, value in exact.items())
        out.append(CheckResult(f"special-values {method} D={field.D}", worst < 1e-12, worst,
                               1e-12, f"{parity} at s = -1, -3, ..., -9, relative"))
    if field.D == 5:
        out.append(CheckResult("special-value Z5_even(-1) = -1", exact[1] == -1,
                               abs(float(exact[1]) + 1.0), 0.0, "exact rational"))
    return out


# ------------------------------------------------------------ zeta cancellation

def zeta_cancellation_check(field: QuadraticField, rng: random.Random) -> CheckResult:
    worst = 0.0
    for _ in range(20):
        s = complex(rng.uniform(-4.5, -2.5), rng.uniform(-6.0, 6.0))
        recon, ref, _ = zeta_functional_reconstruction(field, s, 1e-11)
        worst = max(worst, abs(recon - ref))
    return CheckResult(
        f"zeta-cancellation D={field.D}", worst < 1e-9, worst, 1e-9,
        "20 points with Re s < 0"
    )


# ---------------------------------------------------------- special functions

def special_function_checks(rng: random.Random) -> list[CheckResult]:
    worst_refl = 0.0
    count = 0
    while count < 500:
        z = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
        if abs(z.real - round(z.real)) < 0.05:
            continue
        worst_refl = max(worst_refl, abs(cgamma(z) * cgamma(1 - z) * cmath.sin(math.pi * z) / math.pi - 1.0))
        count += 1

    worst_rec = 0.0
    count = 0
    while count < 300:
        z = complex(rng.uniform(-15, 15), rng.uniform(-40, 40))
        if abs(z.real - round(z.real)) < 0.1 and abs(z.imag) < 0.1:
            continue
        lhs = cgamma(z + 1.0)
        rhs = z * cgamma(z)
        worst_rec = max(worst_rec, abs(lhs - rhs) / max(abs(rhs), 1e-300))
        count += 1

    def xi(s):
        return 0.5 * s * (s - 1) * cmath.exp(-0.5 * s * math.log(math.pi)) * cgamma(0.5 * s) * czeta(s)

    worst_fe = 0.0
    count = 0
    while count < 80:
        s = complex(rng.uniform(-8, 9), rng.uniform(-30, 30))
        if abs(s - 1) < 0.1 or abs(s) < 0.1 or abs(s.imag) < 0.05:
            continue
        worst_fe = max(worst_fe, abs(xi(s) - xi(1 - s)) / max(abs(xi(s)), 1e-300))
        count += 1

    return [
        CheckResult("gamma-reflection", worst_refl < 1e-10, worst_refl, 1e-10, "500 samples"),
        CheckResult("gamma-recurrence", worst_rec < 1e-10, worst_rec, 1e-10, "300 samples"),
        CheckResult("zeta-functional-equation", worst_fe < 1e-10, worst_fe, 1e-10, "80 samples"),
    ]


# -------------------------------------------------------------- suite registry

class _SuiteRun(NamedTuple):
    """The arguments of one run_suite call, as its runner reads them."""

    d_list: Sequence[int]
    rng: random.Random
    bound: int
    points: int

    def fields(self) -> list[QuadraticField]:
        return [make_field(d) for d in self.d_list]

    def split_fields(self) -> list[QuadraticField]:
        """The norm -1 fields of the run, for the suites that check the odd and
        even parts (splitting, residues, trivial-zeros): a norm +1 field has
        no such split, and its own poles and residues are not checked yet."""
        return [f for f in self.fields() if f.is_norm_minus_one]


# suite name -> runner; the fields are built only by suites that check them
_SUITES: dict[str, Callable[[_SuiteRun], list[CheckResult]]] = {
    "sequences": lambda run: sequence_checks(),
    "pell": lambda run: [pell_check(f, run.bound) for f in run.fields()],
    "cross-method": lambda run: [
        res for f in run.fields() for res in cross_method_check(f, run.rng, run.points)],
    "splitting": lambda run: [splitting_check(f, run.rng) for f in run.split_fields()],
    "golden": lambda run: golden_specialization_checks(),
    "residues": lambda run: [res for f in run.split_fields() for res in residue_checks(f)],
    "trivial-zeros": lambda run: [
        res for f in run.split_fields() for res in trivial_zero_checks(f)],
    "special-values": lambda run: [res for f in run.fields() for res in special_value_checks(f)],
    "zeta-cancellation": lambda run: [zeta_cancellation_check(f, run.rng) for f in run.fields()],
    "special-functions": lambda run: special_function_checks(run.rng),
}

SUITE_NAMES = tuple(_SUITES)


def run_suite(
    name: str,
    d_list: Sequence[int] | None = None,
    seed: int = 0,
    bound: int = 1_000_000,
    points: int = 200,
) -> list[CheckResult]:
    """Run one named suite; raises KeyError for an unknown name."""
    runner = _SUITES[name]
    return runner(_SuiteRun(list(d_list) if d_list else list(DEFAULT_FIELDS),
                            random.Random(seed), bound, points))
