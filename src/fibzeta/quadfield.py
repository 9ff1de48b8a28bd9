"""Exact arithmetic for real quadratic fields Q(sqrt(D)).

Provides the fundamental unit (computed from the periodic continued
fraction of sqrt(D), or of (1+sqrt(D))/2 when D = 1 mod 4), the
integer-recurrence Fibonacci/Lucas analogues built from traces of unit
powers, and Pell-type membership tests.

Everything here is exact big-integer arithmetic, apart from the one float
log eps that the evaluators use, which is rounded once from a 40-digit
decimal value, and the table of math.log(F(n)) that the direct series reads;
fields are immutable (each caches its half unit, membership screens and that
table on first use) and safe to share between threads or processes.

The sign of the unit norm decides which evaluations exist downstream: the
odd/even index split needs N(eps) = -1 (possible only for D = 1, 2 mod 4).
A norm +1 field has no split, but F(n) = (eta^(2n) - eta^(-2n))/sqrt(q)
with eta = eps^(1/2), so its full zeta is the even-indexed function of eta
and takes every evaluation route through that view.  No class-group
machinery is provided or needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import cached_property
from itertools import islice, takewhile
from typing import Iterator, NamedTuple

from .errors import DomainError, NormPlusOneError, NotSquarefreeError

NOT_MEMBER = "not_member"
MEMBER = "member"
MEMBER_EVEN_INDEX = "member_even_index"
MEMBER_ODD_INDEX = "member_odd_index"

PARITY_ODD = "odd"
PARITY_EVEN = "even"
PARITY_COMBINED = "combined"
PARITIES = (PARITY_ODD, PARITY_EVEN, PARITY_COMBINED)

# bound below which the continued-fraction unit is re-derived by brute search
_VALIDATION_SCAN_CAP = 4096


def _squares_mod(m: int) -> bytes:
    """Table t with t[r] == 1 exactly when r is a square mod m."""
    t = bytearray(m)
    for i in range(m // 2 + 1):  # (m - i)^2 = i^2 mod m
        t[i * i % m] = 1
    return bytes(t)


# Quadratic-residue filters (Cohen, GTM 138, Alg. 1.7.3), 0.2 ms to build at
# import.  Together the two moduli pass 1.6-3.7% of the is_fib arguments of
# D = 2, 5, 10, 13 on to isqrt; a single table mod 64*63*5 was no faster per
# call, passed up to 24% and took three times as long to build.  is_square
# reads them at its argument.  is_fib and pell_solutions_upto read them
# through per-field tables indexed by n (or t) itself (_membership_table):
# the mod-4032 table alone settles 55-82% of n <= 10^6, both pass 3.1-7.3%.
_SQUARES_MOD_4032 = _squares_mod(64 * 63)
_SQUARES_MOD_2431 = _squares_mod(11 * 13 * 17)


def _membership_table(d: int, ell: int, m: int, squares: bytes) -> bytes:
    """Table t over r mod m: bit 0 of t[r] is squares[(d r^2 - ell) mod m],
    bit 1 is squares[(d r^2 + ell) mod m].

    d n^2 +- ell mod m depends only on n mod m, so t[n % m] is the residue
    screen of both is_fib arguments without forming them.
    """
    return bytes(
        squares[(d * r * r - ell) % m] | squares[(d * r * r + ell) % m] << 1
        for r in range(m)
    )


def is_square(n: int) -> bool:
    """Exact perfect-square test for arbitrary-size integers.

    A square is a square modulo every m, so a residue n mod 4032 or mod 2431
    that no square takes proves n is not one; that settles almost every
    non-square with two table lookups.  Whatever passes both tables gets the
    exact isqrt test, so the answer is exact for integers of any size.
    """
    if not (_SQUARES_MOD_4032[n % 4032] and _SQUARES_MOD_2431[n % 2431]):
        return False
    if n < 0:
        return False
    r = math.isqrt(n)
    return r * r == n


def r1(n: int) -> int:
    """Number of integer solutions of x^2 = n: 2 for a positive square, 1 for 0, else 0."""
    if n < 0:
        return 0
    if n == 0:
        return 1
    return 2 if is_square(n) else 0


def squarefree_violation(d: int) -> int | None:
    """Smallest prime p with p^2 | d, or None if d is squarefree."""
    p = 2
    while p * p <= d:
        if d % (p * p) == 0:
            return p
        p += 1
    return None


@dataclass(frozen=True)
class UnitElement:
    """An element (a + b*sqrt(q))/2 of the ring of integers, in trace coordinates."""

    a: int
    b: int
    q: int

    def __post_init__(self):
        if (self.a * self.a - self.q * self.b * self.b) % 4 != 0:
            raise DomainError(
                f"({self.a} + {self.b} sqrt({self.q}))/2 is not an algebraic integer"
            )

    @property
    def trace(self) -> int:
        return self.a

    @property
    def norm(self) -> int:
        return (self.a * self.a - self.q * self.b * self.b) // 4

    def __str__(self) -> str:
        if self.a % 2 == 0 and self.b % 2 == 0:
            return f"{self.a // 2} + {self.b // 2}*sqrt({self.q})"
        return f"({self.a} + {self.b}*sqrt({self.q}))/2"


@dataclass(frozen=True)
class SequenceTerm:
    index: int
    fib: int
    lucas: int


class HalfUnit(NamedTuple):
    """The unit eta whose even powers index the even-function series, and the
    F-sequence that series sums: eta = eps and F(2n) for a norm -1 unit;
    eta = eps^(1/2) and every F(n) = (eta^(2n) - eta^(-2n))/sqrt(q) for norm +1."""

    log_eta: float
    direct_parity: str


@dataclass(frozen=True)
class QuadraticField:
    """Q(sqrt(D)) with its fundamental unit and derived constants.

    q is D when D = 1 mod 4 and 4D otherwise; ell is the matching shift
    (4 resp. 1) used by the shifted-convolution series; log_eps is the
    natural log of the fundamental unit as a float.  Immutable.
    """

    D: int
    q: int
    ell: int
    eps: UnitElement
    norm_eps: int
    log_eps: float

    @property
    def is_norm_minus_one(self) -> bool:
        return self.norm_eps == -1

    @property
    def trace_eps(self) -> int:
        return self.eps.trace

    @cached_property
    def half_unit(self) -> HalfUnit:
        if self.norm_eps == -1:
            return HalfUnit(self.log_eps, PARITY_EVEN)
        return HalfUnit(0.5 * self.log_eps, PARITY_COMBINED)

    @cached_property
    def _membership_tables(self) -> tuple[bytes, bytes]:
        """The residue screens of D n^2 +- ell mod 4032 and mod 2431 (bit 0
        the minus sign, bit 1 the plus sign), read by is_fib and by
        pell_solutions_upto.  Built on first use (about 2 ms), so that fields
        which never test membership or scan for squares skip them."""
        return (
            _membership_table(self.D, self.ell, 4032, _SQUARES_MOD_4032),
            _membership_table(self.D, self.ell, 2431, _SQUARES_MOD_2431),
        )

    @cached_property
    def _log_fib_table(self) -> _LogFibTable:
        """math.log(F(n)), built on first use and grown by log_fib_upto."""
        return _LogFibTable(self.trace_eps, self.norm_eps, self.eps.b)

    def require_norm_minus_one(self) -> None:
        if self.norm_eps != -1:
            raise NormPlusOneError(
                f"D={self.D}: fundamental unit {self.eps} has norm +1; "
                "this operation needs norm -1"
            )

    def __str__(self) -> str:
        return f"Q(sqrt({self.D})), eps = {self.eps}, N(eps) = {self.norm_eps:+d}"


def _continued_fraction_unit(d: int) -> tuple[int, int, int]:
    """Fundamental unit of O_D from one period of the continued fraction.

    Expands sqrt(d) (or (1+sqrt(d))/2 for d = 1 mod 4) with exact integer
    state (P, Q) for the complete quotients (P + sqrt(d))/Q.  When a state
    repeats, the product of the partial-quotient matrices over the period
    fixes that quotient, and its large eigenvalue C*omega_r + A22 is the
    fundamental automorphism.  Returns (a, b, period_length) with the unit
    written as (a + b*sqrt(q))/2.
    """
    sq = math.isqrt(d)
    if d % 4 == 1:
        p_i, q_i = 1, 2
    else:
        p_i, q_i = 0, 1
    seen: dict[tuple[int, int], int] = {}
    states: list[tuple[int, int]] = []
    quotients: list[int] = []
    i = 0
    while True:
        state = (p_i, q_i)
        if state in seen:
            r = seen[state]
            break
        seen[state] = i
        states.append(state)
        a_i = (p_i + sq) // q_i
        quotients.append(a_i)
        p_next = a_i * q_i - p_i
        q_next = (d - p_next * p_next) // q_i
        p_i, q_i = p_next, q_next
        i += 1
        if i > 100 * d + 1000:  # period of sqrt(d) is O(sqrt(d) log d)
            raise DomainError(f"continued fraction of sqrt({d}) failed to cycle")
    # matrix product over the repeating window [r, i)
    m11, m12, m21, m22 = 1, 0, 0, 1
    for a_j in quotients[r:i]:
        m11, m12, m21, m22 = m11 * a_j + m12, m11, m21 * a_j + m22, m21
    p_r, q_r = states[r]
    u = Fraction(m21 * p_r, q_r) + m22
    v = Fraction(m21, q_r)
    if d % 4 == 1:
        a, b = 2 * u, 2 * v
    else:
        a, b = 2 * u, v
    if a.denominator != 1 or b.denominator != 1:
        raise DomainError(f"period matrix for D={d} gave a non-integral unit")
    return int(a), int(b), i - r


def _unit_by_search(q: int, b_cap: int) -> tuple[int, int] | None:
    """Smallest unit > 1 of the order, by scanning b in (a + b*sqrt(q))/2."""
    for b in range(1, b_cap + 1):
        qb2 = q * b * b
        hits = []
        for shift in (-4, 4):
            t = qb2 + shift
            if t >= 0 and is_square(t):
                hits.append(math.isqrt(t))
        if hits:
            return min(hits), b
    return None


def make_field(d: int) -> QuadraticField:
    """Construct and validate the field Q(sqrt(d)) for squarefree d >= 2."""
    if not isinstance(d, int) or d < 2:
        raise DomainError(f"D must be an integer >= 2, got {d!r}")
    p = squarefree_violation(d)
    if p is not None:
        raise NotSquarefreeError(d, p)
    if d % 4 == 1:
        q, ell = d, 4
    else:
        q, ell = 4 * d, 1
    a, b, period = _continued_fraction_unit(d)
    eps = UnitElement(a, b, q)
    if eps.norm not in (-1, 1):
        raise DomainError(f"continued fraction of D={d} produced a non-unit {eps}")
    if eps.norm != (-1) ** (period % 2):
        raise DomainError(f"norm/period mismatch for D={d}")
    if b <= _VALIDATION_SCAN_CAP:
        found = _unit_by_search(q, b)
        if found != (a, b):
            raise DomainError(
                f"fundamental-unit check failed for D={d}: "
                f"continued fraction gave {eps} but search found {found}"
            )
    # 40 digits leave the one rounding to float as the only error
    with localcontext() as ctx:
        ctx.prec = 40
        log_eps = float(((a + b * Decimal(q).sqrt()) / 2).ln())
    return QuadraticField(D=d, q=q, ell=ell, eps=eps, norm_eps=eps.norm, log_eps=log_eps)


def iter_sequence(field: QuadraticField) -> Iterator[SequenceTerm]:
    """Yield SequenceTerm(n, F(n), L(n)) for n = 0, 1, 2, ... (exact integers).

    Both sequences satisfy x(n+2) = t*x(n+1) - N*x(n) with t the trace and
    N the norm of the fundamental unit.  F(1) = Tr(eps/sqrt(q)) is the
    sqrt(q)-coefficient b of the unit (1 for every small field; e.g. 3 for
    D = 7), L starts 2, t.
    """
    t, norm = field.trace_eps, field.norm_eps
    f0, f1 = 0, field.eps.b
    l0, l1 = 2, t
    n = 0
    while True:
        yield SequenceTerm(n, f0, l0)
        f0, f1 = f1, t * f1 - norm * f0
        l0, l1 = l1, t * l1 - norm * l0
        n += 1


class _LogFibTable:
    """math.log(F(1)), math.log(F(2)), ... with the two exact terms that
    continue the recurrence past the last entry.

    Growing replaces the whole state at once, so a thread that reads it sees
    either the old table or the new one, never a half-grown one.
    """

    __slots__ = ("_trace", "_norm", "_state")

    def __init__(self, trace: int, norm: int, f1: int):
        self._trace, self._norm = trace, norm
        # (logs of F(1) .. F(n), F(n), F(n + 1)), from n = 0
        self._state: tuple[tuple[float, ...], int, int] = ((), 0, f1)

    def upto(self, n: int) -> tuple[float, ...]:
        logs, f0, f1 = self._state
        if len(logs) >= n:
            return logs
        t, norm = self._trace, self._norm
        grown = list(logs)
        while len(grown) < n:
            grown.append(math.log(f1))
            f0, f1 = f1, t * f1 - norm * f0
        logs = tuple(grown)
        self._state = (logs, f0, f1)
        return logs


def log_fib_upto(field: QuadraticField, n: int) -> tuple[float, ...]:
    """math.log(F(k)) at index k - 1 for k = 1 .. n at least (possibly more),
    from the field's table, which grows from its last two exact terms."""
    return field._log_fib_table.upto(n)


def sequence_terms(field: QuadraticField, count: int) -> list[SequenceTerm]:
    """First `count` terms (indices 0 .. count-1)."""
    return list(islice(iter_sequence(field), max(count, 0)))


def _term(field: QuadraticField, n: int) -> SequenceTerm:
    if n < 0:
        raise DomainError("index must be nonnegative")
    return next(islice(iter_sequence(field), n, None))


def fib(field: QuadraticField, n: int) -> int:
    """F(n) = Tr(eps^n / sqrt(q)), by the exact integer recurrence."""
    return _term(field, n).fib


def lucas(field: QuadraticField, n: int) -> int:
    """L(n) = Tr(eps^n), by the exact integer recurrence."""
    return _term(field, n).lucas


def fib_upto(field: QuadraticField, limit: int) -> list[SequenceTerm]:
    """Terms with 1 <= F(n) <= limit, ascending index (used for enumeration).

    F is nondecreasing from n = 1 on, so the terms stop at the first F(n) past
    the limit."""
    return list(takewhile(lambda term: term.fib <= limit, islice(iter_sequence(field), 1, None)))


@dataclass(frozen=True)
class MembershipResult:
    verdict: str
    witness: int | None

    def __bool__(self) -> bool:
        return self.verdict != NOT_MEMBER


# results are immutable, so every non-member shares this one
_NOT_A_MEMBER = MembershipResult(NOT_MEMBER, None)


def _exact_root(x: int) -> int:
    """isqrt(x) if x is a positive square, else 0."""
    r = math.isqrt(x)
    return r if r * r == x else 0


def is_fib(field: QuadraticField, n: int) -> MembershipResult:
    """Pell-type membership test: is n a term of the F sequence?

    Decides solvability of X^2 = q n^2 +- 4 exactly (reduced to
    Y^2 = D n^2 +- 1 when q = 4D, witness X = 2Y), so both arguments are
    D n^2 +- ell.  The field's residue tables, read at n mod 4032 and n mod
    2431, reject almost every non-member with no big-integer product: the
    mod-4032 table alone settles most n, and the mod-2431 table is read only
    for those it passes.  Only the signs that pass both get the exact isqrt
    test.  A non-member gets one shared result, so the common case allocates
    nothing.
    With a norm -1 unit the solvable sign determines the index parity: -4
    for odd index, +4 for even.  When both signs solve (only n=1 for D=5),
    the odd-index verdict is reported.  A norm +1 unit has no split, and its
    members get the plain MEMBER verdict.
    """
    if n < 1:
        raise DomainError(f"membership test needs a positive integer, got {n}")

    screen_4032, screen_2431 = field._membership_tables
    signs = screen_4032[n % 4032]
    if not signs:
        return _NOT_A_MEMBER
    signs &= screen_2431[n % 2431]
    if not signs:
        return _NOT_A_MEMBER
    base, ell = field.D * n * n, field.ell
    minus = signs & 1 and _exact_root(base - ell)
    plus = signs & 2 and _exact_root(base + ell)
    if not (minus or plus):
        return _NOT_A_MEMBER
    scale = 2 if ell == 1 else 1  # q = 4D: X = 2Y
    if field.norm_eps == -1:
        if minus:
            return MembershipResult(MEMBER_ODD_INDEX, scale * minus)
        return MembershipResult(MEMBER_EVEN_INDEX, scale * plus)
    return MembershipResult(MEMBER, scale * (plus or minus))


def pell_solutions_upto(field: QuadraticField, sign: int, t_max: int) -> tuple[int, ...]:
    """Every t with 1 <= t <= t_max for which D t^2 + sign*ell is a positive
    square, ascending; sign is +1 or -1.

    The field's residue tables screen t as is_fib screens n: the walk visits
    only the classes r mod 4032 whose entry has the sign's bit, steps
    t = r, r + 4032, ... through each (4032, 8064, ... for r = 0), and gives
    the exact isqrt test only to the t that the mod-2431 table also passes,
    so the result is exact.
    """
    bit = 2 if sign > 0 else 1
    d, shift = field.D, sign * field.ell  # D - ell >= 1, so every argument is > 0
    screen_4032, screen_2431 = field._membership_tables
    found = [
        t
        for r in range(4032)
        if screen_4032[r] & bit
        for t in range(r or 4032, t_max + 1, 4032)
        if screen_2431[t % 2431] & bit and _exact_root(d * t * t + shift)
    ]
    found.sort()
    return tuple(found)
